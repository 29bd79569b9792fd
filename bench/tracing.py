"""Span tracer and self-time aggregator for the traced benchmark run.

``Tracer.install`` wraps the public functions of every phporo module from
the outside: each module attribute (including names other modules imported
with ``from x import f``) that refers to a wrapped function is rebound to its
wrapper, so every call that crosses into a function records a span
``[id, parent, name, op, start, end]``.  Spans stay in memory, are handed out
per round with ``take`` and are written out with ``write_spans`` at exit.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import os
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("numkit", "fem", "phdae", "formulations", "dae_analysis", "interconnect",
          "timeint", "cli")

# Per-element kernels run once per triangle inside the fem assembly loops;
# spans there would cost more than the work they time, so their time stays in
# the calling assembly span.
UNTRACED = {"fem.triangle_area", "fem.p1_gradients", "fem.element_mass",
            "fem.element_stiffness", "fem.element_elasticity", "fem.element_divergence"}

# Class methods traced besides module functions.
METHODS = (("timeint", "Trajectory", "to_csv"),
           ("formulations", "ParabolicReduction", "g_tilde"))

# Function name pattern -> metric group; the first match wins.
GROUPS = (
    ("numkit.psd_check", "numkit.psd_check"),
    ("numkit.*_matrix_market", "numkit.mm_io"),
    ("phdae.validate_structure", "phdae.validate"),
    ("phdae.save_phdae", "phdae.io"),
    ("phdae.load_phdae", "phdae.io"),
    ("dae_analysis.classify_*index", "dae_analysis.index"),
    ("dae_analysis.consistent_initialization", "dae_analysis.init"),
    ("fem.assemble_nonlinear_permeability", "fem.nonlinear_permeability"),
    ("fem.elementwise_divergence", "fem.dilatation"),
    ("fem.assemble_*", "fem.assemble"),
    ("formulations.check_network_ellipticity", "formulations.ellipticity"),
    ("formulations.ParabolicReduction.g_tilde", "formulations.g_tilde"),
    ("formulations.build_*", "formulations.build"),
    ("formulations.assemble_*", "formulations.build"),
    ("formulations.schur_reduce_parabolic", "formulations.build"),
    ("interconnect.couple_*", "interconnect.couple"),
    ("interconnect.feedback", "interconnect.feedback"),
    ("timeint.integrate_*", "timeint.integrate"),
    ("timeint.Trajectory.to_csv", "timeint.csv"),
    ("cli.signal", "cli.signal"),
)

# Groups whose output files are counted in bytes, by the path argument.
BYTE_GROUPS = ("numkit.mm_io", "timeint.csv")


@functools.lru_cache(maxsize=None)
def group_of(name: str) -> str | None:
    for pattern, group in GROUPS:
        if fnmatch.fnmatchcase(name, pattern):
            return group
    return None


class Tracer:
    """Records spans of phporo calls while ``active``; counts bytes and steps."""

    def __init__(self, error_types: tuple[type, ...]):
        self.error_types = error_types   # the program's typed errors
        self.active = False
        self.op = None                   # operation the next spans belong to
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._errored: dict[int, BaseException] = {}
        self.reset_counters()

    def reset_counters(self) -> None:
        self.bytes = defaultdict(int)
        self.steps = 0
        self.errors = defaultdict(int)

    # -- recording -----------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self._spans)
        span = [sid, self._stack[-1] if self._stack else -1, name, self.op,
                perf_counter(), 0.0]
        self._spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except self.error_types as exc:
            # count each error once, in the innermost traced layer it left
            if id(exc) not in self._errored:
                self._errored[id(exc)] = exc
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            span[5] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        group = group_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if self.active:
                if group in BYTE_GROUPS:
                    path = args[1] if name.endswith(".to_csv") else args[0]
                    self.bytes[group] += os.path.getsize(path)
                elif group == "timeint.integrate":
                    self.steps += len(result.times) - 1
                elif name == "cli.input_signal":
                    result = self._wrap("cli.signal", result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand out the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self._spans = self._spans, []
        self._errored.clear()
        return spans

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"phporo.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(value, types.FunctionType) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[value] = self._wrap(name, value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                              cls.__dict__[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[list]) -> dict:
    """Calls and self time per layer and per metric group."""
    child = [0.0] * len(spans)
    for sid, parent, _name, _op, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    groups = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, _parent, name, _op, start, end in spans:
        self_s = end - start - child[sid]
        for bucket in (layers[name.split(".")[0]], groups[group_of(name)]):
            bucket["calls"] += 1
            bucket["self_s"] += self_s
    groups.pop(None, None)
    return {"layers": layers, "groups": dict(groups)}


def write_spans(path, rounds: list[list[list]]) -> None:
    """One JSON object per span, tagged with its round."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(rounds):
            for sid, parent, name, op, start, end in spans:
                fh.write(json.dumps({"round": k, "id": sid, "parent": parent, "name": name,
                                     "op": op, "start": start, "end": end}) + "\n")
