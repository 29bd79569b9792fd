"""Port-Hamiltonian descriptor systems E z' = (J - R) z + G v, y = G^T z.

The stored energy is H(z) = 0.5 * z^T E z; the half makes the energy rate
identity d/dt H = -z^T R z + y^T v exact, so trajectories can be audited
against it step by step.  Systems with feedthrough are out of scope and
rejected by construction: there is no feedthrough slot in the type.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import block_diag, csr_array

from . import numkit
from .numkit import SpectralReport, StructureError


class InconsistentStateError(ValueError):
    """A state/input pair violates the system dynamics or its constraints."""


def _named_blocks(blocks, total: int, fallback: str) -> tuple[tuple[str, int], ...]:
    if blocks is None:
        return ((fallback, total),) if total else ()
    blocks = tuple((str(name), int(size)) for name, size in blocks)
    if sum(size for _, size in blocks) != total:
        raise ValueError(f"block sizes {blocks} do not sum to dimension {total}")
    return blocks


def _block_slice(blocks, label: str) -> slice:
    start = 0
    for name, size in blocks:
        if name == label:
            return slice(start, start + size)
        start += size
    raise KeyError(f"no block named {label!r} in {[n for n, _ in blocks]}")


class SystemMatrices(NamedTuple):
    """The canonical CSR matrices (``numkit.as_csr``) of one system."""

    E: csr_array
    J: csr_array
    R: csr_array
    G: csr_array


class PhDae:
    """Immutable quadruple (E, J, R, G) with optional state/input block labels.

    The matrices are stored as canonical CSR in ``csr`` (dense or sparse
    input; a canonical CSR input is kept without a copy, its arrays made
    read-only), and everything in the package works on those.  ``E``,
    ``J``, ``R`` and ``G`` are read-only dense views, made the first time
    they are read; only the tests and their dense oracle read them.

    Structure is validated eagerly at default tolerances.  ``validate=False``
    defers that: to the parts of a composition that is validated once as a
    whole (``interconnect``'s subsystems, ``aggregate``, ``close_loop``), to
    ``load_phdae``, which validates at the recorded tolerance, and to
    negative checks that build deliberately broken systems.  The report is
    kept, so validating again at the same tolerance is free; so are the
    certificates of E and R (see ``certificate``).
    """

    E = numkit.DenseView()
    J = numkit.DenseView()
    R = numkit.DenseView()
    G = numkit.DenseView()

    def __init__(self, E, J, R, G, state_blocks=None, input_blocks=None,
                 validate: bool = True):
        self.csr = SystemMatrices(*(numkit.as_csr(M) for M in (E, J, R, G)))
        n = self.csr.E.shape[0]
        for name, M in zip("EJR", self.csr):
            if M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
        if self.csr.G.shape[0] != n:
            raise ValueError(f"G must have {n} rows, got {self.csr.G.shape}")
        self.state_blocks = _named_blocks(state_blocks, n, "z")
        self.input_blocks = _named_blocks(input_blocks, self.csr.G.shape[1], "v")
        self._dense: dict = {}  # name -> dense view
        self._structure = None  # (tol, StructureReport) of the last validation
        self._certificates: dict = {}  # "E"/"R" -> numkit.psd_certificate of it
        if validate:
            validate_structure(self).require()

    @property
    def state_dim(self) -> int:
        return self.csr.E.shape[0]

    @property
    def input_dim(self) -> int:
        return self.csr.G.shape[1]

    def state_slice(self, label: str) -> slice:
        return _block_slice(self.state_blocks, label)

    def input_slice(self, label: str) -> slice:
        return _block_slice(self.input_blocks, label)

    def drift(self) -> csr_array:
        """J - R as CSR."""
        return self.csr.J - self.csr.R

    def __repr__(self):
        blocks = ", ".join(f"{n}:{s}" for n, s in self.state_blocks)
        return f"PhDae(n={self.state_dim}, m={self.input_dim}, blocks=[{blocks}])"


@dataclass(frozen=True)
class StructureReport:
    """Outcome of checking E, J, R and the dissipation matrix of one system."""

    e_report: SpectralReport
    r_report: SpectralReport
    j_skew_defect: float
    w_report: SpectralReport
    psd_tol: float
    skew_tol: float
    verdict: bool

    def failures(self) -> list[str]:
        out = []
        for name, rep in (("E", self.e_report), ("R", self.r_report)):
            if not rep.is_semidefinite or rep.max_asymmetry > self.psd_tol:
                # a certified report fails only on its asymmetry
                detail = (f"asymmetry {rep.max_asymmetry:.3e}" if rep.min_eigenvalue is None
                          else f"min eig {rep.min_eigenvalue:.3e}")
                out.append(f"{name} {rep.verdict} ({detail})")
        if self.j_skew_defect > self.skew_tol:
            out.append(f"J skew defect {self.j_skew_defect:.3e}")
        if not self.w_report.is_semidefinite:
            out.append(f"dissipation matrix {self.w_report.verdict}")
        return out

    def require(self) -> "StructureReport":
        """This report; ``StructureError`` naming the failures if it fails."""
        if not self.verdict:
            raise StructureError("structure validation failed: " + "; ".join(self.failures()))
        return self

    def to_dict(self) -> dict:
        return {
            "E": self.e_report.to_dict(),
            "R": self.r_report.to_dict(),
            "J_skew_defect": self.j_skew_defect,
            "dissipation_matrix": self.w_report.to_dict(),
            "psd_tol": self.psd_tol,
            "skew_tol": self.skew_tol,
            "verdict": self.verdict,
        }


def certificate(sys: PhDae, name: str) -> np.ndarray | None:
    """``numkit.psd_certificate`` of ``sys.csr.E`` or ``sys.csr.R``, computed
    once per system; the zero rows of a certified E are the algebraic rows."""
    if name not in sys._certificates:
        sys._certificates[name] = numkit.psd_certificate(getattr(sys.csr, name))
    return sys._certificates[name]


def validate_structure(sys: PhDae, tol: float | None = None) -> StructureReport:
    """Check E, R symmetric PSD and J skew; never raises on a bad system.

    E and R are PSD by their ``certificate`` (reported without an eigenvalue)
    or else by the lowest eigenvalue of ``numkit.psd_check`` at ``tol``
    (default 1e-10 scale-relative per matrix), which also bounds their
    asymmetry.  The skew check runs at 1e-12 scale-relative.  The
    dissipation matrix diag(R, 0) is reported alongside.  The report is kept
    on the system and returned again when the tolerance matches.
    """
    if sys._structure is not None and sys._structure[0] == tol:
        return sys._structure[1]
    E, J, R, _ = sys.csr
    psd_tol_e = tol if tol is not None else numkit.default_tol(E)
    psd_tol_r = tol if tol is not None else numkit.default_tol(R)
    skew_tol = tol if tol is not None else 1e-12 * (1.0 + numkit.max_abs(J))
    e_rep = numkit.certified_report(E, certificate(sys, "E"), psd_tol_e)
    r_rep = numkit.certified_report(R, certificate(sys, "R"), psd_tol_r)
    j_def = numkit.skew_defect(J)
    # diag(R, 0_m) has the spectrum of R and m zeros
    if not sys.input_dim:
        w_rep = r_rep
    elif r_rep.min_eigenvalue is None:
        w_rep = SpectralReport(None, r_rep.max_asymmetry, numkit.POSITIVE_SEMIDEFINITE)
    else:
        w_rep = SpectralReport.from_lowest(min(r_rep.min_eigenvalue, 0.0),
                                           r_rep.max_asymmetry, psd_tol_r)
    verdict = (
        e_rep.is_semidefinite and e_rep.max_asymmetry <= psd_tol_e
        and r_rep.is_semidefinite and r_rep.max_asymmetry <= psd_tol_r
        and j_def <= skew_tol
        and w_rep.is_semidefinite
    )
    report = StructureReport(e_rep, r_rep, j_def, w_rep,
                             max(psd_tol_e, psd_tol_r), skew_tol, verdict)
    sys._structure = (tol, report)
    return report


def hamiltonian(sys: PhDae, z) -> float:
    """Stored energy H(z) = 0.5 * z^T E z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.state_dim,):
        raise ValueError(f"state length {z.shape} does not match dimension {sys.state_dim}")
    return 0.5 * float(z @ (sys.csr.E @ z))


def output(sys: PhDae, z) -> np.ndarray:
    """Power-conjugated output y = G^T z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.state_dim,):
        raise ValueError(f"state length {z.shape} does not match dimension {sys.state_dim}")
    return sys.csr.G.T @ z


def dissipation_matrix(sys: PhDae) -> csr_array:
    """Block matrix diag(R, 0_m) as CSR; PSD iff the system dissipates."""
    m = sys.input_dim
    return block_diag((sys.csr.R, csr_array((m, m))), format="csr")


def power_balance_residual(sys: PhDae, z, v, zdot, tol: float | None = None) -> float:
    """| d/dt H - (-z^T R z + y^T v) | for a pair satisfying the dynamics.

    The pair must satisfy E zdot = (J - R) z + G v within tol; otherwise the
    residual would be meaningless and ``InconsistentStateError`` is raised.
    """
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if z.shape != (sys.state_dim,) or zdot.shape != (sys.state_dim,):
        raise ValueError("state and derivative must match the system dimension")
    if v.shape != (sys.input_dim,):
        raise ValueError(f"input length {v.shape} does not match dimension {sys.input_dim}")
    E, J, R, G = sys.csr
    rhs = (J - R) @ z + G @ v
    lhs = E @ zdot
    scale = 1.0 + max(
        float(np.max(np.abs(lhs))) if z.size else 0.0,
        float(np.max(np.abs(rhs))) if z.size else 0.0,
    )
    if tol is None:
        tol = 1e-8 * scale
    dyn = float(np.linalg.norm(lhs - rhs))
    if dyn > tol:
        raise InconsistentStateError(
            f"state does not satisfy the dynamics (residual {dyn:.3e} > {tol:.3e})"
        )
    h_rate = float(z @ lhs)
    supplied = float(output(sys, z) @ v)
    dissipated = float(z @ (R @ z))
    return abs(h_rate - (supplied - dissipated))


# ---------------------------------------------------------------------------
# Serialization: one directory with four MatrixMarket files and a manifest
# ---------------------------------------------------------------------------

_MATRIX_FILES = {"E": "E.mtx", "J": "J.mtx", "R": "R.mtx", "G": "G.mtx"}


def save_phdae(sys: PhDae, directory, tol: float | None = None) -> None:
    """Write E, J, R, G from their CSR and a manifest recording ``tol`` for
    ``load_phdae``."""
    os.makedirs(directory, exist_ok=True)
    for name, fname in _MATRIX_FILES.items():
        numkit.write_matrix_market(os.path.join(directory, fname), getattr(sys.csr, name))
    manifest = {
        "state_dim": sys.state_dim,
        "input_dim": sys.input_dim,
        "state_blocks": [[n, s] for n, s in sys.state_blocks],
        "input_blocks": [[n, s] for n, s in sys.input_blocks],
        "validation_tol": tol,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_phdae(directory) -> PhDae:
    """Read a ``save_phdae`` directory as CSR, validated at its recorded ``tol``."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    mats = {name: numkit.read_matrix_market(os.path.join(directory, fname))
            for name, fname in _MATRIX_FILES.items()}
    sys = PhDae(
        mats["E"], mats["J"], mats["R"], mats["G"],
        state_blocks=[tuple(b) for b in manifest["state_blocks"]],
        input_blocks=[tuple(b) for b in manifest["input_blocks"]],
        validate=False,
    )
    validate_structure(sys, manifest.get("validation_tol")).require()
    return sys
