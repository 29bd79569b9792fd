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

import numpy as np

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


class PhDae:
    """Immutable quadruple (E, J, R, G) with optional state/input block labels.

    Structure is validated eagerly; ``validate=False`` exists only so that
    deliberately broken systems can be built for negative checks.  The
    report is kept, so validating again at the same tolerance is free.
    """

    def __init__(self, E, J, R, G, state_blocks=None, input_blocks=None,
                 tol: float | None = None, validate: bool = True):
        E = numkit.as_matrix(E).copy()
        J = numkit.as_matrix(J).copy()
        R = numkit.as_matrix(R).copy()
        G = numkit.as_matrix(G).copy()
        n = E.shape[0]
        for name, M in (("E", E), ("J", J), ("R", R)):
            if M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
        if G.shape[0] != n:
            raise ValueError(f"G must have {n} rows, got {G.shape}")
        for M in (E, J, R, G):
            M.setflags(write=False)
        self.E, self.J, self.R, self.G = E, J, R, G
        self.state_blocks = _named_blocks(state_blocks, n, "z")
        self.input_blocks = _named_blocks(input_blocks, G.shape[1], "v")
        self.tol = tol
        self._structure = None  # (tol, StructureReport) of the last validation
        if validate:
            report = validate_structure(self, tol=tol)
            if not report.verdict:
                raise StructureError(
                    "structure validation failed: " + "; ".join(report.failures())
                )

    @property
    def state_dim(self) -> int:
        return self.E.shape[0]

    @property
    def input_dim(self) -> int:
        return self.G.shape[1]

    def state_slice(self, label: str) -> slice:
        return _block_slice(self.state_blocks, label)

    def input_slice(self, label: str) -> slice:
        return _block_slice(self.input_blocks, label)

    def drift(self) -> np.ndarray:
        return self.J - self.R

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
        if not self.e_report.is_semidefinite or self.e_report.max_asymmetry > self.psd_tol:
            out.append(f"E {self.e_report.verdict} (min eig {self.e_report.min_eigenvalue:.3e})")
        if not self.r_report.is_semidefinite or self.r_report.max_asymmetry > self.psd_tol:
            out.append(f"R {self.r_report.verdict} (min eig {self.r_report.min_eigenvalue:.3e})")
        if self.j_skew_defect > self.skew_tol:
            out.append(f"J skew defect {self.j_skew_defect:.3e}")
        if not self.w_report.is_semidefinite:
            out.append(f"dissipation matrix {self.w_report.verdict}")
        return out

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


def validate_structure(sys: PhDae, tol: float | None = None) -> StructureReport:
    """Check E, R symmetric PSD and J skew; never raises on a bad system.

    PSD checks run at ``tol`` (default 1e-10 scale-relative per matrix); the
    skew check runs at 1e-12 scale-relative.  The dissipation matrix
    diag(R, 0) is reported alongside.  The report is kept on the system and
    returned again when the tolerance matches.
    """
    if sys._structure is not None and sys._structure[0] == tol:
        return sys._structure[1]
    psd_tol_e = tol if tol is not None else numkit.default_tol(sys.E)
    psd_tol_r = tol if tol is not None else numkit.default_tol(sys.R)
    skew_tol = tol if tol is not None else 1e-12 * (
        1.0 + (float(np.max(np.abs(sys.J))) if sys.J.size else 0.0)
    )
    e_rep = numkit.psd_check(sys.E, psd_tol_e, require_symmetric=False)
    r_rep = numkit.psd_check(sys.R, psd_tol_r, require_symmetric=False)
    j_def = numkit.skew_defect(sys.J)
    # diag(R, 0_m) has the spectrum of R and m zeros
    w_rep = r_rep if not sys.input_dim else SpectralReport.from_extremes(
        min(r_rep.min_eigenvalue, 0.0), max(r_rep.max_eigenvalue, 0.0),
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
    return 0.5 * float(z @ sys.E @ z)


def output(sys: PhDae, z) -> np.ndarray:
    """Power-conjugated output y = G^T z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.state_dim,):
        raise ValueError(f"state length {z.shape} does not match dimension {sys.state_dim}")
    return sys.G.T @ z


def dissipation_matrix(sys: PhDae) -> np.ndarray:
    """Block matrix diag(R, 0_m); PSD iff the system dissipates."""
    return numkit.block_diag(sys.R, np.zeros((sys.input_dim, sys.input_dim)))


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
    rhs = sys.drift() @ z + sys.G @ v
    lhs = sys.E @ zdot
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
    h_rate = float(z @ sys.E @ zdot)
    supplied = float(output(sys, z) @ v)
    dissipated = float(z @ sys.R @ z)
    return abs(h_rate - (supplied - dissipated))


# ---------------------------------------------------------------------------
# Serialization: one directory with four MatrixMarket files and a manifest
# ---------------------------------------------------------------------------

_MATRIX_FILES = {"E": "E.mtx", "J": "J.mtx", "R": "R.mtx", "G": "G.mtx"}


def save_phdae(sys: PhDae, directory, tol: float | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, fname in _MATRIX_FILES.items():
        numkit.write_matrix_market(os.path.join(directory, fname), getattr(sys, name))
    manifest = {
        "state_dim": sys.state_dim,
        "input_dim": sys.input_dim,
        "state_blocks": [[n, s] for n, s in sys.state_blocks],
        "input_blocks": [[n, s] for n, s in sys.input_blocks],
        "validation_tol": tol if tol is not None else sys.tol,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_phdae(directory, validate: bool = True) -> PhDae:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    mats = {name: numkit.read_matrix_market(os.path.join(directory, fname))
            for name, fname in _MATRIX_FILES.items()}
    return PhDae(
        mats["E"], mats["J"], mats["R"], mats["G"],
        state_blocks=[tuple(b) for b in manifest["state_blocks"]],
        input_blocks=[tuple(b) for b in manifest["input_blocks"]],
        tol=manifest.get("validation_tol"),
        validate=validate,
    )
