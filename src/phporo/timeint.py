"""Time integration with per-step energy accounting.

The implicit midpoint rule is the default: for linear constant-coefficient
systems it satisfies the discrete balance

    H(z_{k+1}) - H(z_k) = -h zm^T R zm + h ym^T vm,   zm = (z_k + z_{k+1})/2,

exactly up to roundoff, so every trajectory carries a dissipated/supplied
ledger that can be audited after the fact.  Implicit Euler is provided as a
baseline; it introduces artificial dissipation and keeps the same ledger
convention without the exact identity.  Both are the theta method
(theta = 1/2 and theta = 1) of one stepping loop.  The loop works on the
system's stored CSR of E, J, R and G: step matrices are sparse sums,
factored once per distinct step size by ``numkit``'s sparse LU, and a step
is one sparse mat-vec and one solve.  A run first finds on those matrices
its kinematic block (``_kinematic_block``), if any: the u rows that read
E_uu u' = E_uu w, as K_A u' = K_A w of the first-order forms, however built.
A step gives u+ = u + b w + a w+ there (a = theta h, b = (1 - theta) h) with
no solve, so the LU, the mat-vec and the solve are those of the step on the
other rows and columns, (w, p) (``_Reduction``; all of them without a
block), and u+ is rebuilt; the fill of that LU is about a third of the whole
step matrix's.  The input is sampled and the ledger
booked per block of steps, bit-identical to per-step products: a
``SeparableSignal`` by one ``sample`` call per block, any other input
callable by one call per sample time, in block order.  The nonlinear
permeability run supplies a new R of one fixed pattern on every step: both
step matrices then live on one CSR pattern, the union of those of
E - theta h J, E + (1 - theta) h J and R, made again only when h or R's
pattern changes, and each step writes their data arrays and the entries of
the reduced ones that R moves (R lives outside the kinematic rows and
columns).  R moves by O(h) from one step to the next, so the last step's
factor is kept and each step is first solved by iterative refinement with
it (``Factorization.refine``, which takes the implicit CSR as it is and
lifts each reduced iterate to the whole state): the step's solution is
taken once its normwise backward error against the step's own whole
matrix, kinematic rows included, is at most ``numkit.REFINE_TARGET``
(1e-15).  Only when refinement stalls, or ``numkit.REFINE_SOLVES`` (16)
solves do not get there, or the step matrix has a zero row or column, is
the stale factor dropped and the reduced step matrix factored afresh
(``Factorization.refactor``: in the factor's own column order, which skips
COLAMD, and under the usual pivot rule).
Such a run agrees with one that factors every step to about 1e-12 relative
(4e-12 at n = 12), not bit for bit.  With a constant R a plain solve with
the first factor meets the target (a fresh LU solve lands near 1e-16), so
such a run is bit-identical to the linear one.

Index-2 systems are integrated directly without index reduction; the
stepper neither corrects nor reports constraint drift, which callers can
measure on the returned states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from . import fem
from .formulations import DiscreteOperators, SeparableSignal, build_full_first_order
from .dae_analysis import algebraic_rows
from .numkit import Factorization, SingularMatrixError
from .phdae import InconsistentStateError, PhDae, certificate


@dataclass(frozen=True)
class Trajectory:
    """Time grid, state snapshots and the per-step energy ledger."""

    times: np.ndarray        # (T,) strictly increasing
    states: np.ndarray       # (T, n)
    hamiltonian: np.ndarray  # (T,)
    dissipated: np.ndarray   # (T-1,) h * zm^T R zm per step
    supplied: np.ndarray     # (T-1,) h * ym^T vm per step

    def __post_init__(self):
        T = len(self.times)
        if self.states.shape[0] != T or len(self.hamiltonian) != T:
            raise ValueError("snapshot arrays must match the time grid")
        if len(self.dissipated) != T - 1 or len(self.supplied) != T - 1:
            raise ValueError("ledger arrays must have one entry per step")
        if T > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def dissipated_cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.dissipated)])

    def supplied_cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.supplied)])

    def balance_residuals(self) -> np.ndarray:
        """|H_{k+1} - H_k + dissipated_k - supplied_k| per step."""
        return np.abs(np.diff(self.hamiltonian) + self.dissipated - self.supplied)

    def hamiltonian_nonincreasing(self) -> bool:
        """True if H never rises by more than 1e-12 * max(1, |H_k|) in a step."""
        h = self.hamiltonian
        slack = 1e-12 * np.maximum(1.0, np.abs(h[:-1]))
        return bool(np.all(h[1:] <= h[:-1] + slack))

    def to_csv(self, path) -> None:
        """Columns: time, H, dissipated_cum, supplied_cum, state entries.

        Each value is CPython's ``repr``, the shortest decimal that reads back
        to it, computed in numpy by the Schubfach algorithm (R. Giulietti, "The
        Schubfach way to render doubles", 2020) on blocks of whole rows, about
        8192 values each, built from the states and ledger columns; a row
        wider than that is formatted in pieces of at most 8192 values."""
        header = ["time", "H", "dissipated_cum", "supplied_cum"]
        header += [f"z{i}" for i in range(self.states.shape[1])]
        ledger = (self.times, self.hamiltonian, self.dissipated_cumulative(),
                  self.supplied_cumulative())
        rows = max(1, _CSV_BLOCK // len(header))  # whole rows, so no table copy is made
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, len(self.times), rows):
                block = np.column_stack([c[start:start + rows] for c in ledger]
                                        + [self.states[start:start + rows]])
                block = block.ravel().astype(float, copy=False)
                for piece in range(0, block.size, _CSV_BLOCK):  # one piece unless a row is wider
                    fh.write(_csv_text(block[piece:piece + _CSV_BLOCK], piece, len(header)))


# -- the values of a trajectory CSV: repr, computed in numpy -----------------
# Strings are packed into uint64 words, byte j in bits 8j..8j+7.  As repr,
# x = 0.d1...dn 10^decpt is positional for -4 < decpt <= 16, else d1.d2...dne+XX.

_CSV_BLOCK = 8192  # values formatted at a time


def _pack(*columns) -> np.ndarray:
    """The words of the strings whose byte j is columns[j]."""
    return sum(np.asarray(b, dtype=np.uint64) << np.uint64(8 * j) for j, b in enumerate(columns))


# g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for k = -324..292, as the 32-bit
# halves of g1 and g0, g = g1 2^63 + g0, and g1, in five tables; (e 913124641741) >> 38
# = floor(e log2 10).
_G = [(10 ** max(-k, 0) << max(125 - f, 0)) // (10 ** max(k, 0) << max(f - 125, 0)) + 1
      for k, f in zip(range(-324, 293), (np.arange(324, -293, -1) * 913124641741 >> 38).tolist())]
_G = tuple(np.array([[g >> 95, g >> 63 & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF,
                      g >> 63] for g in _G], dtype=np.uint64).T.copy())
_POW10 = np.uint64(10) ** np.arange(18, dtype=np.uint64)
_ASCII4 = _pack(*(np.arange(10000) // [[1000], [100], [10], [1]] % 10 + 48))  # the 4 digits of i
_BELOW = np.clip(np.arange(19) - 8 * np.arange(3)[:, None], 0, 8).astype(np.uint64)
_BELOW = (np.uint64(1) << 8 * _BELOW) - 1  # [w, p]: the bytes of word w before byte p
_AFTER, _DOT = ~_BELOW[:, 1:], (_BELOW[:, :-1] ^ _BELOW[:, 1:]) & 0x2E2E2E2E2E2E2E2E  # after p, "."
# By decpt + 330: the byte of the point among the digits; (+ 661 n) how many bytes of
# digits and point to write; (+ 661 sign bit) "-0.000" before them; the exponent after.
_DECPT, _N = np.arange(-330, 331), np.arange(18)[:, None]
_POSITIONAL, _EXP = (_DECPT > -4) & (_DECPT < 17), abs(_DECPT - 1)
_POINT = np.where(_POSITIONAL, np.where(_DECPT > 0, _DECPT, 17), 1)
_KEEP = np.where(_POSITIONAL, np.where(_DECPT < 1, _N, np.maximum(_N + 1, _DECPT + 2)),
                 _N + (_N > 1)).ravel()
_HEAD = _pack([[0], [45]], *[[48], [46], [48], [48], [48]]
              * (_POSITIONAL & (_DECPT < [[1], [1], [0], [-1], [-2]]))).ravel()
_TAIL = np.where(_POSITIONAL, 0, _pack(0, 101, np.where(_DECPT < 1, 45, 43),
                 (_EXP >= 100) * (_EXP // 100 + 48), _EXP // 10 % 10 + 48, _EXP % 10 + 48))


def _mul_hi(a1, a0, b1, b0):
    """High words of the products (a1 2^32 + a0)(b1 2^32 + b0)."""
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), odd when the bits below are not zero (rop)."""
    b1, b0 = cp >> 32, cp & 0xFFFFFFFF
    low = (g[4] * cp >> 1) + _mul_hi(g[2], g[3], b1, b0)
    return (_mul_hi(g[0], g[1], b1, b0) + (low >> 63)) | ((low << 1) != 0)


def _shortest(x):
    """(d, e), d without trailing zeros: d 10^e is the decimal repr gives each
    positive normal double x (shortest in its rounding interval, then closest, then even d)."""
    bits = x.view(np.uint64)
    c = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    q = (bits >> 52).astype(np.int64) - 1075  # x = c 2^q
    irregular = (c == 2**52) & (q > -1074)  # the lower neighbour of x is closer
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = [table.take(k + 324) for table in _G]
    # x and the ends of its rounding interval, times 4 10^-k, rounded to odd;
    # the ends belong to the interval when c is even
    cb = c << 2
    vb, vbl, vbr = (_round_to_odd(g, v << h) for v in (cb, cb - 2 + irregular, cb + 2))
    lo, hi = vbl + (c & 1), vbr - (c & 1)
    s = vb >> 2
    s10 = s // 10
    upin, wpin = lo <= s10 * 40, s10 * 40 + 40 <= hi
    uin, win = lo <= s << 2, (s << 2) + 4 <= hi
    # s + 1 when only it is inside, or both are and it is closer, or as close and even
    up = win & (~uin | (vb + (s & 1) > (s << 2) + 2))
    short = upin != wpin  # exactly one multiple of 10 in the interval
    d, e = np.where(short, s10 + wpin, s + up), k + short
    for p in (8, 4, 2, 1):
        cut = d // 10**p
        zeros = cut * 10**p == d
        if zeros.any():
            d, e = np.where(zeros, cut, d), e + zeros * p
    return d, e


def _csv_text(x: np.ndarray, start: int, columns: int) -> np.ndarray:
    """The CSV text of x, entries start.. of a table with this many columns:
    each value's repr, then a comma, or a newline after the last column."""
    bits = x.view(np.uint64)
    normal = (bits >> 52 & 0x7FF) - 1 < 2046  # exponent field 1..2046
    all_normal = bool(normal.all())
    if all_normal:
        d, e = _shortest(np.abs(x))
    else:
        d, e = np.zeros(x.size, dtype=np.uint64), np.zeros(x.size, dtype=np.int64)
        if normal.any():  # else all zeros, subnormals, infinities or nans
            d[normal], e[normal] = _shortest(np.abs(x[normal]))
    n = np.maximum(np.searchsorted(_POW10, d, side="right"), 1)
    decpt = e + n + 330
    # bytes 0-7, 8-15 and 16 of the digits of d as a string of 17
    D = d * _POW10.take(17 - n)
    hi = D // 10**9
    lo = D - hi * 10**9
    h4, l5, l1 = hi // 10**4, lo // 10**5, lo // 10
    digits = (_ASCII4.take(h4) | _ASCII4.take(hi - h4 * 10**4) << 32,
              _ASCII4.take(l5) | _ASCII4.take(l1 - l5 * 10**4) << 32, lo - l1 * 10 + 48)
    moved = (digits[0] << 8, digits[1] << 8 | digits[0] >> 56, digits[2] << 8 | digits[1] >> 56)
    # the point goes in at byte `point`, the digits after it move up one
    point, keep = _POINT.take(decpt), _KEEP.take(n * 661 + decpt)
    field = [(digits[w] & _BELOW[w].take(point) | moved[w] & _AFTER[w].take(point)
              | _DOT[w].take(point)) & _BELOW[w].take(keep) for w in range(3)]
    # each value in the 32 bytes of its four words, the bytes not written zero
    sep = np.full(x.size, ord(",") << 48, dtype=np.uint64)
    sep[(columns - 1 - start) % columns::columns] = ord("\n") << 48
    words = np.empty((x.size, 4), dtype=np.uint64)
    np.bitwise_or(field[0] << 48, _HEAD.take((bits >> 63).astype(np.intp) * 661 + decpt),
                  out=words[:, 0])
    np.bitwise_or(field[0] >> 16, field[1] << 48, out=words[:, 1])
    np.bitwise_or(field[1] >> 16, field[2] << 48, out=words[:, 2])
    np.bitwise_or(_TAIL.take(decpt), sep, out=words[:, 3])
    text = words.view(np.uint8)
    if not all_normal:
        for i in np.flatnonzero(~normal & (bits << 1 != 0)):  # subnormal, inf, nan
            text[i, :30] = np.frombuffer(repr(float(x[i])).encode().ljust(30, b"\0"),
                                         dtype=np.uint8)
    text = text.ravel()
    return text[text != 0]


def _check_consistent_start(sys: PhDae, z0: np.ndarray, v0: np.ndarray) -> None:
    """Algebraic rows of r = (J - R) z0 + G v0 must vanish, up to
    1e-8 * (1 + max|r|).

    Those rows are the rows Z of ``dae_analysis.algebraic_rows``, whose unit
    vectors span the left kernel of E.
    """
    A = sys.drift()
    zero_rows = algebraic_rows(sys.csr.E, A, certificate(sys, "E"))
    rhs = A @ z0 + sys.csr.G @ v0
    resid = float(np.linalg.norm(rhs[zero_rows]))
    scale = 1.0 + float(np.max(np.abs(rhs))) if rhs.size else 1.0
    limit = 1e-8 * scale
    if resid > limit:
        raise InconsistentStateError(
            f"initial state violates the algebraic constraints "
            f"(residual {resid:.3e} > {limit:.3e})"
        )


def _snapped_steps(t: np.ndarray) -> np.ndarray:
    """Step sizes of the grid, with sizes that agree to 1e-12 relative
    replaced by the smallest of them, so that a uniform grid has exactly one
    step size despite the rounding of its nodes."""
    h = np.diff(t)
    order = np.argsort(h, kind="stable")
    sorted_h = h[order]
    i = 0
    while i < len(sorted_h):
        j = int(np.searchsorted(sorted_h, sorted_h[i] * (1.0 + 1e-12), side="right"))
        h[order[i:j]] = sorted_h[i]
        i = j
    return h


def _entry_keys(M) -> np.ndarray:
    """row * columns + column of every stored entry of the CSR matrix M."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) * M.shape[1] + M.indices


def _kinematic_block(sys: PhDae) -> tuple[slice, slice]:
    """The first pair of state blocks (q, w) whose q rows read E_qq q' = E_qq w
    on the stored CSR: E's q rows hold only E_qq, J's exactly E_qq at the w
    columns, R's and G's nothing, and E's certificate holds with no zero row
    in q, so E_qq is nonsingular; else two empty slices."""
    E, J, R, G = sys.csr
    zero_rows = certificate(sys, "E")
    ends = np.cumsum([0] + [size for _, size in sys.state_blocks]).tolist()
    for q, w in itertools.permutations(map(slice, ends[:-1], ends[1:]), 2):
        E_q, size = E[q], q.stop - q.start
        if (zero_rows is None or not size or size != w.stop - w.start
                or np.any((zero_rows >= q.start) & (zero_rows < q.stop))
                or np.any((E_q.indices < q.start) | (E_q.indices >= q.stop))):
            continue
        at_w = csr_array((E_q.data, E_q.indices + w.start - q.start, E_q.indptr), E_q.shape)
        if not ((J[q] != at_w).nnz or R[q].count_nonzero() or G[q].count_nonzero()):
            return q, w
    return slice(0, 0), slice(0, 0)


class _Reduction:
    """The step matrices of one step size on the rows and columns outside a
    kinematic block (u, w) (``_kinematic_block``), and the new state from the
    solution there (``lifting``).

    The u rows of a step with F = E - a J + a R and X = E + b J - b R
    (a = theta h, b = (1 - theta) h) read E_uu (u+ - a w+) = E_uu (u + b w),
    so that u+ = u + b w + a w+.  The kept rows of the step then read
    S y = X_r z + f for y, the kept entries of z+, where S is F[keep, keep]
    with a F[keep, u] added to its w columns and X_r is X[keep, :] with
    F[keep, u] subtracted from its u columns and b F[keep, u] from its w
    columns.  Each of their entries is that sum of at most two terms, stored
    on the pattern those terms give, explicit zeros of F and X included.
    ``kept`` holds the row and column of S of each kept index, -1 for u's.
    With empty slices S has F's entries, X_r X's, and the lift copies y.
    """

    def __init__(self, block: tuple[slice, slice], F, X, a: float, b: float):
        (u, w), n = block, F.shape[0]
        self._u, self._w, self._a, self._b = u, w, a, b
        self.keep = np.r_[0:u.start, u.stop:n]
        k = self.keep.size
        self.kept = kept = np.full(n, -1)
        kept[self.keep] = np.arange(k)
        to_w = np.arange(n)  # a u column moves to its w column
        to_w[u] = np.arange(w.start, w.stop)
        rows = [np.repeat(kept, np.diff(M.indptr)) for M in (F, X)]
        in_F, in_X = (np.flatnonzero(r >= 0) for r in rows)
        kept_column = kept[F.indices[in_F]] >= 0
        from_u = in_F[~kept_column]
        # terms of each sum: (row, column, entry of F.data then X.data, weight)
        S_terms = (rows[0][in_F], kept[to_w[F.indices[in_F]]], in_F,
                   np.where(kept_column, 1.0, a))
        X_terms = [(rows[1][in_X], X.indices[in_X], F.data.size + in_X, np.ones(in_X.size)),
                   (rows[0][from_u], F.indices[from_u], from_u, np.full(from_u.size, -1.0))]
        if b:
            X_terms.append((rows[0][from_u], to_w[F.indices[from_u]], from_u,
                            np.full(from_u.size, -b)))
        X_terms = tuple(map(np.concatenate, zip(*X_terms)))
        data = np.concatenate([F.data, X.data])
        self.S, self.X = (self._summed(*terms, data, shape)
                          for terms, shape in ((S_terms, (k, k)), (X_terms, (k, n))))

    @staticmethod
    def _summed(rows, columns, entries, weights, data, shape):
        """The CSR matrix of the sums of the terms weight * data[entry] at
        (row, column)."""
        keys, slots = np.unique(rows * shape[1] + columns, return_inverse=True)
        # 32-bit indices, as SuperLU takes them: a factorization converts no index array
        indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1]).astype(np.intc)
        values = np.bincount(slots, weights=data[entries] * weights, minlength=keys.size)
        return csr_array((values, (keys % shape[1]).astype(np.intc), indptr), shape=shape)

    def lifting(self, z: np.ndarray):
        """y -> the new state of the step from z whose kept entries are y."""
        u, w, a = self._u, self._w, self._a
        known = z[u] + self._b * z[w]

        def lift(y):
            x = np.empty(z.size)
            x[:u.start], x[u.stop:] = y[:u.start], y[u.start:]
            x[u] = known + a * x[w]
            return x
        return lift


class _FrozenRSteps:
    """Both step matrices of the frozen-R path for one step size, on one
    CSR pattern, their ``_Reduction``, and the last factor of its S.

    The pattern is the union of those of E - a J, E + b J and the first R
    (a = theta h, b = (1 - theta) h).  ``step`` takes an R of that same
    pattern and writes E - a J + a R and E + b J - b R, entry by entry as the
    sparse sums would, into the data arrays of two CSR containers made once
    per pattern, and S and X_r likewise: R has no entries in the kinematic
    block's rows and columns, so it moves only entries that those take
    unscaled.  The step is solved by refinement with the last factor
    (``Factorization.refine``), accepted by the backward error of the whole
    step, kinematic rows included; only when that fails is S factored, in
    the last factor's column order once there is one
    (``Factorization.refactor``).
    """

    def __init__(self, sys: PhDae, block: tuple[slice, slice], R, a: float, b: float):
        E, J = sys.csr.E, sys.csr.J
        implicit, explicit = E - a * J, E + b * J
        keys = np.unique(np.concatenate([_entry_keys(M) for M in (implicit, explicit, R)]))
        n, m = R.shape
        # 32-bit indices, as SuperLU takes them: a refactor converts no index array
        indptr = np.searchsorted(keys, np.arange(n + 1) * m).astype(np.intc)
        indices = (keys % m).astype(np.intc)
        self._implicit, self._explicit = implicit, explicit = [
            csr_array((np.bincount(np.searchsorted(keys, _entry_keys(M)), weights=M.data,
                                   minlength=keys.size), indices, indptr), shape=R.shape)
            for M in (implicit, explicit)]
        self._reduction = reduced = _Reduction(block, implicit, explicit, a, b)
        R_rows, R_columns = divmod(_entry_keys(R), m)
        rows, columns = reduced.kept[R_rows], reduced.kept[R_columns]
        if min(rows.min(initial=0), columns.min(initial=0)) < 0:
            raise ValueError("a frozen R must have no entries in the rows and columns "
                             "of the kinematic block")
        # S and X_r store every entry of F and X in kept rows and columns, R's among them
        S, X_r, R_slots = reduced.S, reduced.X, np.searchsorted(keys, _entry_keys(R))
        # (container, the slots of R's entries in it, their values without R, R's weight)
        self._writes = [
            (M, slots, M.data[slots], weight) for M, slots, weight in (
                (implicit, R_slots, a), (explicit, R_slots, -b),
                (S, np.searchsorted(_entry_keys(S), rows * S.shape[1] + columns), a),
                (X_r, np.searchsorted(_entry_keys(X_r), rows * m + R_columns), -b))]
        self._R_pattern = (R.indptr, R.indices)
        self._a = a
        self._lu = None

    def holds(self, R, a: float) -> bool:
        """True if the steps were made for this a and R has the pattern of
        the first R."""
        return a == self._a and all(map(np.array_equal, self._R_pattern, (R.indptr, R.indices)))

    def step(self, R, z: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """The new state of the step from z with this R and the forcing h G v."""
        for M, slots, base, weight in self._writes:
            M.data[slots] = base + weight * R.data  # the other entries never change
        reduced = self._reduction
        rhs, lift = reduced.X @ z + forcing[reduced.keep], reduced.lifting(z)
        if self._lu is None:
            self._lu = Factorization(reduced.S, "step matrix")
        else:
            whole = self._explicit @ z + forcing
            z_new = self._lu.refine(self._implicit, whole, rhs, reduced.keep, lift)
            if z_new is not None:
                return z_new
            self._lu.refactor(reduced.S, "step matrix")
        return lift(self._lu.solve(rhs))


_BLOCK_VALUES = 16384  # state and input values per block of steps sampled and booked at once


def _samples(v, times: np.ndarray, width: int) -> np.ndarray:
    """The input at each of the times, one row each: one ``sample`` call of a
    ``SeparableSignal``, one call per time of any other callable."""
    if isinstance(v, SeparableSignal):
        return v.sample(times)
    return np.array([np.asarray(v(s), dtype=float) for s in times]).reshape(len(times), width)


def _products(M, X: np.ndarray) -> np.ndarray:
    """M x for every row x of X, as C-contiguous rows from one sparse product:
    their dots with ``np.vecdot`` round as ``float(x @ (M @ x))`` would."""
    return np.ascontiguousarray((M @ np.ascontiguousarray(X.T)).T)


def _theta_run(sys: PhDae, z0, input, t_grid, theta: float, frozen_R=None) -> Trajectory:
    """Theta method for E z' = (J - R) z + G v with the midpoint ledger.

    Each step solves (E - theta h J + theta h R) z_new =
    (E + (1 - theta) h J - (1 - theta) h R) z + h G v with v sampled at
    t_k + theta h: one mat-vec and one solve with the step matrices formed
    from the stored CSR, factored once per distinct step size, and reduced
    to the rows and columns outside a kinematic block (``_kinematic_block``,
    ``_Reduction``), whose entries are then rebuilt.  Per block of
    ``_BLOCK_VALUES // (state_dim + input_dim)`` steps the input is sampled
    and G v formed before the steps, and H and the ledger booked after them,
    each by one sparse product (``_products``).  ``frozen_R(z)``, if given,
    returns the CSR dissipation matrix for the step that starts at z, used
    for that step's matrices and its dissipated entry, booked in the step
    (so it may hand out one matrix whose data it rewrites) and that has no
    entries in a kinematic block's rows and columns; they are written
    into one CSR pattern (``_FrozenRSteps``, made anew when h or R's pattern
    changes) and solved by refinement with the last step's factor, or
    refactored in that factor's column order when that fails; one factor is
    held at a time.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sys.state_dim,):
        raise ValueError(f"initial state must have length {sys.state_dim}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or (len(t) > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("time grid must be 1-d and strictly increasing")
    v = input if input is not None else SeparableSignal((), np.zeros((0, sys.input_dim)))
    _check_consistent_start(sys, z0, _samples(v, t[:1], sys.input_dim)[0])

    E, J, R, G = sys.csr
    steps = _snapped_steps(t)
    states = np.empty((len(t), sys.state_dim))
    states[0] = z0
    H, diss, supp = np.empty(len(t)), np.empty(len(steps)), np.empty(len(steps))
    step_matrices: dict[float, tuple] = {}  # h -> (factor of S, _Reduction)
    frozen = None  # _FrozenRSteps of the last step
    kinematic = u, _ = _kinematic_block(sys)
    keep = np.r_[0:u.start, u.stop:sys.state_dim]
    block = max(1, _BLOCK_VALUES // max(1, sys.state_dim + sys.input_dim))
    for start in range(0, len(steps) or 1, block):
        hs = steps[start:start + block]
        rows = slice(start, start + len(hs))
        Gv = _products(G, _samples(v, t[rows] + 0.5 * hs, sys.input_dim))
        forcing = hs[:, None] * (Gv if theta == 0.5 else
                                 _products(G, _samples(v, t[rows] + theta * hs, sys.input_dim)))
        kept_forcing = forcing[:, keep]
        for k, h in enumerate(hs.tolist(), start):
            a, b, z = theta * h, (1.0 - theta) * h, states[k]
            try:
                if frozen_R is None:
                    if h not in step_matrices:
                        reduced = _Reduction(kinematic, E - a * J + a * R, E + b * J - b * R, a, b)
                        step_matrices[h] = (Factorization(reduced.S, "step matrix"), reduced)
                    lu, reduced = step_matrices[h]
                    y = lu.solve(reduced.X @ z + kept_forcing[k - start])
                    states[k + 1] = reduced.lifting(z)(y)
                else:
                    R_k = frozen_R(z)
                    if frozen is None or not frozen.holds(R_k, a):
                        frozen = _FrozenRSteps(sys, kinematic, R_k, a, b)  # drops the old factor
                    states[k + 1] = frozen.step(R_k, z, forcing[k - start])
                    zm = 0.5 * (z + states[k + 1])
                    diss[k] = h * float(zm @ (R_k @ zm))  # R_k is this step's alone
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"step {k}: {exc}") from exc
        # the block's ledger, with the midpoint quadrature for every theta
        Z = states[start:rows.stop + 1]
        H[start:rows.stop + 1] = 0.5 * np.vecdot(Z, _products(E, Z))
        zm = 0.5 * (Z[:-1] + Z[1:])
        if frozen_R is None:
            diss[rows] = hs * np.vecdot(zm, _products(R, zm))
        supp[rows] = hs * np.vecdot(zm, Gv)
    return Trajectory(t, states, H, diss, supp)


def integrate_midpoint(sys: PhDae, z0, input=None, t_grid=None) -> Trajectory:
    """Implicit midpoint rule; one factorization per distinct step size."""
    return _theta_run(sys, z0, input, t_grid, 0.5)


def integrate_euler(sys: PhDae, z0, input=None, t_grid=None) -> Trajectory:
    """Implicit Euler baseline; adds artificial dissipation on lossless systems."""
    return _theta_run(sys, z0, input, t_grid, 1.0)


def integrate_nonlinear_kappa(ops: DiscreteOperators, kappa_fn, z0, input=None, t_grid=None,
                              bounds: tuple[float, float] | None = None) -> Trajectory:
    """Semi-implicit midpoint run with dilatation-dependent permeability.

    Only the first-order single-network formulation supports this: before
    each step the pressure dissipation block is reassembled from the current
    displacement and frozen for the step, so the per-step balance identity
    still holds with the frozen block in the ledger; R is zero outside it.
    """
    if ops.networks != 1:
        raise ValueError("nonlinear permeability runs need a single network")
    base = build_full_first_order(ops)
    nu = ops.materials[0].nu
    u_slice = base.state_slice("u")
    p_slice = base.state_slice("p")
    embedded = None  # R on the block's pattern at the p rows and columns, made once per run

    def frozen_R(z):
        nonlocal embedded
        block = fem.assemble_nonlinear_permeability(
            ops.qspace, ops.vspace, z[u_slice], kappa_fn, nu, bounds=bounds
        )
        if embedded is None:
            indptr = np.pad(block.indptr, (p_slice.start, base.state_dim - p_slice.stop),
                            mode="edge")
            embedded = csr_array((block.data, block.indices + p_slice.start, indptr),
                                 shape=base.csr.R.shape)
        embedded.data = block.data  # the step's R, read before the next call
        return embedded

    return _theta_run(base, z0, input, t_grid, 0.5, frozen_R)
