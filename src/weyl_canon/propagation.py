"""Initial value problems for J u' + q u = lam w u with atoms.

Between atoms the system is a smooth 2x2 linear ODE, u' = J(q - lam w)u.
On a piece where both densities are constant (read from the expression
AST by ``Problem.pieces``) the solution is exp((x - lo) A) u(lo) in 2x2
closed form; elsewhere it is integrated adaptively (DOP853, tolerances
below).  At an atom the one-sided
limits are coupled by B+ u+ = B- u- with

    B+- (x, lam) = J +- (Delta_q(x) - lam Delta_w(x)) / 2,

so the forward transfer is u+ = B+^{-1} B- u- and it exists whenever
B+ is invertible; B- singular merely collapses the solution space (the
transfer has rank 1).  Balanced values (u- + u+)/2 are stored at every
atom because the measure-theoretic solutions are balanced functions.

Everything here is a pure function of immutable inputs: propagations at
distinct (lam, c) may run concurrently without coordination, while a
single propagation is inherently sequential in x.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp

from .errors import (
    BadPointError,
    IntegrationFailureError,
    SingularBackwardJumpError,
    SingularForwardJumpError,
    WeylCanonError,
)
from .measures import Problem

__all__ = [
    "J",
    "JumpPair",
    "jump_matrices",
    "BadAtomRecord",
    "BadPointReport",
    "bad_points",
    "transfer_across_atom",
    "JumpDichotomy",
    "real_jump_dichotomy",
    "evolve_ac",
    "AtomCrossing",
    "FundamentalMatrix",
    "fundamental_matrix",
    "eta_solution",
    "KernelGram",
    "kernel_gram",
    "rotation",
]

J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
J.setflags(write=False)

# Tight enough that the 1e-6..1e-8 acceptance tolerances keep headroom
# and that det U = tau stays float-verifiable over a useful c-range (the
# relative ODE error sets the noise floor of the entry determinant).
RTOL = 1e-12
ATOL = 1e-14

# |det B| below 1e-12 * (1 + |dq| + |lam||dw|)^2 counts as singular: the
# determinant is a degree-2 polynomial of the entries, so the tolerance
# scales quadratically with the data.
SINGULAR_TOL = 1e-12


def rotation(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _det2(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _inv2(m, det) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]],
                    dtype=complex) / det


@dataclass(frozen=True)
class JumpPair:
    """Left/right jump matrices B-+ at one atom for a fixed lambda."""

    b_minus: np.ndarray
    b_plus: np.ndarray
    det_minus: complex
    det_plus: complex
    dq: np.ndarray
    dw: np.ndarray
    lam: complex
    position: float | None = None

    @property
    def singular_tol(self) -> float:
        scale = 1.0 + np.linalg.norm(self.dq) + abs(self.lam) * np.linalg.norm(self.dw)
        return SINGULAR_TOL * scale * scale

    @property
    def minus_singular(self) -> bool:
        return abs(self.det_minus) < self.singular_tol

    @property
    def plus_singular(self) -> bool:
        return abs(self.det_plus) < self.singular_tol

    def transfer_matrix(self) -> np.ndarray:
        """B+^{-1} B-: maps u- to u+ across the atom."""
        if self.plus_singular:
            raise SingularForwardJumpError(self.position, self.det_plus)
        return _inv2(self.b_plus, self.det_plus) @ self.b_minus

    def backward_matrix(self) -> np.ndarray:
        """B-^{-1} B+: maps u+ to u- across the atom."""
        if self.minus_singular:
            raise SingularBackwardJumpError(self.position, self.det_minus)
        return _inv2(self.b_minus, self.det_minus) @ self.b_plus


def jump_matrices(dq, dw, lam, position=None) -> JumpPair:
    """B+- = J +- (dq - lam dw)/2 with exactly computed determinants."""
    dq = np.asarray(dq, dtype=complex)
    dw = np.asarray(dw, dtype=complex)
    lam = complex(lam)
    half = 0.5 * (dq - lam * dw)
    b_minus = J - half
    b_plus = J + half
    return JumpPair(b_minus, b_plus, _det2(b_minus), _det2(b_plus),
                    dq, dw, lam, position)


# --------------------------------------------------------------------------
# bad points
# --------------------------------------------------------------------------

class BadAtomRecord(NamedTuple):
    position: float
    minus_singular: bool
    plus_singular: bool
    abs_det_minus: float
    abs_det_plus: float


@dataclass(frozen=True)
class BadPointReport:
    """Atoms at which B- or B+ is singular for this lambda."""

    lam: complex
    records: tuple
    in_lambda_set: bool

    def __str__(self):
        if not self.records:
            return f"lambda={self.lam}: no bad points"
        parts = []
        for r in self.records:
            sides = "".join(s for s, flag in (("-", r.minus_singular),
                                              ("+", r.plus_singular)) if flag)
            parts.append(f"x={r.position} (B{sides} singular, "
                         f"|det-|={r.abs_det_minus:.3e}, "
                         f"|det+|={r.abs_det_plus:.3e})")
        return f"lambda={self.lam}: bad points at " + ", ".join(parts)

    @property
    def positions(self):
        return tuple(r.position for r in self.records)

    def forward_blocked_before(self, c) -> bool:
        """True when some atom in (0, c) has a singular B+."""
        return any(r.plus_singular and r.position < c for r in self.records)


def bad_points(problem: Problem, lam) -> BadPointReport:
    """Scan the atom list for singular B-+; continuity points always give
    B-+ = J and never contribute."""
    lam = complex(lam)
    records = []
    for x in problem.atom_positions:
        jp = jump_matrices(problem.delta_q(x), problem.delta_w(x), lam, x)
        if jp.minus_singular or jp.plus_singular:
            records.append(BadAtomRecord(x, jp.minus_singular, jp.plus_singular,
                                         abs(jp.det_minus), abs(jp.det_plus)))
    return BadPointReport(lam, tuple(records), bool(records))


def transfer_across_atom(u_minus, jump: JumpPair):
    """(u+, u#) from the left limit u-; requires B+ invertible."""
    u_minus = np.asarray(u_minus, dtype=complex)
    u_plus = jump.transfer_matrix() @ u_minus
    return u_plus, 0.5 * (u_minus + u_plus)


class JumpDichotomy(Enum):
    BOTH_INVERTIBLE = "BothInvertible"
    BOTH_SINGULAR = "BothSingular"
    EXACTLY_ONE_SINGULAR = "ExactlyOneSingular"


def real_jump_dichotomy(dq, dw, lam) -> JumpDichotomy:
    """Classify the pair (B-, B+) at one atom and cross-check against

        det B- - det B+ = 2i (Im dq_12 - lam Im dw_12):

    real jump data can never make exactly one of the two singular, and
    both singular at non-real lambda forces the data to be real.
    """
    jp = jump_matrices(dq, dw, lam)
    minus, plus = jp.minus_singular, jp.plus_singular
    if minus and plus:
        verdict = JumpDichotomy.BOTH_SINGULAR
    elif minus or plus:
        verdict = JumpDichotomy.EXACTLY_ONE_SINGULAR
    else:
        verdict = JumpDichotomy.BOTH_INVERTIBLE

    entries_real = (
        float(np.max(np.abs(jp.dq.imag))) == 0.0
        and float(np.max(np.abs(jp.dw.imag))) == 0.0
    )
    if entries_real and verdict is JumpDichotomy.EXACTLY_ONE_SINGULAR:
        raise WeylCanonError(
            "internal inconsistency: real jump data produced exactly one "
            f"singular matrix (dets {jp.det_minus}, {jp.det_plus})"
        )
    if verdict is JumpDichotomy.BOTH_SINGULAR and jp.lam.imag != 0.0:
        gap = 2j * (jp.dq[0, 1].imag - jp.lam * jp.dw[0, 1].imag)
        if abs(gap) > math.sqrt(jp.singular_tol) * 4.0:
            raise WeylCanonError(
                "internal inconsistency: both matrices singular at non-real "
                f"lambda but det gap {gap} is not negligible"
            )
    return verdict


# --------------------------------------------------------------------------
# absolutely continuous evolution
# --------------------------------------------------------------------------

def segment_safe_entries(entries, x0, x1):
    """Clamp evaluation points to the open interval between x0 and x1.

    Integrators evaluate the right-hand side at segment endpoints, which
    may sit exactly on a density breakpoint where step() returns its
    balanced midpoint value; nudging by one ulp keeps every evaluation
    on the smooth piece the segment belongs to.
    """
    lo, hi = (x0, x1) if x0 <= x1 else (x1, x0)
    left = np.nextafter(lo, hi)
    right = np.nextafter(hi, lo)

    def safe(x):
        if x <= lo:
            x = left
        elif x >= hi:
            x = right
        return entries(x)

    return safe


def _make_rhs(problem: Problem, lam, columns: int, x0, x1):
    entries = segment_safe_entries(problem.system_matrix(lam), x0, x1)

    def rhs(t, y):
        a11, a12, a21, a22 = entries(t)
        z = y.view(np.complex128)
        out = np.empty_like(z)
        for j in range(columns):
            top = z[2 * j]
            bot = z[2 * j + 1]
            out[2 * j] = a11 * top + a12 * bot
            out[2 * j + 1] = a21 * top + a22 * bot
        return out.view(np.float64)

    return rhs


def _constant_flow(a, h):
    """exp(h A), flat like A = (a11, a12, a21, a22), for a constant A.

    With m = tr A / 2, N = A - m I and s^2 = -det N, Cayley-Hamilton gives
    N^2 = s^2 I, so exp(h A) = e^{hm} (cosh(z) I + h sinhc(z) N), z = hs.
    Both functions are even in z, so the branch of s does not matter.
    For |z| < 0.1 they are summed as series (truncation below 3e-17), which
    keeps nilpotent N (s = 0) exact; beyond, e^{hm +- z} are formed
    directly, which overflows only when exp(h A) itself does.
    """
    a11, a12, a21, a22 = a
    m = 0.5 * (a11 + a22)
    n11 = 0.5 * (a11 - a22)
    z = h * cmath.sqrt(n11 * n11 + a12 * a21)
    try:
        if abs(z) < 0.1:
            e = cmath.exp(h * m)
            z2 = z * z
            ch = e * (1 + z2 / 2 * (1 + z2 / 12 * (1 + z2 / 30 * (1 + z2 / 56))))
            sh = e * h * (1 + z2 / 6 * (1 + z2 / 20 * (1 + z2 / 42 * (1 + z2 / 72))))
        else:
            ep = cmath.exp(h * m + z)
            em = cmath.exp(h * m - z)
            ch = 0.5 * (ep + em)
            sh = h * (ep - em) / (2 * z)
    except OverflowError:
        raise IntegrationFailureError(
            f"the solution overflows over a constant piece of length {abs(h)}"
        ) from None
    return ch + sh * n11, sh * a12, sh * a21, ch - sh * n11


def _solve_segment(problem, lam, x0, x1, y0_complex, t_eval=None):
    """Propagate the flat complex state (the two components of each
    column in turn) from x0 to x1, in either direction, with no
    discontinuity strictly inside.  Returns (states at t_eval, dense
    callable x -> state): exact on a constant piece, DOP853 elsewhere."""
    y0 = np.ascontiguousarray(y0_complex, dtype=complex)
    a = problem.constant_system(lam, x0, x1)
    if a is not None:
        columns = [(complex(u), complex(v)) for u, v in y0.reshape(-1, 2)]

        def exact(x):
            p11, p12, p21, p22 = _constant_flow(a, float(x) - x0)
            return np.array([c for u, v in columns
                             for c in (p11 * u + p12 * v, p21 * u + p22 * v)])

        values = None if t_eval is None else np.array([exact(x) for x in t_eval])
        return values, exact

    rhs = _make_rhs(problem, lam, len(y0) // 2, x0, x1)
    sol = solve_ivp(rhs, (x0, x1), y0.view(np.float64), method="DOP853",
                    rtol=RTOL, atol=ATOL, t_eval=t_eval, dense_output=True)
    if not sol.success:
        # with t_eval, sol.t is an empty list when no requested point was reached
        reached = sol.t[-1] if len(sol.t) else x0
        raise IntegrationFailureError(
            f"integration from {x0} to {x1} failed near x={reached}: "
            f"{sol.message}", location=reached)
    values = sol.y.T.copy().view(np.complex128) if t_eval is not None else None
    interpolant = sol.sol
    return values, lambda x: np.ascontiguousarray(interpolant(x)).view(np.complex128)


def evolve_ac(problem: Problem, lam, x0, x1, u0) -> np.ndarray:
    """Evolve a single solution vector over an atom-free interval."""
    for p in problem.atom_positions:
        if min(x0, x1) < p < max(x0, x1):
            raise ValueError(f"interval ({x0}, {x1}) contains the atom at {p}")
    if x0 == x1:
        return np.asarray(u0, dtype=complex).copy()
    u = np.asarray(u0, dtype=complex)
    cuts = problem.segment_bounds(x0, x1)
    lo = x0
    for hi in cuts + [x1]:
        if hi != lo:
            _, dense = _solve_segment(problem, lam, lo, hi, u)
            u = dense(hi)
        lo = hi
    return u


# --------------------------------------------------------------------------
# fundamental matrices
# --------------------------------------------------------------------------

class AtomCrossing(NamedTuple):
    position: float
    jump: JumpPair
    left: np.ndarray
    right: np.ndarray
    balanced: np.ndarray


class _Segment(NamedTuple):
    lo: float
    hi: float
    dense: object   # callable x -> U(x) flattened by columns, or None


class SampledSolution:
    """One solution u = U(.) @ coeff of the fundamental matrix; balanced
    at atoms, dense everywhere else."""

    def __init__(self, fm, coeff):
        self.fm = fm
        self.lam = fm.lam
        self.coeff = np.asarray(coeff, dtype=complex)

    def at(self, x):
        return self.fm.at(x) @ self.coeff

    def left_at(self, x):
        return self.fm.left_at(x) @ self.coeff

    def right_at(self, x):
        return self.fm.right_at(x) @ self.coeff

    def balanced_atom_values(self, upto=None):
        out = []
        for crossing in self.fm.crossings:
            if upto is None or crossing.position < upto:
                out.append((crossing.position, crossing.balanced @ self.coeff))
        return out


class FundamentalMatrix:
    """Balanced matrix solution U(., lam) with U(0) = rotation(alpha).

    Samples are kept at the requested grid (continuity points); the
    one-sided and balanced values at every crossed atom are stored in
    ``crossings``.  Columns: phi = U[:, 0], psi = U[:, 1].
    """

    def __init__(self, problem, lam, c, xs, values, crossings, segments,
                 lambda_report=None):
        self.problem = problem
        self.lam = complex(lam)
        self.alpha = problem.alpha
        self.c = float(c)
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        self.crossings = tuple(crossings)
        self._segments = tuple(segments)
        self._segment_los = [s.lo for s in segments]
        self._atom_index = {cr.position: cr for cr in self.crossings}
        self.lambda_report = lambda_report

    @property
    def in_lambda_set(self) -> bool:
        return bool(self.lambda_report and self.lambda_report.in_lambda_set)

    # -- evaluation --------------------------------------------------------

    def _segment_for(self, x):
        k = bisect.bisect_right(self._segment_los, x) - 1
        k = max(0, min(k, len(self._segments) - 1))
        return self._segments[k]

    def _eval_dense(self, x):
        seg = self._segment_for(x)
        if seg.dense is not None:
            return seg.dense(x).reshape(2, 2, order="F")
        k = np.searchsorted(self.xs, x)
        for j in (k - 1, k, k + 1):
            if 0 <= j < self.xs.size and abs(self.xs[j] - x) <= 1e-12 * max(1.0, abs(x)):
                return self.values[j].copy()
        raise ValueError(
            f"no dense interpolant covers x={x}; only stored samples are "
            "available for this solution")

    def at(self, x) -> np.ndarray:
        """Balanced value of U at x in [0, c]."""
        if not (0.0 <= x <= self.c + 1e-12 * max(1.0, self.c)):
            raise ValueError(f"x={x} outside the propagated range [0, {self.c}]")
        crossing = self._atom_index.get(x)
        if crossing is not None:
            return crossing.balanced.copy()
        return self._eval_dense(x)

    def left_at(self, x) -> np.ndarray:
        crossing = self._atom_index.get(x)
        return crossing.left.copy() if crossing is not None else self._eval_dense(x)

    def right_at(self, x) -> np.ndarray:
        crossing = self._atom_index.get(x)
        return crossing.right.copy() if crossing is not None else self._eval_dense(x)

    def entries(self, c):
        """(A, B, C, D) = (U11, U21, U12, U22) at the continuity point c."""
        u = self.at(c)
        return u[0, 0], u[1, 0], u[0, 1], u[1, 1]

    def phi(self, x):
        return self.at(x)[:, 0]

    def psi(self, x):
        return self.at(x)[:, 1]

    def column(self, index) -> SampledSolution:
        coeff = np.zeros(2, dtype=complex)
        coeff[index] = 1.0
        return SampledSolution(self, coeff)

    def combination(self, m) -> SampledSolution:
        """chi_m = phi + m psi."""
        return SampledSolution(self, np.array([1.0, m], dtype=complex))


def _require_continuity_point(problem, c):
    for p in problem.atom_positions:
        if p == c:
            raise ValueError(f"c={c} is an atom position; pick a continuity point")


def fundamental_matrix(problem: Problem, lam, c, grid=None) -> FundamentalMatrix:
    """Propagate U columnwise from 0 to c through alternating AC evolution
    and atom transfers.

    Raises BadPointError when some atom in (0, c) has a singular B+ (the
    forward transfer does not exist).  A singular B- alone is allowed:
    the propagation continues with a rank-1 transfer, the result is
    flagged via ``lambda_report`` and downstream Weyl-geometry layers
    refuse to use it.
    """
    lam = complex(lam)
    c = float(c)
    if not (0.0 < c < problem.b):
        raise ValueError(f"c={c} must lie strictly inside (0, {problem.b})")
    _require_continuity_point(problem, c)
    report = bad_points(problem, lam)
    if report.forward_blocked_before(c):
        raise BadPointError(report)

    atoms = [p for p in problem.atom_positions if p < c]
    breaks = [p for p in problem.discontinuities if p < c and p not in atoms]
    bounds = sorted(set(atoms + breaks + [0.0, c]))

    want = {0.0, c}
    if grid is not None:
        for x in grid:
            x = float(x)
            if 0.0 <= x <= c and x not in problem.atom_positions:
                want.add(x)
    want.update(b for b in breaks)

    xs_sorted = sorted(want)
    samples = {}
    segments = []
    crossings = []

    U = rotation(problem.alpha)
    samples[0.0] = U.copy()
    atom_set = set(atoms)
    for lo, hi in zip(bounds, bounds[1:]):
        t_req = np.array([lo] + [x for x in xs_sorted if lo < x < hi] + [hi])
        values, dense = _solve_segment(problem, lam, lo, hi,
                                       U.flatten(order="F"), t_eval=t_req)
        for x, row in zip(t_req, values):
            if x in want:
                samples[x] = row.reshape(2, 2, order="F")
        U = values[-1].reshape(2, 2, order="F")
        segments.append(_Segment(lo, hi, dense))
        if hi in atom_set:
            jp = jump_matrices(problem.delta_q(hi), problem.delta_w(hi), lam, hi)
            left = U.copy()
            try:
                right = jp.transfer_matrix() @ left
            except SingularForwardJumpError:
                raise BadPointError(report) from None
            crossings.append(AtomCrossing(hi, jp, left, right,
                                          0.5 * (left + right)))
            U = right
        elif hi in want and hi not in samples:
            samples[hi] = U.copy()

    samples[c] = U.copy()
    xs = np.array(sorted(samples))
    values = np.array([samples[x] for x in xs])
    return FundamentalMatrix(problem, lam, c, xs, values, crossings, segments,
                             lambda_report=report if report.in_lambda_set else None)


def eta_solution(problem: Problem, lam, c, beta) -> np.ndarray:
    """Backward solution with eta(c) = (-sin beta, cos beta)^T, returning
    eta(0).  Atoms are crossed with u- = B-^{-1} B+ u+, so every atom in
    (0, c) must have an invertible B-."""
    lam = complex(lam)
    c = float(c)
    if not (0.0 < c < problem.b):
        raise ValueError(f"c={c} must lie strictly inside (0, {problem.b})")
    _require_continuity_point(problem, c)

    u = np.array([-math.sin(beta), math.cos(beta)], dtype=complex)
    stops = [p for p in problem.discontinuities if p < c][::-1]
    atom_set = set(problem.atom_positions)
    x = c
    for p in stops:
        u = evolve_ac(problem, lam, x, p, u)
        if p in atom_set:
            jp = jump_matrices(problem.delta_q(p), problem.delta_w(p), lam, p)
            u = jp.backward_matrix() @ u  # raises SingularBackwardJumpError
        x = p
    return evolve_ac(problem, lam, x, 0.0, u)


# --------------------------------------------------------------------------
# definiteness Gram matrix
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelGram:
    """Gram matrix G(c) = int_(0,c) U(.,0)* w U(.,0) of the lambda = 0
    fundamental system in the w-weighted inner product."""

    matrix: np.ndarray
    c_max: float
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def null_vector(self) -> np.ndarray:
        return self.vectors[:, 0]


def kernel_gram(problem: Problem, c_max) -> KernelGram:
    """Quadrature of U(.,0)* w U(.,0) plus balanced atom terms."""
    c_max = float(c_max)
    report = bad_points(problem, 0.0)
    if report.in_lambda_set:
        raise BadPointError(report, "lambda=0 admits a bad point; the "
                                    "kernel Gram matrix is not defined")
    fm = fundamental_matrix(problem, 0.0, c_max)

    def integrand_entry(i, k):
        def f(x):
            u = fm.at(x)
            w = problem.w.density(x)
            return (u.conj().T @ w @ u)[i, k]
        return f

    G = np.zeros((2, 2), dtype=complex)
    bounds = [0.0] + [p for p in problem.discontinuities if p < c_max] + [c_max]
    for lo, hi in zip(bounds, bounds[1:]):
        for i, k in ((0, 0), (0, 1), (1, 1)):
            f = integrand_entry(i, k)
            re = integrate.quad(lambda x: f(x).real, lo, hi,
                                limit=200, epsabs=1e-13, epsrel=1e-11)[0]
            im = integrate.quad(lambda x: f(x).imag, lo, hi,
                                limit=200, epsabs=1e-13, epsrel=1e-11)[0]
            G[i, k] += re + 1j * im
    G[1, 0] = np.conj(G[0, 1])

    for crossing in fm.crossings:
        dw = problem.delta_w(crossing.position)
        if np.any(dw):
            ub = crossing.balanced
            G += ub.conj().T @ dw @ ub

    G = 0.5 * (G + G.conj().T)
    eigenvalues, vectors = np.linalg.eigh(G)
    return KernelGram(G, c_max, eigenvalues, vectors)
