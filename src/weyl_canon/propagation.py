"""Initial value problems for J u' + q u = lam w u with atoms.

Between atoms the system is a smooth 2x2 linear ODE, u' = J(q - lam w)u.
On a piece where both densities are constant (read from the expression
AST by ``Problem.pieces``) the solution is exp((x - lo) A) u(lo) in 2x2
closed form; elsewhere it is integrated by adaptive commutator-free
Magnus steps of order 4, each the product of two such closed-form
exponentials of averages of A at two Gauss-Legendre nodes, with the
error held to the tolerances below by step doubling.  At an atom the
one-sided limits are coupled by B+ u+ = B- u- with

    B+- (x, lam) = J +- (Delta_q(x) - lam Delta_w(x)) / 2,

so the forward transfer is u+ = B+^{-1} B- u- and it exists whenever
B+ is invertible; B- singular merely collapses the solution space (the
transfer has rank 1).  Balanced values (u- + u+)/2 are stored at every
atom because the measure-theoretic solutions are balanced functions.

One walker, ``_walk``, carries a vector or a matrix of columns between
two points in either direction: a per-piece stepper between
discontinuities, the transfer B+^{-1} B- (forward) or B-^{-1} B+
(backward) at each atom strictly inside.  ``fundamental_matrix``,
``eta_solution`` and ``evolve_ac`` run it with the exact / Magnus
stepper ``_solve_segment``, and the fixed-step oracle with its own.

Everything here is a pure function of immutable inputs: propagations at
distinct (lam, c) may run concurrently without coordination, while a
single propagation is inherently sequential in x.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BadPointError,
    IntegrationFailureError,
    SingularBackwardJumpError,
    SingularForwardJumpError,
    WeylCanonError,
)
from .measures import Problem
from .quadrature import integrate

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
            f"the solution overflows over a step of length {abs(h)}"
        ) from None
    return ch + sh * n11, sh * a12, sh * a21, ch - sh * n11


# Commutator-free Magnus step of order 4 (Blanes & Moan, Appl. Numer.
# Math. 56 (2006) 1519-1537).  With A1, A2 = A at the Gauss-Legendre
# nodes x + C1 h, x + C2 h it maps u(x) to
#     exp(h (B1 A1 + B2 A2)) exp(h (B2 A1 + B1 A2)) u(x),
# so it reads A only through its two-node averages, and it is exact
# where A is constant.
_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_B1 = 0.25 - math.sqrt(3.0) / 6.0
_B2 = 0.25 + math.sqrt(3.0) / 6.0

# The adaptive stepper gives up (IntegrationFailureError) when the step
# it needs falls below this fraction of the segment length.
MIN_STEP = 1e-12


def _cf4_step(entries, x, h, columns):
    """One Magnus step of size h (either sign) from x for each column
    (u, v) of the state."""
    a1 = entries(x + _C1 * h)
    a2 = entries(x + _C2 * h)
    e11, e12, e21, e22 = _constant_flow([_B2 * p + _B1 * r for p, r in zip(a1, a2)], h)
    f11, f12, f21, f22 = _constant_flow([_B1 * p + _B2 * r for p, r in zip(a1, a2)], h)
    p11 = f11 * e11 + f12 * e21
    p12 = f11 * e12 + f12 * e22
    p21 = f21 * e11 + f22 * e21
    p22 = f21 * e12 + f22 * e22
    return [(p11 * u + p12 * v, p21 * u + p22 * v) for u, v in columns]


def _magnus_solve(entries, x0, x1, columns, targets):
    """Adaptive Magnus propagation of the columns from x0 to x1 (either
    direction) that lands on every target strictly between them and on x1.

    Each step is compared with two half steps; the error of the half
    steps, |y2 - y1| / 15, is held to RTOL / ATOL (RMS over the
    components), and the accepted value is the Richardson extrapolation
    y2 + (y2 - y1) / 15.  Returns the accepted nodes and their states,
    ordered from x0 to x1.
    """
    length = x1 - x0
    # a step must also move x: at least a few ulps of the endpoints
    floor = max(MIN_STEP * abs(length), 8.0 * math.ulp(max(abs(x0), abs(x1))))
    xs = [x0]
    states = [columns]
    x = x0
    h = length
    for target in list(targets) + [x1]:
        while x != target:
            land = abs(h) >= abs(target - x)
            step = target - x if land else h
            try:
                y1 = _cf4_step(entries, x, step, columns)
                half = _cf4_step(entries, x, 0.5 * step, columns)
                y2 = _cf4_step(entries, x + 0.5 * step, 0.5 * step, half)
                total = 0.0
                for (u0, v0), (u1, v1), (u2, v2) in zip(columns, y1, y2):
                    for old, coarse, fine in ((u0, u1, u2), (v0, v1, v2)):
                        scale = ATOL + RTOL * max(abs(old), abs(fine))
                        total += (abs(fine - coarse) / (15.0 * scale)) ** 2
                err = math.sqrt(total / (2 * len(columns)))
            except (IntegrationFailureError, OverflowError):
                err = math.inf      # an exponential or a modulus overflowed
            # products overflow to inf without raising, and inf - inf makes
            # err NaN; such a step is shrunk by 10 like any rejected one, so
            # a solution that really overflows ends at the step floor
            overflow = not math.isfinite(err)
            if err <= 1.0:
                factor = min(5.0, 0.9 * err ** -0.2) if err > 0 else 5.0
                x = target if land else x + step
                columns = [(u2 + (u2 - u1) / 15.0, v2 + (v2 - v1) / 15.0)
                           for (u1, v1), (u2, v2) in zip(y1, y2)]
                xs.append(x)
                states.append(columns)
                h = step * factor if not land or factor < 1.0 else h
            else:
                h = step * (0.1 if overflow else max(0.1, 0.9 * err ** -0.2))
                if abs(h) < floor:
                    why = ("the solution overflows" if overflow
                           else f"the step size fell below {floor:.3g}")
                    raise IntegrationFailureError(
                        f"integration from {x0} to {x1} failed near x={x}: "
                        f"{why}", location=x)
    return xs, states


def _solve_segment(problem, lam, x0, x1, y0_complex, t_eval):
    """Propagate the flat complex state (the two components of each
    column in turn) from x0 to x1, in either direction, with no
    discontinuity strictly inside.  Returns (states at t_eval, dense
    callable x -> state): exact on a constant piece, adaptive Magnus
    steps elsewhere, where a dense value is one step from the nearest
    accepted node."""
    y0 = np.ascontiguousarray(y0_complex, dtype=complex)
    columns = [(complex(u), complex(v)) for u, v in y0.reshape(-1, 2)]
    a = problem.constant_system(lam, x0, x1)
    if a is not None:
        def dense(x):
            p11, p12, p21, p22 = _constant_flow(a, float(x) - x0)
            return np.array([c for u, v in columns
                             for c in (p11 * u + p12 * v, p21 * u + p22 * v)])
    else:
        entries = segment_safe_entries(problem.system_matrix(lam), x0, x1)
        inside = [float(t) for t in t_eval if min(x0, x1) < t < max(x0, x1)]
        xs, states = _magnus_solve(entries, x0, x1, columns,
                                   sorted(inside, reverse=x1 < x0))
        if x1 < x0:
            xs, states = xs[::-1], states[::-1]

        def flat(cols):
            return np.array([c for col in cols for c in col])

        def dense(x):
            x = float(x)
            k = bisect.bisect_left(xs, x)
            if k == len(xs) or (k > 0 and x - xs[k - 1] < xs[k] - x):
                k -= 1
            if xs[k] == x:
                return flat(states[k])
            return flat(_cf4_step(entries, xs[k], x - xs[k], states[k]))

    return np.array([dense(x) for x in t_eval]), dense


# --------------------------------------------------------------------------
# the walker: pieces and atom transfers
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
    dense: object   # callable x -> state flattened by columns, or None


def _walk(problem, lam, x0, x1, state, solve, samples=frozenset()):
    """Carry ``state``, one solution vector or a matrix of solution
    columns, from x0 to x1 in either direction.

    ``solve(lo, hi, flat, t_eval)`` carries the state, flattened by
    columns, over one piece between discontinuities and returns (states
    at t_eval, dense callable or None); t_eval runs from lo through the
    ``samples`` strictly inside to hi.  At each atom strictly between x0
    and x1 the state is carried across by B+^{-1} B- forward and by
    B-^{-1} B+ backward; an atom at x0 or x1 is not crossed.  Every
    value is checked to be finite.  Returns (state at x1, {x: state}
    for the samples passed, crossings, segments), the last two in walk
    order.
    """
    forward = x0 <= x1
    lo_all, hi_all = (x0, x1) if forward else (x1, x0)
    cuts = [p for p in problem.discontinuities if lo_all < p < hi_all]
    points = sorted(samples)
    if not forward:
        cuts.reverse()
        points.reverse()
    atoms = set(problem.atom_positions)
    shape = np.shape(state)
    found, crossings, segments = {}, [], []
    for lo, hi in zip([x0] + cuts, cuts + [x1]):
        a, b = min(lo, hi), max(lo, hi)
        t_eval = [lo] + [x for x in points if a < x < b] + [hi]
        values, dense = solve(lo, hi, np.ravel(state, order="F"), t_eval)
        if not np.isfinite(values).all():
            # an exact exponential can be finite while its product is not;
            # a transfer that overflows shows at the start of the next piece
            raise IntegrationFailureError(
                f"the solution overflows between x={lo} and x={hi}", location=hi)
        for x, value in zip(t_eval, values):
            if x in samples:
                found[x] = value.reshape(shape, order="F")
        state = values[-1].reshape(shape, order="F")
        segments.append(_Segment(a, b, dense))
        if hi != x1 and hi in atoms:
            jp = jump_matrices(problem.delta_q(hi), problem.delta_w(hi), lam, hi)
            after = (jp.transfer_matrix() if forward
                     else jp.backward_matrix()) @ state
            left, right = (state, after) if forward else (after, state)
            crossings.append(AtomCrossing(hi, jp, left, right,
                                          0.5 * (left + right)))
            state = after
    return state, found, crossings, segments


def evolve_ac(problem: Problem, lam, x0, x1, u0) -> np.ndarray:
    """Evolve a single solution vector over an atom-free interval."""
    for p in problem.atom_positions:
        if min(x0, x1) < p < max(x0, x1):
            raise ValueError(f"interval ({x0}, {x1}) contains the atom at {p}")
    u = np.asarray(u0, dtype=complex)
    if x0 == x1:
        return u.copy()
    return _walk(problem, lam, x0, x1, u, functools.partial(
        _solve_segment, problem, lam))[0]


# --------------------------------------------------------------------------
# fundamental matrices
# --------------------------------------------------------------------------

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
    ``crossings``.  Columns: phi = U[:, 0], psi = U[:, 1].  A matrix
    without segments (``weyl.conjugate_fundamental``) evaluates at its
    samples and crossings only.
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
        seg = self._segment_for(x) if self._segments else None
        if seg is not None and seg.dense is not None:
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
    if not (0.0 < c < problem.b):
        raise ValueError(f"c={c} must lie strictly inside (0, {problem.b})")
    if c in problem.atom_positions:
        raise ValueError(f"c={c} is an atom position; pick a continuity point")


def _forward(problem, lam, c, grid, solve) -> FundamentalMatrix:
    """U from rotation(alpha) at 0 to c by ``_walk`` with the per-piece
    stepper ``solve``, sampled at 0, c and the points of ``grid`` in
    [0, c] that are not atoms.  Raises BadPointError when some atom in
    (0, c) has a singular B+.  The fixed-step oracle reaches the walker
    through this function as well."""
    _require_continuity_point(problem, c)
    report = bad_points(problem, lam)
    if report.forward_blocked_before(c):
        raise BadPointError(report)
    samples = {0.0, c} | {x for x in map(float, grid)
                          if 0.0 <= x <= c and x not in problem.atom_positions}
    _, found, crossings, segments = _walk(
        problem, lam, 0.0, c, rotation(problem.alpha), solve, samples)
    xs = sorted(found)
    return FundamentalMatrix(problem, lam, c, xs, [found[x] for x in xs],
                             crossings, segments,
                             lambda_report=report if report.in_lambda_set else None)


def fundamental_matrix(problem: Problem, lam, c, grid=None) -> FundamentalMatrix:
    """Propagate U columnwise from 0 to c through alternating AC evolution
    and atom transfers, sampled at the grid and at the density breaks.

    Raises BadPointError when some atom in (0, c) has a singular B+ (the
    forward transfer does not exist).  A singular B- alone is allowed:
    the propagation continues with a rank-1 transfer, the result is
    flagged via ``lambda_report`` and downstream Weyl-geometry layers
    refuse to use it.
    """
    lam = complex(lam)
    c = float(c)
    grid = [] if grid is None else list(grid)
    return _forward(problem, lam, c, grid + list(problem.discontinuities),
                    functools.partial(_solve_segment, problem, lam))


def eta_solution(problem: Problem, lam, c, beta) -> np.ndarray:
    """Backward solution with eta(c) = (-sin beta, cos beta)^T, returning
    eta(0).  Atoms are crossed with u- = B-^{-1} B+ u+, so every atom in
    (0, c) must have an invertible B-."""
    lam = complex(lam)
    c = float(c)
    _require_continuity_point(problem, c)
    eta = np.array([-math.sin(beta), math.cos(beta)], dtype=complex)
    return _walk(problem, lam, c, 0.0, eta,
                 functools.partial(_solve_segment, problem, lam))[0]


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
    """One matrix quadrature of U(.,0)* w U(.,0) per piece, plus the
    balanced atom terms."""
    c_max = float(c_max)
    report = bad_points(problem, 0.0)
    if report.in_lambda_set:
        raise BadPointError(report, "lambda=0 admits a bad point; the "
                                    "kernel Gram matrix is not defined")
    fm = fundamental_matrix(problem, 0.0, c_max)

    def integrand(x):
        u = fm.at(x)
        return u.conj().T @ problem.w.density(x) @ u

    G = np.zeros((2, 2), dtype=complex)
    bounds = [0.0] + [p for p in problem.discontinuities if 0.0 < p < c_max] + [c_max]
    for lo, hi in zip(bounds, bounds[1:]):
        G += integrate(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    G[1, 0] = np.conj(G[0, 1])

    for crossing in fm.crossings:
        dw = problem.delta_w(crossing.position)
        if np.any(dw):
            ub = crossing.balanced
            G += ub.conj().T @ dw @ ub

    G = 0.5 * (G + G.conj().T)
    eigenvalues, vectors = np.linalg.eigh(G)
    return KernelGram(G, c_max, eigenvalues, vectors)
