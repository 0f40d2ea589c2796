"""Initial value problems for J u' + q u = lam w u with atoms.

Between atoms the system is a smooth 2x2 linear ODE, u' = J(q - lam w)u,
carried over each piece of ``Problem.pieces`` in one of two ways,
chosen from the expression AST alone:

* closed form: where every entry that enters A is alpha + beta E(x) for
  the piece's shared AST node E, A(x) = A0 + Re E(x) AR + Im E(x) AI,
  and where A0, AR and AI commute pairwise (2x2 matrices commute exactly
  when their traceless parts are parallel, tested to 16 eps |X| |Y|),
  the solution is exp((x - lo) A0 + Re I AR + Im I AI) u(lo) with I the
  integral of E over (lo, x), one 2x2 exponential and one scalar
  quadrature.  A constant piece is the case beta = 0: AR = AI = 0, and
  the solution is exp((x - lo) A0) u(lo) with no quadrature;
* Magnus: elsewhere, adaptive commutator-free Magnus steps of order 4,
  each the product of two closed-form exponentials of averages of A at
  two Gauss-Legendre nodes, with the error held to the tolerances below
  by step doubling.

At an atom the one-sided limits are coupled by B+ u+ = B- u- with

    B+- (x, lam) = J +- (Delta_q(x) - lam Delta_w(x)) / 2,

so the forward transfer is u+ = B+^{-1} B- u- and it exists whenever
B+ is invertible; B- singular merely collapses the solution space (the
transfer has rank 1).  Balanced values (u- + u+)/2 are stored at every
atom because the measure-theoretic solutions are balanced functions.

One walker, ``_walk``, carries a vector or a matrix of columns between
two points in either direction: a per-piece stepper over each of the
``Problem.spans`` between them, the transfer B+^{-1} B- (forward) or
B-^{-1} B+ (backward) at each atom strictly inside.  ``fundamental_matrix``,
``eta_solution`` and ``evolve_ac`` run it with ``_solve_segment``, which
picks one of the two for each piece, and the fixed-step oracle with its
own stepper.

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
from .measures import Problem, _density_matrix
from .quadrature import integrate

__all__ = [
    "J",
    "JumpPair",
    "jump_matrices",
    "atom_jumps",
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


def atom_jumps(problem: Problem, lam) -> dict:
    """{position: JumpPair} at lam for every atom of ``Problem.atom_table``,
    left to right: the one reading of the atoms for the walker, tau, the
    bad points and the conjugate route."""
    lam = complex(lam)
    return {x: jump_matrices(dq, dw, lam, x)
            for x, (dq, dw) in problem.atom_table.items()}


# --------------------------------------------------------------------------
# bad points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BadPointReport:
    """Atoms at which B- or B+ is singular for this lambda: ``records``
    holds their ``JumpPair``s, left to right."""

    lam: complex
    records: tuple

    @property
    def in_lambda_set(self) -> bool:
        return bool(self.records)

    def __str__(self):
        if not self.records:
            return f"lambda={self.lam}: no bad points"
        parts = []
        for r in self.records:
            sides = "".join(s for s, flag in (("-", r.minus_singular),
                                              ("+", r.plus_singular)) if flag)
            parts.append(f"x={r.position} (B{sides} singular, "
                         f"|det-|={abs(r.det_minus):.3e}, "
                         f"|det+|={abs(r.det_plus):.3e})")
        return f"lambda={self.lam}: bad points at " + ", ".join(parts)

    @property
    def positions(self):
        return tuple(r.position for r in self.records)

    def forward_blocked_before(self, c) -> bool:
        """True when some atom in (0, c) has a singular B+."""
        return any(r.plus_singular and r.position < c for r in self.records)


def bad_points(problem: Problem, lam) -> BadPointReport:
    """The atoms of ``atom_jumps`` with a singular B- or B+; continuity
    points always give B-+ = J and never contribute."""
    records = tuple(jp for jp in atom_jumps(problem, lam).values()
                    if jp.minus_singular or jp.plus_singular)
    return BadPointReport(complex(lam), records)


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


def _nearest(xs, x):
    """Index of the point of the sorted list xs nearest to x."""
    k = bisect.bisect_left(xs, x)
    if k == len(xs) or (k > 0 and x - xs[k - 1] < xs[k] - x):
        k -= 1
    return k


def _solve_segment(problem, lam, piece, x0, x1, y0_complex, t_eval):
    """Propagate the flat complex state (the two components of each
    column in turn) from x0 to x1, in either direction, inside ``piece``;
    t_eval runs from x0 through points strictly inside to x1.  Returns
    (states at t_eval, dense callable x -> state), in one of two ways as
    ``Problem.commuting_system`` decides:

    * exact, exp((x - x0) A0 + Re I AR + Im I AI) with I the integral
      of E over (x0, x), where A0, AR, AI commute pairwise, so that
      exp(int A) is the flow.  I is the ``math.fsum`` of one
      ``Piece.integral`` per interval of t_eval, and a dense value adds
      one from the nearest point of t_eval; where AR = AI = 0 (a
      constant piece) the flow is exp((x - x0) A0), with no quadrature;
    * adaptive Magnus steps elsewhere, where a dense value is one step
      from the nearest accepted node.
    """
    y0 = np.ascontiguousarray(y0_complex, dtype=complex)
    columns = [(complex(u), complex(v)) for u, v in y0.reshape(-1, 2)]

    def apply(p):
        p11, p12, p21, p22 = p
        return np.array([c for u, v in columns
                         for c in (p11 * u + p12 * v, p21 * u + p22 * v)])

    parts = problem.commuting_system(lam, piece)
    if parts is not None and not any(parts[1] + parts[2]):
        def dense(x):
            return apply(_constant_flow(parts[0], float(x) - x0))
    elif parts is not None:
        def flow(x, i):
            omega = [(x - x0) * p + i.real * r + i.imag * s
                     for p, r, s in zip(*parts)]
            try:
                return apply(_constant_flow(omega, 1.0))
            except IntegrationFailureError:
                raise IntegrationFailureError(
                    f"the solution overflows between x={x0} and x={x}",
                    location=x) from None

        steps = [piece.integral(lo, hi) for lo, hi in zip(t_eval, t_eval[1:])]
        xs = list(t_eval)
        nodes = [complex(math.fsum(v.real for v in steps[:k]),
                         math.fsum(v.imag for v in steps[:k]))
                 for k in range(len(xs))]
        if x1 < x0:
            xs, nodes = xs[::-1], nodes[::-1]

        def dense(x):
            x = float(x)
            k = _nearest(xs, x)
            return flow(x, nodes[k] + piece.integral(xs[k], x))   # 0 at a node
    else:
        entries = problem.system_matrix(lam)
        xs, states = _magnus_solve(entries, x0, x1, columns, t_eval[1:-1])
        if x1 < x0:
            xs, states = xs[::-1], states[::-1]

        def flat(cols):
            return np.array([c for col in cols for c in col])

        def dense(x):
            x = float(x)
            k = _nearest(xs, x)
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
    columns, from x0 to x1 in either direction, both in [0, b].

    The walk visits the ``Problem.spans`` between x0 and x1, in reverse
    for a backward walk.  ``solve(piece, lo, hi, flat, t_eval)`` carries
    the state, flattened by columns, over one span (lo, hi) of ``piece``
    and returns (states at t_eval, dense callable or None); t_eval runs
    from lo through the ``samples`` strictly inside to hi.  At each atom
    strictly between x0 and x1 the state is carried across by its
    ``atom_jumps`` pair, B+^{-1} B- forward and B-^{-1} B+ backward; an
    atom at x0 or x1 is not crossed.  Every value is checked to be
    finite.  Returns (state at x1, {x: state} for the samples passed,
    crossings, segments), the last two in walk order.
    """
    forward = x0 <= x1
    spans = list(problem.spans(min(x0, x1), max(x0, x1)))
    points = sorted(samples, reverse=not forward)
    jumps = atom_jumps(problem, lam)
    shape = np.shape(state)
    found, crossings, segments = {}, [], []
    for piece, a, b in spans if forward else reversed(spans):
        lo, hi = (a, b) if forward else (b, a)
        t_eval = [lo] + [x for x in points if a < x < b] + [hi]
        values, dense = solve(piece, lo, hi, np.ravel(state, order="F"), t_eval)
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
        jp = jumps.get(hi) if hi != x1 else None
        if jp is not None:
            after = (jp.transfer_matrix() if forward
                     else jp.backward_matrix()) @ state
            left, right = (state, after) if forward else (after, state)
            crossings.append(AtomCrossing(hi, jp, left, right,
                                          0.5 * (left + right)))
            state = after
    return state, found, crossings, segments


def evolve_ac(problem: Problem, lam, x0, x1, u0) -> np.ndarray:
    """Evolve a single solution vector over an atom-free interval of [0, b]."""
    lo, hi = sorted((x0, x1))
    if lo < 0.0 or hi > problem.b:
        raise ValueError(f"interval ({x0}, {x1}) leaves [0, {problem.b}]")
    for p in problem.atom_positions:
        if lo < p < hi:
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
    at atoms, and elsewhere wherever the matrix evaluates (dense, or at
    its samples only)."""

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


class FundamentalMatrix:
    """Balanced matrix solution U(., lam) with U(0) = rotation(alpha).

    Samples are kept at the requested grid (continuity points); the
    one-sided and balanced values at every crossed atom are stored in
    ``crossings``.  Columns: phi = U[:, 0], psi = U[:, 1].  A matrix
    without segments (``weyl.conjugate_fundamental``) evaluates at its
    samples and crossings only.  ``in_lambda_set`` is True when some atom
    has a singular B- or B+ at lam.
    """

    def __init__(self, problem, lam, c, xs, values, crossings, segments,
                 in_lambda_set=False):
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
        self._sample_index = {x: k for k, x in enumerate(self.xs)}
        self.in_lambda_set = in_lambda_set

    # -- evaluation --------------------------------------------------------

    def _segment_for(self, x):
        k = bisect.bisect_right(self._segment_los, x) - 1
        k = max(0, min(k, len(self._segments) - 1))
        return self._segments[k]

    def _eval_dense(self, x):
        if not (0.0 <= x <= self.c + 1e-12 * max(1.0, self.c)):
            raise ValueError(f"x={x} outside the propagated range [0, {self.c}]")
        # a stored sample is the value the dense closure gives there
        k = self._sample_index.get(x)
        if k is not None:
            return self.values[k].copy()
        seg = self._segment_for(x) if self._segments else None
        if seg is None or seg.dense is None:
            raise ValueError(
                f"no dense interpolant covers x={x}; only stored samples are "
                "available for this solution")
        u = seg.dense(x).reshape(2, 2, order="F")
        if not np.isfinite(u).all():
            raise IntegrationFailureError(
                f"the solution is not finite at x={x}", location=x)
        return u

    def at(self, x) -> np.ndarray:
        """Balanced value of U at x in [0, c]."""
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
                             crossings, segments, report.in_lambda_set)


def fundamental_matrix(problem: Problem, lam, c, grid=None) -> FundamentalMatrix:
    """Propagate U columnwise from 0 to c through alternating AC evolution
    and atom transfers, sampled at the grid and at the density breaks.

    Raises BadPointError when some atom in (0, c) has a singular B+ (the
    forward transfer does not exist).  A singular B- alone is allowed:
    the propagation continues with a rank-1 transfer, the result is
    flagged by ``in_lambda_set`` and downstream Weyl-geometry layers
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


def _gram(fm, c, coeff=None) -> np.ndarray:
    """int_(0,c) V* w V plus V#* Delta_w V# at each atom crossed below c,
    V = U(., fm.lam) coeff (U where coeff is None), span by span.  Where
    ``Problem.commuting_system`` gives A = 0, V is constant on the span,
    which adds v* (int w) v with U read once and int w from w's forms
    (``Piece.integrals``; the density is real-linear in its entries) or
    one matrix quadrature.  Every other span is one matrix quadrature."""
    problem = fm.problem
    density = problem.w.density

    def form(u, w):
        v = u if coeff is None else u @ coeff
        return v.conj().T @ w @ v

    def constant_v(piece, lo, hi):
        parts = problem.commuting_system(fm.lam, piece)
        if parts is None or any(parts[0] + parts[1] + parts[2]):
            return None
        w = piece.integrals(lo, hi, (3, 4, 5))
        w = (integrate(density, lo, hi, 1e-13, 1e-11, 200)[0]
             if w is None else _density_matrix(*w))
        return form(fm.at(0.5 * (lo + hi)), w)

    G = problem.integrate(lambda x: form(fm.at(x), density(x)), 0.0, c,
                          epsabs=1e-13, epsrel=1e-11, limit=200,
                          piece_integral=constant_v)
    for crossing in fm.crossings:
        if crossing.position < c and np.any(crossing.jump.dw):
            G += form(crossing.balanced, crossing.jump.dw)
    return G


def kernel_gram(problem: Problem, c_max) -> KernelGram:
    """G(c_max) of the lambda = 0 fundamental matrix by ``_gram``, made
    exactly Hermitian, with its eigen-decomposition.  At lambda = 0,
    A = Jq, so the spans where q = 0 read U(.,0) once each."""
    c_max = float(c_max)
    report = bad_points(problem, 0.0)
    if report.in_lambda_set:
        raise BadPointError(report, "lambda=0 admits a bad point; the "
                                    "kernel Gram matrix is not defined")
    G = _gram(fundamental_matrix(problem, 0.0, c_max), c_max)
    G = 0.5 * (G + G.conj().T)
    eigenvalues, vectors = np.linalg.eigh(G)
    return KernelGram(G, c_max, eigenvalues, vectors)
