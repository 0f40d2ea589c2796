"""Matrix-measure coefficients and validated problem definitions.

A coefficient of the canonical system is a 2x2 Hermitian-matrix-valued
measure: an absolutely continuous density given by expressions for the
entries d11 (real), d12 (complex; d21 is its conjugate) and d22 (real),
plus finitely many point masses (atoms).  ``Problem`` bundles the
interval (0, b), the boundary angle alpha and the two coefficients q
(Hermitian) and w (non-negative, not identically zero), and validates
all of that eagerly.  Instances are immutable after construction apart
from first-use memos (the compiled entries; ``CoefficientMeasure.mass``
of each span of a c-grid's gaps), and safe to share between threads.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ExpressionDomainError,
    IntegrationFailureError,
    SchemaError,
    ValidationError,
)
from .expressions import (
    BinOp,
    Expr,
    Literal,
    Unary,
    _antiderivative,
    _fold,
    _step_lines,
    _step_value,
    compile_expr,
    compile_tuple,
    eval_expr,
    has_variable,
    parse_expr,
    shared_affine,
    to_source,
)
from .quadrature import _EPS, integrate

__all__ = [
    "Atom",
    "CoefficientMeasure",
    "Piece",
    "Problem",
    "SLProblem",
    "ScalarAtom",
    "parse_problem",
    "sl_to_canonical",
]


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, (int, float)):
        return Literal(complex(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def _hermitian_or_none(m):
    """Return None when m is exactly Hermitian, else a description."""
    if m.shape != (2, 2):
        return f"expected a 2x2 matrix, got shape {m.shape}"
    if m[0, 0].imag != 0.0:
        return f"diagonal entry m11={m[0, 0]} is not real"
    if m[1, 1].imag != 0.0:
        return f"diagonal entry m22={m[1, 1]} is not real"
    if m[1, 0] != np.conj(m[0, 1]):
        return f"m21={m[1, 0]} is not the conjugate of m12={m[0, 1]}"
    return None


def _density_matrix(d11, d12, d22):
    """Hermitian 2x2 matrix from the stored entries; the diagonal is
    projected to its real part."""
    d12 = complex(d12)
    return np.array([[complex(d11).real, d12], [d12.conjugate(), complex(d22).real]],
                    dtype=complex)


def _not_real(v) -> bool:
    return abs(v.imag) > 1e-9 * (1.0 + abs(v))


def psd_violation(m, tol_scale=1e-12):
    """Return None when the Hermitian matrix is PSD within the
    trace-scaled tolerance, else a description."""
    tr = m[0, 0].real + m[1, 1].real
    eigs = np.linalg.eigvalsh(m)
    tol = tol_scale * max(tr, 0.0)
    if eigs[0] < -tol:
        return f"negative eigenvalue {eigs[0]:.6g} (trace {tr:.6g})"
    return None


@dataclass(frozen=True)
class Atom:
    """Point mass of a matrix measure: finite position in (0, b) and an
    exactly Hermitian 2x2 matrix of finite entries."""

    position: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        problem = _hermitian_or_none(m)
        if problem is None and not (math.isfinite(self.position) and np.isfinite(m).all()):
            problem = "position and matrix entries must be finite"
        if problem is not None:
            raise ValidationError(f"atom at x={self.position}: {problem}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "position", float(self.position))


class CoefficientMeasure:
    """AC density (three expression entries) plus a finite atom list.

    The density matrix is Hermitian by construction: only d11, d12, d22
    are stored, the 21 entry is derived as conj(d12), and the diagonal
    is projected to its real part on evaluation.  ``breakpoints`` lists
    further finite x-values where the density entries may jump; the
    roots of ``step`` arguments that are affine in x need not be listed,
    since ``Problem`` finds them in the expressions.
    The entries are compiled on first use (``_ftuple``), so a problem
    constant on every piece compiles none; like the memo of ``mass``,
    that write stores the same value from any thread.
    """

    __slots__ = ("d11", "d12", "d22", "atoms", "breakpoints",
                 "_compiled", "_mass_cache")

    def __init__(self, d11="0", d12="0", d22="0", atoms=(), breakpoints=()):
        self.d11 = _as_expr(d11)
        self.d12 = _as_expr(d12)
        self.d22 = _as_expr(d22)

        normalized = []
        for a in atoms:
            if not isinstance(a, Atom):
                position, matrix = a
                a = Atom(position, np.asarray(matrix, dtype=complex))
            normalized.append(a)
        normalized.sort(key=lambda a: a.position)
        for prev, cur in zip(normalized, normalized[1:]):
            if not (cur.position > prev.position):
                raise ValidationError(
                    f"atom positions must be strictly increasing; "
                    f"{prev.position} repeats"
                )
        self.atoms = tuple(normalized)
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        if not all(map(math.isfinite, self.breakpoints)):
            raise ValidationError(f"breakpoints must be finite, got {self.breakpoints}")

        self._compiled = None
        self._mass_cache = {}

    # -- evaluation --------------------------------------------------------

    @property
    def _ftuple(self):
        """``lambda x: (d11, d12, d22)``, compiled on first use."""
        if self._compiled is None:
            self._compiled = compile_tuple(self.d11, self.d12, self.d22)
        return self._compiled

    def density_entries(self, x):
        """(d11, d12, d22) at x; diagonal projected to the real axis."""
        a, b, d = self._ftuple(x)
        return complex(a).real, complex(b), complex(d).real

    def density(self, x) -> np.ndarray:
        return _density_matrix(*self._ftuple(x))

    @property
    def atom_positions(self):
        return tuple(a.position for a in self.atoms)

    def mass(self, a, b) -> float:
        """Memoized quadrature of the density's Frobenius norm over (a, b),
        a span of a c-grid's gap without atom or jump (``Problem.w_mass``),
        so another lam on the same grid runs none; for tolerances only."""
        key = (a, b)
        if key not in self._mass_cache:
            def frob(x):
                m11, m12, m22 = self.density_entries(x)
                return math.sqrt(m11 * m11 + 2 * abs(m12) ** 2 + m22 * m22)

            self._mass_cache[key] = integrate(frob, a, b, limit=100)[0]
        return self._mass_cache[key]

    # -- serialization -----------------------------------------------------

    def serialize(self) -> dict:
        doc = {
            "d11": to_source(self.d11),
            "d12": to_source(self.d12),
            "d22": to_source(self.d22),
            "atoms": [
                {
                    "x": a.position,
                    "m": [[a.matrix[i, j].real, a.matrix[i, j].imag]
                          for i in (0, 1) for j in (0, 1)],
                }
                for a in self.atoms
            ],
        }
        if self.breakpoints:
            doc["breakpoints"] = list(self.breakpoints)
        return doc


_ZERO = np.zeros((2, 2), dtype=complex)
_ZERO.setflags(write=False)

_ENTRY_LABELS = ("q.d11", "q.d12", "q.d22", "w.d11", "w.d12", "w.d22")


def _system(lam, q, w):
    """Flat A = J (q - lam w) = (a11, a12, a21, a22) from the entries
    (d11, d12, d22) of q and of w at one point; diagonals are projected
    to their real parts.

    The system J u' + q u = lam w u rewrites as u' = J (q - lam w) u on
    atom-free intervals because J^{-1} = -J exactly.
    """
    q11, q12, q22 = q
    w11, w12, w22 = w
    m11 = complex(q11).real - lam * complex(w11).real
    m12 = complex(q12) - lam * complex(w12)
    m21 = complex(q12).conjugate() - lam * complex(w12).conjugate()
    m22 = complex(q22).real - lam * complex(w22).real
    # J @ M with J = [[0, -1], [1, 0]]
    return (-m21, -m22, m11, m12)


# Two 2x2 matrices commute exactly when their traceless parts are
# parallel; a commutator within this multiple of eps |X| |Y| (Frobenius
# norms) is rounding in the entries of X and Y.
_COMMUTE_TOL = 16 * 2.220446049250313e-16


def _commute(x, y) -> bool:
    """[X, Y] = 0 within rounding for flat 2x2 X and Y."""
    a, b, c = 0.5 * (x[0] - x[3]), x[1], x[2]
    d, e, f = 0.5 * (y[0] - y[3]), y[1], y[2]
    gap = max(abs(b * f - c * e), 2 * abs(a * e - b * d), 2 * abs(c * d - a * f))
    return gap <= _COMMUTE_TOL * math.hypot(*map(abs, x)) * math.hypot(*map(abs, y))


# Interval limit of each quadrature of E on a piece: 2 + sin(1000 x) takes
# ~8200 intervals over (0, 30).  An integral of E that is not resolved
# within it raises IntegrationFailureError, as Magnus steps at their floor do.
E_QUAD_LIMIT = 10_000


class Piece(NamedTuple):
    """The open interval (lo, hi) between consecutive discontinuities,
    with the forms (alpha, beta) of its six density entries (q11, q12,
    q22, w11, w12, w22) in its AST node E, ``node``, compiled as ``f``
    (``expressions.shared_affine``): each entry is alpha + beta E(x), or
    its form is None.  ``values`` holds alpha where beta = 0, the exact
    constant value, and None elsewhere; node and f are None where no
    entry depends on x.  ``F`` is an antiderivative of E on the piece,
    compiled, where the rules of ``expressions._antiderivative`` give
    one, else None."""

    lo: float
    hi: float
    values: tuple
    forms: tuple
    node: Expr | None = None
    f: object = None
    F: object = None

    @property
    def constant(self) -> bool:
        return None not in self.values

    def integral(self, lo, hi):
        """The integral of E over (lo, hi) inside the piece: F(hi) - F(lo)
        where F exists and its rounding, 8 eps (|F(hi)| + |F(lo)|), is
        within the quadrature's own tolerance, max(1e-14, 1e-13 |value|);
        else the only quadrature of E, held to that tolerance within
        ``E_QUAD_LIMIT`` intervals."""
        if self.F is not None:
            try:
                left, right = self.F(lo), self.F(hi)
            except (ExpressionDomainError, ZeroDivisionError, ValueError, OverflowError):
                left = right = math.nan
            value = right - left
            if (cmath.isfinite(value) and 8 * _EPS * (abs(left) + abs(right))
                    <= max(1e-14, 1e-13 * abs(value))):
                return value
        return integrate(self.f, lo, hi, 1e-14, 1e-13, E_QUAD_LIMIT)[0]

    def integrals(self, lo, hi, ks):
        """[alpha (hi - lo) + beta int E] over (lo, hi) for the entries ks,
        from at most one ``integral``; None when one of them has no form."""
        forms = [self.forms[k] for k in ks]
        if None in forms:
            return None
        h, e, out = hi - lo, None, []
        for a, b in forms:
            if b and e is None:
                e = self.integral(lo, hi)
            out.append(a * h + b * e if b else a * h)
        return out


class Problem:
    """Validated canonical-system problem on (0, b).

    b may be ``math.inf``.  alpha is the boundary angle at 0 in [0, pi).
    q must be Hermitian (structural) with real diagonal densities, w
    must be positive semi-definite and not identically zero: exactly on
    every piece where both densities are constant, on a sample grid on
    the others (built only when some piece varies), and at every atom.
    All density entries must be integrable near the regular endpoint 0
    (checked by quadrature unless the entry is constant on the first
    piece).

    ``atom_table`` maps each atom position in (0, b), left to right, to
    its read-only (Delta_q, Delta_w), zero on a side without an atom.
    ``discontinuities`` holds the points of (0, b) that are atom
    positions, declared breakpoints or roots of a ``step`` argument that
    is affine in x; ``pieces`` splits (0, b) there, each piece with the
    form alpha + beta E of every entry (``Piece``), formed once per
    pattern of the values of the entries' steps, which are read once.
    Both tables are independent of lambda and built once, also when
    validate is False; an entry that is constant on a piece but
    undefined there is rejected then too.  ``commuting_system`` reads a piece's forms into the
    system on it.  ``spans`` clips the pieces to a range for validation,
    every integral over x (``integrate``), the walker and the oracle.
    """

    def __init__(self, b, alpha, q: CoefficientMeasure, w: CoefficientMeasure,
                 *, validate=True):
        self.b = float(b)
        self.alpha = float(alpha)
        self.q = q
        self.w = w
        if not self.b > 0:
            raise ValidationError(f"b must be positive, got {self.b}")
        if not (0.0 <= self.alpha < math.pi):
            raise ValidationError(f"alpha must lie in [0, pi), got {self.alpha}")

        entries = (q.d11, q.d12, q.d22, w.d11, w.d12, w.d22)
        dq = {a.position: a.matrix for a in q.atoms}
        dw = {a.position: a.matrix for a in w.atoms}
        self.atom_table = {x: (dq.get(x, _ZERO), dw.get(x, _ZERO))
                           for x in sorted(dq.keys() | dw.keys()) if 0.0 < x < self.b}
        self.atom_positions = tuple(self.atom_table)
        walks = [_step_lines(e) for e in entries]
        points = set(self.atom_positions) | set(q.breakpoints) | set(w.breakpoints)
        points.update(-b / a for lines, _ in walks for a, b in lines.values() if a != 0.0)
        self.discontinuities = tuple(sorted(p for p in points if 0.0 < p < self.b))
        self.pieces = self._build_pieces(entries, walks)
        if validate:
            self._validate(entries)

    def _build_pieces(self, entries, walks):
        """A piece keys each entry by the values of its steps (``walks``)
        there, or by (lo, hi) where they are not all affine before
        folding; pieces with equal keys share one fold, form, f and
        antiderivative F, which a piece keeps where the bases of its powers
        are positive on it.  The fold gives the constant entries,
        ``shared_affine`` the others."""
        cuts = list(self.discontinuities)
        built, pieces = {}, []
        for lo, hi in zip([0.0] + cuts, cuts + [self.b]):
            key = tuple(tuple(_step_value(a, b, lo, hi) for a, b in lines.values())
                        if affine else (lo, hi) for lines, affine in walks)
            if key not in built:
                folded, values = zip(*[
                    _fold(e, lo, hi, dict(zip(lines, k)) if affine else None)
                    for e, (lines, affine), k in zip(entries, walks, key)])
                values = [None if v is None or not cmath.isfinite(v) else complex(v)
                          for v in values]
                for label, expr, v in zip(_ENTRY_LABELS, folded, values):
                    if v is None and not has_variable(expr):
                        try:     # a constant without a value does not evaluate
                            eval_expr(expr, lo)
                        except ExpressionDomainError as exc:
                            raise ValidationError(
                                f"{label} on ({lo:.6g}, {hi:.6g}): {exc}") from None
                node, forms = None, tuple((v, 0j) for v in values)
                if None in values:
                    node, forms = shared_affine(folded)
                    values = [None if f is None or f[1] else f[0] for f in forms]
                f = None if node is None else compile_expr(node)
                F = None if node is None else _antiderivative(node)
                built[key] = (tuple(values), forms, node, f), F and (compile_expr(F[0]), F[1])
            fields, F = built[key]
            if F and all(min(a * lo + b, a * hi + b) >= 0 for a, b in F[1]):
                pieces.append(Piece(lo, hi, *fields, F[0]))
            else:   # no antiderivative, or a power's base not positive here
                pieces.append(Piece(lo, hi, *fields))
        return tuple(pieces)

    def spans(self, lo, hi):
        """Yield (piece, a, b), left to right, for every piece that meets
        (lo, hi), with (a, b) the part of the piece inside (lo, hi);
        nothing when lo >= hi.  The only clipping of ``pieces``."""
        if lo < hi:
            for piece in self.pieces:
                if piece.lo < hi and lo < piece.hi:
                    yield piece, max(piece.lo, lo), min(piece.hi, hi)

    def integrate(self, f, xs, epsabs, epsrel, limit, piece_integral=None):
        """[integral of f over (0, x) for x in xs], xs increasing, in one
        pass: each gap between consecutive points (0 before the first) is
        summed over its ``spans``, so that no quadrature spans a
        discontinuity, and the gaps are added from left to right.

        ``piece_integral(piece, a, b)``, where given, returns the integral
        of f over the span (a, b) of ``piece`` from what its forms give
        (``Piece.integrals``), or None where they do not determine it.  f is integrated by one
        adaptive quadrature at the given tolerances on each span where
        it returns None, and only there."""
        out, total = [], 0
        for lo, hi in zip([0.0, *xs], xs):
            if hi < lo:
                raise ValueError(f"xs must increase from 0, got {hi} after {lo}")
            gap = 0
            for piece, a, b in self.spans(lo, hi):
                value = None if piece_integral is None else piece_integral(piece, a, b)
                if value is None:
                    value = integrate(f, a, b, epsabs, epsrel, limit)[0]
                gap = gap + value
            total = total + gap
            out.append(total)
        return out

    # -- validation --------------------------------------------------------

    def _sample_grid(self):
        hi = min(self.b, 50.0)
        grid = np.concatenate([
            np.geomspace(hi * 1e-4, hi * 0.05, 24),
            np.linspace(hi * 0.06, hi * 0.995, 96),
        ])
        # probe just next to every discontinuity as well; the left probe
        # stays in (0, p) also for a discontinuity below the offset
        extra = []
        for p in self.discontinuities:
            if p < hi:
                eps = 1e-6 * max(1.0, p)
                extra.extend([max(p - eps, 0.5 * p), p + eps])
        return np.concatenate([grid, extra]) if extra else grid

    def _validate(self, entries):
        """Atoms in (0, b) with PSD w atoms; then, on each piece, the
        exact values of a constant piece (once per distinct values) or the
        sample-grid points of any other: real diagonals and PSD w.  w must
        be nonzero at one of these or at an atom, and every entry
        integrable near 0."""
        for name, measure in (("q", self.q), ("w", self.w)):
            for a in measure.atoms:
                if not (0.0 < a.position < self.b):
                    raise ValidationError(
                        f"{name} atom at x={a.position} lies outside (0, {self.b})"
                    )
        for k, a in enumerate(self.w.atoms):
            bad = psd_violation(a.matrix)
            if bad is not None:
                raise ValidationError(f"w.atoms[{k}] at x={a.position}: {bad}")

        def sampled(x):
            values = []
            for label, expr in zip(_ENTRY_LABELS, entries):
                try:
                    values.append(eval_expr(expr, x))
                except ExpressionDomainError as exc:
                    raise ValidationError(f"{label}: {exc}") from None
            return f"at x={x:.6g}", values

        grid = None if all(p.constant for p in self.pieces) else self._sample_grid()
        nonzero = any(np.any(a.matrix) for a in self.w.atoms)
        checked = set()     # the constant values tuples that passed
        for piece in self.pieces:
            if piece.constant:
                if piece.values in checked:
                    continue
                checked.add(piece.values)
                checks = [(f"on ({piece.lo:.6g}, {piece.hi:.6g})", piece.values)]
            else:
                checks = map(sampled, grid[(piece.lo <= grid) & (grid < piece.hi)])
            for where, values in checks:
                for k in (0, 2, 3, 5):
                    if _not_real(values[k]):
                        raise ValidationError(
                            f"{_ENTRY_LABELS[k]} is not real-valued {where} "
                            f"(value {values[k]})")
                w = _density_matrix(*values[3:])
                bad = psd_violation(w)
                if bad is not None:
                    raise ValidationError(f"w density {where}: {bad}")
                nonzero = nonzero or bool(np.any(w))
        if not nonzero:
            raise ValidationError("w is identically zero")

        c0 = min(1.0, self.b / 2.0)
        for k, value in enumerate(self.pieces[0].values):
            if value is None:
                f = (self.q if k < 3 else self.w)._ftuple
                self._check_integrable_near_zero(
                    _ENTRY_LABELS[k], lambda x, f=f, k=k % 3: f(x)[k], c0)

    @staticmethod
    def _check_integrable_near_zero(label, fn, c0):
        """Finite-quadrature integrability probe on (0, c0].

        Integrates |entry| on (t_1, c0) and on the bands (t_{k+1}, t_k),
        t_k = c0 * 10^{-3k}, and asks the band integrals to die out
        geometrically, which integrable power singularities x^{-p}, p < 1,
        do (ratio 10^{-3(1-p)}) and divergent ones do not.  Each integral
        counts as its estimate plus its error bound, also when its
        quadrature reaches the interval limit: the rule's weights are
        positive, so the estimate of a band stays below the band length
        times the largest |entry| sampled there, and a bounded entry that
        oscillates without end near 0 (sin(1/x)^2) still passes.
        Exponents within a few percent of the integrability border are
        numerically undecidable and rejected.
        """
        def magnitude(x):
            return abs(fn(x))

        bounds = [c0 * 10.0 ** (-3 * k) for k in (0, 1, 2, 3, 4)]
        try:
            pieces = [integrate(magnitude, lo, hi, limit=120, strict=False)
                      for hi, lo in zip(bounds, bounds[1:])]
        except (ZeroDivisionError, ValueError, OverflowError,
                ExpressionDomainError, IntegrationFailureError):
            raise ValidationError(f"{label} is not integrable near 0") from None
        bands = [v + e for v, e in pieces]
        last = sum(bands)
        if not math.isfinite(last) or last > 1e10:
            raise ValidationError(
                f"{label} fails the integrability check near 0 "
                f"(tail quadrature {last:.3g})")
        diffs = bands[1:]
        if diffs[-1] <= 1e-9 * (1.0 + last):
            return
        if any(d <= 0 for d in diffs):
            raise ValidationError(
                f"{label} fails the integrability check near 0 "
                "(inconsistent tail quadratures)")
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        if max(ratios) > 0.75:
            raise ValidationError(
                f"{label} fails the integrability check near 0 "
                f"(tail increments {diffs} do not vanish)")

    # -- accessors ---------------------------------------------------------

    def delta_q(self, x) -> np.ndarray:
        return self.atom_table.get(x, (_ZERO, _ZERO))[0]

    def delta_w(self, x) -> np.ndarray:
        return self.atom_table.get(x, (_ZERO, _ZERO))[1]

    def system_matrix(self, lam):
        """Return x -> A(x) with u' = A u between atoms, as a flat 2x2
        tuple (a11, a12, a21, a22)."""
        lam = complex(lam)
        fq, fw = self.q._ftuple, self.w._ftuple
        return lambda x: _system(lam, fq(x), fw(x))

    def commuting_system(self, lam, piece):
        """(A0, AR, AI), flat like system_matrix, with
        A(x) = A0 + Re E(x) AR + Im E(x) AI on ``piece`` for its node E
        where the three commute pairwise, else None: then
        exp((x - lo) A0 + Re I AR + Im I AI), with I the integral of E
        over (lo, x), carries u from lo to x.  It reads the forms of q,
        and of w unless lam = 0, where w does not enter A; where every
        beta is 0, AR = AI = 0 without a commutator test.  ``_system``
        is real-linear in the six entries, so AR and AI are it at the
        coefficients beta and i beta.  Decided from the AST's constants
        alone, never from samples."""
        lam = complex(lam)
        forms = piece.forms if lam != 0 else piece.forms[:3] + ((0, 0),) * 3
        if None in forms:
            return None
        alpha, beta = zip(*forms)
        a0 = _system(lam, alpha[:3], alpha[3:])
        if not any(beta):
            return a0, (0,) * 4, (0,) * 4
        ibeta = [1j * b for b in beta]
        ar = _system(lam, beta[:3], beta[3:])
        ai = _system(lam, ibeta[:3], ibeta[3:])
        if _commute(a0, ar) and _commute(a0, ai) and _commute(ar, ai):
            return a0, ar, ai
        return None

    def w_mass(self, cs):
        """Frobenius total-variation scale of w on (0, c) at each c of the
        increasing cs, one ``integrate`` pass: h |W|_F where w is constant,
        ``w.mass`` on each other span, plus each atom's |Delta_w|_F below c."""
        def span_mass(piece, lo, hi):
            w11, w12, w22 = piece.values[3:]
            if None in (w11, w12, w22):
                return self.w.mass(lo, hi)
            return (hi - lo) * math.sqrt(w11.real ** 2 + 2 * abs(w12) ** 2 + w22.real ** 2)

        atoms = np.cumsum([0.0] + [float(np.linalg.norm(a.matrix)) for a in self.w.atoms])
        below = np.searchsorted([a.position for a in self.w.atoms], cs)   # atoms below c
        # every span has a value, so no f and no tolerances are needed
        return np.array(self.integrate(None, cs, None, None, None, span_mass)) + atoms[below]

    # -- serialization -----------------------------------------------------

    def serialize(self) -> dict:
        return {
            "b": self.b if math.isfinite(self.b) else "inf",
            "alpha": self.alpha,
            "q": self.q.serialize(),
            "w": self.w.serialize(),
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.serialize(), indent=indent)

    def __repr__(self):
        b = self.b if math.isfinite(self.b) else "inf"
        return (f"Problem(b={b}, alpha={self.alpha}, "
                f"{len(self.q.atoms)} q-atoms, {len(self.w.atoms)} w-atoms)")


# --------------------------------------------------------------------------
# problem files
# --------------------------------------------------------------------------

def _number(value, where):
    """A JSON number as a float; JSON booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: an integer beyond the float range") from None


def _parse_matrix(pairs, where):
    if (not isinstance(pairs, list)) or len(pairs) != 4:
        raise SchemaError(f"{where}: expected 4 [re, im] pairs (row-major)")
    values = []
    for k, pair in enumerate(pairs):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise SchemaError(f"{where}[{k}]: expected an [re, im] pair")
        values.append(complex(*(_number(v, f"{where}[{k}]") for v in pair)))
    return np.array(values, dtype=complex).reshape(2, 2)


def _parse_measure(doc, where):
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    known = {"d11", "d12", "d22", "atoms", "breakpoints"}
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    entries = {}
    for key in ("d11", "d12", "d22"):
        text = doc.get(key, "0")
        if not isinstance(text, str):
            raise SchemaError(f"{where}.{key}: expected an expression string")
        entries[key] = text
    atom_docs = doc.get("atoms", []) or []
    if not isinstance(atom_docs, list):
        raise SchemaError(f"{where}.atoms: expected a list of atoms")
    atoms = []
    for k, atom_doc in enumerate(atom_docs):
        if not isinstance(atom_doc, dict) or "x" not in atom_doc or "m" not in atom_doc:
            raise SchemaError(f"{where}.atoms[{k}]: expected {{'x': ..., 'm': ...}}")
        matrix = _parse_matrix(atom_doc["m"], f"{where}.atoms[{k}].m")
        try:
            atoms.append(Atom(_number(atom_doc["x"], f"{where}.atoms[{k}].x"), matrix))
        except ValidationError as exc:
            raise ValidationError(f"{where}.atoms[{k}]: {exc}") from None
    breakpoints = doc.get("breakpoints", []) or []
    if not isinstance(breakpoints, list):
        raise SchemaError(f"{where}.breakpoints: expected a list of numbers")
    breakpoints = [_number(v, f"{where}.breakpoints[{k}]") for k, v in enumerate(breakpoints)]
    try:
        measure = CoefficientMeasure(entries["d11"], entries["d12"],
                                     entries["d22"], atoms, breakpoints)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return measure


def parse_problem(document) -> Problem:
    """Build a validated Problem from a JSON document (text or dict).

    Layout::

        {"b": number | "inf", "alpha": number,
         "q": {"d11": expr, "d12": expr, "d22": expr,
               "atoms": [{"x": number, "m": [[re, im] x 4 row-major]}],
               "breakpoints": [number, ...]},
         "w": {... same ...}}

    Missing density keys default to "0"; breakpoints default to [].
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = set(document) - {"b", "alpha", "q", "w"}
    if unknown:
        raise SchemaError(f"unknown top-level keys {sorted(unknown)}")
    if "b" not in document or "alpha" not in document:
        raise SchemaError("keys 'b' and 'alpha' are required")

    b = math.inf if document["b"] == "inf" else _number(document["b"], "b (or \"inf\")")
    if not (math.isfinite(b) or document["b"] == "inf"):
        raise SchemaError(f"b: expected a finite number or \"inf\", got {b}")
    alpha = _number(document["alpha"], "alpha")
    q = _parse_measure(document.get("q"), "q")
    w = _parse_measure(document.get("w"), "w")
    return Problem(b, alpha, q, w)


# --------------------------------------------------------------------------
# Sturm-Liouville embedding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarAtom:
    """Scalar point mass (for the v and r coefficients)."""

    position: float
    weight: float


class SLProblem:
    """Sturm-Liouville style data -(p(y'+sy))' + sp(y'+sy) + vy = lam r y
    on (0, b): expression densities for p, s, v, r, plus optional scalar
    atoms on v and r.  1/p, s, v, r must be integrable near 0.
    """

    def __init__(self, b, p="1", s="0", v="0", r="1",
                 v_atoms=(), r_atoms=(), alpha=0.0, breakpoints=()):
        self.b = float(b)
        self.alpha = float(alpha)
        self.p = _as_expr(p)
        self.s = _as_expr(s)
        self.v = _as_expr(v)
        self.r = _as_expr(r)
        self.v_atoms = tuple(ScalarAtom(float(a[0]), float(a[1]))
                             if not isinstance(a, ScalarAtom) else a
                             for a in v_atoms)
        self.r_atoms = tuple(ScalarAtom(float(a[0]), float(a[1]))
                             if not isinstance(a, ScalarAtom) else a
                             for a in r_atoms)
        self.breakpoints = tuple(sorted(float(x) for x in breakpoints))
        self._validate()

    def _validate(self):
        if not self.b > 0:
            raise ValidationError(f"b must be positive, got {self.b}")
        for a in self.r_atoms:
            if a.weight < 0:
                raise ValidationError(
                    f"r atom at x={a.position} has negative weight {a.weight}")
        one_over_p = BinOp("/", Literal(complex(1.0)), self.p)
        c0 = min(1.0, self.b / 2.0)
        for label, expr in (("1/p", one_over_p), ("s", self.s),
                            ("v", self.v), ("r", self.r)):
            Problem._check_integrable_near_zero(label, compile_expr(expr), c0)


def sl_to_canonical(sl: SLProblem) -> Problem:
    """Map Sturm-Liouville data to the canonical system.

    q = [[v, s], [s, -1/p]] and w = [[r, 0], [0, 0]] as measures; atoms
    of v and r land in the top-left entries of the q and w atoms.
    """
    minus_one_over_p = Unary("-", BinOp("/", Literal(complex(1.0)), sl.p))
    q = CoefficientMeasure(
        d11=sl.v, d12=sl.s, d22=minus_one_over_p,
        atoms=[(a.position, [[a.weight, 0.0], [0.0, 0.0]]) for a in sl.v_atoms],
        breakpoints=sl.breakpoints,
    )
    w = CoefficientMeasure(
        d11=sl.r,
        atoms=[(a.position, [[a.weight, 0.0], [0.0, 0.0]]) for a in sl.r_atoms],
        breakpoints=sl.breakpoints,
    )
    return Problem(sl.b, sl.alpha, q, w)
