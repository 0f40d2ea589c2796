"""Matrix-measure coefficients and validated problem definitions.

A coefficient of the canonical system is a 2x2 Hermitian-matrix-valued
measure: an absolutely continuous density given by expressions for the
entries d11 (real), d12 (complex; d21 is its conjugate) and d22 (real),
plus finitely many point masses (atoms).  ``Problem`` bundles the
interval (0, b), the boundary angle alpha and the two coefficients q
(Hermitian) and w (non-negative, not identically zero), and validates
all of that eagerly.  Instances are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import bisect
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
    compile_expr,
    compile_tuple,
    eval_expr,
    fold_steps,
    has_variable,
    parse_expr,
    step_roots,
    to_source,
)
from .quadrature import integrate

__all__ = [
    "Atom",
    "CoefficientMeasure",
    "Piece",
    "Problem",
    "SLProblem",
    "ScalarAtom",
    "parse_problem",
    "serialize_problem",
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
    """Point mass of a matrix measure: position in (0, b) and an exactly
    Hermitian 2x2 matrix."""

    position: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        problem = _hermitian_or_none(m)
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
    further x-values where the density entries may jump; the roots of
    ``step`` arguments that are affine in x need not be listed, since
    ``Problem`` finds them in the expressions.
    """

    __slots__ = ("d11", "d12", "d22", "atoms", "breakpoints",
                 "_f11", "_f12", "_f22", "_ftuple", "_mass_cache")

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

        f = self._ftuple = compile_tuple(self.d11, self.d12, self.d22)
        self._f11, self._f12, self._f22 = (
            (lambda x, k=k: f(x)[k]) for k in range(3))
        self._mass_cache = {}

    # -- evaluation --------------------------------------------------------

    def density_entries(self, x):
        """(d11, d12, d22) at x; diagonal projected to the real axis."""
        a, b, d = self._ftuple(x)
        return complex(a).real, complex(b), complex(d).real

    def density(self, x) -> np.ndarray:
        return _density_matrix(*self._ftuple(x))

    @property
    def atom_positions(self):
        return tuple(a.position for a in self.atoms)

    def delta(self, x) -> np.ndarray:
        """Jump matrix at x: the atom matrix if there is one, else 0."""
        for a in self.atoms:
            if a.position == x:
                return a.matrix
        return np.zeros((2, 2), dtype=complex)

    def mass(self, a, b) -> float:
        """Frobenius total-variation estimate of the measure on (a, b);
        used only for scale-aware tolerances."""
        key = (a, b)
        if key not in self._mass_cache:
            def frob(x):
                m11, m12, m22 = self.density_entries(x)
                return math.sqrt(m11 * m11 + 2 * abs(m12) ** 2 + m22 * m22)

            pieces = [a] + [p for p in sorted(set(self.breakpoints) |
                                              set(self.atom_positions))
                            if a < p < b] + [b]
            total = 0.0
            for lo, hi in zip(pieces, pieces[1:]):
                total += integrate(frob, lo, hi, limit=100)[0]
            for atom in self.atoms:
                if a < atom.position < b:
                    total += float(np.linalg.norm(atom.matrix))
            self._mass_cache[key] = total
        return self._mass_cache[key]

    def is_nonzero(self, sample_points) -> bool:
        if any(np.linalg.norm(a.matrix) > 0 for a in self.atoms):
            return True
        for x in sample_points:
            m11, m12, m22 = self.density_entries(x)
            if abs(m11) + abs(m12) + abs(m22) > 0:
                return True
        return False

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


_ENTRY_LABELS = ("q.d11", "q.d12", "q.d22", "w.d11", "w.d12", "w.d22")


def _system(lam, qf, wf):
    """x -> flat A(x) = J (q - lam w) = (a11, a12, a21, a22), from the
    callables x -> (d11, d12, d22) of q and w; diagonals are projected to
    their real parts.

    The system J u' + q u = lam w u rewrites as u' = J (q - lam w) u on
    atom-free intervals because J^{-1} = -J exactly.
    """
    def entries(x):
        q11, q12, q22 = qf(x)
        w11, w12, w22 = wf(x)
        m11 = complex(q11).real - lam * complex(w11).real
        m12 = complex(q12) - lam * complex(w12)
        m21 = complex(q12).conjugate() - lam * complex(w12).conjugate()
        m22 = complex(q22).real - lam * complex(w22).real
        # J @ M with J = [[0, -1], [1, 0]]
        return (-m21, -m22, m11, m12)

    return entries


class Piece(NamedTuple):
    """The open interval (lo, hi) between consecutive discontinuities,
    with the six density entries (q11, q12, q22, w11, w12, w22) there:
    each is its exact constant value on the piece, or None where it
    still depends on x."""

    lo: float
    hi: float
    values: tuple

    @property
    def constant(self) -> bool:
        return None not in self.values


class Problem:
    """Validated canonical-system problem on (0, b).

    b may be ``math.inf``.  alpha is the boundary angle at 0 in [0, pi).
    q must be Hermitian (structural) with real diagonal densities, w
    must be positive semi-definite and not identically zero: exactly on
    every piece where both densities are constant, on a sample grid on
    the others, and at every atom.  All density entries must be
    integrable near the regular endpoint 0 (checked by quadrature unless
    the entry is constant on the first piece).

    ``discontinuities`` holds the atom positions, the declared
    breakpoints and the roots in (0, b) of every ``step`` argument that
    is affine in x.  ``pieces`` splits (0, b) there.  It does not depend
    on lambda and is built once, also when validate is False; an entry
    that is constant on a piece but undefined there is rejected then too.
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
        roots = {r for e in entries for r in step_roots(e) if 0.0 < r < self.b}
        positions = sorted(set(q.atom_positions) | set(w.atom_positions))
        self.atom_positions = tuple(positions)
        self.discontinuities = tuple(sorted(
            set(positions) | set(q.breakpoints) | set(w.breakpoints) | roots))
        self.pieces = self._build_pieces(entries)
        self._piece_los = [piece.lo for piece in self.pieces]
        if validate:
            self._validate()

    def _build_pieces(self, entries):
        cuts = [p for p in self.discontinuities if 0.0 < p < self.b]
        pieces = []
        for lo, hi in zip([0.0] + cuts, cuts + [self.b]):
            values = []
            for label, expr in zip(_ENTRY_LABELS, entries):
                folded = fold_steps(expr, lo, hi)
                if has_variable(folded):
                    values.append(None)
                    continue
                try:
                    values.append(eval_expr(folded, lo))
                except ExpressionDomainError as exc:
                    raise ValidationError(
                        f"{label} on ({lo:.6g}, {hi:.6g}): {exc}") from None
            pieces.append(Piece(lo, hi, tuple(values)))
        return tuple(pieces)

    def _piece_at(self, x) -> Piece:
        """The piece whose interval [lo, hi) holds x in [0, b)."""
        return self.pieces[bisect.bisect_right(self._piece_los, x) - 1]

    # -- validation --------------------------------------------------------

    def _sample_grid(self):
        hi = min(self.b, 50.0)
        grid = np.concatenate([
            np.geomspace(hi * 1e-4, hi * 0.05, 24),
            np.linspace(hi * 0.06, hi * 0.995, 96),
        ])
        # probe just next to every discontinuity as well
        extra = []
        for p in self.discontinuities:
            if 0 < p < hi:
                eps = 1e-6 * max(1.0, p)
                extra.extend([p - eps, p + eps])
        return np.concatenate([grid, extra]) if extra else grid

    def _validate(self):
        for name, measure in (("q", self.q), ("w", self.w)):
            for a in measure.atoms:
                if not (0.0 < a.position < self.b):
                    raise ValidationError(
                        f"{name} atom at x={a.position} lies outside (0, {self.b})"
                    )

        w_on_constant_pieces = []
        for piece in self.pieces:
            if not piece.constant:
                continue
            where = f"on ({piece.lo:.6g}, {piece.hi:.6g})"
            for k in (0, 2, 3, 5):
                v = piece.values[k]
                if _not_real(v):
                    raise ValidationError(
                        f"{_ENTRY_LABELS[k]} is not real-valued {where} "
                        f"(value {v})")
            w = _density_matrix(*piece.values[3:])
            bad = psd_violation(w)
            if bad is not None:
                raise ValidationError(f"w density {where}: {bad}")
            w_on_constant_pieces.append(w)

        grid = [x for x in self._sample_grid() if not self._piece_at(x).constant]
        for name, measure in (("q", self.q), ("w", self.w)):
            for entry, expr in (("d11", measure.d11), ("d22", measure.d22)):
                for x in grid:
                    try:
                        v = eval_expr(expr, x)
                    except ExpressionDomainError as exc:
                        raise ValidationError(f"{name}.{entry}: {exc}") from None
                    if _not_real(v):
                        raise ValidationError(
                            f"{name}.{entry} is not real-valued at x={x:.6g} "
                            f"(value {v})"
                        )
            for x in grid:
                try:
                    eval_expr(measure.d12, x)
                except ExpressionDomainError as exc:
                    raise ValidationError(f"{name}.d12: {exc}") from None

        for x in grid:
            bad = psd_violation(self.w.density(x))
            if bad is not None:
                raise ValidationError(f"w density at x={x:.6g}: {bad}")
        for k, a in enumerate(self.w.atoms):
            bad = psd_violation(a.matrix)
            if bad is not None:
                raise ValidationError(f"w.atoms[{k}] at x={a.position}: {bad}")

        if not (any(np.any(w) for w in w_on_constant_pieces)
                or self.w.is_nonzero(grid)):
            raise ValidationError("w is identically zero")

        c0 = min(1.0, self.b / 2.0)
        functions = (self.q._f11, self.q._f12, self.q._f22,
                     self.w._f11, self.w._f12, self.w._f22)
        for label, fn, value in zip(_ENTRY_LABELS, functions,
                                    self.pieces[0].values):
            if value is None:
                self._check_integrable_near_zero(label, fn, c0)

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
        return self.q.delta(x)

    def delta_w(self, x) -> np.ndarray:
        return self.w.delta(x)

    def system_matrix(self, lam):
        """Return A(x) with u' = A u between atoms, as a flat 2x2 tuple
        (a11, a12, a21, a22)."""
        return _system(complex(lam), self.q._ftuple, self.w._ftuple)

    def constant_system(self, lam, x0, x1):
        """The constant A of system_matrix on the open interval between
        x0 and x1 when one piece holds it and A is constant there (q is,
        and w is or lam = 0), else None."""
        lam = complex(lam)
        lo, hi = (x0, x1) if x0 <= x1 else (x1, x0)
        piece = self._piece_at(lo)
        q, w = piece.values[:3], piece.values[3:]
        if lam == 0:
            w = (0, 0, 0)   # w does not enter A
        if hi > piece.hi or None in q + w:
            return None
        return _system(lam, lambda x: q, lambda x: w)(lo)

    def w_mass(self, c) -> float:
        """Frobenius total-variation scale of w on (0, c), summed over the
        pieces: h |W|_F exactly where w is constant, ``w.mass`` (memoized
        quadrature) on the others, plus |Delta_w|_F per atom."""
        c = float(c)
        total = sum(float(np.linalg.norm(a.matrix))
                    for a in self.w.atoms if a.position < c)
        for piece in self.pieces:
            if piece.lo >= c:
                break
            hi = min(piece.hi, c)
            w11, w12, w22 = piece.values[3:]
            if None in (w11, w12, w22):
                total += self.w.mass(piece.lo, hi)
            else:
                total += (hi - piece.lo) * math.sqrt(
                    w11.real ** 2 + 2 * abs(w12) ** 2 + w22.real ** 2)
        return total

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

def _parse_matrix(pairs, where):
    if (not isinstance(pairs, list)) or len(pairs) != 4:
        raise SchemaError(f"{where}: expected 4 [re, im] pairs (row-major)")
    values = []
    for k, pair in enumerate(pairs):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise SchemaError(f"{where}[{k}]: expected an [re, im] pair")
        try:
            values.append(complex(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError):
            raise SchemaError(f"{where}[{k}]: entries must be numbers") from None
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
    atoms = []
    for k, atom_doc in enumerate(doc.get("atoms", []) or []):
        if not isinstance(atom_doc, dict) or "x" not in atom_doc or "m" not in atom_doc:
            raise SchemaError(f"{where}.atoms[{k}]: expected {{'x': ..., 'm': ...}}")
        matrix = _parse_matrix(atom_doc["m"], f"{where}.atoms[{k}].m")
        try:
            atoms.append(Atom(float(atom_doc["x"]), matrix))
        except ValidationError as exc:
            raise ValidationError(f"{where}.atoms[{k}]: {exc}") from None
    breakpoints = doc.get("breakpoints", []) or []
    if not isinstance(breakpoints, list):
        raise SchemaError(f"{where}.breakpoints: expected a list of numbers")
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

    b_raw = document["b"]
    if b_raw == "inf":
        b = math.inf
    else:
        try:
            b = float(b_raw)
        except (TypeError, ValueError):
            raise SchemaError("'b' must be a number or \"inf\"") from None
    try:
        alpha = float(document["alpha"])
    except (TypeError, ValueError):
        raise SchemaError("'alpha' must be a number") from None

    q = _parse_measure(document.get("q"), "q")
    w = _parse_measure(document.get("w"), "w")
    return Problem(b, alpha, q, w)


def serialize_problem(problem: Problem) -> dict:
    return problem.serialize()


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
