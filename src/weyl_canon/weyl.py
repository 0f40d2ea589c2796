"""tau function, Weyl disks / half planes, norms and the m coefficient.

With A = U11(c), B = U21(c), C = U12(c), D = U22(c) the boundary
condition (cos b, sin b) chi_m(c) = 0 for chi_m = phi + m psi turns the
real boundary parameter z = cot(b) into the Moebius image

    m(z) = -(A z + B) / (C z + D),

whose image of the compactified real line is a circle when
C conj(D) - conj(C) D != 0 (equivalently when psi has positive w-norm
on (0, c)) and a horizontal line otherwise.  The tau function

    tau(x, lam) = prod_{atoms in (0,x)} det B- / det B+
                  * exp(2i int_(0,x) (Im q12_ac - lam Im w12_ac))

equals det U(x, lam) and ties the disk radius to the psi norm through
r = |tau| / (2 |Im lam| ||psi||_c^2).  ``weyl_set`` takes the radius
|tau| / |C conj(D) - conj(C) D| from tau: the entry determinant AD - BC
cancels to rounding noise where det U decays while U grows.  Only
``radius_identity_residual`` reads the entry determinant, so that the
identity stays an independent check.

Every Lagrange quantity reads one scalar, Im(conj(u1) u2) = i u* J u / 2:
the norms, the disk's denominator and the half plane's level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadPointError,
    DegenerateHalfPlaneError,
    DegenerateUError,
    IntegrationFailureError,
    NonRealResultError,
)
from .measures import Problem
from .propagation import (
    RTOL,
    AtomCrossing,
    FundamentalMatrix,
    SampledSolution,
    _gram,
    atom_jumps,
    bad_points,
    eta_solution,
    fundamental_matrix,
)

__all__ = [
    "M_INFINITY",
    "TauSample",
    "tau",
    "tau_profile",
    "WeylDisk",
    "WeylHalfPlane",
    "det_noise_ratio",
    "weyl_set",
    "null_norm_tolerance",
    "NormValue",
    "norm_lagrange",
    "norm_quadrature",
    "solution_norm_sq",
    "radius_identity_residual",
    "m_from_boundary",
    "m_alt",
    "conjugate_fundamental",
    "conjugate_solution",
]

#: One-point compactification: the Moebius map hits infinity when
#: C z + D = 0; that value of m is reported as this sentinel.
M_INFINITY = complex(math.inf, math.inf)


# --------------------------------------------------------------------------
# tau
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSample:
    """tau(x, lam) split into the atom product and the AC exponential."""

    x: float
    lam: complex
    product: complex
    continuous_factor: complex
    value: complex


def _imag12_integrals(problem: Problem, x_from, x_to):
    """(int Im q12_ac, int Im w12_ac) over (x_from, x_to), piece by
    piece, as the real and imaginary part of one integral: from the
    forms of q12 and w12 (``Piece.integrals``) on a piece where both
    have one, and by quadrature of both at once elsewhere."""
    q_entries = problem.q.density_entries
    w_entries = problem.w.density_entries

    def integrand(t):
        return complex(q_entries(t)[1].imag, w_entries(t)[1].imag)

    def exact(piece, lo, hi):
        pair = piece.integrals(lo, hi, (1, 4))
        return None if pair is None else complex(pair[0].imag, pair[1].imag)

    total = problem.integrate(integrand, x_from, x_to,
                              epsabs=1e-13, epsrel=1e-12, limit=200,
                              piece_integral=exact)
    return total.real, total.imag


def _tau_factor(iq, iw, lam, x):
    """exp(2i (iq - lam iw)); an overflow is the blow-up of det U at x."""
    try:
        return cmath.exp(2j * (iq - lam * iw))
    except OverflowError:
        raise IntegrationFailureError(
            f"tau(x={x}, lam={lam}) overflows", location=x) from None


def tau(problem: Problem, lam, x) -> TauSample:
    """tau(x, lam) for x in [0, b); ``tau_profile`` at the one point x.

    B+ singular at an atom in (0, x) raises BadPointError.  A singular
    B- makes the product exactly zero (lam then lies in Lambda and the
    Weyl layers will refuse the result; the value itself is still the
    determinant of the collapsed fundamental matrix).
    """
    return tau_profile(problem, lam, [x])[0]


def tau_profile(problem: Problem, lam, xs):
    """tau at several increasing x in [0, b), integrating each gap only
    once; lam must be finite."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lam={lam} is not finite")
    xs = [float(x) for x in xs]
    if xs != sorted(xs):
        raise ValueError("xs must be sorted increasingly")
    if xs and not (0.0 <= xs[0] and xs[-1] < problem.b):
        raise ValueError(f"xs={xs} outside [0, {problem.b})")
    samples = []
    iq = iw = 0.0
    prev = 0.0
    pending = list(atom_jumps(problem, lam).values())
    product = complex(1.0)
    for x in xs:
        dq_, dw_ = _imag12_integrals(problem, prev, x)
        iq += dq_
        iw += dw_
        while pending and pending[0].position < x:
            jp = pending.pop(0)
            if jp.plus_singular:
                raise BadPointError(bad_points(problem, lam))
            product *= jp.det_minus / jp.det_plus
        factor = _tau_factor(iq, iw, lam, x)
        samples.append(TauSample(x, lam, product, factor, product * factor))
        prev = x
    return samples


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormValue:
    """Truncated w-norm squared of a solution, with the route used."""

    c: float
    value: float
    method: str


def _lagrange(u) -> float:
    """Im(conj(u1) u2), the one scalar behind every Lagrange quantity:
    u* J u = -2i Im(conj(u1) u2) is exactly imaginary for every u."""
    u1, u2 = u
    return float(u1.real * u2.imag - u1.imag * u2.real)


def norm_lagrange(u0, uc, lam, c=None) -> NormValue:
    """||u||_c^2 from the boundary values alone:

        ||u||_c^2 = ((u* J u)(c) - (u* J u)(0)) / (2i Im lam)
                  = (Im(conj(u1) u2)(0) - Im(conj(u1) u2)(c)) / Im lam,

    valid for any solution of the lam-equation at continuity points and
    real by construction.  A non-finite value signals a propagation
    defect and raises NonRealResultError.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("the Lagrange norm identity needs Im lam != 0")
    value = (_lagrange(u0) - _lagrange(uc)) / lam.imag
    if not math.isfinite(value):
        raise NonRealResultError(f"Lagrange norm came out non-finite: {value}")
    return NormValue(float(c) if c is not None else math.nan,
                     value, "lagrange")


def norm_quadrature(problem: Problem, sol: SampledSolution, c) -> NormValue:
    """||u||_c^2 from U and w alone, never the Lagrange bracket: the
    kernel Gram's w-weighted form (``propagation._gram``) of u on (0, c)."""
    c = float(c)
    g = _gram(sol.fm, c, sol.coeff[:, None]) if c > 0 else np.zeros((1, 1))
    return NormValue(c, float(g[0, 0].real), "quadrature")


def solution_norm_sq(fm: FundamentalMatrix, c, column, method="lagrange") -> float:
    """Convenience: ||phi||_c^2 (column 0) or ||psi||_c^2 (column 1)."""
    sol = fm.column(column)
    if method == "lagrange":
        return norm_lagrange(sol.at(0.0), sol.at(float(c)), fm.lam, c).value
    return norm_quadrature(fm.problem, sol, c).value


def null_norm_tolerance(problem: Problem, c) -> float:
    """Scale-aware cutoff below which a truncated norm counts as zero."""
    return 1e-10 * (1.0 + problem.w_mass(c))


# --------------------------------------------------------------------------
# Weyl sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylDisk:
    """D(c, lam): closed disk of admissible m at truncation c."""

    c: float
    lam: complex
    center: complex
    radius: float
    entries: tuple

    branch = "disk"

    def contains(self, m, tol=0.0) -> bool:
        return abs(m - self.center) <= self.radius + tol

    def boundary_point(self, theta) -> complex:
        return self.center + self.radius * cmath.exp(1j * theta)


@dataclass(frozen=True)
class WeylHalfPlane:
    """H(c, lam): half plane bounded by the horizontal line
    Im m = level, on the side of the lam half-plane."""

    c: float
    lam: complex
    level: float
    orientation: int  # sign of Im lam
    rho: complex      # A conj(D) - B conj(C); equals 1 for true lines
    entries: tuple

    branch = "halfplane"

    def contains(self, m, tol=0.0) -> bool:
        if self.orientation > 0:
            return complex(m).imag >= self.level - tol
        return complex(m).imag <= self.level + tol


def det_noise_ratio(entries) -> float:
    """Noise-to-signal ratio of det U computed from the entries, a
    diagnostic.

    The propagated entries carry a relative error of order the ODE
    tolerance, so det U = A*D - B*C is uncertain by roughly
    RTOL * (|A*D| + |B*C|).  det U = tau decays exponentially on many
    problems while the entries grow, so beyond some c the subtraction is
    pure noise; values of this ratio well below 1 mean the entry
    determinant is trustworthy.  ``weyl_set`` takes |det U| from tau and
    does not need it; ``radius_identity_residual`` does.
    """
    A, B, C, D = entries
    det_u = A * D - B * C
    scale = abs(A * D) + abs(B * C)
    if det_u == 0:
        return math.inf
    return RTOL * scale / abs(det_u)


def _disk_denominator(C, D, c) -> complex:
    """C conj(D) - conj(C) D = -2i Im(conj(C) D), the Weyl disk's
    denominator and, since U(0) is real, 2i Im lam ||psi||_c^2 by the
    Lagrange identity.

    Raises DegenerateUError when it is lost in the rounding noise of its
    two products, RTOL 2|C||D| / |C conj(D) - conj(C) D| > 1e-2: c is
    then past the range where double precision resolves the disk."""
    denom = complex(0.0, -2.0 * _lagrange((C, D)))
    if abs(denom) <= 100.0 * RTOL * 2.0 * abs(C) * abs(D):
        raise DegenerateUError(
            f"C conj(D) - conj(C) D = {denom:.3e} at c={c} is within the "
            "rounding noise of its products; c is past the "
            "float-representable range of the Weyl disk")
    return denom


def weyl_set(fm: FundamentalMatrix, c, norm_psi_sq, *, tol_null=None, tau=None):
    """Disk or half plane at the continuity point c.

    The branch is decided by the psi norm against the scale-aware zero
    cutoff; the disk data come from the Moebius-image circle equation:
    center (B conj(C) - A conj(D)) / (C conj(D) - conj(C) D), radius
    |tau| / |C conj(D) - conj(C) D|.  ``tau`` is tau(c, lam) = det U(c),
    computed here when not given; unlike the entry determinant AD - BC
    it does not cancel to noise where det U decays while U grows.

    Raises DegenerateUError when lambda lies in Lambda (U has rank 1 and
    tau = 0), and on the disk branch when C conj(D) - conj(C) D is lost
    in the rounding noise of its products.
    """
    lam = fm.lam
    if lam.imag == 0.0:
        raise ValueError("Weyl sets need Im lam != 0")
    if fm.in_lambda_set:
        raise DegenerateUError(
            f"lambda={lam} lies in Lambda: U(., lambda) is singular and "
            "has no Weyl set")
    c = float(c)
    A, B, C, D = entries = fm.entries(c)
    if tol_null is None:
        tol_null = null_norm_tolerance(fm.problem, c)

    if norm_psi_sq <= tol_null:
        level = -_lagrange((A, B))
        rho = A * np.conj(D) - B * np.conj(C)
        return WeylHalfPlane(c, lam, level, 1 if lam.imag > 0 else -1,
                             complex(rho), entries)
    denom = _disk_denominator(C, D, c)
    if tau is None:
        tau = tau_profile(fm.problem, lam, [c])[0].value
    center = (B * np.conj(C) - A * np.conj(D)) / denom
    return WeylDisk(c, lam, complex(center), float(abs(tau) / abs(denom)), entries)


def radius_identity_residual(problem: Problem, lam, c, fm=None) -> float:
    """Relative gap between the geometric disk radius
    |AD - BC| / |C conj(D) - conj(C) D|, from the entry determinant, and
    |tau| / (2 |Im lam| ||psi||_c^2), with the psi norm computed by
    quadrature, so that the two sides stay independent.  Raises
    DegenerateUError where ``det_noise_ratio`` exceeds 1e-2."""
    lam = complex(lam)
    c = float(c)
    if fm is None:
        fm = fundamental_matrix(problem, lam, c)
    n_psi = norm_quadrature(problem, fm.column(1), c).value
    if n_psi <= null_norm_tolerance(problem, c):
        raise DegenerateHalfPlaneError(
            f"psi norm {n_psi:.3e} is numerically zero at c={c}; "
            "the Weyl set is a half plane and has no radius")
    A, B, C, D = entries = fm.entries(c)
    if det_noise_ratio(entries) > 1e-2:
        raise DegenerateUError(
            f"det U(c={c}) = {A * D - B * C:.3e} is within the noise floor "
            "of the entry products; the geometric radius is not resolved")
    radius = abs(A * D - B * C) / abs(_disk_denominator(C, D, c))
    formula = abs(tau(problem, lam, c).value) / (2.0 * abs(lam.imag) * n_psi)
    return abs(radius - formula) / radius


# --------------------------------------------------------------------------
# the m coefficient, two routes
# --------------------------------------------------------------------------

def m_from_boundary(fm: FundamentalMatrix, c, beta) -> complex:
    """m = -(A z + B)/(C z + D) with z = cot(beta); beta = 0 is the
    z = infinity limit m = -A/C.  Returns M_INFINITY when the Moebius
    map sends z to the point at infinity."""
    A, B, C, D = fm.entries(float(c))
    s = math.sin(beta)
    if s == 0.0:
        if C == 0:
            return M_INFINITY
        return -A / C
    z = math.cos(beta) / s
    denom = C * z + D
    if denom == 0:
        return M_INFINITY
    return -(A * z + B) / denom


def m_alt(problem: Problem, lam, c, beta) -> complex:
    """m from the backward solution eta with eta(c) = (-sin b, cos b):

        m = (eta2(0) cos a - eta1(0) sin a)
            / (eta2(0) sin a + eta1(0) cos a).

    Defined whenever B- is invertible at every atom in (0, c); in
    particular it still produces m when B+ is singular somewhere and
    the forward route is unavailable.
    """
    eta0 = eta_solution(problem, lam, c, beta)
    a = problem.alpha
    ca, sa = math.cos(a), math.sin(a)
    denom = eta0[1] * sa + eta0[0] * ca
    if denom == 0:
        return M_INFINITY
    return (eta0[1] * ca - eta0[0] * sa) / denom


# --------------------------------------------------------------------------
# conjugate solutions
# --------------------------------------------------------------------------

def conjugate_fundamental(fm: FundamentalMatrix, taus) -> FundamentalMatrix:
    """U(., conj lam) from U(., lam) without a second propagation.

    For real U(0) the Lagrange identity U(x, conj lam)* J U(x, lam) = J
    gives U(x, conj lam) = tau(x, conj lam) conj(U(x, lam)).  ``taus`` is
    tau_profile(problem, conj lam, xs) over sorted points of [0, fm.c]:
    each continuity point becomes a stored sample, and each atom crossed
    by fm (where the profile holds the left limit of tau) becomes a
    crossing with its one-sided and balanced values.  The result has no
    dense interpolant: it evaluates at 0 and at these points only.
    """
    problem = fm.problem
    lam_c = complex(fm.lam).conjugate()
    report = bad_points(problem, lam_c)
    jumps_c = atom_jumps(problem, lam_c)
    crossed = {cr.position: cr for cr in fm.crossings}
    xs, values, crossings = [0.0], [np.conj(fm.at(0.0))], []
    for t in taus:
        cr = crossed.get(t.x)
        if cr is None:
            if t.x > 0.0:
                xs.append(t.x)
                values.append(t.value * np.conj(fm.at(t.x)))
            continue
        jp_c = jumps_c[t.x]
        if jp_c.plus_singular:
            raise BadPointError(report)
        left = t.value * np.conj(cr.left)
        right = t.value * jp_c.det_minus / jp_c.det_plus * np.conj(cr.right)
        crossings.append(AtomCrossing(t.x, jp_c, left, right,
                                      0.5 * (left + right)))
    return FundamentalMatrix(problem, lam_c, fm.c, xs, values, crossings, (),
                             report.in_lambda_set)


def conjugate_solution(problem: Problem, sol: SampledSolution,
                       xs=None) -> SampledSolution:
    """Transform a solution of the lam equation into one of the conj(lam)
    equation via v = tau(., conj lam) conj(u).

    Needs both lam and conj(lam) outside Lambda (the tau factors divide
    by det B+ at conj lam, which equals conj(det B-) at lam).  The result
    is the solution with coefficients conj(sol.coeff) of
    ``conjugate_fundamental``, built from one tau profile over the
    points ``xs`` (default: the samples of sol) and the crossed atoms: it
    evaluates at 0, at those points and, one-sided or balanced, at the
    atoms.
    """
    fm = sol.fm
    lam_c = np.conj(fm.lam)
    report = bad_points(problem, fm.lam)
    report_c = bad_points(problem, lam_c)
    if report.in_lambda_set or report_c.in_lambda_set:
        raise BadPointError(report if report.in_lambda_set else report_c)
    if xs is None:
        xs = fm.xs
    points = sorted({float(x) for x in xs} | {cr.position for cr in fm.crossings})
    conj_fm = conjugate_fundamental(fm, tau_profile(problem, lam_c, points))
    return SampledSolution(conj_fm, np.conj(sol.coeff))
