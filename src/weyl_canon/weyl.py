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
r = |tau| / (2 |Im lam| ||psi||_c^2).
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
    AtomCrossing,
    FundamentalMatrix,
    J,
    SampledSolution,
    bad_points,
    eta_solution,
    jump_matrices,
)
from .quadrature import integrate

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
    "ConjugateSolution",
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
    """(int Im q12_ac, int Im w12_ac) over (x_from, x_to), split at the
    density breakpoints; both are integrated at once, as the real and
    imaginary part of one integrand."""
    fq = problem.q._f12
    fw = problem.w._f12

    def integrand(t):
        return complex(fq(t).imag, fw(t).imag)

    cuts = [p for p in problem.discontinuities if x_from < p < x_to]
    bounds = [x_from] + cuts + [x_to]
    total = sum(integrate(integrand, lo, hi,
                          epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                for lo, hi in zip(bounds, bounds[1:]))
    return total.real, total.imag


def _tau_factor(iq, iw, lam, x):
    """exp(2i (iq - lam iw)); an overflow is the blow-up of det U at x."""
    try:
        return cmath.exp(2j * (iq - lam * iw))
    except OverflowError:
        raise IntegrationFailureError(
            f"tau(x={x}, lam={lam}) overflows", location=x) from None


def tau(problem: Problem, lam, x) -> TauSample:
    """tau(x, lam); x must satisfy 0 <= x < b.

    B+ singular at an atom in (0, x) raises BadPointError.  A singular
    B- makes the product exactly zero (lam then lies in Lambda and the
    Weyl layers will refuse the result; the value itself is still the
    determinant of the collapsed fundamental matrix).
    """
    x = float(x)
    if not (0.0 <= x < problem.b):
        raise ValueError(f"x={x} outside [0, {problem.b})")
    return tau_profile(problem, lam, [x])[0]


def tau_profile(problem: Problem, lam, xs):
    """tau at several increasing x, integrating each gap only once."""
    lam = complex(lam)
    xs = [float(x) for x in xs]
    if xs != sorted(xs):
        raise ValueError("xs must be sorted increasingly")
    samples = []
    iq = iw = 0.0
    prev = 0.0
    atoms = problem.atom_positions
    k = 0
    product = complex(1.0)
    for x in xs:
        dq_, dw_ = _imag12_integrals(problem, prev, x)
        iq += dq_
        iw += dw_
        while k < len(atoms) and atoms[k] < x:
            position = atoms[k]
            jp = jump_matrices(problem.delta_q(position),
                               problem.delta_w(position), lam, position)
            if jp.plus_singular:
                raise BadPointError(bad_points(problem, lam))
            product *= jp.det_minus / jp.det_plus
            k += 1
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


def norm_lagrange(u0, uc, lam, c=None) -> NormValue:
    """||u||_c^2 from the boundary values alone:

        ||u||_c^2 = ((u* J u)(c) - (u* J u)(0)) / (2i Im lam),

    valid for any solution of the lam-equation at continuity points.
    The result must be real; a significant imaginary part signals a
    propagation defect and raises NonRealResultError.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("the Lagrange norm identity needs Im lam != 0")
    u0 = np.asarray(u0, dtype=complex)
    uc = np.asarray(uc, dtype=complex)
    sc = complex(np.vdot(uc, J @ uc))
    s0 = complex(np.vdot(u0, J @ u0))
    value = (sc - s0) / (2j * lam.imag)
    bad = not (math.isfinite(value.real) and math.isfinite(value.imag))
    if bad or abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NonRealResultError(
            f"Lagrange norm came out non-real: {value}")
    return NormValue(float(c) if c is not None else math.nan,
                     value.real, "lagrange")


def norm_quadrature(problem: Problem, sol: SampledSolution, c) -> NormValue:
    """||u||_c^2 by quadrature of u* w u over (0, c): the AC density part
    integrated piecewise plus u#* Delta_w u# at each atom."""
    c = float(c)

    def integrand(x):
        u = sol.at(x)
        m11, m12, m22 = problem.w.density_entries(x)
        a, b = u[0], u[1]
        v = (m11 * (a.real * a.real + a.imag * a.imag)
             + m22 * (b.real * b.real + b.imag * b.imag)
             + 2.0 * (m12 * a.conjugate() * b).real)
        return v

    bounds = [0.0] + [p for p in problem.discontinuities if 0.0 < p < c] + [c]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        total += integrate(integrand, lo, hi,
                           epsabs=1e-13, epsrel=1e-10, limit=200)[0]
    for position, balanced in sol.balanced_atom_values(upto=c):
        dw = problem.delta_w(position)
        if np.any(dw):
            total += float(np.real(np.vdot(balanced, dw @ balanced)))
    return NormValue(c, total, "quadrature")


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
    """Noise-to-signal ratio of det U computed from the entries.

    The propagated entries carry a relative error of order the ODE
    tolerance, so det U = A*D - B*C is uncertain by roughly
    RTOL * (|A*D| + |B*C|).  det U = tau decays exponentially on many
    problems while the entries grow, so beyond some c the subtraction is
    pure noise; values of this ratio well below 1 mean the determinant
    (and with it the disk radius) is trustworthy.
    """
    from .propagation import RTOL

    A, B, C, D = entries
    det_u = A * D - B * C
    scale = abs(A * D) + abs(B * C)
    if det_u == 0:
        return math.inf
    return RTOL * scale / abs(det_u)


def weyl_set(fm: FundamentalMatrix, c, norm_psi_sq, *, tol_null=None):
    """Disk or half plane at the continuity point c.

    The branch is decided by the psi norm against the scale-aware zero
    cutoff; the disk data come from the Moebius-image circle equation:
    center (B conj(C) - A conj(D)) / (C conj(D) - conj(C) D), radius
    |AD - BC| / |C conj(D) - conj(C) D|.

    Raises DegenerateUError when det U is lost in rounding noise: exact
    degeneracy (lambda with a bad point, rank-1 U) as well as truncation
    points beyond the double-precision envelope of det U = tau.
    """
    lam = fm.lam
    if lam.imag == 0.0:
        raise ValueError("Weyl sets need Im lam != 0")
    c = float(c)
    A, B, C, D = fm.entries(c)
    det_u = A * D - B * C
    if det_noise_ratio((A, B, C, D)) > 1e-2:
        raise DegenerateUError(
            f"det U(c={c}) = {det_u:.3e} is within the numerical noise "
            "floor of the entry products; U is singular (lambda in Lambda "
            "/ propagation failure) or c is past the float-representable "
            "range of det U")
    if tol_null is None:
        tol_null = null_norm_tolerance(fm.problem, c)

    entries = (A, B, C, D)
    if norm_psi_sq <= tol_null:
        sigma = A * np.conj(B) - np.conj(A) * B  # purely imaginary
        level = float((A * np.conj(B)).imag)     # sigma / (2i)
        rho = A * np.conj(D) - B * np.conj(C)
        return WeylHalfPlane(c, lam, level, 1 if lam.imag > 0 else -1,
                             complex(rho), entries)
    denom = C * np.conj(D) - np.conj(C) * D
    center = (B * np.conj(C) - A * np.conj(D)) / denom
    radius = abs(det_u) / abs(denom)
    return WeylDisk(c, lam, complex(center), float(radius), entries)


def radius_identity_residual(problem: Problem, lam, c, fm=None) -> float:
    """Relative gap between the geometric disk radius and
    |tau| / (2 |Im lam| ||psi||_c^2), with the psi norm computed by
    quadrature so that the two sides stay independent."""
    from .propagation import fundamental_matrix

    lam = complex(lam)
    c = float(c)
    if fm is None:
        fm = fundamental_matrix(problem, lam, c)
    n_psi = norm_quadrature(problem, fm.column(1), c).value
    if n_psi <= null_norm_tolerance(problem, c):
        raise DegenerateHalfPlaneError(
            f"psi norm {n_psi:.3e} is numerically zero at c={c}; "
            "the Weyl set is a half plane and has no radius")
    ws = weyl_set(fm, c, n_psi)
    t = tau(problem, lam, c).value
    formula = abs(t) / (2.0 * abs(lam.imag) * n_psi)
    return abs(ws.radius - formula) / ws.radius


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

@dataclass(frozen=True)
class ConjugateSolution:
    """Samples of v with v-(x) = tau(x, conj lam) conj(u-(x)): a balanced
    solution of the conj(lam) equation with v(0) = conj(u(0))."""

    lam: complex              # the conjugated spectral parameter
    xs: np.ndarray            # continuity sample points
    values: np.ndarray        # balanced v at xs
    atom_values: tuple        # (position, v_minus, v_plus, v_balanced)

    def at(self, x):
        for position, _, _, balanced in self.atom_values:
            if position == x:
                return balanced
        k = int(np.argmin(np.abs(self.xs - x)))
        if abs(self.xs[k] - x) > 1e-12 * max(1.0, abs(x)):
            raise ValueError(f"x={x} is not a stored sample")
        return self.values[k]


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
    crossed = {cr.position: cr for cr in fm.crossings}
    xs, values, crossings = [0.0], [np.conj(fm.at(0.0))], []
    for t in taus:
        cr = crossed.get(t.x)
        if cr is None:
            if t.x > 0.0:
                xs.append(t.x)
                values.append(t.value * np.conj(fm.at(t.x)))
            continue
        jp_c = jump_matrices(problem.delta_q(t.x), problem.delta_w(t.x),
                             lam_c, t.x)
        if jp_c.plus_singular:
            raise BadPointError(report)
        left = t.value * np.conj(cr.left)
        right = t.value * jp_c.det_minus / jp_c.det_plus * np.conj(cr.right)
        crossings.append(AtomCrossing(t.x, jp_c, left, right,
                                      0.5 * (left + right)))
    return FundamentalMatrix(problem, lam_c, fm.c, xs, values, crossings, (),
                             lambda_report=report if report.in_lambda_set
                             else None)


def conjugate_solution(problem: Problem, sol: SampledSolution,
                       xs=None) -> ConjugateSolution:
    """Transform a solution of the lam equation into one of the conj(lam)
    equation via v = tau(., conj lam) conj(u).

    Needs both lam and conj(lam) outside Lambda (the tau factors divide
    by det B+ at conj lam, which equals conj(det B-) at lam).  One tau
    profile over the sample points and the crossed atoms serves all
    values.
    """
    fm = sol.fm
    lam_c = np.conj(fm.lam)
    report = bad_points(problem, fm.lam)
    report_c = bad_points(problem, lam_c)
    if report.in_lambda_set or report_c.in_lambda_set:
        raise BadPointError(report if report.in_lambda_set else report_c)
    if xs is None:
        xs = fm.xs
    xs = np.asarray(xs, dtype=float)
    points = sorted(set(xs.tolist()) | {cr.position for cr in fm.crossings})
    conj_fm = conjugate_fundamental(fm, tau_profile(problem, lam_c, points))
    coeff = np.conj(sol.coeff)
    values = np.array([conj_fm.at(x) @ coeff for x in xs])
    atom_values = tuple((cr.position, cr.left @ coeff, cr.right @ coeff,
                         cr.balanced @ coeff) for cr in conj_fm.crossings)
    return ConjugateSolution(lam_c, xs, values, atom_values)
