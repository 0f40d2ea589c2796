"""c -> b limits: disk traces, limit detection, definiteness and
deficiency indices.

Finite truncation can never certify a limit at b, so every verdict here
is a trend read off a c-grid with explicit thresholds, and Inconclusive
is an honest outcome.  The deficiency indices come from the norm
dichotomy: with d = dim of the zero-norm solution space,

    both psi norms finite      -> n+ = n- = 2 - d
    both infinite              -> n+ = n- = 1 - d
    exactly one infinite       -> the L^2-rich half plane gets 2 - d,
                                  the other 1 - d
    psi norm identically zero  -> half planes; indices from the phi norm.

Asymmetric indices are only reported when the |tau| trends corroborate
them (one tends to 0 and the conjugate one to infinity).

Every trace propagates in the upper half plane only.  For real U(0)
the Lagrange identity gives U(c, conj lam) = tau(c, conj lam)
conj(U(c, lam)), so a trace below the real axis is read off the
propagation at conj(lam) and a tau profile, and ``deficiency_indices``
builds both traces from one propagation, one more reading of the atoms
and one tau profile call.  Each trace is one array pass over its grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BadPointError, InconclusiveError, NonRealResultError
from .measures import Problem
from .propagation import bad_points, fundamental_matrix, kernel_gram
from .weyl import (
    WeylDisk,
    WeylHalfPlane,
    _lagrange,
    _tau_profiles,
    _weyl_sets,
    null_norm_tolerance,
)

__all__ = [
    "ClassifyConfig",
    "default_c_grid",
    "TracePoint",
    "DiskTrace",
    "trace_disks",
    "Verdict",
    "detect_limit",
    "NormClass",
    "classify_norm_growth",
    "classify_tau_trend",
    "DefinitenessResult",
    "definiteness",
    "all_solutions_l2",
    "ClassificationReport",
    "deficiency_indices",
]


@dataclass(frozen=True)
class ClassifyConfig:
    """Exposed thresholds for the trend heuristics (defaults pinned)."""

    lp_radius_drop: float = 1e-6   # limit point: r_last < drop * r_first
    lp_ratio: float = 0.9          # ... and the last 3 radius ratios <= this
    lc_rel_change: float = 1e-4    # limit circle: radius change over last 3
    lc_min_radius: float = 1e-6
    norm_conv_ratio: float = 0.97  # increment ratios below -> converging
    norm_div_ratio: float = 1.03   # increment ratios above -> diverging
    tau_decades: float = 3.0       # |tau| must move 10^3 to count as a trend


DEFAULT_CONFIG = ClassifyConfig()


def default_c_grid(problem: Problem, c0=None, rho=None, count=None,
                   c_max=None) -> np.ndarray:
    """Geometric truncation grid of ``count`` points (default 24).

    Finite b: c_k = b - (b - c0) rho^{-k} with rho defaulting to 1.5,
    approaching b from below.  Infinite b: points spanning [c0, c_max]
    geometrically (c_max defaults to 30; larger caps overflow double
    precision on exponentially divergent examples).  Passing rho
    explicitly instead yields c_k = c0 rho^k capped at c_max.  Grid
    points colliding with an atom are nudged by 1e-9 of the local gap,
    so every c is a continuity point.  Raises ValueError unless
    0 < c0 < b, rho (when given) is finite and above 1, and c_max (when
    given, or always for an infinite b) is above c0 and keeps a grid
    point; for an infinite b it must also be finite.  For a finite b,
    count and rho must keep the grid strictly increasing below b in
    double precision, or ValueError names them.
    """
    count = 24 if count is None else int(count)
    if count < 1:
        raise ValueError(f"the c grid needs at least one point, got count={count}")
    c0 = min(1.0, problem.b / 10.0) if c0 is None else float(c0)
    if not 0.0 < c0 < problem.b:
        raise ValueError(f"c0={c0} must lie in (0, {problem.b})")
    if rho is not None and not 1.0 < float(rho) < math.inf:
        raise ValueError(f"rho={rho} must be finite and greater than 1")
    if math.isfinite(problem.b):
        rho = 1.5 if rho is None else float(rho)
        ks = np.arange(count)
        grid = problem.b - (problem.b - c0) * rho ** (-ks)
        if c_max is not None:
            grid = grid[grid <= float(c_max)]
            if not (c0 < float(c_max) and grid.size):
                raise ValueError(f"c_max={c_max} must be greater than c0={c0}")
        if not (grid[-1] < problem.b and np.all(np.diff(grid) > 0)):
            raise ValueError(
                f"count={count} and rho={rho} do not keep the grid strictly "
                f"increasing below b={problem.b} in double precision; lower "
                "count or rho")
    else:
        c_max = 30.0 if c_max is None else float(c_max)
        if not c0 < c_max < math.inf:
            raise ValueError(f"c_max={c_max} must be finite and greater than c0={c0}")
        if rho is None:
            grid = np.geomspace(c0, c_max, count)
        else:
            rho = float(rho)
            values = []
            c = c0
            while c < c_max * (1.0 - 1e-12) and len(values) < count:
                values.append(c)
                c *= rho
            if len(values) < count:
                values.append(c_max)
            grid = np.array(values)

    return perturb_off_atoms(grid, problem)


def _truncation_grid(problem, c_grid):
    """The default grid when c_grid is None, else the caller's grid nudged
    off atoms; either must be non-empty, finite and strictly increasing."""
    grid = (default_c_grid(problem) if c_grid is None
            else perturb_off_atoms(c_grid, problem))
    if grid.size < 1 or not np.isfinite(grid).all() or np.any(np.diff(grid) <= 0):
        raise ValueError("c grid must be non-empty, finite and strictly increasing")
    return grid


def perturb_off_atoms(grid, problem: Problem) -> np.ndarray:
    """Nudge grid points that collide with an atom by +1e-9 of the local
    gap, so every truncation point is a continuity point."""
    grid = np.array(grid, dtype=float)
    atoms = problem.atom_positions
    if atoms and grid.size:
        spacing = np.diff(grid, prepend=grid[0] * 0.5) if grid.size > 1 \
            else np.array([max(grid[0] * 0.5, 1e-3)])
        for i, c in enumerate(grid):
            for a in atoms:
                if abs(c - a) <= 1e-12 * max(1.0, abs(a)):
                    grid[i] = c + 1e-9 * max(spacing[i], 1e-6)
    return grid


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TracePoint:
    c: float
    wset: object            # WeylDisk or WeylHalfPlane
    psi_norm_sq: float
    phi_norm_sq: float
    tau: complex


@dataclass(frozen=True)
class DiskTrace:
    lam: complex
    points: tuple
    #: grid point at which the disk's denominator C conj(D) - conj(C) D
    #: fell into the rounding noise of its products and the trace
    #: stopped; None when the whole grid was usable.
    truncated_at: float | None = None

    @property
    def cs(self):
        return np.array([p.c for p in self.points])

    @property
    def radii(self):
        return np.array([p.wset.radius if isinstance(p.wset, WeylDisk)
                         else math.nan for p in self.points])

    @property
    def levels(self):
        return np.array([p.wset.level if isinstance(p.wset, WeylHalfPlane)
                         else math.nan for p in self.points])

    @property
    def tau_abs(self):
        return np.array([abs(p.tau) for p in self.points])

    def disk_points(self):
        return [p for p in self.points if isinstance(p.wset, WeylDisk)]

    def halfplane_points(self):
        return [p for p in self.points if isinstance(p.wset, WeylHalfPlane)]


def trace_disks(problem: Problem, lam, c_grid=None) -> DiskTrace:
    """Weyl set + norms + tau at every grid point.  Requires Im lam != 0
    and lam outside Lambda.  One propagation sweep at lam, or at
    conj(lam) when Im lam < 0: the entries there are
    tau(c, lam) conj(U(c, conj lam)), with tau from the trace's own
    profile."""
    return _traces(problem, (complex(lam),), _truncation_grid(problem, c_grid))[0][0]


def _traces(problem, lams, c_grid):
    """(disk trace, zero-norm cutoff at its last point) over ``c_grid``
    at each of ``lams``, all equal to lam_up or to its conjugate for one
    lam_up with Im lam_up > 0, from a single propagation at lam_up.
    Checks the lams against Lambda in order, lam_up by its propagation's
    report; conj(lam) lies in Lambda exactly when lam does, since
    det B+-(conj lam) = conj det B-+(lam).  One ``_tau_profiles`` call on
    the reports gives every trace its tau, and each disk's radius comes
    from it, and one ``null_norm_tolerance`` call the cutoffs.  U at all
    grid points (stored samples; tau conj(U) below the real axis), both
    Lagrange norms and the Weyl sets (``weyl._weyl_sets``) are arrays
    over the grid.  In grid order, a non-finite norm raises
    NonRealResultError, and a disk whose denominator, also the psi norm's
    Lagrange numerator, is in the rounding noise of its products stops
    the trace; that point does not depend on the side, since the noise
    ratio is invariant under U -> t conj(U)."""
    lam_up = complex(lams[0].real, abs(lams[0].imag))
    reports = []
    for lam in lams:
        if lam.imag == 0.0:
            raise ValueError("trace_disks needs Im lam != 0")
        if lam == lam_up:
            fm_up = fundamental_matrix(problem, lam_up, float(c_grid[-1]), grid=c_grid)
        reports.append(fm_up.report if lam == lam_up else bad_points(problem, lam))
        if reports[-1].in_lambda_set:
            raise BadPointError(reports[-1])
    if lam_up not in lams:
        fm_up = fundamental_matrix(problem, lam_up, float(c_grid[-1]), grid=c_grid)
    tols = null_norm_tolerance(problem, c_grid)
    traces = []
    for lam, taus in zip(lams, _tau_profiles(problem, reports, c_grid)):
        u, u0 = fm_up._samples_at(c_grid), fm_up.at(0.0)
        if lam != lam_up:
            u, u0 = np.array([t.value for t in taus])[:, None, None] * np.conj(u), np.conj(u0)
        with np.errstate(over="ignore", invalid="ignore"):
            # rows past the trace's stop are never used; a non-finite
            # row before it raises below.  Columns: phi, psi.
            norms = (_lagrange(u0) - _lagrange((u[:, 0], u[:, 1]))) / lam.imag
        k = int(np.argmax(np.append(~np.isfinite(norms).all(axis=1), True)))
        entries = (u[:k, 0, 0], u[:k, 1, 0], u[:k, 0, 1], u[:k, 1, 1])
        sets = (_weyl_sets(lam, c_grid[:k], entries, norms[:k, 1], tols[:k],
                           [t.value for t in taus[:k]]) if k else [])
        if len(sets) == k < len(c_grid):   # no stop before the bad norm
            raise NonRealResultError(f"Lagrange norms (phi, psi) came out "
                                     f"non-finite at c={c_grid[k]}: {norms[k]}")
        points = tuple(TracePoint(ws.c, ws, psi, phi, t.value)
                       for ws, (phi, psi), t in zip(sets, norms.tolist(), taus))
        truncated_at = float(c_grid[len(sets)]) if len(sets) < len(c_grid) else None
        traces.append((DiskTrace(lam, points, truncated_at), tols[len(sets) - 1]))
    return traces


# --------------------------------------------------------------------------
# trend classifiers
# --------------------------------------------------------------------------

class NormClass(Enum):
    ZERO = "zero"
    CONVERGING = "converging"
    DIVERGING = "diverging"
    AMBIGUOUS = "ambiguous"


def classify_norm_growth(cs, values, tol_null, config=DEFAULT_CONFIG):
    """Classify a monotone truncated-norm sequence.

    On a geometric c-grid the increments of a convergent norm shrink
    geometrically while those of any divergent one grow or stagnate;
    the mean increment ratio over the tail separates the two.  Returns
    (NormClass, diagnostics).
    """
    cs = np.asarray(cs, dtype=float)
    values = np.asarray(values, dtype=float)
    info = {"last": float(values[-1])}
    if values[-1] <= tol_null:
        return NormClass.ZERO, info

    diffs = np.diff(values)
    diffs = np.clip(diffs, 0.0, None)
    info["lastIncrement"] = float(diffs[-1]) if diffs.size else 0.0

    # growth exponent of log ||.||^2 versus c over the tail: the
    # least-squares slope sum (x - mean x)(y - mean y) / sum (x - mean x)^2
    tail = slice(max(0, len(cs) // 2), None)
    logs = np.log(np.maximum(values[tail], 1e-300))
    if cs[tail].size >= 2:
        x = cs[tail] - cs[tail].mean()
        info["growthExponent"] = float(x @ (logs - logs.mean()) / (x @ x))

    if diffs.size < 3:
        return NormClass.AMBIGUOUS, info
    if diffs[-1] <= 1e-12 * values[-1]:
        return NormClass.CONVERGING, info

    recent = diffs[-5:]
    if np.any(recent <= 0.0):
        return (NormClass.CONVERGING, info) if diffs[-1] <= 1e-10 * values[-1] \
            else (NormClass.AMBIGUOUS, info)
    ratios = recent[1:] / recent[:-1]
    mean_ratio = float(np.exp(np.mean(np.log(ratios))))
    info["incrementRatio"] = mean_ratio
    if values[-1] > 1e12 * max(values[0], tol_null) and mean_ratio > 1.0:
        return NormClass.DIVERGING, info
    if mean_ratio <= config.norm_conv_ratio:
        tail_estimate = diffs[-1] * mean_ratio / (1.0 - mean_ratio)
        info["limitEstimate"] = float(values[-1] + tail_estimate)
        return NormClass.CONVERGING, info
    if mean_ratio >= config.norm_div_ratio:
        return NormClass.DIVERGING, info
    return NormClass.AMBIGUOUS, info


def classify_tau_trend(cs, tau_abs, config=DEFAULT_CONFIG) -> str:
    """Trend of |tau(c)|: toZero, toInfinity, boundedAway, oscillating."""
    values = np.maximum(np.asarray(tau_abs, dtype=float), 1e-300)
    logs = np.log10(values)
    swing = logs[-1] - logs[0]
    spread = logs.max() - logs.min()
    if swing <= -config.tau_decades and logs[-1] <= logs.min() + 0.5:
        return "toZero"
    if swing >= config.tau_decades and logs[-1] >= logs.max() - 0.5:
        return "toInfinity"
    if spread <= 1.0:
        return "boundedAway"
    return "oscillating"


# --------------------------------------------------------------------------
# limit detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    kind: str                      # LimitPoint | LimitCircle | HalfPlaneLimit
    #                              # | EmptyLimit | Inconclusive
    m0: complex | None = None
    disk: WeylDisk | None = None
    level: float | None = None
    level_diverges: bool = False
    detail: str = ""

    def __str__(self):
        if self.kind == "LimitPoint":
            return f"LimitPoint(m0~{self.m0:.6g})"
        if self.kind == "LimitCircle":
            return (f"LimitCircle(center~{self.disk.center:.6g}, "
                    f"r~{self.disk.radius:.6g})")
        if self.kind == "HalfPlaneLimit":
            return f"HalfPlaneLimit(level~{self.level:.6g})"
        return self.kind + (f" ({self.detail})" if self.detail else "")


def detect_limit(trace: DiskTrace, config=DEFAULT_CONFIG) -> Verdict:
    """Read the c -> b trend off a trace with at least 8 grid points.

    Disks: radii dropping by lp_radius_drop with sustained ratios below
    lp_ratio is a limit point; radii stabilised to lc_rel_change above
    lc_min_radius is a limit circle.  Half planes: the boundary level
    either converges (half-plane limit) or runs away (empty limit).
    """
    if len(trace.points) < 8:
        raise ValueError("limit detection needs at least 8 grid points")
    disks = trace.disk_points()
    halfplanes = trace.halfplane_points()

    if disks and halfplanes:
        t_disk = min(p.c for p in disks)
        if any(p.c > t_disk for p in halfplanes):
            return Verdict("Inconclusive",
                           detail="half-plane branch reappeared after disks")

    if disks:
        radii = np.array([p.wset.radius for p in disks])
        if len(radii) < 4:
            return Verdict("Inconclusive", detail="too few disk points")
        ratios = radii[1:] / radii[:-1]
        last = disks[-1]
        if (radii[-1] < config.lp_radius_drop * radii[0]
                and np.all(ratios[-3:] <= config.lp_ratio)):
            return Verdict("LimitPoint", m0=last.wset.center, disk=last.wset)
        rel_change = np.max(np.abs(radii[-3:] - radii[-1])) / radii[-1]
        if rel_change < config.lc_rel_change and radii[-1] > config.lc_min_radius:
            return Verdict("LimitCircle", m0=last.wset.center, disk=last.wset)
        return Verdict("Inconclusive",
                       detail=f"radius trend unresolved (last ratio "
                              f"{ratios[-1]:.4f}, rel change {rel_change:.2e})")

    levels = np.array([p.wset.level for p in halfplanes])
    cs = np.array([p.c for p in halfplanes])
    phi = np.array([p.phi_norm_sq for p in halfplanes])
    lam_sign = 1.0 if trace.lam.imag > 0 else -1.0
    cls, info = classify_norm_growth(cs, lam_sign * levels,
                                     tol_null=-math.inf, config=config)
    if cls is NormClass.DIVERGING or phi[-1] > 1e12 * max(phi[0], 1e-300):
        return Verdict("EmptyLimit", level=float(levels[-1]),
                       level_diverges=True,
                       detail="boundary level runs away; no admissible m")
    if cls is NormClass.CONVERGING:
        if "limitEstimate" in info:
            level_est = float(info["limitEstimate"]) * lam_sign
        else:
            level_est = float(levels[-1])
        return Verdict("HalfPlaneLimit", level=level_est)
    return Verdict("Inconclusive", detail="half-plane level trend unresolved")


# --------------------------------------------------------------------------
# definiteness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DefinitenessResult:
    definite: bool
    dim_null_space: int
    null_vector: np.ndarray | None
    min_eigenvalue: float
    gram_trace: float
    c_max: float


def definiteness(problem: Problem, c_max=None) -> DefinitenessResult:
    """Smallest eigenvalue of the lambda = 0 Gram matrix on (0, c_max)
    against the 1e-10 * trace cutoff.  The verdict is 'definite up to
    c_max': a null direction appearing only beyond c_max is invisible.
    """
    if c_max is None:
        c_max = float(default_c_grid(problem)[-1])
    gram = kernel_gram(problem, c_max)
    tr = float(np.real(np.trace(gram.matrix)))
    min_eig = gram.min_eigenvalue
    definite = min_eig > 1e-10 * tr
    vector = None
    if not definite:
        vector = gram.null_vector.astype(complex)
        k = int(np.argmax(np.abs(vector)))
        phase = vector[k] / abs(vector[k])
        vector = vector / phase
        vector = vector / np.linalg.norm(vector)
    return DefinitenessResult(definite, 0 if definite else 1, vector,
                              min_eig, tr, float(c_max))


# --------------------------------------------------------------------------
# deficiency indices
# --------------------------------------------------------------------------

def _norm_classes(trace, tol, config):
    cs = trace.cs
    psi_cls, psi_info = classify_norm_growth(
        cs, [p.psi_norm_sq for p in trace.points], tol, config)
    phi_cls, phi_info = classify_norm_growth(
        cs, [p.phi_norm_sq for p in trace.points], tol, config)
    return (psi_cls, psi_info), (phi_cls, phi_info)


def all_solutions_l2(problem: Problem, lam, c_grid=None,
                     config=DEFAULT_CONFIG) -> bool:
    """True when every solution at lam lies in L^2(w), read from the
    convergence of both column norms over the grid.  Raises
    InconclusiveError when the trend cannot be resolved."""
    [(trace, tol)] = _traces(problem, (complex(lam),), _truncation_grid(problem, c_grid))
    (psi_cls, _), (phi_cls, _) = _norm_classes(trace, tol, config)
    finite = {NormClass.ZERO, NormClass.CONVERGING}
    if psi_cls is NormClass.AMBIGUOUS or phi_cls is NormClass.AMBIGUOUS:
        raise InconclusiveError(
            f"norm growth unresolved at lam={lam} (psi {psi_cls.value}, "
            f"phi {phi_cls.value})")
    return psi_cls in finite and phi_cls in finite


@dataclass
class ClassificationReport:
    lam: complex
    verdict: Verdict
    verdict_conjugate: Verdict
    definite: bool
    dim_null_space: int
    null_vector: np.ndarray | None
    n_plus: int | None
    n_minus: int | None
    tau_trend: str
    tau_trend_conjugate: str
    inconclusive: bool
    diagnostics: dict = field(default_factory=dict)

    SCHEMA = "weyl-canon/report/v1"

    def to_dict(self) -> dict:
        def cplx(z):
            return None if z is None else [float(np.real(z)), float(np.imag(z))]

        def verdict_dict(v):
            out = {"kind": v.kind}
            if v.m0 is not None:
                out["m0"] = cplx(v.m0)
            if v.disk is not None:
                out["center"] = cplx(v.disk.center)
                out["radius"] = float(v.disk.radius)
            if v.level is not None:
                out["imLevel"] = float(v.level)
                out["levelDiverges"] = bool(v.level_diverges)
            if v.detail:
                out["detail"] = v.detail
            return out

        return {
            "schema": self.SCHEMA,
            "lambda": cplx(self.lam),
            "verdict": verdict_dict(self.verdict),
            "verdictConjugate": verdict_dict(self.verdict_conjugate),
            "definite": bool(self.definite),
            "dimNullSpace": int(self.dim_null_space),
            "nullVector": None if self.null_vector is None
            else [cplx(self.null_vector[0]), cplx(self.null_vector[1])],
            "nPlus": self.n_plus,
            "nMinus": self.n_minus,
            "tauTrend": self.tau_trend,
            "tauTrendConjugate": self.tau_trend_conjugate,
            "inconclusive": bool(self.inconclusive),
            "diagnostics": self.diagnostics,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def deficiency_indices(problem: Problem, lam, c_grid=None,
                       config=DEFAULT_CONFIG) -> ClassificationReport:
    """Full classification at lam and conj(lam).

    Combines the norm dichotomy with the definiteness dimension, from
    the Gram matrix at the grid's last point, into (n+, n-); limit
    verdicts and |tau| trends ride along as diagnostics and as the
    cross-check that gates asymmetric indices.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("deficiency indices need Im lam != 0")
    lam_up = lam if lam.imag > 0 else lam.conjugate()

    c_grid = _truncation_grid(problem, c_grid)
    defres = definiteness(problem, c_max=float(c_grid[-1]))
    d = defres.dim_null_space

    (trace_up, tol_up), (trace_dn, tol_dn) = _traces(
        problem, (lam_up, lam_up.conjugate()), c_grid)
    (psi_up, psi_up_info), (phi_up, phi_up_info) = _norm_classes(trace_up, tol_up, config)
    (psi_dn, psi_dn_info), (phi_dn, phi_dn_info) = _norm_classes(trace_dn, tol_dn, config)

    inconclusive = False
    notes = []
    n_plus = n_minus = None

    zero_up = psi_up is NormClass.ZERO
    zero_dn = psi_dn is NormClass.ZERO
    if zero_up != zero_dn:
        inconclusive = True
        notes.append("psi norm vanished on one side only; theory forbids this")
    elif zero_up:
        if defres.definite:
            inconclusive = True
            notes.append("psi has zero norm although the Gram matrix looks "
                         "definite; the two checks disagree")
        if phi_up is NormClass.CONVERGING and phi_dn is NormClass.CONVERGING:
            n_plus = n_minus = 1
        elif phi_up is NormClass.DIVERGING and phi_dn is NormClass.DIVERGING:
            n_plus = n_minus = 0
        else:
            inconclusive = True
            notes.append("phi norm trend unresolved in the half-plane case")
    else:
        table = {
            (NormClass.CONVERGING, NormClass.CONVERGING): (2 - d, 2 - d),
            (NormClass.DIVERGING, NormClass.DIVERGING): (1 - d, 1 - d),
            (NormClass.CONVERGING, NormClass.DIVERGING): (2 - d, 1 - d),
            (NormClass.DIVERGING, NormClass.CONVERGING): (1 - d, 2 - d),
        }
        pair = table.get((psi_up, psi_dn))
        if pair is None:
            inconclusive = True
            notes.append(f"psi norm trend unresolved "
                         f"(upper {psi_up.value}, lower {psi_dn.value})")
        else:
            n_plus, n_minus = (max(v, 0) for v in pair)

    tau_up = classify_tau_trend(trace_up.cs, trace_up.tau_abs, config)
    tau_dn = classify_tau_trend(trace_dn.cs, trace_dn.tau_abs, config)
    if n_plus is not None and n_plus != n_minus:
        if {tau_up, tau_dn} != {"toZero", "toInfinity"}:
            inconclusive = True
            notes.append(
                f"asymmetric indices need opposite tau trends, got "
                f"{tau_up}/{tau_dn}")
            n_plus = n_minus = None

    def safe_detect(trace):
        try:
            return detect_limit(trace, config)
        except ValueError as exc:
            return Verdict("Inconclusive", detail=str(exc))

    verdict_up = safe_detect(trace_up)
    verdict_dn = safe_detect(trace_dn)
    requested_is_upper = lam.imag > 0

    def side_diag(trace, psi_info, phi_info, verdict):
        disks = trace.disk_points()
        radii = [p.wset.radius for p in disks]
        return {
            "finalRadius": radii[-1] if radii else None,
            "radiusRatios": [radii[i + 1] / radii[i]
                             for i in range(max(0, len(radii) - 4),
                                            len(radii) - 1)],
            "psiNormLast": trace.points[-1].psi_norm_sq,
            "phiNormLast": trace.points[-1].phi_norm_sq,
            "psiGrowthExponent": psi_info.get("growthExponent"),
            "phiGrowthExponent": phi_info.get("growthExponent"),
            "verdict": verdict.kind,
        }

    diagnostics = {
        "cGrid": [float(c) for c in c_grid],
        "definiteUpTo": defres.c_max,
        "gramMinEigenvalue": defres.min_eigenvalue,
        "gramTrace": defres.gram_trace,
        "upper": side_diag(trace_up, psi_up_info, phi_up_info, verdict_up),
        "lower": side_diag(trace_dn, psi_dn_info, phi_dn_info, verdict_dn),
        "notes": notes,
    }

    return ClassificationReport(
        lam=lam,
        verdict=verdict_up if requested_is_upper else verdict_dn,
        verdict_conjugate=verdict_dn if requested_is_upper else verdict_up,
        definite=defres.definite,
        dim_null_space=d,
        null_vector=defres.null_vector,
        n_plus=n_plus,
        n_minus=n_minus,
        tau_trend=tau_up if requested_is_upper else tau_dn,
        tau_trend_conjugate=tau_dn if requested_is_upper else tau_up,
        inconclusive=inconclusive,
        diagnostics=diagnostics,
    )
