"""Checks of the program's outputs against the independent references.

Each operation gets a ``Check``: every comparison records the correct
significant digits it saw, and every comparison outside its tolerance
records a failure.  Entries of U, tau, norms and disk centers must agree
to TOL_VALUE (relative).  det U and the Weyl radius are computed from
the entries by a subtraction whose condition number is
kappa = (|AD| + |BC|) / |det U|, so ``det U = tau`` is compared relative
to |AD| + |BC|, and the radius (with the nesting of disks and the true m
inside them) only where kappa <= KAPPA_MAX, with tolerance
TOL_VALUE * kappa.  Beyond that the radius carries fewer than three
trustworthy digits and is not checked.
"""

from __future__ import annotations

import math

import numpy as np

from references import CatalogEntry, PiecewiseReference, weyl_disk

TOL_VALUE = 1e-7          # entries, tau, norms, centers (relative)
TOL_GRAM = 1e-8           # Gram matrix trace / eigenvalue (relative to trace)
TOL_NULL = 1e-6           # null vector, up to phase
KAPPA_MAX = 1e4           # radius checked where det U has this condition or better
SCHEMA = "weyl-canon/report/v1"


def digits(err):
    """Correct significant digits of a relative error, within [0, 16]."""
    return 16.0 if err <= 1e-16 else max(0.0, min(16.0, -math.log10(err)))


class Check:
    def __init__(self):
        self.failures = []
        self.digits = []          # (correct digits, label) per comparison

    def close(self, label, got, want, tol, scale=None):
        scale = abs(want) if scale is None else scale
        err = abs(got - want) / max(scale, 1e-300)
        if not math.isfinite(err):
            err = math.inf
        self.digits.append((digits(err), label))
        if not err <= tol:
            self.failures.append(f"{label}: got {got!r}, want {want!r} "
                                 f"(relative error {err:.2e} > {tol:.1e})")

    def require(self, label, condition):
        if not condition:
            self.failures.append(label)

    @property
    def ok(self):
        return not self.failures


def _c(pair):
    return complex(pair[0], pair[1])


def _entries_matrix(entries):
    A, B, C, D = (_c(e) for e in entries)
    return np.array([[A, C], [B, D]])


def _kappa(U, det):
    A, B, C, D = U[0, 0], U[1, 0], U[0, 1], U[1, 1]
    return (abs(A * D) + abs(B * C)) / max(abs(det), 1e-300)


def check_trace(check, doc, ref_points, tag, m_true=None):
    """A disk trace against reference points at the same c (dicts from
    PiecewiseReference.points or catalog_points), plus the method
    properties: det U = tau, nested disks, the true m inside each disk."""
    if "error" in doc:
        check.failures.append(f"{tag}: {doc['error']}: {doc['message']}")
        return
    points = doc["points"]
    check.require(f"{tag}: empty trace", points)
    previous = None
    for p, ref in zip(points, ref_points):
        c = p["c"]
        label = f"{tag} c={c:.6g}"
        check.require(f"{label}: reference grid mismatch", abs(ref["c"] - c) <= 1e-12 * c)
        U = _entries_matrix(p["entries"])
        Uref = ref["U"]
        check.close(f"{label} U", float(np.linalg.norm(U - Uref)), 0.0, TOL_VALUE,
                    scale=float(np.linalg.norm(Uref)))
        tau = _c(p["tau"])
        check.close(f"{label} tau", tau, ref["tau"], TOL_VALUE)
        kappa = _kappa(Uref, ref["tau"])
        det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
        check.close(f"{label} det U = tau", det, tau, TOL_VALUE,
                    scale=kappa * abs(ref["tau"]))
        check.close(f"{label} psi norm", p["psi"], ref["psi"], TOL_VALUE)
        check.close(f"{label} phi norm", p["phi"], ref["phi"], TOL_VALUE)
        if p["branch"] != "disk":
            check.require(f"{label}: half plane although the reference psi norm is "
                          f"{ref['psi']:.3e}", ref["psi"] <= 1e-9)
            level = (Uref[0, 0] * np.conj(Uref[1, 0])).imag
            check.close(f"{label} level", p["level"], level, TOL_VALUE,
                        scale=abs(Uref[0, 0]) * abs(Uref[1, 0]) + 1e-300)
            previous = None
            continue
        center = _c(p["center"])
        radius = p["radius"]
        check.close(f"{label} center", center, ref["center"], TOL_VALUE,
                    scale=abs(ref["center"]) + ref["radius"])
        if kappa > KAPPA_MAX:
            previous = None
            continue
        tol_r = TOL_VALUE * kappa
        check.close(f"{label} radius", radius, ref["radius"], tol_r)
        if previous is not None:
            z0, r0, t0 = previous
            slack = max(t0, tol_r) * r0 + TOL_VALUE * (abs(z0) + r0)
            check.require(f"{label}: disk not inside the previous one",
                          abs(center - z0) + radius <= r0 + slack)
        if m_true is not None:
            check.require(f"{label}: true m={m_true} outside the disk",
                          abs(m_true - center) <= radius * (1 + tol_r)
                          + TOL_VALUE * abs(m_true))
        previous = (center, radius, tol_r)


def catalog_points(entry, lam, cs):
    out = []
    for c in cs:
        U = entry.U(c, lam)
        tau = entry.tau(c, lam)
        psi, phi = entry.norms(c, lam)
        center, radius = weyl_disk(U, tau, lam)
        out.append({"c": c, "U": U, "tau": tau, "psi": psi, "phi": phi,
                    "center": center, "radius": radius})
    return out


def sides(lam):
    """(upper, lower) spectral parameters a classification at lam uses."""
    up = lam if lam.imag > 0 else lam.conjugate()
    return up, up.conjugate()


def last_points(docs):
    """{"upper": c, "lower": c} of the last points of two trace docs."""
    return {side: doc["points"][-1]["c"] if doc.get("points") else math.nan
            for side, doc in zip(("upper", "lower"), docs)}


def check_catalog_trace(check, doc, name, params, lam):
    entry = CatalogEntry(name, params)
    cs = [p["c"] for p in doc.get("points", [])]
    refs = catalog_points(entry, lam, cs) if cs else []
    check_trace(check, doc, refs, f"{name}{params} lam={lam}", entry.m_limit(lam))


def check_report(check, rep, name, params, lam, last_c):
    """A deficiency_indices report (to_dict form) against theory and the
    catalog closed forms.  ``last_c`` maps "upper" / "lower" to the c of
    the last usable point of that side's trace, where the report's
    last-point norms and radius are checked."""
    if "error" in rep:
        check.failures.append(f"{name}{params} lam={lam}: {rep['error']}: {rep['message']}")
        return
    entry = CatalogEntry(name, params)
    want = entry.expected()
    tag = f"{name}{params} lam={lam}"
    check.require(f"{tag}: schema {rep.get('schema')!r}", rep.get("schema") == SCHEMA)
    check.require(f"{tag}: lambda {rep['lambda']}", _c(rep["lambda"]) == lam)
    got_n = (rep["nPlus"], rep["nMinus"])
    check.require(f"{tag}: (n+, n-) = {got_n}, theory gives {want['n']}", got_n == want["n"])
    check.require(f"{tag}: inconclusive", not rep["inconclusive"])
    check.require(f"{tag}: definite = {rep['definite']}", rep["definite"] == want["definite"])
    check.require(f"{tag}: dim null space {rep['dimNullSpace']}",
                  rep["dimNullSpace"] == (0 if want["definite"] else 1))
    if want["null"] is not None and rep["nullVector"] is not None:
        v = np.array([_c(z) for z in rep["nullVector"]])
        overlap = abs(np.vdot(want["null"], v))
        check.close(f"{tag} null vector", math.sqrt(max(0.0, 2.0 - 2.0 * overlap)), 0.0,
                    TOL_NULL, scale=1.0)
    elif want["null"] is not None:
        check.failures.append(f"{tag}: no null vector")

    diag = rep["diagnostics"]
    G = entry.gram(diag["definiteUpTo"])
    trace_g = float(np.real(np.trace(G)))
    check.close(f"{tag} Gram trace", diag["gramTrace"], trace_g, TOL_GRAM)
    check.close(f"{tag} Gram min eigenvalue", diag["gramMinEigenvalue"],
                float(np.linalg.eigvalsh(G)[0]), TOL_GRAM, scale=trace_g)

    for side, z in zip(("upper", "lower"), sides(lam)):
        d = diag[side]
        c = last_c[side]
        psi, phi = entry.norms(c, z)
        check.close(f"{tag} {side} psi norm", d["psiNormLast"], psi, TOL_VALUE)
        check.close(f"{tag} {side} phi norm", d["phiNormLast"], phi, TOL_VALUE)
        U = entry.U(c, z)
        tau = entry.tau(c, z)
        kappa = _kappa(U, tau)
        if d["finalRadius"] is not None and kappa <= KAPPA_MAX:
            _, radius = weyl_disk(U, tau, z)
            check.close(f"{tag} {side} final radius", d["finalRadius"], radius,
                        TOL_VALUE * kappa)
    m_true = entry.m_limit(lam)
    verdict = rep["verdict"]
    if m_true is not None and "center" in verdict:
        center, radius = _c(verdict["center"]), verdict["radius"]
        check.require(f"{tag}: true m={m_true} outside the final disk",
                      abs(m_true - center) <= radius * (1 + 1e-6) + TOL_VALUE)


def check_piecewise(check, doc, model, lam, tag):
    cs = [p["c"] for p in doc.get("points", [])]
    refs = PiecewiseReference(model, lam).points(cs) if cs else []
    check_trace(check, doc, refs, tag)
