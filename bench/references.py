"""References computed apart from the program.

Nothing here imports ``weyl_canon``.  The catalog closed forms are
derived for this file (see the docstrings), the piecewise-constant
fundamental matrix is a product of matrix exponentials and atom
transfers, and every norm comes from the Lagrange identity applied to
the reference ``U``:

    ||u||_c^2 = (Im(u1 conj u2)(c) - Im(u1 conj u2)(0)) / Im lam.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import expm

from inputs import CATALOG_ATOMS, jump_dets

J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def rotation(alpha):
    """U(0) for boundary angle alpha: psi(0) = (-sin alpha, cos alpha)."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=complex)


def atom_transfer(dq, dw, lam):
    """u+ = (J + H)^-1 (J - H) u- with H = (dq - lam dw)/2."""
    h = 0.5 * (np.asarray(dq, dtype=complex) - lam * np.asarray(dw, dtype=complex))
    return np.linalg.solve(J + h, J - h)


def lagrange_norm(u_c, u_0, lam):
    """||u||_c^2 of one solution from its values at 0 and c."""
    def form(u):
        return (u[0] * np.conj(u[1])).imag
    return float((form(u_c) - form(u_0)) / complex(lam).imag)


def weyl_disk(U, tau, lam):
    """(center, radius) of the Weyl disk from U(c) and the exact tau(c);
    the radius uses |tau| instead of the entry determinant:
    r = |tau| / |C conj D - conj C D|."""
    A, B, C, D = U[0, 0], U[1, 0], U[0, 1], U[1, 1]
    denom = C * np.conj(D) - np.conj(C) * D
    return complex((B * np.conj(C) - A * np.conj(D)) / denom), float(abs(tau) / abs(denom))


# --------------------------------------------------------------------------
# catalog closed forms
# --------------------------------------------------------------------------

def _rot(theta):
    c, s = cmath.cos(theta), cmath.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


class CatalogEntry:
    """Closed forms for one catalog problem (alpha = 0, so U(0) = I).

    lesch_malamud(a): w = [[s, -i], [i, s]], s = 1 + a/(1+x^2), q = 0, so
      u' = -lam J w u = (i lam + lam s K) u with K = [[0,1],[-1,0]] and
      U = e^{i lam x} exp(lam t(x) K), t = x + a atan x.
    constant_w: w = [[4, -i], [i, 1]]: u' = (i lam + lam N) u with
      N = [[0, 1], [-4, 0]], N^2 = -4: U = e^{i lam x}[[cos z, sin z/2],
      [-2 sin z, cos z]], z = 2 lam x.
    free_identity: w = I: U = exp(lam x K).
    bad_point_*: one atom at x = 1, no density: U = I before it and
      (J+H)^-1 (J-H) after it.
    tau = det U: e^{2 i lam x} for the first two, 1 for free_identity,
      det B- / det B+ past the atom.
    """

    def __init__(self, name, params):
        self.name = name
        self.a = float(params.get("a", 0.0))

    def U(self, x, lam):
        lam = complex(lam)
        if self.name == "lesch_malamud":
            t = x + self.a * math.atan(x)
            return cmath.exp(1j * lam * x) * _rot(lam * t)
        if self.name == "constant_w":
            z = 2.0 * lam * x
            c, s = cmath.cos(z), cmath.sin(z)
            return cmath.exp(1j * lam * x) * np.array([[c, 0.5 * s], [-2.0 * s, c]])
        if self.name == "free_identity":
            return _rot(lam * x)
        dq, dw = CATALOG_ATOMS[self.name]
        if x < 1.0:
            return np.eye(2, dtype=complex)
        return atom_transfer(dq, dw, lam)

    def tau(self, x, lam):
        lam = complex(lam)
        if self.name in ("lesch_malamud", "constant_w"):
            return cmath.exp(2j * lam * x)
        if self.name == "free_identity":
            return 1.0 + 0.0j
        if x < 1.0:
            return 1.0 + 0.0j
        det_minus, det_plus = jump_dets(*CATALOG_ATOMS[self.name], lam)
        return det_minus / det_plus

    def norms(self, c, lam):
        """(||psi||_c^2, ||phi||_c^2)."""
        U = self.U(c, lam)
        U0 = np.eye(2, dtype=complex)
        return (lagrange_norm(U[:, 1], U0[:, 1], lam),
                lagrange_norm(U[:, 0], U0[:, 0], lam))

    def m_limit(self, lam):
        """The limit-point m where it is known in closed form: chi_m =
        phi + m psi is e^{i lam x}(1, i) for free_identity at m = i and
        e^{3 i lam x}(1, 2i) for constant_w at m = 2i (upper half plane),
        conjugate signs below."""
        sign = 1.0 if complex(lam).imag > 0 else -1.0
        if self.name == "free_identity":
            return 1j * sign
        if self.name == "constant_w":
            return 2j * sign
        return None

    def gram(self, c):
        """G(c) = int_0^c U(.,0)* w U(.,0) plus balanced atom terms.
        U(., 0) = I for the density problems, so G = int w."""
        if self.name == "lesch_malamud":
            s = c + self.a * math.atan(c)
            return np.array([[s, -1j * c], [1j * c, s]])
        if self.name == "constant_w":
            return c * np.array([[4.0, -1j], [1j, 1.0]])
        if self.name == "free_identity":
            return c * np.eye(2, dtype=complex)
        dq, dw = CATALOG_ATOMS[self.name]
        balanced = 0.5 * (np.eye(2) + atom_transfer(dq, dw, 0.0))
        return balanced.conj().T @ dw @ balanced

    def expected(self):
        """Deficiency indices and definiteness known from theory."""
        if self.name == "lesch_malamud":
            if self.a > 0:
                return {"n": (2, 1), "definite": True, "null": None}
            return {"n": (1, 0), "definite": False,
                    "null": np.array([1.0, -1.0j]) / math.sqrt(2.0)}
        if self.name.startswith("bad_point"):
            G = self.gram(1.5)
            vals, vecs = np.linalg.eigh(G)
            return {"n": (1, 1), "definite": False, "null": vecs[:, 0]}
        return {"n": (1, 1), "definite": True, "null": None}


# --------------------------------------------------------------------------
# piecewise-constant problems
# --------------------------------------------------------------------------

class PiecewiseReference:
    """U(c), tau(c) and norms for a piecewise-constant problem model (see
    inputs.random_piecewise), by matrix exponentials between
    discontinuities and (J + H)^-1 (J - H) at atoms."""

    def __init__(self, model, lam):
        self.model = model
        self.lam = complex(lam)
        self.breaks = list(model["breaks"])
        self.atoms = list(model["atoms"])

    def _piece(self, x):
        """Index of the constant piece containing the open interval
        starting at x."""
        k = 0
        while k < len(self.breaks) and self.breaks[k] <= x:
            k += 1
        return k

    def _events(self, c):
        """Sorted discontinuities in (0, c): ("break", x) / ("atom", x, dq, dw)."""
        events = [(b, "break", None, None) for b in self.breaks if b < c]
        events += [(x, "atom", dq, dw) for x, dq, dw in self.atoms if x < c]
        events.sort(key=lambda e: (e[0], e[1] == "atom"))
        return events

    def U_tau(self, cs):
        """[(U(c), tau(c))] for increasing continuity points cs."""
        lam = self.lam
        U = rotation(self.model["alpha"])
        tau = 1.0 + 0.0j
        x = 0.0
        out = []
        events = self._events(max(cs)) + [(math.inf, "end", None, None)]
        k = 0
        for c in cs:
            while events[k][0] < c:
                pos, kind, dq, dw = events[k]
                U, tau = self._advance(U, tau, x, pos)
                x = pos
                if kind == "atom":
                    U = atom_transfer(dq, dw, lam) @ U
                    det_minus, det_plus = jump_dets(dq, dw, lam)
                    tau *= det_minus / det_plus
                k += 1
            U_c, tau_c = self._advance(U, tau, x, c)
            out.append((U_c, tau_c))
        return out

    def _advance(self, U, tau, x0, x1):
        if x1 <= x0:
            return U, tau
        k = self._piece(x0)
        Q = self.model["q_pieces"][k]
        W = self.model["w_pieces"][k]
        h = x1 - x0
        M = Q - self.lam * W
        U = expm(h * (J @ M)) @ U
        tau = tau * cmath.exp(2j * h * (Q[0, 1].imag - self.lam * W[0, 1].imag))
        return U, tau

    def points(self, cs):
        """Reference data at every c: U, tau, psi/phi norms, disk."""
        U0 = rotation(self.model["alpha"])
        out = []
        for c, (U, tau) in zip(cs, self.U_tau(cs)):
            n_psi = lagrange_norm(U[:, 1], U0[:, 1], self.lam)
            n_phi = lagrange_norm(U[:, 0], U0[:, 0], self.lam)
            center, radius = weyl_disk(U, tau, self.lam)
            out.append({"c": c, "U": U, "tau": tau, "psi": n_psi, "phi": n_phi,
                        "center": center, "radius": radius})
        return out
