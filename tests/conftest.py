"""Shared fixtures: seeded random problems with piecewise-constant
densities and Hermitian/PSD atoms, plus small numeric helpers."""

import numpy as np
import pytest

from weyl_canon.expressions import BinOp, Call, Literal, Variable
from weyl_canon.measures import CoefficientMeasure, Problem
from weyl_canon.propagation import bad_points


def rel_err(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / scale


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns
    the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def piecewise_expr(values, breaks):
    """AST for v0 + sum (v_{k+1} - v_k) step(x - break_k)."""
    node = Literal(complex(values[0]))
    for prev, nxt, bk in zip(values, values[1:], breaks):
        delta = complex(nxt) - complex(prev)
        if delta == 0:
            continue
        jump = Call("step", BinOp("-", Variable(), Literal(complex(bk))))
        node = BinOp("+", node, BinOp("*", Literal(delta), jump))
    return node


def random_hermitian(rng, scale):
    d11 = rng.uniform(-scale, scale)
    d22 = rng.uniform(-scale, scale)
    d12 = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
    return np.array([[d11, d12], [np.conj(d12), d22]])


def random_psd(rng, scale, allow_rank1=True):
    ell = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if allow_rank1 and rng.random() < 0.25:
        ell[:, 1] = 0.0
    m = ell @ ell.conj().T
    top = float(np.linalg.eigvalsh(m)[-1])
    if top > 0:
        m *= rng.uniform(0.2, 1.0) * scale / top
    return 0.5 * (m + m.conj().T)


def random_piecewise_problem(rng, *, b=8.0, max_pieces=3, max_atoms=3,
                             scale=1.0, alpha=None, with_atoms=True):
    """Problem with piecewise-constant densities (breakpoints on the 0.25
    lattice), random Hermitian q / PSD w pieces, and up to max_atoms
    Hermitian q-atoms / PSD w-atoms on the 0.125-offset lattice."""
    lattice = np.arange(0.5, 5.75, 0.25)
    n_breaks = int(rng.integers(0, max_pieces))
    breaks = sorted(rng.choice(lattice, size=n_breaks, replace=False)) \
        if n_breaks else []
    pieces = n_breaks + 1

    q_pieces = [random_hermitian(rng, scale) for _ in range(pieces)]
    w_pieces = [random_psd(rng, scale) for _ in range(pieces)]

    def measure_exprs(piece_list):
        d11 = piecewise_expr([m[0, 0].real for m in piece_list], breaks)
        d12 = piecewise_expr([m[0, 1] for m in piece_list], breaks)
        d22 = piecewise_expr([m[1, 1].real for m in piece_list], breaks)
        return d11, d12, d22

    q_atoms, w_atoms = [], []
    if with_atoms:
        atom_lattice = np.arange(0.625, 5.5, 0.25)
        n_atoms = int(rng.integers(0, max_atoms + 1))
        positions = sorted(rng.choice(atom_lattice, size=n_atoms,
                                      replace=False)) if n_atoms else []
        for pos in positions:
            if rng.random() < 0.85:
                q_atoms.append((float(pos), random_hermitian(rng, scale)))
            if rng.random() < 0.6:
                w_atoms.append((float(pos), random_psd(rng, scale)))

    q = CoefficientMeasure(*measure_exprs(q_pieces), atoms=q_atoms,
                           breakpoints=breaks)
    w = CoefficientMeasure(*measure_exprs(w_pieces), atoms=w_atoms,
                           breakpoints=breaks)
    if alpha is None:
        alpha = float(rng.uniform(0.0, np.pi * 0.999))
    return Problem(b, alpha, q, w)


def pick_lambda_outside_bad_set(problem, rng, im_values=(1.0, -1.0, 0.25, -0.25)):
    """Random lambda with Im in im_values whose jump matrices are all
    invertible (resamples the real part when unlucky)."""
    for _ in range(40):
        lam = complex(rng.uniform(-0.5, 0.5), rng.choice(im_values))
        if not bad_points(problem, lam).in_lambda_set:
            return lam
    raise RuntimeError("could not find a lambda outside the bad set")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
