"""Seeded inputs for the three workloads.

Everything the program receives is made here, in the benchmark process,
from ``--seed`` alone: the catalog operations and their order, the
piecewise-constant problem documents with their lambda, and the CLI
arguments.  Nothing here imports ``weyl_canon``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Catalog specs as the CLI and ``builtin_example`` spell them.
CATALOG = (
    ("lesch_malamud", {"a": 1.0}),
    ("lesch_malamud", {"a": 0.0}),
    ("constant_w", {}),
    ("free_identity", {}),
    ("bad_point_minus", {}),
    ("bad_point_plus", {}),
)

# Upper and lower half planes, |Im| <= 1, plus 2i (where the bad-point
# entries have their singular atom, and where lesch_malamud(a=1) is
# misclassified today).
CATALOG_LAMBDAS = (1j, 2j, 0.5 - 1j, -0.5 + 0.5j)

# The one operation that fails on every run: deficiency_indices reads a
# trace cut short by DegenerateUError and reports (1, 1) instead of (2, 1).
KNOWN_FAILURE = {"name": "lesch_malamud", "params": {"a": 1.0}, "lam": 2j}

# piecewise_trace: short truncation grid, c <= 5.
PIECEWISE_GRID = tuple(float(c) for c in np.geomspace(0.25, 5.0, 12))
PIECEWISE_ROUND = 48           # problems in one round: 12 shapes x 4 Im lambda
PIECEWISE_IM = (1.0, -1.0, 0.25, -0.25)

# cli_process: four lambda with Im != 0 and |Im| <= 1 in both half planes.
CLI_EXAMPLE = "lesch_malamud(a=1)"
CLI_PROBLEM = ("lesch_malamud", {"a": 1.0})
CLI_LAMBDAS = (1j, 0.5 + 0.5j, -0.25 - 1j, 1 - 0.75j)

JUMP_MARGIN = 1e-3             # |det B+-| below this counts as "near Lambda"


def is_known_failure(op):
    return op == KNOWN_FAILURE


def catalog_operations(seed):
    """One round of catalog operations: every catalog problem at every
    lambda of CATALOG_LAMBDAS outside its bad set, in a seeded order."""
    ops = []
    for name, params in CATALOG:
        atom = CATALOG_ATOMS.get(name)
        for lam in CATALOG_LAMBDAS:
            if atom is not None and near_lambda_set([atom], lam):
                continue
            ops.append({"name": name, "params": dict(params), "lam": lam})
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[k] for k in order]


def cli_lambdas(seed):
    order = np.random.default_rng(seed).permutation(len(CLI_LAMBDAS))
    return [CLI_LAMBDAS[k] for k in order]


# --------------------------------------------------------------------------
# jump determinants (own formula, independent of the program)
# --------------------------------------------------------------------------

def jump_dets(dq, dw, lam):
    """(det B-, det B+) for B+- = J +- (dq - lam dw)/2, J = [[0,-1],[1,0]].

    With M = (dq - lam dw)/2: J + M = [[m11, m12-1], [m21+1, m22]] and
    J - M = [[-m11, -1-m12], [1-m21, -m22]].
    """
    m = 0.5 * (np.asarray(dq, dtype=complex) - lam * np.asarray(dw, dtype=complex))
    det_plus = m[0, 0] * m[1, 1] - (m[0, 1] - 1.0) * (m[1, 0] + 1.0)
    det_minus = m[0, 0] * m[1, 1] + (1.0 + m[0, 1]) * (1.0 - m[1, 0])
    return complex(det_minus), complex(det_plus)


def near_lambda_set(atoms, lam):
    """True when lam or conj(lam) makes det B- or det B+ (nearly) vanish
    at one of the atoms, given as (dq, dw) pairs."""
    for dq, dw in atoms:
        for z in (lam, complex(lam).conjugate()):
            if min(abs(d) for d in jump_dets(dq, dw, z)) < JUMP_MARGIN:
                return True
    return False


# The catalog's bad-point atoms at x = 1: q12 = +2i (minus) / -2i (plus).
def _bad_atom(q12):
    dq = np.array([[0.0, q12], [np.conj(q12), 2.0]], dtype=complex)
    dw = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    return dq, dw


CATALOG_ATOMS = {"bad_point_minus": _bad_atom(2j), "bad_point_plus": _bad_atom(-2j)}


# --------------------------------------------------------------------------
# random piecewise-constant problems
# --------------------------------------------------------------------------

def _hermitian(rng, scale):
    d11 = rng.uniform(-scale, scale)
    d22 = rng.uniform(-scale, scale)
    d12 = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
    return np.array([[d11, d12], [np.conj(d12), d22]])


def _psd(rng, scale):
    ell = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if rng.random() < 0.25:
        ell[:, 1] = 0.0                      # rank one
    m = ell @ ell.conj().T
    top = float(np.linalg.eigvalsh(m)[-1])
    m *= rng.uniform(0.2, 1.0) * scale / top
    return 0.5 * (m + m.conj().T)


def _num(v):
    return repr(float(v))


def _cnum(z):
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"({_num(z.real)}{sign}{_num(abs(z.imag))}*i)"


def _piecewise_text(values, breaks, fmt):
    text = fmt(values[0])
    for prev, nxt, bk in zip(values, values[1:], breaks):
        text += f"+{fmt(nxt - prev)}*step(x-{_num(bk)})"
    return text


def _atom_doc(x, m):
    return {"x": float(x),
            "m": [[float(m[i, j].real), float(m[i, j].imag)]
                  for i in (0, 1) for j in (0, 1)]}


def random_piecewise(rng, n_breaks, n_atoms, scale=1.0, b=8.0):
    """One problem in the distribution of acceptance criterion 7:
    piecewise-constant Hermitian q and PSD w with n_breaks breakpoints on
    the 0.25 lattice, and n_atoms positions on the 0.125-offset lattice
    carrying a Hermitian q atom (p = 0.85) and/or a PSD w atom (p = 0.6).

    Returns (document, model); the model holds the same numbers as
    arrays for the reference computation.
    """
    lattice = np.arange(0.5, 5.75, 0.25)
    breaks = sorted(float(v) for v in rng.choice(lattice, size=n_breaks,
                                                 replace=False))
    q_pieces = [_hermitian(rng, scale) for _ in range(n_breaks + 1)]
    w_pieces = [_psd(rng, scale) for _ in range(n_breaks + 1)]

    atom_lattice = np.arange(0.625, 5.5, 0.25)
    positions = sorted(float(v) for v in rng.choice(atom_lattice, size=n_atoms,
                                                    replace=False))
    q_atoms, w_atoms = {}, {}
    for pos in positions:
        if rng.random() < 0.85:
            q_atoms[pos] = _hermitian(rng, scale)
        if rng.random() < 0.6:
            w_atoms[pos] = _psd(rng, scale)
    alpha = float(rng.uniform(0.0, math.pi * 0.999))

    # exact Hermitian symmetry in the document: write m21 = conj(m12)
    def clean(m):
        m = np.array(m, dtype=complex)
        m[0, 0] = m[0, 0].real
        m[1, 1] = m[1, 1].real
        m[1, 0] = np.conj(m[0, 1])
        return m

    q_pieces = [clean(m) for m in q_pieces]
    w_pieces = [clean(m) for m in w_pieces]
    q_atoms = {k: clean(m) for k, m in q_atoms.items()}
    w_atoms = {k: clean(m) for k, m in w_atoms.items()}

    def measure_doc(pieces, atoms):
        doc = {
            "d11": _piecewise_text([m[0, 0].real for m in pieces], breaks, _num),
            "d12": _piecewise_text([m[0, 1] for m in pieces], breaks, _cnum),
            "d22": _piecewise_text([m[1, 1].real for m in pieces], breaks, _num),
            "atoms": [_atom_doc(x, m) for x, m in sorted(atoms.items())],
        }
        if breaks:
            doc["breakpoints"] = list(breaks)
        return doc

    document = {"b": b, "alpha": alpha,
                "q": measure_doc(q_pieces, q_atoms),
                "w": measure_doc(w_pieces, w_atoms)}
    zero = np.zeros((2, 2), dtype=complex)
    model = {
        "alpha": alpha,
        "breaks": breaks,
        "q_pieces": q_pieces,
        "w_pieces": w_pieces,
        "atoms": [(x, q_atoms.get(x, zero), w_atoms.get(x, zero))
                  for x in sorted(set(q_atoms) | set(w_atoms))],
    }
    return document, model


def piecewise_operations(seed):
    """One round of piecewise_trace inputs: PIECEWISE_ROUND problem
    documents (JSON text), each with a lambda outside its bad set.

    Criterion 7 draws 0-2 breakpoints and 0-3 atom positions uniformly
    and Im lambda from PIECEWISE_IM; a round holds every combination of
    the three equally often, so only the values drawn from the seed
    (positions, matrices, alpha, Re lambda) differ between seeds.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(PIECEWISE_ROUND):
        n_breaks, n_atoms = divmod(k % 12, 4)
        document, model = random_piecewise(rng, n_breaks, n_atoms)
        im = PIECEWISE_IM[(k // 12) % len(PIECEWISE_IM)]
        pairs = [(dq, dw) for _, dq, dw in model["atoms"]]
        while True:
            lam = complex(rng.uniform(-0.5, 0.5), im)
            if not near_lambda_set(pairs, lam):
                break
        ops.append({"text": json.dumps(document), "lam": lam, "model": model})
    return ops
