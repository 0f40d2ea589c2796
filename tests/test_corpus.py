"""The truth corpus: problems whose deficiency indices are proven, each
classified at three lam.  A result must be the proven (n+, n-), an
inconclusive report, or a refusal by a ``WeylCanonError``; never a
wrong pair.

- Sturm-Liouville -y'' - (1+x)^a y on (0, inf): limit point for a <= 2,
  since the potential is bounded below by -K x^2 (Sears' criterion).
- -y'' + c/(1-x)^2 y on (0, 1): near 1 the solutions behave like
  (1-x)^s with s(s-1) = c, so the endpoint is limit circle for c < 3/4
  and limit point for c >= 3/4 (Weyl's alternative).
- q = 0, w = (1+x)^(-p) I on (0, inf): limit circle exactly when
  int tr w is finite, that is p > 1 (de Branges' trace criterion).

Three known wrong answers are not listed: w = (1+x)^(-1.1) I,
w = diag(e^(-x), e^x) and q = diag(1, -1).
"""

import math

import pytest

from weyl_canon.classify import deficiency_indices
from weyl_canon.errors import WeylCanonError
from weyl_canon.measures import CoefficientMeasure, Problem, SLProblem, sl_to_canonical

LAMBDAS = (1j, 0.5 + 0.5j, -0.25 - 1j)


def _growing_potential(a):
    return sl_to_canonical(SLProblem(math.inf, v=f"-(1+x)^{a}"))


def _inverse_square(c):
    return sl_to_canonical(SLProblem(1.0, v=f"{c}/(1-x)^2"))


def _decaying_weight(p):
    w = f"(1+x)^(-{p})"
    return Problem(math.inf, 0.0, CoefficientMeasure(), CoefficientMeasure(d11=w, d22=w))


CORPUS = (
    [(f"sl -(1+x)^{a}", _growing_potential, a, (1, 1)) for a in (0, 1, 2)]
    + [(f"sl {c}/(1-x)^2", _inverse_square, c, (2, 2)) for c in (-1, 0, 0.5, 0.7)]
    + [(f"sl {c}/(1-x)^2", _inverse_square, c, (1, 1)) for c in (1, 3)]
    + [(f"w (1+x)^-{p}", _decaying_weight, p, (1, 1)) for p in (0, 0.5, 1)]
    + [(f"w (1+x)^-{p}", _decaying_weight, p, (2, 2)) for p in (1.5, 2, 3)]
)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("build, parameter, proven", [row[1:] for row in CORPUS],
                         ids=[row[0] for row in CORPUS])
def test_corpus_is_right_or_inconclusive(build, parameter, proven, lam):
    try:
        report = deficiency_indices(build(parameter), lam)
    except WeylCanonError:
        return
    assert report.inconclusive or (report.n_plus, report.n_minus) == proven
