"""The realization and the tangency check against their reference routes.

The library realizes each degree's basis once and combines those fields, and
restricts only the holomorphic half of Re(X rho_j) to the surface;
``reference.py`` keeps the chain on every coefficient vector and the
two-sided restriction.  Both must give the same fields and the same residual
polynomials, on real and Gaussian-rational combinations, and on a model whose
form is not Hermitian.
"""

import random
from fractions import Fraction

import pytest

from reference import chain_realize_element, two_sided_verify_hol
from test_differential import random_models

from crprolong import catalog
from crprolong.model import QuadricModel
from crprolong.poly import Poly, PolyVectorField
from crprolong.prolong import prolong_full
from crprolong.realize import realize_basis, realize_element
from crprolong.scalars import GR_I, GaussianRational
from crprolong.verify import verify_hol

SEED = 73

MODELS = ([(name, catalog.get(name).model) for name in ("heisenberg", "codim4", "codim5")]
          + [(f"random{i}-n{m.n}k{m.k}", m) for i, m in enumerate(random_models())])

NON_HERMITIAN = QuadricModel([[[1, GR_I], [GR_I, 2]]])


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _combinations(rng, dim):
    """One real and one Gaussian-rational coefficient vector, none all zero."""
    real = [_rational(rng) for _ in range(dim)]
    gauss = [GaussianRational(_rational(rng), _rational(rng)) for _ in range(dim)]
    real[rng.randrange(dim)] = Fraction(1)
    gauss[rng.randrange(dim)] = GR_I
    return real, gauss


def _random_poly(rng, n, k, kinds, terms=4, degree=3):
    variables = [Poly.variable(n, k, kind, i)
                 for kind in kinds for i in range(n if kind in ("z", "zb") else k)]
    out = Poly.zero(n, k)
    for _ in range(terms):
        mono = Poly.constant(n, k, GaussianRational(_rational(rng), _rational(rng)))
        for _ in range(rng.randint(0, degree)):
            mono = mono * rng.choice(variables)
        out = out + mono
    return out


def _random_field(rng, n, k):
    return PolyVectorField(n, k, [_random_poly(rng, n, k, ("z", "w")) for _ in range(n)],
                           [_random_poly(rng, n, k, ("z", "w")) for _ in range(k)])


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
def test_realization_matches_chain(name, model):
    result = prolong_full(model)
    alg = result.algebra
    rng = random.Random(SEED)
    for d in alg.degrees():
        dim = alg.dim(d)
        units = [[int(i == m) for i in range(dim)] for m in range(dim)]
        assert realize_basis(result, d) == [chain_realize_element(alg, d, u) for u in units]
        for coeffs in _combinations(rng, dim):
            assert realize_element(alg, d, coeffs) == chain_realize_element(alg, d, coeffs)


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
def test_residuals_match_two_sided_route(name, model):
    """Non-tangent fields: i times a top-degree field, and seeded random fields."""
    result = prolong_full(model)
    rng = random.Random(SEED)
    top = realize_basis(result, result.top_degree)
    fields = [top[0] * GR_I] + [_random_field(rng, model.n, model.k) for _ in range(2)]
    for field in fields:
        cert = verify_hol(field, model)
        assert not cert.verdict
        assert cert.residuals == two_sided_verify_hol(field, model)


def test_residuals_match_two_sided_route_non_hermitian():
    rng = random.Random(SEED)
    for _ in range(6):
        field = _random_field(rng, 2, 1)
        cert = verify_hol(field, NON_HERMITIAN)
        assert not cert.verdict
        assert cert.residuals == two_sided_verify_hol(field, NON_HERMITIAN)
