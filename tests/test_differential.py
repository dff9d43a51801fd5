"""Seeded differential test of the prolongation on small random models.

Each model has n, k <= 3 and Hermitian entries drawn from
{-1, 0, 1} + {-1, 0, 1} i; draws that fail ``validate(0)`` are rejected.
For each model the dims profile must equal the independent oracle's through
top + 1, the structure constants must equal the dense reference route, the
Jacobi certificate must pass and agree with the full reference sweep on the
triple count, and every realized basis field must be tangent (``verify_hol``)
and of its own weighted degree.
"""

import random

import pytest

from helpers import dense_constants, tangency_sweep
from oracle import hol_profile
from reference import dense_structure_constants, full_jacobi_sweep

from crprolong.model import QuadricModel
from crprolong.prolong import prolong_full
from crprolong.scalars import GaussianRational

SEED = 61
COUNT = 12


def _random_hermitian(rng, n):
    h = [[None] * n for _ in range(n)]
    for a in range(n):
        h[a][a] = GaussianRational(rng.randint(-1, 1))
        for b in range(a + 1, n):
            re, im = rng.randint(-1, 1), rng.randint(-1, 1)
            h[a][b] = GaussianRational(re, im)
            h[b][a] = GaussianRational(re, -im)
    return h


def random_models(seed=SEED, count=COUNT):
    """The first ``count`` valid draws of a seeded generator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        model = QuadricModel([_random_hermitian(rng, n) for _ in range(k)])
        if model.validate(0).all_passed:
            out.append(model)
    return out


@pytest.mark.parametrize("model", random_models(),
                         ids=lambda m: f"n{m.n}k{m.k}")
def test_random_model_matches_oracle_and_reference(model):
    result = prolong_full(model, use_cache=False)
    alg = result.algebra
    top = result.top_degree
    assert hol_profile(model, top + 1) == {d: alg.dim(d) for d in range(-2, top + 2)}
    assert dense_constants(alg) == dense_structure_constants(alg)
    assert alg.check_jacobi() == full_jacobi_sweep(alg) > 0
    assert tangency_sweep(result) == sum(alg.dims.values())


@pytest.mark.parametrize("model", random_models(),
                         ids=lambda m: f"n{m.n}k{m.k}")
def test_random_model_json_renders_dense_reference(model):
    # these constants have fractional entries and no golden digest pins them
    result = prolong_full(model)
    want = {f"{i},{j}": [[[f"({x})+(0)i" for x in vec] for vec in row] for row in block]
            for (i, j), block in sorted(dense_structure_constants(result.algebra).items())}
    assert result.to_json()["structure_constants"] == want
