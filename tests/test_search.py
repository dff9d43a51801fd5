"""The two searches of ``validate`` against their reference route.

``QuadricModel._definite_combination`` and ``tumanov_search`` build each
candidate combination from the forms scaled once to Gaussian integers; the
definite search filters candidates by their diagonal and reads every leading
principal minor off one Bareiss pass.  ``tests/reference.py`` keeps the route
that built each combination as an ``ExactMatrix`` and ran one determinant per
leading minor.  Both must return the same c (or None) on the catalog ladder,
on seeded random Hermitian models and on a model where the 3,000-candidate
cap decides the verdict.
"""

import random
from fractions import Fraction

import pytest

from helpers import determinant
from reference import _combine, _leading_minors, dense_definite_combination, dense_tumanov_search

from crprolong import catalog
from crprolong import model as model_module
from crprolong.model import QuadricModel, _signed_tuples, tumanov_search
from crprolong.scalars import GaussianRational

SEED = 71
COUNT = 40

LADDER = [("heisenberg", e) for e in range(4)] + [("codim4", 0)] + [("codim5", e) for e in range(4)]


@pytest.mark.parametrize("name,extra", LADDER, ids=lambda x: str(x))
def test_ladder_searches_match_reference(name, extra):
    model = catalog.get(name, extra=extra).model
    assert model._definite_combination(1) == dense_definite_combination(model, 1)
    assert tumanov_search(model) == dense_tumanov_search(model)


def _entry(rng, gaussian):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if gaussian else 0
    return GaussianRational(re, im)


def _random_form(rng, n, gaussian, sign=0):
    """A random Hermitian form; diagonally dominant of that sign if sign != 0."""
    h = [[None] * n for _ in range(n)]
    for a in range(n):
        d = _entry(rng, False).re
        h[a][a] = GaussianRational(sign * (3 * n + abs(d)) if sign else d)
        for b in range(a + 1, n):
            x = _entry(rng, gaussian)
            h[a][b], h[b][a] = x, x.conjugate()
    return h


def random_models(seed=SEED, count=COUNT):
    """Seeded models with n <= 4, k <= 3, cycling through four kinds: plain
    random forms, one positive-definite form, a negative-definite last form
    (the first candidate tried), and forms with a common null vector."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        forms = [_random_form(rng, n, rng.random() < 0.5) for _ in range(k)]
        kind = i % 4
        if kind == 1:
            forms[rng.randrange(k)] = _random_form(rng, n, True, 1)
        elif kind == 2:
            forms[-1] = _random_form(rng, n, True, -1)
        elif kind == 3:
            for h in forms:
                for a in range(n):
                    h[a][n - 1] = h[n - 1][a] = GaussianRational(0)
        out.append(QuadricModel(forms))
    return out


@pytest.mark.parametrize("model", random_models(), ids=lambda m: f"n{m.n}k{m.k}")
def test_random_searches_match_reference(model):
    for bound in (1, 2):
        assert model._definite_combination(bound) == dense_definite_combination(model, bound)
    assert tumanov_search(model) == dense_tumanov_search(model)


def _definite_sign(matrix):
    """1 or -1 if the Hermitian matrix is positive or negative definite, else 0."""
    minors = [determinant(sub).re for sub in _leading_minors(matrix)]
    for s in (1, -1):
        if all(x * s ** m > 0 for m, x in enumerate(minors, 1)):
            return s
    return 0


def test_random_models_cover_every_case():
    """The seeded set exercises each branch: both witness signs, no witness,
    no Tumanov witness, and a candidate that the diagonal lets through but
    the pivots reject."""
    signs, tumanov_none, diagonal_only = set(), 0, 0
    for model in random_models():
        c = model._definite_combination(1)
        signs.add(_definite_sign(_combine(model.hermitian, c)) if c else 0)
        tumanov_none += tumanov_search(model) is None
        for c in _signed_tuples(model.k, 1):
            combo = _combine(model.hermitian, c)
            diag = [combo[a, a].re for a in range(model.n)]
            if (all(x > 0 for x in diag) or all(x < 0 for x in diag)) \
                    and not _definite_sign(combo):
                diagonal_only += 1
    assert signs == {1, -1, 0}
    assert tumanov_none and diagonal_only


def _cap_model():
    """k = 8 forms on C^3 whose first definite combination is candidate 3,158.

    H_1 = [[1, i/2, 0], [-i/2, 0, 0], [0, 0, 0]], H_2 = diag(0, 1, 0),
    H_3 = diag(0, 0, 1) and H_j = diag(0, 2^(j-3), -2^(j-3)) for j = 4..8.
    With s = sum_{j >= 4} c_j 2^(j-3) the diagonal is (c_1, c_2 + s, c_3 - s);
    s != 0 means |s| >= 2, which splits the signs, so the first definite c
    is (1, 1, 1, 0, 0, 0, 0, 0), and the diagonal rejects every earlier one.
    """
    z, one, half_i = GaussianRational(0), GaussianRational(1), GaussianRational(0, Fraction(1, 2))
    forms = [[[one, half_i, z], [-half_i, z, z], [z, z, z]],
             [[z, z, z], [z, one, z], [z, z, z]],
             [[z, z, z], [z, z, z], [z, z, one]]]
    for j in range(1, 6):
        p = GaussianRational(2 ** j)
        forms.append([[z, z, z], [z, p, z], [z, z, -p]])
    return QuadricModel(forms)


def test_cap_counts_filtered_candidates(monkeypatch):
    model = _cap_model()
    first = (1, 1, 1, 0, 0, 0, 0, 0)
    assert list(_signed_tuples(model.k, 1)).index(first) == 3158
    assert model_module._DEFINITE_LIMIT == 3000
    for limit in (3000, 3158, 3159):
        monkeypatch.setattr(model_module, "_DEFINITE_LIMIT", limit)
        assert model._definite_combination(1) == (first if limit > 3158 else None)
    monkeypatch.undo()
    # None at 3,158 implies None at any smaller limit
    assert dense_definite_combination(model, 1, 3158) is None
    assert dense_definite_combination(model, 1, 3159) == first
    assert model.validate().definite_combination is None
