"""The two searches of ``validate`` against their reference route.

``QuadricModel._definite_combination`` and ``tumanov_search`` build each
candidate combination from the forms scaled once to Gaussian integers; the
definite search filters candidates by their diagonal and reads every leading
principal minor off one Bareiss pass.  ``tests/reference.py`` keeps the route
that built each combination as an ``ExactMatrix`` and ran one determinant per
leading minor.  Both must return the same c (or None) on the catalog ladder,
on seeded random Hermitian models and on models where the 3,000-candidate
cap would decide the verdict.  The library skips the candidates that the
forms' zero pattern rules out (a diagonal position or a row zero in the
forms they combine); the counts below show which candidates it builds.
"""

import json
import random
from fractions import Fraction

import pytest

from helpers import determinant
from reference import _combine, _leading_minors, dense_definite_combination, dense_tumanov_search

from crprolong import catalog
from crprolong import model as model_module
from crprolong.cli import main
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


def _counting(monkeypatch):
    """Count the candidates the searches enumerate and the combinations they
    build; a candidate enumerated but not built was skipped."""
    counts = {"enumerated": 0, "built": 0}
    signed_tuples, combination = model_module._signed_tuples, model_module._combination

    def counted_tuples(k, bound):
        for c in signed_tuples(k, bound):
            counts["enumerated"] += 1
            yield c

    def counted_combination(*args):
        counts["built"] += 1
        return combination(*args)

    monkeypatch.setattr(model_module, "_signed_tuples", counted_tuples)
    monkeypatch.setattr(model_module, "_combination", counted_combination)
    return counts


def test_random_models_reach_both_skips(monkeypatch):
    """The seeded set reaches the definite search's return on a diagonal
    position zero in every form, the Tumanov search's return on a row zero in
    every form, and its skip of a candidate that misses a row's forms."""
    counts = _counting(monkeypatch)
    definite_skips = tumanov_returns = tumanov_skips = 0
    for model in random_models():
        counts.update(enumerated=0, built=0)
        model._definite_combination(1)
        definite_skips += counts["enumerated"] == 0
        counts.update(enumerated=0, built=0)
        tumanov_search(model)
        tumanov_returns += counts["enumerated"] == 0
        tumanov_skips += counts["enumerated"] > counts["built"] > 0
    assert definite_skips and tumanov_returns and tumanov_skips


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


def _zero_diagonal_model():
    """k = 8 forms on C^3 spanning the Hermitian forms with a zero (3, 3) entry:
    E_11, E_22 / 2 and, for (a, b) = (1, 2), (1, 3), (2, 3), E_ab + E_ba and
    i (E_ab - E_ba).  They validate, and no row is zero in every form, but
    every candidate of the definite search has a zero diagonal entry."""
    z, one, i = GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)
    forms = [[[one, z, z], [z, z, z], [z, z, z]],
             [[z, z, z], [z, GaussianRational(Fraction(1, 2)), z], [z, z, z]]]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for x in (one, i):
            h = [[z] * 3 for _ in range(3)]
            h[a][b], h[b][a] = x, x.conjugate()
            forms.append(h)
    return QuadricModel(forms)


def test_zero_diagonal_position_skips_the_capped_search(monkeypatch):
    model = _zero_diagonal_model()
    assert model.validate(0).all_passed
    assert len(list(_signed_tuples(model.k, 1))) > model_module._DEFINITE_LIMIT
    assert dense_definite_combination(model, 1) is None
    assert dense_definite_combination(model, 1, 3 ** model.k) is None
    assert tumanov_search(model) == dense_tumanov_search(model)
    counts = _counting(monkeypatch)
    assert model._definite_combination(1) is None
    assert counts == {"enumerated": 0, "built": 0}


@pytest.mark.parametrize("extra", [2, 4])
def test_tumanov_builds_one_candidate_on_codim5_extensions(extra, monkeypatch):
    """Each sphere direction's form is the only one with a nonzero new row,
    so every candidate before the witness misses a row and is skipped."""
    model = catalog.get("codim5", extra=extra).model
    counts = _counting(monkeypatch)
    assert tumanov_search(model) == (0, 0, 1, 0, 0) + (1,) * extra
    assert counts["built"] == 1


def test_shared_zero_row_fails_fast(capsys, tmp_path, monkeypatch):
    """k = 12 forms diag(j, 0) share a zero second row, so `validate` fails
    the model without enumerating any of the 5^12 - 1 Tumanov candidates."""
    path = tmp_path / "zero_row.json"
    forms = [[[j, 0], [0, 0]] for j in range(1, 13)]
    path.write_text(json.dumps(QuadricModel(forms).to_json()), encoding="utf-8")
    counts = _counting(monkeypatch)
    assert main(["validate", str(path)]) == 1
    assert "tumanov witness: none within bound" in capsys.readouterr().out
    assert counts == {"enumerated": 0, "built": 0}
