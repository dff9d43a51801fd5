import copy
import random
from fractions import Fraction

import pytest

from helpers import (Poly, apply, defining_polys, determinant, formal_conjugate, j_apply,
                     lt_bracket, reconstruct_model, validate_invariants)

from crprolong import catalog
from crprolong.errors import (
    AlgebraError,
    DegenerateModelError,
    DimensionError,
    InputError,
)
from crprolong.linalg import ExactMatrix
from crprolong.model import (
    LeviTanakaAlgebra,
    QuadricModel,
    build_levi_tanaka,
    tumanov_search,
)
from crprolong.scalars import GR_I, GaussianRational


def all_catalog_models():
    return [
        ("codim5", catalog.make_codim5().model),
        ("codim4", catalog.make_codim4().model),
        ("heisenberg", catalog.make_heisenberg().model),
    ]


# ---------------------------------------------------------------------------
# construction / serialization
# ---------------------------------------------------------------------------


def test_constructor_shape_errors():
    with pytest.raises(DimensionError):
        QuadricModel(())
    with pytest.raises(DimensionError):
        QuadricModel((ExactMatrix([[1]]), ExactMatrix([[1, 0], [0, 1]])))
    with pytest.raises(DimensionError):
        QuadricModel((ExactMatrix([[1, 0]]),))


def test_json_round_trip_all_catalog():
    for name, m in all_catalog_models():
        assert QuadricModel.from_json(m.to_json()) == m, name


def test_json_malformed():
    good = catalog.make_heisenberg().model.to_json()
    for mutate in (
        lambda d: d.pop("hermitian"),
        lambda d: d.update(n="x"),
        lambda d: d.update(n=3),
        lambda d: d["hermitian"][0].__setitem__(0, ["nope"]),
    ):
        bad = copy.deepcopy(good)
        mutate(bad)
        with pytest.raises(InputError):
            QuadricModel.from_json(bad)


def test_fingerprint_deterministic():
    a = catalog.make_codim5().model
    b = catalog.make_codim5().model
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != catalog.make_codim4().model.fingerprint()


# ---------------------------------------------------------------------------
# defining polynomials
# ---------------------------------------------------------------------------


def test_defining_polys_heisenberg():
    m = catalog.make_heisenberg().model
    z = Poly.variable(1, 1, "z", 0)
    zb = Poly.variable(1, 1, "zb", 0)
    assert defining_polys(m) == [z * zb]


def test_defining_polys_codim5_second_form():
    m = catalog.make_codim5().model
    n, k = m.n, m.k
    z1 = Poly.variable(n, k, "z", 0)
    z2 = Poly.variable(n, k, "z", 1)
    zb1 = Poly.variable(n, k, "zb", 0)
    zb2 = Poly.variable(n, k, "zb", 1)
    assert defining_polys(m)[1] == -GR_I * z1 * zb2 + GR_I * z2 * zb1


def test_defining_polys_are_formally_real():
    for name, m in all_catalog_models():
        for p in defining_polys(m):
            assert formal_conjugate(p) == p, name


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_all_catalog_pass():
    for name, m in all_catalog_models():
        rep = m.validate()
        assert rep.all_passed, name
        assert all(rep.hermitian_ok)
        assert rep.dependency is None and rep.kernel_witness is None


def test_validate_non_hermitian():
    m = QuadricModel((ExactMatrix([[GR_I]]),))
    rep = m.validate()
    assert rep.hermitian_ok == (False,)
    assert not rep.all_passed
    assert rep.definite_combination is None


def test_validate_dependent_forms():
    h = ExactMatrix([[1, 0], [0, 1]])
    m = QuadricModel((h, h.scale(2)))
    rep = m.validate()
    assert not rep.independent
    assert rep.dependency is not None
    # the witness is an exact dependency among the flattened forms
    assert not rep.all_passed


def test_validate_common_kernel():
    m = QuadricModel((ExactMatrix([[1, 0], [0, 0]]),))
    rep = m.validate()
    assert rep.independent
    assert not rep.common_kernel_trivial
    assert rep.kernel_witness is not None
    v = rep.kernel_witness
    for h in m.hermitian:
        assert all(x.is_zero() for x in apply(h, v))


def test_validate_definite_combination():
    rep = catalog.make_heisenberg().model.validate()
    assert rep.definite_combination == (1,)
    # a negative-definite combination certifies too (sign of c is irrelevant)
    m = QuadricModel((ExactMatrix([[-1]]),))
    assert m.validate().definite_combination == (1,)
    # indefinite single form admits no certificate at bound 1
    ind = QuadricModel((ExactMatrix([[1, 0], [0, -1]]),))
    assert ind.validate().definite_combination is None


def test_validation_report_json():
    rep = catalog.make_codim5().model.validate()
    data = rep.to_json()
    assert data["all_passed"] is True
    assert data["hermitian"] == [True] * 5


# ---------------------------------------------------------------------------
# tumanov search
# ---------------------------------------------------------------------------


def test_tumanov_codim5():
    m = catalog.make_codim5().model
    c = tumanov_search(m)
    assert c == (0, 0, 1, 0, 0)
    combo = None
    for h, cj in zip(m.hermitian, c):
        if cj:
            t = h.scale(cj)
            combo = t if combo is None else combo + t
    assert determinant(combo) == GaussianRational(1)


def test_tumanov_heisenberg_and_diag_pair():
    assert tumanov_search(catalog.make_heisenberg().model) == (1,)
    m = QuadricModel((ExactMatrix([[1, 0], [0, 0]]), ExactMatrix([[0, 0], [0, 1]])))
    assert tumanov_search(m) == (1, 1)


def test_tumanov_exhausted_returns_none():
    m = QuadricModel((ExactMatrix([[0]]),))
    assert tumanov_search(m) is None


def test_tumanov_requires_hermitian():
    with pytest.raises(DegenerateModelError,
                       match="tumanov search requires Hermitian forms"):
        tumanov_search(QuadricModel((ExactMatrix([[GR_I]]),)))


# ---------------------------------------------------------------------------
# Levi-Tanaka algebra
# ---------------------------------------------------------------------------


def test_bracket_values_codim5():
    lt = build_levi_tanaka(catalog.make_codim5().model)
    n = lt.n
    e1 = tuple(Fraction(i == 0) for i in range(2 * n))
    je1 = tuple(Fraction(i == n) for i in range(2 * n))
    e2 = tuple(Fraction(i == 1) for i in range(2 * n))
    assert lt_bracket(lt, e1, je1) == (0, 0, 0, -4, 0)
    assert lt_bracket(lt, e1, e2) == (0, -4, 0, 0, 0)
    assert lt_bracket(lt, je1, e2) == (4, 0, 0, 0, 0)
    assert lt_bracket(lt, e1, e1) == (0, 0, 0, 0, 0)


def test_bracket_values_heisenberg():
    lt = build_levi_tanaka(catalog.make_heisenberg().model)
    assert lt_bracket(lt, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) == (-4,)


def test_bracket_antisymmetry_random():
    lt = build_levi_tanaka(catalog.make_codim5().model)
    rng = random.Random(51)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2 * lt.n))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2 * lt.n))
        bxy = lt_bracket(lt, x, y)
        byx = lt_bracket(lt, y, x)
        assert all(a == -b for a, b in zip(bxy, byx))
        assert lt_bracket(lt, x, x) == (0,) * lt.k
        # J-compatibility on arbitrary vectors
        assert lt_bracket(lt, j_apply(lt, x), j_apply(lt, y)) == bxy


def test_j_apply_squares_to_minus_one():
    lt = build_levi_tanaka(catalog.make_codim4().model)
    rng = random.Random(52)
    x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2 * lt.n))
    assert j_apply(lt, j_apply(lt, x)) == tuple(-v for v in x)
    idx, sign = lt.j_index(0)
    assert (idx, sign) == (lt.n, 1)
    idx, sign = lt.j_index(lt.n)
    assert (idx, sign) == (0, -1)


def test_invariants_pass_on_catalog():
    for name, m in all_catalog_models():
        validate_invariants(build_levi_tanaka(m))


def test_invariant_violations_raise():
    # not antisymmetric: nonzero diagonal cell
    with pytest.raises(AlgebraError, match="antisymmetric"):
        validate_invariants(LeviTanakaAlgebra(1, 1, [[(1,), (4,)], [(-4,), (0,)]]))
    # antisymmetric but not J-invariant: [e1,e2] != [Je1,Je2]  (n=2)
    z = (Fraction(0),)
    table = [[z] * 4 for _ in range(4)]
    table[0][1], table[1][0] = (Fraction(4),), (Fraction(-4),)
    with pytest.raises(AlgebraError, match="J-invariant"):
        validate_invariants(LeviTanakaAlgebra(2, 1, table))
    # all-zero brackets: not fundamental
    ztable = [[z] * 2 for _ in range(2)]
    with pytest.raises(AlgebraError, match="fundamental"):
        validate_invariants(LeviTanakaAlgebra(1, 1, ztable))
    # fundamental and J-invariant, but e_2 and Je_2 bracket trivially (H = diag(1, 0))
    table = [[z] * 4 for _ in range(4)]
    table[2][0], table[0][2] = (Fraction(4),), (Fraction(-4),)
    with pytest.raises(AlgebraError, match="degenerate bracket"):
        validate_invariants(LeviTanakaAlgebra(2, 1, table))


def test_build_rejects_invalid_model():
    with pytest.raises(DegenerateModelError):
        build_levi_tanaka(QuadricModel((ExactMatrix([[1, 0], [0, 0]]),)))


def test_reconstruct_round_trip():
    for name, m in all_catalog_models():
        assert reconstruct_model(build_levi_tanaka(m)) == m, name
