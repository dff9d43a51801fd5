import operator
import random
from fractions import Fraction

import pytest

from helpers import (Poly, apply_field, diff, evaluate, formal_conjugate, min_total_degree,
                     poly_field, power, total_degree)
from reference import monomial_subs

from crprolong import catalog, poly
from crprolong.errors import DimensionError, InputError
from crprolong.poly import DEGREE_CAP, PolyVectorField
from crprolong.scalars import GR_I, GR_ONE, GaussianRational


def rand_coeff(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
    )


def rand_poly(rng, n, k, nterms=4, kinds=("z", "zb", "w", "wb", "u")):
    p = Poly.zero(n, k)
    for _ in range(nterms):
        term = Poly.constant(n, k, rand_coeff(rng))
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(kinds)
            size = n if kind in ("z", "zb") else k
            term = term * Poly.variable(n, k, kind, rng.randrange(size))
        p = p + term
    return p


def rand_point(rng, n, k):
    return [rand_coeff(rng) for _ in range(2 * n + 3 * k)]


def rand_field(rng, n, k, nterms=3):
    zc = [rand_poly(rng, n, k, nterms, kinds=("z", "w")) for _ in range(n)]
    wc = [rand_poly(rng, n, k, nterms, kinds=("z", "w")) for _ in range(k)]
    return poly_field(n, k, zc, wc)


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


def test_library_poly_is_a_read_only_view():
    """The library's Poly carries no arithmetic; the ring lives in the tests."""
    for name in ("__add__", "__sub__", "__mul__", "__neg__", "constant", "variable"):
        assert not hasattr(poly.Poly, name)
    assert isinstance(Poly.variable(1, 1, "z", 0), poly.Poly)
    assert poly.Poly(1, 1, {(1, 0, 0, 0, 0): 1}) == Poly.variable(1, 1, "z", 0)


def test_variable_and_constant():
    z1 = Poly.variable(2, 1, "z", 0)
    assert total_degree(z1) == 1
    assert Poly.constant(2, 1, 0).is_zero()
    assert Poly.zero(2, 1) == Poly.constant(2, 1, 0)
    with pytest.raises(InputError):
        Poly.variable(2, 1, "q", 0)
    with pytest.raises(InputError):
        Poly.variable(2, 1, "z", 2)
    with pytest.raises(InputError):
        Poly.variable(2, 1, "u", 1)


def test_frame_mismatch_raises():
    a = Poly.variable(2, 1, "z", 0)
    b = Poly.variable(1, 1, "z", 0)
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        a * b
    # +, - and the bracket of fields: a codim5 field and a heisenberg field
    codim5 = catalog.make_codim5().known_fields["T"]
    heisenberg = PolyVectorField.euler(1, 1)
    for f, g in ((codim5, heisenberg), (heisenberg, codim5)):
        for op in (operator.add, operator.sub, PolyVectorField.bracket):
            with pytest.raises(DimensionError, match="different variable frames"):
                op(f, g)


def test_ring_axioms_random():
    rng = random.Random(31)
    for _ in range(30):
        p, q, r = (rand_poly(rng, 2, 2) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly.zero(2, 2)
        assert p * 1 == p
        assert p * 0 == Poly.zero(2, 2)


def test_scalar_mixing():
    z = Poly.variable(1, 1, "z", 0)
    assert 2 * z == z * 2
    assert z + 1 == 1 + z
    assert 1 - z == -(z - 1)
    assert GR_I * z == z * GR_I
    assert Fraction(1, 2) * z + Fraction(1, 2) * z == z


def test_pow_matches_repeated_multiplication():
    rng = random.Random(32)
    p = rand_poly(rng, 2, 1)
    acc = Poly.constant(2, 1, 1)
    for e in range(5):
        assert power(p, e) == acc
        acc = acc * p
    with pytest.raises(InputError):
        power(p, -1)


def test_diff_basics_and_leibniz():
    n, k = 2, 2
    z1 = Poly.variable(n, k, "z", 0)
    w1 = Poly.variable(n, k, "w", 0)
    p = z1 * z1 * w1
    assert diff(p, "z", 0) == 2 * z1 * w1
    assert diff(p, "w", 0) == z1 * z1
    assert diff(p, "z", 1).is_zero()
    rng = random.Random(33)
    for _ in range(20):
        a, b = rand_poly(rng, n, k), rand_poly(rng, n, k)
        assert diff(a * b, "z", 0) == diff(a, "z", 0) * b + a * diff(b, "z", 0)
        assert diff(diff(a, "z", 0), "w", 1) == diff(diff(a, "w", 1), "z", 0)


def test_formal_conjugate():
    n, k = 2, 1
    z1 = Poly.variable(n, k, "z", 0)
    zb1 = Poly.variable(n, k, "zb", 0)
    w1 = Poly.variable(n, k, "w", 0)
    wb1 = Poly.variable(n, k, "wb", 0)
    u1 = Poly.variable(n, k, "u", 0)
    assert formal_conjugate(GR_I * z1) == -GR_I * zb1
    assert formal_conjugate(w1) == wb1
    assert formal_conjugate(u1) == u1
    rng = random.Random(34)
    for _ in range(20):
        p, q = rand_poly(rng, n, k), rand_poly(rng, n, k)
        assert formal_conjugate(formal_conjugate(p)) == p
        assert formal_conjugate(p * q) == formal_conjugate(p) * formal_conjugate(q)
        assert formal_conjugate(p + q) == formal_conjugate(p) + formal_conjugate(q)


def test_subs_is_simultaneous():
    n, k = 2, 1
    z1 = Poly.variable(n, k, "z", 0)
    z2 = Poly.variable(n, k, "z", 1)
    p = z1 * z1 + z2
    swapped = monomial_subs(p, {("z", 0): z2, ("z", 1): z1})
    assert swapped == z2 * z2 + z1
    # substituting a polynomial
    w1 = Poly.variable(n, k, "w", 0)
    assert monomial_subs(z1 * z1, {("z", 0): w1 + 1}) == w1 * w1 + 2 * w1 + 1


def test_subs_evaluate_consistency():
    rng = random.Random(35)
    n, k = 2, 1
    for _ in range(20):
        p = rand_poly(rng, n, k)
        c = rand_coeff(rng)
        pt = rand_point(rng, n, k)
        q = monomial_subs(p, {("z", 0): Poly.constant(n, k, c)})
        pt2 = list(pt)
        pt2[0] = c
        assert evaluate(q, pt2) == evaluate(p, pt2)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(36)
    n, k = 2, 2
    for _ in range(20):
        p, q = rand_poly(rng, n, k), rand_poly(rng, n, k)
        pt = rand_point(rng, n, k)
        assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
        assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
    with pytest.raises(DimensionError):
        evaluate(Poly.variable(n, k, "z", 0), [1, 2])


def test_degrees_and_zero():
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    w = Poly.variable(n, k, "w", 0)
    p = z * z + w
    assert total_degree(p) == 2
    assert min_total_degree(p) == 1
    assert total_degree(Poly.zero(n, k)) is None
    assert min_total_degree(Poly.zero(n, k)) is None
    assert not Poly.zero(n, k)
    assert bool(p)


def test_text_canonical_order():
    n, k = 2, 1
    z1 = Poly.variable(n, k, "z", 0)
    z2 = Poly.variable(n, k, "z", 1)
    p = z2 + z1 * z1
    assert p.text() == "(1)+(0)i*z1^2 + (1)+(0)i*z2"
    assert Poly.zero(n, k).text() == "0"
    # graded lex: among equal total degree, earlier variables first
    q = z1 + z2
    assert q.text() == "(1)+(0)i*z1 + (1)+(0)i*z2"


# ---------------------------------------------------------------------------
# PolyVectorField
# ---------------------------------------------------------------------------


def test_apply_to_is_a_derivation():
    rng = random.Random(37)
    n, k = 2, 1
    for _ in range(15):
        F = rand_field(rng, n, k)
        p, q = rand_poly(rng, n, k), rand_poly(rng, n, k)
        assert apply_field(F, p * q) == apply_field(F, p) * q + p * apply_field(F, q)
        # zb, wb, u content passes through undifferentiated
        zb = Poly.variable(n, k, "zb", 0)
        assert apply_field(F, zb).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(38)
    n, k = 1, 1
    zero = PolyVectorField.zero(n, k)
    for _ in range(10):
        A, B, C = (rand_field(rng, n, k, nterms=2) for _ in range(3))
        assert A.bracket(B) + B.bracket(A) == zero
        jac = (A.bracket(B).bracket(C) + B.bracket(C).bracket(A)
               + C.bracket(A).bracket(B))
        assert jac == zero


def test_bracket_on_polynomials_matches_commutator():
    rng = random.Random(39)
    n, k = 1, 1
    for _ in range(10):
        A, B = rand_field(rng, n, k, nterms=2), rand_field(rng, n, k, nterms=2)
        p = rand_poly(rng, n, k, kinds=("z", "w"))
        assert (apply_field(A.bracket(B), p)
                == apply_field(A, apply_field(B, p)) - apply_field(B, apply_field(A, p)))


def test_euler_field():
    E = PolyVectorField.euler(2, 2)
    assert E.weighted_degree() == 0
    z1 = Poly.variable(2, 2, "z", 0)
    w2 = Poly.variable(2, 2, "w", 1)
    assert apply_field(E, z1) == z1
    assert apply_field(E, w2) == 2 * w2
    assert apply_field(E, z1 * w2) == 3 * z1 * w2


def test_weighted_degree():
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    w = Poly.variable(n, k, "w", 0)
    zero = Poly.zero(n, k)
    # d/dz has weight -1, z*d/dz weight 0, w*d/dz weight 1, z d/dw weight -1
    assert poly_field(n, k, [z], [zero]).weighted_degree() == 0
    assert poly_field(n, k, [w], [zero]).weighted_degree() == 1
    assert poly_field(n, k, [zero], [w * w]).weighted_degree() == 2
    assert PolyVectorField.zero(n, k).weighted_degree() is None
    mixed = poly_field(n, k, [z], [w * w])
    assert mixed.weighted_degree() is None


def test_ordinary_vanishing_order():
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    w = Poly.variable(n, k, "w", 0)
    zero = Poly.zero(n, k)
    assert poly_field(n, k, [z * z], [w * z]).ordinary_vanishing_order() == 2
    assert poly_field(n, k, [z + 1], [zero]).ordinary_vanishing_order() == 0
    assert PolyVectorField.zero(n, k).ordinary_vanishing_order() is None


def test_field_linear_structure_and_poly_scaling():
    rng = random.Random(40)
    n, k = 2, 1
    A, B = rand_field(rng, n, k), rand_field(rng, n, k)
    assert A + B - B == A
    assert -A == A * -1
    p = rand_poly(rng, n, k, kinds=("z", "w"))
    assert p * A == A * p
    assert (p * A).z_comps[0] == p * A.z_comps[0]


def test_field_json_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        F = rand_field(rng, 2, 2)
        assert PolyVectorField.from_json(F.to_json()) == F
    zero = PolyVectorField.zero(1, 1)
    assert PolyVectorField.from_json(zero.to_json()) == zero


def test_field_json_rejects_malformed():
    good = PolyVectorField.euler(1, 1).to_json()
    for mutate in (
        lambda d: d.pop("terms"),
        lambda d: d["terms"].append({"target": "q1", "z_exp": [0], "w_exp": [0], "coeff": "(1)+(0)i"}),
        lambda d: d["terms"].append({"target": "z1", "z_exp": [0, 0], "w_exp": [0], "coeff": "(1)+(0)i"}),
        lambda d: d["terms"].append({"target": "z1", "z_exp": [-1], "w_exp": [0], "coeff": "(1)+(0)i"}),
        lambda d: d["terms"].append({"target": "z1", "z_exp": [0], "w_exp": [0], "coeff": "nope"}),
        lambda d: d["terms"].append({"target": "z9", "z_exp": [0], "w_exp": [0], "coeff": "(1)+(0)i"}),
        lambda d: d.update(n="x"),
    ):
        import copy

        bad = copy.deepcopy(good)
        mutate(bad)
        with pytest.raises(InputError):
            PolyVectorField.from_json(bad)
    # a target is z or w followed by a decimal index in 1..n or 1..k
    for target in ("z0", "w0", "z+1", "z-1", "z2", "w2", "z", "", "Z1", "z 1", "z\u0661"):
        bad = copy.deepcopy(good)
        bad["terms"].append({"target": target, "z_exp": [0], "w_exp": [0],
                             "coeff": "(1)+(0)i"})
        with pytest.raises(InputError, match="bad target"):
            PolyVectorField.from_json(bad)


def _term(target, z_exp, w_exp, coeff):
    return {"target": target, "z_exp": z_exp, "w_exp": w_exp, "coeff": coeff}


def test_field_json_sums_duplicate_terms_and_drops_cancelling_ones():
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    data = {"n": n, "k": k, "terms": [
        _term("z1", [1], [0], "(1)+(0)i"),
        _term("w1", [0], [1], "(2)+(0)i"),
        _term("z1", [1], [0], "(1/2)+(1)i"),
        _term("w1", [2], [0], "(0)+(1/3)i"),
        _term("w1", [0], [1], "(-2)+(0)i"),
        _term("z1", [0], [0], "(0)+(0)i"),
    ]}
    F = PolyVectorField.from_json(data)
    assert F == poly_field(n, k, [z * GaussianRational(Fraction(3, 2), 1)],
                           [z * z * GaussianRational(0, Fraction(1, 3))])
    assert F.to_json()["terms"] == [_term("z1", [1], [0], "(3/2)+(1)i"),
                                    _term("w1", [2], [0], "(0)+(1/3)i")]
    # a component whose terms all cancel is zero
    data["terms"] = [_term("w1", [0], [1], "(1)+(1)i"), _term("w1", [0], [1], "(-1)+(-1)i")]
    assert PolyVectorField.from_json(data) == PolyVectorField.zero(n, k)


def test_exponent_at_slot_capacity_is_rejected():
    """An exponent or total degree of DEGREE_CAP would carry into the next
    packed slot: reading it raises InputError, one below it round-trips."""
    n, k = 2, 1
    data = {"n": n, "k": k, "terms": [_term("z1", [0, DEGREE_CAP], [0], "(1)+(0)i")]}
    with pytest.raises(InputError, match="packed limit"):
        PolyVectorField.from_json(data)
    data["terms"] = [_term("z1", [1, DEGREE_CAP - 1], [0], "(1)+(0)i")]
    with pytest.raises(InputError, match="packed limit"):
        PolyVectorField.from_json(data)
    data["terms"] = [_term("w1", [0, DEGREE_CAP - 1], [0], "(1)+(0)i")]
    assert PolyVectorField.from_json(data).to_json() == data
    big = Poly(n, k, {(0, DEGREE_CAP, 0, 0, 0, 0, 0): 1})
    with pytest.raises(InputError, match="packed limit"):
        poly_field(n, k, [big, Poly.zero(n, k)], [Poly.zero(n, k)])


def test_product_and_bracket_past_slot_capacity_are_rejected():
    n, k = 2, 1
    zero = Poly.zero(n, k)
    half = Poly(n, k, {(0, DEGREE_CAP // 2 + 1, 0, 0, 0, 0, 0): 1})    # z2^(CAP/2 + 1)
    A = poly_field(n, k, [half, zero], [zero])                      # z2^h d/dz1
    B = poly_field(n, k, [zero, half], [zero])                      # z2^h d/dz2
    with pytest.raises(InputError, match="packed limit"):
        A * half
    with pytest.raises(InputError, match="packed limit"):
        A.bracket(B)                    # -h z2^(2h - 1) d/dz1
    # below the limit the same shapes are exact
    small = Poly(n, k, {(0, 3, 0, 0, 0, 0, 0): 1})
    a = poly_field(n, k, [small, zero], [zero])
    b = poly_field(n, k, [zero, small], [zero])
    z2 = Poly.variable(n, k, "z", 1)
    assert a.bracket(b) == poly_field(n, k, [z2 * z2 * z2 * z2 * z2 * -3, zero], [zero])


def test_field_text():
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    F = poly_field(n, k, [z], [Poly.zero(n, k)])
    assert F.text() == "((1)+(0)i*z1) d/dz1"
    assert PolyVectorField.zero(n, k).text() == "0"
