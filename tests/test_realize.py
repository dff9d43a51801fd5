import random
from fractions import Fraction

import pytest

from helpers import (Poly, abstract_bracket, basis_index, grading_element_coeffs,
                     poly_field, realized_basis_map, sigma_sweep)
from reference import dense_express_in_span

from crprolong import prolong, realize
from crprolong.errors import DimensionError, InputError
from crprolong.poly import PolyVectorField
from crprolong.realize import (
    BRACKET_SIGN,
    euler_field,
    express_in_span,
    realize_basis,
    realize_element,
)
from crprolong.scalars import GR_I, GaussianRational


def test_bracket_sign_is_global_constant():
    assert BRACKET_SIGN == -1


# ---------------------------------------------------------------------------
# frozen low-degree realizations
# ---------------------------------------------------------------------------


def test_degree_minus_two_basis_is_dw(codim5_result, heisenberg_result):
    for res in (codim5_result, heisenberg_result):
        n, k = res.model.n, res.model.k
        fields = realize_basis(res, -2)
        assert len(fields) == k
        for j, f in enumerate(fields):
            expected = poly_field(
                n, k,
                [Poly.zero(n, k)] * n,
                [Poly.constant(n, k, int(jj == j)) for jj in range(k)],
            )
            assert f == expected


def test_degree_minus_one_heisenberg():
    from crprolong.prolong import prolong_full
    from crprolong import catalog

    res = prolong_full(catalog.make_heisenberg().model)
    n, k = 1, 1
    z = Poly.variable(n, k, "z", 0)
    zero = Poly.zero(n, k)
    e1, je1 = realize_basis(res, -1)
    # e_1 -> d/dz + 2i z d/dw ;  Je_1 -> i d/dz + 2 z d/dw  (2i * z * conj(i))
    assert e1 == poly_field(n, k, [Poly.constant(n, k, 1)], [2 * GR_I * z])
    assert je1 == poly_field(n, k, [Poly.constant(n, k, GR_I)], [2 * z])


def test_degree_minus_one_codim5_first_vector(codim5_result):
    n, k = 4, 5
    fields = realize_basis(codim5_result, -1)
    assert len(fields) == 8
    zero = Poly.zero(n, k)
    z1 = Poly.variable(n, k, "z", 0)
    z2 = Poly.variable(n, k, "z", 1)
    z4 = Poly.variable(n, k, "z", 3)
    two_i = 2 * GR_I
    expected = poly_field(
        n, k,
        [Poly.constant(n, k, 1), zero, zero, zero],
        [two_i * z2, two_i * GR_I * z2, two_i * z4, two_i * z1, zero],
    )
    assert fields[0] == expected


# ---------------------------------------------------------------------------
# structural properties of realized fields
# ---------------------------------------------------------------------------


def test_realized_weights_heisenberg(heisenberg_result):
    alg = heisenberg_result.algebra
    for d, a in basis_index(alg):
        unit = [0] * alg.dims[d]
        unit[a] = 1
        assert realize_element(alg, d, unit).weighted_degree() == d


def test_euler_is_realized_grading_element(heisenberg_result, codim5_result):
    for res in (heisenberg_result, codim5_result):
        alg = res.algebra
        coeffs = grading_element_coeffs(alg)
        assert realize_element(alg, 0, coeffs) == euler_field(res)


def test_euler_eigenvalue_on_realized_fields(codim5_result):
    E = euler_field(codim5_result)
    alg = codim5_result.algebra
    for d in (-2, -1, 0, 3, 6):
        for f in realize_basis(codim5_result, d):
            assert E.bracket(f) == f * d


def test_realization_is_injective(heisenberg_result, codim5_result):
    for res in (heisenberg_result, codim5_result):
        alg = res.algebra
        for d in alg.degrees():
            fields = realize_basis(res, d)
            if not fields:
                continue
            for i, f in enumerate(fields):
                unit = [0] * len(fields)
                unit[i] = 1
                assert not f.is_zero()
            # linear independence: no field is a combination of the others
            for i, f in enumerate(fields):
                others = fields[:i] + fields[i + 1:]
                if others:
                    assert express_in_span(f, others) is None


def test_bracket_compatibility_heisenberg_full(heisenberg_result):
    checked = sigma_sweep(heisenberg_result.algebra)
    assert checked == 8 * 9 // 2


def test_bracket_compatibility_codim5_sample(codim5_result):
    alg = codim5_result.algebra
    idx = basis_index(alg)
    rng = random.Random(61)
    pairs = [(rng.choice(idx), rng.choice(idx)) for _ in range(60)]
    assert sigma_sweep(alg, pairs) == 60


def test_linearity_of_realization(codim5_result):
    alg = codim5_result.algebra
    rng = random.Random(62)
    d = 2
    dim = alg.dims[d]
    c1 = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    c2 = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    f1 = realize_element(alg, d, c1)
    f2 = realize_element(alg, d, c2)
    summed = realize_element(alg, d, [a + b for a, b in zip(c1, c2)])
    assert summed == f1 + f2


# ---------------------------------------------------------------------------
# span membership
# ---------------------------------------------------------------------------


def test_known_degree4_field_lies_in_degree4_slice(codim5_result):
    from crprolong import catalog

    T = catalog.make_codim5().known_fields["T"]
    basis4 = realize_basis(codim5_result, 4)
    coeffs = express_in_span(T, basis4)
    assert coeffs is not None
    rebuilt = PolyVectorField.zero(4, 5)
    for c, f in zip(coeffs, basis4):
        rebuilt = rebuilt + f * c
    assert rebuilt == T


def test_known_degree6_field_spans_top_slice(codim5_result):
    from crprolong import catalog

    F = catalog.make_codim5().known_fields["F"]
    basis6 = realize_basis(codim5_result, 6)
    assert len(basis6) == 1
    coeffs = express_in_span(F, basis6)
    assert coeffs is not None and coeffs[0] != 0


def test_degree4_field_is_not_in_top_slice(codim5_result):
    from crprolong import catalog

    T = catalog.make_codim5().known_fields["T"]
    assert express_in_span(T, realize_basis(codim5_result, 6)) is None


def test_express_in_span_euler(codim5_result):
    alg = codim5_result.algebra
    E = euler_field(codim5_result)
    coeffs = express_in_span(E, realize_basis(codim5_result, 0))
    assert coeffs == tuple(grading_element_coeffs(alg))
    assert express_in_span(E, realize_basis(codim5_result, 1)) is None


def test_express_in_span_matches_dense_solve(heisenberg_result, codim4_result):
    """Seeded dependent field sets: the sparse kernel answer equals the dense
    solve (free coefficients 0), for targets inside and outside the span.
    Each set is also solved with its fields scaled by 1/3 and by 2i/5, so the
    fields have different denominators and the imaginary scaling can leave
    real rows empty.  A field of the next degree lies outside both spans, and i
    times a nonzero tangent field, which is not tangent, outside the span of
    the unscaled set."""
    rng = random.Random(63)
    checked = 0
    for res in (heisenberg_result, codim4_result):
        for d in (-1, 0, 1):
            basis = realize_basis(res, d)
            for _ in range(4):
                fields = []
                for _ in range(rng.randint(1, len(basis) + 2)):
                    f = PolyVectorField.zero(res.model.n, res.model.k)
                    for b in basis:
                        if rng.random() < 0.5:
                            f = f + b * rng.randint(-2, 2)
                    fields.append(f)
                scaled = [f * (Fraction(1, 3) if j % 2 else GaussianRational(0, Fraction(2, 5)))
                          for j, f in enumerate(fields)]
                inside = fields[0] * 0
                for f in fields:
                    inside = inside + f * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                b, beyond = rng.choice(basis), realize_basis(res, d + 1)[0]
                for field_set in (fields, scaled):
                    for target in (inside, b, beyond):
                        assert express_in_span(target, field_set) == \
                            dense_express_in_span(target, field_set)
                        checked += 1
                    assert express_in_span(beyond, field_set) is None
                assert express_in_span(b * GR_I, fields) is None
                assert dense_express_in_span(b * GR_I, fields) is None
    assert checked == 144
    assert express_in_span(PolyVectorField.zero(1, 1), []) == ()


def test_express_in_span_frame_mismatch(codim5_result, heisenberg_result):
    E5 = euler_field(codim5_result)
    E1 = euler_field(heisenberg_result)
    with pytest.raises(DimensionError):
        express_in_span(E5, [E1])


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_realize_element_input_errors(heisenberg_result):
    alg = heisenberg_result.algebra
    with pytest.raises(DimensionError):
        realize_element(alg, 0, [1])      # g_0 is 2-dimensional here
    with pytest.raises(InputError):
        realize_element(alg, -3, [])


def test_realize_basis_returns_a_new_list(codim5_result):
    """The basis is realized once per algebra; a caller that mutates the list
    it got cannot change what the next caller gets."""
    first = realize_basis(codim5_result, 6)
    want = list(first)
    first.append(first[0])
    first[0] = euler_field(codim5_result)
    second = realize_basis(codim5_result, 6)
    assert second is not first
    assert second == want


def test_realize_basis_of_vanishing_degree(heisenberg_result):
    assert realize_basis(heisenberg_result, 3) == []
    assert realize_basis(heisenberg_result, 17) == []


def test_piece_tables_are_scaled_once_per_algebra(codim5, monkeypatch):
    """Prolonging, realizing every degree and then computing the structure
    constants scales the phi/psi tables of each degree -1..6 exactly once: the
    system build scales them, and the algebra, realization and the structure
    constants read that one integer table per degree."""
    scaled = prolong._scaled
    calls = []

    def counting(tables):
        calls.append(tables)
        return scaled(tables)

    for module in (prolong, realize):       # wherever the helper is bound
        if hasattr(module, "_scaled"):
            monkeypatch.setattr(module, "_scaled", counting)
    result = prolong.prolong_full(codim5.model, use_cache=False)
    alg = result.algebra
    for d in alg.degrees():
        realize_basis(result, d)
    alg.structure_constants()
    counts = {d: sum(t == [[phi for phi, _ in piece], [psi for _, psi in piece]]
                     for t in calls)
              for d, piece in alg.pieces.items() if d >= -1}
    assert counts == {d: 1 for d in range(-1, 7)}
