import random
import sys
from fractions import Fraction
from math import comb

import pytest

from crprolong import catalog, verify
from crprolong.errors import DimensionError, InputError
from crprolong.model import QuadricModel
from crprolong.poly import PolyVectorField, packing
from crprolong.scalars import GR_I, GaussianRational
from crprolong.verify import jet_certificate, verify_hol
from helpers import (Poly, certify_jet_counterexample, check_rotation_identities,
                     codim4_display_variant, defining_polys, evaluate, poly_field,
                     residual_probe)
from reference import two_sided_surface_restriction


def heis_field(zc, wc):
    return poly_field(1, 1, [zc], [wc])


def rand_probe_point(rng, n, k):
    zs = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
           Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n)]
    us = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
    return zs, us


# ---------------------------------------------------------------------------
# basic verdicts
# ---------------------------------------------------------------------------


def test_rotation_field_is_tangent(heisenberg):
    z = Poly.variable(1, 1, "z", 0)
    cert = verify_hol(heis_field(GR_I * z, Poly.zero(1, 1)), heisenberg.model)
    assert cert.verdict
    assert all(r.is_zero() for r in cert.residuals)


def test_scaling_field_is_not_tangent(heisenberg):
    z = Poly.variable(1, 1, "z", 0)
    zb = Poly.variable(1, 1, "zb", 0)
    cert = verify_hol(heis_field(z, Poly.zero(1, 1)), heisenberg.model)
    assert not cert.verdict
    assert cert.residuals[0] == -(z * zb)


def test_zero_field_is_tangent(codim5):
    cert = verify_hol(PolyVectorField.zero(4, 5), codim5.model)
    assert cert.verdict


def test_known_codim5_fields_are_tangent(codim5):
    for name in ("X", "Y", "Z", "U", "T", "F"):
        assert verify_hol(codim5.known_fields[name], codim5.model).verdict, name


def test_known_codim4_field_is_tangent(codim4):
    assert verify_hol(codim4.known_fields["G"], codim4.model).verdict


def test_display_variant_codim4_is_not_tangent(codim4):
    bad = codim4_display_variant()
    assert not verify_hol(bad, codim4.model).verdict


def test_frame_mismatch(codim5, heisenberg):
    with pytest.raises(DimensionError):
        verify_hol(PolyVectorField.zero(1, 1), codim5.model)


# ---------------------------------------------------------------------------
# perturbation sensitivity (no false positives)
# ---------------------------------------------------------------------------


def test_single_coefficient_perturbations_break_tangency(codim5):
    X = codim5.known_fields["X"]
    n, k = 4, 5
    z2 = Poly.variable(n, k, "z", 1)
    tweaked = X + poly_field(
        n, k,
        [z2 * Fraction(1, 7), *(Poly.zero(n, k) for _ in range(n - 1))],
        [Poly.zero(n, k)] * k,
    )
    assert not verify_hol(tweaked, codim5.model).verdict


def test_scaled_defining_data_detects_wrong_model(heisenberg, codim5):
    # a field tangent to one model need not be tangent to another
    T = codim5.known_fields["T"]
    other = catalog.make_su_family(2)
    assert not verify_hol(T, other.model).verdict


# ---------------------------------------------------------------------------
# linearity over the reals, one-sidedness over i
# ---------------------------------------------------------------------------


def test_real_scalar_invariance(codim5):
    T = codim5.known_fields["T"]
    for q in (2, Fraction(-3, 5)):
        assert verify_hol(T * q, codim5.model).verdict
    Y = codim5.known_fields["Y"]
    assert verify_hol(T + Y, codim5.model).verdict


def test_multiplication_by_i_is_one_sided(heisenberg):
    z = Poly.variable(1, 1, "z", 0)
    scaling = heis_field(z, Poly.zero(1, 1))       # not tangent
    rotation = scaling * GR_I                       # tangent
    assert not verify_hol(scaling, heisenberg.model).verdict
    assert verify_hol(rotation, heisenberg.model).verdict


def test_tangent_fields_closed_under_bracket(codim5):
    kf = codim5.known_fields
    for a, b in (("X", "Y"), ("X", "T"), ("Y", "F"), ("Z", "U")):
        assert verify_hol(kf[a].bracket(kf[b]), codim5.model).verdict, (a, b)


# ---------------------------------------------------------------------------
# surface restriction
# ---------------------------------------------------------------------------


def test_defining_functions_restrict_to_zero(codim5):
    m = codim5.model
    n, k = m.n, m.k
    P = defining_polys(m)
    half_over_i = GaussianRational(0, Fraction(-1, 2))
    for j in range(k):
        w = Poly.variable(n, k, "w", j)
        wb = Poly.variable(n, k, "wb", j)
        rho = (w - wb) * half_over_i - P[j]
        assert two_sided_surface_restriction(rho, m).is_zero()


def test_surface_restriction_leaves_z_alone(heisenberg):
    m = heisenberg.model
    z = Poly.variable(1, 1, "z", 0)
    zb = Poly.variable(1, 1, "zb", 0)
    assert two_sided_surface_restriction(z * zb, m) == z * zb
    w = Poly.variable(1, 1, "w", 0)
    u = Poly.variable(1, 1, "u", 0)
    assert two_sided_surface_restriction(w, m) == u + GR_I * z * zb


def test_w_degree_above_the_recursion_limit(heisenberg):
    """w^N d/dw with N past Python's recursion limit: the restriction walks
    the N + 1 prefixes of (0,) * N without recursing.  Re(w^N / (2i)) on
    w = u + i z zb is the sum over odd m of (-1)^((m-1)/2) C(N, m)/2
    u^(N-m) (z zb)^m."""
    N = sys.getrecursionlimit() + 100
    field = PolyVectorField(1, 1, 1, [{}, {packing(2).pack((0, N)): (1, 0)}])
    cert = verify_hol(field, heisenberg.model)
    assert not cert.verdict
    assert cert.residuals[0].terms == {
        (m, m, 0, 0, N - m): GaussianRational(Fraction((-1) ** (m // 2) * comb(N, m), 2))
        for m in range(1, N + 1, 2)}


def test_residual_on_forms_with_denominators():
    """Im w = z zb / 3, so q = 3 and the parts of w-degree 1 and 3 are scaled
    by q^2 and q^0.  (w^3 + w) d/dw: Re((w^3 + w) / (2i)) on w = u + i P,
    P = z zb / 3, is (3 u^2 P - P^3 + P) / 2.  The Euler field
    z d/dz + 2 w d/dw, with parts of w-degree 0 and 1, is tangent."""
    model = QuadricModel([[[Fraction(1, 3)]]])
    assert verify._surface(model).q == 3
    pk = packing(2)
    field = PolyVectorField(1, 1, 1, [{}, {pk.pack((0, 3)): (1, 0), pk.pack((0, 1)): (1, 0)}])
    cert = verify_hol(field, model)
    assert not cert.verdict
    assert cert.residuals[0].terms == {
        (1, 1, 0, 0, 2): GaussianRational(Fraction(1, 2)),
        (3, 3, 0, 0, 0): GaussianRational(Fraction(-1, 54)),
        (1, 1, 0, 0, 0): GaussianRational(Fraction(1, 6))}
    euler = PolyVectorField(1, 1, 1, [{pk.pack((1, 0)): (1, 0)}, {pk.pack((0, 1)): (2, 0)}])
    assert verify_hol(euler, model).verdict


# ---------------------------------------------------------------------------
# jet certificates
# ---------------------------------------------------------------------------


def test_jet_certificate_for_known_counterexample(codim5):
    T = codim5.known_fields["T"]
    cert = jet_certificate(T, codim5.model, 2)
    assert cert.certified and cert.tangent and cert.nonzero
    assert cert.vanishing_order == 3
    assert certify_jet_counterexample(T, codim5.model, 2)
    # but T does not vanish to order 4
    assert not certify_jet_counterexample(T, codim5.model, 3)


def test_jet_certificate_top_field(codim5):
    F = codim5.known_fields["F"]
    cert = jet_certificate(F, codim5.model, 3)
    assert cert.certified
    assert cert.vanishing_order == 4


def test_jet_certificate_reuses_tangency_certificate(codim5, heisenberg):
    T = codim5.known_fields["T"]
    tangency = verify_hol(T, codim5.model)
    for jet in (2, 3):
        assert (jet_certificate(T, codim5.model, jet, tangency)
                == jet_certificate(T, codim5.model, jet))
    # an equal field built separately is accepted; a different one is not
    assert jet_certificate(T * 1, codim5.model, 2, tangency).certified
    with pytest.raises(InputError):
        jet_certificate(T * 2, codim5.model, 2, tangency)
    z = Poly.variable(1, 1, "z", 0)
    bad = heis_field(z, Poly.zero(1, 1))
    cert = jet_certificate(bad, heisenberg.model, 0, verify_hol(bad, heisenberg.model))
    assert not cert.tangent and not cert.certified


def test_jet_certificate_refuses_tangency_of_another_model(codim5):
    """codim5 with |z1|^2, |z2|^2 replaced by |z3|^2, |z4|^2 is a valid model
    to which T is not tangent: T's certificate on codim5 cannot certify it."""
    T = codim5.known_fields["T"]
    diagonal = [[[int(a == b == c) for b in range(4)] for a in range(4)] for c in (2, 3)]
    other = QuadricModel([*codim5.model.hermitian[:3], *diagonal])
    assert other.validate().all_passed
    assert not verify_hol(T, other).verdict
    with pytest.raises(InputError, match="different model"):
        jet_certificate(T, other, 2, verify_hol(T, codim5.model))
    assert not jet_certificate(T, other, 2).certified
    # the same model read back from its JSON is the same model
    again = QuadricModel.from_json(codim5.model.to_json())
    assert jet_certificate(T, again, 2, verify_hol(T, codim5.model)).certified


def test_surface_memo_is_keyed_by_model_value(codim5):
    """A model read back from its JSON is an equal model, and reuses the
    surface built for the first; eight models are kept."""
    verify_hol(PolyVectorField.zero(4, 5), codim5.model)
    hits = verify._surface.cache_info().hits
    again = QuadricModel.from_json(codim5.model.to_json())
    assert again is not codim5.model
    verify_hol(PolyVectorField.zero(4, 5), again)
    assert verify._surface.cache_info().hits == hits + 1
    assert verify._surface.cache_info().maxsize == 8


def test_euler_fails_jet_one(codim5, heisenberg):
    from crprolong.realize import euler_field

    for entry in (codim5, heisenberg):
        E = PolyVectorField.euler(entry.model.n, entry.model.k)
        cert = jet_certificate(E, entry.model, 1)
        assert not cert.certified
        assert cert.vanishing_order == 1


def test_zero_field_never_certifies(heisenberg):
    cert = jet_certificate(PolyVectorField.zero(1, 1), heisenberg.model, 2)
    assert cert.tangent and not cert.nonzero and not cert.certified
    assert cert.vanishing_order is None


def test_certificate_json(heisenberg):
    z = Poly.variable(1, 1, "z", 0)
    good = verify_hol(heis_field(GR_I * z, Poly.zero(1, 1)), heisenberg.model)
    data = good.to_json()
    assert data["verdict"] is True and "residuals" not in data
    bad = verify_hol(heis_field(z, Poly.zero(1, 1)), heisenberg.model)
    data = bad.to_json()
    assert data["verdict"] is False
    assert data["residuals"][0] != "0"
    jc = jet_certificate(heis_field(GR_I * z, Poly.zero(1, 1)), heisenberg.model, 0)
    assert jc.to_json() == {"jet": 0, "certified": True, "tangent": True,
                            "nonzero": True, "vanishing_order": 1}


# ---------------------------------------------------------------------------
# rotation identities on the codimension-5 model
# ---------------------------------------------------------------------------


def test_rotation_identities_all_hold(codim5):
    kf = codim5.known_fields
    out = check_rotation_identities(codim5.model, kf["X"], kf["Y"], kf["Z"], kf["U"])
    assert out == {name: True for name in out}
    assert len(out) == 8


def test_rotation_identities_detect_perturbation(codim5):
    kf = codim5.known_fields
    out = check_rotation_identities(codim5.model, kf["Y"], kf["X"], kf["Z"], kf["U"])
    assert not out["X_sends_P1"]


# ---------------------------------------------------------------------------
# numeric probes of symbolic residuals
# ---------------------------------------------------------------------------


def test_probe_zero_for_tangent_fields(codim5):
    rng = random.Random(71)
    T = codim5.known_fields["T"]
    for _ in range(200):
        point = rand_probe_point(rng, 4, 5)
        vals = residual_probe(T, codim5.model, point)
        assert all(v.is_zero() for v in vals)


def test_probe_detects_nontangent_field(heisenberg, codim4):
    z = Poly.variable(1, 1, "z", 0)
    vals = residual_probe(heis_field(z, Poly.zero(1, 1)), heisenberg.model,
                          ([(1, 0)], [0]))
    assert vals == (GaussianRational(-1),)
    # the non-tangent display variant shows up under random probing
    rng = random.Random(72)
    bad = codim4_display_variant()
    hits = 0
    for _ in range(200):
        point = rand_probe_point(rng, 6, 4)
        if any(not v.is_zero() for v in residual_probe(bad, codim4.model, point)):
            hits += 1
    assert hits > 0


def test_probe_values_match_polynomial_evaluation(heisenberg):
    rng = random.Random(73)
    z = Poly.variable(1, 1, "z", 0)
    field = heis_field(z, Poly.zero(1, 1))
    cert = verify_hol(field, heisenberg.model)
    for _ in range(50):
        zs, us = rand_probe_point(rng, 1, 1)
        (zx, zy), u = zs[0], us[0]
        got = residual_probe(field, heisenberg.model, ([(zx, zy)], [u]))[0]
        zval = GaussianRational(zx, zy)
        point = [zval, zval.conjugate(), GaussianRational(0), GaussianRational(0),
                 GaussianRational(u)]
        assert got == evaluate(cert.residuals[0], point)


def test_probe_shape_error(heisenberg):
    with pytest.raises(DimensionError):
        residual_probe(PolyVectorField.zero(1, 1), heisenberg.model, ([], [0]))
