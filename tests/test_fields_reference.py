"""The realization and the tangency check against their reference routes.

The library realizes each degree's basis once and combines those fields, and
checks tangency in integers: it restricts only the holomorphic half of
Re(X rho_j) to the surface, scaled to Gaussian integers by a denominator per
w-degree, and compares it with its formal conjugate.  ``reference.py`` keeps
the chain on every coefficient vector and the two-sided restriction over
Q(i) (``two_sided_surface_restriction``).  Both must give the same fields and
the same residual polynomials: on real and Gaussian-rational combinations,
on every realized basis field of the seeded differential models and of two
rescaled codim4 quadrics (one with rational forms), on perturbed,
non-tangent copies of those fields, and on a model file whose form is not
Hermitian.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from helpers import Poly, defining_polys, poly_field
from reference import chain_realize_element, two_sided_verify_hol
from test_differential import random_models
from test_structure import scaled_codim4

from crprolong import catalog, verify
from crprolong.cli import main
from crprolong.model import QuadricModel
from crprolong.poly import gi_integral, packing
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
    return poly_field(n, k, [_random_poly(rng, n, k, ("z", "w")) for _ in range(n)],
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


# so_family(4) has seven forms, so its top field's w-exponent tuples are
# deeper and wider (up to four variables, repeated and distinct) than in MODELS
DEEP = MODELS + [("so_family4", catalog.get("so_family", n=4).model)]


@pytest.mark.parametrize("name, model", DEEP, ids=[name for name, _ in DEEP])
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


def rational_codim4():
    """codim4 with its forms H_j replaced by D H_j D, D = diag(1/3, 1/5, 1, ...):
    forms with denominators 3, 5 and 15, so each w-degree of a restriction
    carries its own power of their lcm."""
    model = catalog.make_codim4().model
    d = (Fraction(1, 3), Fraction(1, 5)) + (1,) * (model.n - 2)
    return QuadricModel([[[h.entries[a][b] * (d[a] * d[b]) for b in range(model.n)]
                          for a in range(model.n)] for h in model.hermitian])


TANGENT = ([(f"random{i}-n{m.n}k{m.k}", m) for i, m in enumerate(random_models())]
           + [("scaled_codim4", scaled_codim4()), ("rational_codim4", rational_codim4())])


@pytest.mark.parametrize("name, model", TANGENT, ids=[name for name, _ in TANGENT])
def test_basis_residuals_match_two_sided_route(name, model):
    """Every realized basis field is tangent on both routes; i times it is not,
    nor is it plus a seeded random field (one per degree), and the residual
    polynomials of those copies are the same on both routes."""
    result = prolong_full(model)
    rng = random.Random(SEED)
    checked = 0
    for d in result.algebra.degrees():
        basis = realize_basis(result, d)
        copies = [f * GR_I for f in basis]
        copies += [basis[0] + _random_field(rng, model.n, model.k)] if basis else []
        for field in basis + copies:
            cert = verify_hol(field, model)
            assert cert.verdict == (field in basis)
            assert cert.residuals == two_sided_verify_hol(field, model)
            checked += 1
    assert checked == 2 * sum(result.dims.values()) + len(result.dims)


def test_rational_codim4_restriction_has_fractional_residuals():
    model = rational_codim4()
    assert {x.denominator for p in defining_polys(model)
            for c in p.terms.values() for x in (c.re, c.im)} == {1, 3, 5, 15}
    top = realize_basis(prolong_full(model), 4)[0]
    cert = verify_hol(top * GR_I, model)
    assert any(c.re.denominator > 1 or c.im.denominator > 1
               for r in cert.residuals for c in r.terms.values())


SURFACES = [("heisenberg", catalog.make_heisenberg().model),
            ("codim5", catalog.make_codim5().model),
            ("rational_codim4", rational_codim4()), ("non_hermitian", NON_HERMITIAN)]


@pytest.mark.parametrize("name, model", SURFACES, ids=[name for name, _ in SURFACES])
def test_surface_packs_the_defining_polys(name, model):
    """The restriction data verify_hol reads are made from the packed forms
    P_j = sum h_ab z_a zb_b: its q and its substitution polynomials
    q u_l + i P'_l equal those of the reference ring's defining polynomials,
    packed into the (z, zb, u) frame."""
    n, k = model.n, model.k
    pk = packing(2 * n + k)
    q, P = gi_integral([{pk.pack(m[:2 * n] + m[2 * n + 2 * k:]): c for m, c in p.terms.items()}
                        for p in defining_polys(model)])
    surface = verify._Surface(model)
    assert surface.q == q
    assert surface.maps[0] == verify._w_map(P, pk.units[2 * n:], q)
    assert len(surface.maps) == (2 if name == "non_hermitian" else 1)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_verify_json_matches_two_sided_route_on_non_hermitian_file(tmp_path):
    """``verify --json`` on a model file with a non-Hermitian form prints the
    residual text of the two-sided route."""
    model_path, field_path = tmp_path / "model.json", tmp_path / "field.json"
    model_path.write_text(json.dumps(NON_HERMITIAN.to_json()), encoding="utf-8")
    model = QuadricModel.from_json(json.loads(model_path.read_text(encoding="utf-8")))
    rng = random.Random(SEED + 1)
    for _ in range(3):
        field = _random_field(rng, 2, 1)
        field_path.write_text(json.dumps(field.to_json()), encoding="utf-8")
        code, out = _run(["verify", "--json", str(model_path), "--field", str(field_path)])
        assert code == 1
        assert json.loads(out)["residuals"] == [r.text() for r in two_sided_verify_hol(field, model)]
