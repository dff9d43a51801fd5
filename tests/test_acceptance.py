"""Acceptance suite: one test per shipped acceptance criterion.

All arithmetic is exact, so every comparison below is zero-tolerance equality.
A terminal-summary hook (see conftest.py) prints one ``criterion N: PASS/FAIL``
line per criterion at the end of the run; a criterion backed by several test
items (criterion 10 is parametrized over the catalog) is FAIL if any item
fails.

The codimension-5 entry ships two non-linear witnesses, and criteria 4 and 5
keep them apart by their exact grading eigenvalues under the Euler field
E = sum z d/dz + 2 sum w d/dw:

* criterion 4 pins the counterexample T (coefficients z w^2, vanishing to
  ordinary order 3): [E, T] = 4 T, so T is homogeneous of weighted degree 4.
* criterion 5 pins the top of the prolongation: the degree-6 slice is spanned
  by the order-4 field F ([E, F] = 6 F), while T lies in the degree-4 slice.

Criterion 11 prolongs so_family(4), the largest system the builder makes in
the default suite (a few seconds).
"""

import time

import pytest

from crprolong.catalog import make_so_family, make_su_family
from crprolong.model import tumanov_search
from crprolong.poly import PolyVectorField
from crprolong.prolong import prolong_full
from crprolong.realize import euler_field, express_in_span, realize_basis
from crprolong.scalars import GaussianRational
from crprolong.verify import verify_hol
from helpers import (SU2_TO_CODIM5, basis_index, certify_jet_counterexample,
                     check_rotation_identities, defining_polys, determinant,
                     realized_basis_map, sigma_sweep, tangency_sweep)
from oracle import hol_profile


def test_criterion_01(codim5):
    """The five shipped Hermitian forms are Hermitian, linearly independent,
    and have trivial common kernel; the sign search finds the real vector
    c = (0, 0, 1, 0, 0) with det(sum_j c_j H_j) = 1.  Runtime < 1 s."""
    t0 = time.perf_counter()
    model = codim5.model
    report = model.validate()
    assert all(report.hermitian_ok)
    assert report.independent
    assert report.common_kernel_trivial
    assert report.all_passed
    witness = tumanov_search(model)
    assert witness == (0, 0, 1, 0, 0)
    assert determinant(model.hermitian[2]) == GaussianRational(1)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02(codim5):
    """The defining polynomials of the codimension-5 model satisfy the exact
    syzygy P1^2 + P2^2 - 4 P4 P5 = 0.  Runtime < 1 s."""
    t0 = time.perf_counter()
    P = defining_polys(codim5.model)
    four = GaussianRational(4)
    assert (P[0] * P[0] + P[1] * P[1] - P[3] * P[4] * four).is_zero()
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03(codim5):
    """The four shipped linear fields X, Y, Z, U satisfy all eight derivation
    identities against the defining polynomials, and each is verified tangent
    to the codimension-5 model.  Runtime < 5 s."""
    t0 = time.perf_counter()
    f = codim5.known_fields
    identities = check_rotation_identities(codim5.model,
                                           f["X"], f["Y"], f["Z"], f["U"])
    assert len(identities) == 8
    assert all(identities.values()), identities
    for name in ("X", "Y", "Z", "U"):
        assert verify_hol(f[name], codim5.model).verdict, name
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04(codim5):
    """The shipped field T is a nonzero infinitesimal automorphism of the
    codimension-5 model whose coefficients vanish to ordinary order 3 at the
    origin, so its 2-jet at 0 is zero: 2-jet determination fails.  T is
    homogeneous of weighted degree 4, and the exact grading identity
    [E, T] = 4 T with the Euler field E confirms that eigenvalue
    independently of ``weighted_degree``.  Runtime < 10 s."""
    t0 = time.perf_counter()
    T = codim5.known_fields["T"]
    assert verify_hol(T, codim5.model).verdict
    assert not T.is_zero()
    assert T.ordinary_vanishing_order() == 3
    assert certify_jet_counterexample(T, codim5.model, 2)
    assert T.weighted_degree() == 4
    E = PolyVectorField.euler(codim5.model.n, codim5.model.k)
    assert E.bracket(T) == T * 4
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05(codim5, codim5_result):
    """The prolongation of the codimension-5 model terminates with top degree
    exactly 6 (the degree-7 piece vanishes), a nonzero degree-6 slice, and jet
    order 4.  The shipped order-4 field F lies in the exact span of the
    realized degree-6 basis with a nonzero coefficient, so the top slice is
    realized by the shipped sharpness witness; the counterexample T of
    criterion 4 lies in the span of the realized degree-4 basis."""
    result = codim5_result
    assert result.terminated
    assert result.top_degree == 6
    assert result.dims[6] > 0
    assert 7 not in result.dims
    assert result.jet_order == 4
    F = codim5.known_fields["F"]
    coeffs = express_in_span(F, realize_basis(result, 6))
    assert coeffs is not None
    assert any(coeffs)
    T = codim5.known_fields["T"]
    assert express_in_span(T, realize_basis(result, 4)) is not None


def test_criterion_06(codim4, codim4_result):
    """The shipped degree-4 field G is verified tangent to the codimension-4
    model; the prolongation has top degree 4 and jet order 3; and G lies in
    the exact span of the realized degree-4 basis."""
    G = codim4.known_fields["G"]
    assert verify_hol(G, codim4.model).verdict
    assert codim4_result.top_degree == 4
    assert codim4_result.jet_order == 3
    coeffs = express_in_span(G, realize_basis(codim4_result, 4))
    assert coeffs is not None


def test_criterion_07(heisenberg, heisenberg_result):
    """The sphere model Im w = |z1|^2 in C^2 has dimension profile
    (1, 2, 2, 2, 1) over degrees -2..2, total 8 (the dimension of the sphere's
    automorphism algebra), and the profile matches an independent brute-force
    tangency-ansatz solver degree by degree.  Runtime < 5 s."""
    t0 = time.perf_counter()
    result = heisenberg_result
    assert result.dims == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
    assert sum(result.dims.values()) == 8
    assert hol_profile(heisenberg.model, result.top_degree) == result.dims
    assert time.perf_counter() - t0 < 5.0


def test_criterion_08(codim5, codim4):
    """Family coherence: the orthogonal family at n = 3 reproduces the
    codimension-4 model exactly, and the unitary family at m = 2 reproduces
    the codimension-5 model up to the documented reordering of the Hermitian
    forms.  Runtime < 1 s."""
    t0 = time.perf_counter()
    so3 = make_so_family(3)
    assert so3.model == codim4.model
    su2 = make_su_family(2)
    assert sorted(SU2_TO_CODIM5) == list(range(5))
    assert len(su2.model.hermitian) == 5
    for i, h in enumerate(su2.model.hermitian):
        assert h == codim5.model.hermitian[SU2_TO_CODIM5[i]], i
    assert time.perf_counter() - t0 < 1.0


def test_criterion_09(extended_result):
    """Appending one positive-definite sphere direction to the codimension-5
    model leaves the prolongation profile's endpoints unchanged: top degree
    still 6, jet order still 4."""
    assert extended_result.terminated
    assert extended_result.top_degree == 6
    assert extended_result.jet_order == 4


@pytest.mark.slow
@pytest.mark.parametrize("name", ["heisenberg", "codim4", "codim5", "extended"])
def test_criterion_10(name, request):
    """Structural properties on every computed prolongation: the Jacobi
    identity holds on all basis triples; the realization is bracket-compatible
    with a single global sign on all basis pairs; every realized basis field
    is verified tangent with the expected weighted degree; the grading field E
    satisfies [E, X_b] = b X_b for every realized basis field; and the jet
    order is at most codimension + 1."""
    entry = request.getfixturevalue(name)
    result = request.getfixturevalue(name + "_result")
    alg = result.algebra

    assert alg.check_jacobi() > 0

    idx = basis_index(alg)
    assert sigma_sweep(alg) == len(idx) * (len(idx) + 1) // 2

    assert tangency_sweep(result) == len(idx)

    E = euler_field(result)
    for (d, a), f in realized_basis_map(alg).items():
        assert E.bracket(f) == f * d, (d, a)

    assert result.jet_order <= entry.model.k + 1


def test_criterion_11():
    """The orthogonal family at n = 4 prolongs to top degree 6 with jet order
    4 = n, with dimension profile (7, 16, 40, 56, 58, 48, 22, 8, 1) over
    degrees -2..6 and total dimension 256."""
    result = prolong_full(make_so_family(4).model)
    assert result.terminated
    assert result.dims == {-2: 7, -1: 16, 0: 40, 1: 56, 2: 58,
                           3: 48, 4: 22, 5: 8, 6: 1}
    assert sum(result.dims.values()) == 256
    assert result.top_degree == 6
    assert result.jet_order == 4
