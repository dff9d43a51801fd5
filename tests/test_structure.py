"""Structure constants and the Jacobi sweep: reference route and failure modes.

The library reads bracket coefficients off the canonical kernel basis; the
dense expression route in ``reference.py`` must give the same constants.
Each failure-mode test corrupts a copy of an algebra in one way and checks
that the exact checks refuse it with a message that locates the fault.
"""

from fractions import Fraction

import pytest

from reference import dense_structure_constants

from crprolong.errors import InternalCheckError
from crprolong.prolong import GradedLieAlgebra


def copy_with_element(alg, d, g, phi=None, psi=None):
    """A fresh algebra equal to ``alg`` except for element g of degree d."""
    pieces = dict(alg.pieces)
    elems = list(pieces[d])
    old_phi, old_psi = elems[g]
    elems[g] = (old_phi if phi is None else phi, old_psi if psi is None else psi)
    pieces[d] = elems
    return GradedLieAlgebra(alg.lt, pieces)


def test_read_off_matches_dense_route_heisenberg(heisenberg_result):
    alg = heisenberg_result.algebra
    assert dense_structure_constants(alg) == alg.structure_constants()


def test_read_off_matches_dense_route_codim4(codim4_result):
    alg = codim4_result.algebra
    assert dense_structure_constants(alg) == alg.structure_constants()


def test_uncorrupted_copy_passes(heisenberg_result):
    alg = heisenberg_result.algebra
    copy = copy_with_element(alg, 2, 0)
    assert copy.structure_constants() == alg.structure_constants()
    assert copy.check_jacobi() == alg.check_jacobi()


def test_changed_psi_entry_fails_closure(heisenberg_result):
    # g_2 is one element with psi row (c4, c5) in columns 4, 5 of the
    # (phi, psi) layout; c4 = 0 and the trailing column is 5, so setting
    # column 4 to 1 keeps the canonical form and the phi part, and only
    # closure can fail
    alg = heisenberg_result.algebra
    phi, psi = alg.pieces[2][0]
    assert alg._sparse(2).trailing == (5,)
    assert [t for t, _ in psi[0]] == [1]
    bad_psi = (((0, Fraction(1)),) + psi[0],)
    copy = copy_with_element(alg, 2, 0, psi=bad_psi)
    with pytest.raises(InternalCheckError,
                       match=r"bracket of basis elements \(1,0\) and \(1,1\) "
                             r"\(degree, index\) does not close in g_2: first "
                             r"mismatch at column 4"):
        copy.structure_constants()


def test_dependent_phi_parts_fail_faithfulness(heisenberg_result):
    alg = heisenberg_result.algebra
    copy = copy_with_element(alg, 1, 1, phi=alg.pieces[1][0][0])
    with pytest.raises(InternalCheckError,
                       match="degree 1 elements are not determined by their g_-1 action"):
        copy.structure_constants()


def test_broken_trailing_column_fails(heisenberg_result):
    alg = heisenberg_result.algebra
    phi, psi = alg.pieces[1][0]

    def double(table):
        return tuple(tuple((t, 2 * x) for t, x in row) for row in table)

    copy = copy_with_element(alg, 1, 0, phi=double(phi), psi=double(psi))
    with pytest.raises(InternalCheckError,
                       match="degree 1 basis element 0 is not in canonical kernel "
                             "form at its trailing column 4: value 2"):
        copy.structure_constants()


def test_changed_structure_constant_fails_jacobi(heisenberg_result):
    alg = heisenberg_result.algebra
    copy = GradedLieAlgebra(alg.lt, dict(alg.pieces))
    sc = copy.structure_constants()
    vec = sc[(0, 1)][0][0]
    sc[(0, 1)][0][0] = (vec[0] + 1,) + vec[1:]
    with pytest.raises(InternalCheckError,
                       match=r"Jacobi failure on basis triple \(-2,0\), \(0,0\), "
                             r"\(1,0\) \(degree, index\): component 0 of g_-1"):
        copy.check_jacobi()
