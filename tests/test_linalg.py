import random
import time
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from helpers import apply, determinant, identity, transpose, zeros
from reference import RationalRowBasis, dense_rref, dense_solve

from crprolong import catalog, linalg
from crprolong.errors import DimensionError, InternalCheckError
from crprolong.linalg import ExactMatrix, gi_bareiss, gi_nullspace, sparse_int_nullspace
from crprolong.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational


def rand_entry(rng, complex_ok=True):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_ok and rng.random() < 0.5 else 0
    return GaussianRational(re, im)


def rand_matrix(rng, rows, cols, complex_ok=True):
    return ExactMatrix([[rand_entry(rng, complex_ok) for _ in range(cols)] for _ in range(rows)])


def naive_determinant(m):
    """Leibniz expansion — an independent oracle for small matrices."""
    n = m.rows
    total = GR_ZERO
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = GaussianRational(sign)
        for i in range(n):
            prod = prod * m[i, perm[i]]
        total = total + prod
    return total


def rank(m):
    return len(dense_rref(m)[1])


def gi_kernel(m):
    """``gi_nullspace`` of ``m`` scaled to Gaussian integers by the lcm of the
    denominators of its entries."""
    d = lcm(*(lcm(x.re.denominator, x.im.denominator) for row in m.entries for x in row))
    return gi_nullspace([[(int(x.re * d), int(x.im * d)) for x in row] for row in m.entries],
                        m.cols)


def dense_kernel(m):
    """Kernel straight from the free columns of the dense RREF."""
    rr, pivots = dense_rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    out = []
    for f in free:
        v = [GR_ZERO] * m.cols
        v[f] = GR_ONE
        for r, p in enumerate(pivots):
            if rr.entries[r][f]:
                v[p] = -rr.entries[r][f]
        out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_constructor_rejects_ragged():
    with pytest.raises(DimensionError):
        ExactMatrix([[1, 2], [3]])


def test_identity_zeros_getitem():
    eye = identity(3)
    assert eye[0, 0] == GR_ONE and eye[0, 1] == GR_ZERO
    z = zeros(2, 3)
    assert z.rows == 2 and z.cols == 3
    assert all(z[i, j] == GR_ZERO for i in range(2) for j in range(3))


def test_matmul_and_apply():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a @ b == ExactMatrix([[2, 1], [4, 3]])
    assert apply(a, (1, 1)) == (GaussianRational(3), GaussianRational(7))
    with pytest.raises(DimensionError):
        apply(a, (1, 1, 1))
    with pytest.raises(DimensionError):
        a @ ExactMatrix([[1, 2, 3]])


def test_hermitian_predicate():
    h = ExactMatrix([[1, GR_I], [-GR_I, 2]])
    assert h.is_hermitian()
    assert not ExactMatrix([[1, GR_I], [GR_I, 2]]).is_hermitian()
    assert not ExactMatrix([[GR_I]]).is_hermitian()
    assert not ExactMatrix([[1, 2]]).is_hermitian()


def test_conj_transpose_involution():
    rng = random.Random(21)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert m.conj_transpose().conj_transpose() == m
        assert transpose(transpose(m)) == m


def test_to_lists_round_trip():
    rng = random.Random(22)
    m = rand_matrix(rng, 3, 4)
    assert ExactMatrix.from_lists(m.to_lists()) == m


# ---------------------------------------------------------------------------
# elimination: frozen oracles
# ---------------------------------------------------------------------------


def test_nullspace_frozen_hermitian_rank_one():
    m = ExactMatrix([[GR_ONE, GR_I], [-GR_I, GR_ONE]])
    basis = gi_kernel(m)
    assert basis == [(-GR_I, GR_ONE)]
    assert rank(m) == 1
    assert apply(m, basis[0]) == (GR_ZERO, GR_ZERO)


def test_determinant_frozen_catalog_values():
    hs = catalog.make_codim5().model.hermitian
    assert determinant(hs[2]) == GR_ONE      # the permutation-like coupling form
    assert determinant(hs[3]) == GR_ZERO     # a rank-one form
    assert determinant(identity(4)) == GR_ONE


def test_determinant_small_hand_values():
    assert determinant(ExactMatrix([[2]])) == GaussianRational(2)
    assert determinant(ExactMatrix([[1, 2], [3, 4]])) == GaussianRational(-2)
    m = ExactMatrix([[GR_I, GR_ONE], [GR_ONE, GR_I]])
    assert determinant(m) == GaussianRational(-2)
    with pytest.raises(DimensionError):
        determinant(ExactMatrix([[1, 2]]))


def test_full_free_kernel():
    z = zeros(2, 3)
    assert gi_kernel(z) == [
        (GR_ONE, GR_ZERO, GR_ZERO),
        (GR_ZERO, GR_ONE, GR_ZERO),
        (GR_ZERO, GR_ZERO, GR_ONE),
    ]
    assert gi_kernel(identity(3)) == []


# ---------------------------------------------------------------------------
# elimination: randomized properties (seeded)
# ---------------------------------------------------------------------------


def test_determinant_matches_leibniz_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert determinant(m) == naive_determinant(m)


def test_bareiss_pivots_without_swaps_are_leading_minors():
    """The pass stops after the first zero pivot; small entries make zero
    leading minors common, so both the full and the cut-short runs occur."""
    rng = random.Random(29)
    cut = full = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        m = [[(rng.randint(-2, 2), rng.randint(-2, 2) if rng.random() < 0.5 else 0)
              for _ in range(n)] for _ in range(n)]
        minors = [naive_determinant(ExactMatrix([[GaussianRational(*x) for x in row[:size]]
                                                 for row in m[:size]]))
                  for size in range(1, n + 1)]
        stop = next((i for i, x in enumerate(minors) if not x), n - 1)
        pivots = list(gi_bareiss([list(row) for row in m], swap=False))
        assert pivots == [(x.re, x.im) for x in minors[:stop + 1]]
        cut += stop < n - 1
        full += stop == n - 1
    assert cut and full


def test_nullspace_vectors_annihilate_and_count():
    rng = random.Random(24)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = gi_kernel(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(x == GR_ZERO for x in apply(m, v))


def test_nullspace_is_canonical_under_row_shuffles():
    rng = random.Random(25)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        rows = list(m.entries)
        rng.shuffle(rows)
        shuffled = ExactMatrix(rows)
        assert gi_kernel(shuffled) == gi_kernel(m)
        # scaling rows by nonzero constants must not change the kernel either
        factors = [GaussianRational(rng.randint(1, 5)) for _ in range(m.rows)]
        scaled = ExactMatrix([[f * x for x in row]
                              for f, row in zip(factors, m.entries)])
        assert gi_kernel(scaled) == gi_kernel(m)


def test_sparse_and_dense_kernels_agree():
    rng = random.Random(26)
    for _ in range(40):
        rows_n = rng.randint(1, 6)
        cols_n = rng.randint(1, 6)
        dense_rows = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0
                       for _ in range(cols_n)] for _ in range(rows_n)]
        m = ExactMatrix(dense_rows)
        sparse = sparse_int_nullspace(
            [{j: v for j, v in enumerate(r) if v} for r in dense_rows], cols_n)
        dense = [{c: x.re for c, x in enumerate(v) if x} for v in dense_kernel(m)]
        assert sparse == dense


def test_kernel_guard_names_an_uncleared_pivot_column(monkeypatch):
    """The clearing step checks that it cleared every pivot column it was
    given.  With ``lcm`` broken to max |.|, a row holding the pivot columns 0
    and 1 (pivot entries 4 and 6) is scaled by 6, not 12, and keeps a
    nonzero on column 0: the kernel raises at once instead of returning a
    wrong basis."""
    rng = random.Random(30)
    odd = [rng.randrange(1, 10, 2) for _ in range(2)]     # no content to remove
    rows = [{0: 4, 2: odd[0]}, {1: 6, 2: odd[1]}, {c: rng.randint(1, 5) for c in range(4)}]
    good = sparse_int_nullspace(rows, 4)
    monkeypatch.setattr(linalg, "lcm", lambda *xs: max(map(abs, xs)))
    start = time.perf_counter()
    with pytest.raises(InternalCheckError, match="pivot column 0"):
        sparse_int_nullspace(rows, 4)
    assert time.perf_counter() - start < 1
    assert len(good) == 1


def test_nullspace_equals_dense_rref_kernel():
    """The realified sparse route gives the dense Q(i) RREF kernel exactly,
    on full-rank and rank-deficient, real and complex matrices."""
    rng = random.Random(29)
    for t in range(60):
        complex_ok = t % 3 != 0
        rows_n, cols_n = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows_n, cols_n, complex_ok)
        if t % 2:
            inner = rng.randint(1, min(rows_n, cols_n))
            m = rand_matrix(rng, rows_n, inner, complex_ok) @ rand_matrix(rng, inner, cols_n, complex_ok)
        assert gi_kernel(m) == dense_kernel(m)


def test_solve_round_trip_and_inconsistency():
    rng = random.Random(27)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = [rand_entry(rng) for _ in range(m.cols)]
        rhs = apply(m, x)
        got = dense_solve(m, rhs)
        assert got is not None
        assert apply(m, got) == rhs
    m = ExactMatrix([[1, 0], [0, 0]])
    assert dense_solve(m, (0, 1)) is None
    assert dense_solve(m, (3, 0)) == (GaussianRational(3), GR_ZERO)
    with pytest.raises(DimensionError):
        dense_solve(m, (1, 2, 3))


# ---------------------------------------------------------------------------
# row basis / membership
# ---------------------------------------------------------------------------


def test_row_basis_express_round_trip():
    rng = random.Random(28)
    for _ in range(30):
        nrows = rng.randint(1, 4)
        ncols = nrows + rng.randint(0, 3)
        while True:
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
            if rank(ExactMatrix(rows)) == nrows:
                break
        basis = RationalRowBasis(rows)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nrows)]
        vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        assert basis.express(vec) == tuple(coeffs)


def test_row_basis_rejects_dependent_rows():
    with pytest.raises(InternalCheckError):
        RationalRowBasis([[1, 2], [2, 4]])


def test_row_basis_rejects_outside_span():
    basis = RationalRowBasis([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(InternalCheckError):
        basis.express([0, 0, 1])
    with pytest.raises(DimensionError):
        basis.express([1, 0])
