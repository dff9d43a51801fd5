import hashlib
import json
import logging

import pytest

from helpers import check_grading, dense_constants, grading_element_coeffs, j_apply
from oracle import hol_dimension, hol_profile
from test_golden import GOLDEN

from crprolong.cli import main
from crprolong.errors import InternalCheckError, NonterminationError
from crprolong.linalg import ExactMatrix
from crprolong import prolong
from crprolong.model import QuadricModel, build_levi_tanaka
from crprolong.prolong import (
    clear_cache,
    compute_g0,
    jet_order,
    prolong_full,
    prolong_step,
)

CODIM5_DIMS = {-2: 5, -1: 8, 0: 17, 1: 20, 2: 21, 3: 16, 4: 8, 5: 4, 6: 1}
CODIM4_DIMS = {-2: 4, -1: 12, 0: 23, 1: 24, 2: 15, 3: 6, 4: 1}
HEISENBERG_DIMS = {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}
EXTENDED_DIMS = {-2: 6, -1: 10, 0: 19, 1: 22, 2: 22, 3: 16, 4: 8, 5: 4, 6: 1}


# ---------------------------------------------------------------------------
# frozen dimension profiles
# ---------------------------------------------------------------------------


def test_codim5_dims(codim5_result):
    assert codim5_result.dims == CODIM5_DIMS
    assert sum(CODIM5_DIMS.values()) == 100
    assert codim5_result.top_degree == 6
    assert codim5_result.jet_order == 4
    assert codim5_result.terminated


def test_codim4_dims(codim4_result):
    assert codim4_result.dims == CODIM4_DIMS
    assert sum(CODIM4_DIMS.values()) == 85
    assert codim4_result.top_degree == 4
    assert codim4_result.jet_order == 3


def test_heisenberg_dims(heisenberg_result):
    assert heisenberg_result.dims == HEISENBERG_DIMS
    assert heisenberg_result.top_degree == 2
    assert heisenberg_result.jet_order == 2


def test_extended_dims(extended_result):
    assert extended_result.dims == EXTENDED_DIMS
    assert extended_result.top_degree == 6
    assert extended_result.jet_order == 4


def test_dims_contain_no_zero_degrees(codim5_result, heisenberg_result):
    for res in (codim5_result, heisenberg_result):
        assert all(v > 0 for v in res.dims.values())
        assert res.algebra.dim(res.top_degree + 1) == 0
        assert res.algebra.dim(99) == 0
        assert res.algebra.degrees() == sorted(res.dims)


# ---------------------------------------------------------------------------
# independent oracle agreement
# ---------------------------------------------------------------------------


def test_oracle_full_profile_heisenberg(heisenberg, heisenberg_result):
    profile = hol_profile(heisenberg.model, heisenberg_result.top_degree + 1)
    expected = dict(heisenberg_result.dims)
    expected[heisenberg_result.top_degree + 1] = 0
    assert profile == expected


def test_oracle_full_profile_two_forms():
    m = QuadricModel((ExactMatrix([[1, 0], [0, 1]]), ExactMatrix([[0, 1], [1, 0]])))
    res = prolong_full(m)
    profile = hol_profile(m, res.top_degree + 1)
    expected = dict(res.dims)
    expected[res.top_degree + 1] = 0
    assert profile == expected


def test_oracle_spot_checks_large_models(codim5, codim4):
    assert hol_dimension(codim5.model, -1) == 8
    assert hol_dimension(codim5.model, 0) == 17
    assert hol_dimension(codim4.model, 0) == 23


# ---------------------------------------------------------------------------
# jet order
# ---------------------------------------------------------------------------


def test_jet_order_formula():
    assert jet_order(2) == 2
    assert jet_order(4) == 3
    assert jet_order(6) == 4
    assert jet_order(5) == 3
    assert jet_order(0) == 1


def test_jet_order_bounded_by_codim_plus_one(codim5_result, codim4_result,
                                             heisenberg_result, extended_result):
    for res in (codim5_result, codim4_result, heisenberg_result, extended_result):
        assert res.jet_order <= res.model.k + 1
        assert res.jet_order == jet_order(res.top_degree)


# ---------------------------------------------------------------------------
# algebraic consistency
# ---------------------------------------------------------------------------


def test_jacobi_heisenberg(heisenberg_result):
    count = heisenberg_result.algebra.check_jacobi()
    assert count > 0


def test_grading_heisenberg(heisenberg_result):
    alg = heisenberg_result.algebra
    coeffs = grading_element_coeffs(alg)
    assert len(coeffs) == alg.dim(0)
    assert any(coeffs)
    assert check_grading(alg) is True


def test_structure_constants_negative_degrees(heisenberg_result):
    alg = heisenberg_result.algebra
    n2 = 2 * alg.n
    # the (-1,-1) block is exactly the Levi-Tanaka bracket table
    assert dense_constants(alg)[(-1, -1)] == [
        [tuple(alg.lt.mbracket[a][b]) for b in range(n2)] for a in range(n2)]


def test_g0_contains_grading_pair(codim5):
    lt = build_levi_tanaka(codim5.model)
    basis = compute_g0(lt)
    assert len(basis) == 17
    # every phi commutes with J by construction; check one invariant directly
    n2 = 2 * lt.n
    for sparse_phi, psi in basis:
        phi = [[0] * n2 for _ in range(n2)]
        for s, entries in enumerate(sparse_phi):
            for t, x in entries:
                phi[s][t] = x
        for s in range(n2):
            js, eps = lt.j_index(s)
            lhs = [eps * x for x in phi[js]]
            rhs = list(j_apply(lt, phi[s]))
            assert lhs == rhs


def test_prolong_step_rejects_bad_degree(heisenberg):
    lt = build_levi_tanaka(heisenberg.model)
    with pytest.raises(ValueError):
        prolong_step(lt, {0: compute_g0(lt)}, -1)


# ---------------------------------------------------------------------------
# termination, caching, determinism
# ---------------------------------------------------------------------------


def test_nontermination_raises(codim5):
    with pytest.raises(NonterminationError):
        prolong_full(codim5.model, max_degree=3, use_cache=False)


def test_cache_returns_same_object(heisenberg):
    a = prolong_full(heisenberg.model)
    b = prolong_full(heisenberg.model)
    assert a is b
    c = prolong_full(heisenberg.model, use_cache=False)
    assert c is not a
    assert c.dims == a.dims


def test_cache_is_a_bounded_lru(heisenberg):
    """Each max_degree is its own cache key, so one small model fills it."""
    info = prolong._cached_prolong.cache_info
    size = info().maxsize
    clear_cache()
    results = {}
    for d in range(3, 3 + size + 2):
        results[d] = prolong_full(heisenberg.model, max_degree=d)
        assert info().currsize <= size
        # a hit returns the cached object and makes it the most recent
        assert prolong_full(heisenberg.model, max_degree=3) is results[3]
    # the least recently used entries (d = 4, 5) went first
    assert prolong_full(heisenberg.model, max_degree=6) is results[6]
    assert prolong_full(heisenberg.model, max_degree=4) is not results[4]
    assert info().currsize == size
    # a keyword and a positional cap share one key
    assert prolong_full(heisenberg.model, 6) is results[6]
    clear_cache()


def test_cache_is_keyed_by_model_value(heisenberg):
    """A model rebuilt from its JSON is equal to the original, so it hits
    the cached result."""
    clear_cache()
    a = prolong_full(heisenberg.model)
    rebuilt = QuadricModel.from_json(json.loads(json.dumps(heisenberg.model.to_json())))
    assert rebuilt is not heisenberg.model
    assert prolong_full(rebuilt) is a
    assert prolong._cached_prolong.cache_info().hits == 1
    clear_cache()


def test_recompute_is_byte_identical(heisenberg):
    import json

    a = prolong_full(heisenberg.model, use_cache=False)
    clear_cache()
    b = prolong_full(heisenberg.model, use_cache=False)
    ja = json.dumps(a.to_json(include_structure=True), sort_keys=True)
    jb = json.dumps(b.to_json(include_structure=True), sort_keys=True)
    assert ja == jb


def test_result_json_shape(heisenberg_result):
    data = heisenberg_result.to_json(include_structure=True)
    assert data["dims"] == {"-2": 1, "-1": 2, "0": 2, "1": 2, "2": 1}
    assert data["top_degree"] == 2
    assert data["jet_order"] == 2
    assert data["terminated"] is True
    # structure constants serialize as exact scalar text
    some_block = next(iter(data["structure_constants"].values()))
    assert all(x.endswith(")i") for row in some_block for vec in row for x in vec)
    lean = heisenberg_result.to_json(include_structure=False)
    assert "structure_constants" not in lean


# ---------------------------------------------------------------------------
# per-degree debug stats
# ---------------------------------------------------------------------------


def test_debug_stats_one_record_per_degree(heisenberg, caplog, capsys):
    """One DEBUG record of ``crprolong.prolong`` per computed degree (the
    nonzero ones, the first zero one and the one above it), and nothing
    more on the CLI's stdout or stderr at the default level."""
    with caplog.at_level(logging.DEBUG, logger="crprolong.prolong"):
        result = prolong_full(heisenberg.model, use_cache=False)
    records = [r for r in caplog.records if r.name == "crprolong.prolong"]
    assert all(r.levelno == logging.DEBUG for r in records)
    degrees = [r.args[0] for r in records]
    assert degrees == list(range(result.top_degree + 3))
    for r in records:
        i, written, distinct, zeroed, cols, blocks, largest, rank, dim, seconds, kernel = r.args
        assert dim == result.dims.get(i, 0)
        assert cols == rank + dim
        assert 0 < distinct <= written
        assert zeroed + largest <= cols and blocks <= largest
        assert 0 <= kernel <= seconds
        assert f"degree {i}: {written} rows written, {distinct} distinct" in r.getMessage()

    caplog.clear()
    capsys.readouterr()
    assert main(["prolong", "--check-jacobi", "--structure", "--json",
                 "--catalog", "heisenberg"]) == 0
    out, err = capsys.readouterr()
    key = "prolong --check-jacobi --structure --json --catalog heisenberg"
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[key]
