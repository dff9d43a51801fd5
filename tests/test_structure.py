"""Structure constants and the Jacobi certificate: reference routes and
failure modes.

The library reads bracket coefficients off the canonical kernel basis and
stores them as sorted nonzero (index, value) pairs; the dense expression
route in ``reference.py`` must give the same constants with zeros filled in.
``check_jacobi`` checks only the direct triples (a g_{-1} member or a
negative total degree), by the closure checks of the brackets or by a sweep,
and certifies the rest by Tanaka's lemma; the full sweep over every basis
triple in ``reference.py`` must give the same verdict and count.  Each failure-mode test corrupts a copy of an algebra in one way
and checks that the exact checks refuse it with a message that locates the
fault.  The stored constants are read-only, so a changed constant is swept
on integer tables built by the test.
"""

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from types import SimpleNamespace

import pytest

from helpers import dense_constants
from reference import dense_structure_constants, full_jacobi_sweep
from test_catalog import EXPECTED, LADDER

from crprolong import catalog, prolong
from crprolong.errors import InternalCheckError
from crprolong.jacobi import _jacobi_block
from crprolong.linalg import sparse_int_nullspace
from crprolong.model import QuadricModel
from crprolong.prolong import GradedLieAlgebra, jacobi_triple_count, prolong_full


def copy_with_element(alg, d, g, phi=None, psi=None):
    """A fresh algebra equal to ``alg`` except for element g of degree d."""
    pieces = dict(alg.pieces)
    elems = list(pieces[d])
    old_phi, old_psi = elems[g]
    elems[g] = (old_phi if phi is None else phi, old_psi if psi is None else psi)
    pieces[d] = elems
    return GradedLieAlgebra(alg.lt, pieces)


def shifted(entries, delta):
    """The sparse (index, value) pairs ``entries`` plus ``delta``
    ({component: change}), zeros dropped."""
    vec = dict(entries)
    for t, x in delta.items():
        vec[t] = vec.get(t, Fraction(0)) + x
    return tuple((t, x) for t, x in sorted(vec.items()) if x)


def test_read_off_matches_dense_route_heisenberg(heisenberg_result):
    alg = heisenberg_result.algebra
    assert dense_structure_constants(alg) == dense_constants(alg)


def scaled_codim4():
    """codim4 with its forms H_j replaced by D H_j D, D = diag(3, 5, 1, ...):
    an equivalent quadric whose constants have odd denominators (3, 5, 6, 10)
    in positive degrees too, where codim4's have powers of 2 only."""
    model = catalog.make_codim4().model
    d = (3, 5) + (1,) * (model.n - 2)
    return QuadricModel([[[h.entries[a][b] * (d[a] * d[b]) for b in range(model.n)]
                          for a in range(model.n)] for h in model.hermitian])


@pytest.mark.parametrize("scaled", [False, pytest.param(True, marks=pytest.mark.slow)],
                         ids=["codim4", "scaled_codim4"])
def test_read_off_matches_dense_route_codim4(codim4_result, scaled):
    result = prolong_full(scaled_codim4()) if scaled else codim4_result
    alg = result.algebra
    assert alg.dims == codim4_result.algebra.dims
    if scaled:
        # a per-block multiplier is exercised by an odd denominator in a
        # block of two positive degrees
        assert any(x.denominator // (x.denominator & -x.denominator) > 1
                   for (i, j), block in alg.structure_constants().items() if i >= 1
                   for row in block for entries in row for _, x in entries)
    assert dense_structure_constants(alg) == dense_constants(alg)


@pytest.mark.parametrize("name", ["heisenberg_result", "codim5_result"])
def test_constants_are_sorted_nonzero_pairs(name, request):
    alg = request.getfixturevalue(name).algebra
    sc = alg.structure_constants()
    for (p, q), block in sc.items():
        for entries in (entries for row in block for entries in row):
            assert isinstance(entries, tuple)
            indices = [t for t, _ in entries]
            assert indices == sorted(set(indices))
            assert all(isinstance(t, int) and 0 <= t < alg.dims[p + q] for t in indices)
            assert all(isinstance(x, Fraction) and x for _, x in entries)
    # [X_s, B_a] = -[B_a, X_s] and [W_j, B_a] = -[B_a, W_j]: the pieces' tables
    # negated and transposed
    n2, k = 2 * alg.n, alg.k
    for d, piece in alg.pieces.items():
        if d >= -1:
            assert sc[(-1, d)] == [[tuple((t, -x) for t, x in phi[s]) for phi, _ in piece]
                                   for s in range(n2)]
        if d >= 0:
            assert sc[(-2, d)] == [[tuple((t, -x) for t, x in psi[j]) for _, psi in piece]
                                   for j in range(k)]


@pytest.mark.parametrize("name", ["heisenberg_result", "codim4_result", "codim5_result",
                                  "extended_result"])
def test_same_degree_blocks_are_mirrored(name, request):
    # [B_a, B_a] is empty and [B_b, B_a] is [B_a, B_b] negated
    alg = request.getfixturevalue(name).algebra
    same = {p: block for (p, q), block in alg.structure_constants().items() if p == q}
    assert sorted(same) == list(range(-1, alg.top_degree() // 2 + 1))
    for block in same.values():
        for a, row in enumerate(block):
            assert row[a] == ()
            for b in range(a):
                assert row[b] == tuple((t, -x) for t, x in block[b][a])


# every method that changes a list in place
MUTATIONS = {
    "setitem": lambda x: x.__setitem__(0, x[0]),
    "setitem slice": lambda x: x.__setitem__(slice(0, 1), x[:1]),
    "delitem": lambda x: x.__delitem__(0),
    "iadd": lambda x: x.__iadd__([]),
    "imul": lambda x: x.__imul__(1),
    "append": lambda x: x.append(x[0]),
    "extend": lambda x: x.extend([]),
    "insert": lambda x: x.insert(0, x[0]),
    "pop": lambda x: x.pop(),
    "remove": lambda x: x.remove(x[0]),
    "clear": lambda x: x.clear(),
    "sort": lambda x: x.sort(),
    "reverse": lambda x: x.reverse(),
}


@pytest.mark.parametrize("mutate", sorted(MUTATIONS))
def test_constants_and_pieces_are_read_only(heisenberg_result, mutate):
    alg = heisenberg_result.algebra
    alg = GradedLieAlgebra(alg.lt, dict(alg.pieces))
    sc = alg.structure_constants()
    before = repr(sorted(sc.items())), repr(sorted(alg.pieces.items()))
    # the blocks of each kind (negated phi and psi tables, brackets read off),
    # their rows and the pieces
    for table in (sc[(-1, 0)], sc[(-1, 0)][0], sc[(-2, 0)], sc[(-2, 0)][0],
                  sc[(0, 1)], sc[(0, 1)][0], sc[(1, 1)], sc[(1, 1)][1],
                  alg.pieces[-2], alg.pieces[1]):
        with pytest.raises(TypeError, match="read-only"):
            MUTATIONS[mutate](table)
    for mapping, key in ((sc, (0, 1)), (alg.pieces, 1)):
        with pytest.raises(TypeError):
            mapping[key] = []
        with pytest.raises(TypeError):
            del mapping[key]
    assert (repr(sorted(sc.items())), repr(sorted(alg.pieces.items()))) == before
    assert alg.check_jacobi() == jacobi_triple_count(alg.dims)


def test_uncorrupted_copy_passes(heisenberg_result):
    alg = heisenberg_result.algebra
    copy = copy_with_element(alg, 2, 0)
    assert copy.structure_constants() == alg.structure_constants()
    assert copy.check_jacobi() == alg.check_jacobi()


@pytest.mark.parametrize("value", [Fraction(1), Fraction(1, 3)], ids=["integer", "third"])
def test_changed_psi_entry_fails_closure(heisenberg_result, value):
    # g_2 is one element with psi row (c4, c5) in columns 4, 5 of the
    # (phi, psi) layout; c4 = 0 and the trailing column is 5, so setting
    # column 4 to a nonzero value keeps the canonical form and the phi part,
    # and only closure can fail.  The value 1/3 brings a denominator that no
    # table of heisenberg has.
    alg = heisenberg_result.algebra
    phi, psi = alg.pieces[2][0]
    assert alg._sparse(2).trailing == (5,)
    assert [t for t, _ in psi[0]] == [1]
    bad_psi = (((0, value),) + psi[0],)
    copy = copy_with_element(alg, 2, 0, psi=bad_psi)
    with pytest.raises(InternalCheckError,
                       match=r"bracket of basis elements \(1,0\) and \(1,1\) "
                             r"\(degree, index\) does not close in g_2: first "
                             r"mismatch at column 4"):
        copy.structure_constants()


def test_closure_failure_names_the_smallest_mismatched_column(heisenberg_result, monkeypatch):
    # g_2's one element is {0: 1, 3: 1, 5: 2} over 2 in the (phi, psi) layout,
    # trailing column 5.  The copy adds entries at columns 1 (phi row 0) and 4
    # (psi) and keeps the canonical form.  Read off against the copy, the true
    # element has coefficient 1 and differs exactly at columns 1 and 4; the
    # vector lists column 4 first, so only the smallest mismatch gives 1.
    alg = heisenberg_result.algebra
    phi, psi = alg.pieces[2][0]
    assert alg._sparse(2).flat == ({0: 1, 3: 1, 5: 2},)
    copy = copy_with_element(alg, 2, 0, phi=(phi[0] + ((1, Fraction(1)),), phi[1]),
                             psi=(((0, Fraction(1)),) + psi[0],))
    assert copy._sparse(2).flat == ({0: 1, 1: 2, 3: 1, 4: 2, 5: 2},)
    assert copy._read_off(2, {4: 0, 1: 0, 0: 1, 3: 1, 5: 2}, 2) == (((0, Fraction(1)),), 1)

    seen = []
    read_off = copy._read_off

    def spy(d, vec, den):
        seen.append(dict(vec))
        return read_off(d, vec, den)

    monkeypatch.setattr(copy, "_read_off", spy)
    with pytest.raises(InternalCheckError,
                       match=r"bracket of basis elements \(0,0\) and \(2,0\) "
                             r"\(degree, index\) does not close in g_2: first "
                             r"mismatch at column 0 of"):
        copy.structure_constants()
    # the failing bracket has no trailing component, so its coefficient is 0
    # and every nonzero column mismatches: two of them, and 0 is the smaller
    assert {col for col, x in seen[-1].items() if x} == {0, 3}


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


# ---------------------------------------------------------------------------
# the direct sweep against the full reference sweep
# ---------------------------------------------------------------------------


def _outcome(sweep, alg):
    try:
        return "pass", sweep(alg)
    except InternalCheckError as exc:
        return "fail", str(exc)


_JACOBI_FAILURE = re.compile(r"Jacobi failure on basis triple \((-?\d+),\d+\), "
                             r"\((-?\d+),\d+\), \((-?\d+),\d+\)")


def assert_sweeps_agree(alg, monkeypatch):
    """check_jacobi and the full sweep agree on the verdict and the count.
    A refusal comes either before any sweep (a premise of the lemma, or a
    closure check of the brackets), or from the sweep of the direct triples
    that no closure check covers.  The messages agree too, unless
    check_jacobi refuses before its sweep, or the full sweep first fails on
    a triple that the direct sweep leaves to the lemma."""
    seen, (verdict, got) = swept_triples(alg, monkeypatch)
    ref_verdict, want = _outcome(full_jacobi_sweep, alg)
    assert verdict == ref_verdict
    if verdict == "fail":
        swept = _JACOBI_FAILURE.match(got) is not None
        assert set(seen) == (direct_triples(alg) - closure_covered(alg) if swept else set())
    failure = _JACOBI_FAILURE.match(want) if ref_verdict == "fail" else None
    if failure is None:
        assert got == want
    elif swept:
        degrees = [int(d) for d in failure.groups()]
        if -1 in degrees or sum(degrees) < 0:
            assert got == want


@pytest.mark.parametrize("name", ["heisenberg_result", "codim4_result", "codim5_result",
                                  "extended_result"])
def test_direct_sweep_agrees_with_full_sweep_on_catalog(name, request, monkeypatch):
    alg = request.getfixturevalue(name).algebra
    assert_sweeps_agree(alg, monkeypatch)
    assert alg.check_jacobi() == full_jacobi_sweep(alg) > 0


def _changed_psi(alg):
    phi, psi = alg.pieces[2][0]
    return copy_with_element(alg, 2, 0, psi=(((0, Fraction(1)),) + psi[0],))


def _dependent_phi(alg):
    return copy_with_element(alg, 1, 1, phi=alg.pieces[1][0][0])


def _broken_trailing(alg):
    phi, psi = alg.pieces[1][0]

    def double(table):
        return tuple(tuple((t, 2 * x) for t, x in row) for row in table)

    return copy_with_element(alg, 1, 0, phi=double(phi), psi=double(psi))


def _one_sided_bracket(alg):
    # [X_0, X_1] doubled in the phi table of X_0 only, so [X_1, X_0] is not
    # its negative: the (-1,-1) block, the Levi-Tanaka bracket as given, is
    # read by no closure check
    phi = alg.pieces[-1][0][0]
    return copy_with_element(alg, -1, 0, phi=(phi[0], tuple((t, 2 * x) for t, x in phi[1]))
                             + phi[2:])


CORRUPTIONS = {
    "uncorrupted": ("heisenberg_result", lambda alg: copy_with_element(alg, 2, 0)),
    "changed psi entry": ("heisenberg_result", _changed_psi),
    "dependent phi parts": ("heisenberg_result", _dependent_phi),
    "broken trailing column": ("heisenberg_result", _broken_trailing),
    "one-sided (-1,-1) constant": ("heisenberg_result", _one_sided_bracket),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_direct_sweep_agrees_with_full_sweep_on_corrupted_copies(name, request, monkeypatch):
    fixture, corrupt = CORRUPTIONS[name]
    assert_sweeps_agree(corrupt(request.getfixturevalue(fixture).algebra), monkeypatch)


def test_one_sided_diagonal_constant_fails_antisymmetry(heisenberg_result):
    copy = _one_sided_bracket(heisenberg_result.algebra)
    with pytest.raises(InternalCheckError,
                       match=r"bracket of basis elements \(-1,0\) and \(-1,1\) "
                             r"\(degree, index\) is not antisymmetric"):
        copy.check_jacobi()


# ---------------------------------------------------------------------------
# the sweep on changed constants.  The stored constants are read-only, so a
# changed constant reaches the sweep only through tables built here; each
# case was refused by check_jacobi when the constants could be changed in
# place, and the sweep of every direct triple still refuses it
# ---------------------------------------------------------------------------


def changed_tables(alg, changes):
    """Integer tables of both orders of every stored block of ``alg``, over
    one common denominator, as ``check_jacobi`` sweeps them, with ``changes``
    ({(key, alpha, beta): {component: change}}) added to the constants first;
    and those changed constants."""
    sc = {key: [list(row) for row in block] for key, block in alg.structure_constants().items()}
    for (key, alpha, beta), delta in changes.items():
        sc[key][alpha][beta] = shifted(sc[key][alpha][beta], delta)
    tables = {}
    for (p, q), table in zip(sc, prolong._scaled(list(sc.values()))[1]):
        tables[(p, q)] = table
        if p != q:
            tables[(q, p)] = prolong._swapped(table)
    return tables, sc


def direct_sweep(alg, changes):
    """The first failing triple, as ``_jacobi_block`` gives it, of the sweep of
    every direct degree triple over the changed tables; None if none fails."""
    tables, _ = changed_tables(alg, changes)
    failures = (_jacobi_block(tables, alg.dims, *t) for t in sorted(direct_triples(alg)))
    return min(filter(None, failures), default=None)


def _delta_off_g1_span(alg):
    """{a: delta_a}: a functional on g_0 that vanishes on [g_-1, g_1].  The
    kernel takes integer rows, so each row is scaled by the lcm of its
    denominators."""
    rows = []
    for row in alg.structure_constants()[(-1, 1)]:
        for entries in row:
            d = lcm(*(x.denominator for _, x in entries))
            rows.append({t: x.numerator * (d // x.denominator) for t, x in entries})
    (delta,) = sparse_int_nullspace(rows, alg.dim(0))
    return delta


def _changed_w_action(alg):
    # [W_0, B^0_a] gains delta_a W_0 for a functional delta that vanishes on
    # [g_-1, g_1]: the g_-1 triples (W, X, c) read these constants only
    # through [X, c] in [g_-1, g_1], so only the negative-total class
    # (W, a, a'), (W, W', c) sees the change
    return {((-2, 0), 0, a): {0: x} for a, x in _delta_off_g1_span(alg).items()}


CHANGED_CONSTANTS = {
    "changed (0,1) constant": ("heisenberg_result", lambda alg: {((0, 1), 0, 0): {0: 1}}),
    "changed (-2,0) constants": ("codim5_result", _changed_w_action),
    "changed (0,2) constant": ("heisenberg_result", lambda alg: {((0, 2), 0, 0): {0: 1}}),
    "changed (-1,0) constant": ("heisenberg_result", lambda alg: {((-1, 0), 0, 0): {0: 1}}),
    "changed (1,1) constant": ("heisenberg_result", lambda alg: {((1, 1), 0, 1): {0: 1}}),
}


@pytest.mark.parametrize("name", sorted(CHANGED_CONSTANTS))
def test_changed_constants_agree_with_full_sweep(name, request):
    # the full sweep refuses each change; the direct sweep refuses it too, on
    # the same triple when that triple is a direct one
    fixture, changes = CHANGED_CONSTANTS[name]
    alg = request.getfixturevalue(fixture).algebra
    changes = changes(alg)
    _, sc = changed_tables(alg, changes)
    changed = SimpleNamespace(structure_constants=lambda: sc, dims=alg.dims,
                              degrees=alg.degrees, top_degree=alg.top_degree)
    verdict, want = _outcome(full_jacobi_sweep, changed)
    first = direct_sweep(alg, changes)
    assert verdict == "fail" and first is not None
    degrees = [int(d) for d in _JACOBI_FAILURE.match(want).groups()]
    if -1 in degrees or sum(degrees) < 0:
        (p, ap), (q, aq), (r, ar), t = first
        assert want == (f"Jacobi failure on basis triple ({p},{ap}), ({q},{aq}), "
                        f"({r},{ar}) (degree, index): component {t} of g_{p + q + r}")


def test_changed_structure_constant_fails_jacobi(heisenberg_result):
    alg = heisenberg_result.algebra
    assert direct_sweep(alg, {((0, 1), 0, 0): {0: 1}}) == ((-2, 0), (0, 0), (1, 0), 0)


def test_changed_w_action_fails_negative_total_class(codim5_result):
    alg = codim5_result.algebra
    assert _delta_off_g1_span(alg) == {8: -1, 12: 1, 16: 1}
    assert direct_sweep(alg, _changed_w_action(alg)) == ((-2, 0), (0, 5), (0, 8), 2)


def test_changed_nonnegative_constant_fails_g1_class(heisenberg_result):
    # [g_0, g_2] appears in no direct triple of negative total degree, and the
    # full sweep first fails on (-2,0), (0,0), (2,0), which the lemma covers.
    # check_jacobi leaves (-1,0), (0,0), (2,0) to the closure check of
    # [B^0_0, B^2_0], which certified the stored constant
    alg = heisenberg_result.algebra
    assert direct_sweep(alg, {((0, 2), 0, 0): {0: 1}}) == ((-1, 0), (0, 0), (2, 0), 0)


# ---------------------------------------------------------------------------
# the triples swept: the direct ones that no closure check covers
# ---------------------------------------------------------------------------


def swept_triples(alg, monkeypatch):
    """The degree triples that ``check_jacobi`` hands to ``_jacobi_block``,
    in call order, and its outcome."""
    seen = []
    sweep = prolong._jacobi_block

    def spy(tables, dims, p, q, r):
        seen.append((p, q, r))
        return sweep(tables, dims, p, q, r)

    monkeypatch.setattr(prolong, "_jacobi_block", spy)
    outcome = _outcome(GradedLieAlgebra.check_jacobi, alg)
    monkeypatch.undo()
    return seen, outcome


def direct_triples(alg):
    """Degree triples p <= q <= r of nonzero pieces with a nonzero total
    piece and a g_-1 member or a negative total."""
    dims = alg.dims
    degs = [d for d in sorted(dims) if dims[d]]
    return {t for t in combinations_with_replacement(degs, 3)
            if dims.get(sum(t)) and (-1 in t or sum(t) < 0)}


def closure_covered(alg):
    """The direct triples (-1, q, r), q >= 0, whose bracket [B^q, B^r] is
    computed, so that its closure check settles them."""
    top = alg.top_degree()
    return {(p, q, r) for p, q, r in direct_triples(alg) if p == -1 and q >= 0 and q + r <= top}


@pytest.mark.parametrize("name", ["heisenberg_result", "codim4_result", "codim5_result",
                                  "extended_result"])
def test_unchanged_constants_skip_the_closure_triples(name, request, monkeypatch):
    alg = request.getfixturevalue(name).algebra
    copy = GradedLieAlgebra(alg.lt, dict(alg.pieces))
    seen, outcome = swept_triples(copy, monkeypatch)
    assert outcome == ("pass", jacobi_triple_count(alg.dims))
    assert len(seen) == len(set(seen))
    assert set(seen) == direct_triples(alg) - closure_covered(alg)
    # no bracket lands above the top, so no closure check covers these
    top = alg.top_degree()
    above = {t for t in direct_triples(alg) if t[0] == -1 and t[1] >= 0 and t[1] + t[2] == top + 1}
    assert above and above <= set(seen)
    # a second call sweeps the same triples in the same order
    assert swept_triples(copy, monkeypatch) == (seen, outcome)


def swept_tables(alg, monkeypatch):
    """The ordered degree pairs of the tables ``check_jacobi`` hands to the
    sweep."""
    seen = set()
    sweep = prolong._jacobi_block

    def spy(tables, dims, p, q, r):
        seen.update(tables)
        return sweep(tables, dims, p, q, r)

    monkeypatch.setattr(prolong, "_jacobi_block", spy)
    alg.check_jacobi()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name, extra, blocks, rows", [
    ("codim5", 0, (21, 31), (207, 397)),
    ("heisenberg", 3, (11, 11), (76, 76)),
], ids=["codim5", "heisenberg+3"])
def test_sweep_scales_only_the_blocks_it_reads(name, extra, blocks, rows, monkeypatch):
    alg = prolong_full(catalog.get(name, extra=extra).model).algebra
    sc = alg.structure_constants()
    tables = swept_tables(alg, monkeypatch)
    read = {(min(pair), max(pair)) for pair in tables}
    assert (len(read), len(sc)) == blocks
    assert (sum(len(sc[key]) for key in read), sum(map(len, sc.values()))) == rows
    # every stored table that a cyclic term [[a, b], c] of a swept triple
    # reads, [a, b] and then [., c], is there in the order it is read
    asked = {pair for p, q, r in direct_triples(alg) - closure_covered(alg)
             for u, v, w in ((p, q, r), (q, r, p), (r, p, q)) for pair in ((u, v), (u + v, w))}
    assert {pair for pair in asked if (min(pair), max(pair)) in sc} <= tables

# ---------------------------------------------------------------------------
# the covered triple count
# ---------------------------------------------------------------------------

def brute_triple_count(dims):
    """Triples of distinct basis elements whose total degree is a nonzero piece."""
    degrees = [d for d in sorted(dims) for _ in range(dims[d])]
    return sum(1 for x, y, z in combinations(degrees, 3) if dims.get(x + y + z))


# the ladder entries are pinned below: enumerating their 1e8 triples takes
# about 10 s each
@pytest.mark.parametrize("name", sorted(n for n, want in EXPECTED.items()
                                        if "dims" in want and n not in LADDER))
def test_triple_count_matches_enumeration(name):
    dims = EXPECTED[name]["dims"]
    assert jacobi_triple_count(dims) == brute_triple_count(dims)


def test_triple_count_of_the_families():
    assert jacobi_triple_count(EXPECTED["so_family(n=4)"]["dims"]) == 1_961_311
    assert jacobi_triple_count(EXPECTED["su_family(m=3)"]["dims"]) == 39_083_091
