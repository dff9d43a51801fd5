"""The block-wise sparse kernel against the single-pass reference.

``sparse_int_nullspace`` removes one-entry rows and their columns first (the
singleton presolve), splits what is left into the connected components of
its column graph and eliminates each block on its own;
``reference.single_pass_nullspace`` eliminates the whole system at once.
Both must return the same canonical basis, vector for vector: on seeded
block-diagonal matrices whose block columns are interleaved and permuted,
on seeded systems with duplicate, scaled and negated rows, one-entry rows
and singleton cascades, on seeded wide, rank-deficient blocks like the
largest prolongation blocks and on blocks whose pivots are not units (so
the kernel entries are not integers), with the rows in any order, on the
edge cases of the input format, and on every system the prolongation
builds for the catalog models.  Those
systems must hold only ``int`` entries and no two rows in one part (one phi
block or psi only) equal up to scale, and they must be the rows of
``reference.plain_system_rows``, which writes every row (the builder skips
repeats of a table column before building them).  The degree-0 J rows
state each J-linearity equation once, with the kernel of all 4 n^2 of them.
The kernel takes integer rows only, so every row that reaches it, from the
linear algebra, the span solve and the prolongation alike, must hold only
``int`` entries, also when the model or the fields are rational or
Gaussian-rational.
"""

import itertools
import logging
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from reference import one_part, plain_system_rows, single_pass_nullspace
from test_differential import random_models

from crprolong import catalog, linalg, prolong, realize
from crprolong.linalg import sparse_int_nullspace
from crprolong.model import QuadricModel, build_levi_tanaka
from crprolong.realize import express_in_span, realize_basis
from crprolong.scalars import GaussianRational

SEED = 83


def _components(rows):
    """Column sets of the connected components of the column graph of ``rows``."""
    comps = []
    for row in filter(None, rows):
        cols = set(row)
        touching = [comp for comp in comps if comp & cols]
        for comp in touching:
            comps.remove(comp)
            cols |= comp
        comps.append(cols)
    return comps


def _random_block(rng, cols):
    """Integer rows on ``cols``, often rank-deficient, with the columns of a
    block linked by a chain row so that the block is one component.  A block
    of 15 or more columns gets sparse rows, at most ``len(cols) - 2`` of them
    plus the chain row, so it is rank-deficient and its elimination fills in."""
    if len(cols) >= 15:
        nrows, density = rng.randint(len(cols) // 2, len(cols) - 2), 0.2
    else:
        nrows, density = rng.randint(1, len(cols) + 1), 0.6
    rows = [{c: v for c in cols if (v := rng.randint(-3, 3)) and rng.random() < density}
            for _ in range(nrows)]
    if rng.random() < 0.5 and nrows > 1:
        # a combination of two rows: rank stays below the row count
        a, b = rng.sample(range(nrows), 2)
        fa, fb = rng.randint(-2, 2), rng.randint(1, 2)
        combo = {c: v for c in cols
                 if (v := fa * rows[a].get(c, 0) + fb * rows[b].get(c, 0))}
        rows.append(combo)
    rows.append({c: rng.choice((-2, -1, 1, 2)) for c in cols})
    return rows


def _block_diagonal(rng, nblocks, spare=0, size=(1, 6)):
    """Rows of ``nblocks`` blocks of ``size`` columns (a range) whose columns
    are interleaved and permuted, plus ``spare`` columns in no row, zero rows
    and duplicate rows; the rows are shuffled."""
    sizes = [rng.randint(*size) for _ in range(nblocks)]
    ncols = sum(sizes) + spare
    perm = list(range(ncols))
    rng.shuffle(perm)
    rows, start = [], 0
    for size in sizes:
        rows += _random_block(rng, perm[start:start + size])
        start += size
    rows += [{} for _ in range(rng.randint(0, 2))]
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return rows, ncols


def _assert_same(rows, ncols):
    got = sparse_int_nullspace(rows, ncols)
    want = single_pass_nullspace(rows, ncols)
    assert got == want
    assert all(type(v) is Fraction for vec in got for v in vec.values())
    return got


def _multi_pivot_block(rng, start):
    """Rows on columns start, start + 1, ...: ``npiv`` two-entry pivot rows,
    row j holding its pivot column start + j with an entry that is not a
    unit (4, 6, 9, ...) and one of the free columns after the pivots, and
    rows that are combinations of three or more of them, a third of them
    moved off the span on a free column.  Shortest first, the pivot rows
    come in first with those pivot entries, and each later row holds three
    or more pivot columns: it reduces to zero or to a new pivot row.
    Returns the rows, the next column and the pivot entries of each
    combination."""
    npiv, nfree = rng.randint(3, 6), rng.randint(2, 4)
    free = range(start + npiv, start + npiv + nfree)
    entries = rng.sample((4, 6, 9, 10, 15, -4, -6, -9, -10, -15), npiv)
    base = [{start + j: d, free[j % nfree]: rng.choice((-1, 1))}
            for j, d in enumerate(entries)]
    rows, hits = list(base), []
    for _ in range(rng.randint(4, 10)):
        picked = rng.sample(range(npiv), rng.randint(3, npiv))
        row = {}
        for j in picked:
            f = rng.choice((-3, -2, -1, 1, 2, 3))
            for c, v in base[j].items():
                row[c] = row.get(c, 0) + f * v
        if rng.random() < 1 / 3:
            c = rng.choice(free)
            row[c] = row.get(c, 0) + rng.choice((-2, -1, 1, 2))
        rows.append({c: v for c, v in row.items() if v})
        hits.append([abs(entries[j]) for j in picked])
    return rows, free.stop, hits


def test_one_pass_reduction_on_multi_pivot_rows():
    """Every row after the pivot rows holds three or more pivot columns with
    pivot entries that are not units and differ, so the multiplier of the
    one-pass reduction, their lcm, is neither their product nor their
    largest entry.  Most of those rows are dependent and dropped; the others
    raise the rank above the pivot rows' count."""
    rng = random.Random(SEED + 9)
    above = fractional = 0
    for _ in range(30):
        rows, ncols, npiv, hits = [], 0, 0, []
        for _ in range(rng.randint(1, 4)):
            block, stop, block_hits = _multi_pivot_block(rng, ncols)
            rows += block
            npiv += len(block) - len(block_hits)
            hits += block_hits
            ncols = stop
        assert all(len(h) >= 3 and lcm(*h) not in (prod(h), max(h)) for h in hits)
        stats = {}
        got = sparse_int_nullspace(rng.sample(rows, len(rows)), ncols, stats=stats)
        assert got == single_pass_nullspace(rows, ncols)
        assert npiv <= stats["rank"] < npiv + len(hits) // 2
        fractional += any(v.denominator > 1 for vec in got for v in vec.values())
        above += stats["rank"] > npiv
    assert above >= 20 and fractional >= 20


def test_block_diagonal_matrices_match_reference():
    rng = random.Random(SEED)
    seen_blocks, seen_dims, large = set(), set(), 0
    for t in range(120):
        if t % 5 == 4:      # every fifth matrix has blocks of 15-30 columns
            size, nblocks = (15, 30), rng.randint(1, 3)
        else:
            size, nblocks = (1, 6), rng.randint(1, 7)
        rows, ncols = _block_diagonal(rng, nblocks, spare=t % 3, size=size)
        basis = _assert_same(rows, ncols + t % 4)   # ncols past the last used column
        comps = _components(rows)
        seen_blocks.add(len(comps))
        seen_dims.add(len(basis))
        large += sum(len(comp) >= 15 for comp in comps)
    assert 1 in seen_blocks and max(seen_blocks) >= 5
    assert 0 in seen_dims and max(seen_dims) >= 5
    assert large >= 24


def test_one_block_and_empty_systems():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        ncols = rng.randint(2, 8)
        rows = _random_block(rng, list(range(ncols)))
        assert len(_components(rows)) == 1
        _assert_same(rows, ncols)
    assert sparse_int_nullspace([], 0) == single_pass_nullspace([], 0) == []
    assert _assert_same([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert _assert_same([{}, {}], 2) == [{0: 1}, {1: 1}]


def test_generator_rows():
    rng = random.Random(SEED + 2)
    rows, ncols = _block_diagonal(rng, 4, spare=2)
    got = sparse_int_nullspace((row for row in rows), ncols)
    assert got == single_pass_nullspace(rows, ncols)


def _normalized(row):
    """A row up to scale: its (column, value) pairs in column order with the
    gcd content removed and the first value positive."""
    cols = sorted(row)
    g = gcd(*row.values())
    if row[cols[0]] < 0:
        g = -g
    return tuple((c, row[c] // g) for c in cols)


def _with_presolve_rows(rng, rows, ncols):
    """``rows`` with exact, scaled and negated duplicates, one-entry rows and
    singleton cascades added, shuffled, and the new column count.

    A cascade is a chain {c_1}, {c_1, c_2}, ..., {c_{L-1}, c_L}: zeroing c_1
    leaves the second row with one entry, and so on down the chain.  One
    cascade runs on two fresh columns, which then occur only in rows that the
    presolve removes."""
    used = sorted({c for row in rows for c in row})
    out = [dict(row) for row in rows]
    for row in rng.sample(out, min(len(out), 6)):
        if row:
            f = rng.choice((1, 2, 3, -1, -2, -3))
            out.append({c: f * v for c, v in row.items()})
    for _ in range(rng.randint(1, 3)):
        out.append({rng.choice(used): rng.choice((-3, -1, 1, 2))})
    chains = [rng.sample(used, min(len(used), rng.randint(2, 4))), [ncols, ncols + 1]]
    for chain in chains:
        out.append({chain[0]: rng.choice((-2, 1, 3))})
        for c, d in zip(chain, chain[1:]):
            out.append({c: rng.choice((-1, 1, 2)), d: rng.choice((-3, -1, 1))})
    rng.shuffle(out)
    return out, ncols + 2


def test_presolve_systems_match_reference():
    rng = random.Random(SEED + 4)
    for t in range(60):
        size = (15, 30) if t % 5 == 4 else (1, 6)
        rows, ncols = _block_diagonal(rng, rng.randint(1, 5), spare=t % 3, size=size)
        rows, ncols = _with_presolve_rows(rng, rows, ncols)
        stats = {}
        got = sparse_int_nullspace(rows, ncols, stats=stats)
        assert got == single_pass_nullspace(rows, ncols)
        # the fresh chain columns are zeroed, so neither has a unit vector
        assert all(not ({ncols - 2, ncols - 1} & vec.keys()) for vec in got)
        assert len({_normalized(row) for row in rows if row}) < len([r for r in rows if r])
        # the cascades zero more columns than the one-entry rows of the input
        assert stats["zeroed"] > len({c for row in rows if len(row) == 1 for c in row})


def test_presolve_can_empty_a_system():
    """A triangular system: every column is zeroed by a cascade from the
    first one-entry row, the presolve leaves no row, and the kernel is the
    unit vectors of the columns in no row."""
    rng = random.Random(SEED + 5)
    for ncols in range(2, 12):
        used = rng.sample(range(ncols + 3), ncols)
        rows = [{used[0]: rng.choice((-2, 1))}]
        rows += [{used[c - 1]: rng.choice((-1, 3)), used[c]: rng.choice((1, 2))}
                 for c in range(1, ncols)]
        rows += [{c: 2 * v for c, v in row.items()} for row in rows[::2]]
        rng.shuffle(rows)
        stats = {}
        got = sparse_int_nullspace(rows, ncols + 3, stats=stats)
        assert got == single_pass_nullspace(rows, ncols + 3)
        assert got == [{c: 1} for c in range(ncols + 3) if c not in used]
        assert stats == {"zeroed": ncols, "blocks": 0, "largest": 0, "rank": ncols}


def _wide_block(rng):
    """One wide, rank-deficient block like the largest su_family(4) blocks:
    100-200 columns, 3-6 times as many rows, and a kernel of 6-14 % of the
    columns.  Returns the rows (shuffled), the column count and the kernel
    dimension.

    The rows are combinations of ``rank`` base rows, which are triangular in
    a hidden column order: base row j holds perm[j], perm[j + 1] and a few
    columns after them, so the base rows are independent and the block is
    one component.  Each of the other columns joins a random base row.  The
    hidden order is not the column order, so the RREF pivots are not units
    and most rows reduce to zero."""
    ncols = rng.randint(100, 200)
    dim = rng.randint(-(-6 * ncols // 100), 14 * ncols // 100)
    rank = ncols - dim
    perm = rng.sample(range(ncols), ncols)
    base = []
    for j in range(rank):
        row = {perm[j]: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))}
        for c in [perm[j + 1]] + rng.sample(perm[j + 1:], min(rng.randint(1, 4), ncols - j - 1)):
            row[c] = rng.choice((-3, -2, -1, 1, 2, 3))
        base.append(row)
    for c in perm[rank:]:
        base[rng.randrange(rank)][c] = rng.choice((-2, -1, 1, 2))
    rows = [{c: f * v for c, v in row.items()} for row in base
            for f in [rng.choice((-2, -1, 1, 3))]]
    for _ in range(rng.randint(3, 6) * ncols - rank):
        row = {}
        for b in rng.sample(base, rng.randint(1, 3)):
            f = rng.choice((-3, -2, -1, 1, 2, 3))
            for c, v in b.items():
                row[c] = row.get(c, 0) + f * v
        rows.append({c: v for c, v in row.items() if v})
    rng.shuffle(rows)
    return rows, ncols, dim


def test_wide_rank_deficient_blocks_match_reference():
    rng = random.Random(SEED + 6)
    for _ in range(4):
        rows, ncols, dim = _wide_block(rng)
        stats = {}
        got = sparse_int_nullspace(rows, ncols, stats=stats)
        assert got == single_pass_nullspace(rows, ncols)
        assert len(got) == dim and stats["rank"] == ncols - dim
        assert stats["blocks"] == 1 and stats["largest"] > 0.9 * ncols
        assert 3 * ncols <= len(rows) <= 6 * ncols and 0.05 <= dim / ncols <= 0.15
        assert any(v.denominator > 1 for vec in got for v in vec.values())
        assert sparse_int_nullspace(rng.sample(rows, len(rows)), ncols) == got


def test_non_unit_pivots_match_reference():
    """Blocks whose rows lead with a negative entry or one of absolute value
    above 1: the pivots are not units, and the kernel has entries that are
    not integers."""
    rng = random.Random(SEED + 7)
    fractional = 0
    for _ in range(80):
        ncols = rng.randint(3, 12)
        rows = []
        for _ in range(rng.randint(1, ncols)):
            cols = sorted(rng.sample(range(ncols), rng.randint(2, min(ncols, 5))))
            row = {c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in cols}
            row[cols[0]] = rng.choice((-5, -4, -3, -2, 2, 3, 4, 5))
            rows.append(row)
        got = _assert_same(rows, ncols)
        fractional += any(v.denominator > 1 for vec in got for v in vec.values())
    assert fractional >= 40


def test_row_order_leaves_basis_unchanged():
    """The kernel inserts rows shortest first and the RREF does not depend
    on the order, so shuffling the rows of a system leaves its basis
    unchanged."""
    rng = random.Random(SEED + 8)
    for _ in range(20):
        rows, ncols = _block_diagonal(rng, rng.randint(1, 4), size=(3, 20))
        basis = _assert_same(rows, ncols)
        for _ in range(3):
            rows = rng.sample(rows, len(rows))
            assert sparse_int_nullspace(rows, ncols) == basis


def _model(name):
    """A catalog model by name (codim5+2, so_family(3), su_family(2), ...), or
    the j-th model of ``test_differential.random_models`` for "random j"."""
    if name.startswith("random"):
        return random_models(count=int(name[7:]) + 1)[-1]
    if name[2:9] == "_family":
        size = int(name[10:-1])
        return catalog.get(name[:9], n=size, m=size).model
    base, _, extra = name.partition("+")
    return catalog.get(base, extra=int(extra or 0)).model


def _prolong_systems(model, monkeypatch):
    """Every system that ``prolong_full`` hands to the kernel, as (its rows,
    ncols, the kernel's answer)."""
    systems = []

    def capture(rows, ncols, **kwargs):
        rows = list(rows)
        basis = sparse_int_nullspace(rows, ncols, **kwargs)
        systems.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(prolong, "sparse_int_nullspace", capture)
    prolong.prolong_full(model, use_cache=False)
    return systems


@pytest.mark.parametrize("name", ["heisenberg", "codim4", "codim5", "so_family(3)"])
def test_prolongation_systems_match_reference(name, monkeypatch):
    systems = _prolong_systems(_model(name), monkeypatch)
    assert systems
    for rows, ncols, basis in systems:
        assert _assert_same(rows, ncols) == basis
    if name != "heisenberg":
        assert max(len(_components(rows)) for rows, _, _ in systems) > 1


@pytest.mark.parametrize("name", ["codim5", "so_family(3)"])
def test_prolongation_rows_are_distinct_integers(name, monkeypatch):
    """The builder writes integer rows and keeps one row per class of rows
    in one part equal up to scale; the other rows reach the kernel as
    written."""
    parts = []
    step = prolong.prolong_step

    def recording(lt, pieces, i, ints=None):
        m1 = len(pieces[i - 1])
        parts.append((2 * lt.n * m1, m1))
        return step(lt, pieces, i, ints)

    monkeypatch.setattr(prolong, "prolong_step", recording)
    systems = _prolong_systems(_model(name), monkeypatch)
    assert len(systems) == len(parts) > 0
    others = 0
    for (rows, _, _), (nphi, m1) in zip(systems, parts):
        assert all(type(v) is int for row in rows for v in row.values())
        keys = [_normalized(row) for row in rows if one_part(row, nphi, m1)]
        assert len(set(keys)) == len(keys)
        others += len(rows) - len(keys)
    assert others > 0


@pytest.mark.parametrize("name", ["heisenberg", "codim4", "codim5", "codim5+2", "so_family(3)",
                                  "so_family(4)", "su_family(2)", "random 0", "random 1",
                                  "random 2", "random 3"])
def test_prolongation_rows_match_plain_build(name, monkeypatch, caplog):
    """The builder skips the repeats of a shifted table column before it
    writes them.  The rows it hands to the kernel must be those of the plain
    build, which writes every row, keeps the first of each class of rows in
    one part equal up to scale and every other row: the same dicts, columns
    in the same order, in the same order.  Its DEBUG ``written`` count is
    the plain build's."""
    plain = []
    step = prolong.prolong_step

    def with_plain(lt, pieces, i, ints=None):
        plain.append(plain_system_rows(lt, pieces, i))
        return step(lt, pieces, i, ints)

    monkeypatch.setattr(prolong, "prolong_step", with_plain)
    with caplog.at_level(logging.DEBUG, logger="crprolong.prolong"):
        systems = _prolong_systems(_model(name), monkeypatch)
    written = [r.args[1] for r in caplog.records if r.name == "crprolong.prolong"]
    assert len(systems) == len(plain) == len(written) > 0
    for (rows, _, _), (want, count) in zip(systems, plain):
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in want]
    assert written == [count for _, count in plain]


@pytest.mark.parametrize("name", ["codim5", "so_family(3)"])
def test_j_rows_state_each_equation_once(name, monkeypatch):
    """The J-linearity rows (phi J = J phi) come first in the degree-0
    system.  The equation of (J s, J t) is that of (s, t) times -eps sign,
    so prolong_step writes one row of each pair: no two of its J rows are
    equal up to scale, and they have the kernel of all 4 n^2 equations."""
    lt = build_levi_tanaka(_model(name))
    n2 = 2 * lt.n
    every = []
    for s in range(n2):
        ps, eps = lt.j_index(s)
        for t in range(n2):
            jt, sign = lt.j_index(t)
            every.append({ps * n2 + t: eps, s * n2 + jt: sign})
    systems = []

    def capture(rows, ncols, **kwargs):
        rows = list(rows)
        systems.append((rows, ncols))
        return sparse_int_nullspace(rows, ncols, **kwargs)

    monkeypatch.setattr(prolong, "sparse_int_nullspace", capture)
    prolong.compute_g0(lt)
    (rows, ncols), = systems
    classes = {_normalized(row) for row in every}
    j_rows = list(itertools.takewhile(lambda row: _normalized(row) in classes, rows))
    assert len({_normalized(row) for row in j_rows}) == len(j_rows) == len(classes)
    assert len(j_rows) == n2 * lt.n
    assert single_pass_nullspace(j_rows, ncols) == single_pass_nullspace(every, ncols)


def _contract_model():
    """codim4 with its forms H_j replaced by D* H_j D, D = diag(1/3, i/5,
    (1 + i)/2, 1, ...): Hermitian forms with rational and Gaussian-rational
    entries."""
    model = catalog.make_codim4().model
    d = (GaussianRational(Fraction(1, 3)), GaussianRational(0, Fraction(1, 5)),
         GaussianRational(Fraction(1, 2), Fraction(1, 2))) + (GaussianRational(1),) * (model.n - 3)
    return QuadricModel([[[d[a].conjugate() * h.entries[a][b] * d[b] for b in range(model.n)]
                          for a in range(model.n)] for h in model.hermitian])


def test_every_kernel_binding_gets_int_rows(monkeypatch, codim5_result):
    """The eliminator takes integer rows only: each caller scales its own
    rational rows.  Every row that reaches the kernel from ``linalg``
    (``ExactMatrix.nullspace``), ``realize`` (``express_in_span``) and
    ``prolong`` (the systems and the faithfulness test of ``check_jacobi``)
    holds only ``int`` entries, on rational and Gaussian-rational inputs."""
    seen = {}

    def recorder(module):
        def capture(rows, ncols, **kwargs):
            rows = list(rows)
            seen.setdefault(module.__name__, []).extend(rows)
            return sparse_int_nullspace(rows, ncols, **kwargs)
        return capture

    for module in (linalg, realize, prolong):
        monkeypatch.setattr(module, "sparse_int_nullspace", recorder(module))

    model = _contract_model()
    assert any(x.re.denominator > 1 and x.im for h in model.hermitian
               for row in h.entries for x in row)
    assert model.validate().all_passed
    for d in (0, 1):
        basis = realize_basis(codim5_result, d)
        fields = [basis[0] * Fraction(1, 3), basis[1] * GaussianRational(0, Fraction(2, 5)),
                  *basis[2:]]
        assert len({f.den for f in fields}) > 1
        target = basis[0] + basis[1] * GaussianRational(0, 1) + basis[2] * Fraction(1, 7)
        want = (3, Fraction(5, 2), Fraction(1, 7)) + (0,) * (len(basis) - 3)
        assert express_in_span(target, fields) == want
    result = prolong.prolong_full(catalog.get("heisenberg").model, use_cache=False)
    assert result.algebra.check_jacobi() > 0

    assert set(seen) == {"crprolong.linalg", "crprolong.realize", "crprolong.prolong"}
    for rows in seen.values():
        assert rows and all(type(v) is int for row in rows for v in row.values())
