"""Tanaka prolongation of the Levi-Tanaka algebra of a quadric model.

Every graded piece g_d, from g_{-2} up, has one format: ``pieces[d]`` is a
list with one pair (phi, psi) per basis element B.  ``phi[s]`` holds the
sorted nonzero (index, value) pairs of [B, X_s] in the g_{d-1} basis and
``psi[j]`` those of [B, W_j] in the g_{d-2} basis, where X_s runs over the
g_{-1} basis and W_j over the g_{-2} basis.  For g_{-1} the phi tables are
the Levi-Tanaka brackets and the psi tables are empty; for g_{-2} every
table is empty.

One builder, ``prolong_step``, makes every degree i >= 0 as the exact
kernel of the linear system

    (a)  psi([X, Y]) = [phi X, Y] - [phi Y, X]          X, Y in g_{-1}
    (b)  [phi X, W] = [psi W, X]                        W in g_{-2}

plus, for i = 0 only, J-linearity of phi.  It reads g_{i-1} and g_{i-2}
from their integer tables and solves over Q with the sparse fraction-free
kernel.  The unknown vector is phi flattened row-major (source basis major)
followed by psi, so the canonical nullspace basis makes every run
byte-reproducible.

The rows are integers from the start.  Each degree's tables are scaled once
to integers over one denominator den_d (``_int_table``, the (den, phi, psi)
table of ``GradedLieAlgebra._int_piece``); ``prolong_full`` keeps one such
table per degree and hands them to the algebra, so the structure constants
and realization never rescale them.  Each row kind has one multiplier:
lcm(den_{-1}, den_{i-1}) for (a), lcm(den_{i-1}, den_{i-2}) for (b) and 1
for the J-rows.  Every row is held once, as written.  Most rows are
shifted copies of one table column; those equal up to scale are kept once,
the repeats skipped before they are written (see ``prolong_step``), since
they leave the row space, and so the kernel, unchanged.  One DEBUG record of
the ``crprolong.prolong`` logger per degree gives the rows written and kept,
the kernel's presolve and block counts, the rank, the kernel dimension and
the seconds.

Brackets between nonnegative degrees are reconstructed from the actions
([h, X] = [f, [g, X]] - [g, [f, X]]) as sparse vectors in that same layout.
They are accumulated in integers: each degree's tables and each finished
block of brackets are scaled once to integers over one denominator, and every
bracket of an (i, j) block is summed over that block's one denominator, the
lcm of its four products of table denominators.  The canonical kernel basis
has a 1 at each element's trailing column and 0 there in every other element,
so the coefficients of h are read off at those columns; one exact integer
comparison of h with the combination over the whole (phi, psi) vector is the
closure assertion.  In a same-degree block only the pairs a < b are
computed; [B_b, B_a] is the mirrored bracket negated.  The structure
constants keep the piece format: each bracket is the sorted nonzero
(index, Fraction) pairs of its coefficients, and only
``ProlongationResult.to_json`` fills in the zeros.

The Jacobi identity is certified by closure, a sweep and a lemma.  The
direct triples are those with a g_{-1} member or a negative total degree.
The constants are read-only, so each direct triple (X, b, c) with X in
g_{-1}, b and c of degree >= 0 and [b, c] computed is the g_{-1} part of the
closure assertion of [b, c].  The other direct triples are swept exactly, on
integer tables with one common denominator (the sweep helpers are in
``jacobi``), and Tanaka's lemma gives all remaining triples (see
``check_jacobi``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .errors import InputError, InternalCheckError, NonterminationError
from .jacobi import _degree_triples, _jacobi_block, jacobi_triple_count
from .linalg import sparse_int_nullspace
from .model import LeviTanakaAlgebra, QuadricModel, build_levi_tanaka


def jet_order(top_degree: int) -> int:
    """Jet determination order for automorphisms: floor((b + 2) / 2)."""
    return (top_degree + 2) // 2


def _negative_pieces(lt: LeviTanakaAlgebra) -> dict:
    """g_{-2} and g_{-1} in the piece format."""
    n2, k = 2 * lt.n, lt.k
    return {-2: [(((),) * n2, ((),) * k)] * k,
            -1: [(tuple(_nonzero(lt.mbracket[u][s]) for s in range(n2)), ((),) * k)
                 for u in range(n2)]}


def compute_g0(lt: LeviTanakaAlgebra):
    """Basis of g_0: J-commuting degree-0 derivations of m, canonical order."""
    return prolong_step(lt, _negative_pieces(lt), 0)


def _debug(msg: str, *args):
    """Log on the ``crprolong.prolong`` logger at DEBUG.  Before anything
    imports ``logging`` no handler or level can have been set, so the record
    would go nowhere; the import (a few ms of every CLI start) is skipped."""
    if "logging" in sys.modules:
        import logging
        logging.getLogger(__name__).debug(msg, *args)


def _int_table(pieces: dict, ints: dict, d: int):
    """(den_d, phi, psi): den_d times the phi and psi tables of each B_m in
    g_d, as integer (index, value) pairs, scaled into ``ints`` when first
    asked for."""
    if d not in ints:
        den, tables = _scaled([[elem[part] for elem in pieces[d]] for part in (0, 1)])
        ints[d] = den, *tables
    return ints[d]


def _columns(table, nsrc: int, width: int, mult: int, key):
    """Transpose ``table``, whose entry table[m][s] holds sparse (c, value)
    pairs, times ``mult``: idx[s][c] and val[s][c] list m and mult * value
    over the m whose entry s has component c, m ascending, and keys[s][c] is
    ``key`` of that column."""
    idx = [[[] for _ in range(width)] for _ in range(nsrc)]
    val = [[[] for _ in range(width)] for _ in range(nsrc)]
    for m, elem in enumerate(table):
        for s, entries in enumerate(elem):
            for c, v in entries:
                idx[s][c].append(m)
                val[s][c].append(mult * v)
    return idx, val, [list(map(key, *pair)) for pair in zip(idx, val)]


def prolong_step(lt: LeviTanakaAlgebra, pieces: dict, i: int, ints: dict | None = None):
    """Basis of g_i (i >= 0) given g_{-2}..g_{i-1} in ``pieces``.

    ``ints`` holds the integer table of each degree (``_int_table``) and is
    filled as needed.  The integer rows and their multipliers are described
    in the module docstring; each is written in ascending column order into
    the dict ``rows``, whose values, in the order written, are the kernel's
    input.  ``written`` counts every row the system states, repeats included.

    A row with one nonempty part is one shifted column of a transposed table
    or of the [X_a, X_b] psi pattern: an (a) row with [X_a, X_b] = 0 and one
    side empty, an (a) row with a psi part only, or a (b) row with a phi or
    a psi part only.  Such a row is kept once up to scale, under the int key
    of ``key``: its shape (the columns relative to the first, and the values
    over their gcd content, the first one positive) is interned to an id,
    and the row is named by first + ncols * id.  Equal keys name rows equal
    up to scale, and the key of a row shifted by s columns is its key plus
    s, so the key of each table column is computed once (``_columns``) and a
    repeat is skipped before it is built.  Every other row has phi entries
    in two blocks (the columns of two sources X_s) or both phi and psi
    entries; it is held under the key -written, which no shape key equals,
    and handed to the kernel as written, which drops a repeat as a dependent
    row.
    """
    if i < 0:
        raise ValueError("prolong_step needs i >= 0")
    start = time.perf_counter()
    ints = {} if ints is None else ints
    n2, k = 2 * lt.n, lt.k
    m1, m2 = len(pieces[i - 1]), len(pieces[i - 2])
    m3 = len(pieces.get(i - 3, ()))     # g_{-3} = 0
    nphi = n2 * m1
    ncols = nphi + k * m2
    rows, written, shapes = {}, 0, {}

    def key(cols, vals):
        """The int key of the row (cols ascending, vals); 0 if it is empty."""
        if not cols:
            return 0
        g = gcd(*vals) if vals[0] > 0 else -gcd(*vals)
        shape = (*[c - cols[0] for c in cols], *[v // g for v in vals])
        return cols[0] + ncols * shapes.setdefault(shape, len(shapes) + 1)

    if i == 0:
        # phi J = J phi, written per source s < n and target component t: the
        # row of (J s, J t) is the row of (s, t) times -eps sign
        for s in range(lt.n):
            ps, eps = lt.j_index(s)
            for t in range(n2):
                jt, sign = lt.j_index(t)
                written += 1
                rows[-written] = dict(sorted({ps * n2 + t: eps, s * n2 + jt: sign}.items()))

    # (a) psi([X_a, X_b]) - [phi X_a, X_b] + [phi X_b, X_a] = 0   in g_{i-2}
    den_x, x_phi, _ = _int_table(pieces, ints, -1)
    den1, phi1, psi1 = _int_table(pieces, ints, i - 1)
    mult = lcm(den_x, den1)
    on_x, plus, x_key = _columns(phi1, n2, m2, mult // den1, key)  # [B_m, X_s] component c
    fx = mult // den_x
    for a in range(n2):
        for b in range(a + 1, n2):
            xab = x_phi[a][b]                   # [X_a, X_b] in g_{-2}
            psi_cols = [nphi + l * m2 for l, _ in xab]
            psi_vals = [fx * x for _, x in xab]
            psi_key = key(psi_cols, psi_vals)
            at_a, at_b = a * m1, b * m1
            for c in range(m2):
                kb, ka = x_key[b][c], x_key[a][c]   # 0: the column is empty
                if not (psi_key or kb or ka):
                    continue
                written += 1
                if psi_key:
                    row_key = -written if kb or ka else psi_key + c
                else:
                    row_key = kb + at_a if not ka else ka + at_b if not kb else -written
                if row_key in rows:
                    continue
                cols = [at_a + m for m in on_x[b][c]]
                cols += [at_b + m for m in on_x[a][c]]
                cols += [col + c for col in psi_cols]
                rows[row_key] = dict(zip(cols, [-v for v in plus[b][c]] + plus[a][c] + psi_vals))

    del on_x, plus, x_key

    # (b) [phi X_s, W_j] - [psi W_j, X_s] = 0   in g_{i-3}
    den2, phi2, _ = _int_table(pieces, ints, i - 2)
    mult = lcm(den1, den2)
    on_w, w_vals, w_key = _columns(psi1, k, m3, mult // den1, key)        # [B_m, W_j] component c
    below, b_vals, b_key = _columns(phi2, n2, m3, -(mult // den2), key)   # -[B_l, X_s] component c
    for s in range(n2):
        at_s = s * m1
        for j in range(k):
            at_j = nphi + j * m2
            for c in range(m3):
                kw, kl = w_key[j][c], b_key[s][c]
                if not (kw or kl):
                    continue
                written += 1
                row_key = kw + at_s if not kl else kl + at_j if not kw else -written
                if row_key in rows:
                    continue
                cols = [at_s + m for m in on_w[j][c]]
                cols += [at_j + l for l in below[s][c]]
                rows[row_key] = dict(zip(cols, w_vals[j][c] + b_vals[s][c]))
    del on_w, w_vals, below, b_vals, w_key, b_key    # the kernel needs the rows only
    shapes.clear()

    built = time.perf_counter()
    stats = {}
    out = []
    for vec in sparse_int_nullspace(rows.values(), ncols, stats=stats):
        phi, psi = [[] for _ in range(n2)], [[] for _ in range(k)]
        for col, v in sorted(vec.items()):
            if col < nphi:
                s, m = divmod(col, m1)
                phi[s].append((m, v))
            else:
                j, l = divmod(col - nphi, m2)
                psi[j].append((l, v))
        out.append((tuple(map(tuple, phi)), tuple(map(tuple, psi))))
    end = time.perf_counter()
    _debug("degree %d: %d rows written, %d kept, %d columns zeroed by singletons, "
           "%d cols, %d blocks, largest block %d cols, rank %d, dim %d, %.3f s (kernel %.3f s)",
           i, written, len(rows), stats["zeroed"], ncols, stats["blocks"],
           stats["largest"], stats["rank"], len(out), end - start, end - built)
    return out


def _nonzero(vec):
    """Sparse form of a dense vector: its nonzero (index, value) pairs."""
    return tuple((i, x) for i, x in enumerate(vec) if x)


def _swapped(table):
    """Table of [B_b, B_a] from a table of sparse [B_a, B_b] entries."""
    return [[tuple((t, -x) for t, x in row[b]) for row in table]
            for b in range(len(table[0]))]


class _Frozen(list):
    """A list that refuses every mutating method.  Its ``repr``, ``==``,
    iteration and the JSON writer see a plain list."""

    def _refuse(self, *args):
        raise TypeError("the pieces and structure constants of an algebra are read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def _flat(elem, m1: int, m2: int) -> dict:
    """An element in the kernel layout of ``prolong_step`` (phi row-major,
    then psi row-major) as {column: value}."""
    phi, psi = elem
    vec = {s * m1 + m: v for s, entries in enumerate(phi) for m, v in entries}
    base = len(phi) * m1
    vec.update((base + j * m2 + l, v) for j, entries in enumerate(psi) for l, v in entries)
    return vec


def _scaled(tables):
    """Tables of sparse (index, Fraction) pairs as integer numerators over one
    common denominator: (den, [scaled table, ...])."""
    den = lcm(*{x.denominator for table in tables for row in table
                for entries in row for _, x in entries})
    return den, [[[tuple((t, x.numerator * (den // x.denominator)) for t, x in entries)
                   for entries in row] for row in table] for table in tables]


class _SparseBasis(NamedTuple):
    """Integer view of the canonical basis of one degree d >= 0 over the
    denominator ``den`` of its integer tables: ``flat[g]`` is den * B_g in the
    kernel layout as {column: value}, ``trailing[g]`` is its last column and
    ``index`` maps each trailing column back to g."""
    den: int
    flat: tuple
    trailing: tuple
    index: dict


class GradedLieAlgebra:
    """The full prolongation: the pieces g_{-2}..g_top in the piece format,
    read-only like the tables cached from them (a mapping proxy of lists)."""

    def __init__(self, lt: LeviTanakaAlgebra, pieces: dict, ints: dict | None = None):
        self.lt = lt
        self.n, self.k = lt.n, lt.k
        self.pieces = MappingProxyType({d: _Frozen(p) for d, p in pieces.items()})
        self.dims = {d: len(p) for d, p in sorted(pieces.items())}
        self._sc = None
        self._ints = {} if ints is None else ints   # degree -> _int_table of pieces
        self._views = {}
        self._realized = {}             # degree -> realized basis fields (realize.py)

    # -- basic queries ------------------------------------------------------
    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def top_degree(self) -> int:
        return max(d for d, v in self.dims.items() if v)

    def degrees(self):
        return sorted(self.dims)

    def _int_piece(self, d: int):
        """(den_d, phi, psi): den_d times the tables of each B_m in g_d (d >= -1),
        for ``_sparse``, the brackets and ``realize``; the table the system
        build made (``prolong_full``), or scaled once when first asked for."""
        return _int_table(self.pieces, self._ints, d)

    def _sparse(self, d: int) -> _SparseBasis:
        """Integer view of the g_d basis, built and checked once: the phi parts
        are independent (faithfulness) and each element has a 1 at its trailing
        column where every other element vanishes (canonical kernel form)."""
        view = self._views.get(d)
        if view is not None:
            return view
        den, phi, psi = self._int_piece(d)
        flat = tuple(_flat(elem, self.dims[d - 1], self.dims[d - 2]) for elem in zip(phi, psi))
        # the phi parts are independent iff the transposed system has no kernel
        nphi = 2 * self.n * self.dims[d - 1]
        columns = {}
        for g, vec in enumerate(flat):
            for c, v in vec.items():
                if c < nphi:
                    columns.setdefault(c, {})[g] = v
        if sparse_int_nullspace(columns.values(), len(flat)):
            raise InternalCheckError(
                f"degree {d} elements are not determined by their g_-1 action")
        trailing = tuple(max(vec) for vec in flat)
        for g, t in enumerate(trailing):
            others = [h for h, vec in enumerate(flat) if h != g and t in vec]
            if flat[g][t] != den or others:
                raise InternalCheckError(
                    f"degree {d} basis element {g} is not in canonical kernel form at "
                    f"its trailing column {t}: value {Fraction(flat[g][t], den)}, also "
                    f"nonzero in elements {others}")
        index = {t: g for g, t in enumerate(trailing)}
        view = self._views[d] = _SparseBasis(den, flat, trailing, index)
        return view

    def _read_off(self, d: int, vec: dict, den: int):
        """Coefficients of the (phi, psi) vector vec / den in the g_d basis as
        sorted (index, Fraction) pairs, and the first column where it differs
        from that combination (None when it is equal).

        ``vec`` holds integers, as {column: value}.  The coefficients are its
        values at the trailing columns over den.  With the basis scaled to
        ``flat[g]`` = E B_g, vec / den equals the combination iff
        E vec = sum_g vec[trailing[g]] flat[g], which is compared in integers.
        """
        view = self._sparse(d)
        coeffs = sorted((view.index[col], x) for col, x in vec.items()
                        if x and col in view.index)
        rest = {col: x * view.den for col, x in vec.items()}
        for g, c in coeffs:
            for col, x in view.flat[g].items():
                rest[col] = rest.get(col, 0) - c * x
        bad = min(col for col, x in rest.items() if x) if any(rest.values()) else None
        return tuple((g, Fraction(c, den)) for g, c in coeffs), bad

    # -- structure constants -------------------------------------------------
    def structure_constants(self):
        """Brackets of basis pairs, canonical keys (i, j) with i <= j.

        ``sc[(i, j)][a][b]`` is the sorted nonzero (index, value) pairs of
        [B^i_a, B^j_b] over the basis of g_{i+j}, the format of the pieces.
        The (-1, d) and (-2, d) blocks are the negated, transposed phi and
        psi tables.  Pairs whose bracket lands outside the computed range are
        identically zero and omitted.  The tables are cached on the algebra
        and shared with every caller, so they are read-only: a mapping proxy
        of ``_Frozen`` blocks of ``_Frozen`` rows.

        The brackets are computed in integers.  Each degree's phi and psi
        tables are read scaled by one denominator (``_int_piece``), and each
        (i, j) block is scaled, for both orders, when it is finished.  Each
        block has one denominator for all its pairs (see ``_bracket_pair``).

        Each block is built row by row, and ``_bracket_pair`` is called for
        every pair with the rows built so far.  In a same-degree block (i, i)
        only the pairs a < b are computed and closure-checked; [B_a, B_a] is
        empty and [B_b, B_a] is the mirrored [B_a, B_b] negated, so those
        blocks are antisymmetric by construction.
        """
        if self._sc is not None:
            return self._sc
        dims = self.dims
        sc = {}
        for d, piece in self.pieces.items():
            if d >= -1:
                sc[(-1, d)] = _Frozen(map(_Frozen, _swapped([phi for phi, _ in piece])))
            if d >= 0:
                sc[(-2, d)] = _Frozen(map(_Frozen, _swapped([psi for _, psi in piece])))
        # ints[(p, q)]: (den, den * table of [B^p_a, B^q_b]) for p >= 0, both
        # orders of every block made so far and the phi (q = -1) and psi
        # (q = -2) tables
        ints = {}
        for total in range(0, self.top_degree() + 1):
            den, phi, psi = self._int_piece(total)
            ints[(total, -1)], ints[(total, -2)] = (den, phi), (den, psi)
            for i in range(0, total // 2 + 1):
                j = total - i
                # the denominators of the four terms of _bracket_pair
                dens = [ints[(a, y)][0] * ints[(b, a + y)][0]
                        for y in (-1, -2) for a, b in ((j, i), (i, j))]
                den = lcm(*dens)
                scale = den, [den // x for x in dens]
                block = []
                for ai in range(dims[i]):
                    block.append(_Frozen(self._bracket_pair(i, ai, j, aj, ints, scale, block)
                                         for aj in range(dims[j])))
                sc[(i, j)] = _Frozen(block)
                den, (table,) = _scaled([block])
                ints[(i, j)] = den, table
                if i != j:
                    ints[(j, i)] = den, _swapped(table)
        self._sc = MappingProxyType(sc)
        return self._sc

    def _bracket_pair(self, i, ai, j, aj, ints, scale, rows):
        """[B^i_ai, B^j_aj] in the g_{i+j} basis as sorted (index, value)
        pairs, with the closure check.

        ``rows`` holds the rows ai' < ai of the block.  In a same-degree block
        (i = j) the pair is mirrored unless ai < aj: the bracket is () for
        ai = aj and the negated rows[aj][ai] for aj < ai, with no closure
        check of its own (that of [B_aj, B_ai] covers it).

        The bracket h = [f, g] acts by [h, Y] = [f, [g, Y]] - [g, [f, Y]] on
        the g_{-1} and g_{-2} basis.  Each of the four terms (g's then f's
        action, on g_{-1} then g_{-2}) is a product of two integer tables of
        ``ints``; ``scale`` is the block's one denominator D and the factors
        that bring each product's denominator to D, so h accumulates in ints
        over D.  Its coefficients are read off at the trailing columns and h
        must equal that combination exactly (``_read_off``).
        """
        if i == j and aj <= ai:
            return tuple((t, -x) for t, x in rows[aj][ai]) if aj < ai else ()
        total = i + j
        w1, w2 = self.dims[total - 1], self.dims[total - 2]
        den, (g1, f1, g2, f2) = scale
        h = {}
        for y, g_mult, f_mult, width, base in ((-1, g1, f1, w1, 0),
                                               (-2, g2, f2, w2, 2 * self.n * w1)):
            g_rows, f_rows = ints[(j, y)][1][aj], ints[(i, y)][1][ai]
            f_on, g_on = ints[(i, j + y)][1][ai], ints[(j, i + y)][1][aj]
            for g_row, f_row in zip(g_rows, f_rows):
                for m, v in g_row:
                    v *= g_mult
                    for t, x in f_on[m]:
                        h[base + t] = h.get(base + t, 0) + v * x
                for m, v in f_row:
                    v *= f_mult
                    for t, x in g_on[m]:
                        h[base + t] = h.get(base + t, 0) - v * x
                base += width
        coeffs, bad = self._read_off(total, h, den)
        if bad is not None:
            raise InternalCheckError(
                f"bracket of basis elements ({i},{ai}) and ({j},{aj}) (degree, index) "
                f"does not close in g_{total}: first mismatch at column {bad} "
                f"of the (phi, psi) layout")
        return coeffs

    # -- consistency sweeps -----------------------------------------------------
    def check_jacobi(self) -> int:
        """Certify the Jacobi identity on the stored structure constants.

        Returns the number of basis triples the certificate covers,
        ``jacobi_triple_count(dims)``.  Only the direct triples need an exact
        check: those with a g_{-1} member or a negative total degree.  The
        others follow from them by Tanaka's lemma (Tanaka, J. Math. Kyoto
        Univ. 10, 1970; Yamaguchi, Adv. Stud. Pure Math. 22, 1993):

        Write J(a, b, c) = [[a, b], c] + [[b, c], a] + [[c, a], b].  It is
        trilinear, alternating because the bracket is antisymmetric, and lies
        in g_s for homogeneous a, b, c of total degree s, so basis triples of
        distinct elements in basis order decide it.  Let J vanish on every
        direct triple.  For X in g_{-1}, J(X, a, b) = 0 says that ad X is a
        derivation, and expanding [X, J(a, b, c)] with it gives

            [X, J(a, b, c)] = J([X, a], b, c) + J(a, [X, b], c) + J(a, b, [X, c]).

        Induct on s >= 0.  The triples on the right have total s - 1, so
        they vanish: directly when s - 1 < 0, by induction otherwise.  So
        [X, J(a, b, c)] = 0 for every X in g_{-1}, and J(a, b, c) = 0,
        because an element of g_s with s >= 0 is determined by its action on
        g_{-1}.

        The premises hold on the tables the sweep reads.  Faithfulness:
        ``_sparse`` proves the phi parts of each g_d (d >= 0) independent, and
        the (-1, d) blocks are the negated phi tables.  Antisymmetry: the
        table of each pair p != q is read as the swapped (q, p) one, and each
        (p, p) block must be antisymmetric.  ``structure_constants`` builds
        the (-1, d) blocks from the phi tables and the (p, p) blocks of
        p >= 0 mirrored, and the constants are read-only, so those premises
        hold by construction.  Only the (-1, -1) block, the Levi-Tanaka
        bracket as given, is checked.

        The closure checks have also settled the direct triples (X, b, c)
        with X in g_{-1}, b in g_q, c in g_r, q, r >= 0 and q + r <= top, so
        they are not swept.  The closure check of [b, c] asserts that h,
        built from [h, Y] = [b, [c, Y]] - [c, [b, Y]], equals the read-off
        sum_g sc[(q, r)][b][c]_g B_g.  Its g_{-1} part is
        [[b, c], X] = [b, [c, X]] - [c, [b, X]], that is J(X, b, c) = 0, on
        the same tables (the phi tables are the negated (-1, d) blocks).  In
        a same-degree block it checks b < c, the one order the sweep visits.
        For q + r = top + 1 no bracket is computed, so those triples are
        swept, as are those with two negative members, or with a g_{-2}
        member and a negative total.  Only the blocks those triples read are
        scaled.  A failure names the first failing swept triple in basis
        order.
        """
        sc = self.structure_constants()
        for d in self.pieces:
            if d >= 0:
                self._sparse(d)
        block = sc[(-1, -1)]
        for a, row in enumerate(block):
            for c in range(a, len(row)):
                if row[c] != tuple((t, -x) for t, x in block[c][a]):
                    raise InternalCheckError(
                        f"bracket of basis elements (-1,{a}) and (-1,{c}) "
                        f"(degree, index) is not antisymmetric")
        dims, top = self.dims, self.top_degree()
        swept = [(p, q, r) for p, q, r, _ in _degree_triples(dims)
                 if (-1 in (p, q, r) or p + q + r < 0)
                 and not (p == -1 and q >= 0 and q + r <= top)]
        # the ordered degree pairs of the three cyclic terms [[a, b], c],
        # [[b, c], a] and [[c, a], b] of each swept triple
        reads = {pair for p, q, r in swept for u, v, w in ((p, q, r), (q, r, p), (r, p, q))
                 for pair in ((u, v), (u + v, w))}
        keys = sorted({(min(pair), max(pair)) for pair in reads} & sc.keys())
        # integer tables, scaled by one common denominator, in the orders read
        tables = {}
        for (p, q), table in zip(keys, _scaled([sc[key] for key in keys])[1]):
            tables[(p, q)] = table
            if p != q and (q, p) in reads:
                tables[(q, p)] = _swapped(table)
        failures = (_jacobi_block(tables, dims, p, q, r) for p, q, r in swept)
        first = min(filter(None, failures), default=None)
        if first is not None:
            (p, ap), (q, aq), (r, ar), t = first
            raise InternalCheckError(
                f"Jacobi failure on basis triple ({p},{ap}), ({q},{aq}), "
                f"({r},{ar}) (degree, index): component {t} of g_{p + q + r}")
        return jacobi_triple_count(dims)


@dataclass(frozen=True)
class ProlongationResult:
    model: QuadricModel
    algebra: GradedLieAlgebra
    dims: dict
    top_degree: int
    jet_order: int
    terminated: bool

    def to_json(self, include_structure=True) -> dict:
        out = {
            "n": self.model.n,
            "k": self.model.k,
            "dims": {str(d): v for d, v in sorted(self.dims.items())},
            "top_degree": self.top_degree,
            "jet_order": self.jet_order,
            "terminated": self.terminated,
        }
        if include_structure:
            # each distinct value is formatted once, and every zero is one string
            text = {}

            def dense(entries, width):
                vals = ["(0)+(0)i"] * width
                for t, x in entries:
                    vals[t] = text.get(x) or text.setdefault(x, f"({x})+(0)i")
                return vals

            sc = self.algebra.structure_constants()
            out["structure_constants"] = {
                f"{i},{j}": [[dense(entries, self.dims[i + j]) for entries in row]
                             for row in block]
                for (i, j), block in sorted(sc.items())
            }
        return out


def prolong_full(model: QuadricModel, max_degree: int = 12,
                 use_cache: bool = True) -> ProlongationResult:
    """Full prolongation, iterated until a zero degree (then one more degree
    is computed and asserted zero — m is generated by g_{-1}, so a single
    vanishing degree kills everything above it).

    With ``use_cache`` the result is kept in an LRU of 8, keyed by the
    model's value and the cap, so equal models share one result."""
    if max_degree < 0:
        raise InputError(f"degree cap must be nonnegative, got {max_degree}")
    return (_cached_prolong if use_cache else _prolong)(model, max_degree)


def _prolong(model: QuadricModel, max_degree: int) -> ProlongationResult:
    lt = build_levi_tanaka(model)
    pieces = _negative_pieces(lt)
    ints = {}                           # the integer tables, shared with the algebra
    for i in range(0, max_degree + 1):
        pieces[i] = prolong_step(lt, pieces, i, ints)
        if not pieces[i]:
            pieces[i + 1] = prolong_step(lt, pieces, i + 1, ints)
            if pieces[i + 1]:
                raise InternalCheckError(
                    "nonzero degree above a vanishing one (generation failure)")
            del pieces[i], pieces[i + 1], ints[i]
            break
    else:
        raise NonterminationError(
            f"prolongation not terminated below degree cap {max_degree}")
    if 0 not in pieces:
        raise InternalCheckError("g_0 is empty — the grading pair is always present")

    algebra = GradedLieAlgebra(lt, pieces, ints)
    b = algebra.top_degree()
    result = ProlongationResult(
        model=model,
        algebra=algebra,
        dims=dict(algebra.dims),
        top_degree=b,
        jet_order=jet_order(b),
        terminated=True,
    )
    return result


_cached_prolong = lru_cache(maxsize=8)(_prolong)
clear_cache = _cached_prolong.cache_clear
