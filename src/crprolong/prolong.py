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

plus, for i = 0 only, J-linearity of phi.  It reads g_{i-1}, g_{i-2} and
g_{i-3} from their sparse tables and solves over Q with the sparse
fraction-free kernel.  The unknown vector is phi flattened row-major (source
basis major) followed by psi, so the canonical nullspace basis makes every
run byte-reproducible.

Brackets between nonnegative degrees are reconstructed from the actions
([h, X] = [f, [g, X]] - [g, [f, X]]) as sparse vectors in that same layout.
The canonical kernel basis has a 1 at each element's trailing column and 0
there in every other element, so the coefficients of h are read off at those
columns; one exact comparison of h with the combination over the whole
(phi, psi) vector is the closure assertion.  A full exact Jacobi sweep over
all basis triples, on integer tables with one common denominator, is
available as a consistency gate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import InputError, InternalCheckError, NonterminationError
from .linalg import sparse_int_nullspace
from .model import LeviTanakaAlgebra, QuadricModel, build_levi_tanaka

_F0 = Fraction(0)


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


def _by_target(piece, part: int, nsrc: int, width: int):
    """Transpose one table of a piece: out[s][c] lists (m, value) over the
    elements B_m whose [B_m, source s] has component c."""
    out = [[[] for _ in range(width)] for _ in range(nsrc)]
    for m, elem in enumerate(piece):
        for s, entries in enumerate(elem[part]):
            for c, v in entries:
                out[s][c].append((m, v))
    return out


def prolong_step(lt: LeviTanakaAlgebra, pieces: dict, i: int):
    """Basis of g_i (i >= 0) given g_{-2}..g_{i-1} in ``pieces``."""
    if i < 0:
        raise ValueError("prolong_step needs i >= 0")
    n2, k = 2 * lt.n, lt.k
    mb = lt.mbracket
    m1, m2 = len(pieces[i - 1]), len(pieces[i - 2])
    m3 = len(pieces.get(i - 3, ()))     # g_{-3} = 0
    nphi = n2 * m1
    rows = []

    if i == 0:
        # phi J = J phi, written per source s and target component t
        for s in range(n2):
            ps, eps = lt.j_index(s)
            for t in range(n2):
                jt, sign = lt.j_index(t)
                rows.append({ps * n2 + t: eps, s * n2 + jt: sign})

    # (a) psi([X_a, X_b]) - [phi X_a, X_b] + [phi X_b, X_a] = 0   in g_{i-2}
    on_x = _by_target(pieces[i - 1], 0, n2, m2)     # [B_m, X_s] component c
    for a in range(n2):
        for b in range(a + 1, n2):
            ab = mb[a][b]
            for c in range(m2):
                row = {nphi + l * m2 + c: x for l, x in enumerate(ab) if x}
                for m, v in on_x[b][c]:
                    row[a * m1 + m] = -v
                for m, v in on_x[a][c]:
                    row[b * m1 + m] = v
                if row:
                    rows.append(row)

    # (b) [phi X_s, W_j] - [psi W_j, X_s] = 0   in g_{i-3}
    on_w = _by_target(pieces[i - 1], 1, k, m3)      # [B_m, W_j] component c
    below = _by_target(pieces[i - 2], 0, n2, m3)    # [B_l, X_s] component c
    for s in range(n2):
        for j in range(k):
            for c in range(m3):
                row = {s * m1 + m: v for m, v in on_w[j][c]}
                for l, v in below[s][c]:
                    row[nphi + j * m2 + l] = -v
                if row:
                    rows.append(row)

    out = []
    for vec in sparse_int_nullspace(rows, nphi + k * m2):
        phi, psi = [[] for _ in range(n2)], [[] for _ in range(k)]
        for col, v in sorted(vec.items()):
            if col < nphi:
                s, m = divmod(col, m1)
                phi[s].append((m, v))
            else:
                j, l = divmod(col - nphi, m2)
                psi[j].append((l, v))
        out.append((tuple(map(tuple, phi)), tuple(map(tuple, psi))))
    return out


def _nonzero(vec):
    """Sparse form of a dense vector: its nonzero (index, value) pairs."""
    return tuple((i, x) for i, x in enumerate(vec) if x)


def _negated_dense(entries, width: int):
    """Dense tuple of the negated sparse (index, value) pairs."""
    out = [_F0] * width
    for t, x in entries:
        out[t] = -x
    return tuple(out)


def _swapped(table):
    """Table of [B_b, B_a] from a table of sparse [B_a, B_b] entries."""
    return [[tuple((t, -x) for t, x in row[b]) for row in table]
            for b in range(len(table[0]))]


def _flat(elem, m1: int, m2: int) -> dict:
    """An element in the kernel layout of ``prolong_step`` (phi row-major,
    then psi row-major) as {column: value}."""
    phi, psi = elem
    vec = {s * m1 + m: v for s, entries in enumerate(phi) for m, v in entries}
    base = len(phi) * m1
    vec.update((base + j * m2 + l, v) for j, entries in enumerate(psi) for l, v in entries)
    return vec


class _SparseBasis(NamedTuple):
    """Kernel-layout view of the canonical basis of one degree d >= 0:
    ``flat[g]`` is B_g as {column: value}; ``trailing[g]`` is its last column.
    """
    flat: tuple
    trailing: tuple


class GradedLieAlgebra:
    """The full prolongation: the pieces g_{-2}..g_top in the piece format."""

    def __init__(self, lt: LeviTanakaAlgebra, pieces: dict):
        self.lt = lt
        self.n, self.k = lt.n, lt.k
        self.pieces = pieces
        self.dims = {d: len(p) for d, p in sorted(pieces.items())}
        self._sc = None
        self._views = {}
        self._realized = {}             # degree -> realized basis fields (realize.py)

    # -- basic queries ------------------------------------------------------
    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def top_degree(self) -> int:
        return max(d for d, v in self.dims.items() if v)

    def degrees(self):
        return sorted(self.dims)

    def _sparse(self, d: int) -> _SparseBasis:
        """Kernel-layout view of the g_d basis, checked once: the phi parts are
        independent (faithfulness) and each element has a 1 at its trailing
        column where every other element vanishes (canonical kernel form)."""
        view = self._views.get(d)
        if view is not None:
            return view
        piece = self.pieces[d]
        flat = tuple(_flat(elem, self.dims[d - 1], self.dims[d - 2]) for elem in piece)
        # the phi parts are independent iff the transposed system has no kernel
        nphi = 2 * self.n * self.dims[d - 1]
        columns = {}
        for g, vec in enumerate(flat):
            for c, v in vec.items():
                if c < nphi:
                    columns.setdefault(c, {})[g] = v
        if sparse_int_nullspace(columns.values(), len(piece)):
            raise InternalCheckError(
                f"degree {d} elements are not determined by their g_-1 action")
        trailing = tuple(max(vec) for vec in flat)
        for g, t in enumerate(trailing):
            others = [h for h, vec in enumerate(flat) if h != g and t in vec]
            if flat[g][t] != 1 or others:
                raise InternalCheckError(
                    f"degree {d} basis element {g} is not in canonical kernel form at "
                    f"its trailing column {t}: value {flat[g][t]}, also nonzero in "
                    f"elements {others}")
        view = self._views[d] = _SparseBasis(flat, trailing)
        return view

    def _read_off(self, d: int, vec: dict):
        """Coefficients of the sparse (phi, psi) vector ``vec`` in the g_d
        basis, read at the trailing columns, and the first column where
        ``vec`` differs from that combination (None when it is equal)."""
        view = self._sparse(d)
        coeffs = tuple(vec.get(t, _F0) for t in view.trailing)
        rest = dict(vec)
        for c, elem in zip(coeffs, view.flat):
            if c:
                for col, x in elem.items():
                    rest[col] = rest.get(col, _F0) - c * x
        return coeffs, min((col for col, x in rest.items() if x), default=None)

    # -- structure constants -------------------------------------------------
    def structure_constants(self):
        """Brackets of basis pairs, canonical keys (i, j) with i <= j.

        Values: nested lists sc[(i, j)][alpha][beta] = coefficient tuple over
        the basis of g_{i+j}.  Pairs whose bracket lands outside the computed
        range are identically zero and omitted.
        """
        if self._sc is not None:
            return self._sc
        b = self.top_degree()
        sc = {}
        # lower[(p, q)][a][b']: sparse ((t, value), ...) of [B^p_a, B^q_b'],
        # for both orders of every degree pair computed so far
        lower = {}
        for d, piece in self.pieces.items():
            if d >= -1:
                sc[(-1, d)] = [[_negated_dense(phi[s], self.dims[d - 1]) for phi, _ in piece]
                               for s in range(2 * self.n)]
            if d >= 0:
                sc[(-2, d)] = [[_negated_dense(psi[j], self.dims[d - 2]) for _, psi in piece]
                               for j in range(self.k)]
            lower[(d, -1)] = [phi for phi, _ in piece]
            lower[(d, -2)] = [psi for _, psi in piece]

        for total in range(0, b + 1):
            for i in range(0, total // 2 + 1):
                j = total - i
                block = [[self._bracket_pair(i, ai, j, aj, lower)
                          for aj in range(self.dims[j])] for ai in range(self.dims[i])]
                sc[(i, j)] = block
                lower[(i, j)] = [list(map(_nonzero, row)) for row in block]
                if i != j:
                    lower[(j, i)] = _swapped(lower[(i, j)])
        self._sc = sc
        return sc

    def _bracket_pair(self, i, ai, j, aj, lower):
        """[B^i_ai, B^j_aj] in the g_{i+j} basis, with the closure check.

        The bracket h = [f, g] acts by [h, Y] = [f, [g, Y]] - [g, [f, Y]] on
        the g_{-1} and g_{-2} basis; its coefficients are read off at the
        trailing columns and h must equal that combination exactly.
        """
        total = i + j
        w1, w2 = self.dims[total - 1], self.dims[total - 2]
        (f_phi, f_psi), (g_phi, g_psi) = self.pieces[i][ai], self.pieces[j][aj]
        h = {}
        for g_rows, f_rows, f_on, g_on, width, base in (
                (g_phi, f_phi, lower[(i, j - 1)][ai], lower[(j, i - 1)][aj], w1, 0),
                (g_psi, f_psi, lower[(i, j - 2)][ai], lower[(j, i - 2)][aj],
                 w2, 2 * self.n * w1)):
            for g_row, f_row in zip(g_rows, f_rows):
                for m, v in g_row:
                    for t, x in f_on[m]:
                        h[base + t] = h.get(base + t, _F0) + v * x
                for m, v in f_row:
                    for t, x in g_on[m]:
                        h[base + t] = h.get(base + t, _F0) - v * x
                base += width
        coeffs, bad = self._read_off(total, h)
        if bad is not None:
            raise InternalCheckError(
                f"bracket of basis elements ({i},{ai}) and ({j},{aj}) (degree, index) "
                f"does not close in g_{total}: first mismatch at column {bad} "
                f"of the (phi, psi) layout")
        return coeffs

    # -- consistency sweeps -----------------------------------------------------
    def check_jacobi(self) -> int:
        """Exact Jacobi identity over every basis triple; returns triple count."""
        sc = self.structure_constants()
        den = lcm(*{x.denominator for block in sc.values() for row in block
                    for vec in row for x in vec})
        # integer tables for both orders of each degree pair, scaled by den
        tables = {}
        for (p, q), block in sc.items():
            tables[(p, q)] = [[tuple((t, x.numerator * (den // x.denominator))
                                     for t, x in _nonzero(vec)) for vec in row]
                              for row in block]
            if p != q:
                tables[(q, p)] = _swapped(tables[(p, q)])
        degs = [d for d in self.degrees() if self.dims[d]]
        basis = [(d, i) for d in degs for i in range(self.dims[d])]
        b = self.top_degree()
        checked = 0

        def term(p, ap, q, aq, r, ar, acc):
            tab = tables.get((p, q))
            tab2 = tables.get((p + q, r))
            if tab is None or tab2 is None:
                return
            for m, vm in tab[ap][aq]:
                for t, x in tab2[m][ar]:
                    acc[t] += vm * x

        nb = len(basis)
        for x in range(nb):
            p, ap = basis[x]
            for y in range(x + 1, nb):
                q, aq = basis[y]
                if p + q + b < -2:
                    break
                for zz in range(y + 1, nb):
                    r, ar = basis[zz]
                    s = p + q + r
                    if s < -2:
                        continue
                    if s > b:
                        break
                    dim_t = self.dims.get(s, 0)
                    if not dim_t:
                        continue
                    acc = [0] * dim_t
                    term(p, ap, q, aq, r, ar, acc)
                    term(q, aq, r, ar, p, ap, acc)
                    term(r, ar, p, ap, q, aq, acc)
                    if any(acc):
                        t = next(t for t, v in enumerate(acc) if v)
                        raise InternalCheckError(
                            f"Jacobi failure on basis triple ({p},{ap}), ({q},{aq}), "
                            f"({r},{ar}) (degree, index): component {t} of g_{s}")
                    checked += 1
        return checked


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
            sc = self.algebra.structure_constants()
            out["structure_constants"] = {
                f"{i},{j}": [[[f"({x})+(0)i" for x in vec] for vec in row] for row in block]
                for (i, j), block in sorted(sc.items())
            }
        return out


_CACHE_SIZE = 8                         # results kept; the least recently used goes first
_CACHE: OrderedDict = OrderedDict()


def clear_cache():
    _CACHE.clear()


def prolong_full(model: QuadricModel, max_degree: int = 12,
                 use_cache: bool = True) -> ProlongationResult:
    """Full prolongation, iterated until a zero degree (then one more degree
    is computed and asserted zero — m is generated by g_{-1}, so a single
    vanishing degree kills everything above it)."""
    if max_degree < 0:
        raise InputError(f"degree cap must be nonnegative, got {max_degree}")
    key = (model.fingerprint(), max_degree)
    if use_cache and key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]

    lt = build_levi_tanaka(model)
    pieces = _negative_pieces(lt)
    terminated = False
    for i in range(0, max_degree + 1):
        pieces[i] = prolong_step(lt, pieces, i)
        if not pieces[i]:
            pieces[i + 1] = prolong_step(lt, pieces, i + 1)
            if pieces[i + 1]:
                raise InternalCheckError(
                    "nonzero degree above a vanishing one (generation failure)")
            del pieces[i], pieces[i + 1]
            terminated = True
            break
    if not terminated:
        raise NonterminationError(
            f"prolongation not terminated below degree cap {max_degree}")
    if 0 not in pieces:
        raise InternalCheckError("g_0 is empty — the grading pair is always present")

    algebra = GradedLieAlgebra(lt, pieces)
    b = algebra.top_degree()
    result = ProlongationResult(
        model=model,
        algebra=algebra,
        dims=dict(algebra.dims),
        top_degree=b,
        jet_order=jet_order(b),
        terminated=terminated,
    )
    if use_cache:
        _CACHE[key] = result
        if len(_CACHE) > _CACHE_SIZE:
            _CACHE.popitem(last=False)
    return result
