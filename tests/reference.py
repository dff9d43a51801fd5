"""Reference routes that the library no longer uses, kept for comparison.

* Dense Gauss-Jordan over Q(i) (``dense_rref``, ``dense_solve``) and the span
  solve built on it (``dense_express_in_span``).  The library computes every
  kernel, rank test and span solve with ``sparse_int_nullspace`` instead.
* The original structure-constant route: rebuild the action of [f, g] on
  g_{-1} and g_{-2} as dense ``Fraction`` vectors, solve for the
  coefficients from the g_{-1} action with a Gauss-Jordan row basis
  (``RationalRowBasis``), and check the g_{-2} action against the same
  combination.  The library reads coefficients off the canonical kernel
  basis instead.  This route reads the nonnegative pieces in the old dense
  format (``dense_pieces``).
* The original searches of ``validate`` (``dense_definite_combination``,
  ``dense_tumanov_search``): each candidate combination is built as an
  ``ExactMatrix`` (``_combine``) and the definiteness test runs one
  determinant per leading minor (``_leading_minors``).  The library builds
  the combinations from integer forms, filters them by their diagonal and
  reads all leading minors off one Bareiss pass.
* The original realization (``chain_realize_element``): the whole
  ``_ad_z``/``_ad_w`` chain runs on every coefficient vector.  The library
  runs it once per basis vector and realizes a combination as the same
  combination of the cached basis fields.
* The original Jacobi check (``full_jacobi_sweep``): the exact identity on
  every basis triple.  The library sweeps only the triples with a g_{-1}
  member or a negative total degree and certifies the rest by Tanaka's
  lemma.
* The original tangency check (``two_sided_verify_hol``): it restricts
  ``expr + conj(expr)`` to the surface with both w -> u + iP and
  conj(w) -> u - iP, monomial by monomial (``monomial_subs``).  The library
  restricts ``expr`` alone and conjugates.
* The original sparse integer kernel (``single_pass_nullspace``, with its
  helpers ``_content_normalize`` and ``_canonical_kernel_basis``): one
  elimination over the whole system, each pivot column chosen by a scan of
  every active column (Markowitz order), one back-substitution over every
  pivot row for each free column, and a canonicalization pass.  It is now
  the only route that pivots in Markowitz order and canonicalizes
  afterwards.  The library splits the system into its blocks first and
  eliminates each block in ascending column order, which gives the
  canonical basis directly.  ``tests/oracle.py`` takes its rank from this
  copy, so the oracle shares no code with the library's kernel.
* The original build of the prolongation systems (``plain_system_rows``):
  every row is written, each row in one part (one phi block or psi only)
  is normalized and hashed, and the first of each class of those rows equal
  up to scale is kept, with every other row.  The library keys the rows
  that are one shifted table column by their shape and skips the repeats
  before it writes them; the kept rows, their dicts and their order must be
  these.

Tests compare the two routes entry by entry.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from helpers import (Poly, defining_polys, determinant, diff, formal_conjugate, poly_field,
                     ring)

from crprolong.errors import (AlgebraError, DegenerateModelError, DimensionError,
                              InputError, InternalCheckError)
from crprolong.linalg import ExactMatrix
from crprolong.model import _signed_tuples
from crprolong.prolong import _int_table
from crprolong.scalars import GR_ONE, GR_ZERO, GaussianRational

_F0 = Fraction(0)
_HALF = Fraction(1, 2)


def dense_rref(m):
    """Reduced row echelon form over Q(i).  Returns (ExactMatrix, pivot column tuple)."""
    rows = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = GR_ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return ExactMatrix(rows), tuple(pivots)


def dense_solve(m, rhs):
    """One exact solution of ``m @ x = rhs`` (free vars 0), or None."""
    if len(rhs) != m.rows:
        raise DimensionError("rhs length mismatch")
    if m.rows == 0:
        return tuple([GR_ZERO] * m.cols)
    aug = ExactMatrix([list(row) + [GaussianRational(b) if not isinstance(b, GaussianRational) else b]
                       for row, b in zip(m.entries, [*rhs])])
    rr, pivots = dense_rref(aug)
    if m.cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [GR_ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rr.entries[r][m.cols]
    return tuple(x)


def dense_express_in_span(target, fields):
    """``express_in_span`` by ``dense_solve`` on the real coordinate system."""
    fields = list(fields)

    def entries(fld):
        """{(component, monomial): coefficient}, read off the Poly views."""
        return {(i, m): c for i, p in enumerate((*fld.z_comps, *fld.w_comps))
                for m, c in p.terms.items()}

    coords = {}
    for fld in (*fields, target):
        for key in entries(fld):
            coords.setdefault(key, len(coords))

    def vectorize(fld):
        col = [GR_ZERO] * len(coords)
        for key, c in entries(fld).items():
            col[coords[key]] = c
        return col

    cols = [vectorize(f) for f in fields]
    tgt = vectorize(target)
    rows = []
    rhs = []
    for i in range(len(coords)):
        rows.append([GaussianRational(c[i].re) for c in cols])
        rhs.append(GaussianRational(tgt[i].re))
        rows.append([GaussianRational(c[i].im) for c in cols])
        rhs.append(GaussianRational(tgt[i].im))
    if not rows:
        return tuple([Fraction(0)] * len(fields))
    sol = dense_solve(ExactMatrix(rows), rhs)
    if sol is None:
        return None
    return tuple(x.re for x in sol)


class RationalRowBasis:
    """Factorization of a set of independent rational row vectors.

    Used to express new vectors as exact linear combinations of the rows
    (membership solve).  Raises InternalCheckError if the rows turn out to
    be dependent or a queried vector lies outside their span.
    """

    def __init__(self, rows):
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        # Gauss-Jordan with bookkeeping: reduced rows + the transform matrix
        red = [list(map(Fraction, r)) for r in rows]
        trans = [[Fraction(i == j) for j in range(self.nrows)] for i in range(self.nrows)]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pr = next((i for i in range(r, self.nrows) if red[i][c]), None)
            if pr is None:
                continue
            red[r], red[pr] = red[pr], red[r]
            trans[r], trans[pr] = trans[pr], trans[r]
            inv = 1 / red[r][c]
            red[r] = [x * inv for x in red[r]]
            trans[r] = [x * inv for x in trans[r]]
            for i in range(self.nrows):
                if i != r and red[i][c]:
                    f = red[i][c]
                    red[i] = [a - f * b for a, b in zip(red[i], red[r])]
                    trans[i] = [a - f * b for a, b in zip(trans[i], trans[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        if r != self.nrows:
            raise InternalCheckError("rows are linearly dependent")
        self._red = red
        self._trans = trans
        self._pivots = pivots

    def express(self, vec):
        """Coefficients c with sum(c_i * row_i) == vec, else InternalCheckError."""
        vec = list(map(Fraction, vec))
        if len(vec) != self.ncols:
            raise DimensionError("vector length mismatch")
        coeffs = [Fraction(0)] * self.nrows
        for r, p in enumerate(self._pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, self._red[r])]
                coeffs = [a + f * b for a, b in zip(coeffs, self._trans[r])]
        if any(vec):
            raise InternalCheckError("vector not in span (closure failure)")
        return tuple(coeffs)


def dense_pieces(alg):
    """The nonnegative pieces of ``alg`` as dense tables: for each degree d >= 0
    and element, ``(phi, psi)`` with ``phi[s]`` the full coefficient tuple of
    [B, X_s] over g_{d-1} and ``psi[j]`` that of [B, W_j] over g_{d-2}."""
    def dense(entries, width):
        out = [_F0] * width
        for t, x in entries:
            out[t] = x
        return tuple(out)

    return {d: [(tuple(dense(row, alg.dims[d - 1]) for row in phi),
                 tuple(dense(row, alg.dims[d - 2]) for row in psi))
                for phi, psi in piece]
            for d, piece in alg.pieces.items() if d >= 0}


def dense_structure_constants(alg):
    """Structure constants of ``alg`` by the dense expression route.

    Same keys as ``GradedLieAlgebra.structure_constants``; each value is the
    full coefficient tuple that ``helpers.dense_constants`` makes of the
    library's sparse pairs.
    """
    b = alg.top_degree()
    mb = alg.lt.mbracket
    n2 = 2 * alg.n
    pieces = dense_pieces(alg)
    expressers = {}

    def expresser(d):
        if d not in expressers:
            rows = [[x for col in phi for x in col] for phi, _ in pieces[d]]
            expressers[d] = RationalRowBasis(rows)
        return expressers[d]

    sc = {(-1, -1): [[tuple(mb[a][c]) for c in range(n2)] for a in range(n2)]}
    for d in sorted(pieces):
        if not pieces[d]:
            continue
        if d - 1 >= -2:
            sc[(-1, d)] = [[tuple(-x for x in pieces[d][m][0][s])
                            for m in range(alg.dims[d])] for s in range(n2)]
        if d - 2 >= -2:
            sc[(-2, d)] = [[tuple(-x for x in pieces[d][m][1][j])
                            for m in range(alg.dims[d])] for j in range(alg.k)]

    def bkt(di, ai, dj, aj):
        """Bracket of basis elements; None when it is identically zero."""
        if di + dj < -2 or di + dj > b or not alg.dims.get(di + dj):
            return None
        if di > dj:
            v = bkt(dj, aj, di, ai)
            return None if v is None else tuple(-x for x in v)
        entry = sc.get((di, dj))
        return None if entry is None else entry[ai][aj]

    for total in range(0, b + 1):
        for i in range(0, total // 2 + 1):
            j = total - i
            if not (alg.dims.get(i) and alg.dims.get(j)):
                continue
            target_dim = alg.dims.get(total, 0)
            expr = expresser(total) if target_dim else None
            sc[(i, j)] = [[_dense_bracket_pair(alg, pieces, i, ai, j, aj, bkt, expr, total)
                           for aj in range(alg.dims[j])]
                          for ai in range(alg.dims[i])]
    return sc


def _dense_bracket_pair(alg, pieces, i, ai, j, aj, bkt, expr, total):
    """[B^i_ai, B^j_aj] expressed in the g_total basis, with closure check."""
    n2 = 2 * alg.n
    phi_i = pieces[i][ai][0]
    psi_i = pieces[i][ai][1]
    phi_j = pieces[j][aj][0]
    psi_j = pieces[j][aj][1]
    tgt1 = alg.dims.get(total - 1, 0)
    # action of the bracket on g_{-1}
    phi_h = []
    for s in range(n2):
        acc = [_F0] * tgt1
        for m, v in enumerate(phi_j[s]):
            if v:
                w = bkt(i, ai, j - 1, m)
                if w:
                    for t, x in enumerate(w):
                        if x:
                            acc[t] += v * x
        for m, v in enumerate(phi_i[s]):
            if v:
                w = bkt(j, aj, i - 1, m)
                if w:
                    for t, x in enumerate(w):
                        if x:
                            acc[t] -= v * x
        phi_h.append(acc)
    # action on g_{-2}
    tgt2 = alg.dims.get(total - 2, 0)
    psi_h = []
    for jj in range(alg.k):
        acc = [_F0] * tgt2
        for m, v in enumerate(psi_j[jj]):
            if v:
                w = bkt(i, ai, j - 2, m)
                if w:
                    for t, x in enumerate(w):
                        if x:
                            acc[t] += v * x
        for m, v in enumerate(psi_i[jj]):
            if v:
                w = bkt(j, aj, i - 2, m)
                if w:
                    for t, x in enumerate(w):
                        if x:
                            acc[t] -= v * x
        psi_h.append(acc)

    if expr is None:
        if any(x for row in phi_h for x in row) or any(x for row in psi_h for x in row):
            raise InternalCheckError(
                f"bracket of degrees ({i},{j}) lands in a zero space but is nonzero")
        return ()
    coeffs = expr.express([x for row in phi_h for x in row])
    # psi part must agree with the same combination (closure assertion)
    for jj in range(alg.k):
        for t in range(tgt2):
            s = sum((c * pieces[total][g][1][jj][t]
                     for g, c in enumerate(coeffs) if c), _F0)
            if s != psi_h[jj][t]:
                raise InternalCheckError("bracket closure mismatch on g_{-2} action")
    return coeffs


def full_jacobi_sweep(alg):
    """``GradedLieAlgebra.check_jacobi`` before the lemma: the exact Jacobi
    identity on every basis triple, in basis order; returns the triple count.

    The library's copy also left the middle loop as soon as
    p + q + b < -2, which skipped every triple (W_i, ., .) but the last W
    when the top degree b is below 2; this copy checks those triples too.
    """
    sc = alg.structure_constants()
    den = lcm(*{x.denominator for block in sc.values() for row in block
                for entries in row for _, x in entries})
    # integer tables for both orders of each degree pair, scaled by den
    tables = {}
    for (p, q), block in sc.items():
        tables[(p, q)] = [[tuple((t, x.numerator * (den // x.denominator))
                                 for t, x in entries) for entries in row]
                          for row in block]
        if p != q:
            tables[(q, p)] = [[tuple((t, -x) for t, x in row[b]) for row in tables[(p, q)]]
                              for b in range(len(tables[(p, q)][0]))]
    degs = [d for d in alg.degrees() if alg.dims[d]]
    basis = [(d, i) for d in degs for i in range(alg.dims[d])]
    b = alg.top_degree()
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
            for zz in range(y + 1, nb):
                r, ar = basis[zz]
                s = p + q + r
                if s < -2:
                    continue
                if s > b:
                    break
                dim_t = alg.dims.get(s, 0)
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


def dense_definite_combination(model, bound, limit=3000):
    """``QuadricModel._definite_combination`` before the integer rewrite."""
    if bound < 1:
        return None
    corner = [h[0, 0].re for h in model.hermitian]
    for count, c in enumerate(_signed_tuples(model.k, bound)):
        if count >= limit:
            return None
        # first leading minor, computed without building the combination;
        # zero kills both sign patterns at once
        if not sum(cj * x for cj, x in zip(c, corner) if cj):
            continue
        combo = _combine(model.hermitian, c)
        pos = neg = True
        for i, sub in enumerate(_leading_minors(combo)):
            x = determinant(sub)
            if x.im:
                raise AlgebraError("non-real principal minor of a Hermitian matrix")
            if not x.re > 0:
                pos = False
            if not (x.re > 0 if i % 2 else x.re < 0):  # (-1)^m: negative definite
                neg = False
            if not (pos or neg):
                break
        if pos or neg:
            return c
    return None


def _combine(mats, c):
    acc = None
    for h, cj in zip(mats, c):
        if cj:
            term = h.scale(cj)
            acc = term if acc is None else acc + term
    return acc


def _leading_minors(m: ExactMatrix):
    for size in range(1, m.rows + 1):
        yield ExactMatrix([row[:size] for row in m.entries[:size]])


def dense_tumanov_search(model, bound: int = 2):
    """``tumanov_search`` before the integer rewrite."""
    if not all(h.is_hermitian() for h in model.hermitian):
        raise DegenerateModelError("tumanov search requires Hermitian forms")
    for c in _signed_tuples(model.k, bound):
        if determinant(_combine(model.hermitian, c)):
            return c
    return None


# ---------------------------------------------------------------------------
# realization and tangency before the cached basis and the one-sided check
# ---------------------------------------------------------------------------

def _ad_z(alg, state):
    """Apply ad(sum z_a eps_a); each entry drops one degree."""
    n = alg.n
    out = {}
    for (d, m), f in state.items():
        phi = alg.pieces[d][m][0]
        for a in range(n):
            ce = dict(phi[a])          # [B_m, e_a] = -[e_a, B_m]
            cj = dict(phi[n + a])      # [B_m, Je_a]
            za = Poly.variable(alg.n, alg.k, "z", a)
            for t in sorted(ce.keys() | cj.keys()):
                coeff = GaussianRational(-_HALF * ce.get(t, _F0), _HALF * cj.get(t, _F0))
                key = (d - 1, t)
                add = f * za * coeff
                out[key] = out[key] + add if key in out else add
    return {key: p for key, p in out.items() if p}


def _ad_w(alg, state):
    """Apply ad(sum w_j W_j); each entry drops two degrees."""
    out = {}
    for (d, m), f in state.items():
        psi = alg.pieces[d][m][1]
        for j in range(alg.k):
            wj = Poly.variable(alg.n, alg.k, "w", j)
            for t, x in psi[j]:        # [B_m, W_j] = -[W_j, B_m]
                key = (d - 2, t)
                add = f * wj * -x
                out[key] = out[key] + add if key in out else add
    return {key: p for key, p in out.items() if p}


def chain_realize_element(alg, degree, coeffs):
    """``realize_element`` before the cached basis: the chain on ``coeffs``."""
    n, k = alg.n, alg.k
    dim = alg.dim(degree)
    if len(coeffs) != dim:
        raise DimensionError(f"expected {dim} coefficients for degree {degree}")
    if degree < -2:
        raise InputError("no such degree")
    state = {}
    for m, c in enumerate(coeffs):
        if c:
            state[(degree, m)] = Poly.constant(n, k, c)

    z_comps = [Poly.zero(n, k) for _ in range(n)]
    w_comps = [Poly.zero(n, k) for _ in range(k)]
    s_d = state
    for d in range(0, (degree + 2) // 2 + 1):
        if d > 0:
            s_d = _ad_w(alg, s_d)
        c = degree + 1 - 2 * d
        if c < 0:
            if c == -1 and s_d:
                # only the w-projection sum has a term here (c' = 0)
                gamma = Fraction((-1) ** d, factorial(d))
                for j in range(k):
                    p = s_d.get((-2, j))
                    if p:
                        w_comps[j] = w_comps[j] + p * gamma
            continue
        t = s_d
        for _ in range(c):
            t = _ad_z(alg, t)
        gamma = Fraction((-1) ** (c + d), factorial(c) * factorial(d))
        for a in range(n):
            x = t.get((-1, a))
            y = t.get((-1, n + a))
            if x or y:
                part = Poly.zero(n, k)
                if x:
                    part = part + x
                if y:
                    part = part + y * GaussianRational(0, 1)
                z_comps[a] = z_comps[a] + part * gamma
        t = _ad_z(alg, t)
        gamma = Fraction((-1) ** (c + 1 + d), factorial(c + 1) * factorial(d))
        for j in range(k):
            p = t.get((-2, j))
            if p:
                w_comps[j] = w_comps[j] + p * gamma
    return poly_field(n, k, z_comps, w_comps)


def monomial_subs(p, mapping):
    """Simultaneous substitution {(kind, index) -> Poly} into ``p``: one
    product and one sum per monomial."""
    n, k = p.n, p.k
    block = {"z": 0, "zb": n, "w": 2 * n, "wb": 2 * n + k, "u": 2 * n + 2 * k}
    sub = {block[kind] + index: q for (kind, index), q in mapping.items()}
    powers = {v: [Poly.constant(n, k, 1), q] for v, q in sub.items()}

    def pw(v, e):
        lst = powers[v]
        while len(lst) <= e:
            lst.append(lst[-1] * lst[1])
        return lst[e]

    total = Poly(n, k)
    for m, c in p.terms.items():
        rest = list(m)
        factor = None
        for v in sub:
            e = m[v]
            if e:
                rest[v] = 0
                factor = pw(v, e) if factor is None else factor * pw(v, e)
        base = Poly(n, k, {tuple(rest): c})
        total = total + (base if factor is None else base * factor)
    return total


def two_sided_surface_restriction(p, model):
    """Substitute w -> u + iP, conj(w) -> u - iP into ``p``."""
    P = defining_polys(model)
    i = GaussianRational(0, 1)
    mapping = {}
    for j in range(model.k):
        u = Poly.variable(model.n, model.k, "u", j)
        mapping[("w", j)] = u + P[j] * i
        mapping[("wb", j)] = u - P[j] * i
    return monomial_subs(p, mapping)


def two_sided_verify_hol(field, model):
    """Residuals of ``verify_hol`` before the one-sided restriction: the
    restriction of Re(X rho_j) = (expr + conj(expr)) / 2 for every j."""
    if field.n != model.n or field.k != model.k:
        raise DimensionError("field and model have different (n, k)")
    P = defining_polys(model)
    half_over_i = GaussianRational(0, Fraction(-1, 2))
    residuals = []
    for j in range(model.k):
        expr = ring(field.w_comps[j]) * half_over_i
        for a in range(model.n):
            f = field.z_comps[a]
            if f:
                expr = expr - f * diff(P[j], "z", a)
        r = (expr + formal_conjugate(expr)) * _HALF
        residuals.append(two_sided_surface_restriction(r, model))
    return tuple(residuals)


def _plain_by_target(table, nsrc: int, width: int, mult: int):
    """Transpose one integer table of a piece, times ``mult``: idx[s][c] and
    val[s][c] list m and mult * value over the elements B_m whose
    [B_m, source s] has component c, m ascending."""
    idx = [[[] for _ in range(width)] for _ in range(nsrc)]
    val = [[[] for _ in range(width)] for _ in range(nsrc)]
    for m, elem in enumerate(table):
        for s, entries in enumerate(elem):
            for c, v in entries:
                idx[s][c].append(m)
                val[s][c].append(mult * v)
    return idx, val


def one_part(cols, nphi: int, m1: int) -> bool:
    """True if the columns of a degree-i system row lie in one part: the
    phi block of one source X_s (columns s m1 .. s m1 + m1 - 1) or psi."""
    return len({c // m1 if c < nphi else -1 for c in cols}) == 1


def plain_system_rows(lt, pieces, i: int):
    """The rows that ``prolong_step`` hands to the kernel for degree i, built
    by writing every row: (the kept rows as {column: value} dicts in the
    order first written, the number of rows written).  Of the rows in one
    part (``one_part``) the first of each class equal up to scale is kept;
    every other row is kept.  Each kept row holds the values it was written
    with."""
    ints = {}
    n2, k = 2 * lt.n, lt.k
    m1, m2 = len(pieces[i - 1]), len(pieces[i - 2])
    m3 = len(pieces.get(i - 3, ()))
    nphi = n2 * m1
    rows = {}
    written = 0

    def keep(cols, vals):
        nonlocal written
        written += 1
        key = -written
        if one_part(cols, nphi, m1):
            g = gcd(*vals)
            if vals[0] < 0:
                g = -g
            key = (*cols, *[v // g for v in vals])
        if key not in rows:
            rows[key] = dict(zip(cols, vals))

    if i == 0:
        for s in range(lt.n):
            ps, eps = lt.j_index(s)
            for t in range(n2):
                jt, sign = lt.j_index(t)
                cols, vals = zip(*sorted({ps * n2 + t: eps, s * n2 + jt: sign}.items()))
                keep(cols, vals)

    den_x, x_phi, _ = _int_table(pieces, ints, -1)
    den1, phi1, psi1 = _int_table(pieces, ints, i - 1)
    mult = lcm(den_x, den1)
    on_x, plus = _plain_by_target(phi1, n2, m2, mult // den1)
    minus = [[[-v for v in vals] for vals in row] for row in plus]
    fx = mult // den_x
    for a in range(n2):
        for b in range(a + 1, n2):
            xab = x_phi[a][b]
            psi_cols = [nphi + l * m2 for l, _ in xab]
            psi_vals = [fx * x for _, x in xab]
            at_a, at_b = a * m1, b * m1
            for c in range(m2):
                cols = [at_a + m for m in on_x[b][c]]
                cols += [at_b + m for m in on_x[a][c]]
                cols += [col + c for col in psi_cols]
                if cols:
                    keep(cols, minus[b][c] + plus[a][c] + psi_vals)

    den2, phi2, _ = _int_table(pieces, ints, i - 2)
    mult = lcm(den1, den2)
    on_w, w_vals = _plain_by_target(psi1, k, m3, mult // den1)
    below, b_vals = _plain_by_target(phi2, n2, m3, -(mult // den2))
    for s in range(n2):
        at_s = s * m1
        for j in range(k):
            at_j = nphi + j * m2
            for c in range(m3):
                cols = [at_s + m for m in on_w[j][c]]
                cols += [at_j + l for l in below[s][c]]
                if cols:
                    keep(cols, w_vals[j][c] + b_vals[s][c])
    return list(rows.values()), written


def _content_normalize(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def single_pass_nullspace(rows, ncols: int):
    """Exact kernel of an integer matrix given as sparse rows.

    ``rows``: iterable of dict[col -> nonzero int].  Returns the canonical
    nullspace basis as a list of sparse vectors, each a dict[col -> nonzero
    Fraction] with a 1 at its free column, ordered by free column index; with
    the zeros filled in it is the basis of the dense RREF route.
    """
    work = {}
    col_rows = {}           # col -> set of active row ids containing it
    for rid, row in enumerate(r for r in rows if r):
        row = _content_normalize(dict(row))
        work[rid] = row
        for c in row:
            col_rows.setdefault(c, set()).add(rid)

    order = []              # (pivot row dict, pivot col) in elimination order
    while work:
        # pivot column: fewest active rows; pivot row: shortest, then smallest
        # |value|, then smallest id.  Any choice gives the same canonical
        # answer; this one keeps fill-in low.
        pc = min((c for c, s in col_rows.items() if s),
                 key=lambda c: (len(col_rows[c]), c), default=None)
        if pc is None:
            break
        pr = min(col_rows[pc], key=lambda r: (len(work[r]), abs(work[r][pc]), r))
        prow = work.pop(pr)
        pval = prow[pc]
        for c in prow:
            col_rows[c].discard(pr)
        for rid in list(col_rows[pc]):
            row = work[rid]
            b = row[pc]
            new = {}
            for c, v in row.items():
                t = pval * v
                if c in prow:
                    t -= b * prow[c]
                if t:
                    new[c] = t
            for c, v in prow.items():
                if c not in row:
                    t = -b * v
                    if t:
                        new[c] = t
            new = _content_normalize(new)
            for c in row.keys() - new.keys():
                col_rows[c].discard(rid)
            for c in new.keys() - row.keys():
                col_rows.setdefault(c, set()).add(rid)
            work[rid] = new
            if not new:
                del work[rid]
        order.append((prow, pc))

    pivot_cols = {pc for _, pc in order}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    # back-substitute one kernel vector per free column (reverse elimination
    # order: each row's non-pivot support is free cols or later pivots)
    raw = []
    for f in free_cols:
        x = {f: Fraction(1)}
        for prow, pc in reversed(order):
            s = Fraction(0)
            for c, v in prow.items():
                if c != pc and c in x:
                    s += v * x[c]
            if s:
                x[pc] = -s / prow[pc]
        raw.append(x)

    return _canonical_kernel_basis(raw)


def _canonical_kernel_basis(vectors):
    """Reduce a kernel basis to the canonical free-variable form.

    Unique reduced form with respect to *trailing* positions: each basis
    vector ends in a 1 at a distinct column and every other vector vanishes
    there.  For a kernel this coincides with the basis read off the RREF of
    the original matrix, independent of how the basis was produced.
    """
    zero = Fraction(0)
    reduced = {}            # trailing col -> dict vector
    for vec in vectors:
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        while vec:
            t = max(vec)
            if t in reduced:
                lead = reduced[t]
                f = vec[t]
                vec = {c: nv for c in vec.keys() | lead.keys()
                       if (nv := vec.get(c, zero) - f * lead.get(c, zero))}
                continue
            inv = vec[t]
            vec = {c: v / inv for c, v in vec.items()}
            # clear the new vector at every existing trailing column (each
            # reduced vector vanishes at the *other* trailing columns, so this
            # cannot reintroduce anything)
            for t2, lead in reduced.items():
                if t2 in vec:
                    f = vec[t2]
                    vec = {c: nv for c in vec.keys() | lead.keys()
                           if (nv := vec.get(c, zero) - f * lead.get(c, zero))}
            for other in reduced.values():
                if t in other:
                    f = other[t]
                    for c, v in vec.items():
                        nv = other.get(c, zero) - f * v
                        if nv:
                            other[c] = nv
                        else:
                            other.pop(c, None)
            reduced[t] = vec
            break
    return [reduced[t] for t in sorted(reduced)]
