"""Realization of prolongation elements as polynomial vector fields.

An element X_b of degree b acts on the complexified negative part through
iterated brackets with z = sum z_a eps_a (eps_a = (e_a - i Je_a)/2) and
w = sum w_j W_j; collecting the components that land in degrees -1 and -2
with the factorial weights

    sum_{c+2d=b+1} (-1)^{c+d}/(c! d!) (ad_z^c ad_w^d X_b)_{-1}  -> d/dz terms
    sum_{c+2d=b+2} (-1)^{c+d}/(c! d!) (ad_z^c ad_w^d X_b)_{-2}  -> d/dw terms

(ad_z and ad_w commute, so these are the terms of e^{-ad_z} e^{-ad_w} X_b =
e^{-ad_{z+w}} X_b; the product of factorials, not (c+d)!, is what makes the
output tangent — checked against the symbolic tangency oracle.)

yields a weighted-homogeneous holomorphic field of weighted degree b that
is tangent to the quadric.  The degree -1 component is read off in the
eps-basis (a vector x_a e_a + y_a Je_a has z_a-coefficient x_a + i y_a).

The map is real-linear and intertwines brackets up to one global sign:
``field_bracket(realize(A), realize(B)) = BRACKET_SIGN * realize([A, B])``
(the algebra bracket corresponds to the opposite of the field bracket, as
for right- vs left-invariant fields).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DimensionError, InputError
from .linalg import _rows_to_int, sparse_int_nullspace
from .poly import Poly, PolyVectorField
from .prolong import GradedLieAlgebra, ProlongationResult
from .scalars import GaussianRational

BRACKET_SIGN = -1

_F0 = Fraction(0)
_HALF = Fraction(1, 2)


def _ad_z(alg: GradedLieAlgebra, state: dict) -> dict:
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


def _ad_w(alg: GradedLieAlgebra, state: dict) -> dict:
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


def realize_element(alg: GradedLieAlgebra, degree: int, coeffs) -> PolyVectorField:
    """Realize the element of g_degree with the given basis coefficients."""
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
    return PolyVectorField(n, k, z_comps, w_comps)


def realize_basis(result: ProlongationResult, degree: int):
    """Realized canonical basis of g_degree (empty list for a zero piece)."""
    alg = result.algebra
    dim = alg.dim(degree)
    out = []
    for m in range(dim):
        unit = [Fraction(0)] * dim
        unit[m] = Fraction(1)
        out.append(realize_element(alg, degree, unit))
    return out


def euler_field(result_or_alg) -> PolyVectorField:
    alg = result_or_alg.algebra if isinstance(result_or_alg, ProlongationResult) else result_or_alg
    return PolyVectorField.euler(alg.n, alg.k)


def express_in_span(target: PolyVectorField, fields) -> tuple | None:
    """Real coefficients writing ``target`` as a combination of ``fields``.

    Realized automorphisms form a *real* vector space, so the membership
    solve runs over Q with each complex coordinate split into two real rows.
    The last canonical kernel vector of [fields | -target] ends at the target
    column exactly when the target lies in the span; it is then the solution
    with every free coefficient 0.  Returns a tuple of Fractions, or None
    when target is outside the span.
    """
    fields = list(fields)
    rows = {}
    for col, fld in enumerate((*fields, -target)):
        if fld.n != target.n or fld.k != target.k:
            raise DimensionError("fields from different variable frames")
        for key, c in fld.coefficient_entries():
            re_row, im_row = rows.setdefault(key, ({}, {}))
            if c.re:
                re_row[col] = c.re
            if c.im:
                im_row[col] = c.im
    basis = sparse_int_nullspace(_rows_to_int(r for pair in rows.values() for r in pair),
                                 len(fields) + 1)
    if basis and max(basis[-1]) == len(fields):
        return tuple(basis[-1].get(c, _F0) for c in range(len(fields)))
    return None
