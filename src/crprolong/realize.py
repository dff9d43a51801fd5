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

Every step of that chain is linear in the starting constant: ad_z and ad_w
multiply each entry by a fixed polynomial and a fixed scalar and add, and the
projections and factorial weights are linear too.  So the realization of an
element sum c_m B_m is sum c_m realize(B_m), exactly and for complex c_m as
well.  The chain therefore runs once per basis vector, the realized basis of
each degree is kept on the algebra (``GradedLieAlgebra._realized``, which
lives as long as the algebra does), and ``realize_element`` only combines
those fields.

The map is real-linear and intertwines brackets up to one global sign:
``field_bracket(realize(A), realize(B)) = BRACKET_SIGN * realize([A, B])``
(the algebra bracket corresponds to the opposite of the field bracket, as
for right- vs left-invariant fields).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DimensionError, InputError
from .linalg import sparse_int_nullspace
from .poly import Poly, PolyVectorField
from .prolong import GradedLieAlgebra, ProlongationResult
from .scalars import GaussianRational

BRACKET_SIGN = -1

_F0 = Fraction(0)
_HALF = Fraction(1, 2)
_I = GaussianRational(0, 1)


def _z_action(alg: GradedLieAlgebra, d: int, m: int) -> list:
    """[(a, [(t, c)])]: ad(z_a eps_a) B_m = sum_t c z_a B_t in g_{d-1}."""
    n = alg.n
    phi = alg.pieces[d][m][0]
    out = []
    for a in range(n):
        ce = dict(phi[a])              # [B_m, e_a] = -[e_a, B_m]
        cj = dict(phi[n + a])          # [B_m, Je_a]
        if ce or cj:
            out.append((a, [(t, GaussianRational(-_HALF * ce.get(t, _F0),
                                                 _HALF * cj.get(t, _F0)))
                            for t in sorted(ce.keys() | cj.keys())]))
    return out


def _ad_z(alg: GradedLieAlgebra, state: dict, actions: dict) -> dict:
    """Apply ad(sum z_a eps_a); each entry drops one degree.  ``actions``
    memoizes ``_z_action`` by (d, m)."""
    out = {}
    for (d, m), f in state.items():
        action = actions.get((d, m))
        if action is None:
            action = actions[(d, m)] = _z_action(alg, d, m)
        for a, coeffs in action:
            fz = f.times_variable("z", a)
            for t, c in coeffs:
                out.setdefault((d - 1, t), []).append((fz, c))
    return _collect(alg.n, alg.k, out)


def _ad_w(alg: GradedLieAlgebra, state: dict) -> dict:
    """Apply ad(sum w_j W_j); each entry drops two degrees."""
    n, k = alg.n, alg.k
    out = {}
    for (d, m), f in state.items():
        psi = alg.pieces[d][m][1]
        for j in range(k):
            if not psi[j]:
                continue
            fw = f.times_variable("w", j)
            for t, x in psi[j]:        # [B_m, W_j] = -[W_j, B_m]
                out.setdefault((d - 2, t), []).append((fw, -x))
    return _collect(n, k, out)


def _collect(n: int, k: int, terms: dict) -> dict:
    """State entry -> the sum of its (polynomial, scalar) terms; zeros dropped."""
    out = {key: Poly.combination(n, k, pairs) for key, pairs in terms.items()}
    return {key: p for key, p in out.items() if p}


def _realize_unit(alg: GradedLieAlgebra, degree: int, m: int,
                  actions: dict) -> PolyVectorField:
    """Run the chain on the basis element B_m of g_degree: collect the degree
    -1 and -2 entries of ad_z^c ad_w^d B_m with weight (-1)^(c+d)/(c! d!)."""
    n, k = alg.n, alg.k
    z_terms = [[] for _ in range(n)]
    w_terms = [[] for _ in range(k)]
    s_d = {(degree, m): Poly.constant(n, k, 1)}
    for d in range((degree + 2) // 2 + 1):
        if d:
            s_d = _ad_w(alg, s_d)
        t = s_d
        for c in range(degree + 3 - 2 * d):     # down to degree -2
            if c:
                t = _ad_z(alg, t, actions)
            gamma = Fraction((-1) ** (c + d), factorial(c) * factorial(d))
            for (e, i), p in t.items():
                if e == -2:
                    w_terms[i].append((p, gamma))
                elif e == -1 and i < n:
                    z_terms[i].append((p, gamma))
                elif e == -1:                   # y Je_a adds i y to z_a
                    z_terms[i - n].append((p, gamma * _I))
    return PolyVectorField(n, k, [Poly.combination(n, k, ts) for ts in z_terms],
                           [Poly.combination(n, k, ts) for ts in w_terms])


def _basis_fields(alg: GradedLieAlgebra, degree: int) -> tuple:
    """The realized canonical basis of g_degree, computed once per algebra."""
    fields = alg._realized.get(degree)
    if fields is None:
        actions = {}
        fields = alg._realized[degree] = tuple(
            _realize_unit(alg, degree, m, actions) for m in range(alg.dim(degree)))
    return fields


def realize_element(alg: GradedLieAlgebra, degree: int, coeffs) -> PolyVectorField:
    """Realize the element of g_degree with the given basis coefficients."""
    dim = alg.dim(degree)
    if len(coeffs) != dim:
        raise DimensionError(f"expected {dim} coefficients for degree {degree}")
    if degree < -2:
        raise InputError("no such degree")
    n, k = alg.n, alg.k
    pairs = [(field, c) for field, c in zip(_basis_fields(alg, degree), coeffs) if c]
    return PolyVectorField(
        n, k,
        [Poly.combination(n, k, [(f.z_comps[a], c) for f, c in pairs]) for a in range(n)],
        [Poly.combination(n, k, [(f.w_comps[j], c) for f, c in pairs]) for j in range(k)])


def realize_basis(result: ProlongationResult, degree: int):
    """Realized canonical basis of g_degree (empty list for a zero piece).

    The list is new on every call; the fields in it are shared and immutable.
    """
    return list(_basis_fields(result.algebra, degree))


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
    basis = sparse_int_nullspace((r for pair in rows.values() for r in pair), len(fields) + 1)
    if basis and max(basis[-1]) == len(fields):
        return tuple(basis[-1].get(c, _F0) for c in range(len(fields)))
    return None
