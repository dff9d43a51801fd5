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
those fields, in integers over one denominator.

The chain runs on the packed Gaussian-integer core of ``poly``.  It reads
each degree's phi and psi tables from the one integer table the algebra keeps
per degree (``GradedLieAlgebra._int_piece``: den_d and den_d times the
tables), scaled once by the system build and shared with the structure
constants.
ad_z multiplies an entry of degree d by z_a and the Gaussian integer
-den_d [B, e_a] + i den_d [B, Je_a], ad_w by w_j and -den_d [B, W_j]; the
true steps divide by 2 den_d and den_d, and those divisors are kept aside.
The degrees an entry passes through depend only on its stage (c, d), d steps
of ad_w and then c of ad_z, so every entry of a stage carries the same divisor
S(c, d), the product of those, and each unit field is collected over the one
denominator lcm(c! d! S(c, d)).

The map is real-linear and intertwines brackets up to one global sign:
``field_bracket(realize(A), realize(B)) = BRACKET_SIGN * realize([A, B])``
(the algebra bracket corresponds to the opposite of the field bracket, as
for right- vs left-invariant fields).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import DimensionError, InputError
from .linalg import sparse_int_nullspace
from .poly import PolyVectorField, check_degree, gi_add_into, gi_trim, packing
from .prolong import GradedLieAlgebra, ProlongationResult

BRACKET_SIGN = -1

_F0 = Fraction(0)


def _z_action(n: int, phi) -> list:
    """[(a, [(t, re, im)])]: ad(z_a eps_a) B = sum_t (re + i im) / (2 den) z_a B_t,
    from the integer phi rows of B."""
    out = []
    for a in range(n):
        ce = dict(phi[a])              # [B, e_a] = -[e_a, B]
        cj = dict(phi[n + a])          # [B, Je_a]
        if ce or cj:
            out.append((a, [(t, -ce.get(t, 0), cj.get(t, 0))
                            for t in sorted(ce.keys() | cj.keys())]))
    return out


def _ad_z(state: dict, table, actions: dict, units: tuple) -> dict:
    """Apply ad(sum z_a eps_a) times 2 den_d; each entry drops one degree.
    ``table(d)`` is the integer table of g_d; ``actions`` memoizes
    ``_z_action`` by (d, m)."""
    out = {}
    for (d, m), f in state.items():
        action = actions.get((d, m))
        if action is None:
            phi = table(d)[1][m]
            action = actions[(d, m)] = _z_action(len(phi) // 2, phi)
        for a, coeffs in action:
            for t, re, im in coeffs:
                gi_add_into(out.setdefault((d - 1, t), {}), f, re, im, units[a])
    return _trimmed(out)


def _ad_w(state: dict, table, units: tuple, n: int) -> dict:
    """Apply ad(sum w_j W_j) times den_d; each entry drops two degrees."""
    out = {}
    for (d, m), f in state.items():
        for j, entries in enumerate(table(d)[2][m]):
            for t, x in entries:       # [B_m, W_j] = -[W_j, B_m]
                gi_add_into(out.setdefault((d - 2, t), {}), f, -x, 0, units[n + j])
    return _trimmed(out)


def _trimmed(state: dict) -> dict:
    """State entries without zero coefficients; zero entries dropped."""
    out = {}
    for key, p in state.items():
        p = gi_trim(p)
        if p:
            out[key] = p
    return out


def _realize_unit(alg: GradedLieAlgebra, degree: int, m: int,
                  actions: dict) -> PolyVectorField:
    """Run the chain on the basis element B_m of g_degree: collect the degree
    -1 and -2 entries of ad_z^c ad_w^d B_m with weight (-1)^(c+d)/(c! d!)."""
    n, k, table = alg.n, alg.k, alg._int_piece
    units = packing(n + k).units
    check_degree(degree + 2)            # the largest stage has c + d = degree + 2
    parts = []                          # (component, numerators, re, im, denominator)
    s_d, w_scale = {(degree, m): {0: (1, 0)}}, 1
    for d in range((degree + 2) // 2 + 1):
        if d:
            w_scale *= table(degree - 2 * d + 2)[0]
            s_d = _ad_w(s_d, table, units, n)
        t, scale = s_d, w_scale
        for c in range(degree + 3 - 2 * d):     # down to degree -2
            if c:
                scale *= 2 * table(degree - 2 * d - c + 1)[0]
                t = _ad_z(t, table, actions, units)
            sign, den = (-1) ** (c + d), factorial(c) * factorial(d) * scale
            for (e, i), p in t.items():
                if e == -2:
                    parts.append((n + i, p, sign, 0, den))
                elif e == -1 and i < n:
                    parts.append((i, p, sign, 0, den))
                elif e == -1:                   # y Je_a adds i y to z_a
                    parts.append((i - n, p, 0, sign, den))
    den = lcm(*(part[-1] for part in parts))
    comps = [{} for _ in range(n + k)]
    for i, p, re, im, d in parts:
        gi_add_into(comps[i], p, re * (den // d), im * (den // d))
    return PolyVectorField(n, k, den, [gi_trim(p) for p in comps])


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
    return PolyVectorField.combination(alg.n, alg.k, zip(_basis_fields(alg, degree), coeffs))


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

    The rows, one per (component, packed monomial) and part, are written as
    integers: each is the true row times ``den``, the lcm of all the field
    denominators, so a column holds its field's integer core times
    ``den // fld.den`` (negated for the target).
    """
    fields = list(fields)
    for fld in fields:
        if fld.n != target.n or fld.k != target.k:
            raise DimensionError("fields from different variable frames")
    den = lcm(target.den, *(fld.den for fld in fields))
    scales = [den // fld.den for fld in fields] + [-den // target.den]
    rows = {}
    for col, (fld, scale) in enumerate(zip((*fields, target), scales)):
        for i, p in enumerate(fld.comps):
            for m, (re, im) in p.items():
                re_row, im_row = rows.setdefault((i, m), ({}, {}))
                if re:
                    re_row[col] = scale * re
                if im:
                    im_row[col] = scale * im
    basis = sparse_int_nullspace((r for pair in rows.values() for r in pair), len(fields) + 1)
    if basis and max(basis[-1]) == len(fields):
        return tuple(basis[-1].get(c, _F0) for c in range(len(fields)))
    return None
