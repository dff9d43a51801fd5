"""Shared test helpers: realized fields against the abstract algebra, and
certificate checks on the catalog's known fields."""

from fractions import Fraction

from crprolong.errors import DimensionError
from crprolong.poly import PolyVectorField
from crprolong.realize import BRACKET_SIGN, realize_element
from crprolong.scalars import GaussianRational
from crprolong.verify import jet_certificate, verify_hol


def abstract_bracket(alg, d1, a1, d2, a2):
    """Bracket of two abstract basis elements: (total degree, coeff tuple or None).

    None means the bracket is identically zero (it lands outside the computed
    range or in a vanishing piece).
    """
    if d1 > d2:
        total, v = abstract_bracket(alg, d2, a2, d1, a1)
        return total, (None if v is None else tuple(-x for x in v))
    block = alg.structure_constants().get((d1, d2))
    total = d1 + d2
    if block is None:
        return total, None
    return total, block[a1][a2]


def basis_index(alg):
    return [(d, a) for d in alg.degrees() if alg.dims[d] for a in range(alg.dims[d])]


def realized_basis_map(alg):
    out = {}
    for d, a in basis_index(alg):
        unit = [0] * alg.dims[d]
        unit[a] = 1
        out[(d, a)] = realize_element(alg, d, unit)
    return out


def sigma_sweep(alg, pairs=None):
    """Check field_bracket(realize A, realize B) == sign * realize([A, B]) with
    the single global sign on the given (or all) basis pairs.  Returns the
    number of pairs checked; raises AssertionError on the first violation."""
    fields = realized_basis_map(alg)
    idx = basis_index(alg)
    if pairs is None:
        pairs = [(x, y) for i, x in enumerate(idx) for y in idx[i:]]
    checked = 0
    for (d1, a1), (d2, a2) in pairs:
        got = fields[(d1, a1)].bracket(fields[(d2, a2)])
        total, coeffs = abstract_bracket(alg, d1, a1, d2, a2)
        if coeffs is None or not any(coeffs):
            assert got.is_zero(), f"nonzero field bracket for zero abstract bracket {(d1, a1, d2, a2)}"
        else:
            want = realize_element(alg, total, coeffs) * BRACKET_SIGN
            assert got == want, f"bracket compatibility failed on {(d1, a1, d2, a2)}"
        checked += 1
    return checked


def tangency_sweep(result):
    """verify_hol for every realized basis field of every degree; returns count."""
    alg = result.algebra
    checked = 0
    for d, a in basis_index(alg):
        unit = [0] * alg.dims[d]
        unit[a] = 1
        field = realize_element(alg, d, unit)
        cert = verify_hol(field, result.model)
        assert cert.verdict, f"realized basis field (degree {d}, index {a}) not tangent"
        assert field.weighted_degree() == d
        checked += 1
    return checked


def certify_jet_counterexample(field: PolyVectorField, model, jet: int) -> bool:
    """True iff ``field`` is a nonzero tangent field whose ``jet``-jet at 0 is zero."""
    return jet_certificate(field, model, jet).certified


def check_rotation_identities(model, X, Y, Z, U) -> dict:
    """Verify the derivation identities of the four linear fields on the
    5-codimensional catalog model: each sends the defining polynomials into
    multiples of P_3, and the cross relations among those multiples hold.

    Returns a dict of named booleans (all True on the shipped data).
    """
    P = model.defining_polys()
    i = GaussianRational(0, 1)
    app = {name: [f.apply_to(p) for p in P] for name, f in
           [("X", X), ("Y", Y), ("Z", Z), ("U", U)]}

    def only_third(name, source_index):
        rows = app[name]
        hit = rows[2] == P[source_index] * i
        others = all(rows[j].is_zero() for j in range(5) if j != 2)
        return hit and others

    out = {
        "X_sends_P1": only_third("X", 0),
        "Y_sends_P2": only_third("Y", 1),
        "Z_sends_P4": only_third("Z", 3),
        "U_sends_P5": only_third("U", 4),
    }
    two = GaussianRational(2)
    combos = {
        "P2X_minus_P1Y": [P[1] * app["X"][j] - P[0] * app["Y"][j] for j in range(5)],
        "P1X_P2Y_minus_2P5Z_2P4U": [
            P[0] * app["X"][j] + P[1] * app["Y"][j]
            - P[4] * app["Z"][j] * two - P[3] * app["U"][j] * two
            for j in range(5)],
        "P4Y_minus_P2Z_scaled": [
            (P[3] * app["Y"][j] - P[1] * app["Z"][j]) * two for j in range(5)],
        "P5Y_minus_P2U_scaled": [
            (P[4] * app["Y"][j] - P[1] * app["U"][j]) * two for j in range(5)],
    }
    for name, vec in combos.items():
        out[name] = all(p.is_zero() for p in vec)
    return out


def residual_probe(field: PolyVectorField, model, point) -> tuple:
    """Evaluate the tangency residuals at an explicit rational point.

    ``point`` supplies exact values for (z_1..z_n, u_1..u_k) as pairs
    (x, y) of rationals for each z and a single rational for each u.  The
    conjugate slots get the honest conjugate values, so a zero residual
    polynomial evaluates to zero and a nonzero one generically does not.
    """
    zs, us = point
    if len(zs) != model.n or len(us) != model.k:
        raise DimensionError("probe point has wrong shape")
    cert = verify_hol(field, model)
    vals = []
    for x, y in zs:
        vals.append(GaussianRational(Fraction(x), Fraction(y)))
    vals.extend(v.conjugate() for v in list(vals))
    vals.extend(GaussianRational(0) for _ in range(2 * model.k))  # w, wb unused
    vals.extend(GaussianRational(Fraction(t)) for t in us)
    return tuple(r.evaluate(vals) for r in cert.residuals)
