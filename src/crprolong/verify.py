"""Symbolic tangency checks for holomorphic fields against a quadric.

A field is an infinitesimal CR automorphism of the model hypersurface
Im w_j = z H_j z*  iff  Re(X rho_j) vanishes identically on the surface for
every defining function rho_j = (w_j - conj(w_j))/(2i) - z H_j z*.  Working
in the polarized frame (z, zb independent; w = u + iP, conj(w) = u - iP)
turns that into an identity in the polynomial ring over Q(i), so the verdict
is exact: a field either is tangent or it is not.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .poly import Poly, PolyVectorField
from .scalars import GaussianRational

_HALF_OVER_I = GaussianRational(0, Fraction(-1, 2))  # 1/(2i)


@dataclass(frozen=True)
class TangencyCertificate:
    """Outcome of a tangency check, with residuals kept for auditing.

    `residuals[j]` is Re(X rho_j) restricted to the surface, expressed in the
    variables (z, zb, u); the verdict is True exactly when every residual is
    the zero polynomial.
    """

    n: int
    k: int
    verdict: bool
    residuals: tuple
    field: PolyVectorField

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "field": self.field.to_json(),
        }
        if not self.verdict:
            data["residuals"] = [r.text() for r in self.residuals]
        return data


def surface_restriction(p: Poly, model) -> Poly:
    """Substitute w -> u + iP, conj(w) -> u - iP into ``p``."""
    P = model.defining_polys()
    i = GaussianRational(0, 1)
    mapping = {}
    for j in range(model.k):
        u = Poly.variable(model.n, model.k, "u", j)
        mapping[("w", j)] = u + P[j] * i
        mapping[("wb", j)] = u - P[j] * i
    return p.subs(mapping)


def verify_hol(field: PolyVectorField, model) -> TangencyCertificate:
    """Check Re(X rho_j) == 0 on the surface for every j; exact, no tolerance."""
    if field.n != model.n or field.k != model.k:
        raise DimensionError("field and model have different (n, k)")
    P = model.defining_polys()
    residuals = []
    verdict = True
    half = Fraction(1, 2)
    for j in range(model.k):
        # X(rho_j) = g_j/(2i) - sum_a f_a dP_j/dz_a   (rho_j holomorphic part)
        expr = field.w_comps[j] * _HALF_OVER_I
        for a in range(model.n):
            f = field.z_comps[a]
            if f:
                expr = expr - f * P[j].diff("z", a)
        r = (expr + expr.formal_conjugate()) * half
        r = surface_restriction(r, model)
        residuals.append(r)
        if not r.is_zero():
            verdict = False
    return TangencyCertificate(model.n, model.k, verdict, tuple(residuals), field)


@dataclass(frozen=True)
class JetCertificate:
    """Witness that a nonzero tangent field vanishes to order > jet at 0."""

    jet: int
    certified: bool
    tangent: bool
    nonzero: bool
    vanishing_order: object  # int, or None for the zero field

    def to_json(self) -> dict:
        return {
            "jet": self.jet,
            "certified": self.certified,
            "tangent": self.tangent,
            "nonzero": self.nonzero,
            "vanishing_order": self.vanishing_order,
        }


def jet_certificate(field: PolyVectorField, model, jet: int) -> JetCertificate:
    """Full certificate that ``field`` shows ``jet``-jets cannot determine germs.

    Certified iff: the field is tangent to the model, nonzero, and every
    coefficient vanishes to ordinary order at least jet+1 at the origin (so
    its jet of order ``jet`` at 0 is the same as that of the zero field).
    """
    cert = verify_hol(field, model)
    nonzero = not field.is_zero()
    order = field.ordinary_vanishing_order()
    certified = cert.verdict and nonzero and order is not None and order >= jet + 1
    return JetCertificate(jet, certified, cert.verdict, nonzero, order)
