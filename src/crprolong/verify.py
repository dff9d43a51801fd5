"""Symbolic tangency checks for holomorphic fields against a quadric.

A field is an infinitesimal CR automorphism of the model hypersurface
Im w_j = z H_j z*  iff  Re(X rho_j) vanishes identically on the surface for
every defining function rho_j = (w_j - conj(w_j))/(2i) - z H_j z*.  Working
in the polarized frame (z, zb independent; w = u + iP, conj(w) = u - iP)
turns that into an identity in the polynomial ring over Q(i), so the verdict
is exact: a field either is tangent or it is not.

X rho_j = expr_j = g_j/(2i) - sum_a f_a dP_j/dz_a has no conj(w), as the
field is holomorphic.  So Re(X rho_j) on the surface is (S + conj(S'))/2,
with S and S' the restrictions of expr_j under w -> u + iP and
w -> u + i conj(P): conjugation turns the second map into conj(w) -> u - iP.
For Hermitian forms conj(P) = P, the maps are one map and one substitution
serves both halves; `verify` reads model files without validating them, and
a non-Hermitian one gets the second substitution.  Either way half the
polynomial of the two-sided route is substituted, and no power of conj(w)
is built.

The defining polynomials, their z-derivatives and the substitution maps are
kept per model in a small least-recently-used memo.
"""

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, InputError
from .poly import Poly, PolyVectorField
from .scalars import GaussianRational

_HALF_OVER_I = GaussianRational(0, Fraction(-1, 2))  # 1/(2i)
_HALF = Fraction(1, 2)
_I = GaussianRational(0, 1)

_SURFACES_SIZE = 8                      # models kept; the least recently used goes first
_SURFACES: OrderedDict = OrderedDict()


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


class _Surface:
    """What restriction to one model's surface needs, built once per model."""

    def __init__(self, model):
        self.model = model
        P = model.defining_polys()
        self.dP = [[p.diff("z", a) for a in range(model.n)] for p in P]
        self.holo = _w_map(model, P)
        conj = [p.formal_conjugate() for p in P]
        self.conj = self.holo if conj == P else _w_map(model, conj)


def _w_map(model, P) -> dict:
    """The substitution w_j -> u_j + i P_j."""
    return {("w", j): Poly.variable(model.n, model.k, "u", j) + p * _I
            for j, p in enumerate(P)}


def _surface(model) -> _Surface:
    # keyed by identity: the entry holds the model, so the id is not reused
    surface = _SURFACES.pop(id(model), None)
    if surface is None or surface.model is not model:
        surface = _Surface(model)
    _SURFACES[id(model)] = surface          # most recently used last
    if len(_SURFACES) > _SURFACES_SIZE:
        _SURFACES.popitem(last=False)
    return surface


def verify_hol(field: PolyVectorField, model) -> TangencyCertificate:
    """Check Re(X rho_j) == 0 on the surface for every j; exact, no tolerance."""
    if field.n != model.n or field.k != model.k:
        raise DimensionError("field and model have different (n, k)")
    surface = _surface(model)
    residuals = []
    for j in range(model.k):
        # X(rho_j) = g_j/(2i) - sum_a f_a dP_j/dz_a   (rho_j holomorphic part)
        expr = Poly.combination(model.n, model.k, [
            (field.w_comps[j], _HALF_OVER_I),
            *((f * dp, -1) for f, dp in zip(field.z_comps, surface.dP[j]) if f)])
        s = expr.subs(surface.holo)
        s_conj = s if surface.conj is surface.holo else expr.subs(surface.conj)
        residuals.append((s + s_conj.formal_conjugate()) * _HALF)
    verdict = all(r.is_zero() for r in residuals)
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


def jet_certificate(field: PolyVectorField, model, jet: int,
                    tangency: TangencyCertificate | None = None) -> JetCertificate:
    """Full certificate that ``field`` shows ``jet``-jets cannot determine germs.

    Certified iff: the field is tangent to the model, nonzero, and every
    coefficient vanishes to ordinary order at least jet+1 at the origin (so
    its jet of order ``jet`` at 0 is the same as that of the zero field).
    ``tangency``, if given, is the ``verify_hol`` certificate of ``field`` on
    ``model``, which is then not recomputed.
    """
    if tangency is None:
        cert = verify_hol(field, model)
    elif tangency.field == field:
        cert = tangency
    else:
        raise InputError("tangency certificate is for a different field")
    nonzero = not field.is_zero()
    order = field.ordinary_vanishing_order()
    certified = cert.verdict and nonzero and order is not None and order >= jet + 1
    return JetCertificate(jet, certified, cert.verdict, nonzero, order)
