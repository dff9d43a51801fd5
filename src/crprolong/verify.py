"""Symbolic tangency checks for holomorphic fields against a quadric.

A field is an infinitesimal CR automorphism of the model hypersurface
Im w_j = z H_j z*  iff  Re(X rho_j) vanishes identically on the surface for
every defining function rho_j = (w_j - conj(w_j))/(2i) - z H_j z*.  Working
in the polarized frame (z, zb independent; w = u + iP, conj(w) = u - iP)
turns that into an identity in the polynomial ring over Q(i), so the verdict
is exact: a field either is tangent or it is not.

X rho_j = g_j/(2i) - sum_a f_a dP_j/dz_a has no conj(w), as the field is
holomorphic.  So Re(X rho_j) on the surface is (S + conj(S'))/2, with S and
S' the restrictions of X rho_j under w -> u + iP and w -> u + i conj(P):
conjugation turns the second map into conj(w) -> u - iP.  For Hermitian
forms conj(P) = P, the maps are one map and one substitution serves both
halves; `verify` reads model files without validating them, and a
non-Hermitian one gets the second substitution.

The check runs in integers, on the packed core of ``poly`` with a (z, zb, u)
frame.  The field's components are Gaussian-integer polynomials F_a, G_j over
its one denominator D, and the forms P'_j = q P_j are the model's integer
forms (``QuadricModel.integer_forms``, q the lcm of their denominators).  Then

    E_j = 2i D (X rho_j) = (q G_j - 2i sum_a F_a dP'_j/dz_a) / q = A_j / q

with A_j Gaussian-integral in (z, zb, w).  Under w -> u + iP the part of
A_j with w-exponent beta becomes A_j[beta] (q u + i P')^beta / q^|beta|:
its denominator depends only on its w-degree |beta|.  With N the largest
w-degree in the field, each q^(N - |beta|) is an integer, so

    R_j = sum_beta q^(N - |beta|) A_j[beta] (q u + i P')^beta = q^(N+1) E_j

on the surface, exactly, in integers; R'_j is made the same way with
conj(P').  As (S + conj(S'))/2 = (E_j - conj(E'_j)) / (4iD) and q^(N+1) is
real and positive, the field is tangent iff every R_j equals the formal
conjugate of R'_j (of R_j itself for Hermitian forms): E_j equals its formal
conjugate.  The residual (R_j - conj(R'_j)) / (4iD q^(N+1)) is built as a
Poly only when it is nonzero.

The scaled forms, their z-derivatives and the substitution polynomials are
kept per model in a least-recently-used memo of eight models.  Like the
``prolong_full`` memo it is keyed by the model's value, so a model read again
from its JSON finds the surface built for the first.  Each check sums R_j by
Horner's rule in the w-variables (Carnicer & Gasca, Math. Comp. 54, 1990):
with beta as the sorted tuple of its variables, the parts A_j[beta] that
extend a prefix s are summed first, then multiplied by the one polynomial
q u_l + i P'_l of the last variable l of s, so no product (q u + i P')^beta
is ever built, and every multiplication is by a polynomial of at most
1 + n^2 terms.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionError, InputError
from .poly import (SLOT_BITS, Poly, PolyVectorField, check_degree, gi_add_into, gi_diff,
                   gi_mul_into, gi_trim, packing)
from .scalars import GaussianRational


@dataclass(frozen=True)
class TangencyCertificate:
    """Outcome of a tangency check, with residuals kept for auditing.

    `residuals[j]` is Re(X rho_j) restricted to the surface of ``model``,
    expressed in the variables (z, zb, u); the verdict is True exactly when
    every residual is the zero polynomial.
    """

    n: int
    k: int
    verdict: bool
    residuals: tuple
    field: PolyVectorField
    model: object

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
    """What restriction to one model's surface needs, built once per model in
    the packed (z, zb, u) frame: q, -2i dP'_j/dz_a, and for each substitution
    its polynomials q u_l + i P'_l."""

    def __init__(self, model):
        n, k = model.n, model.k
        pk = packing(2 * n + k)
        units = pk.units                # z_a is units[a], zb_b is units[n + b]
        q, flats = model.integer_forms()
        P = [{units[a] + units[n + b]: x for a in range(n) for b in range(n)
              if (x := (f[a * n + b], f[n * n + a * n + b])) != (0, 0)} for f in flats]
        self.q = q
        self.dP = [[{m: (2 * im, -2 * re) for m, (re, im) in gi_diff(p, pk, a).items()}
                    for a in range(n)] for p in P]
        self.swap = _swapper(n, k)
        conj = [{self.swap(m): (re, -im) for m, (re, im) in p.items()} for p in P]
        u = units[2 * n:]
        self.maps = [_w_map(P, u, q)]
        if conj != P:
            self.maps.append(_w_map(conj, u, q))


def _w_map(P, u, q) -> list:
    """q times the substitution w_l -> u_l + i P_l: q u_l + i P'_l, one
    polynomial per l."""
    return [gi_add_into({u_l: (q, 0)}, p, 0, 1) for u_l, p in zip(u, P)]


def _swapper(n: int, k: int):
    """The z <-> zb exchange of packed (z, zb, u) monomials."""
    zs, zbs, block = SLOT_BITS * (n + k), SLOT_BITS * k, (1 << SLOT_BITS * n) - 1

    def swap(m):
        z, zb = (m >> zs) & block, (m >> zbs) & block
        return m ^ z << zs ^ zb << zbs | zb << zs | z << zbs
    return swap


_surface = lru_cache(maxsize=8)(_Surface)


def _by_w_exponent(field: PolyVectorField, top: int, zshift: int) -> dict:
    """The field's terms grouped by w-exponent, {beta: {component: z-part}}:
    beta as the sorted tuple of its variables (l repeated beta_l times), the
    z-part packed in the (z, zb, u) frame, whose total degree sits ``top``
    bits up and whose z block ``zshift`` bits up."""
    n, k = field.n, field.k
    ftop, wbits, zmask = SLOT_BITS * (n + k), SLOT_BITS * k, (1 << SLOT_BITS * n) - 1
    unpack, seqs, groups = packing(k).unpack, {}, {}
    for i, p in enumerate(field.comps):
        for m, c in p.items():
            beta = m & ((1 << wbits) - 1)
            seq = seqs.get(beta)
            if seq is None:
                seq = seqs[beta] = tuple(l for l, e in enumerate(unpack(beta)) for _ in range(e))
            degree = (m >> ftop) - len(seq)
            groups.setdefault(seq, {}).setdefault(i, {})[
                degree << top | ((m >> wbits) & zmask) << zshift] = c
    return groups


def _restrict(A: dict, w_map: list, top_w: int, q: int, k: int) -> list:
    """[sum_beta q^(N - |beta|) A_j[beta] prod_l w_map[l]^beta_l for each j],
    N = ``top_w``, by Horner's rule in the w-variables, without recursion.
    H(s) collects the terms of A that extend the prefix s.  Reverse
    lexicographic order puts every extension of s before s, so H(s) is
    complete when s is reached; it then passes w_map[s[-1]] H(s) on to its
    parent, and () comes last."""
    H = {}
    for s in sorted({seq[:d] for seq in A for d in range(len(seq) + 1)} | {()}, reverse=True):
        h = H.pop(s, None) or [{} for _ in range(k)]
        for hj, a in zip(h, A.get(s, ())):
            gi_add_into(hj, a, q ** (top_w - len(s)))
        if not s:
            return h
        parent = H.setdefault(s[:-1], [{} for _ in range(k)])
        for pj, hj in zip(parent, h):
            if hj:
                gi_mul_into(pj, w_map[s[-1]], gi_trim(hj))


def verify_hol(field: PolyVectorField, model) -> TangencyCertificate:
    """Check Re(X rho_j) == 0 on the surface for every j; exact, no tolerance."""
    if field.n != model.n or field.k != model.k:
        raise DimensionError("field and model have different (n, k)")
    n, k = model.n, model.k
    surface = _surface(model)
    q = surface.q
    pk = packing(2 * n + k)
    groups = _by_w_exponent(field, pk.top, SLOT_BITS * (n + k))
    if groups:
        check_degree(2 * (max(max(p) for p in field.comps if p) >> SLOT_BITS * (n + k)) + 1)
    top_w = max(map(len, groups), default=0)
    A = {}                              # beta -> [A_j[beta] for each j]
    for seq, parts in groups.items():
        A[seq] = []
        for j in range(k):
            a = gi_add_into({}, parts.get(n + j, {}), q)
            for v, dp in enumerate(surface.dP[j]):
                if v in parts and dp:
                    gi_mul_into(a, parts[v], dp)
            A[seq].append(a)
    R = [_restrict(A, w_map, top_w, q, k) for w_map in surface.maps]
    residuals = []
    for j, r in enumerate(R[0]):
        diff = dict(r)
        for m, (re, im) in R[-1][j].items():            # R_j - conj(R'_j)
            m = surface.swap(m)
            s = diff.get(m)
            diff[m] = (-re, im) if s is None else (s[0] - re, s[1] + im)
        residuals.append(_residual(n, k, gi_trim(diff), 4 * field.den * q ** (top_w + 1)))
    verdict = all(r.is_zero() for r in residuals)
    return TangencyCertificate(n, k, verdict, tuple(residuals), field, model)


def _residual(n: int, k: int, diff: dict, den: int) -> Poly:
    """The Poly diff / (i den) of a packed (z, zb, u) polynomial."""
    if not diff:
        return Poly.zero(n, k)
    unpack, ws = packing(2 * n + k).unpack, (0,) * (2 * k)
    return Poly._of(n, k, {e[:2 * n] + ws + e[2 * n:]:
                           GaussianRational(Fraction(im, den), Fraction(-re, den))
                           for m, (re, im) in diff.items() for e in (unpack(m),)})


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
    elif tangency.field != field:
        raise InputError("tangency certificate is for a different field")
    elif tangency.model != model:
        raise InputError("tangency certificate is for a different model")
    else:
        cert = tangency
    nonzero = not field.is_zero()
    order = field.ordinary_vanishing_order()
    certified = cert.verdict and nonzero and order is not None and order >= jet + 1
    return JetCertificate(jet, certified, cert.verdict, nonzero, order)
