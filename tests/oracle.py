"""Independent brute-force dimension solver for tangent fields of fixed weight.

This deliberately avoids the prolongation engine: it enumerates every
monomial a weighted-homogeneous holomorphic field of weight b can carry,
imposes the symbolic tangency conditions through verify_hol's residuals
(which are real-linear in the field), and returns the real dimension of the
solution space via an exact nullspace computation.  Agreement with the
algebraic degree-b slice is a strong cross-check: the two computations share
no code path beyond polynomial arithmetic.  The rank comes from the
single-pass eliminator kept in ``tests/reference.py``, not from the
library's kernel.
"""

from fractions import Fraction
from math import lcm

from crprolong.poly import Poly, PolyVectorField
from crprolong.scalars import GaussianRational
from crprolong.verify import verify_hol
from reference import single_pass_nullspace


def _monomials(n, k, weight):
    """All (z_exponents, w_exponents) with sum(z) + 2*sum(w) == weight."""
    if weight < 0:
        return
    for wtotal in range(weight // 2 + 1):
        ztotal = weight - 2 * wtotal
        for zexp in _compositions(ztotal, n):
            for wexp in _compositions(wtotal, k):
                yield zexp, wexp


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _slots(n, k, b):
    """Coefficient slots of a weight-b field: ('z', a, mono) and ('w', j, mono)."""
    out = []
    for a in range(n):
        out.extend(("z", a, mono) for mono in _monomials(n, k, b + 1))
    for j in range(k):
        out.extend(("w", j, mono) for mono in _monomials(n, k, b + 2))
    return out


def _unit_field(model, slot, coeff):
    n, k = model.n, model.k
    zexp, wexp = slot[2]
    mono = Poly(n, k, {tuple(zexp) + (0,) * n + tuple(wexp) + (0,) * (2 * k): coeff})
    zc = [Poly.zero(n, k)] * n
    wc = [Poly.zero(n, k)] * k
    if slot[0] == "z":
        zc[slot[1]] = mono
    else:
        wc[slot[1]] = mono
    return PolyVectorField(n, k, zc, wc)


def hol_dimension(model, b) -> int:
    """Real dimension of the weight-b tangent fields, by direct linear algebra.

    The residual map is real-linear in the field, so each residual monomial
    contributes two real equations (real and imaginary part) over the real
    unknowns; the answer is the kernel dimension of that sparse system.
    """
    slots = _slots(model.n, model.k, b)
    if not slots:
        return 0
    eq_rows = {}       # (equation j, monomial, part) -> {column: Fraction}
    ncols = 0
    for slot in slots:
        for coeff in (GaussianRational(1), GaussianRational(0, 1)):
            cert = verify_hol(_unit_field(model, slot, coeff), model)
            for j, res in enumerate(cert.residuals):
                for mono, c in res.terms.items():
                    if c.re:
                        eq_rows.setdefault((j, mono, 0), {})[ncols] = c.re
                    if c.im:
                        eq_rows.setdefault((j, mono, 1), {})[ncols] = c.im
            ncols += 1
    int_rows = []
    for row in eq_rows.values():
        d = lcm(*(v.denominator for v in row.values()))
        int_rows.append({c: int(v * d) for c, v in row.items()})
    return len(single_pass_nullspace(int_rows, ncols))


def hol_profile(model, top) -> dict:
    """Dimensions for every degree -2..top (stops early only by request)."""
    return {b: hol_dimension(model, b) for b in range(-2, top + 1)}
