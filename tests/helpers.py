"""Shared test helpers: realized fields against the abstract algebra,
certificate checks on the catalog's known fields, test vectors for the
catalog models, the reference polynomial ring (``Poly``: the library's
read-only Poly with ``variable``, ``constant``, ``+``, ``-`` and ``*``, the
field of (z, w) Polys and the product of a field with a Poly), and small
operations that only tests need (the defining polynomials of a model, exact
evaluation, the real predicate, total degrees, derivatives, formal
conjugates, powers and the action of a field on a Poly, identity and zero
matrices, transposes, matrix-vector products and determinants, the bracket and J on
g_{-1}, the invariants of a Levi-Tanaka algebra and the forms read back from
its brackets, the grading element and its check, and the structure
constants with zeros filled in)."""

from fractions import Fraction
from math import lcm
from operator import add

from crprolong import poly as _poly
from crprolong.errors import AlgebraError, DimensionError, InputError, InternalCheckError
from crprolong.linalg import ExactMatrix, gi_bareiss
from crprolong.model import QuadricModel
from crprolong.poly import (PolyVectorField, _max_degree, check_degree, gi_integral,
                            gi_mul_into, gi_trim, packing)
from crprolong.realize import BRACKET_SIGN, realize_element
from crprolong.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational
from crprolong.verify import jet_certificate, verify_hol


# ---------------------------------------------------------------------------
# the reference polynomial ring
# ---------------------------------------------------------------------------

def _add_into(out: dict, terms) -> dict:
    """Add the (monomial, coefficient) pairs ``terms`` into ``out`` in place,
    dropping the sums that cancel."""
    for m, c in terms:
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _block(n: int, k: int, kind: str) -> int:
    """Monomial position of the first variable of ``kind``."""
    return {"z": 0, "zb": n, "w": 2 * n, "wb": 2 * n + k, "u": 2 * n + 2 * k}[kind]


class Poly(_poly.Poly):
    """The library's Poly with the ring operations, on the full-frame terms.

    Every result is of this class.  A library Poly (a residual, a field
    component) mixes with it in ``+``, ``-``, ``*`` and ``==``; ``ring``
    wraps one for arithmetic of its own.  A (z, w) Poly times a field is the
    field with every component multiplied (``field_times``)."""

    __slots__ = ()

    @staticmethod
    def constant(n, k, c) -> "Poly":
        return Poly(n, k, {(0,) * (2 * n + 3 * k): c})

    @staticmethod
    def variable(n, k, kind: str, index: int) -> "Poly":
        """kind in {'z','zb','w','wb','u'}, index 0-based."""
        size = {"z": n, "zb": n, "w": k, "wb": k, "u": k}
        if kind not in size:
            raise InputError(f"unknown variable kind {kind!r}")
        if not 0 <= index < size[kind]:
            raise InputError(f"variable index out of range: {kind}{index + 1}")
        mono = [0] * (2 * n + 3 * k)
        mono[_block(n, k, kind) + index] = 1
        return Poly._of(n, k, {tuple(mono): GR_ONE})

    def _compat(self, other: "Poly"):
        if self.n != other.n or self.k != other.k:
            raise DimensionError("polynomials from different variable frames")

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.n, self.k, other)
        self._compat(other)
        return Poly._of(self.n, self.k, _add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.n, self.k, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ring(other) if isinstance(other, _poly.Poly)
                       else -GaussianRational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PolyVectorField):
            return field_times(other, self)
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational(other)
            if not c:
                return Poly.zero(self.n, self.k)
            return Poly._of(self.n, self.k, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, _poly.Poly):
            return NotImplemented
        self._compat(other)
        return Poly._of(self.n, self.k, _add_into({}, (
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.n, self.k, other)
        return super().__eq__(other)


def ring(p) -> Poly:
    """A library Poly as a reference-ring Poly (the terms are shared, and
    neither side changes them)."""
    return Poly._of(p.n, p.k, p.terms)


def _holomorphic(p, pk) -> dict:
    """The terms of a (z, w) Poly as {packed monomial: coefficient}."""
    n, k = p.n, p.k
    out = {}
    for mono, c in p.terms.items():
        if any(mono[n:2 * n]) or any(mono[2 * n + k:]):
            raise InputError("field coefficients must be holomorphic (z, w only)")
        out[pk.pack(mono[:n] + mono[2 * n:2 * n + k])] = c
    return out


def poly_field(n, k, z_comps, w_comps) -> PolyVectorField:
    """The field sum(f_a d/dz_a) + sum(g_j d/dw_j) of (z, w) Polys f_a, g_j,
    packed over one denominator."""
    z_comps, w_comps = tuple(z_comps), tuple(w_comps)
    if len(z_comps) != n or len(w_comps) != k:
        raise DimensionError("component count does not match (n, k)")
    polys = z_comps + w_comps
    if any(p.n != n or p.k != k for p in polys):
        raise DimensionError("component polynomial from the wrong frame")
    pk = packing(n + k)
    return PolyVectorField(n, k, *gi_integral([_holomorphic(p, pk) for p in polys]))


def field_times(field: PolyVectorField, c) -> PolyVectorField:
    """The product of a field with a (z, w) Poly."""
    n, k = field.n, field.k
    if c.n != n or c.k != k:
        raise DimensionError("polynomials from different variable frames")
    pk = packing(n + k)
    cden, (q,) = gi_integral([_holomorphic(c, pk)])
    if q and any(field.comps):
        check_degree(_max_degree(field.comps, pk.top) + _max_degree([q], pk.top))
    return PolyVectorField(n, k, field.den * cden,
                           [gi_trim(gi_mul_into({}, p, q)) for p in field.comps])


def defining_polys(model):
    """P_j(z, zb) = z H_j z*; the model is Im w_j = P_j."""
    out = []
    for h in model.hermitian:
        p = Poly.zero(model.n, model.k)
        for a in range(model.n):
            for b in range(model.n):
                c = h[a, b]
                if c:
                    p = p + Poly.variable(model.n, model.k, "z", a) \
                        * Poly.variable(model.n, model.k, "zb", b) * c
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# test vectors for the catalog models
# ---------------------------------------------------------------------------

# The su-family equations for m=2, in their natural order (real pair,
# imaginary pair, squares, coupling), match the codim5 equations in this
# order: su equation i is codim5 equation SU2_TO_CODIM5[i].
SU2_TO_CODIM5 = (0, 1, 3, 4, 2)


def codim4_display_variant() -> PolyVectorField:
    """The degree-4 field with the roles of w2 and w3 interchanged (w2 -> -w3,
    w3 -> w2 relative to the tangent field G of the codim4 catalog entry).
    Not an automorphism of the codim4 model: a negative test vector."""
    n, k = 6, 4
    z = [Poly.variable(n, k, "z", a) for a in range(n)]
    w = [Poly.variable(n, k, "w", j) for j in range(k)]
    zero = Poly.zero(n, k)
    w1, w2, w3 = w[0], w[1], w[2]
    return poly_field(
        n, k,
        [zero, zero, zero,
         (w1 * w3 * z[2] * -1 + w2 * w3 * z[1] + w3 * w3 * z[0]) * GR_I,
         (w2 * w3 * z[0] - w1 * w2 * z[2] + w2 * w2 * z[1]) * GR_I,
         (w1 * w3 * z[0] * -1 - w1 * w2 * z[1] + w1 * w1 * z[2]) * GR_I],
        [zero] * k,
    )


# ---------------------------------------------------------------------------
# operations used only by tests
# ---------------------------------------------------------------------------

def evaluate(p, point) -> GaussianRational:
    """Exact value of a Poly; ``point`` is a sequence of 2n+3k scalars."""
    if len(point) != 2 * p.n + 3 * p.k:
        raise DimensionError("evaluation point has wrong length")
    point = [x if isinstance(x, GaussianRational) else GaussianRational(x) for x in point]
    acc = GR_ZERO
    for m, c in p.terms.items():
        v = c
        for x, e in zip(point, m):
            for _ in range(e):
                v = v * x
        acc = acc + v
    return acc


def total_degree(p):
    """Largest total degree of a term of ``p``; None for the zero polynomial."""
    return max((sum(m) for m in p.terms), default=None)


def min_total_degree(p):
    """Smallest total degree of a term of ``p``; None for the zero polynomial."""
    return min((sum(m) for m in p.terms), default=None)


def _position(p, kind: str, index: int) -> int:
    """Monomial position of a variable of ``p``'s frame."""
    return _block(p.n, p.k, kind) + index


def diff(p, kind: str, index: int) -> Poly:
    """The partial derivative of a Poly by one variable."""
    v = _position(p, kind, index)
    return Poly(p.n, p.k, {m[:v] + (m[v] - 1,) + m[v + 1:]: c * m[v]
                           for m, c in p.terms.items() if m[v]})


def formal_conjugate(p) -> Poly:
    """Conjugate coefficients; swap the z and zb, and the w and wb blocks;
    u fixed."""
    n, k = p.n, p.k
    return Poly(n, k, {m[n:2 * n] + m[:n] + m[2 * n + k:2 * n + 2 * k] + m[2 * n:2 * n + k]
                       + m[2 * n + 2 * k:]: c.conjugate() for m, c in p.terms.items()})


def power(p, e: int) -> Poly:
    """p ** e by repeated multiplication."""
    if e < 0:
        raise InputError("negative polynomial power")
    out = Poly.constant(p.n, p.k, 1)
    for _ in range(e):
        out = out * p
    return out


def apply_field(field: PolyVectorField, p) -> Poly:
    """X(p) for a Poly p in the full frame: the field differentiates in z and
    w, so zb, wb and u content passes through untouched."""
    if p.n != field.n or p.k != field.k:
        raise DimensionError("argument polynomial from the wrong frame")
    out = Poly.zero(p.n, p.k)
    for a, f in enumerate(field.z_comps):
        if f:
            out = out + f * diff(p, "z", a)
    for j, g in enumerate(field.w_comps):
        if g:
            out = out + g * diff(p, "w", j)
    return out


def is_real(a: GaussianRational) -> bool:
    return not a.im


def norm(a: GaussianRational) -> Fraction:
    """The field norm re^2 + im^2 (a nonnegative rational)."""
    return a.re * a.re + a.im * a.im


def times_i(a: GaussianRational) -> GaussianRational:
    return GaussianRational(-a.im, a.re)


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix([[GR_ZERO] * cols for _ in range(rows)])


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(list(zip(*m.entries)) if m.rows else [[]])


def determinant(m: ExactMatrix) -> GaussianRational:
    """Exact determinant: denominators cleared row by row, then one Bareiss
    pass over the Gaussian integers."""
    if m.rows != m.cols:
        raise DimensionError("determinant of non-square matrix")
    if m.rows == 0:
        return GR_ONE
    scale = Fraction(1)
    rows = []
    for row in m.entries:
        d = lcm(*(lcm(x.re.denominator, x.im.denominator) for x in row))
        scale *= d
        rows.append([(int(x.re * d), int(x.im * d)) for x in row])
    *_, (dr, di) = gi_bareiss(rows)
    return GaussianRational(Fraction(dr) / scale, Fraction(di) / scale)


def apply(m: ExactMatrix, vec):
    """Matrix times column vector (sequence of GaussianRational-likes)."""
    if len(vec) != m.cols:
        raise DimensionError("vector length mismatch")
    vec = [GaussianRational(v) if not isinstance(v, GaussianRational) else v for v in vec]
    return tuple(sum((a * v for a, v in zip(row, vec)), GR_ZERO) for row in m.entries)


def lt_bracket(lt, x, y):
    """Bracket of two g_{-1} coefficient vectors of a Levi-Tanaka algebra;
    returns a k-vector."""
    n2 = 2 * lt.n
    if len(x) != n2 or len(y) != n2:
        raise DimensionError("vectors must have length 2n")
    out = [Fraction(0)] * lt.k
    for a, xa in enumerate(x):
        if not xa:
            continue
        row = lt.mbracket[a]
        for b, yb in enumerate(y):
            if yb:
                cell = row[b]
                f = xa * yb
                for j in range(lt.k):
                    if cell[j]:
                        out[j] += f * cell[j]
    return tuple(out)


def j_apply(lt, vec):
    """Apply J to a g_{-1} coefficient vector of length 2n."""
    n = lt.n
    if len(vec) != 2 * n:
        raise DimensionError("vector length must be 2n")
    return tuple(-vec[n + t] if t < n else vec[t - n] for t in range(2 * n))


def validate_invariants(lt):
    """Raise AlgebraError unless all structural invariants of a Levi-Tanaka
    algebra hold."""
    n, k = lt.n, lt.k
    mb = lt.mbracket
    for a in range(2 * n):
        for b in range(2 * n):
            if any(mb[a][b][j] != -mb[b][a][j] for j in range(k)):
                raise AlgebraError("bracket table is not antisymmetric")
    # J-invariance: [JX, JY] = [X, Y]
    for a in range(2 * n):
        ja, sa = lt.j_index(a)
        for b in range(2 * n):
            jb, sb = lt.j_index(b)
            if any(sa * sb * mb[ja][jb][j] != mb[a][b][j] for j in range(k)):
                raise AlgebraError("bracket is not J-invariant")
    # the two rank conditions, on the dense reference RREF (a local import:
    # ``reference`` imports this module)
    from reference import dense_rref
    # brackets span g_{-2}: the bracket values have rank k
    span = ExactMatrix([[GaussianRational(x) for x in mb[a][b]]
                        for a in range(2 * n) for b in range(a + 1, 2 * n)])
    if len(dense_rref(span)[1]) < k:
        raise AlgebraError("brackets do not span g_{-2} (not fundamental)")
    # nondegeneracy: X -> [X, .] is injective on g_{-1}, so its 2n rows
    # [e_a, .] are independent
    ad = ExactMatrix([[GaussianRational(mb[a][b][j])
                       for b in range(2 * n) for j in range(k)]
                      for a in range(2 * n)])
    if len(dense_rref(ad)[1]) < 2 * n:
        raise AlgebraError("degenerate bracket: ad has nontrivial kernel on g_{-1}")


def reconstruct_model(lt) -> QuadricModel:
    """Recover the Hermitian forms from the brackets (Im w = (1/4)[Jz, z])."""
    validate_invariants(lt)
    n, k = lt.n, lt.k
    mats = []
    for j in range(k):
        rows = []
        for a in range(n):
            row = []
            for b in range(n):
                re = Fraction(lt.mbracket[n + a][b][j], 4)
                im = Fraction(lt.mbracket[a][b][j], 4)
                row.append(GaussianRational(re, im))
            rows.append(row)
        mats.append(ExactMatrix(rows))
    model = QuadricModel(mats)
    if not all(h.is_hermitian() for h in model.hermitian):
        raise AlgebraError("reconstructed forms are not Hermitian")
    return model


def grading_element_coeffs(alg):
    """Coefficients of the pair (id, 2 id) in the canonical g_0 basis."""
    n2 = 2 * alg.n
    target = {s * n2 + s: 1 for s in range(n2)}
    target.update({n2 * n2 + j * alg.k + j: 2 for j in range(alg.k)})
    coeffs, bad = alg._read_off(0, target, 1)
    if bad is not None:
        raise InternalCheckError(
            f"(id, 2 id) pair not closed in g_0: first mismatch at column {bad}")
    return dense(coeffs, alg.dims[0])


def dense(entries, width):
    """Coefficient tuple of sparse (index, value) pairs, zeros filled in."""
    out = [Fraction(0)] * width
    for t, x in entries:
        out[t] = x
    return tuple(out)


def dense_constants(alg):
    """The stored structure constants of ``alg`` with zeros filled in:
    ``[B^p_a, B^q_b]`` as a coefficient tuple over g_{p+q}, the layout of
    ``reference.dense_structure_constants``."""
    return {(p, q): [[dense(entries, alg.dims[p + q]) for entries in row] for row in block]
            for (p, q), block in alg.structure_constants().items()}


def check_grading(alg) -> bool:
    """[(id, 2 id), f] = -d f for f in g_d, d >= 1 (eigenvalue -d; the
    conventional grading element is the negative of this pair)."""
    e0 = grading_element_coeffs(alg)
    sc = dense_constants(alg)
    for d in alg.degrees():
        if d < 1 or not alg.dims[d]:
            continue
        block = sc[(0, d)]
        for beta in range(alg.dims[d]):
            for t in range(alg.dims[d]):
                s = sum((c * block[alpha][beta][t]
                         for alpha, c in enumerate(e0) if c), Fraction(0))
                if s != (-d if beta == t else 0):
                    raise InternalCheckError(
                        f"grading eigenvalue check failed in degree {d}")
    return True


# ---------------------------------------------------------------------------
# realized fields and certificates
# ---------------------------------------------------------------------------


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
    return total, dense(block[a1][a2], alg.dims[total])


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
    P = defining_polys(model)
    i = GaussianRational(0, 1)
    app = {name: [apply_field(f, p) for p in P] for name, f in
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
    return tuple(evaluate(r, vals) for r in cert.residuals)
