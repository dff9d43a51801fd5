"""Sparse exact polynomials and holomorphic polynomial vector fields.

``Poly`` is the read-only exchange and print view.  It lives in the full
variable frame of a model size (n, k): complex variables z_1..z_n, their
formal conjugates zb_1..zb_n, w_1..w_k, wb_1..wb_k, and real variables
u_1..u_k (the real parts of w on the quadric).  The conjugates are
independent symbols — tangency checking works with polarized identities,
never with numeric conjugation.  Monomials are exponent tuples of length
2n + 3k in the variable order z < zb < w < wb < u (each block ordered by
index); the canonical term order is graded lexicographic, printed highest
first.  Coefficients are Gaussian rationals.  Tangency residuals and the
components read off a field are Polys; a Poly has no arithmetic, as every
computation runs on the packed core below.

``PolyVectorField`` is built from a compact core and computes on it.  Its
coefficients are holomorphic, so they live in the packed (z, w) frame:
n + k exponent slots instead of 2n + 3k.  A ``Packing`` puts an exponent
vector into one int: variable v takes SLOT_BITS = 16 bits, the first
variable highest, and the total degree sits above every slot.  A monomial
product is then one integer addition (Monagan & Pearce, CASC 2007), integer
order is the graded lex order, and the total degree is one shift.  Each
component maps packed monomials to Gaussian integers (re, im) of Python ints
over one positive denominator for the whole field, kept in lowest terms, so
equal fields have equal cores.  No exponent can carry into the next slot:
each exponent is at most the total degree, and packing, products and
brackets raise InputError before a total degree reaches 2**SLOT_BITS
(``check_degree``).  The tangency check builds its (z, zb, u) frame on the
same packing.

Every operation is exact and returns new objects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DimensionError, InputError
from .scalars import GaussianRational, json_int

SLOT_BITS = 16
DEGREE_CAP = 1 << SLOT_BITS            # every total degree stays below this
_SLOT_MASK = DEGREE_CAP - 1


def _nvars(n: int, k: int) -> int:
    return 2 * n + 3 * k


class Poly:
    """Multivariate polynomial over Q(i) in the (z, zb, w, wb, u) frame,
    read-only."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        clean = {}
        if terms:
            nv = _nvars(n, k)
            for mono, c in terms.items():
                if len(mono) != nv:
                    raise DimensionError("monomial length does not match variable frame")
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, n: int, k: int, terms: dict) -> "Poly":
        """Wrap ``terms`` without checks: for terms unpacked from the packed
        core, whose monomials fit the frame and whose coefficients are
        nonzero GaussianRationals by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "k", k)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, n, k) -> "Poly":
        return cls._of(n, k, {})

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.terms == other.terms

    def sorted_terms(self):
        """Terms in canonical order: graded lex, highest first."""
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True)

    # -- text --------------------------------------------------------------
    def _var_names(self):
        n, k = self.n, self.k
        return ([f"z{a + 1}" for a in range(n)] + [f"zb{a + 1}" for a in range(n)]
                + [f"w{j + 1}" for j in range(k)] + [f"wb{j + 1}" for j in range(k)]
                + [f"u{j + 1}" for j in range(k)])

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self._var_names()
        parts = []
        for m, c in self.sorted_terms():
            factors = [f"{names[v]}^{e}" if e > 1 else names[v]
                       for v, e in enumerate(m) if e]
            parts.append("*".join([str(c)] + factors) if factors else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self.text()}]"


# ---------------------------------------------------------------------------
# the packed core: exponent vectors in one int, Gaussian-integer coefficients
# ---------------------------------------------------------------------------

def check_degree(degree: int) -> None:
    """Raise InputError unless a total degree fits a slot of the packing."""
    if degree >= DEGREE_CAP:
        raise InputError(f"polynomial degree {degree} exceeds the packed limit "
                         f"{DEGREE_CAP - 1}")


class Packing:
    """Exponent vectors of ``nvars`` variables packed into ints: the exponent
    of variable v sits SLOT_BITS * (nvars - 1 - v) bits up, the total degree
    ``top`` bits up, and ``units[v]`` is the packed variable v."""

    __slots__ = ("nvars", "top", "units")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.top = SLOT_BITS * nvars
        self.units = tuple((1 << self.top) | (1 << SLOT_BITS * (nvars - 1 - v))
                           for v in range(nvars))

    def pack(self, exps) -> int:
        if min(exps, default=0) < 0:
            raise InputError("negative exponent")
        degree = sum(exps)
        check_degree(degree)
        m = degree
        for e in exps:
            m = m << SLOT_BITS | e
        return m

    def unpack(self, m: int) -> tuple:
        return tuple((m >> s) & _SLOT_MASK
                     for s in range(self.top - SLOT_BITS, -1, -SLOT_BITS))


@lru_cache(maxsize=64)
def packing(nvars: int) -> Packing:
    return Packing(nvars)


def slot_sum(bits: int) -> int:
    """Sum of the slots of a packed vector that has no degree slot."""
    total = 0
    while bits:
        total += bits & _SLOT_MASK
        bits >>= SLOT_BITS
    return total


def gi_trim(p: dict) -> dict:
    """``p`` without its zero coefficients."""
    return {m: c for m, c in p.items() if c[0] or c[1]}


def gi_add_into(out: dict, p: dict, cr: int = 1, ci: int = 0, shift: int = 0) -> dict:
    """out += (cr + i ci) x^shift p on packed Gaussian-integer polynomials,
    zero sums kept (``gi_trim`` drops them)."""
    get = out.get
    if not ci:
        for m, (re, im) in p.items():
            m += shift
            s = get(m)
            out[m] = (re * cr, im * cr) if s is None else (s[0] + re * cr, s[1] + im * cr)
    else:
        for m, (re, im) in p.items():
            m += shift
            a, b = re * cr - im * ci, re * ci + im * cr
            s = get(m)
            out[m] = (a, b) if s is None else (s[0] + a, s[1] + b)
    return out


def gi_mul_into(out: dict, p: dict, q: dict, sign: int = 1) -> dict:
    """out += sign * p * q, zero sums kept."""
    for m, (re, im) in p.items():
        gi_add_into(out, q, sign * re, sign * im, m)
    return out


def gi_diff(p: dict, pk: Packing, v: int) -> dict:
    """d/dx_v of a packed polynomial."""
    shift, unit = SLOT_BITS * (pk.nvars - 1 - v), pk.units[v]
    out = {}
    for m, (re, im) in p.items():
        e = (m >> shift) & _SLOT_MASK
        if e:                          # m -> m - unit is one-to-one
            out[m - unit] = (re * e, im * e)
    return out


def gi_integral(comps):
    """Components of {monomial: GaussianRational} as Gaussian integers over
    their one common denominator: (den, [{monomial: (re, im)}, ...])."""
    den = lcm(*(lcm(c.re.denominator, c.im.denominator) for p in comps for c in p.values()))
    return den, [{m: (c.re.numerator * (den // c.re.denominator),
                      c.im.numerator * (den // c.im.denominator)) for m, c in p.items()}
                 for p in comps]


def _max_degree(comps, top: int) -> int:
    return max(max(p) for p in comps if p) >> top


class PolyVectorField:
    """Holomorphic polynomial vector field: sum of f_a d/dz_a + g_j d/dw_j.

    ``comps`` holds the n + k coefficients (z targets first) in the packed
    (z, w) frame as {monomial: (re, im)}, over the one denominator ``den``.
    ``z_comps`` and ``w_comps`` give them as Polys, built on first use.  The
    constructor takes the core and stores it in lowest terms.
    """

    __slots__ = ("n", "k", "den", "comps", "_polys")

    def __init__(self, n: int, k: int, den: int, comps):
        """The field of the n + k packed ``comps`` over the positive ``den``,
        stored in lowest terms; ``comps`` have no zero coefficient."""
        g = den
        for p in comps:
            for re, im in p.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            den //= g
            comps = [{m: (re // g, im // g) for m, (re, im) in p.items()} for p in comps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "comps", tuple(comps))
        object.__setattr__(self, "_polys", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyVectorField is immutable")

    @property
    def z_comps(self) -> tuple:
        return self._as_polys()[:self.n]

    @property
    def w_comps(self) -> tuple:
        return self._as_polys()[self.n:]

    def _as_polys(self) -> tuple:
        polys = self._polys
        if polys is None:
            n, k, den = self.n, self.k, self.den
            unpack = packing(n + k).unpack
            zb, rest = (0,) * n, (0,) * (2 * k)
            polys = tuple(
                Poly._of(n, k, {e[:n] + zb + e[n:] + rest:
                                GaussianRational(Fraction(re, den), Fraction(im, den))
                                for m, (re, im) in p.items() for e in (unpack(m),)})
                for p in self.comps)
            object.__setattr__(self, "_polys", polys)
        return polys

    @staticmethod
    def zero(n, k) -> "PolyVectorField":
        return PolyVectorField(n, k, 1, [{} for _ in range(n + k)])

    @staticmethod
    def euler(n, k) -> "PolyVectorField":
        """The field sum(z_a d/dz_a) + 2 sum(w_j d/dw_j); weighted degree 0."""
        units = packing(n + k).units
        return PolyVectorField(n, k, 1, [{units[v]: (1 if v < n else 2, 0)}
                                         for v in range(n + k)])

    def _compat(self, other):
        if self.n != other.n or self.k != other.k:
            raise DimensionError("fields from different variable frames")

    # -- linear structure -------------------------------------------------
    @staticmethod
    def combination(n: int, k: int, pairs) -> "PolyVectorField":
        """sum(c * f for f, c in pairs), in integers over one denominator."""
        scaled = []
        for f, c in pairs:
            if f.n != n or f.k != k:
                raise DimensionError("fields from different variable frames")
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c:
                d = lcm(c.re.denominator, c.im.denominator)
                scaled.append((f, c.re.numerator * (d // c.re.denominator),
                               c.im.numerator * (d // c.im.denominator), f.den * d))
        den = lcm(*(d for *_, d in scaled))
        comps = [{} for _ in range(n + k)]
        for f, cr, ci, d in scaled:
            mult = den // d
            for out, p in zip(comps, f.comps):
                if p:
                    gi_add_into(out, p, cr * mult, ci * mult)
        return PolyVectorField(n, k, den, [gi_trim(p) for p in comps])

    def __add__(self, other):
        return PolyVectorField.combination(self.n, self.k, ((self, 1), (other, 1)))

    def __sub__(self, other):
        return PolyVectorField.combination(self.n, self.k, ((self, 1), (other, -1)))

    def __mul__(self, c):
        """Product with a scalar."""
        if not isinstance(c, (int, Fraction, GaussianRational)):
            return NotImplemented
        return PolyVectorField.combination(self.n, self.k, ((self, c),))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return (self.n == other.n and self.k == other.k and self.den == other.den
                and self.comps == other.comps)

    def is_zero(self) -> bool:
        return not any(self.comps)

    # -- derivation ---------------------------------------------------------
    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Vector field commutator [self, other] = self(other) - other(self)."""
        self._compat(other)
        pk = packing(self.n + self.k)
        mine, theirs = self.comps, other.comps
        if any(mine) and any(theirs):
            check_degree(_max_degree(mine, pk.top) + _max_degree(theirs, pk.top) - 1)
        comps = []
        for f, g in zip(theirs, mine):
            out = {}
            for v, (a, b) in enumerate(zip(mine, theirs)):
                if a and f:
                    gi_mul_into(out, a, gi_diff(f, pk, v))
                if b and g:
                    gi_mul_into(out, b, gi_diff(g, pk, v), -1)
            comps.append(gi_trim(out))
        return PolyVectorField(self.n, self.k, self.den * other.den, comps)

    # -- weights -------------------------------------------------------------
    def weighted_degree(self):
        """Common weighted degree (z weight 1, w weight 2, d/dz -1, d/dw -2).

        Returns None for the zero field and for weight-inhomogeneous fields.
        """
        n, k = self.n, self.k
        top, wmask = SLOT_BITS * (n + k), (1 << SLOT_BITS * k) - 1
        ws = {(m >> top) + slot_sum(m & wmask) - (1 if i < n else 2)
              for i, p in enumerate(self.comps) for m in p}
        return ws.pop() if len(ws) == 1 else None

    def ordinary_vanishing_order(self):
        """Minimal ordinary total degree over all coefficient terms; None if 0."""
        if self.is_zero():
            return None
        return min(min(p) for p in self.comps if p) >> SLOT_BITS * (self.n + self.k)

    # -- serialization ---------------------------------------------------------
    def _targets(self):
        n = self.n
        return [f"z{i + 1}" if i < n else f"w{i - n + 1}" for i in range(n + self.k)]

    def to_json(self) -> dict:
        terms = []
        n, k, den = self.n, self.k, self.den
        unpack = packing(n + k).unpack
        for target, p in zip(self._targets(), self.comps):
            for m in sorted(p, reverse=True):
                re, im = p[m]
                e = unpack(m)
                terms.append({
                    "target": target,
                    "z_exp": list(e[:n]),
                    "w_exp": list(e[n:]),
                    "coeff": f"({Fraction(re, den)})+({Fraction(im, den)})i",
                })
        return {"n": n, "k": k, "terms": terms}

    @staticmethod
    def from_json(data) -> "PolyVectorField":
        try:
            n, k = json_int(data["n"]), json_int(data["k"])
            pk = packing(n + k)
            z = [{} for _ in range(n)]
            w = [{} for _ in range(k)]
            for t in data["terms"]:
                target = t["target"]
                comps, idx = {"z": z, "w": w}.get(target[:1]), target[1:]
                if comps is None or not (idx.isascii() and idx.isdigit()
                                         and 1 <= int(idx) <= len(comps)):
                    raise InputError(f"bad target {target!r}")
                ze, we = list(map(json_int, t["z_exp"])), list(map(json_int, t["w_exp"]))
                if len(ze) != n or len(we) != k or min(ze + we, default=0) < 0:
                    raise InputError("bad exponent vector")
                c = GaussianRational.parse(t["coeff"])
                comp, mono = comps[int(idx) - 1], pk.pack(ze + we)
                comp[mono] = comp[mono] + c if mono in comp else c
        except InputError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
            raise InputError(f"malformed field JSON: {exc}") from exc
        if len(z) != n or len(w) != k:
            raise DimensionError("component count does not match (n, k)")
        return PolyVectorField(n, k, *gi_integral(
            [{m: c for m, c in p.items() if c} for p in (*z, *w)]))

    def text(self) -> str:
        parts = [f"({p.text()}) d/d{target}"
                 for target, p in zip(self._targets(), self._as_polys()) if p]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PolyVectorField[{self.text()}]"

