"""Sparse exact polynomials and holomorphic polynomial vector fields.

All polynomials live in a fixed variable frame determined by a model size
(n, k): complex variables z_1..z_n, their formal conjugates zb_1..zb_n,
w_1..w_k, wb_1..wb_k, and real variables u_1..u_k (the real parts of w on
the quadric).  The conjugates are independent symbols — tangency checking
works with polarized identities, never with numeric conjugation.

Monomials are exponent tuples of length 2n + 3k in the variable order
z < zb < w < wb < u (each block ordered by index); the canonical term order
is graded lexicographic, printed highest first.  Coefficients are Gaussian
rationals.  Every operation is exact and returns new objects.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import DimensionError, InputError
from .scalars import GR_ONE, GaussianRational, json_int


def _nvars(n: int, k: int) -> int:
    return 2 * n + 3 * k


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


class Poly:
    """Multivariate polynomial over Q(i) in the (z, zb, w, wb, u) frame."""

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
        """Wrap ``terms`` without checks: for results of the arithmetic here,
        whose monomials fit the frame and whose coefficients are nonzero
        GaussianRationals by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "k", k)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero(n, k) -> "Poly":
        return Poly._of(n, k, {})

    @staticmethod
    def constant(n, k, c) -> "Poly":
        return Poly(n, k, {(0,) * _nvars(n, k): c})

    @staticmethod
    def variable(n, k, kind: str, index: int) -> "Poly":
        """kind in {'z','zb','w','wb','u'}, index 0-based."""
        size = {"z": n, "zb": n, "w": k, "wb": k, "u": k}
        if kind not in size:
            raise InputError(f"unknown variable kind {kind!r}")
        if not 0 <= index < size[kind]:
            raise InputError(f"variable index out of range: {kind}{index + 1}")
        mono = [0] * _nvars(n, k)
        mono[_block(n, k, kind) + index] = 1
        return Poly._of(n, k, {tuple(mono): GR_ONE})

    @staticmethod
    def combination(n, k, pairs) -> "Poly":
        """sum(c * p for p, c in pairs), summed into one accumulator."""
        out = {}
        for p, c in pairs:
            if p.n != n or p.k != k:
                raise DimensionError("polynomials from different variable frames")
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if c:
                _add_into(out, ((m, v * c) for m, v in p.terms.items()))
        return Poly._of(n, k, out)

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
        return self + (-other if isinstance(other, Poly) else -GaussianRational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational(other)
            if not c:
                return Poly.zero(self.n, self.k)
            return Poly._of(self.n, self.k, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        return Poly._of(self.n, self.k, _add_into({}, (
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial power")
        result = Poly.constant(self.n, self.k, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def times_variable(self, kind: str, index: int) -> "Poly":
        """``self * Poly.variable(n, k, kind, index)``: exponents shift by one,
        coefficients are not touched."""
        v = _block(self.n, self.k, kind) + index
        return Poly._of(self.n, self.k, {m[:v] + (m[v] + 1,) + m[v + 1:]: c
                                         for m, c in self.terms.items()})

    # -- calculus ---------------------------------------------------------
    def diff(self, kind: str, index: int) -> "Poly":
        v = _block(self.n, self.k, kind) + index
        out = {}
        for m, c in self.terms.items():
            e = m[v]
            if e:                      # m -> m2 is one-to-one: no collisions
                out[m[:v] + (e - 1,) + m[v + 1:]] = c * e
        return Poly._of(self.n, self.k, out)

    def formal_conjugate(self) -> "Poly":
        """Conjugate coefficients; swap z<->zb and w<->wb blocks; u fixed."""
        n, k = self.n, self.k
        out = {}
        for m, c in self.terms.items():
            m2 = m[n:2 * n] + m[:n] + m[2 * n + k:2 * n + 2 * k] + m[2 * n:2 * n + k] + m[2 * n + 2 * k:]
            out[m2] = c.conjugate()
        return Poly._of(n, k, out)

    def subs(self, mapping) -> "Poly":
        """Simultaneous substitution {(kind, index) -> Poly}.

        Terms are grouped by their exponents in the substituted variables, so
        each group costs one product.
        """
        sub = {}
        for (kind, index), p in mapping.items():
            self._compat(p)
            sub[_block(self.n, self.k, kind) + index] = p
        powers = {v: [Poly.constant(self.n, self.k, 1), p] for v, p in sub.items()}

        def pw(v, e):
            lst = powers[v]
            while len(lst) <= e:
                lst.append(lst[-1] * lst[1])
            return lst[e]

        groups = {}
        for m, c in self.terms.items():
            key = tuple(m[v] for v in sub)
            rest = list(m)
            for v in sub:
                rest[v] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        out = {}
        for key, part in groups.items():
            factor = None
            for v, e in zip(sub, key):
                if e:
                    factor = pw(v, e) if factor is None else factor * pw(v, e)
            prod = Poly._of(self.n, self.k, part)
            _add_into(out, (prod if factor is None else prod * factor).terms.items())
        return Poly._of(self.n, self.k, out)

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.n, self.k, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.terms == other.terms

    def min_total_degree(self):
        return min((sum(m) for m in self.terms), default=None)

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


class PolyVectorField:
    """Holomorphic polynomial vector field: sum of f_a d/dz_a + g_j d/dw_j.

    Coefficients may involve z and w only (enforced); applying the field to
    a polynomial in the full frame differentiates in z and w, so zb/wb/u
    content of the argument passes through untouched.
    """

    __slots__ = ("n", "k", "z_comps", "w_comps")

    def __init__(self, n: int, k: int, z_comps, w_comps):
        z_comps = tuple(z_comps)
        w_comps = tuple(w_comps)
        if len(z_comps) != n or len(w_comps) != k:
            raise DimensionError("component count does not match (n, k)")
        for p in (*z_comps, *w_comps):
            if p.n != n or p.k != k:
                raise DimensionError("component polynomial from the wrong frame")
            for m in p.terms:
                if any(m[n:2 * n]) or any(m[2 * n + k:]):
                    raise InputError("field coefficients must be holomorphic (z, w only)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "z_comps", z_comps)
        object.__setattr__(self, "w_comps", w_comps)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyVectorField is immutable")

    @staticmethod
    def zero(n, k) -> "PolyVectorField":
        return PolyVectorField(n, k, [Poly.zero(n, k)] * n, [Poly.zero(n, k)] * k)

    @staticmethod
    def euler(n, k) -> "PolyVectorField":
        """The field sum(z_a d/dz_a) + 2 sum(w_j d/dw_j); weighted degree 0."""
        return PolyVectorField(
            n, k,
            [Poly.variable(n, k, "z", a) for a in range(n)],
            [Poly.variable(n, k, "w", j) * 2 for j in range(k)],
        )

    def _compat(self, other):
        if self.n != other.n or self.k != other.k:
            raise DimensionError("fields from different variable frames")

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        self._compat(other)
        return PolyVectorField(self.n, self.k,
                               [a + b for a, b in zip(self.z_comps, other.z_comps)],
                               [a + b for a, b in zip(self.w_comps, other.w_comps)])

    def __sub__(self, other):
        self._compat(other)
        return PolyVectorField(self.n, self.k,
                               [a - b for a, b in zip(self.z_comps, other.z_comps)],
                               [a - b for a, b in zip(self.w_comps, other.w_comps)])

    def __mul__(self, c):
        return PolyVectorField(self.n, self.k,
                               [p * c for p in self.z_comps],
                               [p * c for p in self.w_comps])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and self.z_comps == other.z_comps and self.w_comps == other.w_comps)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.z_comps) and all(p.is_zero() for p in self.w_comps)

    # -- derivation ---------------------------------------------------------
    def apply_to(self, p: Poly) -> Poly:
        if p.n != self.n or p.k != self.k:
            raise DimensionError("argument polynomial from the wrong frame")
        out = Poly.zero(self.n, self.k)
        for a, f in enumerate(self.z_comps):
            if f:
                out = out + f * p.diff("z", a)
        for j, g in enumerate(self.w_comps):
            if g:
                out = out + g * p.diff("w", j)
        return out

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Vector field commutator [self, other] = self(other) - other(self)."""
        self._compat(other)
        z = [self.apply_to(f) - other.apply_to(g)
             for f, g in zip(other.z_comps, self.z_comps)]
        w = [self.apply_to(f) - other.apply_to(g)
             for f, g in zip(other.w_comps, self.w_comps)]
        return PolyVectorField(self.n, self.k, z, w)

    # -- weights -------------------------------------------------------------
    def _term_weights(self):
        n, k = self.n, self.k
        for p, shift in [*((p, -1) for p in self.z_comps), *((p, -2) for p in self.w_comps)]:
            for m in p.terms:
                yield sum(m[:n]) + 2 * sum(m[2 * n:2 * n + k]) + shift

    def weighted_degree(self):
        """Common weighted degree (z weight 1, w weight 2, d/dz -1, d/dw -2).

        Returns None for the zero field and for weight-inhomogeneous fields.
        """
        ws = set(self._term_weights())
        return ws.pop() if len(ws) == 1 else None

    def ordinary_vanishing_order(self):
        """Minimal ordinary total degree over all coefficient terms; None if 0."""
        degs = [d for p in (*self.z_comps, *self.w_comps)
                for d in [p.min_total_degree()] if d is not None]
        return min(degs) if degs else None

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        terms = []
        n, k = self.n, self.k
        for kind, comps in (("z", self.z_comps), ("w", self.w_comps)):
            for idx, p in enumerate(comps):
                for m, c in p.sorted_terms():
                    terms.append({
                        "target": f"{kind}{idx + 1}",
                        "z_exp": list(m[:n]),
                        "w_exp": list(m[2 * n:2 * n + k]),
                        "coeff": str(c),
                    })
        return {"n": n, "k": k, "terms": terms}

    @staticmethod
    def from_json(data) -> "PolyVectorField":
        try:
            n, k = json_int(data["n"]), json_int(data["k"])
            z = [Poly.zero(n, k) for _ in range(n)]
            w = [Poly.zero(n, k) for _ in range(k)]
            for t in data["terms"]:
                target = t["target"]
                comps, idx = {"z": z, "w": w}.get(target[:1]), target[1:]
                if comps is None or not (idx.isascii() and idx.isdigit()
                                         and 1 <= int(idx) <= len(comps)):
                    raise InputError(f"bad target {target!r}")
                ze, we = list(map(json_int, t["z_exp"])), list(map(json_int, t["w_exp"]))
                if len(ze) != n or len(we) != k or min(ze + we, default=0) < 0:
                    raise InputError("bad exponent vector")
                mono = tuple(ze) + (0,) * n + tuple(we) + (0,) * (2 * k)
                p = Poly(n, k, {mono: GaussianRational.parse(t["coeff"])})
                comps[int(idx) - 1] += p
        except InputError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
            raise InputError(f"malformed field JSON: {exc}") from exc
        return PolyVectorField(n, k, z, w)

    def text(self) -> str:
        parts = [f"({p.text()}) d/d{kind}{i + 1}"
                 for kind, comps in (("z", self.z_comps), ("w", self.w_comps))
                 for i, p in enumerate(comps) if p]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PolyVectorField[{self.text()}]"

    def coefficient_entries(self):
        """Deterministic ((block, index, monomial), coeff) stream for span work."""
        for b, comps in ((0, self.z_comps), (1, self.w_comps)):
            for idx, p in enumerate(comps):
                for m, c in p.sorted_terms():
                    yield (b, idx, m), c
