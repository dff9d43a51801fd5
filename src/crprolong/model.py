"""CR quadric models Im w_j = z H_j z* and their Levi-Tanaka algebras.

A model is a tuple of k Hermitian n x n matrices.  Validation is exact:
Hermitian symmetry, linear independence of the forms over R, and trivial
common kernel.  The stronger isotropy condition (no common null vector of
all the forms) is reported informationally when a definite combination of
the forms certifies it, but never gates anything — deciding it in general
is a real-algebraic problem, while the trivial-kernel condition is the
linear-algebraic nondegeneracy the prolongation machinery needs.

The associated fundamental graded algebra m = g_{-2} (+) g_{-1} is stored
over the real basis e_1..e_n, Je_1..Je_n of g_{-1} and the w-basis of
g_{-2}; with h = (H_j)_{ab} the nonzero brackets are

    [e_a, e_b]_j = 4 Im h      [Je_a, Je_b]_j = 4 Im h
    [Je_a, e_b]_j = 4 Re h     [e_a, Je_b]_j = -4 Re h

(all rational), and the model is recovered from the brackets via
Im w = (1/4)[Jz, z].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import AlgebraError, DegenerateModelError, DimensionError, InputError
from .linalg import ExactMatrix, gi_bareiss
from .scalars import GaussianRational, json_int

_DEFINITE_LIMIT = 3000              # candidates the definite search enumerates at most
_TUMANOV_BOUND = 2                  # largest |c_j| the Tumanov search tries


class QuadricModel:
    """Immutable quadric model: k Hermitian forms on C^n."""

    __slots__ = ("n", "k", "hermitian", "_hash")

    def __init__(self, hermitian):
        hermitian = tuple(h if isinstance(h, ExactMatrix) else ExactMatrix(h)
                          for h in hermitian)
        if not hermitian:
            raise DimensionError("a model needs at least one Hermitian form")
        n = hermitian[0].rows
        if n < 1:
            raise DimensionError("n must be at least 1")
        for h in hermitian:
            if h.rows != n or h.cols != n:
                raise DimensionError("all forms must be square of the same size")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", len(hermitian))
        object.__setattr__(self, "hermitian", hermitian)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadricModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, QuadricModel):
            return NotImplemented
        return self.hermitian == other.hermitian

    def __hash__(self):
        """Computed once: the ``prolong_full`` and ``verify_hol`` memos key on it."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.hermitian))
        return self._hash

    def __repr__(self):
        return f"QuadricModel(n={self.n}, k={self.k})"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "hermitian": [h.to_lists() for h in self.hermitian]}

    @staticmethod
    def from_json(data) -> "QuadricModel":
        try:
            n, k = json_int(data["n"]), json_int(data["k"])
            mats = [ExactMatrix.from_lists(h) for h in data["hermitian"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed model JSON: {exc}") from exc
        m = QuadricModel(mats)
        if m.n != n or m.k != k:
            raise InputError("model JSON shape fields disagree with the matrices")
        return m

    # -- validation ------------------------------------------------------------
    def validate(self, definiteness_bound: int = 1) -> "ValidationReport":
        hermitian_ok = tuple(h.is_hermitian() for h in self.hermitian)

        # independence over R: a real relation among the real-flattened forms
        flat = ExactMatrix([[x for h_row in h.entries for e in h_row
                             for x in (GaussianRational(e.re), GaussianRational(e.im))]
                            for h in self.hermitian])
        ns = flat.transpose().nullspace()
        independent = not ns
        dependency = ns[0] if ns else None

        # common kernel of all forms: stacked (kn x n) system over Q(i)
        stacked = ExactMatrix([row for h in self.hermitian for row in h.entries])
        kernel = stacked.nullspace()
        kernel_witness = kernel[0] if kernel else None

        definite = None
        if all(hermitian_ok):
            definite = self._definite_combination(definiteness_bound)

        return ValidationReport(
            hermitian_ok=hermitian_ok,
            independent=independent,
            dependency=dependency,
            common_kernel_trivial=not kernel,
            kernel_witness=kernel_witness,
            definite_combination=definite,
        )

    def _definite_combination(self, bound: int):
        """Integer c with sum(c_j H_j) positive or negative definite, or None.

        Sufficient certificate for the isotropy condition; informational only,
        so the search is capped at ``_DEFINITE_LIMIT`` enumerated candidates,
        filtered or not (a deterministic prefix of the enumeration — at bound 1
        the whole space is covered up to k=7).

        The forms are scaled once by a common positive denominator D into
        Gaussian integers, which changes no sign.  A definite matrix has a
        diagonal of one strict sign, so a candidate is skipped unless its n
        diagonal entries, read off the forms' diagonals, are all nonzero of
        one sign s.  The survivors are decided by Sylvester's criterion: the
        m-th leading principal minor must have sign s^m.  A Bareiss pass
        without row swaps yields these minors (scaled by D^m > 0) as its
        pivots, so one pass replaces a determinant per minor; it stops at the
        first pivot that is zero or has the wrong sign.
        """
        if bound < 1:
            return None
        n = self.n
        forms = _integer_forms(self.hermitian, bound)
        for count, c in enumerate(_signed_tuples(self.k, bound)):
            if count >= _DEFINITE_LIMIT:
                return None
            diag = [sum(t) for t in zip(*(f[cj][:n * n:n + 1] for cj, f in zip(c, forms) if cj))]
            s = 1 if diag[0] > 0 else -1
            if not all(x * s > 0 for x in diag):
                continue
            for m, (re, im) in enumerate(gi_bareiss(_combination(forms, c, n), swap=False), 1):
                if im:
                    raise AlgebraError("non-real principal minor of a Hermitian matrix")
                if re * s ** m <= 0:
                    break
            else:
                return c
        return None


def _signed_tuples(k: int, bound: int):
    values = [0]
    for v in range(1, bound + 1):
        values.extend((v, -v))
    for c in itertools.product(values, repeat=k):
        if any(c):
            yield c


def _integer_forms(mats, bound):
    """Per form, a dict v -> v D H as a row-major flat int list (n*n real parts,
    then n*n imaginary parts), for v = +-1..+-bound and one common D > 0."""
    d = lcm(*(lcm(x.re.denominator, x.im.denominator)
              for h in mats for row in h.entries for x in row))
    flats = ([int(x.re * d) for row in h.entries for x in row]
             + [int(x.im * d) for row in h.entries for x in row] for h in mats)
    return [{v: [v * x for x in f] for v in range(-bound, bound + 1) if v} for f in flats]


def _combination(forms, c, n):
    """sum_j c_j F_j of integer forms, as n rows of (re, im) int pairs."""
    flat = list(map(sum, zip(*(f[cj] for cj, f in zip(c, forms) if cj))))
    pairs = list(zip(flat[:n * n], flat[n * n:]))
    return [pairs[a:a + n] for a in range(0, n * n, n)]


def tumanov_search(model: QuadricModel):
    """First integer combination c (|c_j| <= ``_TUMANOV_BOUND``) with
    det(sum c_j H_j) != 0.

    Deterministic enumeration: per-coordinate values 0, 1, -1, 2, -2, ...,
    last coordinate varying fastest.  Returns None when the bound is
    exhausted; existence of such a c is the Tumanov nondegeneracy condition.
    Each determinant is one Bareiss pass on the integer forms (D^n det != 0);
    a combination with a zero row is singular and skips the pass.
    """
    if not all(h.is_hermitian() for h in model.hermitian):
        raise DegenerateModelError("tumanov search requires Hermitian forms")
    forms = _integer_forms(model.hermitian, _TUMANOV_BOUND)
    zero_row = [(0, 0)] * model.n
    for c in _signed_tuples(model.k, _TUMANOV_BOUND):
        m = _combination(forms, c, model.n)
        if zero_row not in m and [*gi_bareiss(m)][-1] != (0, 0):
            return c
    return None


@dataclass(frozen=True)
class ValidationReport:
    hermitian_ok: tuple
    independent: bool
    dependency: Optional[tuple]
    common_kernel_trivial: bool
    kernel_witness: Optional[tuple]
    definite_combination: Optional[tuple]

    @property
    def all_passed(self) -> bool:
        return all(self.hermitian_ok) and self.independent and self.common_kernel_trivial

    def to_json(self) -> dict:
        return {
            "hermitian": list(self.hermitian_ok),
            "independent": self.independent,
            "dependency_witness": [str(x) for x in self.dependency] if self.dependency else None,
            "common_kernel_trivial": self.common_kernel_trivial,
            "kernel_witness": [str(x) for x in self.kernel_witness] if self.kernel_witness else None,
            "definite_combination": list(self.definite_combination) if self.definite_combination else None,
            "all_passed": self.all_passed,
        }


# ---------------------------------------------------------------------------
# Levi-Tanaka algebra of a model
# ---------------------------------------------------------------------------


class LeviTanakaAlgebra:
    """Fundamental graded algebra m = g_{-2} (+) g_{-1} with complex structure J.

    g_{-1} has real basis e_1..e_n, Je_1..Je_n (indices 0..n-1 and n..2n-1);
    g_{-2} has the w-basis (length k).  ``mbracket[a][b]`` holds the rational
    g_{-2}-coefficients of the bracket of basis vectors a and b.
    """

    __slots__ = ("n", "k", "mbracket")

    def __init__(self, n: int, k: int, mbracket):
        mbracket = tuple(tuple(tuple(Fraction(x) for x in cell) for cell in row)
                         for row in mbracket)
        if len(mbracket) != 2 * n or any(len(r) != 2 * n for r in mbracket):
            raise DimensionError("bracket table must be (2n) x (2n)")
        if any(len(cell) != k for row in mbracket for cell in row):
            raise DimensionError("bracket values must have length k")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mbracket", mbracket)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LeviTanakaAlgebra is immutable")

    # J on basis index: e_a -> Je_a, Je_a -> -e_a
    def j_index(self, s: int):
        """Return (index, sign) with J(basis_s) = sign * basis_index."""
        n = self.n
        return (s + n, 1) if s < n else (s - n, -1)


def build_levi_tanaka(model: QuadricModel) -> LeviTanakaAlgebra:
    """Build the Levi-Tanaka algebra of a validated model."""
    report = model.validate(definiteness_bound=0)
    if not report.all_passed:
        raise DegenerateModelError(f"model failed validation: {report.to_json()}")
    n, k = model.n, model.k
    table = [[None] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            re4 = [4 * model.hermitian[j][a, b].re for j in range(k)]
            im4 = [4 * model.hermitian[j][a, b].im for j in range(k)]
            table[a][b] = tuple(im4)                      # [e_a, e_b]
            table[n + a][n + b] = tuple(im4)              # [Je_a, Je_b]
            table[n + a][b] = tuple(re4)                  # [Je_a, e_b]
            table[a][n + b] = tuple(-x for x in re4)      # [e_a, Je_b]
    return LeviTanakaAlgebra(n, k, table)
