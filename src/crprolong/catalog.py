"""Built-in quadric models with their known polynomial automorphisms.

Entries:
  codim5      n=4, k=5 quadric in C^9 whose symmetry algebra reaches weighted
              degree 6; carries the linear rotations X, Y, Z, U, a degree-4
              field T with vanishing 2-jet, and a degree-6 field F.
  codim4      n=6, k=4 quadric in C^10 with a degree-4 automorphism G.
  heisenberg  the sphere model Im w = |z1|^2 in C^2.
  so_family   one quadric per integer n >= 3; top degree 2n - 2 and jet order n
              (computed for n <= 6).
  su_family   one quadric per integer m >= 2; top degree 4m - 2 and jet order 2m
              (computed for m <= 4).

extend_codim appends fresh sphere directions (new variable + equation
Im w_new = |z_new|^2) to any entry, raising the codimension while leaving the
positive part of the symmetry algebra unchanged.
"""

from dataclasses import dataclass, field as _dcfield
from fractions import Fraction

from .errors import InputError
from .linalg import ExactMatrix
from .model import QuadricModel
from .poly import PolyVectorField, gi_integral, gi_mul_into, gi_trim, packing
from .scalars import GR_ZERO, GaussianRational

_I = GaussianRational(0, 1)


def _mat(n, entries) -> ExactMatrix:
    """Hermitian matrix from a sparse {(row, col): scalar} map."""
    rows = [[GR_ZERO] * n for _ in range(n)]
    for (a, b), v in entries.items():
        rows[a][b] = GaussianRational(v) if not isinstance(v, GaussianRational) else v
    return ExactMatrix(rows)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    model: QuadricModel
    known_fields: dict = _dcfield(default_factory=dict)


# ---------------------------------------------------------------------------
# codimension 5 in C^9
# ---------------------------------------------------------------------------

def _field(n, k, table, factor=None) -> PolyVectorField:
    """The field with components {index: {monomial: coefficient}} (z_1..z_n,
    then w_1..w_k, numbered from 0), times the polynomial ``factor`` if one is
    given.  A monomial is packed in the (z, w) frame, so it is the sum of the
    ``packing(n + k).units`` of its variables, repeated for powers."""
    polys = [table.get(i, {}) for i in range(n + k)] + [factor or {0: 1}]
    den, (*comps, f) = gi_integral([{m: GaussianRational(c) for m, c in p.items()}
                                    for p in polys])
    return PolyVectorField._of(n, k, den * den, [gi_trim(gi_mul_into({}, p, f)) for p in comps])


def make_codim5() -> CatalogEntry:
    n, k = 4, 5
    hermitian = [
        _mat(n, {(0, 1): 1, (1, 0): 1}),                    # z1 zb2 + z2 zb1
        _mat(n, {(0, 1): -_I, (1, 0): _I}),                  # -i z1 zb2 + i z2 zb1
        _mat(n, {(2, 1): 1, (3, 0): 1, (1, 2): 1, (0, 3): 1}),
        _mat(n, {(0, 0): 1}),                                # |z1|^2
        _mat(n, {(1, 1): 1}),                                # |z2|^2
    ]
    model = QuadricModel(hermitian)
    z1, z2, _, _, w1, w2, _, w4, w5 = packing(n + k).units
    half = Fraction(1, 2)

    X = _field(n, k, {2: {z1: _I}, 3: {z2: _I}})
    Y = _field(n, k, {2: {z1: 1}, 3: {z2: -1}})
    Z = _field(n, k, {3: {z1: _I}})
    U = _field(n, k, {2: {z2: _I}})
    # T = (-w1^2/2 + w2^2/2 + 2 w4 w5) Y + w1 w2 X - 2 w2 w5 Z - 2 w2 w4 U
    T = _field(n, k, {
        2: {z1 + w1 + w1: -half, z1 + w2 + w2: half, z1 + w4 + w5: 2,
            z1 + w1 + w2: _I, z2 + w2 + w4: -2 * _I},
        3: {z2 + w1 + w1: half, z2 + w2 + w2: -half, z2 + w4 + w5: -2,
            z2 + w1 + w2: _I, z1 + w2 + w5: -2 * _I}})
    # degree-6 field F = Q (2 (w1 - i w2) z1 d/dz3 - 4 w4 z2 d/dz3
    #                      + 2 (w1 + i w2) z2 d/dz4 - 4 w5 z1 d/dz4 + Q d/dw3)
    Q = {w1 + w1: 1, w2 + w2: 1, w4 + w5: -4}
    F = _field(n, k, {2: {z1 + w1: 2, z1 + w2: -2 * _I, z2 + w4: -4},
                      3: {z2 + w1: 2, z2 + w2: 2 * _I, z1 + w5: -4},
                      n + 2: Q}, Q)

    return CatalogEntry(
        name="codim5",
        description="codimension-5 quadric in C^9; symmetry algebra of dimension "
                    "100 with top weighted degree 6",
        model=model,
        known_fields={"X": X, "Y": Y, "Z": Z, "U": U, "T": T, "F": F},
    )


# ---------------------------------------------------------------------------
# codimension 4 in C^10
# ---------------------------------------------------------------------------

def _pair_matrix(n, a, b) -> ExactMatrix:
    """Form -i z_a zb_b + i z_b zb_a (0-based indices)."""
    return _mat(n, {(a, b): -_I, (b, a): _I})


def make_codim4() -> CatalogEntry:
    n, k = 6, 4
    hermitian = [
        _pair_matrix(n, 0, 1),
        _pair_matrix(n, 1, 2),
        _pair_matrix(n, 0, 2),
        _mat(n, {(0, 3): 1, (3, 0): 1, (1, 4): 1, (4, 1): 1, (2, 5): 1, (5, 2): 1}),
    ]
    model = QuadricModel(hermitian)

    z1, z2, z3, _, _, _, w1, w2, w3, _ = packing(n + k).units
    # G = (w1 z3 + w2 z1 - w3 z2) (i w2 d/dz4 - i w3 d/dz5 + i w1 d/dz6)
    G = _field(n, k, {3: {w2: _I}, 4: {w3: -_I}, 5: {w1: _I}},
               {w1 + z3: 1, w2 + z1: 1, w3 + z2: -1})

    return CatalogEntry(
        name="codim4",
        description="codimension-4 quadric in C^10 (antisymmetric pair forms on "
                    "three base variables plus a coupling form); top weighted degree 4",
        model=model,
        known_fields={"G": G},
    )


# ---------------------------------------------------------------------------
# sphere and parametric families
# ---------------------------------------------------------------------------

def make_heisenberg() -> CatalogEntry:
    model = QuadricModel([_mat(1, {(0, 0): 1})])
    return CatalogEntry(
        name="heisenberg",
        description="sphere model Im w = |z1|^2 in C^2; symmetry algebra of "
                    "dimension 8 with top weighted degree 2",
        model=model,
    )


def _so_pairs(n):
    """Index pairs (a, b), a<b, consecutive pairs first, then the rest
    lexicographically."""
    pairs = [(a, a + 1) for a in range(n - 1)]
    pairs.extend((a, b) for a in range(n) for b in range(a + 2, n))
    return pairs


def family_top(name: str, n=None, m=None):
    """(entry name, top degree) of a parametric family, from its parameter
    alone, before any form is built: so_family(n) has top degree 2n - 2 and
    su_family(m) 4m - 2.  None for the other entries."""
    if name == "so_family":
        if n is None:
            raise InputError("so_family requires --n")
        if n < 3:
            raise InputError("so family needs n >= 3")
        return f"so_family(n={n})", 2 * n - 2
    if name == "su_family":
        if m is None:
            raise InputError("su_family requires --m")
        if m < 2:
            raise InputError("su family needs m >= 2")
        return f"su_family(m={m})", 4 * m - 2
    return None


def make_so_family(n: int) -> CatalogEntry:
    """Quadric on z_1..z_n, z'_1..z'_n: one antisymmetric pair form per pair of
    base variables plus the coupling sum z_j zb'_j + z'_j zb_j."""
    name, _ = family_top("so_family", n=n)
    nn = 2 * n
    hermitian = [_pair_matrix(nn, a, b) for a, b in _so_pairs(n)]
    hermitian.append(_mat(nn, {key: 1 for j in range(n) for key in ((j, n + j), (n + j, j))}))
    model = QuadricModel(hermitian)
    return CatalogEntry(
        name=name,
        description=f"quadric in C^{(n + 2) * (n + 1) // 2}; unusually high "
                    "jet-determination order n",
        model=model,
    )


def make_su_family(m: int) -> CatalogEntry:
    """Quadric on z_1..z_m, z'_1..z'_m: all real pair forms, all imaginary
    pair forms, all squares |z_a|^2, plus the reversed coupling
    sum z_j zb'_{m+1-j} + z'_{m+1-j} zb_j."""
    name, _ = family_top("su_family", m=m)
    nn = 2 * m
    hermitian = [_mat(nn, {(a, b): 1, (b, a): 1})
                 for a in range(m) for b in range(a + 1, m)]
    hermitian.extend(_pair_matrix(nn, a, b)
                     for a in range(m) for b in range(a + 1, m))
    hermitian.extend(_mat(nn, {(a, a): 1}) for a in range(m))
    hermitian.append(_mat(nn, {key: 1 for j in range(m)
                               for key in ((j, 2 * m - 1 - j), (2 * m - 1 - j, j))}))
    model = QuadricModel(hermitian)
    return CatalogEntry(
        name=name,
        description=f"quadric in C^{(m + 1) ** 2}; jet-determination order 2m",
        model=model,
    )


# ---------------------------------------------------------------------------
# codimension extension
# ---------------------------------------------------------------------------

def _embed_field(f: PolyVectorField, n2: int, k2: int) -> PolyVectorField:
    """``f`` in the (z, w) frame of (n2, k2): zero exponents for the new z and
    w, the same coefficients and denominator, and no new components."""
    n, k = f.n, f.k
    unpack, pack = packing(n + k).unpack, packing(n2 + k2).pack
    pad_z, pad_w = (0,) * (n2 - n), (0,) * (k2 - k)
    comps = [{pack(e[:n] + pad_z + e[n:] + pad_w): c for m, c in p.items()
              for e in (unpack(m),)} for p in f.comps]
    comps[n:n] = [{} for _ in pad_z]
    comps.extend({} for _ in pad_w)
    return PolyVectorField._of(n2, k2, f.den, comps)


def extend_codim(entry: CatalogEntry, extra: int) -> CatalogEntry:
    """Append ``extra`` new variables z_new with equations Im w_new = |z_new|^2."""
    if extra < 0:
        raise InputError("extra must be nonnegative")
    if extra == 0:
        return entry
    n, k = entry.model.n, entry.model.k
    n2, k2 = n + extra, k + extra
    hermitian = []
    for h in entry.model.hermitian:
        rows = [[h[a, b] for b in range(n)] + [GR_ZERO] * extra for a in range(n)]
        rows.extend([GR_ZERO] * n2 for _ in range(extra))
        hermitian.append(ExactMatrix(rows))
    for t in range(extra):
        hermitian.append(_mat(n2, {(n + t, n + t): 1}))
    model = QuadricModel(hermitian)
    fields = {name: _embed_field(f, n2, k2) for name, f in entry.known_fields.items()}
    return CatalogEntry(
        name=f"{entry.name}+{extra}",
        description=f"{entry.description}; extended by {extra} sphere "
                    "direction(s), which raises the codimension without new "
                    "positive-degree symmetries",
        model=model,
        known_fields=fields,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "codim5": make_codim5,
    "codim4": make_codim4,
    "heisenberg": make_heisenberg,
}


def names():
    return ["codim5", "codim4", "heisenberg", "so_family", "su_family"]


def get(name: str, n=None, m=None, extra: int = 0) -> CatalogEntry:
    """Build a catalog entry by name; family entries take n or m."""
    if name in _BUILDERS:
        entry = _BUILDERS[name]()
    elif name == "so_family":
        entry = make_so_family(n)
    elif name == "su_family":
        entry = make_su_family(m)
    else:
        raise InputError(f"unknown catalog entry {name!r}; choices: {', '.join(names())}")
    if extra:
        entry = extend_codim(entry, int(extra))
    return entry
