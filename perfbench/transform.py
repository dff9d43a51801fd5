"""Seeded change of coordinates that turns a model into an equivalent one.

    z -> A z     A = (permutation) x (diagonal of units 1, -1, i, -i)
                 x (a few elementary shears), each shear adding c * z_b to
                 z_a with c in {1, -1, 1+i, -1+i}; every factor has a unit
                 determinant, so A is unimodular over Z[i] and
                 H_j -> A H_j A* keeps Gaussian-integer entries.
    w -> T w     T = (permutation) x (signs) x (at most one +-1 shear) of
                 the k forms.

Both maps are invertible, so the transformed quadric is biholomorphically
equivalent to the original: its symmetry algebra has the same dims profile,
top degree and jet order.  The canonical bases are those of the new
coordinates, so the numbers inside the systems change.
"""

import random

from crprolong.linalg import ExactMatrix
from crprolong.model import QuadricModel
from crprolong.scalars import GaussianRational

SHEAR_VALUES = (GaussianRational(1), GaussianRational(-1),
                GaussianRational(1, 1), GaussianRational(-1, 1))
UNITS = (GaussianRational(1), GaussianRational(-1),
         GaussianRational(0, 1), GaussianRational(0, -1))


def _identity_rows(n):
    return [[GaussianRational(int(a == b)) for b in range(n)] for a in range(n)]


def _distinct_pair(rng, n):
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    return a, b + (b >= a)


def z_matrix(rng: random.Random, n: int, shears: int) -> ExactMatrix:
    """Permutation times unit phases times ``shears`` elementary shears
    (no shears when n == 1)."""
    rows = _identity_rows(n)
    for a in range(n):
        rows[a][a] = rng.choice(UNITS)
    if n > 1:
        for _ in range(shears):
            a, b = _distinct_pair(rng, n)
            c = rng.choice(SHEAR_VALUES)
            # row op: row_a += c * row_b (left multiplication by I + c e_ab)
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    perm = list(range(n))
    rng.shuffle(perm)
    return ExactMatrix([rows[p] for p in perm])


def transform_model(model: QuadricModel, seed: int, shears: int = 2,
                    form_shear: bool = True) -> QuadricModel:
    """The seeded equivalent of ``model``; the same seed gives the same model.

    ``shears`` elementary shears act on z; ``form_shear`` adds one form to
    another.  Without either, A is monomial and T a signed permutation, so
    the forms keep their sparsity and the cost stays close to the original's.
    """
    rng = random.Random(seed)
    a = z_matrix(rng, model.n, shears)
    a_star = a.conj_transpose()
    forms = [a @ h @ a_star for h in model.hermitian]
    k = model.k
    order = list(range(k))
    rng.shuffle(order)
    forms = [forms[j].scale(rng.choice((1, -1))) for j in order]
    if form_shear and k > 1:
        j, l = _distinct_pair(rng, k)
        forms[j] = forms[j] + forms[l].scale(rng.choice((1, -1)))
    return QuadricModel(forms)
