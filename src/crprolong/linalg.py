"""Exact matrices over Q(i) and the one exact eliminator: a sparse integer kernel.

Design notes
------------
* ``ExactMatrix`` is immutable; every operation returns a new object, so
  matrices can be shared freely across threads.
* Determinants use fraction-free Bareiss elimination over the Gaussian
  integers (denominators are cleared first); all divisions are exact.
  ``gi_bareiss`` is that one elimination loop; without row swaps its pivots
  are the leading principal minors, which the definiteness search reads.
* Every kernel, rank test and span solve goes through
  ``sparse_int_nullspace``: it scales its rational rows to integers row by
  row (``_rows_to_int``), then eliminates the integer rows held as dicts of
  columns with gcd content removal (fraction-free, no entry blowup), one
  column at a time in ascending order, and back-substitutes.  Its kernel
  vectors stay sparse ({column: Fraction}); only ``ExactMatrix.nullspace``
  writes them out as dense tuples.
* Kernel bases are canonical: the unique basis obtained from the reduced
  row echelon form of the matrix, one vector per free column, the free
  variable set to 1 and other free variables to 0, ordered by free column
  index.  Eliminated in ascending column order, the pivots are the RREF
  pivots, so the back-substitution returns this basis itself, with no
  canonicalization pass (the argument is in ``_block_kernel``).  That makes
  all downstream output deterministic.
* Each system is solved block by block: union-find links two columns when
  they share a row, and each connected component (the coarse part of the
  Dulmage-Mendelsohn decomposition; Pothen & Fan, ACM TOMS 16, 1990) is
  eliminated on its own.  The kernel of a block-diagonal matrix is the direct
  sum of the block kernels, and the canonical basis is unique, so the block
  bases merged by free column are the global basis, byte for byte.
* A system over Q(i) is realified: column 2a holds Re x_a and 2a + 1 holds
  Im x_a, and each equation gives one row for its real part and one for its
  imaginary part.  Realification maps the complex RREF block-wise onto the
  real one (complex pivot p becomes real pivots 2p, 2p + 1), so the real
  canonical vector of free column 2f is the complex canonical vector of
  free column f, read back as x_a = v[2a] + i v[2a + 1].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, InternalCheckError
from .scalars import GR_ZERO, GaussianRational, json_int

# ---------------------------------------------------------------------------
# fraction-free Gaussian elimination over Z[i]
# ---------------------------------------------------------------------------


def gi_bareiss(m, swap=True):
    """Bareiss elimination of a square matrix over Z[i], yielding its pivots.

    ``m`` is a list of rows of (re, im) int pairs and is overwritten.  The
    pivots come out in order, each times the sign of the row swaps made so
    far, and the generator stops after the first zero pivot; the last value
    is det(m).  Every division is exact, because each entry is a minor of
    ``m`` (Bareiss, Math. Comp. 22, 1968).  Without row swaps the k-th pivot
    is the leading principal k x k minor.
    """
    n = len(m)
    sign, prev_r, prev_i = 1, 1, 0
    for k in range(n):
        if swap and m[k][k] == (0, 0):
            r = next((i for i in range(k + 1, n) if m[i][k] != (0, 0)), None)
            if r is not None:
                m[k], m[r] = m[r], m[k]
                sign = -sign
        row_k = m[k]
        ar, ai = row_k[k]
        yield (sign * ar, sign * ai)
        if not (ar or ai):
            return
        norm = prev_r * prev_r + prev_i * prev_i
        for i in range(k + 1, n):
            row = m[i]
            br, bi = row[k]
            for j in range(k + 1, n):
                (xr, xi), (yr, yi) = row[j], row_k[j]
                # (a x - b y) / prev, exact in Z[i]
                tr = ar * xr - ai * xi - br * yr + bi * yi
                ti = ar * xi + ai * xr - br * yi - bi * yr
                qr, mr = divmod(tr * prev_r + ti * prev_i, norm)
                qi, mi = divmod(ti * prev_r - tr * prev_i, norm)
                if mr or mi:
                    raise InternalCheckError("non-exact Gaussian integer division in Bareiss")
                row[j] = (qr, qi)
        prev_r, prev_i = ar, ai


class ExactMatrix:
    """Immutable dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(GaussianRational(x) if not isinstance(x, GaussianRational) else x
                              for x in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise DimensionError("ragged matrix rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ExactMatrix is immutable")

    # -- basics ----------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def scale(self, c) -> "ExactMatrix":
        c = GaussianRational(c) if not isinstance(c, GaussianRational) else c
        return ExactMatrix([[c * x for x in row] for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("incompatible shapes for product")
        bt = list(zip(*other.entries)) if other.rows else []
        out = []
        for row in self.entries:
            out.append([sum((a * b for a, b in zip(row, col)), GR_ZERO) for col in bt])
        return ExactMatrix(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.entries)) if self.rows else [[]])

    def conj_transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.entries[i][j].conjugate() for i in range(self.rows)]
                            for j in range(self.cols)])

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i, self.cols):
                if self.entries[i][j] != self.entries[j][i].conjugate():
                    return False
        return True

    # -- text ------------------------------------------------------------
    def to_lists(self):
        return [[str(x) for x in row] for row in self.entries]

    @staticmethod
    def from_lists(data) -> "ExactMatrix":
        return ExactMatrix([[GaussianRational.parse(x) if isinstance(x, str) else json_int(x)
                             for x in row] for row in data])

    # -- elimination -------------------------------------------------------
    def nullspace(self):
        """Canonical kernel basis: list of tuples, one per free column.

        Runs on the realified system; the real canonical vectors with an even
        trailing column 2f are the complex ones of free column f.
        """
        rows = []
        for row in self.entries:
            re_row, im_row = {}, {}
            for a, x in enumerate(row):
                # (x.re + i x.im)(v_2a + i v_2a+1)
                if x.re:
                    re_row[2 * a] = x.re
                    im_row[2 * a + 1] = x.re
                if x.im:
                    re_row[2 * a + 1] = -x.im
                    im_row[2 * a] = x.im
            rows += (re_row, im_row)
        return [tuple(GaussianRational(v.get(2 * a, 0), v.get(2 * a + 1, 0))
                      for a in range(self.cols))
                for v in sparse_int_nullspace(rows, 2 * self.cols)
                if max(v) % 2 == 0]


# ---------------------------------------------------------------------------
# sparse integer kernel
# ---------------------------------------------------------------------------


def _rows_to_int(rows):
    """Scale each rational sparse row to integers (exact, row scaling only)."""
    out = []
    for row in rows:
        if not row:
            continue
        d = lcm(*(v.denominator for v in row.values()))
        # v * d without a rational product; int entries work too
        out.append({c: v.numerator * (d // v.denominator) for c, v in row.items()})
    return out


def _content_normalize(row: dict) -> dict:
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def sparse_int_nullspace(rows, ncols: int):
    """Exact kernel of a rational matrix given as sparse rows.

    ``rows``: iterable of dict[col -> nonzero int or Fraction], every col <
    ``ncols``; each row is scaled to integers first (``_rows_to_int``).
    Returns the canonical nullspace basis: sparse vectors dict[col -> nonzero
    Fraction] with a 1 at their free column, ordered by free column index
    (with the zeros filled in, the basis of the dense RREF route).

    Each block (a connected component of the column graph, found by
    union-find) is solved on its own, and a column in no row gives a unit
    vector.  The kernel of a block-diagonal matrix is the direct sum of the
    block kernels and the reduced trailing-column basis is unique, so the
    block bases, merged by trailing column, are the global canonical basis.
    """
    rows = _rows_to_int(rows)
    parent = {c: c for row in rows for c in row}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]     # path halving
        return c

    for row in rows:
        root = find(next(iter(row)))
        for c in row:
            parent[find(c)] = root
    blocks = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    basis = [{c: Fraction(1)} for c in range(ncols) if c not in parent]
    for block in blocks.values():
        basis += _block_kernel(block)
    return sorted(basis, key=max)


def _block_kernel(rows):
    """Canonical kernel basis on the columns of ``rows``, one block.

    The columns are eliminated in ascending order.  When column c is
    reached, every row still in ``work`` is zero on the columns left of c:
    each of those was a pivot column, cleared from every other row, or a
    free column, in no row then and so in no combination made later.  So c
    gets a pivot exactly when it is a pivot of the reduced row echelon
    form, and each pivot row has no column left of its pivot.

    For a free column f, fix x_f = 1 and every other free entry 0.  By
    induction from the right, every pivot column p right of f comes out 0:
    the other columns of its row lie right of p, where x is 0 (free entries
    by choice, pivots by induction).  So the vector ends at f, and it is the
    unique kernel vector with those free entries, which is the canonical
    vector of f.  Back-substitution through the pivots left of f, in
    descending order, computes it.  The pivot row (shortest, then smallest
    |value|, then smallest id) only keeps fill-in low.
    """
    work = {rid: _content_normalize(row) for rid, row in enumerate(rows)}
    pivots = []             # (pivot row, pivot col), pivot cols ascending
    free = []               # (free col, number of pivots left of it)
    for pc in sorted({c for row in rows for c in row}):
        active = [rid for rid, row in work.items() if pc in row]
        if not active:
            free.append((pc, len(pivots)))
            continue
        pr = min(active, key=lambda r: (len(work[r]), abs(work[r][pc]), r))
        prow = work.pop(pr)
        pval = prow[pc]
        for rid in active:
            if rid == pr:
                continue
            row = work.pop(rid)
            g = gcd(pval, row[pc])
            a, b = pval // g, row[pc] // g
            new = {c: t for c, v in row.items() if (t := a * v - b * prow.get(c, 0))}
            new.update((c, -b * v) for c, v in prow.items() if c not in row)
            if new:
                work[rid] = _content_normalize(new)
        pivots.append((prow, pc))

    basis = []
    for f, k in free:
        x = {f: Fraction(1)}
        for prow, pc in reversed(pivots[:k]):
            s = sum(v * x[c] for c, v in prow.items() if c in x)
            if s:
                x[pc] = -s / prow[pc]
        basis.append(x)
    return basis
