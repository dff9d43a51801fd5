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
  ``sparse_int_nullspace``, which takes integer rows only: each caller
  scales its rational equations to integers where it writes them, from
  denominators it already holds (a row scaling leaves the kernel unchanged).
  It builds the reduced row echelon form (RREF) of each block
  incrementally, inserting the integer rows held as dicts of columns,
  shortest first, with gcd content removal (fraction-free, no entry
  blowup); a row that reduces to zero is dependent and dropped.  One
  clearing step does every row operation.  Its kernel vectors are read off
  the RREF and stay sparse ({column: Fraction}); only ``gi_nullspace``
  writes them out as dense tuples.
* Before any elimination, the singleton presolve removes every one-entry
  row and its column, repeatedly (Andersen & Andersen, Math. Programming 71,
  1995).  A one-entry row on column c puts e_c in the row space, so c is an
  RREF pivot and 0 in every kernel vector: the basis is unchanged, and c
  gets no unit vector.
* Kernel bases are canonical: the unique basis obtained from the reduced
  row echelon form of the matrix, one vector per free column, the free
  variable set to 1 and other free variables to 0, ordered by free column
  index.  The RREF of a row space is unique, whatever the order in which
  its rows are inserted, so the vectors read off it are this basis itself,
  with no canonicalization pass (the argument is in ``_block_kernel``).
  That makes all downstream output deterministic.
* Each system is solved block by block: union-find links two columns when
  they share a row, and each connected component (the coarse part of the
  Dulmage-Mendelsohn decomposition; Pothen & Fan, ACM TOMS 16, 1990) is
  eliminated on its own.  The kernel of a block-diagonal matrix is the direct
  sum of the block kernels, and the canonical basis is unique, so the block
  bases merged by free column are the global basis, byte for byte.
* A system over Q(i), given as rows of Gaussian-integer (re, im) pairs
  (the rows ``gi_bareiss`` takes), is realified by ``gi_nullspace``: column
  2a holds Re x_a and 2a + 1 holds Im x_a, and each equation gives one row
  for its real part and one for its imaginary part.  Realification maps
  the complex RREF block-wise onto the real one (complex pivot p becomes
  real pivots 2p, 2p + 1), so the real
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


# ---------------------------------------------------------------------------
# sparse integer kernel
# ---------------------------------------------------------------------------


def _content_normalize(row: dict) -> dict:
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _singleton_presolve(rows):
    """Zero the column of every one-entry row, delete it from the other rows,
    and repeat on the rows that become one-entry.

    ``rows`` is a list of nonempty integer rows; a row that loses a column is
    replaced by a copy, so the caller's dicts are never changed.  Returns the
    rows with two or more entries that are left, none on a zeroed column, and
    the set of zeroed columns.  Each pass tests every row left against the
    columns zeroed last; the prolongation systems need one to three passes.
    """
    zeroed, new = set(), {c for row in rows if len(row) == 1 for c in row}
    while new:
        zeroed |= new
        kept, found = [], set()
        for row in rows:
            if not new.isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in new}
                if len(row) == 1:
                    found.update(row)
            if len(row) > 1:
                kept.append(row)
        rows, new = kept, found
    return rows, zeroed


def sparse_int_nullspace(rows, ncols: int, stats=None):
    """Exact kernel of an integer matrix given as sparse rows.

    ``rows``: iterable of dict[col -> nonzero int], every col < ``ncols``;
    empty rows are skipped, and no row is changed.  A caller with rational
    equations scales each one to integers itself.  Returns the
    canonical nullspace basis: sparse vectors dict[col -> nonzero Fraction]
    with a 1 at their free column, ordered by free column index (with the
    zeros filled in, the basis of the dense RREF route).  If ``stats`` is a
    dict, it receives the number of zeroed columns (``zeroed``), of blocks
    (``blocks``), the column count of the largest block (``largest``) and the
    rank (``rank``: the zeroed columns plus the pivots of the blocks).

    First the singleton presolve (``_singleton_presolve``; Andersen &
    Andersen, Math. Programming 71, 1995): a one-entry row on column c puts
    e_c in the row space.  So c is a pivot of the reduced row echelon form,
    every kernel vector is 0 at c, and deleting c from every other row
    changes the row space only by a multiple of e_c.  The kernel is then the
    kernel of the remaining rows with x_c = 0, its pivots are theirs plus c,
    and its canonical basis is theirs without the unit vector of c.  So a
    zeroed column never gets a unit vector, and the basis is unchanged.

    Then each block (a connected component of the column graph, found by
    union-find) is solved on its own, as an incremental RREF
    (``_block_kernel``), and a column in no row gives a unit vector.  The
    kernel of a block-diagonal matrix is the direct sum of the block kernels
    and the reduced trailing-column basis is unique, so the block bases,
    merged by trailing column, are the global canonical basis.
    """
    rows, zeroed = _singleton_presolve([row for row in rows if row])
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
    basis = [{c: Fraction(1)} for c in range(ncols) if c not in parent and c not in zeroed]
    rank, largest = len(zeroed), 0
    for block in blocks.values():
        kernel, pivots = _block_kernel(block)
        basis += kernel
        rank += pivots
        largest = max(largest, pivots + len(kernel))    # each column is pivot or free
    if stats is not None:
        stats.update(zeroed=len(zeroed), blocks=len(blocks), largest=largest, rank=rank)
    return sorted(basis, key=max)


def gi_nullspace(rows, ncols: int):
    """Canonical kernel basis over Q(i) of ``rows``, lists of ``ncols`` (re, im)
    int pairs (the rows ``gi_bareiss`` takes): one tuple of GaussianRational
    per free column, ordered by free column.  It runs on the realified system,
    whose real canonical vectors with an even trailing column 2f are the
    complex ones of free column f."""
    real = []
    for row in rows:
        # the real and imaginary parts of sum_a (re + i im)(v_2a + i v_2a+1)
        for part in ([(re, -im) for re, im in row], [(im, re) for re, im in row]):
            real.append({2 * a + j: v for a, pair in enumerate(part) for j, v in enumerate(pair) if v})
    return [tuple(GaussianRational(v.get(2 * a, 0), v.get(2 * a + 1, 0)) for a in range(ncols))
            for v in sparse_int_nullspace(real, 2 * ncols)
            if max(v) % 2 == 0]


def _block_kernel(rows):
    """Canonical kernel basis on the columns of ``rows``, one block of
    integer rows, and the number of pivots (the rank of the block).

    ``piv[p]`` is the integer row whose leftmost column is p, and every
    ``piv[p]`` is zero on every other pivot column.  The rows are inserted
    one at a time, shortest first (a stable sort, so ties keep their input
    order).  A new row is cleared on all the pivot columns P that it holds
    in one pass: with L the lcm of the pivot entries piv[p][p], p in P, it
    becomes L row - sum_p (L / piv[p][p]) row[p] piv[p], written into one
    dict.  Each ``piv[p]`` is zero on the other pivot columns, so term p
    cancels column p of L row and changes no other pivot column.  A row that
    becomes zero lies in the span of the rows before it: it is dependent and
    dropped.  Otherwise its content is removed, and its leftmost column c
    becomes a new pivot.  Every pivot row that holds c has its own pivot
    left of c, so clearing c from it by the same step (P = {c}) with the new
    row, which lies right of c, keeps its leftmost column.  The step raises
    if it leaves a column of P nonzero.  Each step replaces rows by
    combinations that span the same space, so after each insertion the rows
    of ``piv`` are a basis of the rows inserted so far, in reduced echelon
    form up to the scale of each row.

    At the end ``piv`` is the RREF of the block's row space, which is unique
    whatever the insertion order, so its pivots are the RREF pivots.  For a
    free column f, fix x_f = 1 and every other free entry 0.  Row ``piv[p]``
    then reads piv[p][p] x_p + piv[p][f] = 0, so x_p = -piv[p][f] / piv[p][p],
    which is 0 when p's row does not hold f.  That is the unique kernel
    vector with those free entries, the canonical vector of f.  The order
    of insertion only keeps fill-in low; shortest first brings the sparse
    rows in as pivots before the long rows are reduced by them.
    """
    piv = {}

    def clear(row, hit):
        """L row - sum_p (L / piv[p][p]) row[p] piv[p] over the pivot columns
        ``hit`` of ``row``, L the lcm of their pivot entries, zeros dropped."""
        mult = lcm(*[piv[p][p] for p in hit])
        new = {c: mult * v for c, v in row.items()} if mult > 1 else dict(row)
        for p in hit:
            f = mult // piv[p][p] * row[p]
            for c, v in piv[p].items():
                new[c] = new.get(c, 0) - f * v
        for p in hit:
            if new[p]:
                raise InternalCheckError(f"sparse kernel: row not cleared on pivot column {p}")
        return {c: v for c, v in new.items() if v}

    for row in sorted(rows, key=len):
        if hit := [p for p in row if p in piv]:
            row = clear(row, hit)
            if not row:
                continue
        c = min(row)
        piv[c] = _content_normalize(row)
        for p, q in piv.items():
            if c in q and p != c:
                piv[p] = _content_normalize(clear(q, [c]))
    basis = {f: {f: Fraction(1)} for row in rows for f in row if f not in piv}
    for p, q in piv.items():
        for f, v in q.items():
            if f != p:
                basis[f][p] = Fraction(-v, q[p])
    return list(basis.values()), len(piv)
