"""The Jacobi sweep of ``GradedLieAlgebra.check_jacobi`` over degree triples."""

from math import comb


def _degree_triples(dims: dict):
    """Degree triples p <= q <= r of nonzero pieces whose total degree is a
    nonzero piece, each with its number of basis triples of distinct
    elements."""
    degs = [d for d in sorted(dims) if dims[d]]
    for x, p in enumerate(degs):
        for y in range(x, len(degs)):
            q = degs[y]
            for r in degs[y:]:
                if not dims.get(p + q + r):
                    continue
                if p == r:
                    count = comb(dims[p], 3)
                elif p == q:
                    count = comb(dims[p], 2) * dims[r]
                elif q == r:
                    count = dims[p] * comb(dims[q], 2)
                else:
                    count = dims[p] * dims[q] * dims[r]
                yield p, q, r, count


def jacobi_triple_count(dims: dict) -> int:
    """Basis triples whose Jacobi identity ``check_jacobi`` certifies: every
    triple of distinct basis elements whose total degree is a nonzero piece."""
    return sum(count for *_, count in _degree_triples(dims))


def _jacobi_block(tables: dict, dims: dict, p: int, q: int, r: int):
    """First basis triple of degrees p <= q <= r (ascending indices within a
    degree) with a nonzero Jacobi sum, as ((p, ap), (q, aq), (r, ar), t) with
    t its first nonzero component; None if every sum vanishes."""

    def term(u, v, w):          # tables of [[B^u, B^v], B^w]; empty if zero
        inner, outer = tables.get((u, v)), tables.get((u + v, w))
        return (inner, outer) if inner is not None and outer is not None else ((), ())

    # the three cyclic terms [[a, b], c], [[b, c], a] and [[c, a], b]
    (ab, ab_c), (bc, bc_a), (ca, ca_b) = term(p, q, r), term(q, r, p), term(r, p, q)
    for ap in range(dims[p]):
        ca_p = [row[ap] for row in ca]
        for aq in range(ap + 1 if p == q else 0, dims[q]):
            ab_pq = ab[ap][aq] if ab else ()
            bc_q = bc[aq] if bc else ()
            for ar in range(aq + 1 if q == r else 0, dims[r]):
                acc = {}
                for m, v in ab_pq:
                    for t, x in ab_c[m][ar]:
                        acc[t] = acc.get(t, 0) + v * x
                if bc_q:
                    for m, v in bc_q[ar]:
                        for t, x in bc_a[m][ap]:
                            acc[t] = acc.get(t, 0) + v * x
                if ca_p:
                    for m, v in ca_p[ar]:
                        for t, x in ca_b[m][aq]:
                            acc[t] = acc.get(t, 0) + v * x
                if acc and any(acc.values()):
                    return (p, ap), (q, aq), (r, ar), min(t for t, v in acc.items() if v)
    return None
