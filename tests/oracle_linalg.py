"""Dense Fraction elimination (test-only oracle).

`rref_rows` is the incremental rational RREF that supertkk.exact ran behind
`Subspace`, `rref`, `solve` and `intersect` before those moved onto the
fraction-free integer elimination of `kernel_sparse`.  It is kept verbatim
as the slow reference; the helpers below rebuild the public operations on it
the way supertkk.exact used to, so the differential tests compare two
independent eliminations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from supertkk.exact import ONE, ZERO, Matrix, Q


def rref_rows(vectors: Iterable[Sequence], ncols: int):
    """Incremental exact RREF.  Returns (rows, pivots) with rows fully reduced,
    pivot entries 1, pivot columns cleared elsewhere, sorted by pivot column."""
    rows: list[list] = []
    pivots: list[int] = []
    for vec in vectors:
        v = [Q(x) for x in vec]
        assert len(v) == ncols, "ambient dimension mismatch"
        for r, p in zip(rows, pivots):
            c = v[p]
            if c:
                for j in range(ncols):
                    if r[j]:
                        v[j] -= c * r[j]
        lead = next((j for j in range(ncols) if v[j]), None)
        if lead is None:
            continue
        inv = ONE / v[lead]
        v = [x * inv for x in v]
        for r in rows:
            c = r[lead]
            if c:
                for j in range(ncols):
                    if v[j]:
                        r[j] -= c * v[j]
        rows.append(v)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [rows[i] for i in order], [pivots[i] for i in order]


def subspace(ambient: int, vectors) -> tuple[tuple, tuple]:
    """(basis, pivots) of the span, as `Subspace` stores them."""
    rows, pivots = rref_rows(vectors, ambient)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rref(m: Matrix):
    rows, pivots = rref_rows(m.data, m.cols)
    return Matrix(rows) if rows else Matrix.zero(0, m.cols), tuple(pivots)


def solve(m: Matrix, b: Sequence):
    """The particular solution `exact.solve` returns (free columns 0), or None."""
    aug = [list(row) + [Q(x)] for row, x in zip(m.data, b)]
    rows, pivots = rref_rows(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in zip(rows, pivots):
        x[p] = r[m.cols]
    return tuple(x)


def intersect(ambient: int, us, ws) -> tuple[tuple, tuple]:
    """(basis, pivots) of span(us) cap span(ws), by the Zassenhaus algorithm."""
    n = ambient
    stacked = [list(v) + list(v) for v in subspace(n, us)[0]]
    stacked += [list(w) + [ZERO] * n for w in subspace(n, ws)[0]]
    rows, pivots = rref_rows(stacked, 2 * n)
    return subspace(n, [r[n:] for r, p in zip(rows, pivots) if p >= n])


def kernel(rows: Sequence[dict], ncols: int) -> tuple[tuple, tuple]:
    """(basis, pivots) of the kernel of sparse rows: one vector per free column
    of their RREF."""
    r, pivots = rref(Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows]))
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        vecs.append(v)
    return subspace(ncols, vecs)
