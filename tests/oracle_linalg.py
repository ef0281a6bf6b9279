"""Dense Fraction elimination (test-only oracle).

`rref_rows` is the incremental rational RREF that supertkk.exact ran behind
`Subspace`, `rref`, `solve` and `intersect` before those moved onto the
fraction-free integer elimination of `kernel_sparse`.  It is kept verbatim
as the slow reference; the helpers below rebuild the public operations on it
the way supertkk.exact used to, so the differential tests compare two
independent eliminations.  `SpanSolver` is likewise the incremental span that
wrote members as combinations of generators before `GeneratedSpan`.
`derivation_kernel` is the Fraction Leibniz-row builder that
supertkk.structure ran once per (shift, parity) before the integer
`leibniz_blocks` assembly, kept as the reference for that assembly; unlike
the assembly it takes every ordered pair (i, j), whatever the symmetry of
the table.  `pair_derivation_kernel` and `str_w` are the Fraction row
builders that supertkk.structure ran before the integer trilinear assembler,
kept verbatim: the first loops over the pair's triples, the second over the
dense U_{e_i,e_j} matrices of the two U-operator identities.
`leibniz_blocks` is the Python integer assembler that supertkk.structure ran
before it built the system as numpy COO triplets for
`exact.primitive_row_blocks`: per-equation dict rows, each made primitive
and deduplicated by `exact.primitive_rows`; it is kept verbatim, not
memoized, with the `_integer_tables` it scaled its table by.
`verify_kernel` is the dense kernel certificate that supertkk.exact ran
before its sparse join on the column: every row block built densely and
multiplied by the kernel basis.  `integer_kernel`
is the all-rows elimination that supertkk.exact ran before its
structured-elimination pre-pass: every row goes through `exact._echelon`
as a dict; it is kept verbatim but for its certificate, which is the dense
`verify_kernel` here.

`triple` is the Fraction Jordan triple product that supertkk.jordan
exported, with its helpers `_parity_parts` and the former
`superspace.parity_sign`: the reference `tensor.triple_tensor` is tested
against.

The last section is the dense operator arithmetic that supertkk ran beside
its integer operator stacks, kept verbatim for the oracles: `Matrix` is
`exact.Matrix` with the products, sums, scalings and `apply` that the
package's container no longer has; `GradedOperator`, `operator_parity`,
`supercommutator` and `left_mult_matrix` are the former superspace
operators, `l_op`, `d_op` and `u_op` the former jordan ones (`d_op` here
built from the Fraction `triple`, unlike the operator-formula `d_op` of
oracle_identities), and `operators` the former `OperatorSpace.operators()`;
`vec_is_zero` is the former `exact.vec_is_zero`, which no package code calls.
`reduce` and `coordinates` are the former `Subspace.reduce` and
`Subspace.coordinates`, which no package code calls since `subalgebra` and
`quotient_algebra` read integer residues in one sparse join; `reduce` is
written here on the rational basis, `coordinates` verbatim.  `contains` and
`contains_space` are the former `Subspace.contains` and
`Subspace.contains_space`, kept verbatim; no package code tests membership
one vector at a time.

`GeneratedSpan` is the former `exact.GeneratedSpan`, kept verbatim: it
read each member on its own (`_solve`: one `_reduce` of a dict row by the
elimination store, and one recombination of the sparse generator rows), and
`coordinates` made one `_solve` call per member.  The package's batched
read is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Sequence

from supertkk import exact
from supertkk.exact import (ONE, ZERO, Q, Subspace, _echelon, _reduce, _scaled, certify, int_dtype,
                            kernel_sparse, primitive_rows, row_primitive)
from supertkk.structure import JordanPair, OperatorSpace
from supertkk.superspace import SuperAlgebra, check_superanticommutative, check_supercommutative


# ---------------------------------------------------------------------------
# the Fraction Jordan triple


def parity_sign(e: int):
    """(-1)**e as a rational."""
    return Q(-1) if e % 2 else Q(1)


def basis_vector(a: SuperAlgebra, i: int) -> tuple:
    """The i-th unit vector of the algebra a, in rational coordinates (the
    former method `SuperAlgebra.basis_vector`)."""
    return tuple(Q(1) if j == i else ZERO for j in range(a.dim))


def _parity_parts(V: SuperAlgebra, x):
    parts = {0: [ZERO] * V.dim, 1: [ZERO] * V.dim}
    for i, c in enumerate(x):
        if c:
            parts[V.parity(i)][i] = c
    return [(par, tuple(v)) for par, v in parts.items() if any(v)]


def triple(V: SuperAlgebra, x, y, z) -> tuple:
    """{x,y,z} = 2((xy)z + x(yz) - (-1)^{|x||y|} y(xz)), extended multilinearly."""
    out = [ZERO] * V.dim
    for px, xp in _parity_parts(V, x):
        for py, yp in _parity_parts(V, y):
            s = parity_sign(px * py)
            xy = V.product(xp, yp)
            t1 = V.product(xy, z)
            t2 = V.product(xp, V.product(yp, z))
            t3 = V.product(yp, V.product(xp, z))
            for i in range(V.dim):
                out[i] += 2 * (t1[i] + t2[i] - s * t3[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# dense operator arithmetic


def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


def reduce(s: Subspace, vec: Sequence) -> list:
    """vec reduced by the canonical basis (pivot coordinates zeroed); 0 iff vec is inside."""
    v = [Q(x) for x in vec]
    if len(v) != s.ambient:
        raise ValueError(f"ambient dimension mismatch: {len(v)} != {s.ambient}")
    for b, p in zip(s.basis, s.pivots):
        c = v[p]
        v = [x - c * y for x, y in zip(v, b)]
    return v


def contains(s: Subspace, vec: Sequence) -> bool:
    """Whether vec lies in the space: with vec = V / e, its integer residue
    den V - sum V[p] rows_p over the pivots p is zero."""
    v, _ = exact._scaled(vec, s.ambient)
    out = [0] * s.ambient
    for j, x in v.items():
        out[j] = x * s.den
    for row, p in zip(s.rows, s.pivots):
        c = v.get(p)
        if c:
            for j, y in enumerate(row):
                if y:
                    out[j] -= c * y
    return not any(out)


def contains_space(s: Subspace, t: Subspace) -> bool:
    s._check_ambient(t)
    return all(contains(s, r) for r in t.rows)


def coordinates(s: Subspace, vec: Sequence):
    """Coefficients of vec in the canonical basis, or None if outside.

    Each basis row is 1 at its own pivot and 0 at the others, so the
    coefficients are the entries of vec at the pivot columns."""
    v = tuple(vec)
    return tuple(Q(v[p]) for p in s.pivots) if contains(s, v) else None


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Sequence) -> tuple:
    return tuple(c * a for a in v)


class Matrix(exact.Matrix):
    """Dense exact-rational matrix with the arithmetic of the former
    `exact.Matrix`; equal to an `exact.Matrix` with the same entries."""

    __slots__ = ()

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum((a * x for a, x in zip(row, v) if x), ZERO) for row in self.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matmul dimension mismatch")
        cols = other.transpose().data
        return Matrix(
            [[sum((a * b for a, b in zip(row, col) if a and b), ZERO) for col in cols]
             for row in self.data]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(vec_add(r, s) for r, s in zip(self.data, other.data, strict=True))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(vec_sub(r, s) for r, s in zip(self.data, other.data, strict=True))

    def __neg__(self) -> "Matrix":
        return Matrix(vec_scale(-ONE, r) for r in self.data)

    def scale(self, c) -> "Matrix":
        c = Q(c)
        return Matrix(vec_scale(c, r) for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.data)) if self.data else Matrix([])

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)


def left_mult_matrix(a: SuperAlgebra, x: Sequence) -> Matrix:
    """Matrix of y -> x*y (the adjoint map for Lie kind)."""
    cols = [a.product(x, basis_vector(a, j)) for j in range(a.dim)]
    return Matrix.from_columns(cols) if cols else Matrix([])


@dataclass
class GradedOperator:
    """Parity-homogeneous endomorphism of a SuperAlgebra's space."""
    matrix: Matrix
    parity: int | None
    zshift: int | None = None
    algebra: SuperAlgebra | None = field(default=None, repr=False, compare=False)

    def apply(self, v):
        return self.matrix.apply(v)

    def flatten(self):
        return self.matrix.flatten()


def operator_parity(a: SuperAlgebra, m: Matrix) -> int | None:
    """Parity of a matrix as a map of the graded space; None if mixed/zero-safe."""
    par = None
    for r in range(m.rows):
        for c in range(m.cols):
            if m[r, c]:
                this = (a.parity(r) + a.parity(c)) % 2
                if par is None:
                    par = this
                elif par != this:
                    return None
    return par if par is not None else 0


def supercommutator(A: GradedOperator, B: GradedOperator) -> GradedOperator:
    """[A,B] = AB - (-1)^{|A||B|} BA."""
    if A.parity is None or B.parity is None:
        raise ValueError("supercommutator needs homogeneous operators")
    s = parity_sign(A.parity * B.parity)
    m = A.matrix @ B.matrix - (B.matrix @ A.matrix).scale(s)
    zs = None
    if A.zshift is not None and B.zshift is not None:
        zs = A.zshift + B.zshift
    return GradedOperator(m, (A.parity + B.parity) % 2, zs, A.algebra)


def l_op(V: SuperAlgebra, x) -> GradedOperator:
    """Left multiplication L_x(y) = x*y."""
    m = left_mult_matrix(V, x)
    return GradedOperator(m, operator_parity(V, m), algebra=V)


def d_op(V: SuperAlgebra, x, y) -> GradedOperator:
    """D_{x,y} = 2L_{xy} + 2[L_x,L_y]: the operator z -> {x,y,z}."""
    m = Matrix.from_columns([triple(V, x, y, basis_vector(V, c)) for c in range(V.dim)])
    return GradedOperator(m, operator_parity(V, m), algebra=V)


def u_op(V: SuperAlgebra, x, y) -> GradedOperator:
    """U_{x,y}(z) = (-1)^{|y||z|} {x,z,y}."""
    ys = _parity_parts(V, y)
    cols = []
    for k in range(V.dim):
        col = [ZERO] * V.dim
        for py, yp in ys:
            s = parity_sign(py * V.parity(k))
            t = triple(V, x, basis_vector(V, k), yp)
            for i in range(V.dim):
                col[i] += s * t[i]
        cols.append(tuple(col))
    m = Matrix.from_columns(cols)
    return GradedOperator(m, operator_parity(V, m), algebra=V)


def operators(space: OperatorSpace):
    """Basis as GradedOperators (plain) or (plus, minus, parity) triples."""
    out = []
    for parity in (0, 1):
        for v in space.part(parity).basis:
            if space.paired:
                dp, dm = space.shape
                out.append((Matrix.unflatten(dp, dp, v[:dp * dp]),
                            Matrix.unflatten(dm, dm, v[dp * dp:]), parity))
            else:
                n = space.shape[0]
                out.append(GradedOperator(Matrix.unflatten(n, n, v), parity,
                                          algebra=space.algebra))
    return out


# ---------------------------------------------------------------------------
# dense elimination


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


class SpanSolver:
    """Incremental span that can express members as combinations of the
    generators added so far (used to rewrite brackets in a chosen basis)."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.count = 0
        self._rows: list[tuple[list, list]] = []  # (reduced vector, combo over generators)
        self._pivots: list[int] = []

    def _reduce(self, vec: Sequence):
        v = [Q(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError(f"ambient dimension mismatch: {len(v)} != {self.ambient}")
        combo = [ZERO] * self.count
        for (r, t), p in zip(self._rows, self._pivots):
            c = v[p]
            if c:
                for j, rj in enumerate(r):
                    if rj:
                        v[j] -= c * rj
                for g, tg in enumerate(t):
                    if tg:
                        combo[g] += c * tg
        return v, combo

    def add(self, vec: Sequence) -> bool:
        """Add a generator; True if it enlarged the span."""
        v, combo = self._reduce(vec)
        combo = combo + [ZERO] * (self.count + 1 - len(combo))
        idx = self.count
        self.count += 1
        for r, t in self._rows:
            t.append(ZERO)
        lead = next((j for j in range(self.ambient) if v[j]), None)
        if lead is None:
            return False
        inv = ONE / v[lead]
        v = [x * inv for x in v]
        # vec = sum(combo) + v*lead_coeff  =>  v = (gen_idx - combo) / lead_coeff
        t = [-c * inv for c in combo]
        t[idx] = inv
        self._rows.append((v, t))
        self._pivots.append(lead)
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)

    def express(self, vec: Sequence):
        """Coefficients over the added generators reproducing vec, or None."""
        v, combo = self._reduce(vec)
        return tuple(combo) if vec_is_zero(v) else None



def derivation_kernel(a: SuperAlgebra, parity: int, zshift=None) -> Subspace:
    """Leibniz kernel: operators of given parity (and degree shift, if set).

    Assembles every ordered pair (i, j), whatever the symmetry of the table.
    """
    n = a.dim
    cols = [(r, c) for r in range(n) for c in range(n)
            if (a.parity(r) + a.parity(c)) % 2 == parity
            and (zshift is None or a.zdegree(r) - a.zdegree(c) == zshift)]
    pos = {rc: idx for idx, rc in enumerate(cols)}
    rows = []
    for i in range(n):
        for j in range(n):
            w = a.basis_product(i, j)
            sgn = Q(-1) if (parity * a.parity(i)) % 2 else Q(1)
            row_for: dict = {k: {} for k in range(n)}
            for c, wc in w.items():
                for k in range(n):
                    if (k, c) in pos:
                        row_for[k][pos[k, c]] = row_for[k].get(pos[k, c], Q(0)) + wc
            for r in range(n):
                if (r, i) in pos:
                    for k, c in a.basis_product(r, j).items():
                        row_for[k][pos[r, i]] = row_for[k].get(pos[r, i], Q(0)) - c
                if (r, j) in pos:
                    for k, c in a.basis_product(i, r).items():
                        row_for[k][pos[r, j]] = row_for[k].get(pos[r, j], Q(0)) - sgn * c
            rows.extend(v for v in row_for.values() if v)
    return _kernel_space(kernel_sparse(rows, len(cols)),
                         [r * n + c for r, c in cols], n * n)


def _kernel_space(kernel, positions, ambient: int) -> Subspace:
    """The kernel vectors scattered to the given flat positions, as a Subspace."""
    scattered = []
    for v in kernel:
        flat = [Q(0)] * ambient
        for at, x in zip(positions, v):
            flat[at] = x
        scattered.append(tuple(flat))
    return Subspace(ambient, scattered)


def pair_derivation_kernel(pair: JordanPair, parity: int) -> Subspace:
    """Pairs (D+, D-) satisfying the derivation rule for both triples."""
    dims = (pair.dim(0), pair.dim(1))
    cols = []
    for s in (0, 1):
        cols.extend((s, r, c) for r in range(dims[s]) for c in range(dims[s])
                    if (pair.parity(s, r) + pair.parity(s, c)) % 2 == parity)
    pos = {src: idx for idx, src in enumerate(cols)}
    rows = []
    for sigma in (0, 1):
        other = 1 - sigma
        for i in range(dims[sigma]):
            pi = pair.parity(sigma, i)
            s_i = Q(-1) if (parity * pi) % 2 else Q(1)
            for j in range(dims[other]):
                pj = pair.parity(other, j)
                s_ij = Q(-1) if (parity * (pi + pj)) % 2 else Q(1)
                for k in range(dims[sigma]):
                    row_for: dict = {}

                    def add(l, col, val):
                        if col in pos:
                            cell = row_for.setdefault(l, {})
                            cell[pos[col]] = cell.get(pos[col], Q(0)) + val

                    for c, wc in pair.basis_triple(sigma, i, j, k).items():
                        for l in range(dims[sigma]):
                            add(l, (sigma, l, c), wc)
                    for r in range(dims[sigma]):
                        for l, c in pair.basis_triple(sigma, r, j, k).items():
                            add(l, (sigma, r, i), -c)
                        for l, c in pair.basis_triple(sigma, i, j, r).items():
                            add(l, (sigma, r, k), -s_ij * c)
                    for r in range(dims[other]):
                        for l, c in pair.basis_triple(sigma, i, r, k).items():
                            add(l, (other, r, j), -s_i * c)
                    rows.extend(v for v in row_for.values() if v)
    return _kernel_space(kernel_sparse(rows, len(cols)),
                         [s * dims[0] ** 2 + r * dims[s] + c for s, r, c in cols],
                         dims[0] ** 2 + dims[1] ** 2)


def str_w(V: SuperAlgebra) -> OperatorSpace:
    """Pairs (X, Y) satisfying the two U-operator structure identities.

    Identity 1: U_{X(a),b} + (-1)^{|X||a|} U_{a,X(b)}
                  = X U_{a,b} + (-1)^{|Y|(|a|+|b|)} U_{a,b} Y,
    identity 2 is the same with X and Y exchanged.
    """
    n = V.dim
    U = [[u_op(V, basis_vector(V, i), basis_vector(V, j)).matrix
          for j in range(n)] for i in range(n)]
    parts = {}
    for parity in (0, 1):
        cols = []
        for s in (0, 1):  # 0 -> X entries, 1 -> Y entries
            cols.extend((s, r, c) for r in range(n) for c in range(n)
                        if (V.parity(r) + V.parity(c)) % 2 == parity)
        pos = {src: idx for idx, src in enumerate(cols)}
        rows = []
        for first in (0, 1):  # which of X, Y is differentiated in the identity
            second = 1 - first
            for i in range(n):
                for j in range(n):
                    s_i = Q(-1) if (parity * V.parity(i)) % 2 else Q(1)
                    s_ij = Q(-1) if (parity * (V.parity(i) + V.parity(j))) % 2 else Q(1)
                    uij = U[i][j]
                    for l in range(n):
                        for m in range(n):
                            row: dict = {}

                            def add(col, val):
                                if val and col in pos:
                                    row[pos[col]] = row.get(pos[col], Q(0)) + val

                            for r in range(n):
                                add((first, r, i), U[r][j][l, m])
                                add((first, r, j), s_i * U[i][r][l, m])
                            for c in range(n):
                                add((first, l, c), -uij[c, m])
                                add((second, c, m), -s_ij * uij[l, c])
                            if row:
                                rows.append(row)
        parts[parity] = _kernel_space(kernel_sparse(rows, len(cols)),
                                      [s * n * n + r * n + c for s, r, c in cols], 2 * n * n)
    return OperatorSpace("str_w", parts[0], parts[1], (n, n), V)


def _integer_tables(*tables) -> tuple:
    """Sparse tables {key: {k: c}} scaled by one common denominator to integer
    tables.  Every row of a system assembled from them is scaled alike, so its
    kernel is unchanged."""
    den = lcm(*(int(c.denominator) for t in tables for w in t.values() for c in w.values()))
    return tuple({key: {k: int(c.numerator) * (den // int(c.denominator)) for k, c in w.items()}
                  for key, w in t.items()} for t in tables)


def leibniz_blocks(a: SuperAlgebra) -> dict:
    """The Leibniz system D(e_i e_j) = D(e_i) e_j + (-1)^{|D||i|} e_i D(e_j),
    assembled once on the integers and split into (shift, parity) blocks.

    Maps each (shift, parity) to (cols, rows): the operator entries (r, c)
    of the block in row-major order, and the distinct primitive integer rows
    over their positions.

    Equation (i, j, k) is the e_k coordinate, on the table scaled to integers.
    When the table is supercommutative or super-anticommutative the (j, i)
    equation is a consequence of the (i, j) one, so unordered pairs suffice;
    any other table gets every ordered pair.  On a homogeneous table every
    term of equation (i, j, k) is an entry of the block
    (deg k - deg i - deg j, |i| + |j| + |k|).
    """
    n = a.dim
    deg, par = [a.zdegree(i) for i in range(n)], a.parities
    for (i, j), w in a.table.items():
        for k in w:
            if par[k] != (par[i] + par[j]) % 2 or deg[k] != deg[i] + deg[j]:
                raise ValueError(f"inhomogeneous product: e_{i}*e_{j} hits e_{k}")
    table, = _integer_tables(a.table)
    # the symmetry checks are memoized; asking first for the one a's kind
    # was built with reuses the check make_algebra ran
    checks = (check_superanticommutative, check_supercommutative)
    symmetric = any(check(a) is None for check in (checks[::-1] if a.kind == "jordan" else checks))
    cols: dict = {}
    pos = {}  # (r, c) -> position in its block
    for r in range(n):
        for c in range(n):
            block = cols.setdefault((deg[r] - deg[c], (par[r] + par[c]) % 2), [])
            pos[r, c] = len(block)
            block.append((r, c))
    rows: dict = {key: [] for key in cols}
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            row_for: dict = {}  # k -> equation (i, j, k)

            def add(k, rc, val):
                row = row_for.setdefault(k, {})
                row[pos[rc]] = row.get(pos[rc], 0) + val

            for c, wc in table.get((i, j), {}).items():
                for k in range(n):
                    add(k, (k, c), wc)
            for r in range(n):
                for k, x in table.get((r, j), {}).items():
                    add(k, (r, i), -x)
                flip = (par[r] + par[j]) * par[i] % 2
                for k, x in table.get((i, r), {}).items():
                    add(k, (r, j), x if flip else -x)
            for k, row in row_for.items():
                rows[deg[k] - deg[i] - deg[j], (par[i] + par[j] + par[k]) % 2].append(row)
    return {key: (tuple(cols[key]), tuple(primitive_rows(rows[key]))) for key in sorted(cols)}


def verify_kernel(int_rows: list[dict], vecs: list[dict], ncols: int) -> bool:
    """Exact check that every sparse integer vector kills every row (numpy
    int64 when a conservative bound rules out overflow, else Python ints)."""
    import numpy as np

    if not vecs:
        return True
    max_r = max((max(abs(v) for v in r.values()) for r in int_rows if r), default=0)
    max_v = max(abs(x) for v in vecs for x in v.values())
    if max_r and max_r * max_v * ncols < 2 ** 62:
        V = np.zeros((ncols, len(vecs)), dtype=np.int64)
        for k, v in enumerate(vecs):
            for j, x in v.items():
                V[j, k] = x
        chunk = 4096
        for start in range(0, len(int_rows), chunk):
            block = int_rows[start:start + chunk]
            B = np.zeros((len(block), ncols), dtype=np.int64)
            for i, row in enumerate(block):
                for c, v in row.items():
                    B[i, c] = v
            if np.any(B @ V):
                return False
        return True
    for row in int_rows:  # big-int fallback, still exact
        for v in vecs:
            if sum(c * v.get(j, 0) for j, c in row.items()):
                return False
    return True


def integer_kernel(int_rows: list[dict], ncols: int) -> list[tuple]:
    """Canonical RREF kernel basis of sparse integer rows (col -> int), which
    callers pass already primitive and distinct, as `primitive_rows` and
    `primitive_row_blocks` leave them.

    The rows are eliminated over the integers.  The kernel is read off as one
    integer vector per free column f (lcm of the pivots involved at f,
    -r[f]*lcm/r[p] at each pivot column p), and the same elimination brings
    those vectors to the canonical RREF basis.  Certificate: that basis has one
    vector per free column and every vector kills every row exactly;
    rationals are formed only at the end.
    """
    store = exact._echelon(int_rows)
    pivots = sorted(store.items())
    vecs = []
    for f in range(ncols):
        if f in store:
            continue
        hits = [(p, r) for p, r in pivots if f in r]
        m = lcm(*(r[p] for p, r in hits))
        v = {f: m}
        for p, r in hits:
            v[p] = -r[f] * (m // r[p])
        vecs.append(v)
    basis = exact._echelon(vecs)
    certify(len(basis) == len(vecs) and verify_kernel(int_rows, list(basis.values()), ncols),
            "kernel verification failed: the basis needs one vector per free column, "
            "each killing every row")
    return list(exact.Subspace(ncols, [[r.get(c, 0) for c in range(ncols)]
                                       for r in basis.values()]).basis)


# ---------------------------------------------------------------------------
# the one-member reader of generator coordinates


class GeneratedSpan:
    """The span of a fixed generator list, eliminated once, that writes its
    members as combinations of the generators.

    Each generator g_i is held once, on the integers, as g_i = G_i / d_i
    with G_i an integer row (`_gens`) and d_i > 0 its denominator (`_dens`).
    One `_echelon` runs over the rows [G_i | d_i e_i], e_i at column
    ambient + k - 1 - i for k generators.  A row with a right-half pivot is
    a relation led by the last generator it involves, so the generators a
    left-to-right greedy scan keeps are those whose identity column is no
    pivot (`independent`).  A left-pivot row reads w = sum t_i g_i off its
    right half, and full RREF puts t on the independent generators only, so
    the coefficients over those are unique: `coordinates` reads them for a
    batch of members as integers over one denominator, and `express` for one
    member as rationals."""

    __slots__ = ("ambient", "count", "independent", "_gens", "_dens", "_store")

    def __init__(self, generators: Iterable[Sequence], ambient: int):
        self.ambient = ambient
        scaled = [_scaled(g, ambient) for g in generators]
        self._gens, self._dens = [g for g, _ in scaled], [d for _, d in scaled]
        self.count = len(self._gens)
        top = ambient + self.count - 1
        self._store = _echelon([row_primitive({**g, top - i: d})
                                for i, (g, d) in enumerate(zip(self._gens, self._dens))])
        self.independent = tuple(i for i in range(self.count)
                                 if top - i not in self._store)

    @property
    def dim(self) -> int:
        return len(self.independent)

    def _solve(self, vec: Sequence):
        """(used, m): vec = sum (-x / m) g_i over (i, x) in used, or None if
        vec is outside the span.

        Certified on the integers: vec = V / e, and the reduced row gives
        c_i = -x_i / m, so with L the lcm of e and the d_i of the generators
        used, sum (-x_i) (L / d_i) G_i must equal (L / e) m V."""
        v, e = _scaled(vec, self.ambient)
        # [v | 0 | 1], times e: the marker column keeps the scale the reduction applies
        mark = self.ambient + self.count
        row = _reduce(row_primitive({**v, mark: e}), self._store)
        if any(c < self.ambient for c in row):
            return None
        m = row.pop(mark)
        used = [(mark - 1 - c, x) for c, x in row.items()]
        scale = lcm(e, *(self._dens[i] for i, _ in used))
        got: dict = {}
        for i, x in used:
            f = -x * (scale // self._dens[i])
            for j, y in self._gens[i].items():
                got[j] = got.get(j, 0) + f * y
        f = scale // e * m
        certify({j: y for j, y in got.items() if y} == {j: f * y for j, y in v.items()},
                "solve verification failed: sum c_i g_i != v")
        return used, m

    def coordinates(self, vectors: Iterable[Sequence], message: str) -> tuple:
        """(C, den): vectors[r] = sum_i C[r, i] / den g_i, C an integer array
        over all the generators (0 at the dependent ones) and den > 0 the
        least common denominator; each row certified by recombination, and a
        vector outside the span raises CertificateError(message).  The row
        of (used, m) has the lowest terms -x_i / m, as the reduced row is
        primitive, so den is the lcm of the |m|."""
        import numpy as np
        solved = [self._solve(vec) for vec in vectors]
        certify(all(s is not None for s in solved), message)
        den = lcm(1, *(abs(m) for _, m in solved))
        C = [[0] * self.count for _ in solved]
        for row, (used, m) in zip(C, solved):
            for i, x in used:
                row[i] = -x * (den // m)
        top = max((abs(x) for row in C for x in row), default=0)
        return np.array(C, dtype=int_dtype(top)).reshape(len(C), self.count), den

    def express(self, vec: Sequence):
        """Coefficients over the generators reproducing vec, or None if vec is
        outside the span: the rationals of `_solve`."""
        solved = self._solve(vec)
        if solved is None:
            return None
        coeffs = [ZERO] * self.count
        for i, x in solved[0]:
            coeffs[i] = Q(-x, solved[1])
        return tuple(coeffs)
