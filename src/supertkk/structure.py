"""Structure algebras of a Jordan superalgebra and of its doubled superpair.

Computes Der, Inn, istr = {L} + Inn, str = {L} + Der, the D-operator span
istr~, the superpair spaces Inn(V,V) and Der(V,V), and the weak structure
algebra str_w cut out by the two U-operator identities.  Everything is an
exact kernel or span computation over the rationals, run on the integers;
operator spaces are kept as canonical subspaces of flattened matrices, split
by parity, each part its integer rows over one denominator
(`exact.Subspace`), and an `OperatorSpace.stack` is those rows as they are;
a stack is spanned from its integer flats (`_stack_space`).

A superpair (`JordanPair`) is its two triple tensors, read-only integer
arrays with one denominator, as `tensor.triple_tensor` (`double`) and
`tensor.lie_triples` (the J functor) give them; no rational triple table is
formed, and `double` is the one builder of an algebra's triple.

Der, Der(V,V) and str_w are kernels of one graded derivation rule,
X T(x_1, ..., x_r) = sum_s +-T(..., X x_s, ...), and one integer assembler
writes it for every table (`_rule_blocks`): numpy COO triplets written from
the tables' nonzeros, every map and slot of a run in one batch, made
primitive, split into blocks of operator entries and deduplicated by
`exact.primitive_row_blocks`, which proves its int64 bounds first (an entry
sums at most r + 1 constants).  Given a weight
class per basis vector, it writes only the operators' weight-zero entries.
The Leibniz system is its bilinear case, split into (degree shift, parity)
blocks: its weight-zero part (`leibniz_weight_zero`) is what the derivation
tower of tkk eliminates, and the whole system, assembled once per algebra
(`leibniz_blocks`), is what `derivation_kernel` reads.  The pair derivations and
str_w are its trilinear case, split by parity (the pair's two tensors; the
U operator, a signed transpose of the doubled pair's, twice).  One kernel
step (`_kernel`) eliminates the blocks of both parities a space needs at
once and splits the canonical basis by the parity of each pivot column.
`projects_onto` proves that (X, Y) -> X maps str_w(V) onto str(V).

Bracket arithmetic on operators runs on integers: an `OperatorStack` holds
a batch of operators as integer arrays with one denominator, its `bracket`
forms every supercommutator in one batched product (`tensor.brackets`), and
`OperatorSpace.coordinates` reads a stack's coordinates off the pivots of
the canonical basis, certified by one recombination per parity.  The
[L_a, L_b] are formed once per algebra (`l_brackets`), which Inn(V) spans,
and the D_{x,u} once per pair (`pair_d_stack`), which Inn(V,V), istr~ and
the Koecher middles read.  The Fraction loops these replaced are test
oracles in tests/oracle_linalg.py and tests/oracle_tkk.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import lcm

from . import tensor
from .exact import (GeneratedSpan, IntRows, Subspace, certify, concat_ranges, int_dtype,
                    integer_kernel, primitive_row_blocks)
from .superspace import (SuperAlgebra, Witness, check_superanticommutative,
                         check_supercommutative, memoized)


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """A batch of homogeneous operators as integer arrays, all scaled by den.

    blocks[0][t] is the matrix of operator t on V (on V+ when paired) and,
    when paired, blocks[1][t] its matrix on V-; parities[t] is its parity.
    """

    blocks: tuple
    parities: object  # int64 array; any sequence of ints is converted
    den: int

    def __post_init__(self):
        import numpy as np
        object.__setattr__(self, "parities", np.array(self.parities, dtype=np.int64).reshape(-1))

    def __len__(self) -> int:
        return len(self.parities)

    def flats(self):
        """The operators flattened as in an OperatorSpace, one row each."""
        import numpy as np
        return np.concatenate([b.reshape(len(b), b.shape[1] * b.shape[2]) for b in self.blocks],
                              axis=1)

    def bracket(self, other: "OperatorStack | None" = None) -> "OperatorStack":
        """The supercommutators [A_t, B_s] for every t and s in row-major
        order, blockwise and by one contraction per block
        (`tensor.brackets`); without other, the [A_t, A_s] with t <= s."""
        import numpy as np
        B = self if other is None else other
        k = len(self) * len(B)
        parities = ((self.parities[:, None] + B.parities[None]) % 2).reshape(k)
        blocks = [tensor.brackets(a, self.parities, b, B.parities).reshape((k,) + a.shape[1:])
                  for a, b in zip(self.blocks, B.blocks)]
        if other is None:
            t, s = np.triu_indices(len(self))
            keep = t * len(self) + s
            blocks, parities = [b[keep] for b in blocks], parities[keep]
        return OperatorStack(tuple(blocks), parities, self.den * B.den)


@dataclass(frozen=True)
class OperatorSpace:
    """Parity-split subspace of End(V), or of End(V+) x End(V-) when paired.

    shape is (n,) for endomorphism spaces and (d_plus, d_minus) for paired
    ones; vectors are flattened matrices, with the minus block appended after
    the plus block in the paired case.
    """

    label: str
    even: Subspace
    odd: Subspace
    shape: tuple
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def paired(self) -> bool:
        return len(self.shape) == 2

    def dims(self) -> tuple:
        return self.even.dim, self.odd.dim

    @property
    def dim(self) -> int:
        return self.even.dim + self.odd.dim

    def part(self, parity: int) -> Subspace:
        return self.odd if parity % 2 else self.even

    def contains_space(self, other: "OperatorSpace") -> bool:
        if self.shape != other.shape:
            raise ValueError("operator spaces live on different spaces")
        return self.contains_stack(other.stack)

    def sum(self, other: "OperatorSpace", label=None) -> "OperatorSpace":
        if self.shape != other.shape:
            raise ValueError("operator spaces live on different spaces")
        return OperatorSpace(label or f"{self.label}+{other.label}",
                             self.even.sum(other.even), self.odd.sum(other.odd), self.shape)

    def intersect(self, other: "OperatorSpace", label=None) -> "OperatorSpace":
        if self.shape != other.shape:
            raise ValueError("operator spaces live on different spaces")
        return OperatorSpace(label or f"{self.label}&{other.label}",
                             self.even.intersect(other.even),
                             self.odd.intersect(other.odd), self.shape)

    @property
    @memoized
    def stack(self) -> OperatorStack:
        """The basis, even rows then odd, as an OperatorStack: the two
        parts' integer rows over the lcm of their denominators, the V- block
        of each after its V+ block when paired."""
        import numpy as np
        den = lcm(self.even.den, self.odd.den)
        rows = [[x * (den // part.den) for x in row]
                for part in (self.even, self.odd) for row in part.rows]
        top = max(map(abs, chain.from_iterable(rows)), default=0)
        cut = np.cumsum([0] + [m * m for m in self.shape]).tolist()
        flats = np.array(rows, dtype=int_dtype(top)).reshape(len(rows), cut[-1])
        return OperatorStack(tuple(flats[:, lo:hi].reshape(len(rows), m, m)
                                   for lo, hi, m in zip(cut, cut[1:], self.shape)),
                             [0] * self.even.dim + [1] * self.odd.dim, den)

    def _read(self, ops: OperatorStack):
        """(C, inside): `tensor.pivot_coordinates` of each operator in the
        part of its parity, C[t] over the basis of `stack`."""
        import numpy as np
        X, basis = ops.flats(), self.stack
        B = basis.flats()
        C = np.zeros((len(ops), self.dim), dtype=X.dtype)
        inside = np.ones(len(ops), dtype=bool)
        for parity, at in ((0, 0), (1, self.even.dim)):
            rows, part = np.flatnonzero(ops.parities == parity), self.part(parity)
            if len(rows):
                C[rows, at:at + part.dim], inside[rows] = tensor.pivot_coordinates(
                    X[rows], part.pivots, B[at:at + part.dim], basis.den)
        return C, inside

    def coordinates(self, ops: OperatorStack):
        """Coordinates of a stack of operators over the basis of `stack`,
        an integer array [t, l] scaled like the stack (by ops.den); each part
        is certified by one recombination, and an operator outside the space
        raises CertificateError."""
        C, inside = self._read(ops)
        certify(inside.all(), f"operator does not lie in {self.label}")
        return C

    def contains_stack(self, ops: OperatorStack) -> bool:
        return bool(self._read(ops)[1].all())


# ---------------------------------------------------------------------------
# plain operator spaces


def l_stack(V: SuperAlgebra) -> OperatorStack:
    """The left multiplications L_{e_i} as an OperatorStack, read off the
    table: d L_{e_i}[r, c] = d (e_i e_c)_r."""
    t = V.int_table
    return OperatorStack((t.dense().transpose(0, 2, 1),), V.parities, t.d)


@memoized
def l_brackets(V: SuperAlgebra) -> OperatorStack:
    """The [L_a, L_b] of all n**2 pairs (a, b), in row-major order, at d**2,
    by one batched bracket (`tensor.brackets`): the one source of them, which
    Inn(V), the Jordan and operator identities, the Kantor relations, the
    Tits container and the unital equivalences read."""
    t, p = V.int_table, V.parities
    L = t.dense(2 * t.n, 2).transpose(0, 2, 1)  # in the dtype of the brackets' bound
    return OperatorStack((tensor.brackets(L, p, L, p).reshape(t.n * t.n, t.n, t.n),),
                         [a ^ b for a in p for b in p], t.d * t.d)


def _stack_space(label, ops: OperatorStack, shape) -> OperatorSpace:
    """The span of a stack, each part from its operators' integer flats."""
    flats = ops.flats()
    return OperatorSpace(label, *(Subspace.from_int_rows(flats.shape[1], IntRows.from_dense(
        flats[ops.parities == parity])) for parity in (0, 1)), shape)


@memoized
def l_space(V: SuperAlgebra) -> OperatorSpace:
    """Span of the left multiplications L_x."""
    return _stack_space("{L}", l_stack(V), (V.dim,))


@memoized
def inn_algebra(V: SuperAlgebra) -> OperatorSpace:
    """Inner derivations: the span of the [L_x, L_y] (`l_brackets`)."""
    return _stack_space("Inn", l_brackets(V), (V.dim,))


def _runs(cost, budget: int = 2 ** 16):
    """Ranges [lo, hi) of consecutive first indices whose costs (triplets
    broadcast) sum to about budget, one index at least: the chunks of an
    assembly, which bound its transient arrays."""
    import numpy as np
    before = np.append(0, cost.cumsum())
    lo = 0
    while lo < len(cost):
        hi = max(lo + 1, int(before.searchsorted(before[lo] + budget, "right")) - 1)
        yield lo, hi
        lo = hi


def _same_weight(weight):
    """members(at, lo, hi) -> (t, b): for each t, every b in [lo, hi) of the
    class weight[at[t]], in increasing order, t repeated once per b; lo and
    hi are ints or arrays over at.  weight numbers the classes 0, 1, ...;
    with one class, b runs over all of [lo, hi)."""
    import numpy as np
    n = len(weight)
    order = weight.argsort(kind="stable")
    key = weight[order] * n + order  # increasing: by class, then by index

    def members(at, lo, hi):
        start, stop = (key.searchsorted(weight[at] * n + x) for x in (lo, hi))
        lens = stop - start
        return np.arange(len(at)).repeat(lens), order[concat_ranges(start, lens)]
    return members


def _rule_blocks(maps, parities, codes, halve: bool, weights=None) -> dict:
    """The graded derivation rule

        X_out T(x_1, ..., x_r) = sum_s eps_s (-1)^{|X|(|x_1| + ... + |x_{s-1}|)}
                                        T(..., X_{op_s} x_s, ...)

    of each r-linear map (table, out, ops, eps) in maps, on the integers,
    for the operators supported on their weight-zero entries.
    table = ((k_1, ..., k_r), l, x) are COO arrays: T(e_{k_1}, ...) has x at
    e_l, x the constant times one integer for all of T; slot s takes its
    basis from the space of X_{op_s}.  X_o acts on the space whose basis has
    parities[o] and weight classes weights[o] (numbered 0, 1, ...; one class
    when weights is None); entry X_o[a, b] has weight zero when a and b
    share a class.  Those entries are the columns: X_o[a, b] is column
    offset_o + a dim_o + b, the X_o one after the other, and codes[c] names
    the block of column c.  halve keeps the equations with i_1 <= i_2 only,
    which loses nothing when T is supercommutative or super-anticommutative
    in its first two slots.

    Equation (m, i_1, ..., i_r, l) is the e_l coordinate of the rule on map
    m (one T each, so T's scale does not matter).  A term swaps one index
    of a nonzero for each index of its class: X_out[a, l] for the output,
    X_{op_s}[k_s, b] for slot s.  The terms of every map and slot of a run
    of first indices (`_runs`, over each map's first indices in turn) are
    one batch of flat arrays with one class lookup (`_same_weight`), and
    `exact.primitive_row_blocks` sums, reduces, splits and deduplicates
    each run; an entry sums at most r + 1 constants.  Returns {code: (cols,
    rows)}: the block's weight-zero columns in increasing order and its
    distinct primitive rows over their positions (`exact.IntRows`), in the
    order of the equations.
    """
    import numpy as np
    p = [np.array(q, dtype=np.int64) for q in parities]
    dims = [len(q) for q in p]
    w = [np.zeros(d, dtype=np.int64) for d in dims] if weights is None else weights
    top, offset = max(dims), np.array([0] + [d * d for d in dims]).cumsum()
    codes, block_of = np.unique(codes, return_inverse=True)
    live = np.concatenate([np.equal.outer(x, x).ravel() for x in w]).nonzero()[0]
    flats = live[block_of[live].argsort(kind="stable")]  # increasing within each block
    cut = block_of[flats].searchsorted(np.arange(len(codes) + 1))
    position_of = np.zeros(len(block_of), dtype=np.int64)
    position_of[flats] = np.arange(len(flats)) - cut[block_of[flats]]
    # the spaces' bases as one: basis vector b of space o is base[o] + b, its
    # class numbered apart from the classes of the other spaces
    base, par, dims = np.array([0] + dims).cumsum(), np.concatenate(p) == 1, np.array(dims)
    cls = np.concatenate([x + lo for x, lo in zip(w, base.tolist())])
    n, members = len(cls), _same_weight(cls)
    size = np.bincount(cls, minlength=n)[cls]
    # nonzero t of map M[t]: K[s, t] its index in slot s < r, K[r, t] in the
    # output, of the space S[s, M[t]]; odd[s, t] the parity of |x_1| + ... +
    # |x_{s-1}|, sign[s, M[t]] the term's sign but for it, E[t] the equation
    r = len(maps[0][2])
    M = np.arange(len(maps)).repeat([len(x) for (*_, x), *_ in maps])
    K = np.concatenate([np.array([*key, l], dtype=np.int64).reshape(r + 1, -1)
                        for (key, l, _), *_ in maps], axis=1)
    const = np.concatenate([x for (*_, x), *_ in maps])
    S = np.array([[*ops, out] for _, out, ops, _ in maps]).T
    sign = np.array([[*(-e for e in eps), 1] for *_, eps in maps]).T
    G = base[S[:, M]] + K
    odd = np.zeros(K.shape, dtype=bool)
    odd[1:r] = par[G[:r - 1]].cumsum(axis=0) % 2 == 1
    E, power = M, top ** np.arange(r, -1, -1)
    for k in K:
        E = E * top + k
    # the first indices of map m are the positions start[m] ...; equation
    # (m, i_1, ...) takes a triplet per entry of T(e_{i_1}, ...) and index of
    # its class for X_out and for each X_{op_s} but the first, and one per
    # entry of T whose first index shares the class of i_1
    first = np.array([ops[0] for _, _, ops, _ in maps])
    start = np.append(0, dims[first].cumsum())
    first_at = start[M] + K[0]
    m_of = np.arange(len(maps)).repeat(dims[first])
    class_of = cls[base[first][m_of] + np.arange(start[-1]) - start[m_of]]
    cost = (np.bincount(first_at, size[G[r]] + size[G[1:r]].sum(0), start[-1]).astype(np.int64)
            + np.bincount(M * n + cls[G[0]], minlength=len(maps) * n)[m_of * n + class_of])
    del G

    def batch(lo, hi):
        """(eq, col, val) of the run [lo, hi): slot 0 of each entry of a map
        the run meets against the b of the run in its class, and the other
        slots and the output of the entries with i_1 in the run against
        their classes.  A function, so that none of its arrays outlives it."""
        t = ((first_at >= lo) & (first_at < hi)).nonzero()[0]
        lo_b, hi_b = (base[first] + np.minimum(np.maximum(x - start[:-1], 0), dims[first])
                      for x in (lo, hi))
        t0, tr = (lo_b < hi_b)[M].nonzero()[0], t[K[0, t] <= K[1, t]] if halve else t
        ts = np.concatenate([t0, *[t] * (r - 1), tr])
        ss = np.arange(r + 1).repeat([len(t0)] + [len(t)] * (r - 1) + [len(tr)])
        m = len(ts) - len(t0)
        b_lo = np.concatenate([lo_b[M[t0]], np.zeros(m, dtype=int)])
        b_hi = np.concatenate([hi_b[M[t0]], np.full(m, n)])
        del t, t0, tr
        # per request, read before the expansion so that the request arrays
        # are freed first: the equation and column with the swapped index at
        # 0 and their steps per b, the bounds of b when halved, and the value
        # with its Koszul sign (-1)^{(|k| + |b|) odd} but for |b|
        k, o, out, flip, e = K[ss, ts], S[ss, M[ts]], ss == r, odd[ss, ts], sign[ss, M[ts]]
        shift = base[o]
        g = shift + k
        eq0, col0 = E[ts] - k * power[ss], offset[o] + np.where(out, k, k * dims[o])
        step_eq, step_col = power[ss], np.where(out, dims[o], 1)
        val0 = const[ts] * np.where(par[g] & flip, -e, e)
        if halve:  # i_1 <= i_2: b <= k_2 in slot 0, k_1 <= b in slot 1
            b_min, b_max = np.where(ss == 1, K[0, ts], 0), np.where(ss == 0, K[1, ts], top)
        del ts, ss, k, o, out, e
        rep, at = members(g, b_lo, b_hi)
        del g, b_lo, b_hi
        odd_b = par[at]
        at -= shift[rep]  # b's index in the space of k
        if halve:
            keep = (at >= b_min[rep]) & (at <= b_max[rep])
            rep, at, odd_b = rep[keep], at[keep], odd_b[keep]
        # each triplet array is made in place, to hold few at once
        val = val0[rep]
        np.negative(val, out=val, where=odd_b & flip[rep])
        del odd_b
        eq, col = step_eq[rep], step_col[rep]
        eq *= at
        col *= at
        del at
        eq += eq0[rep]
        col += col0[rep]
        return eq, col, val

    rows = primitive_row_blocks((batch(lo, hi) for lo, hi in _runs(cost)), r + 1, block_of,
                                position_of)
    cut = cut.tolist()
    return {code: (flats[cut[b]:cut[b + 1]], rows[b]) for b, code in enumerate(codes.tolist())}


def _kernel(blocks, ncols: int) -> tuple:
    """The kernels (even, odd) of blocks (parity, cols, rows), rows over the
    positions of the flat columns cols, in one certified elimination of the
    joined system, its canonical basis split by the parity of the block of
    each pivot column and scattered among ncols columns.  The blocks share no
    column, so each part is the kernel of its parity's blocks."""
    import numpy as np
    cols = np.concatenate([np.zeros(0, dtype=np.int64)] + [np.asarray(c, dtype=np.int64)
                                                           for _, c, _ in blocks])
    order = np.argsort(cols)
    parity = np.repeat([q for q, _, _ in blocks], [len(c) for _, c, _ in blocks])[order]
    cols = cols[order]
    rows = IntRows.concat(IntRows(r.lens, np.searchsorted(cols, c)[r.cols], r.vals)
                          for _, c, r in blocks)
    return tuple(part.embedded(cols.tolist(), ncols)
                 for part in integer_kernel(rows, len(cols)).split(parity.tolist()))


def leibniz_weight_zero(a: SuperAlgebra, weight) -> dict:
    """The Leibniz system D(e_i e_j) = D(e_i) e_j + (-1)^{|D||i|} e_i D(e_j)
    for the D supported on the entries D[r, c] with weight[r] == weight[c]
    (weight numbers classes of basis vectors 0, 1, ...): the derivation rule
    of the table (`_rule_blocks`), split into (shift, parity) blocks.

    Maps each (shift, parity) to (cols, rows): the flat indices r n + c of
    the block's weight-zero entries in increasing order, and the distinct
    primitive integer rows over their positions, as `exact.IntRows`.

    Equation (i, j, k) is the e_k coordinate, on the table scaled to integers.
    When the table is supercommutative or super-anticommutative the (j, i)
    equation is a consequence of the (i, j) one, so unordered pairs suffice;
    any other table gets every ordered pair.  On a homogeneous table every
    term of equation (i, j, k) is an entry of the block
    (deg k - deg i - deg j, |i| + |j| + |k|).
    """
    import numpy as np
    n, t = a.dim, a.int_table
    deg, p = (np.array(x, dtype=np.int64) for x in ([a.zdegree(i) for i in range(n)], a.parities))
    bad = ((p[t.k] != (p[t.i] + p[t.j]) % 2) | (deg[t.k] != deg[t.i] + deg[t.j])).nonzero()[0]
    if len(bad):
        raise ValueError("inhomogeneous product: e_{}*e_{} hits e_{}".format(
            *(int(x[bad[0]]) for x in (t.i, t.j, t.k))))
    # the symmetry checks are memoized; asking first for the one a's kind
    # was built with reuses the check make_algebra ran
    checks = (check_superanticommutative, check_supercommutative)
    symmetric = any(check(a) is None for check in (checks[::-1] if a.kind == "jordan" else checks))
    # D[r, c] lies in block (deg r - deg c, |r| + |c|), numbered by its code 2 shift + parity
    codes = (2 * (deg[:, None] - deg) + (p[:, None] + p) % 2).ravel()
    blocks = _rule_blocks([(((t.i, t.j), t.k, t.value), 0, (0, 0), (1, 1))], (p,), codes,
                          symmetric, (np.asarray(weight, dtype=np.int64),))
    return {(code // 2, code % 2): block for code, block in blocks.items()}


@memoized
def leibniz_blocks(a: SuperAlgebra) -> dict:
    """The whole Leibniz system: `leibniz_weight_zero` with one weight class,
    each block's columns the flat indices r n + c of its operator entries."""
    import numpy as np
    return leibniz_weight_zero(a, np.zeros(a.dim, dtype=np.int64))


def derivation_kernel(a: SuperAlgebra, parity: int, zshift=None) -> Subspace:
    """Leibniz kernel: operators of given parity (and degree shift, if set).

    Reads the (zshift, parity) block of `leibniz_blocks`; with zshift None it
    joins every block of that parity into one system and eliminates that
    independently of the blocks.
    """
    return _kernel([(q, cols, rows) for (s, q), (cols, rows) in leibniz_blocks(a).items()
                    if q == parity and zshift in (None, s)], a.dim ** 2)[parity]


def derivation_kernels(a: SuperAlgebra) -> tuple:
    """(even, odd): all superderivations of a, in one elimination of the
    whole Leibniz system (`_kernel`)."""
    return _kernel([(q, cols, rows) for (_, q), (cols, rows) in leibniz_blocks(a).items()],
                   a.dim ** 2)


@memoized
def der_algebra(V: SuperAlgebra) -> OperatorSpace:
    """All superderivations of the product (`derivation_kernels`)."""
    return OperatorSpace("Der", *derivation_kernels(V), (V.dim,))


@memoized
def istr_algebra(V: SuperAlgebra) -> OperatorSpace:
    return l_space(V).sum(inn_algebra(V), label="istr")


@memoized
def str_algebra(V: SuperAlgebra) -> OperatorSpace:
    return l_space(V).sum(der_algebra(V), label="str")


@memoized
def istr_tilde(V: SuperAlgebra) -> OperatorSpace:
    """Span of the operators D_{x,y} = 2 L_{xy} + 2 [L_x, L_y]: the V+ block
    of the doubled pair's `pair_d_stack`, which Inn(V,V) and Ko read too."""
    ds = pair_d_stack(double(V))
    return _stack_space("istr~", OperatorStack(ds.blocks[:1], ds.parities, ds.den), (V.dim,))


def _rule_space(label, maps, parities, shape) -> OperatorSpace:
    """The operators (X_0, X_1), X_o on the space whose basis has the
    parities parities[o], satisfying the derivation rule (`_rule_blocks`) of
    every map in maps, given as (T, out, ops, eps) with T a dense integer
    tensor T[i, j, k, l]: one block per parity of X and one kernel of both
    (`_kernel`), X_0 and X_1 flattened row-major one after the other."""
    import numpy as np
    rules = []
    for T, *rule in maps:
        at = np.nonzero(T)
        rules.append(((at[:-1], at[-1], T[at]), *rule))
    codes = np.concatenate([np.add.outer(q, q).ravel() % 2 for q in map(np.array, parities)])
    blocks = _rule_blocks(rules, parities, codes, False)
    return OperatorSpace(label, *_kernel([(b, *block) for b, block in blocks.items()],
                                         len(codes)), shape)


# ---------------------------------------------------------------------------
# superpairs


@dataclass(frozen=True, eq=False)
class JordanPair:
    """Superpair (V+, V-) stored through its basis triple products.

    tensors[sigma][i, j, k, l] = den ({e_i, e_j, e_k}^sigma)_l, where i, k
    index V^sigma and j indexes V^(-sigma); sigma is 0 for + and 1 for -.
    Two integer arrays with one denominator, scaled by the caller (the
    tests write pairs given by rational triples with
    tests/oracle_tables.encode).  Immutable like SuperAlgebra: the arrays
    are read-only copies.
    """

    name: str
    parities: tuple  # (parities of V+, parities of V-)
    tensors: tuple   # (T+, T-)
    den: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        import numpy as np
        dp, dm = map(len, self.parities)
        tensors = tuple(np.array(t) for t in self.tensors)
        if [t.shape for t in tensors] != [(dp, dm, dp, dp), (dm, dp, dm, dm)]:
            raise ValueError(f"triple tensors do not fit the dims {(dp, dm)}")
        for t in tensors:
            t.flags.writeable = False
        object.__setattr__(self, "tensors", tensors)

    def dim(self, sigma: int) -> int:
        return len(self.parities[sigma])

    def parity(self, sigma: int, i: int) -> int:
        return self.parities[sigma][i]

    @property
    def shape(self) -> tuple:
        return (self.dim(0), self.dim(1))

    @property
    def equal_halves(self) -> bool:
        """Whether V+ and V- have one parity vector and one triple tensor."""
        return (tuple(self.parities[0]) == tuple(self.parities[1])
                and bool((self.tensors[0] == self.tensors[1]).all()))


@memoized
def double(V: SuperAlgebra) -> JordanPair:
    """The doubled superpair (V, V), both tensors `tensor.triple_tensor`
    (d**2 times the algebra triple)."""
    T, d = tensor.triple_tensor(V)
    return JordanPair(f"({V.name},{V.name})", (V.parities, V.parities), (T, T), d * d)


@memoized
def pair_d_stack(pair: JordanPair) -> OperatorStack:
    """The derivation pairs D_{e_i, e_u}, e_i in V+ and e_u in V-, in
    row-major order over (i, u): D {e_i, e_u, .}+ on V+ and the companion
    -(-1)^{|i||u|} {e_u, e_i, .}- on V-, read off the pair's tensors.  The
    one D_{x,u} stack: Inn(V,V), both Koecher middles and istr~ read it,
    memoized on the pair."""
    import numpy as np
    dp, dm = pair.shape
    T0, T1 = pair.tensors
    pp, pm = (np.array(p, dtype=np.int64) for p in pair.parities)
    odd = np.outer(pp, pm) % 2  # the companion's sign is 2 odd - 1
    plus = T0.transpose(0, 1, 3, 2).reshape(dp * dm, dp, dp)
    minus = ((2 * odd - 1)[:, :, None, None] * T1.transpose(1, 0, 3, 2)).reshape(dp * dm, dm, dm)
    return OperatorStack((plus, minus), ((pp[:, None] + pm[None]) % 2).reshape(-1), pair.den)


@memoized
def pair_inn(v) -> OperatorSpace:
    """Inner derivations of the pair: the span of the (D_{x,y}, companion).

    Accepts a Jordan superalgebra (meaning its doubled pair) or a JordanPair.
    """
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    return _stack_space("Inn(V,V)", pair_d_stack(pair), pair.shape)


@memoized
def pair_der(v) -> OperatorSpace:
    """All superderivations of the pair (of the doubled pair for an algebra):
    the pairs (D+, D-) satisfying the derivation rule for both triples,
    D_sigma {x, y, z} = {D_sigma x, y, z} + (-1)^{|D||x|} {x, D_-sigma y, z}
                        + (-1)^{|D|(|x|+|y|)} {x, y, D_sigma z},
    one kernel of the two coupled maps (`_rule_space`).

    A pair with equal halves (`JordanPair.equal_halves`, as every `double`)
    is solved on its swap halves: (D+, D-) -> (D-, D+) preserves Der(V,V),
    so it is {(A, A)} + {(B, -B)}; the sum and the difference of the sigma
    = +- rules are the rules of A and of B, B's middle slot negated, and
    the sigma = - equations only repeat the others up to sign.  That
    system is block diagonal, so each canonical row [A | B] lies in one
    half; it is mapped to [A + B | A - B] and spanned again."""
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    if not pair.equal_halves:
        maps = [(pair.tensors[s], s, (s, 1 - s, s), (1, 1, 1)) for s in (0, 1)]
        return _rule_space("Der(V,V)", maps, pair.parities, pair.shape)
    import numpy as np
    T, m = pair.tensors[0], pair.dim(0) ** 2
    halves = _rule_space("Der(V,V)", [(T, 0, (0, 0, 0), (1, 1, 1)), (T, 1, (1, 1, 1), (1, -1, 1))],
                         pair.parities, pair.shape)
    parts = []
    for part in (halves.even, halves.odd):
        top = max(map(abs, chain(*part.rows)), default=0)
        R = np.array(part.rows, dtype=int_dtype(2 * top)).reshape(-1, 2 * m)
        A, B = R[:, :m], R[:, m:]  # [A | B] -> [A + B | A - B]
        parts.append(Subspace.from_int_rows(2 * m, IntRows.from_dense(np.hstack([A + B, A - B]))))
    return OperatorSpace("Der(V,V)", *parts, pair.shape)


@memoized
def check_pair_axioms(pair: JordanPair) -> Witness | None:
    """Outer symmetry and the 5-linear identity on all homogeneous basis
    tuples; equal halves (one tensor, one parity vector) are scanned once."""
    tables = pair.tensors
    for sigma in (0,) if pair.equal_halves else (0, 1):
        p, q = pair.parities[sigma], pair.parities[1 - sigma]
        at = tensor.outer_symmetry_defect(tables[sigma], p, q)
        if at is not None:
            return Witness((sigma,) + at, f"outer symmetry fails at {(sigma,) + at}")
        hit = tensor.five_linear_defect(tables[sigma], tables[1 - sigma], p, q)
        if hit is not None:
            return Witness((sigma,) + hit, f"5-linear identity fails at {(sigma,) + hit}")
    return None


# ---------------------------------------------------------------------------
# the weak structure algebra


@memoized
def str_w(V: SuperAlgebra) -> OperatorSpace:
    """Pairs (X, Y) satisfying the two U-operator structure identities.

    Identity 1: U_{X(a),b} + (-1)^{|X||a|} U_{a,X(b)}
                  = X U_{a,b} + (-1)^{|Y|(|a|+|b|)} U_{a,b} Y,
    identity 2 is the same with X and Y exchanged.  Applied to z, identity 1
    is the derivation rule of U(a, b, z) = U_{a,b} z with X on the output and
    the first two slots and Y, with sign -1, on the third; U is one signed
    transpose of the doubled pair's tensor, U(a, b, z) = (-1)^{|b||z|} T[a, z, b].
    """
    import numpy as np
    par = V.parities
    U = ((-1) ** np.outer(par, par))[:, :, None] * double(V).tensors[0].transpose(0, 2, 1, 3)
    maps = [(U, f, (f, f, 1 - f), (1, 1, -1)) for f in (0, 1)]
    return _rule_space("str_w", maps, (par, par), (V.dim, V.dim))


def projects_onto(pairs: OperatorSpace, target: OperatorSpace) -> bool:
    """Whether pi: (X, Y) -> X maps the paired space pairs onto target, a
    space of operators on V+: injective (the X blocks of each part's basis
    are independent), into target (one certified read) and, by equal dims,
    onto.  It holds for str_w(V) and str(V) of a unital V."""
    if target.shape != pairs.shape[:1]:
        raise ValueError(f"target shape {target.shape} is not that of V+ {pairs.shape[:1]}")
    S = pairs.stack
    X = OperatorStack(S.blocks[:1], S.parities, S.den)
    return (_stack_space("pi", X, target.shape).dims() == pairs.dims() == target.dims()
            and target.contains_stack(X))


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class CheckResult:
    """One verification line.

    kind "check" is a mathematical invariant that must hold; kind "note"
    records a contingent observation (a hypothesis holding or failing, a sum
    being direct or not) and never counts against an exit code.
    """

    name: str
    passed: bool
    detail: str
    kind: str = "check"

    def __str__(self):
        if self.kind == "note":
            return f"{self.name}: note ({self.detail})"
        flag = "ok" if self.passed else "FAIL"
        return f"{self.name}: {flag} ({self.detail})"


def _format_element(v) -> str:
    terms = []
    for i, c in enumerate(v):
        if not c:
            continue
        coeff = "" if c == 1 else ("-" if c == -1 else f"{c} ")
        terms.append(f"{coeff}e_{i + 1}")
    return " + ".join(terms) if terms else "0"


def _l_witness(V: SuperAlgebra, flat_op):
    """Recover x with L_x proportional to the given flattened operator: its
    coordinates over the flats of `l_stack`, whose common scale the
    normalisation divides out."""
    x = GeneratedSpan(l_stack(V).flats(), V.dim ** 2).express(flat_op)
    certify(x is not None, "operator claimed to be a left multiplication is not")
    lead = next((c for c in x if c), None)
    return tuple(c / lead for c in x) if lead else x


def structure_summary(V: SuperAlgebra) -> dict:
    """All structure spaces keyed by their conventional names."""
    return {
        "Der": der_algebra(V),
        "Inn": inn_algebra(V),
        "str": str_algebra(V),
        "istr": istr_algebra(V),
        "istr~": istr_tilde(V),
        "str_w": str_w(V),
        "pair_der": pair_der(V),
        "pair_inn": pair_inn(V),
    }


def inclusion_report(V: SuperAlgebra) -> list:
    """Inclusion and embedding facts relating the structure spaces."""
    if V.kind != "jordan":
        raise ValueError("inclusion_report expects a Jordan superalgebra")
    n = V.dim
    ls = l_space(V)
    inn = inn_algebra(V)
    der = der_algebra(V)
    istr = istr_algebra(V)
    strv = str_algebra(V)
    itld = istr_tilde(V)
    pinn = pair_inn(V)
    pder = pair_der(V)
    sw = str_w(V)
    results = []

    results.append(CheckResult(
        "inn_in_der", der.contains_space(inn),
        f"Inn dims {inn.dims()} inside Der dims {der.dims()}"))
    results.append(CheckResult(
        "istr_in_str", strv.contains_space(istr),
        f"istr dims {istr.dims()} inside str dims {strv.dims()}"))

    overlap = ls.intersect(der)
    if overlap.dim == 0:
        results.append(CheckResult(
            "chain_hypothesis", True, "no nonzero L_x is a derivation", "note"))
    else:
        # the first basis operator of the first nonzero part
        S = overlap.stack
        x = _l_witness(V, S.flats()[0])
        where = ("Inn(V)" if inn.contains_stack(OperatorStack((S.blocks[0][:1],), S.parities[:1],
                                                               S.den)) else "Der(V)")
        results.append(CheckResult(
            "chain_hypothesis", False,
            f"chain hypothesis fails: L_{{{_format_element(x)}}} in {where}", "note"))

    # the Kantor middle uses istr as a subspace; flag when {L} + Inn is not direct
    direct = ls.dim + inn.dim == istr.dim
    results.append(CheckResult(
        "istr_sum_direct", direct,
        f"dim {{L}} + dim Inn = {ls.dim + inn.dim} vs dim istr = {istr.dim}", "note"))

    # operator pairs, each family one stack tested by one certified read
    L, D, W = l_stack(V), der.stack, inn.stack
    results.append(CheckResult(
        "lx_minus_lx_in_pair_der",
        pder.contains_stack(OperatorStack(L.blocks + (-L.blocks[0],), L.parities, L.den)),
        "(L_x, -L_x) is a pair derivation"))
    results.append(CheckResult(
        "diag_der_in_pair_der",
        pder.contains_stack(OperatorStack(D.blocks * 2, D.parities, D.den)),
        "(D, D) is a pair derivation"))
    results.append(CheckResult(
        "diag_inn_in_pair_inn",
        pinn.contains_stack(OperatorStack(W.blocks * 2, W.parities, W.den)),
        "([L_x,L_y], [L_x,L_y]) lies in Inn(V,V)"))

    # psi forgets the second component: Inn(V,V) -> istr~
    P = pinn.stack
    psi_img = _stack_space("psi(Inn(V,V))", OperatorStack(P.blocks[:1], P.parities, P.den), (n,))
    results.append(CheckResult(
        "psi_onto_istr_tilde",
        psi_img.even == itld.even and psi_img.odd == itld.odd,
        f"psi image dims {psi_img.dims()} vs istr~ dims {itld.dims()}"))
    results.append(CheckResult(
        "psi_injective", pinn.dim == itld.dim,
        f"Inn(V,V) dim {pinn.dim} vs istr~ dim {itld.dim}", "note"))

    results.append(CheckResult(
        "pair_inn_ideal", pinn.contains_stack(pder.stack.bracket(P)),
        "[Der(V,V), Inn(V,V)] lies in Inn(V,V)"))

    X, Y = sw.stack.blocks
    results.append(CheckResult(
        "str_w_swap_in_pair_der",
        pder.contains_stack(OperatorStack((X, -Y), sw.stack.parities, sw.stack.den)),
        "(X, Y) -> (X, -Y) carries str_w into Der(V,V)"))
    results.append(CheckResult(
        "str_w_matches_pair_der", sw.dims() == pder.dims(),
        f"str_w dims {sw.dims()} vs Der(V,V) dims {pder.dims()}"))

    return results
