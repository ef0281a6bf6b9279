"""Structure algebras of a Jordan superalgebra and of its doubled superpair.

Computes Der, Inn, istr = {L} + Inn, str = {L} + Der, the D-operator span
istr~, the superpair spaces Inn(V,V) and Der(V,V), and the weak structure
algebra str_w cut out by the two U-operator identities.  Everything is an
exact kernel or span computation over the rationals; operator spaces are kept
as canonical subspaces of flattened matrices, split by parity.

A superpair (`JordanPair`) is its two triple tensors, read-only integer
arrays with one denominator, as `tensor.triple_tensor` (`double`) and
`tensor.lie_triples` (the J functor) give them; every pair reader starts
from them, and no rational triple table is formed.

The Leibniz system of an algebra is assembled once, on the integers, and
split into (degree shift, parity) blocks (`leibniz_blocks`);
`derivation_kernel` and the derivation towers of tkk read it from there.
The pair derivations and str_w are the graded derivation rule of trilinear
tensors (the pair's two; the U operator, a signed transpose of the doubled
pair's, twice), and one integer assembler writes both.  Both systems are
numpy COO triplets broadcast from the nonzeros of the tensors, made
primitive, split into blocks and deduplicated by
`exact.primitive_row_blocks`, which proves its int64 bounds first (an entry
sums at most 3 constants in a Leibniz system, 4 in a derivation-rule
system).  The Fraction row builders and the Python Leibniz assembler these
replaced are test oracles in tests/oracle_linalg.py.

Bracket arithmetic on operators runs on integers: an `OperatorStack` holds
a batch of operators as integer arrays with one denominator, its `bracket`
forms every supercommutator in one batched product (`tensor.brackets`), and
`OperatorSpace.coordinates` reads a stack's coordinates off the pivots of
the canonical basis, certified by one recombination per parity.  Inn,
Inn(V,V), the doubled pair and the ideal check [Der(V,V), Inn(V,V)] are
built this way, and istr~ is read off `tensor.triple_tensor`; the Fraction
loops they replaced are test oracles in tests/oracle_tkk.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor
from .exact import (GeneratedSpan, IntRows, Q, Subspace, certify, integer_kernel,
                    primitive_row_blocks)
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

    @classmethod
    def from_flats(cls, flats, parities, shape) -> "OperatorStack":
        """Rational flattened operators, row-major, the V- block after the
        V+ block when paired (the vectors of an OperatorSpace)."""
        flats = list(flats)
        (ints,), den = tensor.encode(
            [{(b,): {j: x for j, x in enumerate(f) if x} for b, f in enumerate(flats)}],
            [(len(flats), sum(m * m for m in shape))])
        blocks, at = [], 0
        for m in shape:
            blocks.append(ints[:, at:at + m * m].reshape(len(flats), m, m))
            at += m * m
        return cls(tuple(blocks), parities, den)

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
    algebra: object = field(default=None, compare=False, repr=False)
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
                             self.even.sum(other.even), self.odd.sum(other.odd),
                             self.shape, self.algebra)

    def intersect(self, other: "OperatorSpace", label=None) -> "OperatorSpace":
        if self.shape != other.shape:
            raise ValueError("operator spaces live on different spaces")
        return OperatorSpace(label or f"{self.label}&{other.label}",
                             self.even.intersect(other.even),
                             self.odd.intersect(other.odd),
                             self.shape, self.algebra)

    @property
    @memoized
    def stack(self) -> OperatorStack:
        """The basis, even rows then odd, as an OperatorStack."""
        return OperatorStack.from_flats(self.even.basis + self.odd.basis,
                                        [0] * self.even.dim + [1] * self.odd.dim, self.shape)

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


def _space(label, flats_by_parity, shape, algebra=None) -> OperatorSpace:
    amb = sum(d * d for d in shape)
    return OperatorSpace(label,
                         Subspace(amb, flats_by_parity.get(0, ())),
                         Subspace(amb, flats_by_parity.get(1, ())),
                         shape, algebra)


# ---------------------------------------------------------------------------
# plain operator spaces


def l_stack(V: SuperAlgebra) -> OperatorStack:
    """The left multiplications L_{e_i} as an OperatorStack, read off the
    table: d L_{e_i}[r, c] = d (e_i e_c)_r."""
    t = V.int_table
    return OperatorStack((t.dense().transpose(0, 2, 1),), V.parities, t.d)


def _stack_space(label, ops: OperatorStack, shape, algebra=None) -> OperatorSpace:
    """The span of a stack; its integer rows span what the operators do."""
    flats: dict = {0: [], 1: []}
    for row, parity in zip(ops.flats().tolist(), ops.parities.tolist()):
        flats[parity].append(row)
    return _space(label, flats, shape, algebra)


@memoized
def l_space(V: SuperAlgebra) -> OperatorSpace:
    """Span of the left multiplications L_x."""
    return _stack_space("{L}", l_stack(V), (V.dim,), V)


@memoized
def inn_algebra(V: SuperAlgebra) -> OperatorSpace:
    """Inner derivations: the span of the [L_x, L_y]."""
    return _stack_space("Inn", l_stack(V).bracket(), (V.dim,), V)


def _runs(cost, budget: int = 2 ** 16):
    """Ranges [lo, hi) of consecutive first indices whose costs (triplets
    broadcast) sum to about budget, one index at least: the chunks of an
    assembly, which bound its transient arrays."""
    import numpy as np
    before = np.cumsum(np.r_[0, cost])
    lo = 0
    while lo < len(cost):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + budget, "right")) - 1)
        yield lo, hi
        lo = hi


def _triplets(terms) -> tuple:
    """(eq, col, val) of terms (eq, col, val, keep) of broadcastable arrays,
    each flattened where keep holds, concatenated."""
    import numpy as np
    parts = []
    for term in terms:
        *arrays, keep = np.broadcast_arrays(*term)
        parts.append([t[keep] for t in arrays])
    return tuple(np.concatenate(t) for t in zip(*parts))


@memoized
def leibniz_blocks(a: SuperAlgebra) -> dict:
    """The Leibniz system D(e_i e_j) = D(e_i) e_j + (-1)^{|D||i|} e_i D(e_j),
    assembled once on the integers and split into (shift, parity) blocks.

    Maps each (shift, parity) to (cols, rows): the operator entries (r, c)
    of the block in row-major order, and the distinct primitive integer rows
    over their positions, as `exact.IntRows`.

    Equation (i, j, k) is the e_k coordinate, on the table scaled to integers.
    When the table is supercommutative or super-anticommutative the (j, i)
    equation is a consequence of the (i, j) one, so unordered pairs suffice;
    any other table gets every ordered pair.  On a homogeneous table every
    term of equation (i, j, k) is an entry of the block
    (deg k - deg i - deg j, |i| + |j| + |k|).

    The three terms are COO triplets broadcast from the table's support, for
    a run of first indices i at a time (`_runs`), and
    `exact.primitive_row_blocks` sums, reduces, splits and deduplicates
    them; an entry sums at most three table constants.
    """
    import numpy as np
    n, t, ks = a.dim, a.int_table, np.arange(a.dim)
    I, J, K, C = t.i, t.j, t.k, t.value
    deg, p = (np.array(x, dtype=np.int64) for x in ([a.zdegree(i) for i in range(n)], a.parities))
    bad = np.flatnonzero((p[K] != (p[I] + p[J]) % 2) | (deg[K] != deg[I] + deg[J]))
    if len(bad):
        raise ValueError("inhomogeneous product: e_{}*e_{} hits e_{}".format(
            *(int(x[bad[0]]) for x in (I, J, K))))
    # the symmetry checks are memoized; asking first for the one a's kind
    # was built with reuses the check make_algebra ran
    checks = (check_superanticommutative, check_supercommutative)
    symmetric = any(check(a) is None for check in (checks[::-1] if a.kind == "jordan" else checks))
    # D[r, c] lies in block (deg r - deg c, |r| + |c|), numbered by its code 2 shift + parity
    codes, block_of = np.unique((2 * (deg[:, None] - deg) + (p[:, None] + p) % 2).ravel(),
                                return_inverse=True)
    flats = np.argsort(block_of, kind="stable")  # row-major within each block
    cut = np.searchsorted(block_of[flats], np.arange(len(codes) + 1))
    position_of = np.argsort(flats) - cut[block_of]

    def terms(lo, hi):
        """(eq, col, val, keep), broadcast, for the equations (i, j, k) with
        lo <= i < hi: eq = (i n + j) n + k, col = r n + c for D[r, c]."""
        first = (I >= lo) & (I < hi)
        # D(e_i e_j): (e_i e_j)_c D[k, c]
        i, j, c, x = (t[first & (I <= J) if symmetric else first] for t in (I, J, K, C))
        yield ((i * n + j) * n)[:, None] + ks, ks * n + c[:, None], x[:, None], True
        # -D(e_i) e_j: (e_r e_j)_k D[r, i]
        i = np.arange(lo, hi)
        yield ((i * n + J[:, None]) * n + K[:, None], I[:, None] * n + i, -C[:, None],
               i <= J[:, None] if symmetric else True)
        # -(-1)^{|D||i|} e_i D(e_j): (e_i e_r)_k D[r, j], |D| = |r| + |j|
        i, r, k, x = (t[first] for t in (I, J, K, C))
        flip = (p[r][:, None] + p) * p[i][:, None] % 2
        yield ((i[:, None] * n + ks) * n + k[:, None], r[:, None] * n + ks,
               np.where(flip, x[:, None], -x[:, None]), ks >= i[:, None] if symmetric else True)

    # equation (i, j, k) broadcasts n triplets per entry of e_i e_* (two
    # terms) and one per entry of the table
    chunks = (_triplets(terms(lo, hi))
              for lo, hi in _runs(2 * n * np.bincount(I, minlength=n) + len(I)))
    rows = primitive_row_blocks(chunks, 3, block_of, position_of)
    rc, cut = list(zip(*(x.tolist() for x in np.divmod(flats, n)))), cut.tolist()
    return {(code // 2, code % 2): (tuple(rc[cut[b]:cut[b + 1]]), rows[b])
            for b, code in enumerate(codes.tolist())}


def derivation_kernel(a: SuperAlgebra, parity: int, zshift=None) -> Subspace:
    """Leibniz kernel: operators of given parity (and degree shift, if set).

    Reads the (zshift, parity) block of `leibniz_blocks`; with zshift None it
    stacks every block of that parity into one system and eliminates that
    independently of the blocks.
    """
    import numpy as np
    n = a.dim
    blocks = [b for (s, p), b in leibniz_blocks(a).items()
              if p == parity and zshift in (None, s)]
    cols = sorted(rc for b_cols, _ in blocks for rc in b_cols)
    pos = {rc: idx for idx, rc in enumerate(cols)}
    rows = IntRows.concat(IntRows(r.lens, np.array([pos[rc] for rc in b_cols])[r.cols], r.vals)
                          for b_cols, r in blocks)
    return integer_kernel(rows, len(cols)).embedded([r * n + c for r, c in cols], n * n)


@memoized
def der_algebra(V: SuperAlgebra) -> OperatorSpace:
    """All superderivations of the product."""
    return OperatorSpace("Der", derivation_kernel(V, 0), derivation_kernel(V, 1),
                         (V.dim,), V)


@memoized
def istr_algebra(V: SuperAlgebra) -> OperatorSpace:
    return l_space(V).sum(inn_algebra(V), label="istr")


@memoized
def str_algebra(V: SuperAlgebra) -> OperatorSpace:
    return l_space(V).sum(der_algebra(V), label="str")


@memoized
def istr_tilde(V: SuperAlgebra) -> OperatorSpace:
    """Span of the operators D_{x,y} = 2 L_{xy} + 2 [L_x, L_y], read off
    `tensor.triple_tensor`: d**2 D_{e_i,e_j}[r, c] = T[i, j, c, r]."""
    import numpy as np
    n, p = V.dim, np.array(V.parities, dtype=np.int64)
    T, d = tensor.triple_tensor(V)
    ops = OperatorStack((T.transpose(0, 1, 3, 2).reshape(n * n, n, n),),
                        ((p[:, None] + p) % 2).reshape(-1), d * d)
    return _stack_space("istr~", ops, (n,), V)


def _derivation_rule_kernels(maps, parities) -> tuple:
    """The even and the odd operators (X_0, X_1), X_s acting on the space
    whose basis has the parities parities[s], satisfying the graded
    derivation rule

        X_out T(x1, x2, x3) = sum_s eps_s (-1)^{|X|(|x1| + ... + |x_{s-1}|)}
                                     T(..., X_{op_s} x_s, ...)

    of every trilinear table in maps, given as (T, out, (op_1, op_2, op_3),
    (eps_1, eps_2, eps_3)); T[i, j, k, l] is an integer multiple, one for
    all of T, of the e_l coordinate of T(e_i, e_j, e_k), and slot s takes
    its basis from the space of X_{op_s}.

    Equation (T, i, j, k, l) is the e_l coordinate (one T each, so T's scale
    leaves the kernel unchanged); its terms are COO triplets broadcast from
    the nonzeros of T, four at most to an entry, and
    `exact.primitive_row_blocks` splits them by the parity of X.  Each
    kernel comes back with X_s flattened row-major at offset s * dim_0^2.
    """
    import numpy as np
    dims = [len(p) for p in parities]
    p = [np.array(q, dtype=np.int64) for q in parities]
    offset, top = (0, dims[0] ** 2), max(dims)
    block_of = np.concatenate([(q[:, None] + q).reshape(-1) % 2 for q in p])
    position_of = np.zeros_like(block_of)
    for b in (0, 1):
        position_of[block_of == b] = np.arange(np.count_nonzero(block_of == b))

    def terms(m, table, lo, hi):
        """(eq, col, val, keep), broadcast, for the equations (T, i, j, k, l)
        of map m with lo <= i < hi."""
        _, out, ops, eps = maps[m]
        *key, l, x = table
        first = (key[0] >= lo) & (key[0] < hi)

        def eq(i, j, k, l):
            return (((m * top + i) * top + j) * top + k) * top + l

        def entries(at):  # the entries at a mask, broadcast against the range
            return [k[at][:, None] for k in key], l[at][:, None], x[at][:, None]

        # X_out T(e_i, e_j, e_k): X_out[l', l]
        slots, ls, xs = entries(first)
        a = np.arange(dims[out])
        yield eq(*slots, a), offset[out] + a * dims[out] + ls, xs, True
        for s, (op, e) in enumerate(zip(ops, eps)):  # T(..., X_op e_a, ...): X_op[key_s, a]
            slots, ls, xs = entries(first) if s else entries(slice(None))
            a = np.arange(lo, hi) if s == 0 else np.arange(dims[op])
            before = sum((p[ops[t]][slots[t]] for t in range(s)), np.zeros_like(ls))
            koszul = (p[op][slots[s]] + p[op][a]) * before % 2
            yield (eq(*slots[:s], a, *slots[s + 1:], ls), offset[op] + slots[s] * dims[op] + a,
                   np.where(koszul, e * xs, -e * xs), True)

    def chunks():
        for m, (T, out, ops, _) in enumerate(maps):
            at = np.nonzero(T)
            table = (*at, T[at])
            # equation (T, i, j, k, l) broadcasts a triplet per entry T(e_i, ...)
            # and output slot of X_out, X_{op_2} and X_{op_3}, one per entry of T
            width = dims[out] + dims[ops[1]] + dims[ops[2]]
            for lo, hi in _runs(np.bincount(table[0], minlength=dims[ops[0]]) * width
                                + len(table[-1])):
                yield _triplets(terms(m, table, lo, hi))

    rows = primitive_row_blocks(chunks(), 4, block_of, position_of)
    kernels = []
    for b in (0, 1):
        at = np.flatnonzero(block_of == b).tolist()
        kernels.append(integer_kernel(rows.get(b, IntRows.from_dicts(())), len(at))
                       .embedded(at, len(block_of)))
    return tuple(kernels)


# ---------------------------------------------------------------------------
# superpairs


@dataclass(frozen=True, eq=False)
class JordanPair:
    """Superpair (V+, V-) stored through its basis triple products.

    tensors[sigma][i, j, k, l] = den ({e_i, e_j, e_k}^sigma)_l, where i, k
    index V^sigma and j indexes V^(-sigma); sigma is 0 for + and 1 for -.
    Two integer arrays with one denominator; a pair given by rational triples
    {(i, j, k): {l: c}} is JordanPair(name, parities,
    *tensor.encode(triples, shapes)).  Immutable like SuperAlgebra: the
    arrays are read-only copies.
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

    def basis_triple(self, sigma: int, i: int, j: int, k: int) -> dict:
        """The nonzero coordinates {l: c} of {e_i, e_j, e_k}^sigma."""
        return {l: Q(x, self.den) for l, x in enumerate(self.tensors[sigma][i, j, k].tolist()) if x}

    @property
    def shape(self) -> tuple:
        return (self.dim(0), self.dim(1))


@memoized
def double(V: SuperAlgebra) -> JordanPair:
    """The doubled superpair (V, V), both tensors `tensor.triple_tensor`
    (d**2 times the algebra triple)."""
    T, d = tensor.triple_tensor(V)
    return JordanPair(f"({V.name},{V.name})", (V.parities, V.parities), (T, T), d * d)


def pair_d_stack(pair: JordanPair) -> OperatorStack:
    """The derivation pairs D_{e_i, e_u}, e_i in V+ and e_u in V-, in
    row-major order over (i, u): D {e_i, e_u, .}+ on V+ and the companion
    -(-1)^{|i||u|} {e_u, e_i, .}- on V-, read off the pair's tensors."""
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
                        + (-1)^{|D|(|x|+|y|)} {x, y, D_sigma z}."""
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    maps = [(pair.tensors[s], s, (s, 1 - s, s), (1, 1, 1)) for s in (0, 1)]
    return OperatorSpace("Der(V,V)", *_derivation_rule_kernels(maps, pair.parities), pair.shape)


@memoized
def check_pair_axioms(pair: JordanPair) -> Witness | None:
    """Outer symmetry and the 5-linear identity on all homogeneous basis tuples."""
    tables = pair.tensors
    for sigma in (0, 1):
        p, q = pair.parities[sigma], pair.parities[1 - sigma]
        at = tensor.outer_symmetry_defect(tables[sigma], p, q)
        if at is not None:
            return Witness((sigma,) + at, f"outer symmetry fails at {(sigma,) + at}")
        hit = tensor.five_linear_defect(tables[sigma], tables[1 - sigma], p, q)
        if hit is not None:
            return Witness((sigma,) + hit[1], f"5-linear identity fails at {(sigma,) + hit[1]}")
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
    return OperatorSpace("str_w", *_derivation_rule_kernels(maps, (par, par)), (V.dim, V.dim), V)


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
    x = GeneratedSpan(l_stack(V).flats().tolist(), V.dim ** 2).express(flat_op)
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
        parity = 0 if overlap.even.dim else 1
        w = overlap.part(parity).basis[0]
        x = _l_witness(V, w)
        where = ("Inn(V)" if inn.contains_stack(OperatorStack.from_flats([w], [parity], (n,)))
                 else "Der(V)")
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
    psi_img = _stack_space("psi(Inn(V,V))", OperatorStack(P.blocks[:1], P.parities, P.den),
                           (n,), V)
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
