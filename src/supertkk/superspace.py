"""Structure-constant representation of Z2-graded (optionally Z-graded)
algebras, with the generic identity checkers shared by the Jordan and Lie
layers.

Vectors are coordinate tuples in a fixed ordered basis; every basis coordinate
carries a parity (and optionally an integer degree), and structure constants
are required to be homogeneous with respect to both.  Operators on these
spaces have no class here: left multiplications, their supercommutators and
operator spaces are integer stacks in supertkk.structure (`l_stack`,
`OperatorStack`).

An algebra keeps its constants once: the sorted nonzero integer entries
(i, j, k, value) over one least common denominator d.  Every build goes
through `integer_algebra`, the one check of range, repetition and
homogeneity, which takes its entries in one of two forms.  Tuples are
checked in a pure-Python loop, and the rational view `table` and the arrays
of `int_table` are made from them on first use; the Jordan catalog,
`make_algebra` and the sl2 of the Tits construction build this way, so a
Jordan algebra is built and saved without numpy, and its
supercommutativity compares each entry with its mirror in Python.  Four
integer arrays (i, j, k, value), which the loader, the TKK constructions,
`subalgebra`, `quotient_algebra` and the Lie catalog hand in, are checked
by array passes and kept as the algebra's `tensor.IntTable`, with the
entry tuples formed only if a reader asks for them; the mirror check of
such a table is one `searchsorted` of the mirror keys.  Super-Jacobi,
which a Lie build checks, runs on the integer table.

`subalgebra` and `quotient_algebra` read a subspace's integer rows over
its denominator and join them with the table's nonzeros (Gustavson's
row-wise sparse product), folded by `exact.sum_by_key`; a product lies in
the subspace iff its integer residue is zero (`_residues`), which
certifies the coordinates they read off the pivot columns.  Their arrays
follow the nonzeros (no slot per product and coordinate), and no rational
is formed.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from math import gcd, lcm
from types import MappingProxyType
from typing import Sequence

from supertkk import tensor
from supertkk.exact import (IntRows, Q, Subspace, ZERO, certify, int_dtype, integer_kernel,
                            primitive_row_blocks, sum_by_key)


@dataclass
class Witness:
    """First failing instance of an identity check."""
    indices: tuple
    message: str

    def __str__(self):
        return self.message


def memoized(fn):
    """Cache fn(obj, ...) in obj's memo slot, keyed by the arguments with their
    defaults filled in, so f(V) and f(V, x=<default>) share one entry (f(V)
    alone takes that key without binding).  The memo lives and dies with
    obj, which is immutable, so a result never goes stale and never serves
    another object."""
    sig = inspect.signature(fn)
    rest = list(sig.parameters.values())[1:]
    alone = None if any(p.default is p.empty for p in rest) else (fn, *(p.default for p in rest))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if alone and len(args) == 1 and not kwargs:
            memo, key = args[0]._memo, alone
        else:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            obj, *given = bound.arguments.values()
            memo, key = obj._memo, (fn, *given)
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return wrapper


class SuperAlgebra:
    """A finite-dimensional algebra given by exact structure constants:
    entries are the sorted nonzero (i, j, k, value), b_i * b_j = sum
    value / d b_k, over the least common denominator d.  kind is "jordan",
    "lie" or "plain".  The constructor stores its arguments unchecked;
    `integer_algebra` and `make_algebra` check them.  entries may be given
    as tuples or as a `tensor.IntTable` (over d), which is then kept as
    `int_table`.  Immutable: attributes cannot be set, and the rational
    `table` is a read-only view."""

    __slots__ = ("name", "parities", "zdegrees", "_entries", "_int_table", "d", "kind",
                 "metadata", "_memo", "__weakref__")

    def __init__(self, name, parities, entries, d=1, zdegrees=None, kind="plain",
                 metadata=None):
        init = functools.partial(object.__setattr__, self)
        held = isinstance(entries, tensor.IntTable)
        init("name", name)
        init("parities", tuple(int(p) % 2 for p in parities))
        init("zdegrees", tuple(int(z) for z in zdegrees) if zdegrees is not None else None)
        init("_entries", None if held else tuple(entries))
        init("_int_table", entries if held else None)
        init("d", d)
        init("kind", kind)
        init("metadata", MappingProxyType(dict(metadata or {})))
        init("_memo", {})

    def __setattr__(self, attr, value=None):
        raise AttributeError(f"SuperAlgebra is immutable: cannot change {attr!r}")

    __delattr__ = __setattr__

    @property
    def dim(self) -> int:
        return len(self.parities)

    def parity(self, i: int) -> int:
        return self.parities[i]

    def zdegree(self, i: int) -> int:
        return self.zdegrees[i] if self.zdegrees is not None else 0

    @property
    def entries(self) -> tuple:
        """The sorted nonzero (i, j, k, value) tuples, formed from the
        `IntTable` on first use if the algebra was built from arrays."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(zip(*self.columns())))
        return self._entries

    def columns(self) -> tuple:
        """The entries as four lists (i, j, k, value) of Python ints: the
        `IntTable`'s columns if the algebra was built from arrays, so that
        no tuple is formed, else the entries transposed (no numpy)."""
        if self._entries is None:
            t = self._int_table
            return tuple(a.tolist() for a in (t.i, t.j, t.k, t.value))
        return tuple(map(list, zip(*self._entries))) or ([], [], [], [])

    @property
    @memoized
    def table(self) -> MappingProxyType:
        """The read-only rational view {(i, j): {k: c}} of the entries, built
        on first use for the readers that need rationals (`find_unit`,
        `product`), one rational per distinct value."""
        rational = {v: Q(v, self.d) for v in {e[3] for e in self.entries}}
        rows: dict = {}
        for i, j, k, v in self.entries:
            rows.setdefault((i, j), {})[k] = rational[v]
        return MappingProxyType({key: MappingProxyType(row) for key, row in rows.items()})

    def basis_product(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def product(self, x: Sequence, y: Sequence) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in self.basis_product(i, j).items():
                    out[k] += xi * yj * c
        return tuple(out)

    @property
    def int_table(self) -> tensor.IntTable:
        """The entries as read-only numpy arrays (`tensor.IntTable`): the
        arrays the algebra was built from, or built from the tuples on first
        use, then kept for every later reader."""
        if self._int_table is None:
            import numpy as np
            columns = list(zip(*self._entries)) or [()] * 4
            top = max(map(abs, columns[3]), default=0)
            arrays = [np.array(c, dtype=np.int64 if a < 3 else int_dtype(top))
                      for a, c in enumerate(columns)]
            for a in arrays:
                a.flags.writeable = False
            object.__setattr__(self, "_int_table", tensor.IntTable(self.dim, *arrays, self.d, top))
        return self._int_table

    def __repr__(self):
        return f"SuperAlgebra({self.name!r}, dim={self.dim}, kind={self.kind})"


def _checked_tuples(parities, zdeg, entries, seen) -> list:
    """The nonzero entries of (i, j, k, value) tuples, each checked in
    order for range, repetition (its key among the keys in seen and those
    of the entries before it), parity and degree; the first fault raises."""
    n, nonzero = len(parities), []
    for e in entries:
        i, j, k, v = e
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"product entry ({i},{j},{k}) out of range for dim {n}")
        key = (i * n + j) * n + k
        if key in seen:
            raise ValueError(f"duplicate structure constant for ({i},{j},{k})")
        seen.add(key)
        if not v:
            continue
        if parities[k] != (parities[i] + parities[j]) % 2:
            raise ValueError(f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong parity")
        if zdeg is not None and zdeg[k] != zdeg[i] + zdeg[j]:
            raise ValueError(f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong degree")
        nonzero.append(e)
    return nonzero


def table_keys(i, j, k, n):
    """The keys (i n + j) n + k of the index arrays of an n-dimensional
    table, which order entries as (i, j, k) does: int64 while
    n**3 < 2**62, else Python ints."""
    return (i.astype(int_dtype(n ** 3), copy=False) * n + j) * n + k


def _checked_arrays(parities, zdeg, d, i, j, k, v) -> tensor.IntTable:
    """The `IntTable` of the entries given as arrays i, j, k, value: the
    checks of `_checked_tuples` as array passes, then the nonzeros sorted by
    the key (i n + j) n + k over the least denominator.  Range is two
    reductions, and repetition one on sorted keys; an entry repeats when an
    earlier one has its key.  The first faulty entry in input order is
    checked alone by `_checked_tuples`, which raises its message."""
    import numpy as np
    n = len(parities)
    i, j, k = (np.asarray(a, dtype=np.int64) for a in (i, j, k))
    v = np.asarray(v)
    ijk = np.stack([i, j, k])
    fault = np.zeros(len(v), dtype=bool)
    if ijk.size and not (ijk.min() >= 0 and ijk.max() < n):
        fault = ((ijk < 0) | (ijk >= n)).any(axis=0)
        i, j, k = np.where(fault, n, ijk)   # the spare slot n of p and z below
    key = table_keys(i, j, k, n)
    repeated = np.zeros(len(v), dtype=bool)
    order = None
    if not (key[1:] > key[:-1]).all():      # not strictly increasing
        order = np.argsort(key, kind="stable")
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    nonzero = v != 0
    p = np.array(parities + (0,), dtype=np.int8)
    fault |= repeated | (nonzero & (p[i] ^ p[j] ^ p[k] != 0))
    if zdeg is not None:
        z = np.array(zdeg + (0,), dtype=np.int64)
        fault |= nonzero & (z[k] != z[i] + z[j])
    if fault.any():
        m = int(fault.argmax())
        entry = tuple(int(a[m]) for a in (ijk[0], ijk[1], ijk[2], v))
        _checked_tuples(parities, zdeg, [entry], {int(key[m])} if repeated[m] else set())
        certify(False, f"array check flagged the valid entry {entry}")
    keep = np.flatnonzero(nonzero) if order is None else order[nonzero[order]]
    v = v[keep]
    g = gcd(d, int(np.gcd.reduce(v)))
    top = int(abs(v).max()) // g if len(v) else 0
    columns = [a[keep] for a in (i, j, k)] + [(v // g).astype(int_dtype(top))]
    for a in columns:
        a.flags.writeable = False
    return tensor.IntTable(n, *columns, d // g, top)


def integer_algebra(parities, entries, d=1, zdegrees=None, *, name="", kind="plain",
                    metadata=None, check=True) -> SuperAlgebra:
    """Build a SuperAlgebra from integer entries, value / d being the
    constant of b_i * b_j at b_k: tuples (i, j, k, value), or a tuple of
    four integer arrays (i, j, k, value).  Indices must lie in range, no
    (i, j, k) may repeat and nonzero entries must be homogeneous (an error,
    not a warning); each entry is checked in that order, and the first
    faulty entry in input order is reported.  Zeros are dropped, the
    nonzeros sorted by (i, j, k), and d is reduced to the least common
    denominator.  Tuples are checked in a pure-Python loop
    (`_checked_tuples`), arrays by array passes (`_checked_arrays`), whose
    result the algebra keeps as its `int_table`.  kind="jordan" also
    verifies supercommutativity, kind="lie" super-anticommutativity and
    super-Jacobi, unless check=False."""
    parities = tuple(int(p) % 2 for p in parities)
    zdeg = tuple(int(z) for z in zdegrees) if zdegrees is not None else None
    if type(entries) is tuple and len(entries) == 4 and hasattr(entries[0], "dtype"):
        table = _checked_arrays(parities, zdeg, d, *entries)
        alg = SuperAlgebra(name, parities, table, table.d, zdeg, kind, metadata)
    else:
        nonzero = _checked_tuples(parities, zdeg, entries, set())
        nonzero.sort()
        g = gcd(d, *(e[3] for e in nonzero))
        if g != 1:
            nonzero = [(i, j, k, v // g) for i, j, k, v in nonzero]
        alg = SuperAlgebra(name, parities, nonzero, d // g, zdeg, kind, metadata)
    if check and kind == "jordan":
        w = check_supercommutative(alg)
        if w is not None:
            raise ValueError(f"not supercommutative: {w}")
    if check and kind == "lie":
        w = check_super_jacobi(alg)  # super-anticommutativity first
        if w is not None:
            raise ValueError(f"not a Lie superalgebra: {w}")
    return alg


def make_algebra(parities, products, zdegrees=None, *, name="", kind="plain",
                 metadata=None, check=True) -> SuperAlgebra:
    """`integer_algebra` of (i, j, k, coeff) entries with rational coefficients
    (ints, "p/q" strings or rationals), over their common denominator."""
    products = [(i, j, k, Q(c)) for i, j, k, c in products]
    d = lcm(1, *{int(c.denominator) for *_, c in products})
    return integer_algebra(parities, [(i, j, k, int(c.numerator) * (d // int(c.denominator)))
                                      for i, j, k, c in products], d, zdegrees,
                           name=name, kind=kind, metadata=metadata, check=check)


def mirror(parities, upper, sym):
    """Complete an upper-triangle list of (i, j, k, c), c an int or a
    rational, by (anti)supersymmetry.

    sym=+1 mirrors supercommutatively (Jordan), sym=-1 anticommutatively (Lie).
    Diagonal entries (i == j) are kept as given.
    """
    out = list(upper)
    for i, j, k, c in upper:
        if i != j:
            s = sym if parities[i] * parities[j] % 2 == 0 else -sym
            out.append((j, i, k, c * s))
    return out


def _mirror_defect(a: SuperAlgebra, sign: int):
    """The least pair (max(i, j), min(i, j)) with [e_j, e_i] !=
    sign (-1)^{|i||j|} [e_i, e_j], or None.  On an algebra that holds its
    `IntTable`, the mirror key (j n + i) n + k of each nonzero is looked up
    in the sorted keys by one `searchsorted`, a missing mirror reading 0;
    otherwise each integer entry is compared with its mirror in pure
    Python, so that a Jordan build from tuples stays free of numpy."""
    p, n = a.parities, a.dim
    if a._int_table is None:
        table = {e[:3]: e[3] for e in a.entries}
        return min(((max(i, j), min(i, j)) for (i, j, k), v in table.items()
                    if table.get((j, i, k), 0) != (-sign * v if p[i] * p[j] else sign * v)),
                   default=None)
    import numpy as np
    t = a.int_table
    key, mirror = table_keys(t.i, t.j, t.k, n), table_keys(t.j, t.i, t.k, n)
    at = np.minimum(np.searchsorted(key, mirror), max(len(key) - 1, 0))
    odd = np.array(p, dtype=np.int64)
    want = t.value * (sign - 2 * sign * (odd[t.i] & odd[t.j]))
    found = key[at] == mirror
    bad = np.flatnonzero(np.where(found, t.value[at], 0) != want)
    if not len(bad):
        return None
    pair = int((np.maximum(t.i[bad], t.j[bad]) * n + np.minimum(t.i[bad], t.j[bad])).min())
    return pair // n, pair % n


@memoized
def check_supercommutative(a: SuperAlgebra) -> Witness | None:
    """x*y = (-1)^{|x||y|} y*x on homogeneous basis pairs; None iff it holds.
    Memoized like every fact of an immutable algebra: the check make_algebra
    runs serves every later caller."""
    bad = _mirror_defect(a, 1)
    return bad and Witness(bad, "supercommutativity fails at pair ({},{})".format(*bad))


@memoized
def check_superanticommutative(a: SuperAlgebra) -> Witness | None:
    """[x,y] = -(-1)^{|x||y|}[y,x] on homogeneous basis pairs; memoized."""
    bad = _mirror_defect(a, -1)
    return bad and Witness(bad, "super-anticommutativity fails at pair ({},{})".format(*bad))


@memoized
def check_super_jacobi(a: SuperAlgebra) -> Witness | None:
    """Graded Jacobi identity on homogeneous basis triples.

    Requires super-anticommutativity (checked first); given it, the Jacobi
    expression is permutation-covariant up to a nonzero sign, so scanning
    unordered triples i <= j <= k is complete.  Memoized: the proof
    make_algebra makes for a Lie table serves every later caller.
    """
    w = check_superanticommutative(a)
    if w is not None:
        return w
    at = tensor.jacobi_defect(a)
    return at and Witness(at, "super-Jacobi fails at basis triple ({},{},{})".format(*at))


def graded_dims(a: SuperAlgebra) -> dict:
    """Map (zdegree, parity) -> dimension (zdegree 0 throughout if ungraded)."""
    out: dict = {}
    for i in range(a.dim):
        key = (a.zdegree(i), a.parity(i))
        out[key] = out.get(key, 0) + 1
    return out


def parity_dims(a: SuperAlgebra) -> tuple:
    even = sum(1 for p in a.parities if p == 0)
    return even, a.dim - even


def _table_rows(a: SuperAlgebra, eq, col) -> IntRows:
    """The distinct primitive rows of entries (eq[m], col[m]) = a.int_table.value[m]."""
    import numpy as np
    return primitive_row_blocks([(eq, col, a.int_table.value)], 1,
                                np.zeros(a.dim, dtype=np.int64), np.arange(a.dim))[0]


def center(a: SuperAlgebra) -> Subspace:
    """{x : x*y = 0 for all y}: the kernel of M[(j, k), i] = C[i, j, k]."""
    t = a.int_table
    return integer_kernel(_table_rows(a, t.j * a.dim + t.k, t.i), a.dim)


def derived(a: SuperAlgebra) -> Subspace:
    """Span of all products of basis elements: the table's rows (i, j) -> k."""
    t = a.int_table
    return Subspace.from_int_rows(a.dim, _table_rows(a, t.i * a.dim + t.j, t.k))


def _row_grades(a: SuperAlgebra, s: Subspace, what: str) -> list:
    """The (degree, parity) of each canonical basis row of a graded subspace.

    Basis coordinates are homogeneous, so the canonical RREF basis of a graded
    subspace is automatically homogeneous; a mixed basis vector is proof the
    subspace is not graded.
    """
    if s.ambient != a.dim:
        raise ValueError(f"{what}: ambient {s.ambient} != algebra dim {a.dim}")
    keys = []
    for row in s.rows:
        comps = {(a.zdegree(i), a.parity(i)) for i, x in enumerate(row) if x}
        if len(comps) > 1:
            raise ValueError(f"{what}: subspace is not graded (mixed basis vector)")
        keys.append(comps.pop())
    return keys


def _join(left, right):
    """Index arrays (a, b) of every pair with left[a] == right[b], a
    ascending: each left entry meets the run of right entries sharing its
    key, so the work follows the pairs (Gustavson's row-wise sparse
    product)."""
    import numpy as np
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right[order], left)
    lens = np.searchsorted(right[order], left, side="right") - lo
    a = np.repeat(np.arange(len(left)), lens)
    return a, order[np.arange(len(a)) + np.repeat(lo - np.cumsum(lens) + lens, lens)]


def _nonzeros(s: Subspace, order=None):
    """(row, col, value, top) of s's integer basis rows, taken in the given
    order (pivot order by default): the arrays of their nonzero entries and
    max|value|."""
    import numpy as np
    rows = [s.rows[r] for r in (range(s.dim) if order is None else order)]
    top = max((abs(x) for row in rows for x in row), default=0)
    M = np.array(rows, dtype=int_dtype(top)).reshape(len(rows), s.ambient)
    r, c = np.nonzero(M)
    return r, c, M[r, c], top


def _residues(s: Subspace, group, col, val):
    """The nonzero entries (group, col, value) of the integer residues
    den w_g - sum_p w_g[pivots[p]] rows[p] of the sparse integer vectors w_g
    given by their entries (group, col, val) in s = span(rows / den): as the
    basis row p is den at pivots[p] and 0 at the other pivots, w_g / e lies
    in s, for any scale e, iff its residue is zero, and then its coordinates
    are its entries at the pivot columns.  The pivot entries of the w_g meet
    the entries of the rows on p (`_join`), and `sum_by_key` folds both
    sides per (group, col).  val's dtype must hold
    max|val| (den + dim max|rows|), which bounds every residue."""
    import numpy as np
    n = s.ambient
    at = np.full(n, -1, dtype=np.int64)
    at[list(s.pivots)] = np.arange(s.dim)
    r, c, x, _ = _nonzeros(s)
    hit = np.flatnonzero(at[col] >= 0)
    w, e = _join(at[col[hit]], r)
    key, res = sum_by_key(np.concatenate([group * n + col, group[hit][w] * n + c[e]]),
                          np.concatenate([val * s.den, -(val[hit][w] * x[e])]))
    return key // n, key % n, res


def subalgebra(a: SuperAlgebra, s: Subspace, *, name=None, metadata=None) -> SuperAlgebra:
    """Restrict the product to a graded subspace closed under it, its basis
    the canonical one sorted by (degree, parity); metadata defaults to a's.

    With the basis x_p = X_p / den (X integer), the products are
    P[p, q] = d den**2 x_p x_q = sum X[p, i] X[q, j] C[i, j] over the
    table's nonzeros C[i, j, k] = d (e_i e_j)_k: two sparse joins, on i and
    then on j, each folded by `sum_by_key`.  The coordinates of x_p x_q are
    P[p, q] at the pivot columns over d den**2, certified by their integer
    residue (`_residues`); a product outside the span names the first pair
    (p, q) in row-major order."""
    import numpy as np
    keys = _row_grades(a, s, "subalgebra")
    order = sorted(range(s.dim), key=keys.__getitem__)
    t, n, m = a.int_table, a.dim, s.dim
    r, c, x, top = _nonzeros(s, order)
    # |P| <= n**2 max|C| top**2, and its residues (`_residues`) (den + m top) times that
    dtype = int_dtype(n * n * max(t.top, 1) * top ** 2 * (s.den + m * top))
    x, value = x.astype(dtype), t.value.astype(dtype)
    e, f = _join(t.i, c)                    # x_p e_j over (p, j, k), times d den
    key, val = sum_by_key((r[f] * n + t.j[e]) * n + t.k[e], value[e] * x[f])
    e, f = _join(key // n % n, c)           # P over (p, q, k)
    key, val = sum_by_key((key[e] // (n * n) * m + r[f]) * n + key[e] % n, val[e] * x[f])
    group, col = key // n, key % n
    bad, _, _ = _residues(s, group, col, val)
    if len(bad):
        raise ValueError("subalgebra: not closed, product of basis vectors "
                         f"({bad[0] // m},{bad[0] % m}) leaves it")
    at = np.full(n, -1, dtype=np.int64)
    at[[s.pivots[o] for o in order]] = np.arange(m)
    on = at[col] >= 0
    entries = group[on] // m, group[on] % m, at[col[on]], val[on]
    return integer_algebra([keys[o][1] for o in order], entries, t.d * s.den ** 2,
                           [keys[o][0] for o in order] if a.zdegrees is not None else None,
                           name=name or f"{a.name}|sub", kind=a.kind,
                           metadata=a.metadata if metadata is None else metadata, check=False)


def quotient_algebra(a: SuperAlgebra, ideal: Subspace, *, name=None,
                     metadata=None) -> SuperAlgebra:
    """Quotient by a graded two-sided ideal (verified); metadata defaults to a's.

    With the ideal's canonical basis v_r = Y_r / den, the products
    d den e_i v_r and d den v_r e_i are sparse joins of the table's nonzeros
    with the rows' on j, and each lies in the ideal iff its integer residue
    is zero (`_residues`); the first failure, in the order of i, then r,
    then e_i v_r before v_r e_i, is reported.  The quotient's basis is the
    e_i off the ideal's pivots, and its table the residues of their
    products, certified to leave no pivot coordinate, over d den."""
    import numpy as np
    _row_grades(a, ideal, "quotient")
    t, n, m = a.int_table, a.dim, ideal.dim
    r, c, y, top = _nonzeros(ideal)
    # |d den e_i v_r| <= n max|C| top, and its residues (den + m top) times that
    dtype = int_dtype(n * max(t.top, 1) * max(top, 1) * (ideal.den + m * top))
    y, value = y.astype(dtype), t.value.astype(dtype)
    group, col, val = [], [], []
    for side, (i, j) in enumerate(((t.i, t.j), (t.j, t.i))):
        e, f = _join(j, c)
        group.append((i[e] * m + r[f]) * 2 + side)
        col.append(t.k[e])
        val.append(value[e] * y[f])
    bad, _, _ = _residues(ideal, *map(np.concatenate, (group, col, val)))
    if len(bad):
        i, side = int(bad[0]) // (2 * m), int(bad[0]) % 2
        where = f"v*e_{i}" if side else f"e_{i}*v"
        raise ValueError(f"quotient: not an ideal, {where} escapes (v in ideal)")
    keep = np.ones(n, dtype=bool)
    keep[list(ideal.pivots)] = False
    at = np.cumsum(keep) - 1                # position of each kept e_i in the quotient
    on = keep[t.i] & keep[t.j]
    group, col, val = _residues(ideal, at[t.i[on]] * n + at[t.j[on]], t.k[on], value[on])
    certify(keep[col].all(), "reduction left a pivot coordinate")
    kept = np.flatnonzero(keep)
    entries = group // n, group % n, at[col], val
    return integer_algebra([a.parity(i) for i in kept], entries, t.d * ideal.den,
                           [a.zdegree(i) for i in kept] if a.zdegrees is not None else None,
                           name=name or f"{a.name}/ideal", kind=a.kind,
                           metadata=a.metadata if metadata is None else metadata, check=False)
