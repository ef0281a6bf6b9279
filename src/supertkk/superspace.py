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
homogeneity; `make_algebra` encodes rational constants for it.  The arrays
of `int_table` and the rational view `table` are made from the entries on
first use.  Supercommutativity, which every Jordan build checks, and
super-anticommutativity compare each entry with its mirror in pure Python,
so a Jordan algebra is built without numpy; super-Jacobi, which a Lie build
checks, runs on the integer table (`tensor.IntTable`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from math import gcd, lcm
from types import MappingProxyType
from typing import Sequence

from supertkk import tensor
from supertkk.exact import (GeneratedSpan, IntRows, Q, Subspace, ZERO, certify, int_dtype,
                            integer_kernel, primitive_row_blocks)


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
    `integer_algebra` and `make_algebra` check them.  Immutable: attributes
    cannot be set, and the rational `table` is a read-only view."""

    __slots__ = ("name", "parities", "zdegrees", "entries", "d", "kind", "metadata",
                 "_memo", "__weakref__")

    def __init__(self, name, parities, entries, d=1, zdegrees=None, kind="plain",
                 metadata=None):
        init = functools.partial(object.__setattr__, self)
        init("name", name)
        init("parities", tuple(int(p) % 2 for p in parities))
        init("zdegrees", tuple(int(z) for z in zdegrees) if zdegrees is not None else None)
        init("entries", tuple(entries))
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

    def basis_vector(self, i: int) -> tuple:
        return tuple(Q(1) if j == i else ZERO for j in range(self.dim))

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
    @memoized
    def int_table(self) -> tensor.IntTable:
        """The entries as read-only numpy arrays (`tensor.IntTable`), built
        on first use, then kept for every later reader."""
        import numpy as np
        columns = list(zip(*self.entries)) or [()] * 4
        top = max(map(abs, columns[3]), default=0)
        arrays = [np.array(c, dtype=np.int64 if a < 3 else int_dtype(top))
                  for a, c in enumerate(columns)]
        for a in arrays:
            a.flags.writeable = False
        return tensor.IntTable(self.dim, *arrays, self.d, top)

    def __repr__(self):
        return f"SuperAlgebra({self.name!r}, dim={self.dim}, kind={self.kind})"


def integer_algebra(parities, entries, d=1, zdegrees=None, *, name="", kind="plain",
                    metadata=None, check=True) -> SuperAlgebra:
    """Build a SuperAlgebra from integer entries (i, j, k, value), value / d
    being the constant of b_i * b_j at b_k.  Indices must lie in range, no
    (i, j, k) may repeat and nonzero entries must be homogeneous (an error,
    not a warning); zeros are dropped and d is reduced to the least common
    denominator.  kind="jordan" also verifies supercommutativity, kind="lie"
    super-anticommutativity and super-Jacobi, unless check=False."""
    parities = tuple(int(p) % 2 for p in parities)
    n = len(parities)
    zdeg = tuple(int(z) for z in zdegrees) if zdegrees is not None else None
    table: dict = {}
    for i, j, k, v in entries:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"product entry ({i},{j},{k}) out of range for dim {n}")
        if (i, j, k) in table:
            raise ValueError(f"duplicate structure constant for ({i},{j},{k})")
        table[i, j, k] = v
        if not v:
            continue
        if parities[k] != (parities[i] + parities[j]) % 2:
            raise ValueError(f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong parity")
        if zdeg is not None and zdeg[k] != zdeg[i] + zdeg[j]:
            raise ValueError(f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong degree")
    nonzero = sorted((key, v) for key, v in table.items() if v)
    g = gcd(d, *(v for _, v in nonzero))
    alg = SuperAlgebra(name, parities, ((i, j, k, v // g) for (i, j, k), v in nonzero),
                       d // g, zdeg, kind, metadata)
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
    """Complete an upper-triangle product list by (anti)supersymmetry.

    sym=+1 mirrors supercommutatively (Jordan), sym=-1 anticommutatively (Lie).
    Diagonal entries (i == j) are kept as given.
    """
    out = list(upper)
    for i, j, k, c in upper:
        if i != j:
            s = sym if parities[i] * parities[j] % 2 == 0 else -sym
            out.append((j, i, k, Q(c) * s))
    return out


def _mirror_defect(a: SuperAlgebra, sign: int):
    """The least pair (max(i, j), min(i, j)) with [e_j, e_i] !=
    sign (-1)^{|i||j|} [e_i, e_j], or None: each integer entry is compared
    with its mirror in pure Python, so a Jordan build stays free of numpy."""
    p, table = a.parities, {e[:3]: e[3] for e in a.entries}
    return min(((max(i, j), min(i, j)) for (i, j, k), v in table.items()
                if table.get((j, i, k), 0) != (-sign * v if p[i] * p[j] else sign * v)),
               default=None)


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


def _graded_components(a: SuperAlgebra, vec) -> dict:
    comps: dict = {}
    for i, x in enumerate(vec):
        if x:
            key = (a.zdegree(i), a.parity(i))
            comps.setdefault(key, [ZERO] * a.dim)[i] = x
    return comps


def _split_graded_basis(a: SuperAlgebra, s: Subspace, what: str):
    """Homogeneous basis of a graded subspace, sorted by (degree, parity).

    Basis coordinates are homogeneous, so the canonical RREF basis of a graded
    subspace is automatically homogeneous; a mixed basis vector is proof the
    subspace is not graded.
    """
    if s.ambient != a.dim:
        raise ValueError(f"{what}: ambient {s.ambient} != algebra dim {a.dim}")
    out = []
    for v in s.basis:
        comps = _graded_components(a, v)
        if len(comps) > 1:
            raise ValueError(f"{what}: subspace is not graded (mixed basis vector)")
        (key,) = comps or {(0, 0): None}
        out.append((key, v))
    out.sort(key=lambda kv: kv[0])
    return out


def subalgebra(a: SuperAlgebra, s: Subspace, *, name=None, metadata=None) -> SuperAlgebra:
    """Restrict the product to a graded subspace closed under it; metadata defaults to a's."""
    graded = _split_graded_basis(a, s, "subalgebra")
    vectors = [v for _, v in graded]
    gens = GeneratedSpan(vectors, a.dim)
    products = []
    for m, vm in enumerate(vectors):
        for l, vl in enumerate(vectors):
            prod = a.product(vm, vl)
            coords = gens.express(prod)
            if coords is None:
                raise ValueError(
                    f"subalgebra: not closed, product of basis vectors ({m},{l}) leaves it")
            products.extend((m, l, k, c) for k, c in enumerate(coords) if c)
    parities = [a.parity(next(i for i, x in enumerate(v) if x)) if any(v) else 0
                for v in vectors]
    zdeg = None
    if a.zdegrees is not None:
        zdeg = [a.zdegree(next(i for i, x in enumerate(v) if x)) if any(v) else 0
                for v in vectors]
    return make_algebra(parities, products, zdeg,
                        name=name or f"{a.name}|sub", kind=a.kind,
                        metadata=a.metadata if metadata is None else metadata,
                        check=False)


def quotient_algebra(a: SuperAlgebra, ideal: Subspace, *, name=None,
                     metadata=None) -> SuperAlgebra:
    """Quotient by a graded two-sided ideal (verified); metadata defaults to a's."""
    _split_graded_basis(a, ideal, "quotient")
    for i in range(a.dim):
        b = a.basis_vector(i)
        for v in ideal.basis:
            if not ideal.contains(a.product(b, v)):
                raise ValueError(f"quotient: not an ideal, e_{i}*v escapes (v in ideal)")
            if not ideal.contains(a.product(v, b)):
                raise ValueError(f"quotient: not an ideal, v*e_{i} escapes (v in ideal)")
    keep = [i for i in range(a.dim) if i not in set(ideal.pivots)]
    pos = {i: m for m, i in enumerate(keep)}
    products = []
    for m, i in enumerate(keep):
        for l, j in enumerate(keep):
            prod = ideal.reduce(a.product(a.basis_vector(i), a.basis_vector(j)))
            for k, c in enumerate(prod):
                if c:
                    certify(k in pos, "reduction left a pivot coordinate")
                    products.append((m, l, pos[k], c))
    parities = [a.parity(i) for i in keep]
    zdeg = [a.zdegree(i) for i in keep] if a.zdegrees is not None else None
    return make_algebra(parities, products, zdeg,
                        name=name or f"{a.name}/ideal", kind=a.kind,
                        metadata=a.metadata if metadata is None else metadata,
                        check=False)
