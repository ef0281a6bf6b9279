"""Structure-constant representation of Z2-graded (optionally Z-graded)
algebras, with the generic identity checkers shared by the Jordan and Lie
layers.

Vectors are coordinate tuples in a fixed ordered basis; every basis coordinate
carries a parity (and optionally an integer degree), and structure constants
are required to be homogeneous with respect to both.  Operators on these
spaces have no class here: left multiplications, their supercommutators and
operator spaces are integer stacks in supertkk.structure (`l_stack`,
`OperatorStack`).

Supercommutativity, which every Jordan build checks, compares rational rows
as dicts, so a Jordan algebra is built without numpy; super-anticommutativity
and super-Jacobi, which a Lie build checks, run on the algebra's integer
table (`tensor.IntTable`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from supertkk import tensor
from supertkk.exact import (GeneratedSpan, IntRows, Q, Subspace, ZERO, certify, integer_kernel,
                            primitive_row_blocks, sum_by_key)


@dataclass
class Witness:
    """First failing instance of an identity check."""
    indices: tuple
    message: str

    def __str__(self):
        return self.message


def frozen_table(table) -> MappingProxyType:
    """A read-only copy of a sparse table {index: {k: c}}, rows read-only too."""
    return MappingProxyType({key: MappingProxyType(dict(row)) for key, row in table.items()})


def memoized(fn):
    """Cache fn(obj, ...) in obj's memo slot, keyed by the arguments with their
    defaults filled in, so f(V) and f(V, x=<default>) share one entry.  The
    memo lives and dies with obj, which is immutable, so a result never goes
    stale and never serves another object."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        obj, *rest = bound.arguments.values()
        memo, key = obj._memo, (fn, *rest)
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return wrapper


class SuperAlgebra:
    """A finite-dimensional algebra given by exact structure constants.

    table maps a basis pair (i, j) to the sparse coordinate dict of b_i * b_j.
    kind is "jordan", "lie" or "plain"; constructors verify the corresponding
    symmetry axioms unless explicitly told not to.  Immutable: table, its rows
    and metadata are read-only mappings, and attributes cannot be set.
    """

    __slots__ = ("name", "parities", "zdegrees", "table", "kind", "metadata",
                 "_memo", "__weakref__")

    def __init__(self, name, parities, table, zdegrees=None, kind="plain", metadata=None):
        init = functools.partial(object.__setattr__, self)
        init("name", name)
        init("parities", tuple(int(p) % 2 for p in parities))
        init("zdegrees", tuple(int(z) for z in zdegrees) if zdegrees is not None else None)
        init("table", frozen_table(table))
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
        """The table on the integers (`tensor.IntTable`): encoded on first
        use, then kept for every later reader."""
        return tensor.IntTable.of(self.table, self.dim)

    def __repr__(self):
        return f"SuperAlgebra({self.name!r}, dim={self.dim}, kind={self.kind})"


def make_algebra(parities, products, zdegrees=None, *, name="", kind="plain",
                 metadata=None, check=True) -> SuperAlgebra:
    """Build a SuperAlgebra from (i, j, k, coeff) entries.

    Homogeneity of every entry is verified (a violation is an error, not a
    warning); duplicate (i, j, k) entries are rejected.  kind="jordan" also
    verifies supercommutativity, kind="lie" verifies super-anticommutativity
    and the super-Jacobi identity, unless check=False.
    """
    parities = tuple(int(p) % 2 for p in parities)
    n = len(parities)
    zdeg = tuple(int(z) for z in zdegrees) if zdegrees is not None else None
    table: dict = {}
    seen = set()
    for i, j, k, coeff in products:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"product entry ({i},{j},{k}) out of range for dim {n}")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate structure constant for ({i},{j},{k})")
        seen.add((i, j, k))
        c = Q(coeff)
        if not c:
            continue
        if parities[k] != (parities[i] + parities[j]) % 2:
            raise ValueError(
                f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong parity")
        if zdeg is not None and zdeg[k] != zdeg[i] + zdeg[j]:
            raise ValueError(
                f"inhomogeneous product: e_{i}*e_{j} hits e_{k} of wrong degree")
        table.setdefault((i, j), {})[k] = c
    alg = SuperAlgebra(name, parities, table, zdeg, kind, metadata)
    if check and kind == "jordan":
        w = check_supercommutative(alg)
        if w is not None:
            raise ValueError(f"not supercommutative: {w}")
    if check and kind == "lie":
        w = check_super_jacobi(alg)  # super-anticommutativity first
        if w is not None:
            raise ValueError(f"not a Lie superalgebra: {w}")
    return alg


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


@memoized
def check_supercommutative(a: SuperAlgebra) -> Witness | None:
    """x*y = (-1)^{|x||y|} y*x on homogeneous basis pairs; None iff it holds.
    Memoized like every fact of an immutable algebra: the check make_algebra
    runs serves every later caller.  It compares the rational rows of each
    pair as dicts, so a Jordan build stays free of numpy."""
    for i, j in sorted({(max(key), min(key)) for key in a.table}):  # other pairs: 0 = 0
        left, right = a.basis_product(i, j), a.basis_product(j, i)
        if a.parity(i) * a.parity(j):
            right = {k: -c for k, c in right.items()}
        if left != right and _support(left) != _support(right):
            return Witness((i, j), f"supercommutativity fails at pair ({i},{j})")
    return None


def _support(row) -> dict:
    """row without its explicit zeros, which count as absent entries."""
    return {k: c for k, c in row.items() if c}


@memoized
def check_superanticommutative(a: SuperAlgebra) -> Witness | None:
    """[x,y] = -(-1)^{|x||y|}[y,x] on homogeneous basis pairs; memoized.

    One array pass over the `IntTable`: the constants v at (i, j, k) and
    (-1)^{|i||j|} v at (j, i, k) are summed per key (`exact.sum_by_key`),
    which leaves exactly the keys where the identity fails.  The witness is
    the least pair (max(i, j), min(i, j)) among them."""
    import numpy as np
    t, n = a.int_table, a.dim
    p = np.array(a.parities, dtype=np.int64)
    sign = 1 - 2 * (p[t.i] * p[t.j])
    keys, _ = sum_by_key(np.concatenate([(t.i * n + t.j) * n + t.k, (t.j * n + t.i) * n + t.k]),
                         np.concatenate([t.value, sign * t.value]))
    if not len(keys):
        return None
    i, j = keys // (n * n), keys // n % n
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    at = int(np.argmin(hi * n + lo))
    i, j = int(hi[at]), int(lo[at])
    return Witness((i, j), f"super-anticommutativity fails at pair ({i},{j})")


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
