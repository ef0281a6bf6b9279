"""The rational encoding path of a structure-constant table (test-only oracle).

Before a `SuperAlgebra` kept its constants once on the integers, it stored
them as a frozen {(i, j): {k: Fraction}} table, and every integer reader
re-encoded that table.  Both steps are kept here verbatim as the reference
the integer form is compared with:

- `fraction_table` is the former `make_algebra` loop: the range, duplicate
  and homogeneity checks, one `Q` per constant, explicit zeros left out.
- `int_table_of` is the former `IntTable.of`: one pass over a rational
  table, its constants scaled to their least common denominator, explicit
  zeros dropped, sorted by (i, j, k).

`basis_triple` is the former `JordanPair.basis_triple`: one basis triple
of a pair as a sparse rational vector, which the loop oracles extend
trilinearly.

`unchecked` builds an algebra from a rational table with no check at all,
for the tests that need a table the checking constructor refuses (an
inhomogeneous one, say).

`encode` is the former `tensor.encode`, which scaled sparse rational tables
that belong to no algebra to integer tensors over one denominator: operator
flats (`OperatorStack.from_flats`), the coordinates a `GeneratedSpan` read
one at a time, the triples of a pair given by rational constants.  The
package now reads those off integer subspaces and spans (`Subspace.rows`,
`GeneratedSpan.coordinates`); the tests still write their rational tables
with it.
"""

from math import lcm

import numpy as np

from supertkk.exact import Q, int_dtype
from supertkk.superspace import SuperAlgebra
from supertkk.tensor import IntTable


def fraction_table(parities, products, zdegrees=None) -> dict:
    """The table {(i, j): {k: c}} the former make_algebra stored."""
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
    return table


def int_table_of(table, n: int) -> IntTable:
    """Encode a rational table in one pass over its constants."""
    at, nums, dens = [], [], []
    for (i, j), row in table.items():
        base = (i * n + j) * n
        for k, c in row.items():
            at.append(base + k)
            nums.append(int(c.numerator))  # a Python int under either backend
            dens.append(int(c.denominator))
    d = lcm(1, *set(dens))
    vals = nums if d == 1 else [x * (d // y) for x, y in zip(nums, dens)]
    top = max(map(abs, vals), default=0)
    at, value = np.array(at, dtype=np.int64), np.array(vals, dtype=int_dtype(top))
    if not value.all():  # a table may hold explicit zeros
        at, value = at[value != 0], value[value != 0]
    if (at[1:] < at[:-1]).any():
        order = np.argsort(at, kind="stable")
        at, value = at[order], value[order]
    ij, k = np.divmod(at, n)
    i, j = np.divmod(ij, n)
    for a in (i, j, k, value):
        a.flags.writeable = False
    return IntTable(n, i, j, k, value, d, top)


def basis_triple(pair, sigma: int, i: int, j: int, k: int) -> dict:
    """The nonzero coordinates {l: c} of {e_i, e_j, e_k}^sigma of a `JordanPair`."""
    return {l: Q(x, pair.den) for l, x in enumerate(pair.tensors[sigma][i, j, k].tolist()) if x}


def unchecked(name, parities, table, zdegrees=None, kind="plain", metadata=None):
    """The SuperAlgebra of a rational table {(i, j): {k: c}}, with no check
    of its entries or of its kind's axioms."""
    t = int_table_of(table, len(parities))
    entries = zip(*(a.tolist() for a in (t.i, t.j, t.k, t.value)))
    return SuperAlgebra(name, parities, entries, t.d, zdegrees, kind, metadata)


def encode(tables, shapes) -> tuple:
    """(tensors, d): tensors of the given shapes for sparse tables {index: {k: c}},
    entry [index + (k,)] = c * d with one denominator d common to all tables."""
    d = lcm(1, *{int(c.denominator) for t in tables for e in t.values() for c in e.values()})
    out = []
    for table, shape in zip(tables, shapes):
        at = np.array([i + (k,) for i, e in table.items() for k in e], dtype=np.int64)
        vals = [int(c.numerator) * (d // int(c.denominator))
                for e in table.values() for c in e.values()]
        t = np.zeros(shape, dtype=int_dtype(max(map(abs, vals), default=0)))
        t[tuple(at.reshape(-1, len(shape)).T)] = vals
        out.append(t)
    return out, d
