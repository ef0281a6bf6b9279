"""Exact rational linear algebra: the substrate every other module solves on.

Scalars are arbitrary-precision rationals (gmpy2.mpq when available, else
fractions.Fraction).  No floating point anywhere: every identity this package
checks is an algebraic identity over Q and must hold exactly.

There is one elimination, fraction-free over the integers, for kernels,
spans, solves and generator coordinates (`kernel_sparse` and its
integer-row core `integer_kernel`, `Subspace`, `GeneratedSpan`, `solve`):
each row is scaled to a primitive integer row, eliminated over the integers
(Bareiss-style v <- b*v - a*r, divided by the row gcd), and rationals are
formed only when the reduced rows are read off.  A `GeneratedSpan`
eliminates its generator list once and then writes any number of members
in those generators, each by one reduction.
`integer_kernel` takes its system as `IntRows` (flat numpy arrays) and
first runs a vectorised structured-elimination pre-pass (`_absorb`): rows
with one entry zero their column and rows a x_c + b x_d with |a| = |b| tie
x_d to x_c, round after round, so only the core rows left reach the
elimination; its rank is the zeroed roots plus the tied columns plus the
core pivots (`kernel_columns` stops at that count).  Every kernel vector
is verified exactly against every original row, there is one per free
column, and every expressed member is recombined from its coefficients; a
failure of either certificate raises CertificateError, so the checks
survive `python -O`.
`Matrix` is only the immutable container of such systems and of their
results; no operator arithmetic runs on it.

Integer systems assembled as numpy COO triplets are made primitive by
`primitive_row_blocks`, one vectorised pass per chunk of equations (sort,
sum duplicates, drop zeros, divide by the row gcd, fix the sign), which also
splits them into blocks of columns (an `IntRows` each) and removes repeated
rows; the rational `primitive_rows` serves `Subspace` and `kernel_sparse`.
`integer_kernel` returns its canonical basis as a `Subspace` read straight
off the elimination, and `Subspace.embedded` places it in a larger space
without a second one.  The kernel certificate (`_verify_kernel`) is a
sparse join on the column: each nonzero row entry meets only the vector
entries on its column (Gustavson, ACM TOMS 4, 1978).
Every numpy path runs in int64 only after proving its bound below 2**62
(`int_dtype`), else on object-dtype Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

try:
    from gmpy2 import mpq as _Scalar
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _Scalar = Fraction


def Q(value=0, den=None):
    """Exact rational from an int, a "p/q" string, or another rational.

    A rational is returned as it is (rationals are immutable): every entry
    of a `Matrix` and every vector a `Subspace` reduces passes through here."""
    if den is not None:
        return _Scalar(value, den)
    if type(value) is _Scalar:
        return value
    return _Scalar(value)


ZERO = Q(0)
ONE = Q(1)


class CertificateError(ValueError):
    """A certificate failed: a computed result did not verify exactly."""


def certify(ok, message: str):
    """Raise CertificateError(message) unless ok; unlike assert, survives python -O."""
    if not ok:
        raise CertificateError(message)


def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


class Matrix:
    """Dense exact-rational matrix (immutable): the container that `solve`
    takes.  It has no arithmetic; operators are multiplied as integer stacks
    (`structure.OperatorStack`)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        self.data = tuple(tuple(Q(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix rows")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "Matrix":
        data = [[ZERO] * cols for _ in range(rows)]
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            data[r][c] = Q(v)
        return cls(data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls(zip(*columns)) if columns else cls([])

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.data)) if self.data else Matrix([])

    def flatten(self) -> tuple:
        """Row-major flattening, used to treat operators as vectors."""
        return tuple(x for row in self.data for x in row)

    @classmethod
    def unflatten(cls, rows: int, cols: int, flat: Sequence) -> "Matrix":
        if len(flat) != rows * cols:
            raise ValueError(f"flatten length mismatch: {len(flat)} != {rows}*{cols}")
        return cls(flat[i * cols:(i + 1) * cols] for i in range(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.data]})"


# ---------------------------------------------------------------------------
# reduced row echelon form


def _rref_rows(vectors: Iterable[Sequence], ncols: int):
    """Exact RREF of dense rational vectors by the integer elimination of
    `kernel_sparse`.  Returns (rows, pivots): tuples fully reduced, pivot
    entries 1, pivot columns cleared elsewhere, sorted by pivot column."""
    rows = []
    for vec in vectors:
        v = tuple(vec)
        if len(v) != ncols:
            raise ValueError(f"ambient dimension mismatch: {len(v)} != {ncols}")
        rows.append({j: x for j, x in enumerate(v) if x})
    return _rational_rows(_echelon(primitive_rows(rows)), ncols)


def solve(m: Matrix, b: Sequence):
    """Some x with m@x = b (0 at each column that depends on earlier ones), or
    None if inconsistent: `GeneratedSpan` over the columns of m, certified."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    return GeneratedSpan([m.column(c) for c in range(m.cols)], m.rows).express(b)


class Subspace:
    """Subspace of Q^n with a canonical RREF basis; equality is decidable."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self.ambient = ambient
        rows, pivots = _rref_rows(vectors, ambient)
        self.basis = tuple(rows)
        self.pivots = tuple(pivots)

    @classmethod
    def _from_canonical(cls, ambient: int, rows, pivots) -> "Subspace":
        self = cls.__new__(cls)
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        return self

    @classmethod
    def from_int_rows(cls, ambient: int, int_rows: "IntRows") -> "Subspace":
        """The span of the rows of an integer system (`IntRows`)."""
        return cls._from_canonical(ambient, *_rational_rows(_echelon(int_rows.dicts()), ambient))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        eye = Matrix.identity(ambient)
        return cls._from_canonical(ambient, eye.data, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Sequence):
        """vec reduced by the canonical basis (pivot coordinates zeroed); 0 iff vec is inside."""
        v = [Q(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError(f"ambient dimension mismatch: {len(v)} != {self.ambient}")
        for r, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(self.ambient):
                    if r[j]:
                        v[j] -= c * r[j]
        return v

    def contains(self, vec: Sequence) -> bool:
        return vec_is_zero(self.reduce(vec))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, vec: Sequence):
        """Coefficients of vec in the canonical basis, or None if outside.

        Each basis row is 1 at its own pivot and 0 at the others, so the
        coefficients are the entries of vec at the pivot columns."""
        v = [Q(x) for x in vec]
        return tuple(v[p] for p in self.pivots) if self.contains(v) else None

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: RREF of [v|v] over self and [w|0] over other; rows with
        # vanishing left half carry the intersection in their right half.
        self._check_ambient(other)
        n = self.ambient
        stacked = [v + v for v in self.basis]
        stacked += [w + (ZERO,) * n for w in other.basis]
        rows, pivots = _rref_rows(stacked, 2 * n)
        inter = [r[n:] for r, p in zip(rows, pivots) if p >= n]
        return Subspace(n, inter)

    def embedded(self, positions: Sequence[int], ambient: int) -> "Subspace":
        """This space inside Q^ambient, coordinate j moved to positions[j] and
        every other coordinate 0.  Strictly increasing positions keep each
        basis vector's pivot its first entry and the pivots in order, so the
        basis stays canonical and is not eliminated again; other positions
        raise ValueError."""
        positions = list(positions)
        if len(positions) != self.ambient:
            raise ValueError(f"ambient dimension mismatch: {len(positions)} != {self.ambient}")
        if any(b <= a for a, b in zip(positions, positions[1:])) or (
                positions and (positions[0] < 0 or positions[-1] >= ambient)):
            raise ValueError(f"embedding positions must increase strictly within 0..{ambient - 1}")
        rows = []
        for v in self.basis:
            flat = [ZERO] * ambient
            for at, x in zip(positions, v):
                flat[at] = x
            rows.append(flat)
        return Subspace._from_canonical(ambient, rows, [positions[p] for p in self.pivots])

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def span(vectors: Sequence[Sequence], ambient: int | None = None) -> Subspace:
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("span of an empty list needs an explicit ambient")
        ambient = len(vectors[0])
    return Subspace(ambient, vectors)


class GeneratedSpan:
    """The span of a fixed generator list, eliminated once, that writes its
    members as combinations of the generators.

    One `_echelon` runs over the rows [g_i | e_i], e_i at column ambient +
    k - 1 - i for k generators.  A row with a right-half pivot is a relation
    led by the last generator it involves, so the generators a left-to-right
    greedy scan keeps are those whose identity column is no pivot
    (`independent`).  A left-pivot row reads w = sum t_i g_i off its right
    half, and full RREF puts t on the independent generators only, so
    `express` returns the unique coefficients over those."""

    __slots__ = ("ambient", "count", "independent", "_gens", "_store")

    def __init__(self, generators: Iterable[Sequence], ambient: int):
        self.ambient = ambient
        self._gens = [self._sparse(g) for g in generators]
        self.count = len(self._gens)
        top = ambient + self.count - 1
        self._store = _echelon([row_primitive({**g, top - i: ONE})
                                for i, g in enumerate(self._gens)])
        self.independent = tuple(i for i in range(self.count)
                                 if top - i not in self._store)

    def _sparse(self, vec: Sequence) -> dict:
        v = tuple(vec)
        if len(v) != self.ambient:
            raise ValueError(f"ambient dimension mismatch: {len(v)} != {self.ambient}")
        return {j: Q(x) for j, x in enumerate(v) if x}

    @property
    def dim(self) -> int:
        return len(self.independent)

    def express(self, vec: Sequence):
        """Coefficients over the generators reproducing vec, or None if vec is
        outside the span.  Certified by recombining sum c_i g_i == vec."""
        v = self._sparse(vec)
        # [v | 0 | 1]: the marker column keeps the scale the reduction applies
        mark = self.ambient + self.count
        row = _reduce(row_primitive({**v, mark: ONE}), self._store)
        if any(c < self.ambient for c in row):
            return None
        coeffs = [ZERO] * self.count
        for c, x in row.items():
            if c != mark:
                coeffs[mark - 1 - c] = Q(-x, row[mark])
        got = {}
        for c, g in zip(coeffs, self._gens):
            if c:
                for j, x in g.items():
                    got[j] = got.get(j, ZERO) + c * x
        certify({j: x for j, x in got.items() if x} == v,
                "solve verification failed: sum c_i g_i != v")
        return tuple(coeffs)


# ---------------------------------------------------------------------------
# sparse kernel by fraction-free integer elimination


def row_primitive(row: dict) -> dict:
    """Scale a sparse rational row to a primitive integer row, its entry in
    the lowest column positive.  For rational rows (`Subspace`,
    `GeneratedSpan`, `derived`); assembled integer systems take
    `primitive_row_blocks`."""
    # ints and rationals already carry numerator/denominator; re-wrapping
    # them in Q() was the larger part of this function's time
    items = [(c, v if isinstance(v, (int, Fraction, _Scalar)) else Q(v))
             for c, v in row.items() if v]
    if not items:
        return {}
    den = lcm(*(int(v.denominator) for _, v in items))
    ints = [(c, int(v.numerator) * (den // int(v.denominator))) for c, v in items]
    g = gcd(*(v for _, v in ints))
    if min(ints)[1] < 0:
        g = -g
    return {c: v // g for c, v in ints}


def primitive_rows(rows: Iterable[dict]) -> list[dict]:
    """The distinct nonzero primitive integer rows of sparse rational rows,
    one `row_primitive` each: for `Subspace` and `kernel_sparse`; integer
    systems take `primitive_row_blocks`."""
    out, seen = [], set()
    for row in rows:
        pr = row_primitive(row)
        key = tuple(sorted(pr.items()))
        if pr and key not in seen:
            seen.add(key)
            out.append(pr)
    return out


def int_dtype(bound: int):
    """The numpy dtype for integers of absolute value at most bound: int64
    when bound < 2**62 (so sums and negations of two stay in range), else
    object, whose entries are exact Python ints."""
    import numpy as np
    return np.int64 if bound < 2 ** 62 else object


class IntRows:
    """A sparse integer system as flat arrays, the one input of
    `integer_kernel`: row r holds the entries cols[s:s + lens[r]] (column
    indices) and vals[s:s + lens[r]] (nonzero ints, int64 or object dtype),
    s = lens[0] + ... + lens[r - 1].  Every row has an entry."""

    __slots__ = ("lens", "cols", "vals")

    def __init__(self, lens, cols, vals):
        self.lens, self.cols, self.vals = lens, cols, vals

    @classmethod
    def from_dicts(cls, rows: Iterable[dict]) -> "IntRows":
        """The nonzero rows of sparse integer rows (col -> int)."""
        import numpy as np
        rows = [r for r in rows if r]
        vals = [x for r in rows for x in r.values()]
        dtype = int_dtype(max(map(abs, vals), default=0))
        return cls(np.array([len(r) for r in rows], dtype=np.int64),
                   np.array([c for r in rows for c in r], dtype=np.int64),
                   np.array(vals, dtype=dtype))

    @classmethod
    def concat(cls, systems: Iterable["IntRows"]) -> "IntRows":
        """The rows of several systems, one after the other."""
        import numpy as np
        parts = [(s.lens, s.cols, s.vals) for s in systems]
        return cls(*map(np.concatenate, zip(*parts))) if parts else cls.from_dicts(())

    def dicts(self) -> list[dict]:
        """The rows as dicts col -> int."""
        at, vals, out, start = self.cols.tolist(), self.vals.tolist(), [], 0
        for end in self.lens.cumsum().tolist():
            out.append(dict(zip(at[start:end], vals[start:end])))
            start = end
        return out

    def __len__(self) -> int:
        return len(self.lens)


def primitive_row_blocks(chunks, terms: int, block_of, position_of) -> dict[int, IntRows]:
    """The distinct primitive rows of a sparse integer system given as COO
    triplets, split into blocks of columns.

    chunks yields (eq, col, val) integer arrays: entry (e, c) of the system is
    the sum of the val of the triplets (e, c), of which there are at most
    terms, and all triplets of an equation come in one chunk.  A column c is
    a flat index; block_of[c] is its block and position_of[c] its position
    in that block (int arrays).  Row (e, b) is equation e on the columns of
    block b.

    Each chunk is reduced in one vectorised pass: the triplets are sorted by
    (e, b, c), duplicates summed by `np.add.reduceat`, zeros dropped, and
    each row divided by its gcd (`np.gcd.reduceat`), signed so that its first
    entry is positive, as `row_primitive` signs.  Rows repeated anywhere in
    the system are then removed.  Returns {block: IntRows} for every block
    (with no row for a block no equation reaches), the columns given by
    their positions, the rows in the order of the chunks and, within one, of
    (e, b).

    The values run in int64 only when terms * max|val| < 2**62, and the sort
    keys when (rows) * (columns) < 2**62; otherwise both run on object-dtype
    Python ints (`int_dtype`), still exact.
    """
    import numpy as np

    ncols, nblocks = len(block_of), int(block_of.max(initial=0)) + 1
    parts = []  # per chunk: (block of each row, row lengths, columns, values)
    for eq, col, val in chunks:
        if not len(eq):
            continue
        val = val.astype(int_dtype(terms * int(np.abs(val).max())))
        key = eq.astype(int_dtype((int(eq.max()) + 1) * nblocks * ncols))
        key = (key * nblocks + block_of[col]) * ncols + col
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        first = _run_starts(key)
        key, val = key[first], np.add.reduceat(val, first)
        nonzero = val != 0
        key, val = key[nonzero], val[nonzero]
        if not len(key):
            continue
        row, col = key // ncols, (key % ncols).astype(np.int64)
        start = _run_starts(row)
        lens = np.diff(start, append=len(key))
        g = np.gcd.reduceat(np.abs(val), start)
        val = val // np.repeat(np.where(val[start] < 0, -g, g), lens)
        # deduplicated per chunk first, so that only about the distinct rows
        # are held until the last pass
        parts.append(_distinct_rows(block_of[col[start]], start, lens, col, val))
    if not parts:
        return {b: IntRows.from_dicts(()) for b in range(nblocks)}
    blocks, lens, cols, vals = (np.concatenate(a) for a in zip(*parts))
    if len(parts) > 1:  # the rows of one chunk are distinct already
        blocks, lens, cols, vals = _distinct_rows(blocks, np.r_[0, np.cumsum(lens)[:-1]], lens,
                                                  cols, vals)
    by_block = np.argsort(np.repeat(blocks, lens), kind="stable")
    rows = np.argsort(blocks, kind="stable")
    blocks, lens = blocks[rows], lens[rows]
    cols, vals = position_of[cols[by_block]], vals[by_block]
    row_cut = np.searchsorted(blocks, np.arange(nblocks + 1)).tolist()
    entry_cut = np.r_[0, np.cumsum(lens)][row_cut].tolist()
    return {b: IntRows(lens[row_cut[b]:row_cut[b + 1]], cols[entry_cut[b]:entry_cut[b + 1]],
                       vals[entry_cut[b]:entry_cut[b + 1]]) for b in range(nblocks)}


def _distinct_rows(blocks, starts, lens, cols, vals) -> tuple:
    """(blocks, lens, cols, vals) of the rows, given by their starts and lens
    into cols and vals, that no earlier row equals.

    int64 rows are grouped by a 64-bit hash of their entries, and each row is
    compared entry by entry with the first row of its group; a collision,
    where they differ, sends the rows to the exact comparison of tuples that
    object values always take."""
    import numpy as np
    keep = None
    if vals.dtype != object:
        h = _row_hashes(starts, lens, cols, vals)
        _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
        dup = np.flatnonzero(first[inverse] != np.arange(len(h)))
        rep = first[inverse[dup]]
        if (lens[dup] == lens[rep]).all():
            a, b = _entries(starts[dup], lens[dup]), _entries(starts[rep], lens[dup])
            same = (cols[a] == cols[b]) & (vals[a] == vals[b])
            if same.all():
                keep = np.sort(first)
    if keep is None:
        seen: dict = {}
        for r, (s, m) in enumerate(zip(starts.tolist(), lens.tolist())):
            seen.setdefault((tuple(cols[s:s + m].tolist()), tuple(vals[s:s + m].tolist())), r)
        keep = np.array(sorted(seen.values()), dtype=np.int64)
    at = _entries(starts[keep], lens[keep])
    return blocks[keep], lens[keep], cols[at], vals[at]


def _run_starts(a):
    """Indices of the entries of a sorted array that differ from the one before."""
    import numpy as np
    return np.flatnonzero(np.concatenate(([len(a) > 0], a[1:] != a[:-1])))


def _entries(starts, lens):
    """Indices of the entries of the rows given by starts and lens, row after row."""
    import numpy as np
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def _row_hashes(starts, lens, cols, vals):
    """A 64-bit hash of each row's length and (column, value) entries
    (splitmix64 finaliser of each entry, summed per row, wrapping)."""
    import numpy as np
    u = np.uint64
    x = cols.astype(u) * u(0x9E3779B97F4A7C15) + vals.astype(u)
    x ^= x >> u(30)
    x *= u(0xBF58476D1CE4E5B9)
    x ^= x >> u(27)
    x *= u(0x94D049BB133111EB)
    x ^= x >> u(31)
    return np.add.reduceat(x, starts) + lens.astype(u) * u(0xD6E8FEB86659FD93)


def _rational_rows(store: dict[int, dict], ncols: int):
    """Read an `_echelon` store off as (rows, pivots): dense rational rows
    r/r[p], sorted by pivot column p.  Rationals are formed only here."""
    pivots = sorted(store)
    rows = []
    for p in pivots:
        r, d = store[p], store[p][p]
        v = [ZERO] * ncols
        for j, x in r.items():
            v[j] = Q(x, d)
        rows.append(tuple(v))
    return rows, pivots


def _combine(s: int, v: dict, terms) -> dict:
    """The primitive part of s*v - sum(f*r for f, r in terms), zeros dropped."""
    out = {c: s * x for c, x in v.items()}
    for f, r in terms:
        for c, x in r.items():
            out[c] = out.get(c, 0) - f * x
    g = gcd(*out.values())
    return {c: x // g for c, x in out.items() if x} if g else {}


def _reduce(row: dict, store: dict[int, dict]) -> dict:
    """The primitive part of row reduced by an `_echelon` store in one pass:
    m*row - sum (m*row[c]/r[c])*r over its pivot columns c, with m the lcm of
    those pivot entries."""
    hits = [(c, x) for c, x in row.items() if c in store]
    if not hits:
        return row
    m = lcm(*(store[c][c] for c, _ in hits))
    return _combine(m, row, [(m // store[c][c] * x, store[c]) for c, x in hits])


def _echelon(int_rows: list[dict]) -> dict[int, dict]:
    """Fraction-free elimination of sparse integer rows.

    Returns a store mapping each pivot column to an integer row, kept in full
    RREF up to scaling: a row is zero in every other row's pivot column.  So
    a new row is reduced in one pass (`_reduce`), and each row operation is
    followed by division by the row gcd.
    """
    store: dict[int, dict] = {}
    for row in sorted(int_rows, key=len):
        v = _reduce(row, store)
        if not v:
            continue
        lead = min(v)
        b = v[lead]
        for p, r in store.items():
            a = r.get(lead)
            if a:
                g = gcd(a, b)
                store[p] = _combine(b // g, r, [(a // g, v)])
        store[lead] = v
    return store


_KERNEL_CHUNK = 2 ** 13  # products per chunk of the kernel certificate (~0.7 MB of arrays)


def _verify_kernel(int_rows: IntRows, vecs: IntRows, ncols: int):
    """The mask of the vectors (the rows of vecs) that fail to kill some
    row of int_rows: a join on the column, each row entry times the vector
    entries on its column, whole rows and about _KERNEL_CHUNK products at a
    time, summed per (row, vector) by a sort and `np.add.reduceat`.  A sum
    has at most (longest row) terms: int64 when max|row| * max|v| * (longest
    row) < 2**62, else object-dtype Python ints."""
    import numpy as np

    bad = np.zeros(len(vecs), dtype=bool)
    dtype = int_dtype(int(np.abs(int_rows.vals).max(initial=1))  # so at least max|v|, to cast v
                      * int(np.abs(vecs.vals).max(initial=0)) * int(int_rows.lens.max(initial=1)))
    by_col = np.argsort(vecs.cols, kind="stable")
    owner = np.repeat(np.arange(len(vecs)), vecs.lens)[by_col]
    v = vecs.vals[by_col].astype(dtype)
    count = np.bincount(vecs.cols, minlength=ncols)
    where = np.cumsum(count) - count  # the first vector entry on each column
    hit = np.flatnonzero((count > 0)[int_rows.cols])  # the row entries that meet one
    row = np.searchsorted(np.cumsum(int_rows.lens), hit, side="right")
    per = count[int_rows.cols[hit]]
    ends = np.cumsum(per)
    first = 0
    while first < len(hit):
        last = max(first + 1, int(np.searchsorted(ends, ends[first] - per[first] + _KERNEL_CHUNK,
                                                  side="right")))
        last = int(np.searchsorted(row, row[last - 1], side="right"))  # whole rows
        e = np.repeat(np.arange(last - first), per[first:last])
        at = _entries(where[int_rows.cols[hit[first:last]]], per[first:last])
        key = (row[first:last][e] - row[first]) * len(vecs) + owner[at]
        order = np.argsort(key, kind="stable")
        key, prod = key[order], (int_rows.vals[hit[first:last]].astype(dtype)[e] * v[at])[order]
        head = _run_starts(key)
        bad[key[head][np.add.reduceat(prod, head) != 0] % len(vecs)] = True
        first = last
    return bad


def span_in_kernel(int_rows: IntRows, vecs: IntRows, ncols: int, message) -> list:
    """The sorted pivot columns of the span of vecs (the rows of an
    `IntRows`), each certified to kill every row: CertificateError(
    message(bad)) if the vectors of the indices bad do not."""
    bad = _verify_kernel(int_rows, vecs, ncols).nonzero()[0]
    if len(bad):
        raise CertificateError(message(bad))
    return sorted(_echelon(vecs.dicts()))


def kernel_sparse(rows: Iterable[dict], ncols: int) -> list[tuple]:
    """Canonical RREF kernel basis of a sparse system (rows: dicts col->scalar):
    the rows scaled to distinct primitive integer rows, then `integer_kernel`."""
    return list(integer_kernel(IntRows.from_dicts(primitive_rows(rows)), ncols).basis)


def _absorb(int_rows: IntRows, ncols: int):
    """Structured elimination of the rows that tie columns: (root, sign, core).

    Column c is x_c = sign[c] * x_root[c], sign 0 for a column forced to 0,
    and core holds the rows left over the live roots (sign 1, root itself).
    Each round substitutes (root, sign) into the rows, sums their entries
    per (row, column) by `np.add.reduceat` and drops zeros.  A row left with
    one entry forces its column to 0; a row a x_c + b x_d with |a| = |b|,
    c < d and neither column forced to 0 this round, ties x_d = -(a/b) x_c.
    A column tied by several rows takes the smallest c, and the other rows
    stay; parents have smaller indices, so pointer jumping ends.  Rounds
    repeat until one absorbs nothing, and its rows are the core.

    An entry is a sum of at most (longest row) signed entries of its row, so
    the values run in int64 only when that times max|entry| is below 2**62
    (`int_dtype`), and on object-dtype Python ints otherwise.
    """
    import numpy as np

    root, sign = np.arange(ncols), np.ones(ncols, dtype=np.int64)
    if not len(int_rows):
        return root, sign, int_rows
    lens = int_rows.lens
    vals = int_rows.vals.astype(int_dtype(int(lens.max()) * int(np.abs(int_rows.vals).max())))
    row, col = np.repeat(np.arange(len(lens)), lens), int_rows.cols
    key_type = int_dtype(len(lens) * ncols)
    while len(row):
        key = row.astype(key_type) * ncols + root[col]
        vals = vals * sign[col]
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        first = _run_starts(key)
        key, vals = key[first], np.add.reduceat(vals, first)
        nonzero = vals != 0
        key, vals = key[nonzero], vals[nonzero]
        row, col = (key // ncols).astype(np.int64), (key % ncols).astype(np.int64)
        start = _run_starts(row)
        lens = np.diff(start, append=len(row))
        single, pair = lens == 1, np.flatnonzero(lens == 2)
        zeroed = np.zeros(ncols, dtype=bool)
        zeroed[col[start[single]]] = True
        at = start[pair]
        a, b, c, d = vals[at], vals[at + 1], col[at], col[at + 1]
        tie = np.flatnonzero((abs(a) == abs(b)) & ~zeroed[c] & ~zeroed[d])
        by_child = tie[np.lexsort((c[tie], d[tie]))]
        chosen = by_child[_run_starts(d[by_child])]
        if not len(chosen) and not single.any():
            return root, sign, IntRows(lens, col, vals)
        parent, step = np.arange(ncols), np.ones(ncols, dtype=np.int64)
        parent[d[chosen]] = c[chosen]
        step[d[chosen]] = np.where((a[chosen] > 0) == (b[chosen] > 0), -1, 1)
        while (parent[parent] != parent).any():
            step, parent = step * step[parent], parent[parent]
        step[zeroed] = 0
        # the rows just absorbed are 0 once substituted: drop them now
        single[pair[chosen]] = True
        keep = ~np.repeat(single, lens)
        row, col, vals = row[keep], col[keep], vals[keep]
        root, sign = parent[root], sign * step[root]
    return root, sign, IntRows.from_dicts(())


def _free_vectors(int_rows: IntRows, ncols: int):
    """(rank, free, vecs) of a sparse integer system: `_absorb` leaves the
    core rows to `_echelon`, and vecs[k] (col -> int) is the kernel vector
    of the free root f = free[k]: m at f, m the lcm of the pivots p of the
    rows r nonzero at f (a column -> pivots index finds them), -r[f]*m/r[p]
    at each p, carried to every column tied to those roots."""
    import numpy as np

    root, sign, core = _absorb(int_rows, ncols)
    store = _echelon(core.dicts())
    is_root = root == np.arange(ncols)
    rank = int((is_root & (sign == 0)).sum()) + int((~is_root).sum()) + len(store)
    live = np.flatnonzero(is_root & (sign != 0))
    # the columns of each live root, with their signs
    at = np.flatnonzero(sign != 0)
    at = at[np.argsort(root[at], kind="stable")]
    cut = np.searchsorted(root[at], live).tolist() + [len(at)]
    members = {r: list(zip(at[lo:hi].tolist(), sign[at[lo:hi]].tolist()))
               for r, lo, hi in zip(live.tolist(), cut, cut[1:])}
    hits: dict = {}  # column -> the pivots whose rows are nonzero on it
    for p, r in store.items():
        for c in r.keys() - {p}:
            hits.setdefault(c, []).append(p)
    free, vecs = [f for f in live.tolist() if f not in store], []
    for f in free:
        ps = hits.get(f, [])
        m = lcm(*(store[p][p] for p in ps))
        v = {f: m, **{p: -store[p][f] * (m // store[p][p]) for p in ps}}
        vecs.append({c: s * x for q, x in v.items() for c, s in members[q]})
    return rank, np.array(free, dtype=np.int64), vecs


_KERNEL_FAILED = ("kernel verification failed: the basis needs one vector per free column, "
                  "each killing every row")


def integer_kernel(int_rows: IntRows, ncols: int) -> Subspace:
    """The kernel of a sparse integer system as a `Subspace` of Q^ncols
    (callers pass the rows primitive and distinct, as `primitive_rows` and
    `primitive_row_blocks` leave them).

    `_echelon` brings the vectors of `_free_vectors` to the canonical basis,
    certified to have ncols - rank vectors, each killing every original row
    (`_verify_kernel`); rationals are formed only at the end, and the
    `Subspace` takes that basis as it is."""
    rank, _, vecs = _free_vectors(int_rows, ncols)
    basis = _echelon(vecs)
    certify(len(basis) == ncols - rank
            and not _verify_kernel(int_rows, IntRows.from_dicts(basis.values()), ncols).any(),
            _KERNEL_FAILED)
    return Subspace._from_canonical(ncols, *_rational_rows(basis, ncols))


def kernel_columns(int_rows: IntRows, ncols: int):
    """The free columns of a sparse integer system, a sorted int array with
    one entry per kernel dimension, certified with neither a canonical basis
    nor a rational: there are ncols - rank of them, the vector of each
    (`_free_vectors`) is the only one nonzero on its own free column, so the
    vectors are independent, and each kills every original row."""
    import numpy as np
    rank, free, vecs = _free_vectors(int_rows, ncols)
    vecs = IntRows.from_dicts(vecs)
    on = np.isin(vecs.cols, free) & (vecs.vals != 0)  # the entries on free columns
    k = np.repeat(np.arange(len(vecs)), vecs.lens)[on]  # and their vectors
    certify(len(free) == ncols - rank and np.array_equal(k, np.arange(len(free)))
            and np.array_equal(free[k], vecs.cols[on])
            and not _verify_kernel(int_rows, vecs, ncols).any(), _KERNEL_FAILED)
    return free
