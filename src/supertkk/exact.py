"""Exact rational linear algebra: the substrate every other module solves on.

Scalars are arbitrary-precision rationals (`fractions.Fraction`).  No
floating point anywhere: every identity this package checks is an algebraic
identity over Q and must hold exactly.

There is one elimination, fraction-free over the integers, for kernels,
spans, solves and generator coordinates (`kernel_sparse` and its
integer-row core `integer_kernel`, `Subspace`, `GeneratedSpan`, `solve`):
each row is scaled to a primitive integer row and eliminated over the
integers (Bareiss-style v <- b*v - a*r, divided by the row gcd).  What is
read off stays on the integers: a `Subspace` is its canonical RREF basis
as integer rows over one least common denominator (`rows`, `den`,
`pivots`), taken straight off the elimination store, with `basis` its
rational view.  A `GeneratedSpan` holds its generators once, as the rows
of an integer array with a denominator each, eliminates them once and then
writes any number of members in those generators in one batched pass over
the pivot rows as arrays (`_read`), as integers over one denominator
(`coordinates`) or, for one member, as rationals (`express`).
`integer_kernel` takes its system as `IntRows` (flat numpy arrays) and
first runs a vectorised structured-elimination pre-pass (`_absorb`): rows
with one entry zero their column and rows a x_c + b x_d with |a| = |b| tie
x_d to x_c, round after round, so only the core rows left reach the
elimination; its rank is the zeroed roots plus the tied columns plus the
core pivots (`kernel_columns` stops at that count).  A core with more
entries than a dense system of 2 * ncols rows is eliminated on its
shortest rows, and on the rows the certificate finds their vectors miss,
in at most two rounds that share one pre-pass (`_kernel_rounds`).  Every
kernel vector is verified exactly against every original row, there is one
per free column, and every batch of members is recombined from its
coefficients by one integer product; a failure of either certificate raises
CertificateError, so the checks survive `python -O`.
`Matrix` is only the immutable container of such systems and of their
results; no operator arithmetic runs on it.

Integer systems assembled as numpy COO triplets are made primitive by
`primitive_row_blocks`, one vectorised pass per chunk of equations (sort,
sum duplicates, drop zeros, divide by the row gcd, fix the sign), which also
splits them into blocks of columns (an `IntRows` each) and removes repeated
rows; `primitive_rows` serves dense or rational rows (`Subspace` and
`kernel_sparse`).  `integer_kernel` returns its canonical basis as a
`Subspace` read straight off the elimination, and `Subspace.embedded`
places it in a larger space without a second one.  The kernel certificate
(`_verify_kernel`) is a sparse join on the column: each nonzero row entry
meets only the range of vector entries on its column (Gustavson, ACM TOMS
4, 1978).  `range_join` is that join, and `tensor.jacobi_defect` runs on it
too.
Every numpy path runs in int64 only after proving its bound below 2**62
(`int_dtype`), else on object-dtype Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational, Real
from typing import Iterable, Sequence


def Q(value=0, den=None):
    """Exact rational from an int, a "p/q" string, or another rational.

    A rational is returned as it is (rationals are immutable): every entry
    of a `Matrix` and every vector a `Subspace` reduces passes through here.
    A float, numpy's included, raises TypeError: its binary expansion is no
    constant anyone wrote down."""
    if den is not None:
        return Fraction(value, den)
    if type(value) is Fraction:
        return value
    if type(value) is not int and isinstance(value, Real) and not isinstance(value, Rational):
        raise TypeError(f"not an exact rational: {value!r} ({type(value).__name__})")
    return Fraction(value)


ZERO = Q(0)
ONE = Q(1)


class CertificateError(ValueError):
    """A certificate failed: a computed result did not verify exactly."""


def certify(ok, message: str):
    """Raise CertificateError(message) unless ok; unlike assert, survives python -O."""
    if not ok:
        raise CertificateError(message)


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
# subspaces and spans, on integers over one denominator


def _sparse(vec: Sequence, ambient: int) -> dict:
    """vec as a sparse row (col -> entry), its length checked against ambient."""
    v = tuple(vec)
    if len(v) != ambient:
        raise ValueError(f"ambient dimension mismatch: {len(v)} != {ambient}")
    return {j: x for j, x in enumerate(v) if x}


def _scaled(vec: Sequence, ambient: int) -> tuple[dict, int]:
    """(row, d): vec = row / d, row a sparse integer row (col -> int) and d
    the lcm of the denominators of vec's entries (`GeneratedSpan`)."""
    items = [(j, x if isinstance(x, (int, Fraction)) else Q(x))
             for j, x in _sparse(vec, ambient).items()]
    d = lcm(1, *{int(x.denominator) for _, x in items})
    return {j: int(x.numerator) * (d // int(x.denominator)) for j, x in items}, d


def solve(m: Matrix, b: Sequence):
    """Some x with m@x = b (0 at each column that depends on earlier ones), or
    None if inconsistent: `GeneratedSpan` over the columns of m, certified."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    return GeneratedSpan([m.column(c) for c in range(m.cols)], m.rows).express(b)


class Subspace:
    """Subspace of Q^n, kept as its canonical RREF basis on the integers.

    rows[i] / den is the basis vector with pivot pivots[i] (1 there, 0 at
    the other pivots), the rows dense integer tuples sorted by pivot and den
    the least common denominator of the basis; so the form is unique,
    equality and hash compare it, and `basis` is its rational view, formed
    on first use."""

    __slots__ = ("ambient", "rows", "den", "pivots", "_basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self._take(ambient, _echelon(primitive_rows(_sparse(v, ambient) for v in vectors)))

    def _take(self, ambient: int, store: dict[int, dict]) -> "Subspace":
        """Read an `_echelon` store off as it is: each row r divided by its
        gcd, so that |r[p]| is the least denominator of r / r[p], and den the
        lcm of those (`lcm` drops the sign, which den // r[p] carries)."""
        self.ambient, self.pivots, self._basis = ambient, tuple(sorted(store)), None
        prim = [(store[p], gcd(*store[p].values()), p) for p in self.pivots]
        self.den = lcm(1, *(r[p] // g for r, g, p in prim))
        rows = []
        for r, g, p in prim:
            row, f = [0] * ambient, self.den // (r[p] // g)
            for c, x in r.items():
                row[c] = x // g * f
            rows.append(tuple(row))
        self.rows = tuple(rows)
        return self

    @classmethod
    def _of(cls, ambient: int, store: dict[int, dict]) -> "Subspace":
        """The span of the rows of an `_echelon` store, with no second elimination."""
        return cls.__new__(cls)._take(ambient, store)

    @classmethod
    def from_int_rows(cls, ambient: int, int_rows: "IntRows") -> "Subspace":
        """The span of the rows of an integer system (`IntRows`)."""
        return cls._of(ambient, _echelon(int_rows.dicts()))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls._of(ambient, {j: {j: 1} for j in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The canonical basis as tuples of rationals rows[i] / den."""
        if self._basis is None:
            self._basis = tuple(tuple(Q(x, self.den) if x else ZERO for x in row)
                                for row in self.rows)
        return self._basis

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: eliminate [v|v] over self and [w|0] over other; the rows
        # pivoting in the right half vanish on the left and are the canonical
        # basis of the intersection there
        self._check_ambient(other)
        n = self.ambient
        stacked = [v + v for v in self.rows] + [w + (0,) * n for w in other.rows]
        store = _echelon(primitive_rows(dict(enumerate(v)) for v in stacked))
        return Subspace._of(n, {p - n: {c - n: x for c, x in r.items()}
                                for p, r in store.items() if p >= n})

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
        return Subspace._of(ambient, {positions[p]: {positions[j]: x for j, x in enumerate(v) if x}
                                      for v, p in zip(self.rows, self.pivots)})

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.den == other.den and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.den, self.rows))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def span(vectors: Sequence[Sequence], ambient: int | None = None) -> Subspace:
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("span of an empty list needs an explicit ambient")
        ambient = len(vectors[0])
    return Subspace(ambient, vectors)


def _integer_rows(vectors, ambient: int) -> tuple:
    """(V, e): the rows vectors[r] = V[r] / e[r], V a 2-d integer array
    (int64 when its entries allow, else object) and e[r] > 0 the least
    denominator of row r, as a list.  An array of integers is taken as it
    is, with every e[r] = 1; other rows are scaled one by one (`_scaled`)."""
    import numpy as np
    if isinstance(vectors, np.ndarray) and (vectors.dtype.kind in "iu" or (
            vectors.dtype == object and all(type(x) is int for x in vectors.flat))):
        if vectors.ndim != 2 or vectors.shape[1] != ambient:
            raise ValueError(f"ambient dimension mismatch: {vectors.shape[-1]} != {ambient}")
        return vectors, [1] * len(vectors)
    scaled = [_scaled(v, ambient) for v in vectors]
    V = np.zeros((len(scaled), ambient), dtype=int_dtype(
        max((abs(x) for row, _ in scaled for x in row.values()), default=0)))
    for r, (row, _) in enumerate(scaled):
        V[r, list(row)] = list(row.values())
    return V, [d for _, d in scaled]


class GeneratedSpan:
    """The span of a fixed generator list, eliminated once, that writes its
    members as combinations of the generators.

    Each generator g_i is held once, on the integers, as g_i = G_i / d_i
    with G_i row i of an integer array (`_gens`) and d_i > 0 its
    denominator (`_dens`).  One `_echelon` runs over the rows
    [G_i | d_i e_i], e_i at column ambient + k - 1 - i for k generators.  A row with a right-half pivot is
    a relation led by the last generator it involves, so the generators a
    left-to-right greedy scan keeps are those whose identity column is no
    pivot (`independent`).  A left-pivot row reads w = sum t_i g_i off its
    right half, and full RREF puts t on the independent generators only, so
    the coefficients over those are unique.  Members are read a batch at a
    time in one certified pass (`_read`): `coordinates` gives a batch as
    integers over one denominator, and `express`, the case of one member,
    as rationals."""

    __slots__ = ("ambient", "count", "independent", "_gens", "_dens", "_store", "_pivots")

    def __init__(self, generators, ambient: int):
        import numpy as np
        self.ambient = ambient
        self._gens, self._dens = _integer_rows(generators, ambient)
        self.count = len(self._gens)
        top = ambient + self.count - 1
        rows: list = [{} for _ in range(self.count)]
        at, col = np.nonzero(self._gens)
        for i, c, x in zip(at.tolist(), col.tolist(), self._gens[at, col].tolist()):
            rows[i][c] = x
        self._store = _echelon([row_primitive({**row, top - i: d})
                                for i, (row, d) in enumerate(zip(rows, self._dens))])
        self.independent = tuple(i for i in range(self.count)
                                 if top - i not in self._store)
        self._pivots = None

    @property
    def dim(self) -> int:
        return len(self.independent)

    def _pivot_arrays(self) -> tuple:
        """(piv, P, p, bound, lg, scale), formed on the first read: the left
        pivot columns piv, P[t] the store row of piv[t] over the ambient
        columns and then the generators in order, p[t] = P[t, piv[t]],
        bound = lcm(p) * (1 + len(piv) * max|P|), lg the lcm of the d_i and
        scale[i] = lg / d_i."""
        import numpy as np
        n, top = self.ambient, self.ambient + self.count - 1
        piv = sorted(c for c in self._store if c < n)
        P = np.zeros((len(piv), n + self.count), dtype=int_dtype(
            max((abs(x) for c in piv for x in self._store[c].values()), default=0)))
        for t, c in enumerate(piv):
            row = self._store[c]
            P[t, [j if j < n else n + top - j for j in row]] = list(row.values())
        p = P[np.arange(len(piv)), piv]
        bound = lcm(1, *p.tolist()) * (1 + len(piv) * int(np.abs(P).max(initial=0)))
        lg = lcm(1, *self._dens)
        scale = np.array([lg // d for d in self._dens], dtype=int_dtype(lg))
        return np.array(piv, dtype=np.int64), P, p, bound, lg, scale

    def _read(self, V, e: list):
        """(C, den) with V[r] / e[r] = sum_i C[r, i] / den g_i for every row
        r, C an integer array over all the generators (0 at the dependent
        ones) and den > 0 the least common denominator, or None if some row
        lies outside the span.

        One fraction-free step for the whole batch (Bareiss, Math. Comp. 22,
        1968): row r is scaled by L_r, the lcm of the pivot entries p_t it
        meets (V[r, piv[t]] != 0), and reduced by one product with the pivot
        rows, L_r [V[r] | 0] - F[r] P with F[r, t] = (L_r / p_t) V[r, piv[t]].
        Full RREF zeroes every pivot column, so the left half vanishes iff
        the row lies in the span, and then c_i = (F P)[r, ambient + i] /
        (L_r e_r), brought to lowest terms over den.  One recombination
        product certifies every row, with lg the lcm of the d_i:
        e_r sum_i C[r, i] (lg / d_i) G_i = den lg V[r].  Each product runs
        in int64 only when its bound is below 2**62 (`int_dtype`), else on
        object-dtype Python ints."""
        import numpy as np
        if self._pivots is None:
            self._pivots = self._pivot_arrays()
        piv, P, p, bound, lg, scale = self._pivots
        n, emax = self.ambient, max(e, default=1)
        vmax = int(np.abs(V).max(initial=0))
        # L_r divides lcm(p) and |F[r, t]| <= L_r |V|
        dtype = int_dtype(bound * max(vmax, emax))
        V, P, p = (a.astype(dtype, copy=False) for a in (V, P, p))
        W = V[:, piv]
        L = np.lcm.reduce(np.where(W != 0, p, 1), axis=1, initial=1)
        R = (L[:, None] // p * W) @ P
        if (R[:, :n] != L[:, None] * V).any():
            return None
        N, D = R[:, n:], L * np.array(e, dtype=dtype)
        g = np.gcd(np.gcd.reduce(N, axis=1), D)  # D > 0, so g > 0
        m = D // g
        den = lcm(1, *m.tolist())
        N = N // g[:, None]
        dtype = int_dtype(int(np.abs(N).max(initial=0)) * den)
        C = N.astype(dtype) * np.array([den // x for x in m.tolist()], dtype=dtype)[:, None]
        top = int(np.abs(C).max(initial=0))
        C = C.astype(int_dtype(top), copy=False)
        G = self._gens
        # max(top, 1): at least max|G|, to cast G
        dtype = int_dtype(max(max(top, 1) * int(scale.max(initial=0)) * self.count * emax
                              * int(np.abs(G).max(initial=0)), den * lg * vmax))
        got = (C.astype(dtype) * scale.astype(dtype)) @ G.astype(dtype)
        certify(np.array_equal(got * np.array(e, dtype=dtype)[:, None],
                               V.astype(dtype) * (den * lg)),
                "solve verification failed: sum c_i g_i != v")
        return C, den

    def coordinates(self, vectors, message: str) -> tuple:
        """(C, den): vectors[r] = sum_i C[r, i] / den g_i, C an integer array
        over all the generators (0 at the dependent ones) and den > 0 the
        least common denominator, read and certified in one pass (`_read`);
        a vector outside the span raises CertificateError(message).  An
        integer array of vectors is read as it is, other rows are scaled
        to integers first."""
        got = self._read(*_integer_rows(vectors, self.ambient))
        certify(got is not None, message)
        return got

    def express(self, vec: Sequence):
        """Coefficients over the generators reproducing vec, as rationals,
        or None if vec is outside the span: `_read` of one row."""
        import numpy as np
        got = self._read(*_integer_rows(vec[None] if isinstance(vec, np.ndarray) else [vec],
                                        self.ambient))
        if got is None:
            return None
        C, den = got
        return tuple(Q(x, den) if x else ZERO for x in C[0].tolist())


# ---------------------------------------------------------------------------
# sparse kernel by fraction-free integer elimination


def row_primitive(row: dict) -> dict:
    """Scale a sparse rational row to a primitive integer row, its entry in
    the lowest column positive.  For dense or rational rows (`Subspace`,
    `GeneratedSpan`); assembled integer systems take
    `primitive_row_blocks`."""
    # ints and rationals already carry numerator/denominator; re-wrapping
    # them in Q() was the larger part of this function's time
    items = [(c, v if isinstance(v, (int, Fraction)) else Q(v))
             for c, v in row.items() if v]
    items = [(c, v) for c, v in items if v]  # a "0" string is truthy
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

    Each chunk is reduced in one vectorised pass: the triplets are summed
    per (e, b, c) by `sum_by_key`, which drops zeros, and each row is
    divided by its gcd (`np.gcd.reduceat`), signed so that its first entry
    is positive, as `row_primitive` signs.  Rows repeated anywhere in
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
        key, val = sum_by_key(key, val)
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
        first, rep = _first_occurrences(_row_hashes(starts, lens, cols, vals))
        dup = np.flatnonzero(rep != np.arange(len(rep)))
        rep = rep[dup]
        if (lens[dup] == lens[rep]).all():
            a, b = (concat_ranges(starts[r], lens[dup]) for r in (dup, rep))
            same = (cols[a] == cols[b]) & (vals[a] == vals[b])
            if same.all():
                keep = first
    if keep is None:
        seen: dict = {}
        for r, (s, m) in enumerate(zip(starts.tolist(), lens.tolist())):
            seen.setdefault((tuple(cols[s:s + m].tolist()), tuple(vals[s:s + m].tolist())), r)
        keep = np.array(sorted(seen.values()), dtype=np.int64)
    at = concat_ranges(starts[keep], lens[keep])
    return blocks[keep], lens[keep], cols[at], vals[at]


def _first_occurrences(h):
    """(first, rep): the ascending indices of the first occurrence of each
    distinct value of h, and for each index that of its value.  One sort of
    h, which need not be stable: `np.minimum.reduceat` takes the least index
    of each run of equal values."""
    import numpy as np
    order = np.argsort(h)
    start = _run_starts(h[order])
    first = np.minimum.reduceat(order, start)
    rep = np.empty_like(order)
    rep[order] = np.repeat(first, np.diff(start, append=len(h)))
    return np.sort(first), rep


def sum_by_key(keys, vals):
    """(keys, sums): the distinct keys of an array in ascending order with
    the sums of their values (`np.add.reduceat` over one sort of the keys),
    those summing to zero dropped.  The sort need not be stable: exact
    integer sums do not depend on the order of their terms."""
    import numpy as np
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = _run_starts(keys)
    keys, vals = keys[first], np.add.reduceat(vals, first)
    keep = vals != 0
    return keys[keep], vals[keep]


def range_join(ranges, varying, scale: int, chunk: int):
    """The nonzero sums of a sparse product, as (keys, sums) per chunk, of
    the sums known complete after it (Gustavson's row-wise join, ACM TOMS 4,
    1978).

    ranges = (start, size, const, value, flag): each fixed nonzero meets
    the entries start .. start + size - 1 of the varying side, given as one
    array each of keys, values and parity bits, varying = (key, val, odd),
    sorted by the contracted index so that a range is contiguous.  A product
    adds value * val, negated where flag and odd are both set (flag None:
    never), to the sum of key const + key.  Every key of a range lies in
    [lead * scale, (lead + 1) * scale) for its lead const // scale, and the
    ranges come in ascending order of lead.

    The ranges run in that order, whole, about `chunk` products at a time
    and at least one range per chunk; each chunk is enumerated by
    `np.repeat`/`concat_ranges` and folded with the sums left open into sorted
    nonzero sums (`sum_by_key`).  Once no range of a lead is left, the sums
    below it are complete: they are yielded and dropped, so only the sums of
    the lead under way are held.  The values must be of a dtype that holds
    every sum."""
    import numpy as np
    start, size, const, value, flag = ranges
    key, val, odd = varying
    ends = np.cumsum(size)
    keys, sums = np.zeros(0, dtype=const.dtype), np.zeros(0, dtype=value.dtype)
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - size[lo] + chunk, side="right")))
        m = size[lo:hi]
        at = concat_ranges(start[lo:hi], m)
        v = np.repeat(value[lo:hi], m) * val[at]
        if flag is not None:
            np.negative(v, out=v, where=np.repeat(flag[lo:hi], m) & odd[at])
        keys, sums = sum_by_key(np.concatenate([keys, np.repeat(const[lo:hi], m) + key[at]]),
                                np.concatenate([sums, v]))
        done = len(keys) if hi == len(ends) else int(np.searchsorted(keys, const[hi] // scale * scale))
        yield keys[:done], sums[:done]
        keys, sums, lo = keys[done:], sums[done:], hi


def _run_starts(a):
    """Indices of the entries of a sorted array that differ from the one before."""
    import numpy as np
    return np.flatnonzero(np.concatenate(([len(a) > 0], a[1:] != a[:-1])))


def concat_ranges(starts, lens):
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
    """(bad, missed): the masks of the vectors (the rows of vecs) that fail
    to kill some row of int_rows, and of the rows that some vector fails to
    kill.  A `range_join` on the column: each row entry meets the range of
    the vector entries on its column, and the products are summed per (row,
    vector), led by the row, about _KERNEL_CHUNK at a time.  A sum has at
    most (longest row) terms: int64 when max|row| * max|v| * (longest row) <
    2**62, else object-dtype Python ints."""
    import numpy as np

    nvec = len(vecs)
    bad, missed = np.zeros(nvec, dtype=bool), np.zeros(len(int_rows), dtype=bool)
    dtype = int_dtype(int(np.abs(int_rows.vals).max(initial=1))  # so at least max|v|, to cast v
                      * int(np.abs(vecs.vals).max(initial=0)) * int(int_rows.lens.max(initial=1)))
    by_col = np.argsort(vecs.cols)
    owner = np.repeat(np.arange(nvec), vecs.lens)[by_col]
    count = np.bincount(vecs.cols, minlength=ncols)
    # one range per row entry that meets a vector entry, built an array at
    # a time: the w(5) tower's system has 288,320 of them
    hit = np.flatnonzero((count > 0)[int_rows.cols])
    const = np.searchsorted(np.cumsum(int_rows.lens), hit, side="right") * nvec
    value = int_rows.vals[hit].astype(dtype, copy=False)
    col = int_rows.cols[hit]
    del hit
    ranges = ((np.cumsum(count) - count)[col], count[col], const, value, None)
    del col, const, value
    for key, _ in range_join(ranges, (owner, vecs.vals[by_col].astype(dtype), None), nvec,
                             _KERNEL_CHUNK):
        bad[key % nvec] = missed[key // nvec] = True
    return bad, missed


def span_in_kernel(int_rows: IntRows, vecs: IntRows, ncols: int, message) -> list:
    """The sorted pivot columns of the span of vecs (the rows of an
    `IntRows`), each certified to kill every row: CertificateError(
    message(bad)) if the vectors of the indices bad do not."""
    bad = _verify_kernel(int_rows, vecs, ncols)[0].nonzero()[0]
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
    Each round substitutes (root, sign) into the rows and sums their entries
    per (row, column) by `sum_by_key`, which drops zeros.  A row left with
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
        key, vals = sum_by_key(key, vals * sign[col])
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


def _tall(int_rows: IntRows, ncols: int) -> bool:
    """Whether a system holds more entries than a dense one of 2 * ncols
    rows: its core is then eliminated on its 2 * ncols shortest rows first
    (`_kernel_rounds`)."""
    return len(int_rows.cols) > 2 * ncols * ncols


def _free_vectors(root, sign, rows: list):
    """(rank, free, vecs) of the rows (dicts over the live roots) left to
    eliminate once `_absorb` tied every column c to root[c] with sign[c]:
    vecs[k] (col -> int) is the kernel vector of the free root f = free[k]:
    m at f, m the lcm of the pivots p of the rows r nonzero at f (a column
    -> pivots index finds them), -r[f]*m/r[p] at each p, carried to every
    column tied to those roots.  The vectors span the kernel of the rows
    eliminated (all of the core, or a tall system's subset chosen by
    `_kernel_rounds`), which only a certificate can show to be the kernel
    of the system; the rank counts the pivots of the rows eliminated."""
    import numpy as np

    ncols = len(root)
    store = _echelon(rows)
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


def _kernel_rounds(int_rows: IntRows, ncols: int, finish):
    """(rank, free, out, bad): the vectors of `_free_vectors`, brought by
    finish to (out, its rows as `IntRows`), and the mask bad of those rows
    that fail to kill some row of the system (`_verify_kernel`).

    `_absorb` runs once.  A `_tall` system takes at most two rounds.  The
    first eliminates the 2 * ncols shortest rows of its core, chosen on its
    arrays (a stable argsort of the row lengths), so that only those rows
    become dicts.  If the join
    names rows that the vectors fail to kill, the second eliminates those
    rows too, with (root, sign) substituted, and the join runs again.  That
    completes the span: a row every vector kills is zero on the kernel of
    the rows eliminated, so it lies in their span.  The count argument of
    the callers holds for either round, as the rank of rows of the system is
    at most its rank: ncols - rank independent vectors that kill every row
    are a basis of the kernel."""
    import numpy as np

    root, sign, core = _absorb(int_rows, ncols)
    tall = _tall(int_rows, ncols)
    if tall:  # its shortest rows, in the order sorted(rows, key=len) gives
        short = np.argsort(core.lens, kind="stable")[:2 * ncols]
        at = concat_ranges((np.cumsum(core.lens) - core.lens)[short], core.lens[short])
        core = IntRows(core.lens[short], core.cols[at], core.vals[at])
    rows = core.dicts()
    rank, free, vecs = _free_vectors(root, sign, rows)
    out, kept = finish(vecs)
    bad, missed = _verify_kernel(int_rows, kept, ncols)
    if missed.any() and tall:
        lens = int_rows.lens[missed]
        sub = concat_ranges((np.cumsum(int_rows.lens) - int_rows.lens)[missed], lens)
        at, by, rows = root.tolist(), sign.tolist(), list(rows)
        for r in IntRows(lens, int_rows.cols[sub], int_rows.vals[sub]).dicts():
            tied: dict = {}
            for c, x in r.items():
                tied[at[c]] = tied.get(at[c], 0) + by[c] * x
            rows.append({c: x for c, x in tied.items() if x})
        rank, free, vecs = _free_vectors(root, sign, rows)
        out, kept = finish(vecs)
        bad, _ = _verify_kernel(int_rows, kept, ncols)
    return rank, free, out, bad


def _canonical(vecs: list) -> tuple:
    """The `_echelon` store of vecs, with its rows as `IntRows`."""
    basis = _echelon(vecs)
    return basis, IntRows.from_dicts(basis.values())


_KERNEL_FAILED = ("kernel verification failed: the basis needs one vector per free column, "
                  "each killing every row")


def integer_kernel(int_rows: IntRows, ncols: int) -> Subspace:
    """The kernel of a sparse integer system as a `Subspace` of Q^ncols
    (callers pass the rows primitive and distinct, as `primitive_rows` and
    `primitive_row_blocks` leave them).

    `_echelon` brings the vectors of `_free_vectors` to the canonical basis,
    certified to have ncols - rank vectors, each killing every original row
    (`_verify_kernel`, in at most two rounds: `_kernel_rounds`), and the
    `Subspace` takes that store as it is."""
    rank, _, basis, bad = _kernel_rounds(int_rows, ncols, _canonical)
    certify(len(basis) == ncols - rank and not bad.any(), _KERNEL_FAILED)
    return Subspace._of(ncols, basis)


def kernel_columns(int_rows: IntRows, ncols: int):
    """The free columns of a sparse integer system, a sorted int array with
    one entry per kernel dimension, certified with neither a canonical basis
    nor a rational: there are ncols - rank of them, the vector of each
    (`_free_vectors`) is the only one nonzero on its own free column, so the
    vectors are independent, and each kills every original row (in at most
    two rounds: `_kernel_rounds`)."""
    import numpy as np
    rank, free, vecs, bad = _kernel_rounds(int_rows, ncols,
                                           lambda vecs: (IntRows.from_dicts(vecs),) * 2)
    is_free = np.zeros(ncols, dtype=bool)
    is_free[free] = True
    on = is_free[vecs.cols] & (vecs.vals != 0)  # the entries on free columns
    k = np.repeat(np.arange(len(vecs)), vecs.lens)[on]  # and their vectors
    certify(len(free) == ncols - rank and np.array_equal(k, np.arange(len(free)))
            and np.array_equal(free[k], vecs.cols[on]) and not bad.any(), _KERNEL_FAILED)
    return free
