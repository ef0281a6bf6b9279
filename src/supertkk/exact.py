"""Exact rational linear algebra: the substrate every other module solves on.

Scalars are arbitrary-precision rationals (gmpy2.mpq when available, else
fractions.Fraction).  No floating point anywhere: every identity this package
checks is an algebraic identity over Q and must hold exactly.

There is one elimination, fraction-free over the integers, for kernels,
spans, solves and generator coordinates (`kernel_sparse` and its
integer-row core `integer_kernel`, `Subspace`,
`rref`, `GeneratedSpan`, `solve`): each row is scaled to a primitive integer
row, eliminated over the integers (Bareiss-style v <- b*v - a*r, divided by
the row gcd), and rationals are formed only when the reduced rows are read
off.  A `GeneratedSpan` eliminates its generator list once and then writes
any number of members in those generators, each by one reduction.  Every
kernel vector is verified exactly against every row, and every expressed
member is recombined from its coefficients; a failure of either certificate
raises CertificateError, so the checks survive `python -O`.
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

    A rational is returned as it is (rationals are immutable): `Matrix`
    passes every entry of every result through here."""
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


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Sequence) -> tuple:
    return tuple(c * a for a in v)


class Matrix:
    """Dense exact-rational matrix (immutable)."""

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


def rref(m: Matrix):
    """Reduced row echelon form of a matrix: (Matrix, pivot columns)."""
    rows, pivots = _rref_rows(m.data, m.cols)
    return Matrix(rows) if rows else Matrix.zero(0, m.cols), tuple(pivots)


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

    def quotient_dim(self, sub: "Subspace") -> int:
        """dim(self / sub); requires sub to lie inside self."""
        if not self.contains_space(sub):
            raise ValueError("quotient_dim: second space not contained in first")
        return self.dim - sub.dim

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


def kernel(m: Matrix) -> Subspace:
    """Exact null space; dim(kernel) + rank = cols."""
    rows = [{j: x for j, x in enumerate(r) if x} for r in m.data]
    vecs = kernel_sparse(rows, m.cols)
    return Subspace(m.cols, vecs)


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
    """Scale a sparse rational row to a primitive integer row (sign-normalized)."""
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
    """The distinct nonzero primitive integer rows of sparse rational rows."""
    out, seen = [], set()
    for row in rows:
        pr = row_primitive(row)
        key = tuple(sorted(pr.items()))
        if pr and key not in seen:
            seen.add(key)
            out.append(pr)
    return out


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


def _verify_kernel(int_rows: list[dict], vecs: list[dict], ncols: int) -> bool:
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


def kernel_sparse(rows: Iterable[dict], ncols: int) -> list[tuple]:
    """Canonical RREF kernel basis of a sparse system (rows: dicts col->scalar):
    the rows scaled to distinct primitive integer rows, then `integer_kernel`."""
    return integer_kernel(primitive_rows(rows), ncols)


def integer_kernel(int_rows: list[dict], ncols: int) -> list[tuple]:
    """Canonical RREF kernel basis of sparse integer rows (col -> int), which
    callers pass already primitive and distinct, as `primitive_rows` leaves them.

    The rows are eliminated over the integers.  The kernel is read off as one
    integer vector per free column f (lcm of the pivots involved at f,
    -r[f]*lcm/r[p] at each pivot column p), and the same elimination brings
    those vectors to the canonical RREF basis.  Certificate: that basis has one
    vector per free column and every vector kills every row exactly;
    rationals are formed only at the end.
    """
    store = _echelon(int_rows)
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
    basis = _echelon(vecs)
    certify(len(basis) == len(vecs) and _verify_kernel(int_rows, list(basis.values()), ncols),
            "kernel verification failed: the basis needs one vector per free column, "
            "each killing every row")
    return _rational_rows(basis, ncols)[0]


def grassmann_ok(a: Subspace, b: Subspace) -> bool:
    """dim(a+b) + dim(a cap b) == dim a + dim b."""
    return a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
