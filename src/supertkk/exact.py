"""Exact rational linear algebra: the substrate every other module solves on.

Scalars are arbitrary-precision rationals (gmpy2.mpq when available, else
fractions.Fraction).  No floating point anywhere: every identity this package
checks is an algebraic identity over Q and must hold exactly.

Large sparse kernel systems go through a certified modular fast path: rows are
eliminated mod a word-size prime with numpy int64 arithmetic, kernel vectors
are lifted by rational reconstruction and then verified *exactly* against
every row.  The mod-p rank lower-bounds the rational rank, so ncols - rank_p
exactly-verified independent kernel vectors prove the kernel dimension; any
failure escalates to more primes (CRT) and finally to pure exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

try:
    from gmpy2 import mpq as _Scalar  # ~20x faster than Fraction
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _Scalar = Fraction


def Q(value=0, den=None):
    """Exact rational from an int, a "p/q" string, or another rational."""
    if den is not None:
        return _Scalar(value, den)
    return _Scalar(value)


ZERO = Q(0)
ONE = Q(1)


class CertificateError(ValueError):
    """A certificate failed: a computed result did not verify exactly."""


# Primes just below 2**26: products of two reduced residues fit comfortably in
# int64 even when summed over >1000 terms (1300 * p**2 < 2**63).
_PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763)
_MATMUL_SLICE = 1024  # max inner dimension per int64 matmul (overflow guard)


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
        assert all(len(r) == self.cols for r in self.data), "ragged matrix rows"

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

    def row(self, r: int) -> tuple:
        return self.data[r]

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
        assert len(flat) == rows * cols, "flatten length mismatch"
        return cls(flat[i * cols:(i + 1) * cols] for i in range(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.data]})"


# ---------------------------------------------------------------------------
# dense reduced row echelon form


def _rref_rows(vectors: Iterable[Sequence], ncols: int):
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


def rref(m: Matrix):
    """Reduced row echelon form of a matrix: (Matrix, pivot columns)."""
    rows, pivots = _rref_rows(m.data, m.cols)
    return Matrix(rows) if rows else Matrix.zero(0, m.cols), tuple(pivots)


def solve(m: Matrix, b: Sequence):
    """Some x with m@x = b, or None if inconsistent.  Verified by re-multiplication."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = [list(row) + [Q(x)] for row, x in zip(m.data, b)]
    rows, pivots = _rref_rows(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in zip(rows, pivots):
        x[p] = r[m.cols]
    x = tuple(x)
    assert m.apply(x) == tuple(Q(v) for v in b), "solve verification failed"
    return x


class Subspace:
    """Subspace of Q^n with a canonical RREF basis; equality is decidable."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        self.ambient = ambient
        rows, pivots = _rref_rows(vectors, ambient)
        self.basis = tuple(tuple(r) for r in rows)
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

    def _reduce(self, vec: Sequence):
        v = [Q(x) for x in vec]
        assert len(v) == self.ambient, "ambient dimension mismatch"
        for r, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(self.ambient):
                    if r[j]:
                        v[j] -= c * r[j]
        return v

    def contains(self, vec: Sequence) -> bool:
        return vec_is_zero(self._reduce(vec))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, vec: Sequence):
        """Coefficients of vec in the canonical basis, or None if outside."""
        v = [Q(x) for x in vec]
        coords = []
        for r, p in zip(self.basis, self.pivots):
            coords.append(v[p])
            c = v[p]
            if c:
                for j in range(self.ambient):
                    if r[j]:
                        v[j] -= c * r[j]
        return tuple(coords) if vec_is_zero(v) else None

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: RREF of [v|v] over self and [w|0] over other; rows with
        # vanishing left half carry the intersection in their right half.
        self._check_ambient(other)
        n = self.ambient
        stacked = [list(v) + list(v) for v in self.basis]
        stacked += [list(w) + [ZERO] * n for w in other.basis]
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
        assert len(v) == self.ambient, "ambient dimension mismatch"
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


# ---------------------------------------------------------------------------
# sparse kernel with certified modular fast path


def _row_primitive(row: dict) -> dict:
    """Scale a sparse rational row to a primitive integer row (sign-normalized)."""
    items = [(c, Q(v)) for c, v in row.items() if v]
    if not items:
        return {}
    den = 1
    for _, v in items:
        den = den * v.denominator // gcd(den, int(v.denominator))
    den = int(den)
    ints = [(c, int(v.numerator) * (den // int(v.denominator))) for c, v in items]
    g = 0
    for _, v in ints:
        g = gcd(g, v)
    lead = min(ints)[1]
    s = -1 if lead < 0 else 1
    return {c: v // (g * s) for c, v in ints}


def _rat_reconstruct(residue: int, modulus: int):
    """Rational number n/d with |n|, d <= sqrt(modulus/2) congruent to residue,
    or None.  (Wang's algorithm; half-extended Euclid.)"""
    bound = isqrt((modulus - 1) // 2)
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return r1, t1


def _crt_pair(r1: int, m1: int, r2: int, m2: int):
    """x mod m1*m2 with x = r1 (m1), x = r2 (m2); moduli coprime."""
    inv = pow(m1, -1, m2)
    return (r1 + ((r2 - r1) * inv % m2) * m1) % (m1 * m2)


def _modular_rref(int_rows: list[dict], ncols: int, p: int):
    """RREF mod p via numpy int64.  Returns (pivots, R) with R reduced, pivot
    entries 1 and pivot columns cleared, rows sorted by pivot column."""
    import numpy as np

    R = np.zeros((0, ncols), dtype=np.int64)
    piv: list[int] = []
    chunk = 512
    for start in range(0, len(int_rows), chunk):
        block = int_rows[start:start + chunk]
        B = np.zeros((len(block), ncols), dtype=np.int64)
        for i, row in enumerate(block):
            for c, v in row.items():
                B[i, c] = v % p
        if piv:
            # batch-reduce the whole chunk against the current RREF; slice the
            # inner dimension so int64 accumulation can never overflow
            for s in range(0, len(piv), _MATMUL_SLICE):
                cols = piv[s:s + _MATMUL_SLICE]
                B = (B - B[:, cols] @ R[s:s + _MATMUL_SLICE]) % p
        for i in range(B.shape[0]):
            v = B[i]
            if piv:
                for s in range(0, len(piv), _MATMUL_SLICE):
                    cols = piv[s:s + _MATMUL_SLICE]
                    v = (v - v[cols] @ R[s:s + _MATMUL_SLICE]) % p
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                continue
            lead = int(nz[0])
            v = (v * pow(int(v[lead]), p - 2, p)) % p
            if R.shape[0]:
                coef = R[:, lead].copy()
                R = (R - coef[:, None] * v[None, :]) % p
            R = np.vstack([R, v[None, :]])
            piv.append(lead)
    order = sorted(range(len(piv)), key=lambda i: piv[i])
    return [piv[i] for i in order], R[order] if R.shape[0] else R


def _kernel_from_rref(pivots, rows_get, ncols: int):
    """Standard kernel basis from an RREF description: one vector per free
    column f, with 1 at f, -R[r,f] at each pivot column."""
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    vecs = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = rows_get(r, f)
        vecs.append(v)
    return free, vecs


def _kernel_exact_sparse(int_rows: list[dict], ncols: int):
    """Pure exact sparse elimination (fallback path).  The store is kept in
    full RREF throughout, so reducing a row is a single pass over its pivots."""
    store: list[dict] = []
    piv: dict[int, int] = {}
    for row in sorted(int_rows, key=len):
        v = {c: Q(n) for c, n in row.items()}
        for c in list(v):
            coeff = v.get(c)
            if coeff and c in piv:
                for cc, vv in store[piv[c]].items():
                    w = v.get(cc, ZERO) - coeff * vv
                    if w:
                        v[cc] = w
                    else:
                        v.pop(cc, None)
        if not v:
            continue
        lead = min(v)
        inv = ONE / v[lead]
        v = {c: x * inv for c, x in v.items()}
        for r in store:
            c = r.get(lead)
            if c:
                for cc, vv in v.items():
                    w = r.get(cc, ZERO) - c * vv
                    if w:
                        r[cc] = w
                    else:
                        r.pop(cc, None)
        store.append(v)
        piv[lead] = len(store) - 1
    pivots = sorted(piv)
    rows = [store[piv[p]] for p in pivots]
    _, vecs = _kernel_from_rref(pivots, lambda r, f: -rows[r].get(f, ZERO), ncols)
    return vecs


def _verify_kernel(int_rows: list[dict], vecs: list[list]) -> bool:
    """Exact check that every candidate vector kills every row (integer
    arithmetic; numpy int64 when a conservative bound rules out overflow)."""
    import numpy as np

    if not vecs:
        return True
    ncols = len(vecs[0])
    max_r = max((max(abs(v) for v in r.values()) for r in int_rows if r), default=0)
    max_v = max(max(abs(x) for x in v) for v in vecs)
    if max_r and max_r * max_v * ncols < 2 ** 62:
        V = np.array(vecs, dtype=np.int64).T  # ncols x k
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
            if sum(c * v[j] for j, c in row.items()):
                return False
    return True


def kernel_sparse(rows: Iterable[dict], ncols: int, *, modular: bool | None = None) -> list[tuple]:
    """Canonical RREF kernel basis of a sparse system (rows: dicts col->scalar).

    The modular path is *certified*: rank mod p lower-bounds the rational rank,
    so producing ncols - rank_p independent, exactly-verified kernel vectors
    proves completeness.  Any failure falls back to exact elimination.
    """
    int_rows = []
    seen = set()
    for row in rows:
        pr = _row_primitive(row)
        if not pr:
            continue
        key = tuple(sorted(pr.items()))
        if key not in seen:
            seen.add(key)
            int_rows.append(pr)
    if not int_rows:
        eye = Matrix.identity(ncols)
        return [tuple(r) for r in eye.data]
    if modular is None:
        modular = len(int_rows) * ncols > 20000 and ncols >= 32
    vecs = _kernel_modular(int_rows, ncols) if modular else None
    if vecs is None:
        vecs = _kernel_exact_sparse(int_rows, ncols)
        assert _verify_kernel(int_rows, [_scaled_int(v) for v in vecs]), \
            "exact kernel failed verification"
    sub = Subspace(ncols, vecs)
    return [tuple(b) for b in sub.basis]


def _common_den(v) -> int:
    den = 1
    for x in v:
        q = Q(x)
        den = den * int(q.denominator) // gcd(den, int(q.denominator))
    return den


def _scaled_int(v) -> list:
    den = _common_den(v)
    return [int(Q(x) * den) for x in v]


def _kernel_modular(int_rows: list[dict], ncols: int):
    """Certified multi-prime modular kernel; None if every attempt failed."""
    results = {}
    for nprimes in (1, 2, len(_PRIMES)):
        usable = []
        for p in _PRIMES:
            if p not in results:
                results[p] = _modular_rref(int_rows, ncols, p)
            usable.append((p, *results[p]))
            if len(usable) == nprimes:
                break
        # keep only primes achieving the best (largest) rank with agreeing pivots
        best_rank = max(len(piv) for _, piv, _ in usable)
        usable = [(p, piv, R) for p, piv, R in usable if len(piv) == best_rank]
        pivots = usable[0][1]
        usable = [(p, piv, R) for p, piv, R in usable if piv == pivots]
        modulus = 1
        for p, _, _ in usable:
            modulus *= p
        free, residue_vecs = _kernel_from_rref(
            pivots, lambda r, f: 0, ncols)
        # fill residues: entry at pivot pc is -R[r, f] combined across primes
        fidx = {f: i for i, f in enumerate(free)}
        for r, pc in enumerate(pivots):
            for f in free:
                res, mod = 0, 1
                for p, _, R in usable:
                    res = _crt_pair(res, mod, int(-R[r, f]) % p, p)
                    mod *= p
                residue_vecs[fidx[f]][pc] = res
        lifted = []
        ok = True
        for v in residue_vecs:
            out = []
            for x in v:
                if x in (0, 1):
                    out.append(Q(x))
                    continue
                rec = _rat_reconstruct(x % modulus, modulus)
                if rec is None:
                    ok = False
                    break
                out.append(Q(rec[0], rec[1]))
            if not ok:
                break
            lifted.append(out)
        if not ok:
            continue
        if _verify_kernel(int_rows, [_scaled_int(v) for v in lifted]):
            # best_rank <= rank_Q, and we exhibited ncols-best_rank independent
            # exact kernel vectors (identity pattern on free columns), so the
            # kernel dimension is exactly ncols-best_rank and the basis is full
            return lifted
    return None


def grassmann_ok(a: Subspace, b: Subspace) -> bool:
    """dim(a+b) + dim(a cap b) == dim a + dim b."""
    return a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
