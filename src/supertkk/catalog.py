"""Shipped Jordan and Lie superalgebras, plus the on-disk format.

The Jordan side holds the small examples used everywhere else: the degenerate
three-dimensional algebra j19, the non-unital Kac superalgebra kacK, truncated
polynomials t*Q[t]/(t^k), matrix algebras under the symmetrised product, the
superform (spin factor) family, and the one-parameter family dt(t).  The Lie
side holds the matrix families gl/sl/psl/pgl, the periplectic and queer
families, and the exterior tower: the Poisson bracket on lambda(n), the
derivation algebra w(n), htilde(n)/h(n), and two semidirect extensions by the
Euler operator C.

Every entry is built on the integers.  A Jordan builder writes its
constants over one denominator (2 for j19, kacK and full_matrix, 2 times the
denominator of t for dt(t)).  The Lie matrix families are spans of +-1
matrices: their supercommutators are one batched product
(`tensor.brackets`), written in the spanning matrices by one certified
`GeneratedSpan.coordinates` call; the quotients (psl, pgl, psq, pq,
htilde) and h go through the sparse integer `quotient_algebra` and
`subalgebra`.  The exterior tower writes its integer constants itself,
by bitmask array passes over all pairs of basis monomials (`_exterior`,
`_summed_terms`): signs are parities of the bits below an index, read off
a popcount table, terms are summed by `exact.sum_by_key`, and pairs come
in chunks of consecutive first indices so that the arrays of w(7) stay
small.  Each entry is checked by `integer_algebra`: the Jordan builders
hand it tuples, so that building the Jordan catalog imports no numpy, and
the Lie builders their four arrays (i, j, k, value), which the algebra
keeps as its `IntTable`.

Files are line-oriented JSON with exact rational coefficients kept as strings.
`save_algebra` and `load_algebra` are the one writer and the one reader of
the format: load_algebra(save_algebra(a)) has a's entries, d, parities,
degrees, name, metadata and kind, and saving is byte-for-byte reproducible.
The writer reads the entries' columns (`SuperAlgebra.columns`); saving a
Jordan algebra built from tuples imports no numpy.  The reader checks the
products in one pass per column and builds the algebra from the sorted
arrays; a diagnostic is formatted only for the first faulty product.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm
from operator import itemgetter
from pathlib import Path

from . import tensor
from .exact import GeneratedSpan, Q, certify, int_dtype, span, sum_by_key
from .superspace import (SuperAlgebra, derived, integer_algebra, mirror, quotient_algebra,
                         subalgebra, table_keys)

# ---------------------------------------------------------------------------
# small helpers


def _norm_param(p):
    """A parameter (int, rational or "p/q" string) as an int when integral,
    else as a rational; anything else raises ValueError."""
    try:
        q = Q(p)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"bad catalog parameter {p!r}") from None
    return int(q) if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# Jordan families


def _jordan(parities, upper, d, name, metadata):
    """The Jordan superalgebra whose upper-triangle integer constants over d
    are completed supercommutatively (`mirror`)."""
    return integer_algebra(parities, mirror(parities, upper, 1), d, name=name, kind="jordan",
                           metadata=metadata)


def _build_j19():
    # e0 e0 = e0, e0 e1 = e1/2, e1 e1 = e2, over d = 2
    return _jordan((0, 0, 0), [(0, 0, 0, 2), (0, 1, 1, 1), (1, 1, 2, 2)], 2, "j19",
                   {"family": "j19"})


def _build_kac_k():
    # basis a (even), xi1, xi2 (odd); a^2 = a, a xi_i = xi_i/2, xi1 xi2 = a, over d = 2
    return _jordan((0, 1, 1), [(0, 0, 0, 2), (0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 2)], 2,
                   "kacK", {"family": "kacK"})


def _build_trunc_poly(k):
    if not 3 <= k <= 8:
        raise ValueError(f"trunc_poly: k must be in 3..8, got {k}")
    # basis t, t^2, ..., t^(k-1); index i holds t^(i+1)
    upper = [(i, j, i + j + 1, 1) for i in range(k - 1) for j in range(i, k - 1)
             if i + j + 2 <= k - 1]
    return _jordan((0,) * (k - 1), upper, 1, f"trunc_poly({k})", {"family": "trunc_poly"})


def _build_full_matrix(m, n):
    if m < 0 or n < 0 or not 1 <= m + n <= 3:
        raise ValueError(f"full_matrix: need m,n >= 0 and 1 <= m+n <= 3, got ({m},{n})")
    d = m + n
    cells = [(a, b) for a in range(d) for b in range(d)]
    idx = {ab: i for i, ab in enumerate(cells)}
    parities = tuple((int(a >= m) + int(b >= m)) % 2 for a, b in cells)
    products = []  # over d = 2
    for i, (a, b) in enumerate(cells):
        for j, (c, e) in enumerate(cells):
            acc = {}
            if b == c:  # x y contributes E_{ae}/2
                acc[idx[a, e]] = 1
            if e == a:  # (-1)^{|x||y|} y x contributes +-E_{cb}/2
                s = -1 if parities[i] * parities[j] % 2 else 1
                acc[idx[c, b]] = acc.get(idx[c, b], 0) + s
            products.extend((i, j, k, v) for k, v in acc.items() if v)
    return integer_algebra(parities, products, 2, name=f"full_matrix({m},{n})", kind="jordan",
                           metadata={"family": "full_matrix", "external": "yes"})


def _build_form(p, two_q):
    if p < 0 or two_q < 0 or two_q % 2:
        raise ValueError(f"form: need p >= 0 and even 2q >= 0, got ({p},{two_q})")
    if not 1 <= p + two_q <= 5:
        raise ValueError(f"form: need 1 <= p+2q <= 5, got ({p},{two_q})")
    # basis e, u_1..u_p (even), z_1..z_2q (odd); e is the unit,
    # u_i u_j = delta_ij e, z pairs are symplectic: z_{2l-1} z_{2l} = e.
    upper = [(0, i, i, 1) for i in range(1 + p + two_q)]
    upper += [(i, i, 0, 1) for i in range(1, 1 + p)]
    upper += [(1 + p + 2 * l, 2 + p + 2 * l, 0, 1) for l in range(two_q // 2)]
    return _jordan((0,) * (1 + p) + (1,) * two_q, upper, 1, f"form({p},{two_q})",
                   {"family": "form", "external": "yes"})


def _build_dt(t):
    if t == 0 or t == -1:
        raise ValueError("dt: parameter must avoid 0 and -1")
    # basis e1, e2 (even idempotents), x, y (odd); e1+e2 is the unit.
    # Over d = 2 t.denominator, 1 is d, 1/2 is h and t is 2 t.numerator.
    d, h = 2 * t.denominator, t.denominator
    upper = [(0, 0, 0, d), (1, 1, 1, d), (0, 2, 2, h), (0, 3, 3, h), (1, 2, 2, h), (1, 3, 3, h),
             (2, 3, 0, d), (2, 3, 1, 2 * t.numerator)]
    return _jordan((0, 0, 1, 1), upper, d, f"dt({t})", {"family": "dt", "external": "yes"})


# ---------------------------------------------------------------------------
# matrix Lie families, built from explicit spanning matrices


def _mat_parity(mat, idx_par):
    pars = {(idx_par[a] + idx_par[b]) % 2 for a, b in mat}
    if len(pars) != 1:
        raise ValueError("spanning matrix is not parity-homogeneous")
    return pars.pop()


def _stack(mats, d):
    """The integer matrices {(a, b): value} as one array [t, a, b]."""
    import numpy as np
    M = np.zeros((len(mats), d, d), dtype=np.int64)
    for t, mat in enumerate(mats):
        for (a, b), v in mat.items():
            M[t, a, b] = v
    return M


def _span_algebra(idx_par, mats, *, name, metadata=None):
    """Structure constants of a bracket-closed span of integer matrices.

    idx_par gives the parity of each index of the underlying superspace; the
    bracket is the supercommutator, formed for every pair in one batched
    product (`tensor.brackets`), and its coordinates in the matrices are
    read in one certified batch (`GeneratedSpan.coordinates`).  Raises if
    the matrices are dependent or the span is not closed.
    """
    import numpy as np
    d, k = len(idx_par), len(mats)
    M = _stack(mats, d)
    gens = GeneratedSpan(M.reshape(k, d * d), d * d)
    if gens.dim < k:
        raise ValueError(f"{name}: spanning matrices are dependent")
    parities = tuple(_mat_parity(m, idx_par) for m in mats)
    C, den = gens.coordinates(tensor.brackets(M, parities, M, parities).reshape(k * k, d * d),
                              f"{name}: span not closed under the bracket")
    ts, r = np.nonzero(C)
    return integer_algebra(parities, (ts // k, ts % k, r, C[ts, r]), den, name=name, kind="lie",
                           metadata=metadata or {})


def _E(a, b):
    return {(a, b): 1}


def _mat_sum(*terms):
    out = {}
    for mat, c in terms:
        for ab, v in mat.items():
            out[ab] = out.get(ab, 0) + v * c
    return {k: v for k, v in out.items() if v}


def _gl_mats(m, n):
    d = m + n
    idx_par = tuple(int(a >= m) for a in range(d))
    return idx_par, [_E(a, b) for a in range(d) for b in range(d)]


def _sl_mats(m, n):
    d = m + n
    idx_par = tuple(int(a >= m) for a in range(d))
    mats = [_E(a, b) for a in range(d) for b in range(d) if a != b]
    for a in range(d - 1):
        sa = -1 if idx_par[a] else 1
        sb = -1 if idx_par[a + 1] else 1
        mats.append(_mat_sum((_E(a, a), sa), (_E(a + 1, a + 1), -sb)))
    return idx_par, mats


def _quotient_by_identity(alg, idx_par, mats, *, name, metadata):
    import numpy as np
    d = len(idx_par)
    C, _ = GeneratedSpan(_stack(mats, d).reshape(len(mats), d * d), d * d).coordinates(
        np.eye(d, dtype=np.int64).reshape(1, d * d), "identity matrix should lie in the span")
    return quotient_algebra(alg, span(C.tolist()), name=name, metadata=metadata)


def _pe_mats(n):
    idx_par = (0,) * n + (1,) * n
    mats = [_mat_sum((_E(a, b), 1), (_E(n + b, n + a), -1))
            for a in range(n) for b in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b:
                mats.append(_E(a, n + a))
            else:
                mats.append(_mat_sum((_E(a, n + b), 1), (_E(b, n + a), 1)))
    for a in range(n):
        for b in range(a + 1, n):
            mats.append(_mat_sum((_E(n + a, b), 1), (_E(n + b, a), -1)))
    return idx_par, mats


def _spe_mats(n):
    idx_par, pe = _pe_mats(n)
    diag = {a * n + a: pe[a * n + a] for a in range(n)}  # A_aa positions
    mats = [m for i, m in enumerate(pe) if i not in diag]
    for a in range(n - 1):
        mats.append(_mat_sum((diag[a * n + a], 1),
                             (diag[(a + 1) * n + a + 1], -1)))
    return idx_par, mats


def _q_even(n, a, b):
    return _mat_sum((_E(a, b), 1), (_E(n + a, n + b), 1))


def _q_odd(n, a, b):
    return _mat_sum((_E(a, n + b), 1), (_E(n + a, b), 1))


def _q_mats(n):
    idx_par = (0,) * n + (1,) * n
    mats = [_q_even(n, a, b) for a in range(n) for b in range(n)]
    mats += [_q_odd(n, a, b) for a in range(n) for b in range(n)]
    return idx_par, mats


def _sq_mats(n):
    idx_par = (0,) * n + (1,) * n
    mats = [_q_even(n, a, b) for a in range(n) for b in range(n)]
    mats += [_q_odd(n, a, b) for a in range(n) for b in range(n) if a != b]
    for a in range(n - 1):
        mats.append(_mat_sum((_q_odd(n, a, a), 1), (_q_odd(n, a + 1, a + 1), -1)))
    return idx_par, mats


# ---------------------------------------------------------------------------
# exterior families: lambda(n) with the Poisson bracket, w(n), htilde, h,
# and the semidirect extensions by the Euler operator C


def _masks(n):
    return sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))


_PAIR_CHUNK = 2 ** 16  # basis pairs per chunk of an exterior bracket (~0.5 MB per int64 array)


def _exterior(n):
    """The exterior algebra on xi_0 .. xi_{n-1}, each monomial xi^a a bitmask a:
    (masks, pos, sign, partial, wedge), int arrays.

    masks lists the monomials in basis order (`_masks`) and pos[a] is the
    place of a in it; sign[a] = (-1)^{|a|}.  d/d xi_i sends xi^a to
    partial[a, i] xi^(a ^ 1 << i), and xi^a xi^b = wedge[a, b] xi^(a | b);
    both are 0 where the result vanishes.  Every sign is read off the
    parity of the bits of a mask below an index, by a popcount table:
    partial[a, i] is (-1)^{bits of a below i}, and wedge[a, b] is the
    product over the bits p of a of (-1)^{bits of b below p}."""
    import numpy as np
    a = np.arange(1 << n)
    count = np.array([bin(m).count("1") for m in range(1 << n)])
    masks = np.array(_masks(n))
    pos = np.empty_like(masks)
    pos[masks] = np.arange(1 << n)
    has = (a[:, None] >> np.arange(n)) & 1
    low = count[a[:, None] & ((1 << np.arange(n)) - 1)] & 1  # parity of the bits below i
    inv = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for p in range(n):
        inv += np.outer(has[:, p], low[:, p])  # bit p of a passes the bits of b below it
    wedge = np.where(a[:, None] & a[None, :], 0, 1 - 2 * (inv & 1))
    return masks, pos, 1 - 2 * (count & 1), has * (1 - 2 * low), wedge


def _summed_terms(rows: int, cols: int, width: int, terms) -> tuple:
    """(i, j, k, v) arrays: the nonzero sums over the terms (k, v) that
    terms(i, j) yields for index arrays i < rows, j < cols of pairs, each
    term two arrays of the length of i (k < width, v 0 where the term
    vanishes).  The pairs are taken in chunks of
    consecutive first indices, about _PAIR_CHUNK pairs each, so that the
    arrays of one chunk stay small; the terms of a chunk are summed per
    (i, j, k) by `sum_by_key`, which drops zero sums."""
    import numpy as np
    step, keys, sums = max(1, _PAIR_CHUNK // cols), [], []
    for lo in range(0, rows, step):
        i, j = np.divmod(np.arange(lo * cols, min(rows, lo + step) * cols), cols)
        at = (i * cols + j) * width
        k, v = (np.concatenate(x) for x in zip(*terms(i, j)))
        keep = v != 0
        key, val = sum_by_key(np.tile(at, len(k) // len(at))[keep] + k[keep], v[keep])
        keys.append(key)
        sums.append(val)
    key, v = np.concatenate(keys), np.concatenate(sums)
    ij, k = np.divmod(key, width)
    return (*np.divmod(ij, cols), k, v)


def _poisson_pairs(n):
    if n < 2:
        raise ValueError(f"the Poisson bracket needs n >= 2, got {n}")
    return [(i, i) for i in range(n - 2)] + [(n - 2, n - 1), (n - 1, n - 2)]


def _poisson(ext, n, a, b):
    """The terms (mask, value) of the Poisson bracket {xi^a, xi^b} of the
    mask arrays a and b, one per pair (p, q) of `_poisson_pairs`:
    (-1)^{|a|} d_p(xi^a) d_q(xi^b), value 0 where it vanishes."""
    _, _, sign, partial, wedge = ext
    for p, q in _poisson_pairs(n):
        x, y = a ^ (1 << p), b ^ (1 << q)
        yield x | y, sign[a] * partial[a, p] * partial[b, q] * wedge[x, y]


def _build_lambda(n):
    if not 2 <= n <= 7:
        raise ValueError(f"lambda: n must be in 2..7, got {n}")
    ext = _exterior(n)
    masks, pos = ext[:2]
    entries = _summed_terms(len(masks), len(masks), len(masks), lambda i, j: (
        (pos[c], x) for c, x in _poisson(ext, n, masks[i], masks[j])))
    deg = [bin(m).count("1") for m in masks.tolist()]
    return integer_algebra([x % 2 for x in deg], entries, 1, [x - 2 for x in deg],
                           name=f"lambda({n})", kind="lie", metadata={"family": "lambda"})


def _build_htilde(n):
    lam = lie_catalog("lambda", n)
    return quotient_algebra(lam, span([(1,) + (0,) * (lam.dim - 1)]), name=f"htilde({n})",
                            metadata={"family": "htilde"})


def _build_h(n):
    ht = lie_catalog("htilde", n)
    return subalgebra(ht, derived(ht), name=f"h({n})",
                      metadata={"family": "h", **({"simple": "yes"} if n >= 4 else {})})


def _build_w(n):
    if not 1 <= n <= 7:
        raise ValueError(f"w: n must be in 1..7, got {n}")
    import numpy as np
    masks, pos, _, partial, wedge = _exterior(n)
    size = len(masks) * n
    deg = np.repeat([bin(m).count("1") for m in masks.tolist()], n)  # basis f d_i at f n + i
    odd = (deg + 1) % 2

    def terms(k1, k2):
        # [f di, g dj] = f di(g) dj - (-1)^{(|f|+1)(|g|+1)} g dj(f) di
        (f, i), (g, j) = divmod(k1, n), divmod(k2, n)
        f, g = masks[f], masks[g]
        x, y = g ^ (1 << i), f ^ (1 << j)
        yield pos[f | x] * n + j, partial[g, i] * wedge[f, x]
        yield pos[g | y] * n + i, (2 * (odd[k1] & odd[k2]) - 1) * partial[f, j] * wedge[g, y]

    return integer_algebra(odd.tolist(), _summed_terms(size, size, size, terms), 1,
                           (deg - 1).tolist(), name=f"w({n})", kind="lie",
                           metadata={"family": "w", **({"simple": "yes"} if n >= 2 else {})})


def _with_euler(blocks, zdeg, d) -> tuple:
    """The (i, j, k, v) arrays of the blocks, joined, and of the Euler
    operator C at index 0, [C, e_x] = zdeg[x] e_x = -[e_x, C], over d."""
    import numpy as np
    x = np.flatnonzero(zdeg)
    w, at = np.asarray(zdeg)[x] * d, np.zeros_like(x)
    return tuple(np.concatenate(c) for c in zip(*blocks, (at, x, x, w), (x, at, x, -w)))


def _build_c_htilde(n):
    # K C |x htilde(n): C is the Euler grading operator, [C, f] = (deg f - 2) f
    ht = lie_catalog("htilde", n)
    t = ht.int_table
    parities = (0,) + tuple(ht.parity(i) for i in range(ht.dim))
    zdeg = (0,) + tuple(ht.zdegree(i) for i in range(ht.dim))
    entries = _with_euler([(t.i + 1, t.j + 1, t.k + 1, t.value)], zdeg, ht.d)
    return integer_algebra(parities, entries, ht.d, zdeg, name=f"c_htilde({n})",
                           kind="lie", metadata={"family": "c_htilde"})


def _build_c_htilde_lambda(n):
    # K C |x (htilde(n) |x lambda(n)): htilde acts on the abelian lambda(n)
    # through the Poisson bracket, C acts by (deg - 2) on htilde and deg on
    # lambda(n).
    if not 2 <= n <= 5:
        raise ValueError(f"c_htilde_lambda: n must be in 2..5, got {n}")
    import numpy as np
    ht = lie_catalog("htilde", n)
    t = ht.int_table
    ext = _exterior(n)
    masks, pos = ext[:2]
    hoff, loff = 1, 1 + ht.dim
    d = ht.d
    par = [0] + [ht.parity(i) for i in range(ht.dim)] \
        + [bin(m).count("1") % 2 for m in masks.tolist()]
    zdeg = [0] + [ht.zdegree(i) for i in range(ht.dim)] \
        + [bin(m).count("1") for m in masks.tolist()]
    # f = masks[i + 1] is the coset representative of basis element i of htilde
    i, j, k, v = _summed_terms(ht.dim, len(masks), len(masks), lambda i, j: (
        (pos[c], x) for c, x in _poisson(ext, n, masks[i + 1], masks[j])))
    odd = np.array(par)
    s = 2 * (odd[hoff + i] & odd[loff + j]) - 1
    entries = _with_euler([(t.i + hoff, t.j + hoff, t.k + hoff, t.value),
                           (hoff + i, loff + j, loff + k, v * d),
                           (loff + j, hoff + i, loff + k, s * v * d)], zdeg, d)
    return integer_algebra(par, entries, d, zdeg, name=f"c_htilde_lambda({n})",
                           kind="lie", metadata={"family": "c_htilde_lambda"})


# ---------------------------------------------------------------------------
# catalog entry points

# resolved algebras by (side, name, params); bounded, as every builder has a
# finite parameter range except `dt` (any rational t), which is not stored
_MEMO: dict = {}


def _build_gl(m, n):
    if m < 0 or n < 0 or not 1 <= m + n <= 4:
        raise ValueError(f"gl: need m,n >= 0 and 1 <= m+n <= 4, got ({m},{n})")
    idx_par, mats = _gl_mats(m, n)
    return _span_algebra(idx_par, mats, name=f"gl({m},{n})",
                         metadata={"family": "gl"})


def _build_sl(m, n):
    if m < 0 or n < 0 or not 2 <= m + n <= 4:
        raise ValueError(f"sl: need m,n >= 0 and 2 <= m+n <= 4, got ({m},{n})")
    idx_par, mats = _sl_mats(m, n)
    meta = {"family": "sl"}
    if m != n:
        meta["simple"] = "yes"
    return _span_algebra(idx_par, mats, name=f"sl({m},{n})", metadata=meta)


def _build_psl(n):
    if not 1 <= n <= 2:
        raise ValueError(f"psl: need 1 <= n <= 2, got {n}")
    idx_par, mats = _sl_mats(n, n)
    return _quotient_by_identity(
        lie_catalog("sl", n, n), idx_par, mats, name=f"psl({n},{n})",
        metadata={"family": "psl", **({"simple": "yes"} if n > 1 else {})})


def _build_pgl(n):
    if not 1 <= n <= 2:
        raise ValueError(f"pgl: need 1 <= n <= 2, got {n}")
    idx_par, mats = _gl_mats(n, n)
    return _quotient_by_identity(lie_catalog("gl", n, n), idx_par, mats,
                                 name=f"pgl({n},{n})", metadata={"family": "pgl"})


def _build_pe(n):
    if not 1 <= n <= 3:
        raise ValueError(f"pe: need 1 <= n <= 3, got {n}")
    idx_par, mats = _pe_mats(n)
    return _span_algebra(idx_par, mats, name=f"pe({n})", metadata={"family": "pe"})


def _build_spe(n):
    if not 1 <= n <= 3:
        raise ValueError(f"spe: need 1 <= n <= 3, got {n}")
    idx_par, mats = _spe_mats(n)
    meta = {"family": "spe", **({"simple": "yes"} if n >= 3 else {})}
    return _span_algebra(idx_par, mats, name=f"spe({n})", metadata=meta)


def _build_q(n):
    if not 1 <= n <= 3:
        raise ValueError(f"q: need 1 <= n <= 3, got {n}")
    idx_par, mats = _q_mats(n)
    return _span_algebra(idx_par, mats, name=f"q({n})", metadata={"family": "q"})


def _build_sq(n):
    if not 1 <= n <= 3:
        raise ValueError(f"sq: need 1 <= n <= 3, got {n}")
    idx_par, mats = _sq_mats(n)
    return _span_algebra(idx_par, mats, name=f"sq({n})", metadata={"family": "sq"})


def _build_psq(n):
    if not 1 <= n <= 3:
        raise ValueError(f"psq: need 1 <= n <= 3, got {n}")
    idx_par, mats = _sq_mats(n)
    return _quotient_by_identity(
        lie_catalog("sq", n), idx_par, mats, name=f"psq({n})",
        metadata={"family": "psq", **({"simple": "yes"} if n >= 3 else {})})


def _build_pq(n):
    if not 1 <= n <= 3:
        raise ValueError(f"pq: need 1 <= n <= 3, got {n}")
    idx_par, mats = _q_mats(n)
    return _quotient_by_identity(lie_catalog("q", n), idx_par, mats,
                                 name=f"pq({n})", metadata={"family": "pq"})


_JORDAN_BUILDERS = {
    "j19": (_build_j19, 0),
    "kacK": (_build_kac_k, 0),
    "trunc_poly": (_build_trunc_poly, 1),
    "full_matrix": (_build_full_matrix, 2),
    "form": (_build_form, 2),
    "dt": (_build_dt, 1),
}

_LIE_BUILDERS = {
    "gl": (_build_gl, 2),
    "sl": (_build_sl, 2),
    "psl": (_build_psl, 1),
    "pgl": (_build_pgl, 1),
    "pe": (_build_pe, 1),
    "spe": (_build_spe, 1),
    "q": (_build_q, 1),
    "sq": (_build_sq, 1),
    "psq": (_build_psq, 1),
    "pq": (_build_pq, 1),
    "lambda": (_build_lambda, 1),
    "w": (_build_w, 1),
    "htilde": (_build_htilde, 1),
    "h": (_build_h, 1),
    "c_htilde": (_build_c_htilde, 1),
    "c_htilde_lambda": (_build_c_htilde_lambda, 1),
}


def _catalog(side, builders, name, params):
    params = tuple(_norm_param(p) for p in params)
    builder = builders.get(name)
    if builder is None:
        known = ", ".join(sorted(builders))
        raise ValueError(f"unknown {side} algebra {name!r}; known names: {known}")
    fn, arity = builder
    # psl/pgl accept the redundant (n, n) spelling as well as plain n
    if name in ("psl", "pgl") and len(params) == 2 and params[0] == params[1]:
        params = params[:1]
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if name != "dt" and not all(isinstance(p, int) for p in params):
        raise ValueError(f"{name} takes integer parameters, got {', '.join(map(str, params))}")
    if name == "dt":
        return fn(*params)
    key = (side, name, params)
    if key not in _MEMO:
        _MEMO[key] = fn(*params)
    return _MEMO[key]


def jordan_catalog(name, *params) -> SuperAlgebra:
    """Build a shipped Jordan superalgebra by family name and parameters."""
    return _catalog("jordan", _JORDAN_BUILDERS, name, params)


def lie_catalog(name, *params) -> SuperAlgebra:
    """Build a shipped Lie superalgebra by family name and parameters."""
    return _catalog("lie", _LIE_BUILDERS, name, params)


_JORDAN_DEFAULTS = (
    "j19", "kacK",
    "trunc_poly:4", "trunc_poly:5", "trunc_poly:6", "trunc_poly:7",
    "full_matrix:1,1", "full_matrix:1,2", "full_matrix:2,1",
    "form:1,2", "form:2,2", "form:3,0",
    "dt:2", "dt:1/2",
)

_LIE_DEFAULTS = (
    "gl:1,1", "gl:2,1", "gl:2,2", "sl:2,1", "sl:2,2", "psl:2,2", "pgl:2,2",
    "pe:2", "pe:3", "spe:3", "q:2", "q:3", "sq:3", "psq:3", "pq:2",
    "lambda:2", "lambda:4", "w:2", "w:3", "w:4",
    "htilde:4", "htilde:5", "h:4", "h:5", "h:6",
    "c_htilde:4", "c_htilde_lambda:4",
)


def jordan_entries() -> dict:
    """The shipped Jordan catalog, keyed by display name."""
    algs = [resolve(src) for src in _JORDAN_DEFAULTS]
    return {a.name: a for a in algs}


def lie_entries() -> dict:
    """The shipped Lie catalog, keyed by display name."""
    algs = [resolve(src) for src in _LIE_DEFAULTS]
    return {a.name: a for a in algs}


_SOURCE_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?::([^()]*)|\(([^()]*)\))?$")


def resolve(source: str) -> SuperAlgebra:
    """Turn a textual source like "dt:1/2" or "form(2,2)" into an algebra.

    Accepts catalog names with colon or parenthesis parameter syntax, and a
    serialized algebra file given as "file:PATH" or as a bare path (anything
    that names a file, or has a suffix and neither is a catalog name nor
    starts with one followed by ":" or "(").
    """
    if source.startswith("file:"):
        return _load_file(source[5:])
    m = _SOURCE_RE.match(source.strip())
    name = m.group(1) if m else None
    if name not in _JORDAN_BUILDERS and name not in _LIE_BUILDERS:
        path = Path(source)
        # a catalog name followed by bad parameters is no file name
        lead = re.match(r"([A-Za-z_][A-Za-z_0-9]*)[:(]", source.strip())
        named = lead and lead.group(1) in _JORDAN_BUILDERS.keys() | _LIE_BUILDERS.keys()
        if (path.suffix and not named) or path.is_file():
            return _load_file(path)
        if m is None:
            raise ValueError(f"cannot parse algebra source {source!r}")
        known = ", ".join(sorted(set(_JORDAN_BUILDERS) | set(_LIE_BUILDERS)))
        raise ValueError(f"unknown algebra {name!r}; known names: {known}")
    given = m.group(2) or m.group(3)
    params = [tok.strip() for tok in given.split(",")] if given else []
    if name in _JORDAN_BUILDERS:
        return jordan_catalog(name, *params)
    return lie_catalog(name, *params)


def _load_file(path) -> SuperAlgebra:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"{'not a regular file' if path.exists() else 'no such file'}: {path}")
    return load_algebra(path.read_bytes())


# ---------------------------------------------------------------------------
# serialization

_COEFF_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # used with fullmatch


def save_algebra(a: SuperAlgebra) -> bytes:
    """Serialize to line-oriented JSON, one structure constant per line in
    the order of a.entries (sorted by (i, j, k)), each distinct value
    written and quoted once and each index written once; the lines are
    written from the entries' columns (`SuperAlgebra.columns`)."""
    i, j, k, v = a.columns()
    text = {}  # the quoted x/d in lowest terms, as str(Fraction(x, d)) writes it
    for x in set(v):
        g = gcd(x, a.d)
        text[x] = '"%d"' % (x // g) if g == a.d else '"%d/%d"' % (x // g, a.d // g)
    index = [str(x) for x in range(a.dim)].__getitem__
    zd = list(a.zdegrees) if a.zdegrees is not None else None
    meta = {**a.metadata, "kind": a.kind}
    lines = ["{", '"schema_version": 1,', f'"name": {json.dumps(a.name)},',
             f'"parities": {json.dumps(list(a.parities))},', f'"zdegrees": {json.dumps(zd)},',
             '"products": [',
             ",\n".join([f'{{"i": {index(r)}, "j": {index(c)}, "k": {index(o)}, "coeff": {x}}}'
                         for r, c, o, x in zip(i, j, k, map(text.__getitem__, v))]),
             "],", f'"metadata": {json.dumps(dict(sorted(meta.items())))}', "}"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _expect(cond, msg):
    if not cond:
        raise ValueError(msg)


def _is_int(v) -> bool:
    return type(v) is int  # JSON gives no int subclass but bool


_FIELDS = {"schema_version", "name", "parities", "zdegrees", "products", "metadata"}
_PRODUCT = itemgetter("i", "j", "k", "coeff")


def _check_product(idx, item, n, seen):
    """Raise the diagnostic of products[idx], if it has a fault: its fields,
    indices and coefficient, then repetition of a key in seen, the keys of
    the products before it; else add its key to seen."""
    if not isinstance(item, dict):
        raise ValueError(f"products[{idx}]: expected an object")
    try:
        if len(item) != 4:
            raise KeyError  # as a field other than i, j, k, coeff does below
        entry = i, j, k, c = _PRODUCT(item)
    except KeyError:
        raise ValueError(f"products[{idx}]: expected exactly the fields i, j, k, coeff") from None
    for name, v in zip("ijk", entry):
        if not (_is_int(v) and 0 <= v < n):
            raise ValueError(f"products[{idx}].{name}: expected an index in 0..{n - 1}, "
                             f"got {v!r}")
    if not (isinstance(c, str) and _COEFF_RE.fullmatch(c)):
        raise ValueError(f"products[{idx}].coeff: {c!r} does not match "
                         "integer-or-fraction syntax")
    key = (i * n + j) * n + k
    if key in seen:
        raise ValueError(f"products[{idx}]: duplicate entry for {(i, j, k)}")
    seen.add(key)


def _product_arrays(prods, n):
    """(i, j, k, value, d): the products as int64 index arrays and integer
    values over the least common denominator d, sorted by (i, j, k), or
    None if some product has a fault.  Each check runs on a whole column:
    the products' types and field sets, the indices' types, their range
    (two reductions), each distinct coefficient string matched once, and
    repetition by one sort of the keys, skipped when they already increase."""
    import numpy as np
    if set(map(type, prods)) - {dict} or set(map(len, prods)) - {4}:
        return None
    try:
        *ijk, coeffs = list(zip(*map(_PRODUCT, prods))) or [()] * 4
    except KeyError:
        return None
    if any(set(map(type, col)) - {int} for col in ijk) or set(map(type, coeffs)) - {str}:
        return None
    try:
        i, j, k = ijk = np.array(ijk, dtype=np.int64).reshape(3, len(coeffs))
    except OverflowError:  # an index past int64
        return None
    if ijk.size and not (ijk.min() >= 0 and ijk.max() < n):
        return None
    distinct = set(coeffs)
    if not all(map(_COEFF_RE.fullmatch, distinct)):
        return None
    frac = {c: (int(num), int(den or 1)) for c in distinct for num, _, den in [c.partition("/")]}
    d = lcm(1, *(den for _, den in frac.values()))
    value = {c: num * (d // den) for c, (num, den) in frac.items()}
    v = np.fromiter(map(value.__getitem__, coeffs), count=len(coeffs),
                    dtype=int_dtype(max(map(abs, value.values()), default=0)))
    key = table_keys(i, j, k, n)
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        if (key[order[1:]] == key[order[:-1]]).any():
            return None
        i, j, k, v = i[order], j[order], k[order], v[order]
    return i, j, k, v, d


def load_algebra(data: bytes) -> SuperAlgebra:
    """Parse, validate and build a serialized algebra, with field-level
    diagnostics: the first fault is reported, the fields in order, each
    product for its fields, indices and coefficient, then repetition.

    The products are checked column by column (`_product_arrays`); only on
    a fault are they checked one at a time (`_check_product`), up to the
    first faulty one, whose diagnostic is formatted.  The sorted integer
    arrays over the least common denominator go to `integer_algebra`,
    whose own range and repetition checks are then a few reductions, and
    which checks homogeneity in (i, j, k) order and, by kind, the
    identities (super-Jacobi for a Lie table)."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    for key in doc:
        _expect(key in _FIELDS, f"unknown field {key!r}")
    for key in ("schema_version", "name", "parities", "products", "metadata"):
        _expect(key in doc, f"missing field {key!r}")
    ver = doc["schema_version"]
    _expect(_is_int(ver), "schema_version must be an integer")
    _expect(ver == 1, f"unsupported schema_version: {ver}")
    _expect(isinstance(doc["name"], str), "name must be a string")
    pars = doc["parities"]
    _expect(isinstance(pars, list), "parities must be a list")
    for idx, p in enumerate(pars):
        if not (_is_int(p) and p in (0, 1)):
            raise ValueError(f"parities[{idx}]: expected 0 or 1, got {p!r}")
    n = len(pars)
    zd = doc.get("zdegrees")
    if zd is not None:
        _expect(isinstance(zd, list) and len(zd) == n,
                f"zdegrees must be a list of length {n}")
        for idx, z in enumerate(zd):
            if not _is_int(z):
                raise ValueError(f"zdegrees[{idx}]: expected an integer, got {z!r}")
    prods = doc["products"]
    _expect(isinstance(prods, list), "products must be a list")
    arrays = _product_arrays(prods, n)
    if arrays is None:
        seen: set = set()
        for idx, item in enumerate(prods):
            _check_product(idx, item, n, seen)
        certify(False, "a column check rejected products that each pass their checks")
    meta = doc["metadata"]
    _expect(isinstance(meta, dict), "metadata must be an object")
    for k, v in meta.items():
        if not (isinstance(k, str) and isinstance(v, str)):
            raise ValueError(f"metadata entries must be string-to-string, got {k!r}: {v!r}")
    kind = meta.pop("kind", "plain")
    if kind not in ("plain", "jordan", "lie"):
        raise ValueError(f"unknown algebra kind {kind!r}")
    *entries, d = arrays
    return integer_algebra(pars, tuple(entries), d, zd, name=doc["name"], kind=kind,
                           metadata=meta)
