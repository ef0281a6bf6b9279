"""Exact integer tensors for the identity checks and the Kantor relations.

A rational table becomes an integer tensor (its constants times their common
denominator d, output coordinate last), and an identity of degree r holds iff
the same sum over the tensor, d**r times it, is zero.  A check runs in int64
only after proving its bound terms * n * max|a| * max|b| < 2**62 for each sum
of `terms` contractions over an index of length n; else in object-dtype Python
ints, still exact.

An algebra keeps its constants once, as the sorted nonzero integer entries
(i, j, k, value) over one least common denominator d.  Its `IntTable` holds
them as read-only COO arrays with d and max|value|, kept on the algebra
(`SuperAlgebra.int_table`): the arrays a loader, a construction or a Lie
builder handed `integer_algebra`, else built from the tuples on first use.
Every integer reader starts from it.  Super-Jacobi joins its nonzeros with
each other on the contracted index (`exact.range_join`), so that its work
follows the nonzeros and its memory the chunk; the dense kernels (the Jordan
checks, which hold O(n**5) entries, and the Kantor relations) scatter a
dense n x n x n array from it on request.  Tables that belong to no algebra
are integers from the start: operator stacks are read off the integer rows
of `exact.Subspace`, coordinates off `exact.GeneratedSpan.coordinates`.

The identities on L read one stack of the [L_a, L_b]
(`structure.l_brackets`): the Jordan identity contracts it with the table
(`jordan_defect`), and the operator identity is its derivation defect
(`derivation_defect`), the one derivation test, which assumes no symmetry
of the product and also certifies the Tits container.  The action of
g_0 = End(V) on Hom(V (x) V, V) (`g0_action`) builds the Kantor top space
<P, [L_a, P]> (`lp_tensor`) and the bracket relations that pin Kan(V) down
(`kantor_relation_verdicts`), each compared as integers at one power of d.

The degree-0 parts of the TKK constructions run here too: `brackets` forms
the supercommutators of two stacks of integer matrices in one batched
product, `pivot_coordinates` reads coordinates in a canonical basis off its
pivot columns and certifies them by one recombination, and
`bracket_map_defect` checks a linear map, an integer matrix over one
denominator, against two tables.  The J functor's triples [[x, y], z] of a
3-graded Lie table are one product of two of its slices (`lie_triples`).
numpy is imported lazily: a Jordan algebra built from tuples (the Jordan
catalog, `make_algebra`) is built and saved without it.
"""

from dataclasses import dataclass
from math import lcm

from .exact import int_dtype, range_join


@dataclass(frozen=True, eq=False)
class IntTable:
    """The table {(i, j): {k: c}} of an n-dimensional algebra on the
    integers: its nonzero constants as COO arrays i, j, k and value, sorted
    by (i, j, k), with value = c * d for the least common denominator d of
    the constants, and top = max|value| (0 for an empty table).  value is int64
    when top < 2**62, else object.  The arrays are read-only, so one table
    serves every reader of the algebra (`SuperAlgebra.int_table`)."""

    n: int
    i: object
    j: object
    k: object
    value: object
    d: int
    top: int

    def dtype(self, factor: int = 1, degree: int = 1):
        """The dtype of a check on the table whose sums stay within
        factor * max|value|**degree: int64 if that is below 2**62, else
        object (`int_dtype`)."""
        return int_dtype(factor * max(self.top, 1) ** degree)

    def dense(self, factor: int = 1, degree: int = 1):
        """A fresh array C[i, j, k] = value, in self.dtype(factor, degree)."""
        import numpy as np
        C = np.zeros((self.n,) * 3, dtype=self.dtype(factor, degree))
        C[self.i, self.j, self.k] = self.value
        return C


def _exact(arrays, factor, degree) -> list:
    """The arrays in int64 if factor * max|entry|**degree < 2**62, else object."""
    top = max((int(abs(a).max()) for a in arrays if a.size), default=0)
    dtype = int_dtype(factor * max(top, 1) ** degree)  # factor >= 1 unless all are empty
    return [a.astype(dtype) for a in arrays]


def _structure(a, terms, degree):
    """(C, s, d): C[i, j, k] = d (e_i e_j)_k scattered from a's `IntTable` in
    the dtype of the check's bound, s[i, j] = (-1)**(|i||j|)."""
    import numpy as np
    t, p = a.int_table, np.array(a.parities, dtype=np.int64)
    return t.dense(terms * t.n ** (degree - 1), degree), 1 - 2 * (np.outer(p, p) % 2), t.d


def _first(mask):
    """Index tuple of the first True entry in loop (C) order, or None."""
    import numpy as np
    if mask.any():
        return tuple(int(x) for x in np.unravel_index(int(mask.argmax()), mask.shape))
    return None


_JACOBI_CHUNK = 2 ** 14  # products per chunk of the super-Jacobi join (~2.6 MB of arrays)


def jacobi_defect(a):
    """First basis triple i <= j <= k, in C order, with a nonzero super-Jacobi
    sum s(i,k)[e_i,[e_j,e_k]] + s(j,i)[e_j,[e_k,e_i]] + s(k,j)[e_k,[e_i,e_j]].

    A term s(x,z) C[y,z,l] C[x,l,t] is a product of a nonzero [e_y, e_z] =
    c e_l with a nonzero [e_x, e_l] = c' e_t, so the sums are a join of the
    table's nonzeros on l (`exact.range_join`).  Only the (x, y, z) that are
    a rotation of a sorted triple (i, j, k) are joined, and the product goes
    to that triple's sum at coordinate t, key ((i n + j) n + k) n + t:
      y > z,  z <= x <= y:          (i, j, k) = (z, x, y);
      y <= z, x <= y:               (i, j, k) = (x, y, z);
      y <= z, x >= max(y + 1, z):   (i, j, k) = (y, z, x).
    Each case is a range of one factor's nonzeros sorted by (l, index) for
    a fixed nonzero of the other: [e_x, e_l] by (l, x) in the first and
    last, [e_y, e_z] by (l, y) in the second.  The fixed nonzero gives the
    range its lead i, the part of the key it knows, its value and the
    parity of its x or z; the varying side is one array of the three runs
    (the [e_x, e_l] twice, keyed for the first and the last case), each
    entry with the rest of the key, its value and the parity of its z or
    x, and s(x,z) is applied per product.  For i = j = k, whose three terms
    are equal, the product is counted once, which keeps the zero test.

    The ranges run in order of i, whole, _JACOBI_CHUNK products at a time;
    once no range of some i is left, the sums of the triples before it are
    complete, so the first of them that is nonzero is the answer, and only
    the sums of the i under way are held.  No array has n**4 entries or one
    per product.  A sum has at most 3n terms of at most max|C|**2, proved
    below 2**62 before the values are cast to int64; else the sums run on
    Python ints.  Both factors are read off a's `IntTable`: [e_y, e_z] in
    its (i, j, k) order, [e_x, e_l] by (j, i, k) and the y <= z entries of
    [e_y, e_z] by (l, y), each in one stable argsort of a composite int64
    key, (j n + i) n + k and l n + y (below n**3); no dense C is formed.
    """
    import numpy as np
    t = a.int_table
    n, p = t.n, np.array(a.parities, dtype=bool)
    value = t.value.astype(t.dtype(3 * n, 2), copy=False)
    y, z, l, inner = t.i, t.j, t.k, value           # [e_y, e_z] = sum_l C[y, z, l] e_l
    by_jik = ((t.j * n + t.i) * n + t.k).argsort(kind="stable")  # [e_x, e_l] by (l, x)
    lo, xo, to, outer = t.j[by_jik], t.i[by_jik], t.k[by_jik], value[by_jik]
    down, up = (y > z).nonzero()[0], (y <= z).nonzero()[0]
    by_ly = up[(l[up] * n + y[up]).argsort(kind="stable")]
    yu, zu = y[by_ly], z[by_ly]
    at_x, at_y, m, n3 = lo * n + xo, l[by_ly] * n + yu, len(xo), n ** 3
    varying = (np.concatenate([xo * n * n + to, xo * n + to, (yu * n + zu) * n]),
               np.concatenate([outer, outer, inner[by_ly]]), np.concatenate([p[xo], p[xo], p[zu]]))

    def within(at, first, last, offset, const, fixed, flag):
        """Per fixed nonzero, the range first <= at <= last of the sorted
        keys at, placed at offset in the varying side."""
        start = at.searchsorted(first)
        size = np.maximum(at.searchsorted(last, side="right") - start, 0)
        return start + offset, size, const, fixed, flag

    yd, zd, yp, zp = y[down], z[down], y[up], z[up]
    ranges = [np.concatenate(v) for v in zip(
        within(at_x, l[down] * n + zd, l[down] * n + yd, 0, zd * n3 + yd * n, inner[down], p[zd]),
        within(at_y, at_x, lo * n + n - 1, 2 * m, xo * n3 + to, outer, p[xo]),
        within(at_x, l[up] * n + np.maximum(yp + 1, zp), l[up] * n + n - 1, m,
               (yp * n + zp) * n * n, inner[up], p[zp]))]
    keep = ranges[1].nonzero()[0]
    keep = keep[ranges[2][keep].argsort()]  # by const, so by lead i = const // n**3
    for f in range(len(ranges)):  # one array at a time, so that one copy is held
        ranges[f] = ranges[f][keep]
    for keys, _ in range_join(ranges, varying, n3, _JACOBI_CHUNK):
        if len(keys):  # complete and nonzero: the first is the answer
            return tuple(int(v) for v in np.unravel_index(int(keys[0]), (n, n, n, n))[:3])
    return None


def jordan_defect(a, B):
    """First basis triple i <= j <= k where the sum over its cyclic shifts
    (x, y, z) of s(x,z)[L_x, L_{yz}] is nonzero, for B[x n + m] = d**2
    [L_x, L_m] (`structure.l_brackets`): d**3 [L_x, L_{yz}] is
    sum_m C[y, z, m] B[x n + m], and a cyclic sum has 3n terms of at most
    2n max|C|**2 times max|C|, within the bound of C's dtype."""
    import numpy as np
    C, s, _ = _structure(a, 6, 3)
    n = len(C)
    H = np.einsum('yzm,xmf->xyzf', C, B.reshape(n, n, n * n)) * s[:, None, :, None]
    J = H + H.transpose(1, 2, 0, 3) + H.transpose(2, 0, 1, 3)  # [x, y, z, (r, c)]
    i, j, k = np.indices(J.shape[:3])
    return _first((J != 0).any(axis=3) & (i <= j) & (j <= k))


_DEFECT_CHUNK = 4  # operators per derivation-defect contraction


def derivation_defect(a, A, parities):
    """First (t, x), in row-major order, where the operator A_t (A_t e_c =
    sum_r A[t, r, c] e_r, of parity parities[t]) breaks A(xy) = (Ax)y +
    (-1)**(|A||x|) x(Ay) for x = e_x and some basis y, or None; no symmetry
    of the product is assumed.  Each term is one product per _DEFECT_CHUNK
    operators, so that no transient array holds more than a few n**3
    tables; the defect sums 3n products of an entry of A and a constant."""
    import numpy as np
    t, n = a.int_table, a.dim
    A, C = _exact([A.transpose(0, 2, 1), t.dense(3 * n, 2)], 3 * n, 2)  # A[t, c, r]
    sign = 1 - 2 * (np.outer(parities, a.parities) % 2)  # (-1)**(|A_t||x|)
    xy, r_yl, r_xl = C.reshape(n * n, n), C.reshape(n, n * n), C.transpose(1, 0, 2).reshape(n, -1)
    for lo in range(0, len(A), _DEFECT_CHUNK):
        X, s = A[lo:lo + _DEFECT_CHUNK], sign[lo:lo + _DEFECT_CHUNK, :, None, None]
        D = ((xy @ X).reshape(-1, n, n, n) - (X @ r_yl).reshape(-1, n, n, n)  # [t, x, y, l]
             - s * (X @ r_xl).reshape(-1, n, n, n).transpose(0, 2, 1, 3))
        hit = _first((D != 0).any(axis=(2, 3)))
        if hit is not None:
            return lo + hit[0], hit[1]
    return None


def triple_tensor(a):
    """(T, d): T[i, j, k] = d**2 {e_i, e_j, e_k}, the Jordan triple
    2((e_i e_j) e_k + e_i (e_j e_k) - s(i,j) e_j (e_i e_k)), with d the
    table's common denominator."""
    import numpy as np
    C, s, d = _structure(a, 6, 2)
    X = np.einsum('jkm,iml->ijkl', C, C)  # e_i (e_j e_k)
    P = np.einsum('ijm,mkl->ijkl', C, C)  # (e_i e_j) e_k
    return 2 * (P + X - s[:, :, None, None] * X.transpose(1, 0, 2, 3)), d


def contract(A, B):
    """A . B for integer arrays, the last axis of A against the first of B;
    in int64 only under k * max|entry|**2 < 2**62 for that axis of length k,
    else on Python ints."""
    import numpy as np
    A, B = _exact([A, B], A.shape[-1], 2)
    return np.tensordot(A, B, axes=1)


def lie_triples(C, plus, minus):
    """(T+, T-) for the table C of a 3-graded Lie superalgebra scaled by d
    and the indices of its degree +1 and -1 basis vectors:
    T+[i, j, k] = d**2 [[e_plus[i], e_minus[j]], e_plus[k]] in all
    coordinates, C[plus][:, minus] . C[:, plus], and T- its mirror with the
    two blocks exchanged."""
    return tuple(contract(C[a][:, b], C[:, a]) for a, b in ((plus, minus), (minus, plus)))


def outer_symmetry_defect(T, p, q):
    """First (i, j, k) with T[i, j, k] != (-1)**(p_i q_j + q_j p_k + p_k p_i)
    T[k, j, i] for a triple on (V, W): i, k index V (parities p), j W (q)."""
    import numpy as np
    e = np.outer(p, q)[:, :, None] + np.outer(q, p)[None] + np.outer(p, p)[:, None]
    return _first((T != (1 - 2 * (e % 2))[..., None] * T.transpose(2, 1, 0, 3)).any(axis=3))


def five_linear_defect(T, U, p, q):
    """First (i, j, u, v, w), in C order, where the 5-linear identity of triples
    T on V, U on W (T[i, j, k]: i, k in V, j in W; scaled alike; parities p, q)
    {x,y,{u,v,w}} - {{x,y,u},v,w} + s{u,{v,x,y},w} - s{u,v,{x,y,w}} = 0, with
    s = (-1)**((|x|+|y|)(|u|+|v|)), fails; None if it holds."""
    import numpy as np
    p, q = np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)
    T, U = _exact([T, U], 4 * max(len(p), len(q)), 2)
    uv = (p[:, None] + q[None, :]) % 2
    for i in range(len(p)):
        s = 1 - 2 * (((p[i] + q)[:, None, None] * uv) % 2)[..., None, None]
        sums = (np.einsum('uvwm,jml->juvwl', T, T[i]) - np.einsum('jum,mvwl->juvwl', T[i], T)
                + s * (np.einsum('vjm,umwl->juvwl', U[:, i], T)
                       - np.einsum('jwm,uvml->juvwl', T[i], T)))
        hit = _first((sums != 0).any(axis=4))
        if hit is not None:
            return (i,) + hit
    return None


def g0_action(A, B, sign, p):
    """[A, B] for operators A[..., r, c] (A e_c = sum_r A[r, c] e_r) on bilinear
    maps B[..., i, j, l] = B(e_i, e_j)_l, batch axes broadcast:
    A B(x, y) - sign B(Ax, y) - sign (-1)**(|x||y|) B(Ay, x), where sign holds
    (-1)**(|A||B|) in the batch's shape and p the parities of V.  Integer A, B
    scaled by dA, dB give dA dB [A, B]; each entry sums 3n products."""
    import numpy as np
    s = 1 - 2 * (np.outer(p, p) % 2)
    sign = np.asarray(sign)[..., None, None, None]
    A, B = _exact([A, B], 3 * len(p), 2)
    Bx = np.einsum('...ri,...rjl->...ijl', A, B)  # B(A e_i, e_j)
    return (np.einsum('...lm,...ijm->...ijl', A, B)
            - sign * (Bx + s[:, :, None] * np.swapaxes(Bx, -3, -2)))


def lp_tensor(a):
    """(LP, d): LP[x] = d**2 [L_x, P], with P(e_i, e_j) = e_i e_j and d the
    table's common denominator."""
    t = a.int_table
    C = t.dense()
    return g0_action(C.transpose(0, 2, 1), C, 1, a.parities), t.d


def kantor_relation_verdicts(a, B, unit=None) -> list:
    """Whether each Kantor relation on Hom(V (x) V, V) holds, in the order
    [P, x] = L_x;  [[L_a, P], x] = [L_a, L_x] - L_{ax};
    [L_a, [L_b, P]] = -[L_{ab}, P];  [[L_a, L_b], P] = 0;
    [[L_a, L_b], [L_c, P]] = (-1)**(|b||c|) [L_{a(cb) - (ac)b}, P];
    and, for a unit e (rational coordinates), P = -[L_e, P].  B[a n + x] =
    d**2 [L_a, L_x] (`structure.l_brackets`).

    [B, x] is the operator y -> B(x, y).  Every relation but the last is
    homogeneous in the table, so both sides compare as integers at one power
    of d: 1 for the first, 2 for the second, 3 for the next two, 4 for the
    Weyl relation.  The last compares at d times the unit's denominator.
    Loops over a keep every array at n**5 entries.
    """
    import numpy as np
    t, p = a.int_table, np.array(a.parities, dtype=np.int64)
    n, d, C = t.n, t.d, t.dense()
    s = 1 - 2 * (np.outer(p, p) % 2)
    L = C.transpose(0, 2, 1)                       # d L_a
    LP, _ = lp_tensor(a)                           # d**2 [L_a, P]
    Cq, Lq = _exact([C, L], 3 * n, 2)
    inner = B.reshape(n, n, n, n)                  # d**2 [L_a, L_x]
    l_ax = np.einsum('axm,mlj->axlj', Cq, Lq)      # d**2 L_{ax}
    verdicts = [True,  # [P, x](y) = P(x, y) = xy = L_x y: P is the product itself
                bool((LP.transpose(0, 1, 3, 2) == inner - l_ax).all())]
    mid = kills = weyl = True
    for i in range(n):
        # [L_a, d**2 [L_b, P]] against -d (ab)_c d**2 [L_c, P], over b
        Ci, LPq = _exact([C[i], LP], n, 2)
        mid = mid and bool((g0_action(L[i], LP, s[i], p)
                            == -np.einsum('bc,cijl->bijl', Ci, LPq)).all())
        kills = kills and not (g0_action(inner[i], C, 1, p) != 0).any()
        # d**2 (a(cb) - (ac)b) over (b, c); Cq's 3n bound covers its 2n terms
        w = (np.einsum('cbk,km->bcm', Cq, Cq[i]) - np.einsum('ck,kbm->bcm', Cq[i], Cq))
        w, LPq = _exact([w, LP], n, 2)
        sign = s[i, None, :] * s  # (-1)**((|a|+|b|)|c|) over (b, c)
        weyl = weyl and bool((g0_action(inner[i][:, None], LP[None], sign, p)
                              == s[:, :, None, None, None]
                              * np.einsum('bcm,mijl->bcijl', w, LPq)).all())
    verdicts += [mid, kills, weyl]
    if unit is not None:
        du = lcm(1, *(int(x.denominator) for x in unit))
        u = np.array([int(x.numerator) * (du // int(x.denominator)) for x in unit], dtype=object)
        Cd, = _exact([C], d * du, 1)
        u, LPq = _exact([u, LP], n, 2)
        verdicts.append(bool((Cd * (d * du) == -np.einsum('c,cijl->ijl', u, LPq)).all()))
    return verdicts


def brackets(A, pa, B, pb):
    """[A_t, B_s] = A_t B_s - (-1)**(pa_t pb_s) B_s A_t for stacks of integer
    matrices A[t, r, c], B[s, r, c] with parities pa, pb, as one array
    [t, s, r, c].  A, B scaled by dA, dB give dA dB [A_t, B_s]; each entry
    sums 2m products for m x m matrices."""
    import numpy as np
    A, B = _exact([A, B], 2 * A.shape[-1], 2)
    A, B = A[:, None], B[None]
    return A @ B - (1 - 2 * (np.outer(pa, pb) % 2))[:, :, None, None] * (B @ A)


def pivot_coordinates(X, pivots, B, den):
    """(C, inside) for integer rows X[b] and a subspace whose canonical basis
    is B / den (B integer; each basis row 1 at its own pivot, 0 at the
    others): C[b] = X[b] at the pivots, the coordinates of X[b] / s in the
    basis for every scale s, and inside[b] certifies them by recombination,
    C[b] B == den X[b], which holds iff X[b] lies in the subspace."""
    import numpy as np
    C = X[:, list(pivots)]
    Cq, Bq = _exact([C, B], max(1, len(pivots)), 2)
    Xq, = _exact([X], den, 1)
    return C, ((Cq @ Bq) == den * Xq).all(axis=1)


def mismatch(X, fx, Y, fy):
    """X fx != Y fy entrywise for integer arrays and positive integer factors,
    each product cast for its own bound."""
    Xq, = _exact([X], fx, 1)
    Yq, = _exact([Y], fy, 1)
    return Xq * fx != Yq * fy


def bracket_map_defect(src, dst, F, df):
    """First basis pair (i, j), in row-major order, where the linear map
    phi: e_i -> sum_a F[i, a] / df e_a (F an integer matrix, int64 or
    object, and df > 0) breaks phi(e_i e_j) = phi(e_i) phi(e_j), or None.
    The tables come scaled by their own denominators ds, dd (`IntTable`);
    the two sides are ds df phi(e_i e_j) = C_src[i, j] F and
    df**2 dd phi(e_i) phi(e_j) = F[i, a] F[j, b] C_dst[a, b], compared as
    df dd lhs == ds rhs."""
    import numpy as np
    n = src.dim
    ts, td = src.int_table, dst.int_table
    Cs, Fs = _exact([ts.dense(), F], n, 2)
    lhs = np.einsum('ijk,kc->ijc', Cs, Fs)
    Cd, Fd = _exact([td.dense(), F], n * n, 3)  # n**2 max**3 bounds both contractions
    rhs = np.einsum('jb,ibc->ijc', Fd, np.einsum('ia,abc->ibc', Fd, Cd))
    return _first(mismatch(lhs, df * td.d, rhs, ts.d).any(axis=2))
