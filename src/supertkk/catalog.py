"""Shipped Jordan and Lie superalgebras, plus the on-disk format.

The Jordan side holds the small examples used everywhere else: the degenerate
three-dimensional algebra j19, the non-unital Kac superalgebra kacK, truncated
polynomials t*Q[t]/(t^k), matrix algebras under the symmetrised product, the
superform (spin factor) family, and the one-parameter family dt(t).  The Lie
side holds the matrix families gl/sl/psl/pgl, the periplectic and queer
families, and the exterior tower: the Poisson bracket on lambda(n), the
derivation algebra w(n), htilde(n)/h(n), and two semidirect extensions by the
Euler operator C.

Files are line-oriented JSON with exact rational coefficients kept as strings,
so load(save(spec)) == spec and saving is byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import lcm
from pathlib import Path

from .exact import GeneratedSpan, Q, certify, span
from .superspace import (SuperAlgebra, derived, integer_algebra, make_algebra, mirror,
                         quotient_algebra, subalgebra)

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


def _build_j19():
    upper = [(0, 0, 0, Q(1)), (0, 1, 1, Q(1, 2)), (1, 1, 2, Q(1))]
    parities = (0, 0, 0)
    return make_algebra(parities, mirror(parities, upper, 1), name="j19",
                        kind="jordan", metadata={"family": "j19"})


def _build_kac_k():
    # basis a (even), xi1, xi2 (odd); a^2 = a, a xi_i = xi_i/2, xi1 xi2 = a
    upper = [(0, 0, 0, Q(1)), (0, 1, 1, Q(1, 2)), (0, 2, 2, Q(1, 2)),
             (1, 2, 0, Q(1))]
    parities = (0, 1, 1)
    return make_algebra(parities, mirror(parities, upper, 1), name="kacK",
                        kind="jordan", metadata={"family": "kacK"})


def _build_trunc_poly(k):
    if not 3 <= k <= 8:
        raise ValueError(f"trunc_poly: k must be in 3..8, got {k}")
    # basis t, t^2, ..., t^(k-1); index i holds t^(i+1)
    upper = []
    for i in range(k - 1):
        for j in range(i, k - 1):
            if i + j + 2 <= k - 1:
                upper.append((i, j, i + j + 1, Q(1)))
    parities = (0,) * (k - 1)
    return make_algebra(parities, mirror(parities, upper, 1),
                        name=f"trunc_poly({k})", kind="jordan",
                        metadata={"family": "trunc_poly"})


def _build_full_matrix(m, n):
    if m < 0 or n < 0 or not 1 <= m + n <= 3:
        raise ValueError(f"full_matrix: need m,n >= 0 and 1 <= m+n <= 3, got ({m},{n})")
    d = m + n
    cells = [(a, b) for a in range(d) for b in range(d)]
    idx = {ab: i for i, ab in enumerate(cells)}
    parities = tuple((int(a >= m) + int(b >= m)) % 2 for a, b in cells)
    products = []
    for i, (a, b) in enumerate(cells):
        for j, (c, e) in enumerate(cells):
            acc = {}
            if b == c:  # x y contributes E_{ae}/2
                acc[idx[a, e]] = acc.get(idx[a, e], Q(0)) + Q(1, 2)
            if e == a:  # (-1)^{|x||y|} y x contributes +-E_{cb}/2
                s = Q(1, 2) if parities[i] * parities[j] % 2 == 0 else Q(-1, 2)
                acc[idx[c, b]] = acc.get(idx[c, b], Q(0)) + s
            products.extend((i, j, k, v) for k, v in acc.items() if v)
    return make_algebra(parities, products, name=f"full_matrix({m},{n})",
                        kind="jordan",
                        metadata={"family": "full_matrix", "external": "yes"})


def _build_form(p, two_q):
    if p < 0 or two_q < 0 or two_q % 2:
        raise ValueError(f"form: need p >= 0 and even 2q >= 0, got ({p},{two_q})")
    if not 1 <= p + two_q <= 5:
        raise ValueError(f"form: need 1 <= p+2q <= 5, got ({p},{two_q})")
    # basis e, u_1..u_p (even), z_1..z_2q (odd); e is the unit,
    # u_i u_j = delta_ij e, z pairs are symplectic: z_{2l-1} z_{2l} = e.
    dim = 1 + p + two_q
    parities = (0,) * (1 + p) + (1,) * two_q
    upper = [(0, i, i, Q(1)) for i in range(dim)]
    upper += [(i, i, 0, Q(1)) for i in range(1, 1 + p)]
    upper += [(1 + p + 2 * l, 2 + p + 2 * l, 0, Q(1)) for l in range(two_q // 2)]
    return make_algebra(parities, mirror(parities, upper, 1),
                        name=f"form({p},{two_q})", kind="jordan",
                        metadata={"family": "form", "external": "yes"})


def _build_dt(t):
    t = Q(t)
    if t == 0 or t == -1:
        raise ValueError("dt: parameter must avoid 0 and -1")
    # basis e1, e2 (even idempotents), x, y (odd); e1+e2 is the unit.
    upper = [(0, 0, 0, Q(1)), (1, 1, 1, Q(1)),
             (0, 2, 2, Q(1, 2)), (0, 3, 3, Q(1, 2)),
             (1, 2, 2, Q(1, 2)), (1, 3, 3, Q(1, 2)),
             (2, 3, 0, Q(1)), (2, 3, 1, t)]
    parities = (0, 0, 1, 1)
    return make_algebra(parities, mirror(parities, upper, 1),
                        name=f"dt({t})", kind="jordan",
                        metadata={"family": "dt", "external": "yes"})


# ---------------------------------------------------------------------------
# matrix Lie families, built from explicit spanning matrices


def _compose(x, y):
    rows = {}
    for (b, c), v in y.items():
        rows.setdefault(b, []).append((c, v))
    out = {}
    for (a, b), v in x.items():
        for c, w in rows.get(b, ()):
            out[a, c] = out.get((a, c), Q(0)) + v * w
    return {k: v for k, v in out.items() if v}


def _flat(mat, d):
    row = [Q(0)] * (d * d)
    for (a, b), v in mat.items():
        row[a * d + b] = v
    return tuple(row)


def _mat_parity(mat, idx_par):
    pars = {(idx_par[a] + idx_par[b]) % 2 for a, b in mat}
    if len(pars) != 1:
        raise ValueError("spanning matrix is not parity-homogeneous")
    return pars.pop()


def _span_algebra(idx_par, mats, *, name, metadata=None):
    """Structure constants of a bracket-closed span of matrices.

    idx_par gives the parity of each index of the underlying superspace; the
    bracket is the supercommutator.  Raises if the matrices are dependent or
    the span is not closed.
    """
    d = len(idx_par)
    gens = GeneratedSpan([_flat(m, d) for m in mats], d * d)
    if gens.dim < len(mats):
        raise ValueError(f"{name}: spanning matrices are dependent")
    parities = tuple(_mat_parity(m, idx_par) for m in mats)
    products = []
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            xy, yx = _compose(x, y), _compose(y, x)
            s = 1 if parities[i] * parities[j] % 2 == 0 else -1
            br = dict(xy)
            for ab, v in yx.items():
                br[ab] = br.get(ab, Q(0)) - v * s
            coords = gens.express(_flat(br, d))
            if coords is None:
                raise ValueError(f"{name}: span not closed under the bracket")
            products.extend((i, j, k, c) for k, c in enumerate(coords) if c)
    return make_algebra(parities, products, name=name, kind="lie",
                        metadata=metadata or {})


def _E(a, b):
    return {(a, b): Q(1)}


def _mat_sum(*terms):
    out = {}
    for mat, c in terms:
        for ab, v in mat.items():
            out[ab] = out.get(ab, Q(0)) + v * c
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
        sa = Q(-1) if idx_par[a] else Q(1)
        sb = Q(-1) if idx_par[a + 1] else Q(1)
        mats.append(_mat_sum((_E(a, a), sa), (_E(a + 1, a + 1), -sb)))
    return idx_par, mats


def _identity_mat(d):
    return _mat_sum(*((_E(a, a), Q(1)) for a in range(d)))


def _quotient_by_identity(alg, idx_par, mats, *, name, metadata):
    d = len(idx_par)
    coords = GeneratedSpan([_flat(m, d) for m in mats], d * d).express(
        _flat(_identity_mat(d), d))
    certify(coords is not None, "identity matrix should lie in the span")
    return quotient_algebra(alg, span([coords]), name=name, metadata=metadata)


def _pe_mats(n):
    idx_par = (0,) * n + (1,) * n
    mats = [_mat_sum((_E(a, b), Q(1)), (_E(n + b, n + a), Q(-1)))
            for a in range(n) for b in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b:
                mats.append(_E(a, n + a))
            else:
                mats.append(_mat_sum((_E(a, n + b), Q(1)), (_E(b, n + a), Q(1))))
    for a in range(n):
        for b in range(a + 1, n):
            mats.append(_mat_sum((_E(n + a, b), Q(1)), (_E(n + b, a), Q(-1))))
    return idx_par, mats


def _spe_mats(n):
    idx_par, pe = _pe_mats(n)
    diag = {a * n + a: pe[a * n + a] for a in range(n)}  # A_aa positions
    mats = [m for i, m in enumerate(pe) if i not in diag]
    for a in range(n - 1):
        mats.append(_mat_sum((diag[a * n + a], Q(1)),
                             (diag[(a + 1) * n + a + 1], Q(-1))))
    return idx_par, mats


def _q_even(n, a, b):
    return _mat_sum((_E(a, b), Q(1)), (_E(n + a, n + b), Q(1)))


def _q_odd(n, a, b):
    return _mat_sum((_E(a, n + b), Q(1)), (_E(n + a, b), Q(1)))


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
        mats.append(_mat_sum((_q_odd(n, a, a), Q(1)), (_q_odd(n, a + 1, a + 1), Q(-1))))
    return idx_par, mats


# ---------------------------------------------------------------------------
# exterior families: lambda(n) with the Poisson bracket, w(n), htilde, h,
# and the semidirect extensions by the Euler operator C


def _masks(n):
    return sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))


def _wedge(a, b):
    """Sign and mask of xi^a * xi^b in the exterior algebra, or None."""
    if a & b:
        return None
    inv = 0
    for j in range(b.bit_length()):
        if (b >> j) & 1:
            inv += bin(a >> (j + 1)).count("1")
    return (-1 if inv % 2 else 1), a | b


def _partial(i, a):
    """Sign and mask of the odd derivation d/d xi_i on xi^a, or None."""
    if not (a >> i) & 1:
        return None
    below = bin(a & ((1 << i) - 1)).count("1")
    return (-1 if below % 2 else 1), a ^ (1 << i)


def _poisson_pairs(n):
    if n < 2:
        raise ValueError(f"the Poisson bracket needs n >= 2, got {n}")
    return [(i, i) for i in range(n - 2)] + [(n - 2, n - 1), (n - 1, n - 2)]


def _poisson(n, a, b, pairs):
    sf = -1 if bin(a).count("1") % 2 else 1  # (-1)^{|f|} prefactor
    out = {}
    for i, j in pairs:
        pa, pb = _partial(i, a), _partial(j, b)
        if pa is None or pb is None:
            continue
        w = _wedge(pa[1], pb[1])
        if w is None:
            continue
        out[w[1]] = out.get(w[1], 0) + sf * pa[0] * pb[0] * w[0]
    return {k: v for k, v in out.items() if v}


def _build_lambda(n):
    if not 2 <= n <= 6:
        raise ValueError(f"lambda: n must be in 2..6, got {n}")
    masks = _masks(n)
    pos = {mask: i for i, mask in enumerate(masks)}
    pairs = _poisson_pairs(n)
    parities = tuple(bin(m).count("1") % 2 for m in masks)
    zdeg = tuple(bin(m).count("1") - 2 for m in masks)
    products = []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            for c, v in _poisson(n, a, b, pairs).items():
                products.append((i, j, pos[c], v))
    return integer_algebra(parities, products, 1, zdeg, name=f"lambda({n})",
                           kind="lie", metadata={"family": "lambda"})


def _build_htilde(n):
    lam = lie_catalog("lambda", n)
    return quotient_algebra(lam, span([lam.basis_vector(0)]), name=f"htilde({n})",
                            metadata={"family": "htilde"})


def _build_h(n):
    ht = lie_catalog("htilde", n)
    return subalgebra(ht, derived(ht), name=f"h({n})",
                      metadata={"family": "h", **({"simple": "yes"} if n >= 4 else {})})


def _build_w(n):
    if not 1 <= n <= 6:
        raise ValueError(f"w: n must be in 1..6, got {n}")
    basis = [(mask, i) for mask in _masks(n) for i in range(n)]
    pos = {fi: k for k, fi in enumerate(basis)}
    parities = tuple((bin(mask).count("1") + 1) % 2 for mask, _ in basis)
    zdeg = tuple(bin(mask).count("1") - 1 for mask, _ in basis)
    products = []
    # [f di, g dj] = f di(g) dj - (-1)^{(|f|+1)(|g|+1)} g dj(f) di
    for k1, (f, i) in enumerate(basis):
        for k2, (g, j) in enumerate(basis):
            acc = {}
            pg = _partial(i, g)
            if pg is not None:
                w = _wedge(f, pg[1])
                if w is not None:
                    t = (w[1], j)
                    acc[t] = acc.get(t, 0) + pg[0] * w[0]
            pf = _partial(j, f)
            if pf is not None:
                w = _wedge(g, pf[1])
                if w is not None:
                    s = -1 if parities[k1] * parities[k2] % 2 else 1
                    t = (w[1], i)
                    acc[t] = acc.get(t, 0) - s * pf[0] * w[0]
            products.extend((k1, k2, pos[t], v) for t, v in acc.items() if v)
    return integer_algebra(parities, products, 1, zdeg, name=f"w({n})", kind="lie",
                           metadata={"family": "w", **({"simple": "yes"} if n >= 2 else {})})


def _build_c_htilde(n):
    # K C |x htilde(n): C is the Euler grading operator, [C, f] = (deg f - 2) f
    ht = lie_catalog("htilde", n)
    products = [(i + 1, j + 1, k + 1, v) for i, j, k, v in ht.entries]
    for j in range(ht.dim):
        wt = ht.zdegree(j) * ht.d
        if wt:
            products.append((0, j + 1, j + 1, wt))
            products.append((j + 1, 0, j + 1, -wt))
    parities = (0,) + tuple(ht.parity(i) for i in range(ht.dim))
    zdeg = (0,) + tuple(ht.zdegree(i) for i in range(ht.dim))
    return integer_algebra(parities, products, ht.d, zdeg, name=f"c_htilde({n})",
                           kind="lie", metadata={"family": "c_htilde"})


def _build_c_htilde_lambda(n):
    # K C |x (htilde(n) |x lambda(n)): htilde acts on the abelian lambda(n)
    # through the Poisson bracket, C acts by (deg - 2) on htilde and deg on
    # lambda(n).
    if not 2 <= n <= 5:
        raise ValueError(f"c_htilde_lambda: n must be in 2..5, got {n}")
    ht = lie_catalog("htilde", n)
    masks = _masks(n)
    pairs = _poisson_pairs(n)
    hoff, loff = 1, 1 + ht.dim
    lpos = {mask: loff + i for i, mask in enumerate(masks)}
    d = ht.d
    products = [(i + hoff, j + hoff, k + hoff, v) for i, j, k, v in ht.entries]
    par = [0] + [ht.parity(i) for i in range(ht.dim)] \
        + [bin(m).count("1") % 2 for m in masks]
    zdeg = [0] + [ht.zdegree(i) for i in range(ht.dim)] \
        + [bin(m).count("1") for m in masks]
    for i in range(ht.dim):
        f = masks[i + 1]  # coset representative of basis element i of htilde
        for j, g in enumerate(masks):
            for c, v in _poisson(n, f, g, pairs).items():
                s = -1 if par[hoff + i] * par[loff + j] % 2 else 1
                products.append((hoff + i, loff + j, lpos[c], v * d))
                products.append((loff + j, hoff + i, lpos[c], -s * v * d))
    for k in range(1, 1 + ht.dim + len(masks)):
        if zdeg[k]:
            products.append((0, k, k, zdeg[k] * d))
            products.append((k, 0, k, -zdeg[k] * d))
    return integer_algebra(par, products, d, zdeg, name=f"c_htilde_lambda({n})",
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
        raise ValueError(f"no such file: {path}")
    return load_algebra(path.read_bytes())


# ---------------------------------------------------------------------------
# serialization

_COEFF_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # used with fullmatch


@dataclass(frozen=True)
class AlgebraSpec:
    """Plain serializable description of a superalgebra's structure constants."""

    name: str
    parities: tuple
    products: tuple  # sorted (i, j, k, coeff-string) entries
    zdegrees: tuple | None = None
    metadata: dict = field(default_factory=dict)
    schema_version: int = 1


def algebra_to_spec(a: SuperAlgebra) -> AlgebraSpec:
    text = {v: str(Q(v, a.d)) for v in {e[3] for e in a.entries}}  # one per distinct value
    meta = dict(a.metadata)
    meta["kind"] = a.kind
    return AlgebraSpec(name=a.name,
                       parities=tuple(a.parities),
                       products=tuple((i, j, k, text[v]) for i, j, k, v in a.entries),
                       zdegrees=tuple(a.zdegrees) if a.zdegrees is not None else None,
                       metadata=meta)


def spec_to_algebra(spec: AlgebraSpec) -> SuperAlgebra:
    meta = dict(spec.metadata)
    kind = meta.pop("kind", "plain")
    if kind not in ("plain", "jordan", "lie"):
        raise ValueError(f"unknown algebra kind {kind!r}")
    # each distinct coefficient string, a few repeated, as an integer over d
    parsed = {c: c.partition("/") for c in {c for *_, c in spec.products}}
    d = lcm(1, *(int(den) for _, _, den in parsed.values() if den))
    value = {c: int(num) * (d // int(den or 1)) for c, (num, _, den) in parsed.items()}
    return integer_algebra(spec.parities, [(i, j, k, value[c]) for i, j, k, c in spec.products],
                           d, spec.zdegrees, name=spec.name, kind=kind, metadata=meta)


def save(spec: AlgebraSpec) -> bytes:
    """Serialize to line-oriented JSON: one structure constant per line."""
    lines = ["{"]
    lines.append(f'"schema_version": {spec.schema_version},')
    lines.append(f'"name": {json.dumps(spec.name)},')
    lines.append(f'"parities": {json.dumps(list(spec.parities))},')
    zd = list(spec.zdegrees) if spec.zdegrees is not None else None
    lines.append(f'"zdegrees": {json.dumps(zd)},')
    lines.append('"products": [')
    body = [f'{{"i": {i}, "j": {j}, "k": {k}, "coeff": {json.dumps(c)}}}'
            for i, j, k, c in sorted(spec.products)]
    lines.append(",\n".join(body))
    lines.append("],")
    meta = {k: spec.metadata[k] for k in sorted(spec.metadata)}
    lines.append(f'"metadata": {json.dumps(meta)}')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _expect(cond, msg):
    if not cond:
        raise ValueError(msg)


def _is_int(v) -> bool:
    return type(v) is int  # JSON gives no int subclass but bool


_PRODUCT_FIELDS = {"i", "j", "k", "coeff"}


def load(data: bytes) -> AlgebraSpec:
    """Parse and validate a serialized algebra, with field-level diagnostics.

    A diagnostic is formatted only when its check fails, so a valid
    document costs one pass of plain tests over its structure constants."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    allowed = {"schema_version", "name", "parities", "zdegrees", "products", "metadata"}
    for key in doc:
        _expect(key in allowed, f"unknown field {key!r}")
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
    entries = []
    seen = set()
    for idx, item in enumerate(prods):
        if not isinstance(item, dict):
            raise ValueError(f"products[{idx}]: expected an object")
        if item.keys() != _PRODUCT_FIELDS:
            raise ValueError(f"products[{idx}]: expected exactly the fields i, j, k, coeff")
        key = i, j, k = item["i"], item["j"], item["k"]
        for fieldname, v in zip("ijk", key):
            if not (_is_int(v) and 0 <= v < n):
                raise ValueError(f"products[{idx}].{fieldname}: expected an index in "
                                 f"0..{n - 1}, got {v!r}")
        c = item["coeff"]
        if not (isinstance(c, str) and _COEFF_RE.fullmatch(c)):
            raise ValueError(f"products[{idx}].coeff: {c!r} does not match "
                             "integer-or-fraction syntax")
        if key in seen:
            raise ValueError(f"products[{idx}]: duplicate entry for {key}")
        seen.add(key)
        entries.append((i, j, k, c))
    meta = doc["metadata"]
    _expect(isinstance(meta, dict), "metadata must be an object")
    for k, v in meta.items():
        if not (isinstance(k, str) and isinstance(v, str)):
            raise ValueError(f"metadata entries must be string-to-string, got {k!r}: {v!r}")
    return AlgebraSpec(name=doc["name"], parities=tuple(pars),
                       products=tuple(sorted(entries)),
                       zdegrees=tuple(zd) if zd is not None else None,
                       metadata=dict(meta))


def save_algebra(a: SuperAlgebra) -> bytes:
    return save(algebra_to_spec(a))


def load_algebra(data: bytes) -> SuperAlgebra:
    return spec_to_algebra(load(data))
