"""The rational builders of the catalog (test-only oracle).

Before the catalog was built on the integers, its matrix spans,
subalgebras and quotients ran on `Fraction`s, one product at a time; they
are kept here verbatim as the reference the integer builders are compared
with:

- `span_algebra` is the former `catalog._span_algebra`: each spanning
  matrix a sparse rational dict, each supercommutator composed pair by pair
  (`_compose`), flattened (`_flat`) and written in the matrices by
  `GeneratedSpan.express`.  `quotient_by_identity` is the former
  `catalog._quotient_by_identity`, which expressed the identity the same way.
  Both take the matrices as dicts {(a, b): v} or as the integer array
  M[t, a, b] the catalog hands over, which they convert (`_dicts`).
- `_gl_mats` to `_sq_mats` are the former dict builders of the catalog's
  spanning matrices, kept verbatim with `_E`, `_mat_sum`, `_q_even` and
  `_q_odd`; `_stack` is the former conversion of their dicts to one
  integer array [t, a, b], against which the catalog's array builders are
  compared.
- `subalgebra` and `quotient_algebra` are the former `superspace` functions:
  every product of two basis vectors by `SuperAlgebra.product`, each
  expressed (`subalgebra`), tested for membership (`oracle_linalg.contains`,
  the former `Subspace.contains`) or reduced (`oracle_linalg.reduce`, the
  former `Subspace.reduce`) on its own.

`BUILDERS` maps the names under which `supertkk.catalog` calls the four, so
a test can build the whole Lie catalog through them.

The Jordan builders (`_build_j19` to `_build_dt`) are the former rational
ones of `supertkk.catalog`, kept verbatim: each writes its constants as
rationals (`Q`) and hands them to `make_algebra`.  `JORDAN_BUILDERS` has the
layout of `catalog._JORDAN_BUILDERS`, so a test can swap the whole table.

`_build_lambda`, `_build_w` and `_build_c_htilde_lambda` are the former
loop builders of the exterior families, kept verbatim with their helpers
`_wedge`, `_partial` and `_poisson`: one pair of basis monomials at a time,
each sign counted bit by bit.  `EXTERIOR_BUILDERS` maps the names under
which `supertkk.catalog` calls them, so a test can swap them in.

`save_algebra` is the former writer of the file format, which went through
a plain description of the algebra (`AlgebraSpec`, `algebra_to_spec`,
`save`), kept verbatim as the byte oracle of `catalog.save_algebra`.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from oracle_linalg import basis_vector, contains, reduce
from supertkk.exact import GeneratedSpan, Q, Subspace, ZERO, certify, span
from supertkk.catalog import _masks, _poisson_pairs, lie_catalog
from supertkk.superspace import SuperAlgebra, integer_algebra, make_algebra, mirror


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


def _dicts(mats):
    """The spanning matrices as dicts {(a, b): v}, converted from an integer
    array M[t, a, b]; dicts are returned as they are."""
    if not isinstance(mats, np.ndarray):
        return mats
    return [{(int(a), int(b)): int(m[a, b]) for a, b in zip(*np.nonzero(m))} for m in mats]


def span_algebra(idx_par, mats, *, name, metadata=None):
    """Structure constants of a bracket-closed span of matrices.

    idx_par gives the parity of each index of the underlying superspace; the
    bracket is the supercommutator.  Raises if the matrices are dependent or
    the span is not closed.
    """
    d, mats = len(idx_par), _dicts(mats)
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


def _identity_mat(d):
    return {(a, a): Q(1) for a in range(d)}


def quotient_by_identity(alg, idx_par, mats, *, name, metadata):
    d, mats = len(idx_par), _dicts(mats)
    coords = GeneratedSpan([_flat(m, d) for m in mats], d * d).express(
        _flat(_identity_mat(d), d))
    certify(coords is not None, "identity matrix should lie in the span")
    return quotient_algebra(alg, span([coords]), name=name, metadata=metadata)


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
        b = basis_vector(a, i)
        for v in ideal.basis:
            if not contains(ideal, a.product(b, v)):
                raise ValueError(f"quotient: not an ideal, e_{i}*v escapes (v in ideal)")
            if not contains(ideal, a.product(v, b)):
                raise ValueError(f"quotient: not an ideal, v*e_{i} escapes (v in ideal)")
    keep = [i for i in range(a.dim) if i not in set(ideal.pivots)]
    pos = {i: m for m, i in enumerate(keep)}
    products = []
    for m, i in enumerate(keep):
        for l, j in enumerate(keep):
            prod = reduce(ideal, a.product(basis_vector(a, i), basis_vector(a, j)))
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


BUILDERS = {"_span_algebra": span_algebra, "_quotient_by_identity": quotient_by_identity,
            "subalgebra": subalgebra, "quotient_algebra": quotient_algebra}


def _stack(mats, d):
    """The integer matrices {(a, b): value} as one array [t, a, b]."""
    import numpy as np
    M = np.zeros((len(mats), d, d), dtype=np.int64)
    for t, mat in enumerate(mats):
        for (a, b), v in mat.items():
            M[t, a, b] = v
    return M


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


JORDAN_BUILDERS = {
    "j19": (_build_j19, 0),
    "kacK": (_build_kac_k, 0),
    "trunc_poly": (_build_trunc_poly, 1),
    "full_matrix": (_build_full_matrix, 2),
    "form": (_build_form, 2),
    "dt": (_build_dt, 1),
}


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
    if not 2 <= n <= 7:
        raise ValueError(f"lambda: n must be in 2..7, got {n}")
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


def _build_w(n):
    if not 1 <= n <= 7:
        raise ValueError(f"w: n must be in 1..7, got {n}")
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


EXTERIOR_BUILDERS = {"_build_lambda": _build_lambda, "_build_w": _build_w,
                     "_build_c_htilde_lambda": _build_c_htilde_lambda}


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


def save(spec: AlgebraSpec) -> bytes:
    """Serialize to line-oriented JSON: one structure constant per line."""
    lines = ["{"]
    lines.append(f'"schema_version": {spec.schema_version},')
    lines.append(f'"name": {json.dumps(spec.name)},')
    lines.append(f'"parities": {json.dumps(list(spec.parities))},')
    zd = list(spec.zdegrees) if spec.zdegrees is not None else None
    lines.append(f'"zdegrees": {json.dumps(zd)},')
    lines.append('"products": [')
    text = {c: json.dumps(c) for c in {c for *_, c in spec.products}}  # one per distinct string
    body = [f'{{"i": {i}, "j": {j}, "k": {k}, "coeff": {text[c]}}}'
            for i, j, k, c in sorted(spec.products)]
    lines.append(",\n".join(body))
    lines.append("],")
    meta = {k: spec.metadata[k] for k in sorted(spec.metadata)}
    lines.append(f'"metadata": {json.dumps(meta)}')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_algebra(a: SuperAlgebra) -> bytes:
    return save(algebra_to_spec(a))
