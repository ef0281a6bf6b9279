"""TKK constructions relating Jordan superalgebras to 3-graded Lie superalgebras.

Implements the Kantor construction (istr middle, top inside Hom(V (x) V, V)),
the Koecher construction on superpairs (Inn(V,V) or Der(V,V) middle), the Tits
construction D (+) (sl2 (x) V), the generalized Koecher construction with a
formal copy of V in the middle, the J functor back from 3-graded Lie
superalgebras to superpairs, derivation towers of graded Lie superalgebras,
and the explicit equivalence maps between all of these.  Every constructed
bracket table goes through integer_algebra with the super-Jacobi check enabled.

Each construction is 3-graded, g_{-1} (+) g_0 (+) g_1, and its table is a
list of integer COO blocks (i, j, k, x, den): [e_i, e_j] has x/den at e_k,
i <= j.  The builders share the scaffold: `_layout` lays out the basis,
`_act` writes every middle's action on the tips (with the Koszul sign when
the tip comes first), and `_lie` scales the blocks to one denominator,
mirrors them and wraps the table.  Each degree-0 block is one batched
bracket of operator stacks and one certified coordinate read
(`OperatorStack.bracket`, `OperatorSpace.coordinates`, `_block`); Ti's
[y (x) v, y' (x) v'] joins the sl2 table with V's (`_join`), and Ko_D's
other blocks are index maps of V's `IntTable`.  Their derivation container
D is certified by `tits_data` without building Der(V): by the derivation
defect of the operator identity (`tensor.derivation_defect`), then by the
certified reads of the [L_a, L_b] (`structure.l_brackets`) and of D's own
brackets that Ti and Ko_D write, done once per V and container and kept on
the `TitsData`.  The Kantor top space is one integer tensor (`KantorTop`),
picked by one `GeneratedSpan`, whose `coordinates` read every [A, B] of
the istr x top block at once.  An equivalence map is an integer matrix
over one denominator, its middle rows read off integer stacks and the
(C, den) of `GeneratedSpan.coordinates`, certified against both tables by
`tensor.bracket_map_defect`.  No rational is formed while Ko, Ko~, Kan, Ti
or Ko_D is built.  `tits_roundtrip` compares all [e (x) a, f (x) b] at
once with the coordinates of the [L_a, L_b] on the `TitsData`, and the
half-Killing form of sl2 is one contraction of its table.  The J side
reads the encoded table of g as well: the triples of J(g) are one
contraction (`tensor.lie_triples`), [g+, g-] is one slice of it, and the
middle images of Ko(J(g)) -> g and the brackets with the embedded Ko are
one product each.  The Fraction loops these replaced are test oracles in
tests/oracle_tkk.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import lcm

from . import tensor
from .exact import (CertificateError, GeneratedSpan, IntRows, Subspace, certify, int_dtype,
                    kernel_columns, span_in_kernel)
from .jordan import find_unit
from .structure import (CheckResult, JordanPair, OperatorSpace, OperatorStack,
                        check_pair_axioms, der_algebra, derivation_kernels,
                        double, inn_algebra, istr_algebra, l_brackets, l_stack,
                        leibniz_weight_zero, pair_d_stack, pair_der, pair_inn, str_algebra)
from .superspace import (SuperAlgebra, center, check_super_jacobi, check_supercommutative,
                         derived, graded_dims, integer_algebra, memoized)


@dataclass
class TkkAlgebra:
    """A constructed Lie superalgebra together with its basis bookkeeping.

    origin[i] names where basis vector i came from: ("vplus", 2), ("op0", 0),
    ("vminus", 1), ("kantorP", 0), ("kantorLP", a), and for the Tits-style
    middles ("d", t), ("e"/"h"/"f", i), ("lhat", i).  data holds extras such
    as the middle OperatorSpace, the superpair or Ti's `TitsData`.
    """

    lie: SuperAlgebra
    construction: str  # Kan | Ko | KoTilde | KoD | Ti
    origin: tuple
    source: str = ""
    data: dict = field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.lie.dim

    def block(self, tag: str) -> list:
        return [i for i, o in enumerate(self.origin) if o[0] == tag]


def _block(C, den: int, i, j, at: int) -> tuple:
    """The block [e_{i[b]}, e_{j[b]}] = sum_l C[b, l] / den e_{at + l} of an
    integer array C, b running over all axes of C but the last; i and j are
    index arrays of the shape of those axes."""
    import numpy as np
    nz = np.nonzero(C)
    return i[nz[:-1]], j[nz[:-1]], at + nz[-1], C[nz], den


def _self_brackets(space: OperatorSpace) -> tuple:
    """(C, den): C[b] / den are the coordinates in space of the b-th [A_t, A_s],
    t <= s in row-major order, for the basis A of space: one batched
    bracket, one certified read."""
    ops = space.stack.bracket()
    return space.coordinates(ops), ops.den


def _middle_brackets(read: tuple, at: int) -> tuple:
    """The block [A_t, A_s] = sum_l c_l A_l, t <= s, for a basis placed at
    offset at, from the read (C, den) of `_self_brackets`."""
    import numpy as np
    C, den = read
    t, s = np.triu_indices(C.shape[1])
    return _block(C, den, at + t, at + s, at)


def _layout(*blocks) -> tuple:
    """(parities, zdegrees, origin) of a basis given as (tag, parities,
    degree) blocks, one after the other; a block's origins are (tag, i), or
    the tags themselves when tag is a list."""
    parities, zdegrees, origin = [], [], []
    for tag, par, z in blocks:
        parities += [int(p) for p in par]
        zdegrees += [z] * len(par)
        origin += tag if isinstance(tag, list) else [(tag, i) for i in range(len(par))]
    return tuple(parities), tuple(zdegrees), tuple(origin)


def _act(space: OperatorSpace, at: int, copies) -> list:
    """The blocks [A_t, e_i] = A_t e_i for the basis A_t of space, placed at
    offset at, one for each copy (offset, block, parities) of V: block is
    the block of A_t acting on that copy.  A copy placed before the
    operators gets [e_i, A_t] = -(-1)^{|i||A_t|} A_t e_i."""
    import numpy as np
    stack, out = space.stack, []
    for off, b, par in copies:
        M = stack.blocks[b]
        t, l, i = np.nonzero(M)
        if off < at:
            odd = np.array(par, dtype=np.int64)[i] * stack.parities[t] % 2
            out.append((off + i, at + t, off + l, (2 * odd - 1) * M[t, l, i], stack.den))
        else:
            out.append((at + t, off + i, off + l, M[t, l, i], stack.den))
    return out


def _join(ys, vs, at: int, n: int, den: int) -> tuple:
    """The block of brackets of y (x) v, with y_a (x) e_c at at + a n + c:
    each entry (a, b, base, s) of ys times each entry (c, e, l, v) of vs puts
    s v / den on [y_a (x) e_c, y_b (x) e_e] at base + l, upper triangle only."""
    (a, b, base, s), (c, e, l, v) = ys, vs
    i, j = at + a[:, None] * n + c, at + b[:, None] * n + e
    keep = i <= j
    x = s.astype(object)[:, None] * v.astype(object)
    return i[keep], j[keep], (base[:, None] + l)[keep], x[keep], den


def _lie(blocks: list, layout: tuple, name: str, construction: str, metadata: dict,
         **data) -> TkkAlgebra:
    """The Lie superalgebra of the upper-triangle blocks, scaled to one
    denominator and mirrored, [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j], in one
    array pass, then checked and built by `integer_algebra` from the
    arrays, with its basis bookkeeping.  The scaled values run in int64
    when max|x| den / den_b < 2**62 is proved for every block (`int_dtype`),
    else on Python ints."""
    import numpy as np
    parities, zdegrees, origin = layout
    den = lcm(1, *(b[4] for b in blocks))
    top = max((int(abs(b[3]).max()) * (den // b[4]) for b in blocks if len(b[3])), default=0)
    i, j, k = (np.concatenate([b[a] for b in blocks]) for a in range(3))
    x = np.concatenate([b[3].astype(int_dtype(top)) * (den // b[4]) for b in blocks])
    p = np.array(parities, dtype=np.int64)
    off = np.flatnonzero(i != j)
    x = np.concatenate([x, (2 * (p[i[off]] * p[j[off]]) - 1) * x[off]])
    i, j, k = np.r_[i, j[off]], np.r_[j, i[off]], np.r_[k, k[off]]
    alg = integer_algebra(parities, (i, j, k, x), den, zdegrees, name=name, kind="lie",
                          metadata=metadata)
    return TkkAlgebra(alg, construction, origin, source=name, data=data)


def zdims(g: SuperAlgebra) -> dict:
    """Total dimension per Z-degree."""
    out: dict = {}
    for (z, _), d in graded_dims(g).items():
        out[z] = out.get(z, 0) + d
    return out


# ---------------------------------------------------------------------------
# Koecher construction on superpairs


@memoized
def koecher(v, middle: str = "inn") -> TkkAlgebra:
    """The 3-graded Lie superalgebra V+ (+) mid (+) V- over a pair or algebra.

    middle "inn" uses Inn(V,V) (the classical construction), "der" uses
    Der(V,V) (the extended one, in which the former embeds as an ideal).
    """
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    if middle not in ("inn", "der"):
        raise ValueError(f"unknown middle {middle!r}, expected 'inn' or 'der'")
    mid = (pair_inn if middle == "inn" else pair_der)(v)
    import numpy as np
    dp, dm = pair.shape
    nm = mid.dim
    ops = pair_d_stack(pair)
    x, u = np.indices((dp, dm))
    blocks = [  # [x+, u-] = D_{x,u} as an operator pair in the middle
        _block(mid.coordinates(ops).reshape(dp, dm, nm), ops.den, x, dp + nm + u, dp),
        _middle_brackets(_self_brackets(mid), dp),
        # M acts on V+ by its block M+ and on V- by M-
        *_act(mid, dp, [(0, 0, pair.parities[0]), (dp + nm, 1, pair.parities[1])])]

    prefix = "Ko" if middle == "inn" else "Ko~"
    name = (prefix + pair.name if pair.name.startswith("(")
            else f"{prefix}({pair.name})")
    layout = _layout(("vplus", pair.parities[0], 1), ("op0", mid.stack.parities, 0),
                     ("vminus", pair.parities[1], -1))
    return _lie(blocks, layout, name, "Ko" if middle == "inn" else "KoTilde",
                {"construction": "koecher", "middle": middle}, pair=pair, middle=mid)


def koecher_tilde(v) -> TkkAlgebra:
    return koecher(v, middle="der")


def koecher_ideal_check(v) -> CheckResult:
    """Ko(V+,V-) embeds in Ko~(V+,V-) as an ideal, not just a subalgebra.

    The embedded Ko is spanned by the tips and the coordinates of Inn(V,V)
    in Der(V,V); the brackets [e_b, s] of each spanning vector s with every
    basis vector are one contraction of the encoded table, and they stay
    inside iff adding them leaves the rank unchanged."""
    import numpy as np
    kot = koecher_tilde(v)
    g, mid = kot.lie, kot.data["middle"]
    dp, dm = kot.data["pair"].shape
    n, nm = g.dim, mid.dim
    W = mid.coordinates(pair_inn(v).stack)
    S = np.zeros((dp + len(W) + dm, n), dtype=W.dtype)
    S[dp:dp + len(W), dp:dp + nm] = W
    tips = np.r_[0:dp, dp + nm:n]
    S[np.r_[0:dp, dp + len(W):len(S)], tips] = 1
    brackets = tensor.contract(S, g.int_table.dense().transpose(1, 0, 2)).reshape(len(S) * n, n)
    ok = (Subspace.from_int_rows(n, IntRows.from_dense(S)).dim
          == Subspace.from_int_rows(n, IntRows.from_dense(np.concatenate([S, brackets]))).dim)
    return CheckResult("ko_ideal_in_kotilde", ok,
                       "Ko(V,V) is an ideal in Ko~(V,V)" if ok
                       else "bracket leaves the embedded Ko(V,V)")


# ---------------------------------------------------------------------------
# Kantor construction


class KantorTop:
    """The degree +1 space <P, [L_a, P]> inside Hom(V (x) V, V), on integers.

    The spanning family is P = d C, read off V's `IntTable` (C = d P), then
    the d**2 [L_a, P] of `tensor.lp_tensor`, all at den = d**2.  The basis is
    picked greedily from it by one `GeneratedSpan` (`span`) over the family
    sorted even-first (P and the even [L_a, P] in basis order, then the odd
    ones): even and odd members have disjoint supports, so the scan keeps
    what a scan per parity would, and every basis vector carries an honest
    origin tag; for unital V the [L_e, P] direction collapses onto
    P = -[L_e, P].  tensors[u, i, j, l] = den B_u(e_i, e_j)_l for the basis
    B_u, even block first, with tags[u] and parities[u]; the columns
    span.independent of `span.coordinates` are the coordinates over it.
    """

    def __init__(self, V: SuperAlgebra):
        import numpy as np
        n, t = V.dim, V.int_table
        lp, d = tensor.lp_tensor(V)
        family = np.concatenate([(t.dense(d) * d)[None], lp])
        par = (0,) + V.parities
        order = sorted(range(n + 1), key=par.__getitem__)
        self.span = GeneratedSpan(family[order].reshape(n + 1, n ** 3), n ** 3)
        kept = [order[i] for i in self.span.independent]
        self.tags = [("kantorLP", u - 1) if u else ("kantorP", 0) for u in kept]
        self.parities = [par[u] for u in kept]
        self.tensors, self.den = family[kept], d * d


@memoized
def kantor(V: SuperAlgebra) -> TkkAlgebra:
    """Kantor's 3-graded Lie superalgebra V (+) istr(V) (+) <P, [L_a, P]>."""
    if V.kind != "jordan":
        raise ValueError("kantor expects a Jordan superalgebra")
    import numpy as np
    n = V.dim
    istr = istr_algebra(V)
    basis = istr.stack
    nm = istr.dim
    top = KantorTop(V)
    tops, top_par = top.tensors, top.parities
    nt = len(top_par)

    # [x, B] = -(-1)^{|x||B|} [B, x], with [B, x](y) = B(x, y) in istr:
    # the operator of (x, B) has entries [l, j] = B(e_x, e_j)_l
    at_x = OperatorStack((tops.transpose(1, 0, 3, 2).reshape(n * nt, n, n),),
                         [(p + q) % 2 for p in V.parities for q in top_par], top.den)
    # [A, B] for A in istr and B in the top: basis.den * top.den times
    # integer tensors, whose coordinates over the top come at basis.den
    acted = tensor.g0_action(basis.blocks[0][:, None], tops[None],
                             1 - 2 * (np.outer(basis.parities, top_par) % 2), V.parities)
    C, d = top.span.coordinates(acted.reshape(nm * nt, n ** 3),
                                "element does not lie in the Kantor top space")
    AB = C[:, list(top.span.independent)].reshape(nm, nt, nt)
    sign = 2 * (np.outer(V.parities, top_par) % 2) - 1
    (x, u), (t, s) = np.indices((n, nt)), np.indices((nm, nt))
    blocks = [*_act(istr, n, [(0, 0, V.parities)]), _middle_brackets(_self_brackets(istr), n),
              _block(istr.coordinates(at_x).reshape(n, nt, nm) * sign[..., None], top.den,
                     x, n + nm + u, n),
              _block(AB, d * basis.den, n + t, n + nm + s, n + nm)]

    layout = _layout(("vminus", V.parities, -1), ("op0", basis.parities, 0),
                     (top.tags, top_par, 1))
    return _lie(blocks, layout, f"Kan({V.name})", "Kan", {"construction": "kantor"},
                middle=istr, top=top)


_KANTOR_RELATIONS = (
    ("kantor_p_bracket", "[P, x] = L_x"),
    ("kantor_lp_bracket", "[[L_a,P], x] = [L_a,L_x] - L_{ax}"),
    ("kantor_mid_action", "[L_a, [L_b,P]] = -[L_{ab}, P]"),
    ("kantor_inner_kills_p", "[[L_a,L_b], P] = 0"),
    ("kantor_weyl_relation", "[[L_a,L_b], [L_c,P]] = (-1)^{|b||c|} [L_{a(cb) - (ac)b}, P]"),
    ("kantor_unital_p", "P = -[L_e, P]"),  # unital V only
)


def kantor_relations(V: SuperAlgebra) -> list:
    """The bracket relations that pin down the Kantor construction, checked
    on Hom(V (x) V, V) by `tensor.kantor_relation_verdicts`; Kan(V) itself is
    not built."""
    if V.kind != "jordan":
        raise ValueError("kantor_relations expects a Jordan superalgebra")
    verdicts = tensor.kantor_relation_verdicts(V, find_unit(V))
    return [CheckResult(name, ok, detail)
            for (name, detail), ok in zip(_KANTOR_RELATIONS, verdicts)]


# ---------------------------------------------------------------------------
# Tits construction


@dataclass(frozen=True, eq=False)
class TitsData:
    """A derivation container Inn(V) <= D <= Der(V) of the Jordan
    superalgebra V = algebra, the fixed sl2 data, and the two certified
    reads that prove D's preconditions and that Ti, Ko_D and the Tits round
    trip write: l_brackets = (M, den), M[a, b] / den the coordinates in D
    of [L_a, L_b] (`structure.l_brackets`), and brackets = (C, den), C[b] /
    den those of the b-th [A_t, A_s], t <= s in row-major order, for the
    basis A of D.

    The morphism into Der(V) is the inclusion, so it restricts to the identity
    on Inn(V); the half-Killing coefficients are computed from adjoint traces,
    never hardcoded.  Compared and hashed by identity, as killing holds an
    array.
    """

    algebra: SuperAlgebra
    dspace: OperatorSpace
    sl2: SuperAlgebra
    killing: tuple  # (K, den): (y_a, y_b) = K[a, b] / den, K an object array
    label: str
    l_brackets: tuple
    brackets: tuple


def _are_derivations(V: SuperAlgebra, ops: OperatorStack) -> bool:
    """Whether every operator A of the stack is a superderivation of V of
    the parity it carries: A has no entry A[r, c] with |r| + |c| + |A| odd,
    and no derivation defect A(xy) - (Ax)y - (-1)^{|A||x|} x(Ay)
    (`tensor.derivation_defect`, the kernel of the operator identity)."""
    import numpy as np
    p = np.array(V.parities, dtype=np.int64)
    A = ops.blocks[0]
    return (not (A * ((p[:, None] + p + ops.parities[:, None, None]) % 2)).any()
            and tensor.derivation_defect(V, A, ops.parities) is None)


def _sl2() -> SuperAlgebra:
    # basis order e, h, f with [e,f] = h, [h,e] = 2e, [h,f] = -2f
    return integer_algebra((0, 0, 0), [(0, 2, 1, 1), (2, 0, 1, -1), (1, 0, 0, 2), (0, 1, 0, -2),
                                       (1, 2, 2, -2), (2, 1, 2, 2)], 1, (1, 0, -1),
                           name="sl2", kind="lie", metadata={})


def _killing_half(y: SuperAlgebra) -> tuple:
    """(K, den): (e_i, e_j) = 1/2 tr(ad e_i . ad e_j) = K[i, j] / den, one
    contraction on the encoded table: d**2 tr(ad e_i ad e_j) = sum over c, k
    of C[i, c, k] C[j, k, c], taken on Python ints, and den = 2 d**2."""
    import numpy as np
    t = y.int_table
    C, d = t.dense().astype(object), t.d
    return np.einsum('ick,jkc->ij', C, C), 2 * d * d


@memoized
def _container(V: SuperAlgebra, d) -> tuple:
    """(dspace, label, l_brackets, brackets) of the derivation container d
    of V, "inn", "der" or an OperatorSpace, its preconditions checked in
    order: the shape (V.dim,), derivations (`_are_derivations`), then
    Inn(V) <= D and [D, D] <= D by the reads of `TitsData`; a failed check
    raises ValueError.  Memoized on V, so that each read is done once per
    V and container."""
    if isinstance(d, str):
        if d not in ("inn", "der"):
            raise ValueError(f"unknown derivation choice {d!r}, expected 'inn' or 'der'")
        dsp, label = (inn_algebra if d == "inn" else der_algebra)(V), d
    else:
        dsp, label = d, d.label
    if dsp.shape != (V.dim,):
        raise ValueError(f"derivation container must act on V: shape {dsp.shape}, "
                         f"expected {(V.dim,)}")
    if not _are_derivations(V, dsp.stack):
        raise ValueError("derivation container must consist of derivations")
    lbr = l_brackets(V)
    try:
        inner = dsp.coordinates(lbr).reshape(V.dim, V.dim, dsp.dim), lbr.den
    except CertificateError:
        raise ValueError("derivation container must contain the inner derivations") from None
    try:
        closed = _self_brackets(dsp)
    except CertificateError:
        raise ValueError("derivation container is not closed under bracket") from None
    return dsp, label, inner, closed


def tits_data(V: SuperAlgebra, d="inn") -> TitsData:
    """Resolve a derivation-container choice, certify its preconditions
    (`_container`, memoized on V) and add the sl2 data; a TitsData is
    returned as it is if it was built for V, and refused otherwise.  V must
    be a supercommutative Jordan table (memoized: its checked build proved it)."""
    if V.kind != "jordan" or check_supercommutative(V) is not None:
        raise ValueError("tits expects a Jordan superalgebra")
    if isinstance(d, TitsData):
        if d.algebra is not V:
            raise ValueError(f"TitsData built for {d.algebra.name} given for {V.name}")
        return d
    dsp, label, inner, closed = _container(V, d)
    sl2 = _sl2()
    return TitsData(V, dsp, sl2, _killing_half(sl2), label, inner, closed)


@memoized
def tits(V: SuperAlgebra, d="inn") -> TkkAlgebra:
    """Tits construction D (+) (sl2 (x) V) with the half-Killing pairing."""
    import numpy as np
    n = V.dim
    data = tits_data(V, d)
    dsp, y, (K, dk) = data.dspace, data.sl2, data.killing
    nd = dsp.dim
    M, dm = data.l_brackets
    ty, tv = y.int_table, V.int_table
    a, b = np.nonzero(K)
    blocks = [_middle_brackets(data.brackets, 0),
              # [d, y (x) v] = y (x) d(v) on each of the three copies of V
              *_act(dsp, 0, [(nd + yi * n, 0, V.parities) for yi in range(3)]),
              # [y (x) v, y' (x) v'] = (y,y')[L_v,L_{v'}] + [y,y'] (x) vv'
              _join((a, b, 0 * a, K[a, b]), (*np.nonzero(M), M[M != 0]), nd, n, dk * dm),
              _join((ty.i, ty.j, nd + ty.k * n, ty.value), (tv.i, tv.j, tv.k, tv.value), nd, n,
                    ty.d * tv.d)]

    # sl2 basis order e, h, f carries the 3-grading +1, 0, -1
    layout = _layout(("d", dsp.stack.parities, 0), ("e", V.parities, 1), ("h", V.parities, 0),
                     ("f", V.parities, -1))
    return _lie(blocks, layout, f"Ti({V.name},{data.label})", "Ti",
                {"construction": "tits", "dchoice": data.label},
                dspace=dsp, sl2=y, kappa=data.killing, label=data.label, tits=data)


def tits_roundtrip(V: SuperAlgebra, d="inn") -> CheckResult:
    """Recover the Jordan product and the pairing from Ti(V, D, sl2).

    [e (x) a, f (x) b] = (e,f)<a,b> + h (x) ab, so projecting onto h (x) V must
    return the product, and the D component divided by (e,f) must be [L_a,L_b].
    The n**2 brackets are one integer tensor X at Ti's denominator dx,
    scattered from the entries of Ti's `IntTable` with i in the e block and
    j in the f block; their h (x) V components are compared with V's
    `IntTable` cross-multiplied, and their D components at once with the
    coordinates in D of the [L_a, L_b] that `tits_data` read; the first
    failing (a, b) in row-major order is reported, as a loop over them would.
    """
    import numpy as np
    ti = tits(V, d)
    g = ti.lie
    n = V.dim
    data = ti.data["tits"]
    nd = data.dspace.dim
    K, den = data.killing
    num = int(K[0, 2])  # (e,f) = num / den
    certify(num, "sl2 pairing (e,f) must be nonzero")
    tg = g.int_table
    at = np.flatnonzero((tg.i >= nd) & (tg.i < nd + n) & (tg.j >= nd + 2 * n))
    X, dx = np.zeros((n, n, g.dim), dtype=tg.value.dtype), tg.d
    X[tg.i[at] - nd, tg.j[at] - nd - 2 * n, tg.k[at]] = tg.value[at]
    t = V.int_table
    M, dm = data.l_brackets
    # X / (dx ef) == M / dm on the D components, cross-multiplied
    leaves = X[..., nd:nd + n].any(axis=2) | X[..., nd + 2 * n:].any(axis=2)
    product = tensor.mismatch(X[..., nd + n:nd + 2 * n], t.d, t.dense(), dx).any(axis=2)
    pairing = tensor.mismatch(X[..., :nd], dm * den, M if num > 0 else -M,
                              dx * abs(num)).any(axis=2)
    bad = np.argwhere(leaves | product | pairing)
    if len(bad):
        a, b = (int(x) for x in bad[0])
        detail = (f"[e (x) {a}, f (x) {b}] leaves D + h (x) V" if leaves[a, b]
                  else f"recovered product wrong at ({a},{b})" if product[a, b]
                  else f"recovered pairing wrong at ({a},{b})")
        return CheckResult("tits_roundtrip", False, detail)
    return CheckResult("tits_roundtrip", True,
                       "product and pairing recovered from [e (x) a, f (x) b]")


# ---------------------------------------------------------------------------
# generalized Koecher construction with a formal middle


def koecher_d(V: SuperAlgebra, d="inn") -> TkkAlgebra:
    """V+ (+) (D (+) a formal L-hat copy of V) (+) V-."""
    if V.kind != "jordan":
        raise ValueError("koecher_d expects a Jordan superalgebra")
    import numpy as np
    n = V.dim
    data = tits_data(V, d)
    dsp = data.dspace
    nd = dsp.dim
    off_d, off_l, off_m = n, n + nd, n + nd + n
    M, dm = data.l_brackets
    t = V.int_table  # e_i e_j = sum value / t.d e_k
    p = np.array(V.parities)
    odd = p[t.i] * p[t.j] % 2
    x, u = np.indices((n, n))
    a, b = np.triu_indices(n)
    blocks = [  # [x+, u-] = 2 L-hat_{xu} + 2 [L_x, L_u] in D
        (t.i, off_m + t.j, off_l + t.k, 2 * t.value.astype(object), t.d),
        _block(2 * M.astype(object), dm, x, off_m + u, off_d),
        # D acts on x+ and u- by D, and [D, L-hat_y] = L-hat_{D(y)}
        *_act(dsp, off_d, [(0, 0, V.parities), (off_l, 0, V.parities), (off_m, 0, V.parities)]),
        _middle_brackets(data.brackets, off_d),
        # [L-hat_y, x+] = (yx)+, so [x+, L-hat_y] = -(-1)^{|x||y|} (yx)+
        (t.j, off_l + t.i, t.k, (2 * odd - 1) * t.value, t.d),
        # [L-hat_y, u-] = -(yu)-
        (off_l + t.i, off_m + t.j, off_m + t.k, -t.value, t.d),
        # [L-hat_x, L-hat_y] = [L_x, L_y] lands in D via Inn <= D
        _block(M[a, b], dm, off_l + a, off_l + b, off_d)]

    layout = _layout(("vplus", V.parities, 1), ("d", dsp.stack.parities, 0),
                     ("lhat", V.parities, 0), ("vminus", V.parities, -1))
    return _lie(blocks, layout, f"Ko_{data.label}({V.name})", "KoD",
                {"construction": "koecher_d", "dchoice": data.label}, dspace=dsp)


def check_propnu(V: SuperAlgebra, d="inn") -> list:
    """The explicit isomorphism Ti(V, D, sl2) -> Ko_D(V): d -> d, e (x) a ->
    a+, f (x) a -> a- and h (x) a -> 2 L-hat_a."""
    import numpy as np
    ti = tits(V, d)
    kd = koecher_d(V, d)
    n = V.dim
    nd = ti.data["dspace"].dim
    at = {"d": n, "e": 0, "h": n + nd, "f": n + nd + n}
    F = np.zeros((ti.dim, kd.dim), dtype=np.int64)
    for r, (tag, i) in enumerate(ti.origin):
        F[r, at[tag] + i] = 2 if tag == "h" else 1
    return [_check_bracket_map(ti.lie, kd.lie, F, 1, "propnu")]


# ---------------------------------------------------------------------------
# J functor and Jordan-graded recognition


def _graded_table(g: SuperAlgebra):
    """(C, d, z, pm): g's table encoded, C[i, j, k] = d [e_i, e_j]_k, the
    degrees z of its basis, and the rows pm of the slice C[plus][:, minus],
    the [e_i, e_j] for e_i in g+ and e_j in g- in row-major order."""
    import numpy as np
    t, z = g.int_table, np.array(g.zdegrees, dtype=np.int64)
    C = t.dense()
    pm = C[z == 1][:, z == -1]
    return C, t.d, z, pm.reshape(pm.shape[0] * pm.shape[1], t.n)


@memoized
def _j_pair(g: SuperAlgebra) -> JordanPair:
    """J(g) without the axiom check, built once per g."""
    import numpy as np
    if g.zdegrees is None:
        raise ValueError("j_functor needs a Z-graded Lie superalgebra")
    if not set(g.zdegrees) <= {-1, 0, 1}:
        raise ValueError("j_functor expects a 3-graded algebra")
    C, d, z, _ = _graded_table(g)
    tensors = []
    for T, s in zip(tensor.lie_triples(C, *(np.flatnonzero(z == s) for s in (1, -1))), (1, -1)):
        certify(not T[..., z != s].any(), "triple left the graded block")
        tensors.append(T[..., z == s])
    parities = tuple(tuple(p for p, k in zip(g.parities, g.zdegrees) if k == s) for s in (1, -1))
    return JordanPair(f"J({g.name})", parities, tensors, d * d)


def j_functor(g: SuperAlgebra) -> JordanPair:
    """The superpair (g_{+1}, g_{-1}) with {x,y,z} = [[x,y],z].

    Both triple tables are one contraction of the encoded table
    (`tensor.lie_triples`), certified to stay in their graded block, and the
    superpair axioms — outer symmetry and the 5-linear identity — are
    verified on all homogeneous basis tuples; a failed certificate raises
    CertificateError.  The pair is built once per g and returned on every
    call, so what is memoized on it (Ko(J(g)), its Inn(V,V) and the axiom
    check) is built once too.
    """
    pair = _j_pair(g)
    witness = check_pair_axioms(pair)
    certify(witness is None, f"superpair axioms fail: {witness}")
    return pair


def is_jordan_graded(g: SuperAlgebra) -> CheckResult:
    """3-graded with [g+, g-] = g0 and g0 meeting the center trivially.

    [g+, g-] is spanned by the rows of one slice of the encoded table; it is
    g0 iff they stay in g0 and their rank is dim g0."""
    if g.zdegrees is None or not set(g.zdegrees) <= {-1, 0, 1}:
        return CheckResult("jordan_graded", False, "not 3-graded")
    _, _, z, pm = _graded_table(g)
    zero = (z == 0).nonzero()[0].tolist()
    spanned = Subspace.from_int_rows(g.dim, IntRows.from_dense(pm)).dim
    if spanned != len(zero) or pm[:, z != 0].any():
        return CheckResult("jordan_graded", False,
                           f"[g+, g-] has dim {spanned}, g0 has dim {len(zero)}")
    meet = center(g).intersect(Subspace.full(len(zero)).embedded(zero, g.dim))
    if meet.dim:
        return CheckResult("jordan_graded", False,
                           f"center meets g0 in dim {meet.dim}")
    return CheckResult("jordan_graded", True, "[g+,g-] = g0 and g0 meets Z(g) in 0")


def j_roundtrip_check(V: SuperAlgebra) -> CheckResult:
    """J(Ko(V,V)) must reproduce the doubled pair's tensors, cross-multiplied by the dens."""
    ko = koecher(V, middle="inn")
    # table equality against the doubled pair subsumes the axiom check here
    got = _j_pair(ko.lie)
    want = double(V)
    ok = got.parities == want.parities and not any(
        tensor.mismatch(x, want.den, y, got.den).any() for x, y in zip(got.tensors, want.tensors))
    return CheckResult("j_of_ko_is_double", ok,
                       "triple tables agree" if ok else "triple tables differ")


def koecher_inverse_check(g: SuperAlgebra) -> list:
    """Rebuild g as Ko(J(g)) and exhibit the isomorphism explicitly.

    Degree-0 basis elements are mapped by solving over the spanning family
    D_{x,u} -> [x, u]_g; any solution works because two of them differ by an
    operator pair acting as zero, whose g-side image lies in g0 and the
    center, hence vanishes for Jordan-graded g.  The images of the whole
    middle are one product: the coefficients over the D_{x,u}, scaled to
    integers, times the rows [x, u]_g of the encoded table.
    """
    import numpy as np
    results = [is_jordan_graded(g)]
    if not results[0].passed:
        return results
    pair = j_functor(g)
    ko2 = koecher(pair, middle="inn")
    _, d, z, pm = _graded_table(g)
    dp, dm = pair.shape
    ds = pair_d_stack(pair)
    mid = ko2.data["middle"].stack
    # W_t = sum_k K[t, k] / dk D_k with the D_k at ds.den and the W_t at mid.den
    K, dk = GeneratedSpan(ds.flats(), dp * dp + dm * dm).coordinates(
        mid.flats(), "middle element outside the D span")
    den = dk * mid.den * d  # F / den are the images
    F = np.zeros((ko2.dim, g.dim), dtype=object)
    F[ko2.block("op0")] = tensor.contract(K, pm).astype(object) * ds.den
    F[ko2.block("vplus"), np.flatnonzero(z == 1)] = den
    F[ko2.block("vminus"), np.flatnonzero(z == -1)] = den
    results.append(_check_bracket_map(ko2.lie, g, F, den, "ko_of_j_iso"))
    return results


# ---------------------------------------------------------------------------
# explicit equivalence maps


def _check_bracket_map(src: SuperAlgebra, dst: SuperAlgebra, F, den: int,
                       name: str) -> CheckResult:
    """Verify that e_i -> sum_a F[i, a] / den e_a, for an integer matrix F,
    extends to an isomorphism src -> dst: the rows of F are independent, no
    image has a component of the other parity, and every bracket matches
    (`tensor.bracket_map_defect`)."""
    import numpy as np
    if src.dim != dst.dim:
        return CheckResult(name, False, f"dimension mismatch {src.dim} vs {dst.dim}")
    if Subspace.from_int_rows(dst.dim, IntRows.from_dense(F)).dim != src.dim:
        return CheckResult(name, False, "images are linearly dependent")
    broken = np.flatnonzero(((F != 0) & np.not_equal.outer(src.parities, dst.parities)).any(1))
    if len(broken):
        return CheckResult(name, False, f"parity broken at basis {broken[0]}")
    at = tensor.bracket_map_defect(src, dst, F, den)
    if at is not None:
        return CheckResult(name, False, "bracket mismatch at basis pair ({},{})".format(*at))
    return CheckResult(name, True, "linear bijection matching all brackets")


def check_unital_equivalences(V: SuperAlgebra) -> list:
    """For unital V: Kan(V) = Ko(V), Ti(V,Inn,sl2) = Ko(V) by explicit maps,
    plus the derivation-tower facts Der(Ko) = Ko~ per shift and parity,
    vanishing shifts +-2, shift +-1 of dimension dim V, and Out(Ko)_0 =
    str/istr.  Non-unital input gets a single refusal note."""
    unit = find_unit(V)
    if unit is None:
        return [CheckResult("unital_equivalences", False,
                            "no unit: see the counterexample comparisons", "note")]
    import numpy as np
    results = []
    ko = koecher(V, middle="inn")
    mid = ko.data["middle"]
    n = V.dim
    off_mid, off_minus = n, n + mid.dim
    ls = l_stack(V)

    # Kantor vs Koecher: x -> x-, P -> -(e/2)+, [L_a,P] -> (a/2)+,
    # L_x -> -D_{x,e}/2 = (-L_x, L_x) as e is the unit,
    # [L_a,L_b] -> ([L_a,L_b], [L_a,L_b])
    kan = kantor(V)
    istr = kan.data["middle"]
    # the L_a, then the [L_a, L_b] at n + a n + b, each row at its stack's scale
    G = np.concatenate([ls.flats(), l_brackets(V).flats()])
    w = istr.stack
    C, dc = GeneratedSpan(G, n * n).coordinates(w.flats(), "istr basis element outside the L span")
    # L_x -> (-L_x, L_x): sum_k C[t, k] G_k is dc w.den times the operator
    plus, minus = tensor.contract(C * np.r_[[-1] * n, [1] * n * n], G), tensor.contract(C, G)
    ops = OperatorStack((plus.reshape(-1, n, n), minus.reshape(-1, n, n)), w.parities,
                        dc * w.den)
    den = lcm(ops.den, *(2 * int(c.denominator) for c in unit))
    F = np.zeros((kan.dim, ko.dim), dtype=object)
    F[kan.block("op0"), off_mid:off_minus] = mid.coordinates(ops).astype(object) * (den // ops.den)
    F[kan.block("vminus"), off_minus + np.arange(n)] = den
    F[kan.block("kantorP"), :n] = [int(-c * den / 2) for c in unit]
    lp = kan.block("kantorLP")
    F[lp, [kan.origin[r][1] for r in lp]] = den // 2
    results.append(_check_bracket_map(kan.lie, ko.lie, F, den, "kantor_equals_koecher"))

    # Tits with Inn vs Koecher: e(x)a -> a+, f(x)a -> a-,
    # h(x)a -> D_{a,e} = (2 L_a, -2 L_a), inner derivation W -> (W, W)
    ti = tits(V, "inn")
    W = ti.data["dspace"].stack
    L = ls.blocks[0]
    den = lcm(ls.den, W.den)
    F = np.zeros((ti.dim, ko.dim), dtype=object)
    F[ti.block("e"), np.arange(n)] = den
    F[ti.block("f"), off_minus + np.arange(n)] = den
    for rows, ops in ((ti.block("h"), OperatorStack((2 * L, -2 * L), ls.parities, ls.den)),
                      (ti.block("d"), OperatorStack(W.blocks * 2, W.parities, W.den))):
        F[rows, off_mid:off_minus] = mid.coordinates(ops).astype(object) * (den // ops.den)
    results.append(_check_bracket_map(ti.lie, ko.lie, F, den, "tits_inn_equals_koecher"))

    # derivation tower of Ko(V) against Ko~(V), dim V, and str/istr
    tower = lie_der_tower(ko.lie)
    got = {k: b["der"] for k, b in tower.items()}
    want = graded_dims(koecher_tilde(V).lie)
    ok = all(got.get((s, p), 0) == 0 for s in (-2, 2) for p in (0, 1))
    results.append(CheckResult("der_koecher_shift2_zero", ok,
                               "Der(Ko(V)) vanishes in shifts +-2"))
    pv = (sum(1 for p in V.parities if p == 0),
          sum(1 for p in V.parities if p == 1))
    ok = all(got.get((s, p), 0) == pv[p] for s in (-1, 1) for p in (0, 1))
    results.append(CheckResult("der_koecher_shift1_dims", ok,
                               "Der(Ko(V)) shifts +-1 have the dimensions of V"))
    keys = set(got) | {k for k, v in want.items() if v}
    ok = all(got.get(k, 0) == want.get(k, 0) for k in keys)
    results.append(CheckResult("der_koecher_matches_kotilde", ok,
                               "dim Der(Ko(V)) = dim Ko~(V) per shift and parity"))
    strs, istrs = str_algebra(V).dims(), istr_algebra(V).dims()
    out0 = {p: tower.get((0, p), {"out": 0})["out"] for p in (0, 1)}
    ok = all(out0[p] == strs[p] - istrs[p] for p in (0, 1))
    results.append(CheckResult("out_koecher_zero_shift", ok,
                               "Out(Ko(V))_0 has the dimensions of str(V)/istr(V)"))
    return results


def kantor_koecher_comparison(V: SuperAlgebra) -> CheckResult:
    """Compare graded dimensions of Kan(V) and Ko(V); a note either way."""
    kan, ko = kantor(V), koecher(V)
    dk = zdims(kan.lie)
    do = zdims(ko.lie)
    if graded_dims(kan.lie) == graded_dims(ko.lie):
        return CheckResult("kantor_vs_koecher", True,
                           f"graded dims agree: ({dk.get(-1, 0)}, {dk.get(0, 0)}, "
                           f"{dk.get(1, 0)})", "note")
    return CheckResult("kantor_vs_koecher", False,
                       "Kan ≇ Ko (graded dims differ): g_+ dims "
                       f"{dk.get(1, 0)} vs {do.get(1, 0)}", "note")


# ---------------------------------------------------------------------------
# derivation towers of graded Lie superalgebras


def _torus(g: SuperAlgebra):
    """(weight, zero): the weight class of each basis vector under the
    diagonal torus of a Lie superalgebra g (numbered 0, 1, ...), and the
    mask of the basis vectors of weight 0.

    The torus is the even e_h whose table row is diagonal, [e_h, e_j] in
    Q e_j for every j, and not zero; the weight of e_j is the integer vector
    of the d [e_h, e_j]_j over h.  It is read only when g satisfies
    super-Jacobi (memoized), so that each ad e_h is a derivation; with no
    torus every weight is 0.  The weights are certified to grade the table,
    w(k) = w(i) + w(j) on every nonzero [e_i, e_j]_k: CertificateError
    otherwise, which survives python -O."""
    import numpy as np
    t, n = g.int_table, g.dim
    torus = np.zeros(n, dtype=bool)
    if check_super_jacobi(g) is None:
        torus[t.i] = True
        torus[t.i[t.k != t.j]] = False
        torus &= np.array(g.parities) == 0
    h = np.flatnonzero(torus)
    W = np.zeros((n, len(h)), dtype=t.dtype(2))
    at = np.flatnonzero(torus[t.i])
    W[t.j[at], np.searchsorted(h, t.i[at])] = t.value[at]
    bad = np.flatnonzero((W[t.k] != W[t.i] + W[t.j]).any(1))
    if len(bad):
        raise CertificateError("torus weights must grade the table: [e_{}, e_{}] hits e_{}"
                               .format(*(int(x[bad[0]]) for x in (t.i, t.j, t.k))))
    classes: dict = {}
    weight = [classes.setdefault(w, len(classes)) for w in map(tuple, W.tolist())]
    return np.array(weight, dtype=np.int64), ~W.any(1)


def _ad_rows(g: SuperAlgebra, blocks: dict, zero):
    """(ad, of): the nonzero ad_x of the x with zero[x], in order of x, as
    integer rows over the tower's columns (the blocks' flat columns r n + c,
    one block after the other), entry C[x, c, k] = d [e_x, e_c]_k of the
    integer table at the column of (k, c); of[t] indexes row t's block
    (deg x, |x|) in blocks.  Every such column is a column of the tower when
    the weights grade the table and x has weight 0."""
    import numpy as np
    t, n = g.int_table, g.dim
    flats = np.concatenate([np.zeros(0, dtype=np.int64)] + [cols for cols, _ in blocks.values()])
    column = np.full(n * n, -1)
    column[flats] = np.arange(len(flats))
    keep = zero[t.i]
    x, lens = np.unique(t.i[keep], return_counts=True)  # the table is sorted by (i, j, k)
    return (IntRows(lens, column[t.k[keep] * n + t.j[keep]], t.value[keep]),
            np.array([list(blocks).index((g.zdegree(i), g.parity(i))) for i in x.tolist()]))


@memoized
def lie_der_tower(g: SuperAlgebra) -> dict:
    """Der, Inn and Out of a graded Lie superalgebra, per (degree shift, parity).

    Der is the kernel of the Leibniz system (de Graaf, Lie Algebras: Theory
    and Algorithms, 2000), of which only the weight-zero part is eliminated.
    The weights are those of the diagonal torus (`_torus`): ad e_h of each
    torus element h is diagonal, so the operators split into weight spaces,
    entry D[r, c] of weight w(r) - w(c), and Der into the derivations of each
    weight.

    Lemma.  If D is a derivation with [ad h, D] = lambda(h) D and lambda is
    not 0, D is inner: as h is even, [ad h, D] x = [h, D x] - D [h, x] =
    -[D h, x], so lambda(h) D = -ad(D h) for every h, and lambda(h) is not 0
    for some h.  Z(g) has weight 0 (ad h kills it), so ad is injective on
    each g_lambda with lambda not 0, and Der_lambda = ad(g_lambda).  In a
    (shift, parity) block, then, Der = Der_0 + N and Inn = Inn_0 + N, where
    N counts the basis vectors of nonzero weight of that degree and parity,
    and Out = Der_0 - Inn_0.

    Der_0 is the kernel of the equations (i, j, l) with w(l) = w(i) + w(j)
    on the columns (r, c) with w(r) = w(c) (`leibniz_weight_zero`), whose
    blocks have disjoint columns: offset block after block, their rows form
    one system, counted by one certified elimination, and Der_0 of a block
    is its number of free columns (`exact.kernel_columns`).  The ad_x of
    every x of weight 0, read off the integer table onto the same columns
    (`_ad_rows`), are certified to kill every row, and Inn_0 of a block is
    its number of pivots of their span (`exact.span_in_kernel`).  The Inn
    ranks add up to dim g - dim Z(g).  With no torus every weight is 0, and
    this is the whole Leibniz system.
    """
    import numpy as np
    weight, zero = _torus(g)
    blocks = leibniz_weight_zero(g, weight)
    cut = np.cumsum([0] + [len(cols) for cols, _ in blocks.values()])
    rows = IntRows.concat(IntRows(r.lens, r.cols + lo, r.vals)
                          for (_, r), lo in zip(blocks.values(), cut.tolist()))
    der = np.diff(np.searchsorted(kernel_columns(rows, int(cut[-1])), cut)).tolist()
    ad, of = _ad_rows(g, blocks, zero)
    pivots = span_in_kernel(rows, ad, int(cut[-1]), lambda bad: (
        f"adjoint operators must be derivations (shift {list(blocks)[of[bad].min()][0]})"))
    inn = np.diff(np.searchsorted(pivots, cut)).tolist()
    # N: the basis vectors of nonzero weight, per (degree, parity)
    nonzero = Counter((g.zdegree(x), g.parity(x)) for x in np.flatnonzero(~zero).tolist())
    return {key: {"der": d + nonzero[key], "inn": i + nonzero[key], "out": d - i}
            for key, d, i in zip(blocks, der, inn) if d or i or nonzero[key]}


def out_dims(tower: dict) -> dict:
    """Map shift -> (even, odd) outer dimensions, dropping zero rows."""
    out: dict = {}
    for (shift, parity), block in tower.items():
        if block["out"]:
            pair = list(out.get(shift, (0, 0)))
            pair[parity] += block["out"]
            out[shift] = tuple(pair)
    return out


def pair_der_matches_der0(v) -> CheckResult:
    """Pair derivations are exactly the shift-0 derivations of Ko(V+,V-).

    The embedding E_D acts as D+ / D- on the tips and by bracket on the
    middle, E_D W_t = [D, W_t]; it is verified to land in Der(Ko)_0, to fill
    it, and to match brackets, E_[D,D'] = [E_D, E_D'].  Both sides are
    block diagonal and agree on the tips by construction, so the brackets
    are compared on the middle blocks: one batched contraction each.
    """
    import numpy as np
    ko = koecher(v, middle="inn")
    g = ko.lie
    mid = ko.data["middle"]
    dp, dm = ko.data["pair"].shape
    nm, N = mid.dim, g.dim
    pd = pair_der(v)
    P, W = pd.stack, mid.stack
    k = len(P)
    # middle blocks [l, t] = coordinate l of [D, W_t], scaled by P.den * W.den
    M = mid.coordinates(P.bracket(W)).reshape(k, nm, nm).transpose(0, 2, 1)
    E = np.zeros((k, N, N), dtype=object)
    E[:, :dp, :dp] = P.blocks[0].astype(object) * W.den
    E[:, dp + nm:, dp + nm:] = P.blocks[1].astype(object) * W.den
    E[:, dp:dp + nm, dp:dp + nm] = M
    embedded = OperatorStack((E,), P.parities, P.den * W.den)
    # the shift-0 derivations: those supported on the entries D[r, c] of deg r = deg c
    der0 = OperatorSpace("Der(Ko)_0", *derivation_kernels(
        g, np.unique(g.zdegrees, return_inverse=True)[1]), (N,))
    if not der0.contains_stack(embedded):
        return CheckResult("pair_der_equals_der0", False,
                           "embedded pair derivation is not a derivation of Ko")
    if der0.dims() != pd.dims():
        return CheckResult("pair_der_equals_der0", False,
                           f"Der(Ko)_0 dims {der0.dims()} vs pair_der {pd.dims()}")
    if Subspace.from_int_rows(N * N, IntRows.from_dense(embedded.flats())).dim != pd.dim:
        return CheckResult("pair_der_equals_der0", False,
                           "embedded derivations are dependent")
    # bracket match on the middle: E_[Da,Db] (P.den**2 W.den) against
    # [E_Da, E_Db] (P.den**2 W.den**2)
    MB = mid.coordinates(P.bracket(P).bracket(W)).reshape(k, k, nm, nm).transpose(0, 1, 3, 2)
    bad = tensor.mismatch(MB, W.den, tensor.brackets(M, P.parities, M, P.parities), 1)
    hits = np.argwhere(bad.any(axis=(2, 3)))
    if len(hits):
        return CheckResult("pair_der_equals_der0", False,
                           "bracket mismatch at embedded pair ({},{})".format(*hits[0]))
    return CheckResult("pair_der_equals_der0", True,
                       "Der(V+,V-) fills Der(Ko)_0 and matches brackets")


def fingerprint(g: SuperAlgebra) -> dict:
    """Graded/parity dimensions, center and derived dims, and Out dims: the
    tower (`lie_der_tower`) counts Der and Inn of every block in one
    certified elimination, and the center has dim g - sum(Inn), as Inn(g) =
    g/Z(g).  Equality of fingerprints is isomorphism evidence, never a
    proof; reports must say "consistent with", not "isomorphic".
    """
    tower = lie_der_tower(g)
    return {
        "dims": tuple(sorted(graded_dims(g).items())),
        "center": g.dim - sum(b["inn"] for b in tower.values()),
        "derived": derived(g).dim,
        "out": tuple(sorted((k, b["out"]) for k, b in tower.items() if b["out"])),
    }
