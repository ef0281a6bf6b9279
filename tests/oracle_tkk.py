"""Loop reference implementations of the degree-0 layer and of the J side
(test-only oracle).

These are the Fraction loops that supertkk ran for the degree-0 parts of
the TKK constructions before they moved onto the integer-tensor layer
(`OperatorStack.bracket`, `OperatorSpace.coordinates`,
`tensor.bracket_map_defect`), kept verbatim as the slow reference: each
supercommutator is a dense Matrix product, and each coordinate vector comes
from the former `Subspace.coordinates` one operator at a time (`op_coords`).

- `inn_algebra`, `l_space`, `double`, `pair_d_ops`, `pair_inn` and
  `istr_tilde` are the former structure builders, and `pair_triple` the
  former `JordanPair.triple` (`double` calls the
  Fraction `triple` n**3 times, and so does `istr_tilde` through n**2
  `d_op` matrices), and `inclusion_checks` the former loops of the
  operator-pair checks of `inclusion_report`.
- `koecher`, `kantor`, `tits_data`, `tits` and `koecher_d` are the former
  constructions, not memoized.  They build Inn(V), Inn(V,V) and the doubled
  pair with the loops here and take Der(V), Der(V,V) and istr from supertkk;
  every middle is a canonical subspace, so both sides write their brackets
  in the same basis.  `KantorTop` is the former top space of `kantor` on
  `Fraction` flats: P and the [L_a, P] from the loops of
  oracle_identities, and the greedy pick and the coordinates from
  `oracle_linalg.SpanSolver`, so that neither shares code with
  `tkk.KantorTop` and its `GeneratedSpan`.  The oracle's `tits_data` holds
  the `Matrix` of `killing_half` in `TitsData.killing`, where supertkk
  holds (K, den), and checks its container against the computed Der(V);
  its loop builders read no coordinates off it, so its `l_brackets` and
  `brackets` are None.
- `check_bracket_map` is the former `_check_bracket_map` loop, on a list
  of rational images, and `pair_der_matches_der0` the former embedding
  check.  `map_matrix` and `map_images` convert between such a list and
  the integer matrix F over one denominator that supertkk's certificate
  takes; `_entries` is the former flattening of a builder's upper-triangle
  dict table.  `operator_space` is the former `structure._space` (an
  OperatorSpace from rational flats by parity) and `decode` the former
  `tensor.decode` (an integer tensor as a sparse rational table); no
  package code needs either.
- `l_witness`, `killing_half`, `tits_roundtrip` and `equivalence_images`
  are the last dense `Matrix` loops of supertkk: `structure._l_witness`
  (`solve` over the L_{e_i} matrices), `tkk._killing_half` (adjoint
  products), `tkk.tits_roundtrip` (a D combination against
  `supercommutator` per pair) and the Kantor->Koecher and Tits->Koecher
  image lists of `tkk.check_unital_equivalences` (Matrix accumulations of
  D_{x,e} and [L_a, L_b]).  The last two run on the Ti, Kan and Ko that
  supertkk builds (`tkk.tits`, ...), so that a test can perturb those, and
  `equivalence_images` reads each middle coordinate with `op_coords`.
- `j_functor`, `is_jordan_graded`, `koecher_inverse_check` and
  `koecher_ideal_check` are the former J-side loops: every triple
  [[x, y], z], every bracket [x+, u-], every middle image of Ko(J(g)) -> g
  and every bracket with the embedded Ko is a `SuperAlgebra.product` on
  Fractions.  `koecher_inverse_check` runs on the Ko(J(g)) and the bracket
  map certificate of supertkk, and both checks read `tkk.koecher_tilde`,
  `tkk.pair_inn` and the `GeneratedSpan` of supertkk, so that a test can
  perturb those.
- `lie_der_tower` is the former derivation tower: its adjoint operators
  are dense Fraction rows, certified by the dimension of a `Subspace` of
  Der plus those rows, and Inn is the dimension of their span; its Der is
  the all-rows `oracle_linalg.integer_kernel`, one block at a time.
  `ad_rows` is the loop that built the ad rows of one block of
  `tkk.lie_der_tower` before it read them off the integer table:
  `basis_product` dicts, each made primitive by `row_primitive`.
  `torus_weights` reads the diagonal torus of `tkk._torus` and its weights
  off the rational table with loops.  `is_jordan_graded` takes the former `center`,
  `oracle_identities.center`.
- `checked_lie_der_tower` is the re-check that `tkk.lie_der_tower` ran
  under its former check_total flag: the Der blocks of each parity add up
  to the ungraded `derivation_kernel` of that parity.
The dense operators themselves (Matrix, l_op, d_op, supercommutator,
operators) come from oracle_linalg.
"""

from __future__ import annotations

from oracle_identities import _g0_on_gplus, _gplus_on_gminus, _hom2_flat_p, center
import oracle_linalg
import oracle_tables
from oracle_linalg import (Matrix, SpanSolver, basis_vector, contains, contains_space,
                           coordinates, d_op, l_op, left_mult_matrix, operators,
                           supercommutator, triple)
from supertkk import tensor, tkk
from supertkk.exact import ZERO, GeneratedSpan, Q, Subspace, certify, row_primitive, solve, span
from supertkk.jordan import find_unit
from supertkk.structure import (CheckResult, JordanPair, OperatorSpace,
                                check_pair_axioms, der_algebra, derivation_kernel,
                                istr_algebra, leibniz_blocks, pair_d_stack, pair_der, str_w)
from supertkk.superspace import SuperAlgebra, make_algebra, mirror
from supertkk.tkk import TitsData, TkkAlgebra, _sl2


def _entries(upper: dict) -> list:
    return [(i, j, k, c) for (i, j), vec in upper.items() for k, c in vec.items() if c]


def operator_space(label, flats_by_parity, shape) -> OperatorSpace:
    """The OperatorSpace spanned by rational flats {parity: [flat, ...]}."""
    amb = sum(d * d for d in shape)
    return OperatorSpace(label, Subspace(amb, flats_by_parity.get(0, ())),
                         Subspace(amb, flats_by_parity.get(1, ())), shape)


def decode(T, d) -> dict:
    """The sparse table {index: {k: T[index + (k,)] / d}} of an integer
    tensor, the inverse of `oracle_tables.encode`; indices without a nonzero entry
    are left out, and both levels come in C order."""
    import numpy as np
    out: dict = {}
    for at in zip(*np.nonzero(T)):
        at = tuple(int(x) for x in at)
        out.setdefault(at[:-1], {})[at[-1]] = Q(int(T[at]), d)
    return out


def map_matrix(images: list) -> tuple:
    """(F, den) of the linear map e_i -> images[i] (rational coordinates):
    F[i, a] = den images[i][a], the form `tkk._check_bracket_map` takes."""
    (F,), den = oracle_tables.encode([{(i,): dict(enumerate(v)) for i, v in enumerate(images)}],
                                     [(len(images), len(images[0]) if images else 0)])
    return F, den


def map_images(F, den: int) -> list:
    """The images e_i -> F[i] / den as tuples of rationals, the inverse of
    `map_matrix`."""
    return [tuple(Q(int(x), den) for x in row) for row in F.tolist()]


# ---------------------------------------------------------------------------
# structure


def inn_algebra(V: SuperAlgebra) -> OperatorSpace:
    """Inner derivations: the span of the [L_x, L_y]."""
    flats: dict = {0: [], 1: []}
    mats = [l_op(V, basis_vector(V, i)) for i in range(V.dim)]
    for i in range(V.dim):
        for j in range(i, V.dim):
            br = supercommutator(mats[i], mats[j])
            flats[(V.parity(i) + V.parity(j)) % 2].append(br.matrix.flatten())
    return operator_space("Inn", flats, (V.dim,))


def double(V: SuperAlgebra) -> JordanPair:
    """The doubled superpair (V, V) with both triples from the algebra triple."""
    table: dict = {}
    n = V.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = triple(V, basis_vector(V, i), basis_vector(V, j), basis_vector(V, k))
                if any(t):
                    table[i, j, k] = {l: c for l, c in enumerate(t) if c}
    return JordanPair(f"({V.name},{V.name})", (V.parities, V.parities),
                      *oracle_tables.encode((table, table), [(n,) * 4] * 2))


def pair_triple(pair: JordanPair, sigma: int, x, y, z) -> tuple:
    """{x, y, z}^sigma, extended trilinearly from the pair's basis triples."""
    out = [Q(0)] * pair.dim(sigma)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, zk in enumerate(z):
                if xi and yj and zk:
                    for l, c in pair.basis_triple(sigma, i, j, k).items():
                        out[l] += xi * yj * zk * c
    return tuple(out)


def pair_d_ops(pair: JordanPair, sigma: int, i: int, j: int):
    """The derivation pair D_{e_i, e_j} for e_i in V^sigma, e_j in V^(-sigma).

    Returns (D acting on V^sigma, companion acting on V^(-sigma), parity);
    the companion is -(-1)^{|x||y|} {y, x, .}^(-sigma).
    """
    d_same = Matrix.from_entries(pair.dim(sigma), pair.dim(sigma), {
        (l, k): c
        for k in range(pair.dim(sigma))
        for l, c in pair.basis_triple(sigma, i, j, k).items()})
    other = 1 - sigma
    s = Q(-1) if (pair.parity(sigma, i) * pair.parity(other, j)) % 2 == 0 else Q(1)
    d_other = Matrix.from_entries(pair.dim(other), pair.dim(other), {
        (l, k): s * c
        for k in range(pair.dim(other))
        for l, c in pair.basis_triple(other, j, i, k).items()})
    parity = (pair.parity(sigma, i) + pair.parity(other, j)) % 2
    return d_same, d_other, parity


def pair_inn(v) -> OperatorSpace:
    """Inner derivations of the pair: the span of the (D_{x,y}, companion).

    Accepts a Jordan superalgebra (meaning its doubled pair) or a JordanPair.
    """
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    flats: dict = {0: [], 1: []}
    for i in range(pair.dim(0)):
        for j in range(pair.dim(1)):
            d_plus, d_minus, parity = pair_d_ops(pair, 0, i, j)
            flats[parity].append(d_plus.flatten() + d_minus.flatten())
    return operator_space("Inn(V,V)", flats, pair.shape)


def l_space(V: SuperAlgebra) -> OperatorSpace:
    """Span of the left multiplications L_x."""
    flats: dict = {0: [], 1: []}
    for i in range(V.dim):
        flats[V.parity(i)].append(l_op(V, basis_vector(V, i)).matrix.flatten())
    return operator_space("{L}", flats, (V.dim,))


def istr_tilde(V: SuperAlgebra) -> OperatorSpace:
    """Span of the operators D_{x,y} = 2 L_{xy} + 2 [L_x, L_y]."""
    flats: dict = {0: [], 1: []}
    for i in range(V.dim):
        for j in range(V.dim):
            m = d_op(V, basis_vector(V, i), basis_vector(V, j)).matrix
            flats[(V.parity(i) + V.parity(j)) % 2].append(m.flatten())
    return operator_space("istr~", flats, (V.dim,))


def inclusion_checks(V: SuperAlgebra) -> dict:
    """The operator-pair checks of inclusion_report by their names, one
    Matrix operation and one containment test at a time."""
    n = V.dim
    inn, der, pinn, pder, sw = (inn_algebra(V), der_algebra(V), pair_inn(V), pair_der(V),
                                str_w(V))
    out = {}
    ok = True
    for i in range(n):
        li = l_op(V, basis_vector(V, i)).matrix
        vec = li.flatten() + (-li).flatten()
        ok = ok and contains(pder.part(V.parity(i)), vec)
    out["lx_minus_lx_in_pair_der"] = ok
    ok = True
    for op in operators(der):
        vec = op.matrix.flatten() + op.matrix.flatten()
        ok = ok and contains(pder.part(op.parity), vec)
    out["diag_der_in_pair_der"] = ok
    ok = True
    for op in operators(inn):
        vec = op.matrix.flatten() + op.matrix.flatten()
        ok = ok and contains(pinn.part(op.parity), vec)
    out["diag_inn_in_pair_inn"] = ok
    image: dict = {0: [], 1: []}
    for d_plus, _, parity in operators(pinn):
        image[parity].append(d_plus.flatten())
    psi_img = operator_space("psi(Inn(V,V))", image, (n,))
    itld = istr_tilde(V)
    out["psi_onto_istr_tilde"] = psi_img.even == itld.even and psi_img.odd == itld.odd
    ok = True
    for a_plus, a_minus, pa in operators(pder):
        for b_plus, b_minus, pb in operators(pinn):
            s = Q(-1) if (pa * pb) % 2 else Q(1)
            br_plus = a_plus @ b_plus - (b_plus @ a_plus).scale(s)
            br_minus = a_minus @ b_minus - (b_minus @ a_minus).scale(s)
            ok = ok and contains(pinn.part((pa + pb) % 2), br_plus.flatten()
                                                          + br_minus.flatten())
    out["pair_inn_ideal"] = ok
    ok = True
    for x, y, parity in operators(sw):
        vec = x.flatten() + (-y).flatten()
        ok = ok and contains(pder.part(parity), vec)
    out["str_w_swap_in_pair_der"] = ok
    return out


# ---------------------------------------------------------------------------
# tkk


def op_coords(space: OperatorSpace, flat, parity: int) -> list:
    """Coordinates of a flattened operator in the basis order of operators()."""
    coords = coordinates(space.part(parity), flat)
    certify(coords is not None, f"operator does not lie in {space.label}")
    if parity % 2:
        return [Q(0)] * space.even.dim + list(coords)
    return list(coords) + [Q(0)] * space.odd.dim


def koecher(v, middle: str = "inn") -> TkkAlgebra:
    """The 3-graded Lie superalgebra V+ (+) mid (+) V- over a pair or algebra.

    middle "inn" uses Inn(V,V) (the classical construction), "der" uses
    Der(V,V) (the extended one, in which the former embeds as an ideal).
    """
    pair = double(v) if isinstance(v, SuperAlgebra) else v
    if middle == "inn":
        mid = pair_inn(v)
    elif middle == "der":
        mid = pair_der(v)
    else:
        raise ValueError(f"unknown middle {middle!r}, expected 'inn' or 'der'")
    dp, dm = pair.shape
    ops = operators(mid)
    nm = len(ops)
    parities = (tuple(pair.parities[0]) + tuple(p for _, _, p in ops)
                + tuple(pair.parities[1]))
    zdeg = (1,) * dp + (0,) * nm + (-1,) * dm
    origin = tuple([("vplus", i) for i in range(dp)]
                   + [("op0", t) for t in range(nm)]
                   + [("vminus", u) for u in range(dm)])

    upper: dict = {}
    for i in range(dp):
        for u in range(dm):
            # [x+, u-] = D_{x,u} as an operator pair in the middle
            d_plus, d_minus, par = pair_d_ops(pair, 0, i, u)
            coords = op_coords(mid, d_plus.flatten() + d_minus.flatten(), par)
            upper[i, dp + nm + u] = {dp + t: c for t, c in enumerate(coords) if c}
    for t, (a_plus, a_minus, pa) in enumerate(ops):
        for i in range(dp):
            # [x+, M] = -(-1)^{|x||M|} (M+ x)+
            s = Q(-1) if (pair.parity(0, i) * pa) % 2 else Q(1)
            vec = a_plus.apply(
                tuple(Q(1) if r == i else Q(0) for r in range(dp)))
            upper[i, dp + t] = {l: -s * c for l, c in enumerate(vec) if c}
        for u in range(dm):
            # [M, u-] = (M- u)-
            vec = a_minus.apply(
                tuple(Q(1) if r == u else Q(0) for r in range(dm)))
            upper[dp + t, dp + nm + u] = {dp + nm + l: c
                                          for l, c in enumerate(vec) if c}
        for s_idx in range(t, nm):
            b_plus, b_minus, pb = ops[s_idx]
            sg = Q(-1) if (pa * pb) % 2 else Q(1)
            br_plus = a_plus @ b_plus - (b_plus @ a_plus).scale(sg)
            br_minus = a_minus @ b_minus - (b_minus @ a_minus).scale(sg)
            coords = op_coords(mid, br_plus.flatten() + br_minus.flatten(),
                                (pa + pb) % 2)
            entry = {dp + r: c for r, c in enumerate(coords) if c}
            if entry:
                upper[dp + t, dp + s_idx] = entry

    prefix = "Ko" if middle == "inn" else "Ko~"
    name = (prefix + pair.name if pair.name.startswith("(")
            else f"{prefix}({pair.name})")
    alg = make_algebra(parities, mirror(parities, _entries(upper), -1),
                       zdegrees=zdeg, name=name, kind="lie",
                       metadata={"construction": "koecher", "middle": middle})
    return TkkAlgebra(alg, "Ko" if middle == "inn" else "KoTilde",
                      origin, source=name, data={"pair": pair, "middle": mid})


class KantorTop:
    """The former Kantor top space, on Fraction flats (flat index (l, i, j)):
    P and the [L_a, P] of the loops in oracle_identities, the basis picked
    greedily per parity by `oracle_linalg.SpanSolver` (P first, then the
    [L_a, P] in basis order), even block first, and coordinates over it
    read by `SpanSolver.express`."""

    def __init__(self, V: SuperAlgebra):
        n = V.dim
        p_flat = _hom2_flat_p(V)
        self.lp_flats = [_g0_on_gplus(V, left_mult_matrix(V, basis_vector(V, a)), V.parity(a),
                                      p_flat, 0) for a in range(n)]
        candidates = [(("kantorP", 0), p_flat, 0)] + [
            (("kantorLP", a), self.lp_flats[a], V.parity(a)) for a in range(n)]
        self.tags, self.flats, self.parities, self._solvers = [], [], [], {}
        for par in (0, 1):
            solver, kept = SpanSolver(n ** 3), []
            for tag, flat, p in candidates:
                if p == par and solver.add(flat):
                    kept.append(solver.count - 1)
                    self.tags.append(tag)
                    self.flats.append(flat)
                    self.parities.append(par)
            self._solvers[par] = solver, kept

    def basis(self):
        """(tag, flat, parity) triples, even block first."""
        return list(zip(self.tags, self.flats, self.parities))

    def coords(self, flat, parity: int) -> list:
        solver, kept = self._solvers[parity % 2]
        c = solver.express(flat)
        certify(c is not None, "element does not lie in the Kantor top space")
        c = [c[i] for i in kept]
        zeros = [Q(0)] * self.parities.count(1 - parity % 2)
        return zeros + c if parity % 2 else c + zeros


def kantor(V: SuperAlgebra) -> TkkAlgebra:
    """Kantor's 3-graded Lie superalgebra V (+) istr(V) (+) <P, [L_a, P]>."""
    if V.kind != "jordan":
        raise ValueError("kantor expects a Jordan superalgebra")
    n = V.dim
    istr = istr_algebra(V)
    mid_ops = operators(istr)
    nm = len(mid_ops)
    top = KantorTop(V)
    top_basis = top.basis()
    nt = len(top_basis)
    parities = (tuple(V.parities) + tuple(op.parity for op in mid_ops)
                + tuple(p for _, _, p in top_basis))
    zdeg = (-1,) * n + (0,) * nm + (1,) * nt
    origin = tuple([("vminus", i) for i in range(n)]
                   + [("op0", t) for t in range(nm)]
                   + [tag for tag, _, _ in top_basis])

    upper: dict = {}
    for i in range(n):
        for t, op in enumerate(mid_ops):
            # [x, A] = -(-1)^{|x||A|} A(x)
            s = Q(-1) if (V.parity(i) * op.parity) % 2 else Q(1)
            vec = op.matrix.apply(basis_vector(V, i))
            entry = {l: -s * c for l, c in enumerate(vec) if c}
            if entry:
                upper[i, n + t] = entry
        for t, (_, t_flat, t_par) in enumerate(top_basis):
            # [x, B] = -(-1)^{|x||B|} [B, x], with [B, x](y) = B(x, y) in istr
            s = Q(-1) if (V.parity(i) * t_par) % 2 else Q(1)
            mat = _gplus_on_gminus(V, t_flat, i)
            coords = op_coords(istr, mat.flatten(), (V.parity(i) + t_par) % 2)
            entry = {n + l: -s * c for l, c in enumerate(coords) if c}
            if entry:
                upper[i, n + nm + t] = entry
    # [A, B] for A in istr and B in the top, as d**2 times integer flats
    tops: dict = {}  # (u, i, j) -> {l: B_u(e_i, e_j)_l}
    for u, (_, t_flat, _) in enumerate(top_basis):
        for at, x in enumerate(t_flat):
            if x:
                l, ij = divmod(at, n * n)
                tops.setdefault((u,) + divmod(ij, n), {})[l] = x
    ops = {(t, r): {c: x for c, x in enumerate(row) if x}
           for t, op in enumerate(mid_ops) for r, row in enumerate(op.matrix.data)}
    (ops, tops), d = oracle_tables.encode([ops, tops], [(nm, n, n), (nt, n, n, n)])
    top_par = [p for _, _, p in top_basis]
    for t, a_op in enumerate(mid_ops):
        for s_idx in range(t, nm):
            br = supercommutator(a_op, mid_ops[s_idx])
            coords = op_coords(istr, br.matrix.flatten(), br.parity)
            entry = {n + l: c for l, c in enumerate(coords) if c}
            if entry:
                upper[n + t, n + s_idx] = entry
        sign = [-1 if a_op.parity * q % 2 else 1 for q in top_par]
        acted = tensor.g0_action(ops[t], tops, sign, V.parities)
        for u, flat in enumerate(acted.transpose(0, 3, 1, 2).reshape(nt, n ** 3).tolist()):
            coords = top.coords(flat, (a_op.parity + top_par[u]) % 2)
            entry = {n + nm + l: c / (d * d) for l, c in enumerate(coords) if c}
            if entry:
                upper[n + t, n + nm + u] = entry

    alg = make_algebra(parities, mirror(parities, _entries(upper), -1),
                       zdegrees=zdeg, name=f"Kan({V.name})", kind="lie",
                       metadata={"construction": "kantor"})
    return TkkAlgebra(alg, "Kan", origin, source=f"Kan({V.name})",
                      data={"middle": istr, "top": top})


def killing_half(y: SuperAlgebra) -> Matrix:
    """(a, b) = 1/2 tr(ad a . ad b)."""
    ads = [left_mult_matrix(y, basis_vector(y, i)) for i in range(y.dim)]
    return Matrix([[Q(1, 2) * sum((ads[i] @ ads[j])[k, k] for k in range(y.dim))
                    for j in range(y.dim)] for i in range(y.dim)])


def tits_data(V: SuperAlgebra, d="inn") -> TitsData:
    """Resolve a derivation-container choice and validate its preconditions."""
    if isinstance(d, TitsData):
        return d
    if isinstance(d, str):
        if d == "inn":
            dsp = inn_algebra(V)
        elif d == "der":
            dsp = der_algebra(V)
        else:
            raise ValueError(f"unknown derivation choice {d!r}, "
                             "expected 'inn' or 'der'")
        label = d
    else:
        dsp, label = d, d.label
    def includes(a, b):
        return contains_space(a.even, b.even) and contains_space(a.odd, b.odd)

    if not includes(der_algebra(V), dsp):
        raise ValueError("derivation container must consist of derivations")
    if not includes(dsp, inn_algebra(V)):
        raise ValueError("derivation container must contain the inner derivations")
    ops = operators(dsp)
    for i, a_op in enumerate(ops):
        for b_op in ops[i:]:
            br = supercommutator(a_op, b_op)
            if not contains(dsp.part(br.parity), br.matrix.flatten()):
                raise ValueError("derivation container is not closed under bracket")
    sl2 = _sl2()
    return TitsData(V, dsp, sl2, killing_half(sl2), label, None, None)


def tits(V: SuperAlgebra, d="inn") -> TkkAlgebra:
    """Tits construction D (+) (sl2 (x) V) with the half-Killing pairing."""
    if V.kind != "jordan":
        raise ValueError("tits expects a Jordan superalgebra")
    n = V.dim
    data = tits_data(V, d)
    dsp, y, kappa = data.dspace, data.sl2, data.killing
    dops = operators(dsp)
    nd = len(dops)
    # sl2 basis order e, h, f carries the 3-grading +1, 0, -1
    sl2_deg = (1, 0, -1)
    parities = tuple(op.parity for op in dops) + tuple(V.parities) * 3
    zdeg = tuple(0 for _ in range(nd)) + tuple(
        z for z in sl2_deg for _ in range(n))
    origin = tuple([("d", t) for t in range(nd)]
                   + [(tag, i) for tag in ("e", "h", "f") for i in range(n)])

    def tensor_index(y_idx: int, v_idx: int) -> int:
        return nd + y_idx * n + v_idx

    upper: dict = {}
    for t, a_op in enumerate(dops):
        for s_idx in range(t, nd):
            br = supercommutator(a_op, dops[s_idx])
            coords = op_coords(dsp, br.matrix.flatten(), br.parity)
            entry = {l: c for l, c in enumerate(coords) if c}
            if entry:
                upper[t, s_idx] = entry
        for yi in range(3):
            # [d, y (x) v] = y (x) d(v)
            for vj in range(n):
                vec = a_op.matrix.apply(basis_vector(V, vj))
                entry = {tensor_index(yi, l): c for l, c in enumerate(vec) if c}
                if entry:
                    upper[t, tensor_index(yi, vj)] = entry
    lmats = [l_op(V, basis_vector(V, i)) for i in range(n)]
    for yi in range(3):
        for yj in range(3):
            for vi in range(n):
                for vj in range(n):
                    a, b = tensor_index(yi, vi), tensor_index(yj, vj)
                    if a > b:
                        continue
                    # [y (x) v, y' (x) v'] = (y,y')[L_v,L_{v'}] + [y,y'] (x) vv'
                    entry: dict = {}
                    if kappa[yi, yj]:
                        br = supercommutator(lmats[vi], lmats[vj])
                        coords = op_coords(dsp, br.matrix.flatten(), br.parity)
                        for l, c in enumerate(coords):
                            if c:
                                entry[l] = entry.get(l, Q(0)) + kappa[yi, yj] * c
                    ybr = y.basis_product(yi, yj)
                    if ybr:
                        prod = V.product(basis_vector(V, vi), basis_vector(V, vj))
                        for yk, yc in ybr.items():
                            for l, c in enumerate(prod):
                                if c:
                                    idx = tensor_index(yk, l)
                                    entry[idx] = entry.get(idx, Q(0)) + yc * c
                    entry = {k: c for k, c in entry.items() if c}
                    if entry:
                        upper[a, b] = entry

    name = f"Ti({V.name},{data.label})"
    alg = make_algebra(parities, mirror(parities, _entries(upper), -1),
                       zdegrees=zdeg, name=name, kind="lie",
                       metadata={"construction": "tits", "dchoice": data.label})
    return TkkAlgebra(alg, "Ti", origin, source=name,
                      data={"dspace": dsp, "sl2": y, "kappa": kappa,
                            "label": data.label})


def koecher_d(V: SuperAlgebra, d="inn") -> TkkAlgebra:
    """V+ (+) (D (+) a formal L-hat copy of V) (+) V-."""
    if V.kind != "jordan":
        raise ValueError("koecher_d expects a Jordan superalgebra")
    n = V.dim
    data = tits_data(V, d)
    dsp = data.dspace
    dops = operators(dsp)
    nd = len(dops)
    parities = (tuple(V.parities) + tuple(op.parity for op in dops)
                + tuple(V.parities) + tuple(V.parities))
    zdeg = (1,) * n + (0,) * (nd + n) + (-1,) * n
    origin = tuple([("vplus", i) for i in range(n)]
                   + [("d", t) for t in range(nd)]
                   + [("lhat", i) for i in range(n)]
                   + [("vminus", i) for i in range(n)])
    off_d, off_l, off_m = n, n + nd, n + nd + n
    lmats = [l_op(V, basis_vector(V, i)) for i in range(n)]

    upper: dict = {}
    for i in range(n):
        for u in range(n):
            # [x+, u-] = 2 L-hat_{xu} + 2 [L_x, L_u] in D
            prod = V.product(basis_vector(V, i), basis_vector(V, u))
            entry = {off_l + l: 2 * c for l, c in enumerate(prod) if c}
            br = supercommutator(lmats[i], lmats[u])
            coords = op_coords(dsp, br.matrix.flatten(), br.parity)
            for l, c in enumerate(coords):
                if c:
                    entry[off_d + l] = entry.get(off_d + l, Q(0)) + 2 * c
            entry = {k: c for k, c in entry.items() if c}
            if entry:
                upper[i, off_m + u] = entry
    for t, a_op in enumerate(dops):
        for i in range(n):
            vec = a_op.matrix.apply(basis_vector(V, i))
            # [x+, D] = -(-1)^{|x||D|}[D, x+] = -(-1)^{|x||D|}(Dx)+
            s = Q(1) if (V.parity(i) * a_op.parity) % 2 else Q(-1)
            entry = {l: s * c for l, c in enumerate(vec) if c}
            if entry:
                upper[i, off_d + t] = entry
            # [D, u-] = (Du)-
            entry_m = {off_m + l: c for l, c in enumerate(vec) if c}
            if entry_m:
                upper[off_d + t, off_m + i] = entry_m
        for s_idx in range(t, nd):
            br = supercommutator(a_op, dops[s_idx])
            coords = op_coords(dsp, br.matrix.flatten(), br.parity)
            entry = {off_d + l: c for l, c in enumerate(coords) if c}
            if entry:
                upper[off_d + t, off_d + s_idx] = entry
        for j in range(n):
            # [D, L-hat_y] = L-hat_{D(y)}
            vec = a_op.matrix.apply(basis_vector(V, j))
            entry = {off_l + l: c for l, c in enumerate(vec) if c}
            if entry:
                upper[off_d + t, off_l + j] = entry
    for i in range(n):
        for j in range(n):
            # [L-hat_y, x+] = (yx)+ and [L-hat_y, u-] = -(yu)-
            prod = V.product(basis_vector(V, j), basis_vector(V, i))
            s = Q(-1) if (V.parity(i) * V.parity(j)) % 2 else Q(1)
            entry_p = {l: -s * c for l, c in enumerate(prod) if c}
            if entry_p:
                upper[i, off_l + j] = entry_p
            entry_m = {off_m + l: -c for l, c in enumerate(prod) if c}
            if entry_m:
                upper[off_l + j, off_m + i] = entry_m
        for j in range(i, n):
            # [L-hat_x, L-hat_y] = [L_x, L_y] lands in D via Inn <= D
            br = supercommutator(lmats[i], lmats[j])
            coords = op_coords(dsp, br.matrix.flatten(), br.parity)
            entry = {off_d + l: c for l, c in enumerate(coords) if c}
            if entry:
                upper[off_l + i, off_l + j] = entry

    name = f"Ko_{data.label}({V.name})"
    alg = make_algebra(parities, mirror(parities, _entries(upper), -1),
                       zdegrees=zdeg, name=name, kind="lie",
                       metadata={"construction": "koecher_d",
                                 "dchoice": data.label})
    return TkkAlgebra(alg, "KoD", origin, source=name, data={"dspace": dsp})


def tits_roundtrip(V: SuperAlgebra, d="inn") -> CheckResult:
    """Recover the Jordan product and the pairing from Ti(V, D, sl2).

    [e (x) a, f (x) b] = (e,f)<a,b> + h (x) ab, so projecting onto h (x) V must
    return the product, and the D component divided by (e,f) must be [L_a,L_b].
    """
    ti = tkk.tits(V, d)
    g = ti.lie
    n = V.dim
    dsp = ti.data["dspace"]
    nd = dsp.dim
    K, den = ti.data["kappa"]
    ef = Q(int(K[0, 2]), den)
    certify(ef, "sl2 pairing (e,f) must be nonzero")
    dmats = [op.matrix for op in operators(dsp)]
    lmats = [l_op(V, basis_vector(V, i)) for i in range(n)]
    for a in range(n):
        for b in range(n):
            br = g.product(basis_vector(g, nd + a), basis_vector(g, nd + 2 * n + b))
            if any(br[nd:nd + n]) or any(br[nd + 2 * n:]):
                return CheckResult("tits_roundtrip", False,
                                   f"[e (x) {a}, f (x) {b}] leaves D + h (x) V")
            if br[nd + n:nd + 2 * n] != V.product(basis_vector(V, a),
                                                  basis_vector(V, b)):
                return CheckResult("tits_roundtrip", False,
                                   f"recovered product wrong at ({a},{b})")
            w = Matrix.zero(n, n)
            for t, c in enumerate(br[:nd]):
                if c:
                    w = w + dmats[t].scale(c)
            if w.scale(Q(1) / ef) != supercommutator(lmats[a], lmats[b]).matrix:
                return CheckResult("tits_roundtrip", False,
                                   f"recovered pairing wrong at ({a},{b})")
    return CheckResult("tits_roundtrip", True,
                       "product and pairing recovered from [e (x) a, f (x) b]")


def equivalence_images(V: SuperAlgebra) -> dict:
    """The images of the basis of Kan(V) and of Ti(V, Inn, sl2) in Ko(V)
    that check_unital_equivalences certifies, by check name; V unital."""
    unit = find_unit(V)
    ko = tkk.koecher(V, middle="inn")
    mid = ko.data["middle"]
    n = V.dim
    nm = mid.dim
    off_mid, off_minus = n, n + nm

    def fill_mid(images, pending):
        # pending: (image, plus, minus, parity); one coordinate read each
        for at, p, m, par in pending:
            for l, c in enumerate(op_coords(mid, p.flatten() + m.flatten(), par)):
                if c:
                    images[at][off_mid + l] = c
        return [tuple(v) for v in images]

    def dxe_pair(x_vec):
        # D_{x,e} = (2 L_x, -2 L_x) when e is the unit
        lx = left_mult_matrix(V, x_vec)
        return lx.scale(Q(2)), lx.scale(Q(-2))

    # Kantor vs Koecher: x -> x-, P -> -(e/2)+, [L_a,P] -> (a/2)+,
    # L_x -> -D_{x,e}/2, [L_a,L_b] -> ([L_a,L_b], [L_a,L_b])
    out = {}
    kan = tkk.kantor(V)
    istr = kan.data["middle"]
    lmats = [l_op(V, basis_vector(V, i)) for i in range(n)]
    l_flats = [op.matrix.flatten() for op in lmats]
    lbr = {(i, j): supercommutator(lmats[i], lmats[j])
           for i in range(n) for j in range(n)}
    gens = GeneratedSpan(
        l_flats + [lbr[i, j].matrix.flatten() for i in range(n) for j in range(n)],
        n * n)
    istr_ops = operators(istr)
    images, pending = [], []
    for tag in kan.origin:
        vec = [Q(0)] * ko.dim
        if tag[0] == "vminus":
            vec[off_minus + tag[1]] = Q(1)
        elif tag[0] == "op0":
            w = istr_ops[tag[1]]
            coeffs = gens.express(w.matrix.flatten())
            certify(coeffs is not None, "istr basis element outside the L span")
            acc_plus, acc_minus = Matrix.zero(n, n), Matrix.zero(n, n)
            for idx, c in enumerate(coeffs):
                if not c:
                    continue
                if idx < n:
                    dp, dm = dxe_pair(basis_vector(V, idx))
                    acc_plus = acc_plus - dp.scale(c * Q(1, 2))
                    acc_minus = acc_minus - dm.scale(c * Q(1, 2))
                else:
                    b = lbr[divmod(idx - n, n)].matrix.scale(c)
                    acc_plus, acc_minus = acc_plus + b, acc_minus + b
            pending.append((len(images), acc_plus, acc_minus, w.parity))
        elif tag[0] == "kantorP":
            for l, c in enumerate(unit):
                vec[l] = -c * Q(1, 2)
        else:  # kantorLP a
            vec[tag[1]] = Q(1, 2)
        images.append(vec)
    out["kantor_equals_koecher"] = fill_mid(images, pending)

    # Tits with Inn vs Koecher: e(x)a -> a+, f(x)a -> a-, h(x)a -> D_{a,e},
    # inner derivation W -> (W, W)
    ti = tkk.tits(V, "inn")
    dsp = ti.data["dspace"]
    dsp_ops = operators(dsp)
    images, pending = [], []
    for tag in ti.origin:
        vec = [Q(0)] * ko.dim
        if tag[0] == "e":
            vec[tag[1]] = Q(1)
        elif tag[0] == "f":
            vec[off_minus + tag[1]] = Q(1)
        elif tag[0] == "h":
            pending.append((len(images), *dxe_pair(basis_vector(V, tag[1])), V.parity(tag[1])))
        else:
            w = dsp_ops[tag[1]]
            pending.append((len(images), w.matrix, w.matrix, w.parity))
        images.append(vec)
    out["tits_inn_equals_koecher"] = fill_mid(images, pending)
    return out


def l_witness(V: SuperAlgebra, flat_op):
    """Recover x with L_x proportional to the given flattened operator."""
    columns = [l_op(V, basis_vector(V, i)).matrix.flatten() for i in range(V.dim)]
    x = solve(Matrix.from_columns(columns), flat_op)
    certify(x is not None, "operator claimed to be a left multiplication is not")
    lead = next((c for c in x if c), None)
    return tuple(c / lead for c in x) if lead else x


def _image_parity(dst: SuperAlgebra, vec):
    par = None
    for l, c in enumerate(vec):
        if c:
            if par is None:
                par = dst.parity(l)
            elif par != dst.parity(l):
                return -1  # mixed parity never matches
    return par


def check_bracket_map(src: SuperAlgebra, dst: SuperAlgebra, images: list,
                       name: str) -> CheckResult:
    """Verify that basis -> images extends to an isomorphism src -> dst."""
    if src.dim != dst.dim:
        return CheckResult(name, False,
                           f"dimension mismatch {src.dim} vs {dst.dim}")
    m = Matrix.from_columns(images)
    if span(images, ambient=dst.dim).dim != src.dim:
        return CheckResult(name, False, "images are linearly dependent")
    for i in range(src.dim):
        par = _image_parity(dst, images[i])
        if par is not None and par != src.parity(i):
            return CheckResult(name, False, f"parity broken at basis {i}")
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = m.apply(src.product(basis_vector(src, i), basis_vector(src, j)))
            rhs = dst.product(images[i], images[j])
            if lhs != rhs:
                return CheckResult(
                    name, False, f"bracket mismatch at basis pair ({i},{j})")
    return CheckResult(name, True, "linear bijection matching all brackets")


def pair_der_matches_der0(v) -> CheckResult:
    """Pair derivations are exactly the shift-0 derivations of Ko(V+,V-).

    The embedding acts as D+ / D- on the tips and by bracket on the middle;
    it is verified to land in Der(Ko)_0, to fill it, and to match brackets.
    """
    ko = koecher(v, middle="inn")
    g = ko.lie
    mid = ko.data["middle"]
    dp, dm = ko.data["pair"].shape
    nm = mid.dim
    mid_ops = operators(mid)
    pd = pair_der(v)
    pd_ops = operators(pd)
    der0 = {p: derivation_kernel(g, p, 0) for p in (0, 1)}

    def embed(d_plus, d_minus, par):
        entries = {}
        for r in range(dp):
            for c in range(dp):
                if d_plus[r, c]:
                    entries[r, c] = d_plus[r, c]
        for r in range(dm):
            for c in range(dm):
                if d_minus[r, c]:
                    entries[dp + nm + r, dp + nm + c] = d_minus[r, c]
        for t, (w_plus, w_minus, wpar) in enumerate(mid_ops):
            sg = Q(-1) if (par * wpar) % 2 else Q(1)
            br_plus = d_plus @ w_plus - (w_plus @ d_plus).scale(sg)
            br_minus = d_minus @ w_minus - (w_minus @ d_minus).scale(sg)
            coords = op_coords(mid, br_plus.flatten() + br_minus.flatten(),
                                (par + wpar) % 2)
            for l, c in enumerate(coords):
                if c:
                    entries[dp + l, dp + t] = c
        return Matrix.from_entries(g.dim, g.dim, entries)

    embedded = []
    for d_plus, d_minus, par in pd_ops:
        m = embed(d_plus, d_minus, par)
        if not contains(der0[par], m.flatten()):
            return CheckResult("pair_der_equals_der0", False,
                               "embedded pair derivation is not a derivation of Ko")
        embedded.append((m, par))
    dims = (der0[0].dim, der0[1].dim)
    if dims != pd.dims():
        return CheckResult("pair_der_equals_der0", False,
                           f"Der(Ko)_0 dims {dims} vs pair_der {pd.dims()}")
    if span([m.flatten() for m, _ in embedded], ambient=g.dim ** 2).dim != pd.dim:
        return CheckResult("pair_der_equals_der0", False,
                           "embedded derivations are dependent")
    # bracket match: embed([D,D']) = [embed D, embed D']
    for a, (ma, pa) in enumerate(embedded):
        da_plus, da_minus, _ = pd_ops[a]
        for b, (mb, pb) in enumerate(embedded):
            db_plus, db_minus, _ = pd_ops[b]
            sg = Q(-1) if (pa * pb) % 2 else Q(1)
            br = embed(da_plus @ db_plus - (db_plus @ da_plus).scale(sg),
                       da_minus @ db_minus - (db_minus @ da_minus).scale(sg),
                       (pa + pb) % 2)
            if br != ma @ mb - (mb @ ma).scale(sg):
                return CheckResult("pair_der_equals_der0", False,
                                   f"bracket mismatch at embedded pair ({a},{b})")
    return CheckResult("pair_der_equals_der0", True,
                       "Der(V+,V-) fills Der(Ko)_0 and matches brackets")



# ---------------------------------------------------------------------------
# J functor


def j_functor(g: SuperAlgebra, check: bool = True) -> JordanPair:
    """The superpair (g_{+1}, g_{-1}) with {x,y,z} = [[x,y],z]."""
    if g.zdegrees is None:
        raise ValueError("j_functor needs a Z-graded Lie superalgebra")
    if not set(g.zdegrees) <= {-1, 0, 1}:
        raise ValueError("j_functor expects a 3-graded algebra")
    blocks = {1: [i for i in range(g.dim) if g.zdegree(i) == 1],
              -1: [i for i in range(g.dim) if g.zdegree(i) == -1]}
    tables = []
    for ssign in (1, -1):
        same, other = blocks[ssign], blocks[-ssign]
        posmap = {b: idx for idx, b in enumerate(same)}
        table = {}
        for i, bi in enumerate(same):
            for j, bj in enumerate(other):
                inner = g.product(basis_vector(g, bi), basis_vector(g, bj))
                for k, bk in enumerate(same):
                    out = g.product(inner, basis_vector(g, bk))
                    entry = {}
                    for l, c in enumerate(out):
                        if c:
                            certify(l in posmap, "triple left the graded block")
                            entry[posmap[l]] = c
                    if entry:
                        table[i, j, k] = entry
        tables.append(table)
    parities = (tuple(g.parity(i) for i in blocks[1]),
                tuple(g.parity(i) for i in blocks[-1]))
    dp, dm = len(blocks[1]), len(blocks[-1])
    pair = JordanPair(f"J({g.name})", parities,
                      *oracle_tables.encode(tables, [(dp, dm, dp, dp), (dm, dp, dm, dm)]))
    if check:
        witness = check_pair_axioms(pair)
        certify(witness is None, f"superpair axioms fail: {witness}")
    return pair


def is_jordan_graded(g: SuperAlgebra) -> CheckResult:
    """3-graded with [g+, g-] = g0 and g0 meeting the center trivially."""
    if g.zdegrees is None or not set(g.zdegrees) <= {-1, 0, 1}:
        return CheckResult("jordan_graded", False, "not 3-graded")
    plus = [i for i in range(g.dim) if g.zdegree(i) == 1]
    minus = [i for i in range(g.dim) if g.zdegree(i) == -1]
    zero = [i for i in range(g.dim) if g.zdegree(i) == 0]
    brackets = [g.product(basis_vector(g, i), basis_vector(g, j))
                for i in plus for j in minus]
    spanned = span(brackets, ambient=g.dim)
    g0 = span([basis_vector(g, i) for i in zero], ambient=g.dim)
    if not (contains_space(spanned, g0) and contains_space(g0, spanned)):
        return CheckResult("jordan_graded", False,
                           f"[g+, g-] has dim {spanned.dim}, g0 has dim {g0.dim}")
    meet = center(g).intersect(g0)
    if meet.dim:
        return CheckResult("jordan_graded", False,
                           f"center meets g0 in dim {meet.dim}")
    return CheckResult("jordan_graded", True, "[g+,g-] = g0 and g0 meets Z(g) in 0")


def koecher_inverse_check(g: SuperAlgebra) -> list:
    """Rebuild g as Ko(J(g)) and exhibit the isomorphism explicitly, each
    middle image a Fraction sum of brackets [x, u]_g."""
    results = [is_jordan_graded(g)]
    if not results[0].passed:
        return results
    pair = j_functor(g)
    ko2 = tkk.koecher(pair, middle="inn")
    plus = [i for i in range(g.dim) if g.zdegree(i) == 1]
    minus = [i for i in range(g.dim) if g.zdegree(i) == -1]
    dp, dm = pair.shape
    ds = pair_d_stack(pair)
    gen_pairs = [(i, j) for i in range(dp) for j in range(dm)]
    gens = GeneratedSpan([[Q(x, ds.den) if x else ZERO for x in row]
                          for row in ds.flats().tolist()], dp * dp + dm * dm)
    mid = ko2.data["middle"]
    mid_flats = mid.even.basis + mid.odd.basis
    images = []
    for tag in ko2.origin:
        if tag[0] == "vplus":
            images.append(basis_vector(g, plus[tag[1]]))
        elif tag[0] == "vminus":
            images.append(basis_vector(g, minus[tag[1]]))
        else:
            coeffs = gens.express(mid_flats[tag[1]])
            certify(coeffs is not None, "middle element outside the D span")
            vec = [Q(0)] * g.dim
            for c, (i, j) in zip(coeffs, gen_pairs):
                if c:
                    br = g.product(basis_vector(g, plus[i]),
                                   basis_vector(g, minus[j]))
                    vec = [a + c * b for a, b in zip(vec, br)]
            images.append(tuple(vec))
    results.append(tkk._check_bracket_map(ko2.lie, g, *map_matrix(images), "ko_of_j_iso"))
    return results


def koecher_ideal_check(v) -> CheckResult:
    """Ko(V+,V-) embeds in Ko~(V+,V-) as an ideal, one bracket and one
    containment test at a time."""
    kot = tkk.koecher_tilde(v)
    g = kot.lie
    mid = kot.data["middle"]
    dp, dm = kot.data["pair"].shape
    nm = mid.dim
    sub = []
    for i in range(dp):
        sub.append(tuple(Q(1) if r == i else Q(0) for r in range(g.dim)))
    ops = tkk.pair_inn(v).stack
    rows = decode(mid.coordinates(ops), ops.den)
    for b in range(len(ops)):
        vec = [Q(0)] * g.dim
        for l, c in rows.get((b,), {}).items():
            vec[dp + l] = c
        sub.append(tuple(vec))
    for u in range(dm):
        sub.append(tuple(Q(1) if r == dp + nm + u else Q(0)
                         for r in range(g.dim)))
    s = span(sub, ambient=g.dim)
    ok = all(contains(s, g.product(basis_vector(g, b), vec))
             for b in range(g.dim) for vec in s.basis)
    return CheckResult("ko_ideal_in_kotilde", ok,
                       "Ko(V,V) is an ideal in Ko~(V,V)" if ok
                       else "bracket leaves the embedded Ko(V,V)")


# ---------------------------------------------------------------------------
# derivation towers


def lie_der_tower(g: SuperAlgebra) -> dict:
    """Der, Inn and Out of a graded Lie superalgebra, per (degree shift, parity)."""
    n = g.dim
    tower = {}
    for (shift, parity), (cols, rows) in leibniz_blocks(g).items():
        cols = [divmod(c, n) for c in cols.tolist()]  # flat indices r n + c as (r, c)
        m = len(cols)
        der = oracle_linalg.integer_kernel(rows.dicts(), m)
        ad = [{(k, c): x for c in range(n) for k, x in g.basis_product(i, c).items()}
              for i in range(n) if (g.zdegree(i), g.parity(i)) == (shift, parity)]
        ad_rows = [[e.get(rc, ZERO) for rc in cols] for e in ad]
        certify(Subspace(m, der + ad_rows).dim == len(der),
                f"adjoint operators must be derivations (shift {shift})")
        inn = Subspace(m, ad_rows).dim
        if der or inn:
            tower[shift, parity] = {"der": len(der), "inn": inn, "out": len(der) - inn}
    return tower


def checked_lie_der_tower(g: SuperAlgebra) -> dict:
    """`tkk.lie_der_tower(g)`, its Der blocks of each parity certified to add
    up to the dimension of the ungraded derivation kernel."""
    tower = tkk.lie_der_tower(g)
    for parity in (0, 1):
        total = sum(b["der"] for (s, p), b in tower.items() if p == parity)
        full = derivation_kernel(g, parity).dim
        certify(total == full, f"graded Der blocks sum to {total}, full kernel has {full}")
    return tower


def ad_rows(g: SuperAlgebra, shift: int, parity: int, cols, xs=None) -> list:
    """The ad_x of the x of degree shift and parity (among xs, if given) as
    primitive integer rows over the positions of the block's columns cols,
    one per x (empty for a central x): the former loop of
    `tkk.lie_der_tower`."""
    n = g.dim
    pos = {rc: idx for idx, rc in enumerate(cols)}
    return [row_primitive({pos[k, c]: x for c in range(n)
                           for k, x in g.basis_product(i, c).items()})
            for i in range(n) if (g.zdegree(i), g.parity(i)) == (shift, parity)
            and (xs is None or i in xs)]


def torus_weights(g: SuperAlgebra) -> list:
    """The weight of each basis vector under the diagonal torus of g, a tuple
    over the torus, read off the rational table by loops: the torus is the
    even h whose products [e_h, e_j] are multiples of e_j, not all zero, and
    the weight of e_j is the d [e_h, e_j]_j over h."""
    n = g.dim
    rows = [[g.basis_product(h, j) for j in range(n)] for h in range(n)]
    torus = [h for h in range(n) if g.parity(h) == 0 and any(rows[h])
             and all(set(row) <= {j} for j, row in enumerate(rows[h]))]
    return [tuple(int(rows[h][j].get(j, 0) * g.d) for h in torus) for j in range(n)]
