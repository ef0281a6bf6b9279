"""Loop reference implementations of the identity checks (test-only oracle).

These are the basis-loop checkers that supertkk used before its exact tensor
layer (supertkk.tensor), kept verbatim as the slow reference: the
differential tests require the tensor checkers to return the same verdicts
and witnesses.  The two graded-symmetry loops are the references for the
table-key scan in superspace, `center` and `derived` the former Fraction
builders of superspace (a `kernel_sparse` over rows read off
`basis_product`, and a span of the table rows deduplicated by
`row_primitive`), the references for the ones on the integer table, and
d_op is the former operator-formula D_{x,y}, the reference for the D
operators read off tensor.triple_tensor (and for the Fraction-triple d_op
of oracle_linalg).  The dense operators
(Matrix, l_op, supercommutator) and the Fraction triple come from
oracle_linalg.
The tkk section holds the former Fraction loops of the g_0 action on
Hom(V (x) V, V) and of kantor_relations, the references for
tensor.g0_action, tensor.lp_tensor and tensor.kantor_relation_verdicts.
"""

from __future__ import annotations

from oracle_linalg import (GradedOperator, Matrix, _parity_parts, basis_vector, l_op,
                           left_mult_matrix, operator_parity, parity_sign, supercommutator,
                           triple)
from supertkk.exact import Q, Subspace, ZERO, kernel_sparse, row_primitive
from supertkk.jordan import find_unit
from supertkk.structure import CheckResult, JordanPair
from supertkk.superspace import SuperAlgebra, Witness

_sign = _sgn = parity_sign  # the names the checkers used in their modules


# ---------------------------------------------------------------------------
# superspace


def check_supercommutative(a: SuperAlgebra) -> Witness | None:
    """x*y = (-1)^{|x||y|} y*x on homogeneous basis pairs; None iff it holds."""
    for i in range(a.dim):
        for j in range(i + 1):
            s = _sign(a.parity(i) * a.parity(j))
            left = a.basis_product(i, j)
            right = a.basis_product(j, i)
            for k in set(left) | set(right):
                if left.get(k, ZERO) != s * right.get(k, ZERO):
                    return Witness((i, j), f"supercommutativity fails at pair ({i},{j})")
    return None


def check_superanticommutative(a: SuperAlgebra) -> Witness | None:
    """[x,y] = -(-1)^{|x||y|}[y,x] on homogeneous basis pairs."""
    for i in range(a.dim):
        for j in range(i + 1):
            s = -_sign(a.parity(i) * a.parity(j))
            left = a.basis_product(i, j)
            right = a.basis_product(j, i)
            for k in set(left) | set(right):
                if left.get(k, ZERO) != s * right.get(k, ZERO):
                    return Witness((i, j), f"super-anticommutativity fails at pair ({i},{j})")
    return None


def _bracket_with_dict(a: SuperAlgebra, i: int, w: dict) -> dict:
    out: dict = {}
    for m, c in w.items():
        for k, v in a.basis_product(i, m).items():
            out[k] = out.get(k, ZERO) + c * v
    return {k: v for k, v in out.items() if v}


def check_super_jacobi(a: SuperAlgebra) -> Witness | None:
    """Graded Jacobi identity on homogeneous basis triples.

    Requires super-anticommutativity (checked first); given it, the Jacobi
    expression is permutation-covariant up to a nonzero sign, so scanning
    unordered triples i <= j <= k is complete.
    """
    w = check_superanticommutative(a)
    if w is not None:
        return w
    p = a.parities
    for i in range(a.dim):
        for j in range(i, a.dim):
            for k in range(j, a.dim):
                acc: dict = {}
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    s = _sign(p[x] * p[z])
                    inner = a.basis_product(y, z)
                    for m, c in _bracket_with_dict(a, x, inner).items():
                        acc[m] = acc.get(m, ZERO) + s * c
                if any(acc.values()):
                    return Witness((i, j, k),
                                   f"super-Jacobi fails at basis triple ({i},{j},{k})")
    return None


def center(a: SuperAlgebra) -> Subspace:
    """{x : x*y = 0 for all y} as a subspace of the underlying space."""
    rows = []
    for i in range(a.dim):
        cells: dict = {}
        for j in range(a.dim):
            for k, c in a.basis_product(j, i).items():
                cells.setdefault(k, {})[j] = c
        rows.extend(cells.values())
    return Subspace(a.dim, kernel_sparse(rows, a.dim))


def derived(a: SuperAlgebra) -> Subspace:
    """Span of all products of basis elements."""
    vecs = []
    seen = set()  # the table repeats many proportional rows; dedupe first
    for entry in a.table.values():
        key = row_primitive(entry)
        sig = tuple(sorted(key.items()))
        if not sig or sig in seen:
            continue
        seen.add(sig)
        v = [ZERO] * a.dim
        for k, c in entry.items():
            v[k] = c
        vecs.append(tuple(v))
    return Subspace(a.dim, vecs)


# ---------------------------------------------------------------------------
# jordan


def _commutator(A: Matrix, B: Matrix, sign) -> Matrix:
    return A @ B - (B @ A).scale(sign)


def d_op(V: SuperAlgebra, x, y) -> GradedOperator:
    """D_{x,y} = 2L_{xy} + 2[L_x,L_y]; applied to z it gives {x,y,z}."""
    n = V.dim
    acc = Matrix.zero(n, n)
    for px, xp in _parity_parts(V, x):
        for py, yp in _parity_parts(V, y):
            lx = left_mult_matrix(V, xp)
            ly = left_mult_matrix(V, yp)
            lxy = left_mult_matrix(V, V.product(xp, yp))
            acc = acc + (lxy + _commutator(lx, ly, _sgn(px * py))).scale(Q(2))
    return GradedOperator(acc, operator_parity(V, acc), algebra=V)


def _l_matrices(V: SuperAlgebra):
    return [left_mult_matrix(V, basis_vector(V, i)) for i in range(V.dim)]


def _combine(mats, coords) -> Matrix:
    n = mats[0].rows
    acc = [[ZERO] * n for _ in range(n)]
    for m, c in zip(mats, coords):
        if c:
            for r in range(n):
                row = m.data[r]
                arow = acc[r]
                for j in range(n):
                    if row[j]:
                        arow[j] += c * row[j]
    return Matrix(acc)


def check_jordan_identity(V: SuperAlgebra) -> Witness | None:
    """(-1)^{|x||z|}[L_x,L_{yz}] + (-1)^{|y||x|}[L_y,L_{zx}] + (-1)^{|z||y|}[L_z,L_{xy}] = 0
    on homogeneous basis triples (super-commutators of operators)."""
    w = check_supercommutative(V)
    if w is not None:
        return w
    L = _l_matrices(V)
    p = V.parities
    n = V.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc = Matrix.zero(n, n)
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    prod = V.basis_product(y, z)
                    if not prod:
                        continue
                    lyz = _combine(L, [prod.get(m, ZERO) for m in range(n)])
                    term = _commutator(L[x], lyz, _sgn(p[x] * (p[y] + p[z])))
                    acc = acc + term.scale(_sgn(p[x] * p[z]))
                if not acc.is_zero():
                    return Witness((i, j, k),
                                   f"Jordan identity fails at basis triple ({i},{j},{k})")
    return None


def check_commutator_identity(V: SuperAlgebra) -> Witness | None:
    """[[L_x,L_y],L_z] = L_{x(yz)} - (-1)^{|x||y|} L_{y(xz)} on basis triples."""
    L = _l_matrices(V)
    p = V.parities
    n = V.dim
    e = [basis_vector(V, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lij = _commutator(L[i], L[j], _sgn(p[i] * p[j]))
            for k in range(n):
                lhs = _commutator(lij, L[k], _sgn((p[i] + p[j]) * p[k]))
                rhs = (left_mult_matrix(V, V.product(e[i], V.product(e[j], e[k])))
                       - left_mult_matrix(
                           V, V.product(e[j], V.product(e[i], e[k]))).scale(_sgn(p[i] * p[j])))
                if lhs != rhs:
                    return Witness((i, j, k),
                                   f"operator identity fails at basis triple ({i},{j},{k})")
    return None


def check_triple_symmetry(V: SuperAlgebra) -> Witness | None:
    """{x,y,z} = (-1)^{|x||y|+|y||z|+|x||z|} {z,y,x} on basis triples."""
    p = V.parities
    n = V.dim
    e = [basis_vector(V, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = _sgn(p[i] * p[j] + p[j] * p[k] + p[i] * p[k])
                lhs = triple(V, e[i], e[j], e[k])
                rhs = triple(V, e[k], e[j], e[i])
                if lhs != tuple(s * t for t in rhs):
                    return Witness((i, j, k),
                                   f"triple symmetry fails at ({i},{j},{k})")
    return None


def check_five_linear(V: SuperAlgebra) -> Witness | None:
    """The operator form of the 5-linear identity, in both of its shapes:

    [D_{x,y}, D_{u,v}] = D_{{x,y,u},v} - (-1)^{(|x|+|y|)(|u|+|v|)} D_{u,{v,x,y}}
                       = D_{x,{y,u,v}} - (-1)^{(|x|+|y|)(|u|+|v|)} D_{{u,v,x},y}

    over all homogeneous basis 4-tuples.
    """
    n = V.dim
    p = V.parities
    e = [basis_vector(V, i) for i in range(n)]
    D = [[d_op(V, e[i], e[j]).matrix for j in range(n)] for i in range(n)]

    def d_vec_right(i, w):  # D_{e_i, w} for a coordinate vector w
        return _combine(D[i], w)

    def d_vec_left(w, j):
        return _combine([D[i][j] for i in range(n)], w)

    for i in range(n):
        for j in range(n):
            pij = (p[i] + p[j]) % 2
            for u in range(n):
                for v in range(n):
                    s = _sgn(pij * ((p[u] + p[v]) % 2))
                    lhs = _commutator(D[i][j], D[u][v], s)
                    rhs1 = (d_vec_left(triple(V, e[i], e[j], e[u]), v)
                            - d_vec_right(u, triple(V, e[v], e[i], e[j])).scale(s))
                    if lhs != rhs1:
                        return Witness((i, j, u, v),
                                       f"5-linear identity (form 1) fails at ({i},{j},{u},{v})")
                    rhs2 = (d_vec_right(i, triple(V, e[j], e[u], e[v]))
                            - d_vec_left(triple(V, e[u], e[v], e[i]), j).scale(s))
                    if lhs != rhs2:
                        return Witness((i, j, u, v),
                                       f"5-linear identity (form 2) fails at ({i},{j},{u},{v})")
    return None


# ---------------------------------------------------------------------------
# structure


def check_pair_axioms(pair: JordanPair) -> Witness | None:
    """Outer symmetry and the 5-linear identity on all homogeneous basis tuples."""
    for sigma in (0, 1):
        other = 1 - sigma
        dp, dm = pair.dim(sigma), pair.dim(other)

        def combo(pos, a, b, vec):
            # triple with vec substituted at slot pos, the rest basis elements
            out: dict = {}
            for l, c in vec.items():
                args = ((l, a, b), (a, l, b), (a, b, l))[pos]
                for k, w in pair.basis_triple(sigma, *args).items():
                    out[k] = out.get(k, Q(0)) + c * w
            return out

        for i in range(dp):
            pi = pair.parity(sigma, i)
            for j in range(dm):
                pj = pair.parity(other, j)
                for k in range(dp):
                    lhs = pair.basis_triple(sigma, i, j, k)
                    pk = pair.parity(sigma, k)
                    s = Q(-1) if (pi * pj + pj * pk + pk * pi) % 2 else Q(1)
                    rhs = {l: s * c for l, c
                           in pair.basis_triple(sigma, k, j, i).items()}
                    if lhs != rhs:
                        return Witness((sigma, i, j, k),
                                       f"outer symmetry fails at {(sigma, i, j, k)}")
        for i in range(dp):
            for j in range(dm):
                sxy = pair.parity(sigma, i) + pair.parity(other, j)
                for u in range(dp):
                    for v in range(dm):
                        suv = pair.parity(sigma, u) + pair.parity(other, v)
                        sg = Q(-1) if (sxy * suv) % 2 else Q(1)
                        for w in range(dp):
                            # {x,y,{u,v,w}} - {{x,y,u},v,w}
                            #   = sg * (-{u,{v,x,y},w} + {u,v,{x,y,w}})
                            total: dict = {}
                            for vec, f in (
                                    (combo(2, i, j, pair.basis_triple(sigma, u, v, w)), Q(1)),
                                    (combo(0, v, w, pair.basis_triple(sigma, i, j, u)), Q(-1)),
                                    (combo(1, u, w, pair.basis_triple(other, v, i, j)), sg),
                                    (combo(2, u, v, pair.basis_triple(sigma, i, j, w)), -sg)):
                                for l, c in vec.items():
                                    total[l] = total.get(l, Q(0)) + f * c
                            if any(total.values()):
                                return Witness(
                                    (sigma, i, j, u, v, w),
                                    f"5-linear identity fails at {(sigma, i, j, u, v, w)}")
    return None


# ---------------------------------------------------------------------------
# tkk


def _hom2_flat_p(V: SuperAlgebra) -> tuple:
    """P(x, y) = xy as a vector in Hom(V (x) V, V), flat index (l, i, j)."""
    n = V.dim
    flat = [Q(0)] * n ** 3
    for (i, j), vec in V.table.items():
        for l, c in vec.items():
            flat[l * n * n + i * n + j] = c
    return tuple(flat)


def _hom2_eval(V: SuperAlgebra, t_flat, i: int, j: int) -> tuple:
    n = V.dim
    return tuple(t_flat[l * n * n + i * n + j] for l in range(n))


def _g0_on_gplus(V: SuperAlgebra, a_mat: Matrix, a_par: int, t_flat, t_par: int):
    """[a, B](x,y) = a(B(x,y)) - (-1)^{|a||B|}B(ax,y) - (-1)^{|a||B|+|x||y|}B(ay,x)."""
    n = V.dim
    out = [Q(0)] * n ** 3
    s_ab = Q(-1) if (a_par * t_par) % 2 else Q(1)
    for i in range(n):
        for j in range(n):
            acc = list(a_mat.apply(_hom2_eval(V, t_flat, i, j)))
            for r in range(n):
                if a_mat[r, i]:
                    for l, c in enumerate(_hom2_eval(V, t_flat, r, j)):
                        acc[l] -= s_ab * a_mat[r, i] * c
            s_xy = s_ab if (V.parity(i) * V.parity(j)) % 2 == 0 else -s_ab
            for r in range(n):
                if a_mat[r, j]:
                    for l, c in enumerate(_hom2_eval(V, t_flat, r, i)):
                        acc[l] -= s_xy * a_mat[r, j] * c
            for l in range(n):
                out[l * n * n + i * n + j] = acc[l]
    return tuple(out)


def _gplus_on_gminus(V: SuperAlgebra, t_flat, x_index: int) -> Matrix:
    """[B, x] as the operator y -> B(x, y) in the middle."""
    n = V.dim
    return Matrix.from_entries(n, n, {
        (l, j): t_flat[l * n * n + x_index * n + j]
        for l in range(n) for j in range(n)
        if t_flat[l * n * n + x_index * n + j]})


def kantor_relations(V: SuperAlgebra) -> list:
    """The bracket relations that pin down the Kantor construction."""
    n = V.dim
    lmats = [l_op(V, basis_vector(V, i)) for i in range(n)]
    # KantorTop's P and [L_a, P], formed here so that no Kan(V) is built
    p_flat = _hom2_flat_p(V)
    lp = [_g0_on_gplus(V, la.matrix, la.parity, p_flat, 0) for la in lmats]
    zero3 = tuple([Q(0)] * n ** 3)

    def lp_of(vec):
        out = [Q(0)] * n ** 3
        for a, c in enumerate(vec):
            if c:
                out = [o + c * t for o, t in zip(out, lp[a])]
        return tuple(out)

    results = []
    ok = all(_gplus_on_gminus(V, p_flat, x) == lmats[x].matrix for x in range(n))
    results.append(CheckResult("kantor_p_bracket", ok, "[P, x] = L_x"))

    ok = True
    for a in range(n):
        for x in range(n):
            got = _gplus_on_gminus(V, lp[a], x)
            want = (supercommutator(lmats[a], lmats[x]).matrix
                    - l_op(V, V.product(basis_vector(V, a), basis_vector(V, x))).matrix)
            ok = ok and got == want
    results.append(CheckResult(
        "kantor_lp_bracket", ok, "[[L_a,P], x] = [L_a,L_x] - L_{ax}"))

    ok = True
    for a in range(n):
        for b in range(n):
            got = _g0_on_gplus(V, lmats[a].matrix, lmats[a].parity,
                               lp[b], V.parity(b))
            want = tuple(-c for c in lp_of(V.product(basis_vector(V, a),
                                                     basis_vector(V, b))))
            ok = ok and got == want
    results.append(CheckResult(
        "kantor_mid_action", ok, "[L_a, [L_b,P]] = -[L_{ab}, P]"))

    ok = True
    inner = {}
    for a in range(n):
        for b in range(n):
            br = supercommutator(lmats[a], lmats[b])
            inner[a, b] = br
            got = _g0_on_gplus(V, br.matrix, br.parity, p_flat, 0)
            ok = ok and got == zero3
    results.append(CheckResult("kantor_inner_kills_p", ok, "[[L_a,L_b], P] = 0"))

    ok = True
    for a in range(n):
        for b in range(n):
            br = inner[a, b]
            for c in range(n):
                got = _g0_on_gplus(V, br.matrix, br.parity, lp[c], V.parity(c))
                cb = V.product(basis_vector(V, c), basis_vector(V, b))
                w = [x - y for x, y in zip(
                    V.product(basis_vector(V, a), cb),
                    V.product(V.product(basis_vector(V, a), basis_vector(V, c)),
                              basis_vector(V, b)))]
                s = Q(-1) if (V.parity(b) * V.parity(c)) % 2 else Q(1)
                want = tuple(s * x for x in lp_of(w))
                ok = ok and got == want
    results.append(CheckResult(
        "kantor_weyl_relation", ok,
        "[[L_a,L_b], [L_c,P]] = (-1)^{|b||c|} [L_{a(cb) - (ac)b}, P]"))

    unit = find_unit(V)
    if unit is not None:
        ok = p_flat == tuple(-c for c in lp_of(unit))
        results.append(CheckResult("kantor_unital_p", ok, "P = -[L_e, P]"))
    return results
