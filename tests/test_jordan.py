"""Jordan operators and identities against hand-computed small examples.

L_x is read off `structure.l_stack` and D_{x,y}, U_{x,y} off
`tensor.triple_tensor`, the integer forms the package computes with.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_linalg as oracle
from oracle_linalg import basis_vector, triple
from supertkk import tensor
from oracle_linalg import Matrix
from supertkk.exact import Q
from supertkk.jordan import (
    check_commutator_identity, check_five_linear, check_jordan_identity,
    check_triple_symmetry, find_unit,
)
from supertkk.structure import l_stack
from supertkk.superspace import make_algebra
from supertkk.catalog import jordan_catalog

SETTINGS = dict(max_examples=30, deadline=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(Q)


def vecs(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def diag(*entries):
    n = len(entries)
    return Matrix.from_entries(n, n, {(i, i): e for i, e in enumerate(entries)})


def contract(A, den, *vecs):
    """A contracted with the coordinate vectors over its leading indices,
    divided by den, as exact rationals."""
    out = A.astype(object)
    for v in vecs:
        out = np.tensordot(np.array([Q(c) for c in v], dtype=object), out, axes=1)
    return out * Q(1, den)


def l_matrix(V, x):
    """L_x, read off l_stack: den L_{e_i}[r, c] = blocks[0][i, r, c]."""
    ls = l_stack(V)
    return Matrix(contract(ls.blocks[0], ls.den, x).tolist())


def d_matrix(V, x, y):
    """D_{x,y}, read off the triple tensor: d**2 D_{e_i,e_j}[r, c] = T[i, j, c, r]."""
    T, d = tensor.triple_tensor(V)
    return Matrix(contract(T, d * d, x, y).T.tolist())


def stack_matrix(ops, t):
    """Operator t of an OperatorStack (one block) as a rational Matrix."""
    return Matrix(contract(ops.blocks[0][t], ops.den).tolist())


def test_l_op_on_j19():
    V = jordan_catalog("j19")
    assert l_matrix(V, (1, 0, 0)) == diag(1, Q(1, 2), 0)
    assert l_matrix(V, (0, 0, 1)) == Matrix.zero(3, 3)  # e3 multiplies everything to 0
    assert l_stack(V).parities[0] == 0


def test_l_commutator_on_j19_lands_in_inner():
    V = jordan_catalog("j19")
    ls = l_stack(V)
    # [L_e1, L_e2] = -L_e2 / 2, so L_e2 is an inner derivation
    assert stack_matrix(ls.bracket(), 1) == l_matrix(V, (0, Q(-1, 2), 0))


def test_d_op_oracles_on_j19():
    V = jordan_catalog("j19")
    e1, e2 = (1, 0, 0), (0, 1, 0)
    assert d_matrix(V, e1, e2) == Matrix.zero(3, 3)
    assert d_matrix(V, e2, e1) == l_matrix(V, (0, 2, 0))


def test_operator_oracles_on_kac_k():
    V = jordan_catalog("kacK")
    a, x1, x2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert l_matrix(V, a) == diag(1, Q(1, 2), Q(1, 2))
    # L_xi1: a -> xi1/2, xi1 -> 0, xi2 -> a; columns are images of basis vectors
    assert l_matrix(V, x1) == Matrix([[0, 0, 1], [Q(1, 2), 0, 0], [0, 0, 0]])
    ls = l_stack(V)
    # odd-odd commutator carries a plus sign: [L_x1, L_x2] = L1 L2 + L2 L1
    assert stack_matrix(ls.bracket(ls), 1 * 3 + 2) == diag(0, Q(-1, 2), Q(1, 2))
    D = d_matrix(V, x1, x2)
    assert D == diag(2, 0, 2)
    p = V.parities  # D_{x1,x2} is even: no entry between opposite parities
    assert not any(D[r, c] for r in range(3) for c in range(3) if (p[r] + p[c]) % 2)


def test_unital_triple_identities():
    for name in ("full_matrix(1,1)", "dt(2)"):
        V = jordan_catalog(name.split("(")[0], *_params(name))
        e = find_unit(V)
        for i in range(V.dim):
            x = basis_vector(V, i)
            lhs = triple(V, x, e, x)
            assert lhs == tuple(2 * t for t in V.product(x, x)), name
            assert triple(V, e, x, e) == tuple(2 * t for t in x), name


def _params(name):
    inner = name.split("(")[1].rstrip(")")
    return tuple(Q(tok) if "/" in tok else int(tok) for tok in inner.split(","))


@given(vecs(3), vecs(3), vecs(3))
@settings(**SETTINGS)
def test_d_op_matches_triple_on_kac_k(x, y, z):
    V = jordan_catalog("kacK")
    T, d = tensor.triple_tensor(V)
    assert tuple(contract(T, d * d, x, y, z)) == triple(V, x, y, z)
    assert d_matrix(V, x, y) == oracle.d_op(V, x, y).matrix


@given(vecs(4), vecs(4))
@settings(**SETTINGS)
def test_u_op_against_triple_on_dt(x, y):
    V = jordan_catalog("dt", 2)
    # U_{x,y}(e_k) = (-1)^{|y||e_k|} {x, e_k, y}, checked per parity of y,
    # against U read off the triple tensor as str_w reads it
    T, d = tensor.triple_tensor(V)
    p = np.array(V.parities)
    sign = 1 - 2 * (np.outer(p, p) % 2)  # (-1)^{|e_j||e_k|}
    # [i, j, k, l] = (-1)^{|e_j||e_k|} d**2 {e_i, e_k, e_j}_l
    U = contract(T.transpose(0, 2, 1, 3) * sign[None, :, :, None], d * d, x, y)
    y_even = (y[0], y[1], Q(0), Q(0))
    y_odd = (Q(0), Q(0), y[2], y[3])
    for k in range(V.dim):
        z = basis_vector(V, k)
        expected = triple(V, x, z, y_even)
        sgn = Q(-1) if V.parity(k) else Q(1)
        expected = tuple(a + sgn * b for a, b in
                         zip(expected, triple(V, x, z, y_odd)))
        assert tuple(U[k]) == expected
        assert oracle.u_op(V, x, y).apply(z) == expected


def test_d_op_of_unit_doubles_l_op():
    V = jordan_catalog("form", 2, 2)
    e = find_unit(V)
    for i in range(V.dim):
        x = basis_vector(V, i)
        assert d_matrix(V, x, e) == l_matrix(V, tuple(2 * c for c in x))


def test_identity_suite_catches_a_mutated_table():
    # j19 with e2*e2 = e1 substituted is no longer Jordan
    products = [(0, 0, 0, 1), (0, 1, 1, Q(1, 2)), (1, 0, 1, Q(1, 2)),
                (1, 1, 0, 1)]
    bad = make_algebra([0, 0, 0], products, kind="jordan")
    w = check_jordan_identity(bad)
    assert w is not None and "Jordan identity" in str(w)
    assert check_commutator_identity(bad) is not None
    # a table that is not supercommutative fails before the Jordan identity
    w = check_jordan_identity(_non_jordan())
    assert w is not None and "supercommutativity" in str(w)


def test_five_linear_catches_a_broken_odd_sign():
    # xi2 xi1 = +a instead of -a: the mutated table is no longer
    # supercommutative and the five-linear consequence fails too: form 1
    # first at (0,1,1,2); form 2's earlier failure at (0,0,1,2) is form 1's
    # at (1,2,0,0)
    products = [(0, 0, 0, 1), (0, 1, 1, Q(1, 2)), (1, 0, 1, Q(1, 2)),
                (0, 2, 2, Q(1, 2)), (2, 0, 2, Q(1, 2)),
                (1, 2, 0, 1), (2, 1, 0, 1)]
    bad = make_algebra([0, 1, 1], products, check=False)
    w = check_five_linear(bad)
    assert w is not None and w.indices == (0, 1, 1, 2)
    assert str(w) == "5-linear identity fails at (0,1,1,2)"


def test_find_unit_outcomes():
    assert find_unit(jordan_catalog("j19")) is None
    assert find_unit(jordan_catalog("kacK")) is None
    assert find_unit(jordan_catalog("trunc_poly", 5)) is None
    unit = find_unit(jordan_catalog("full_matrix", 1, 1))
    assert unit == (Q(1), Q(0), Q(0), Q(1))  # the identity matrix
    assert find_unit(jordan_catalog("dt", Q(1, 2))) == (Q(1), Q(1), Q(0), Q(0))


def test_find_unit_rejects_non_unique_left_units():
    # x*x = x, x*y = y, y*x = x, y*y = y: every ax+by with a+b = 1 is a left
    # unit, so the solver must refuse rather than pick one
    products = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1)]
    a = make_algebra([0, 0], products, kind="plain")
    with pytest.raises(ValueError, match="not unique"):
        find_unit(a)


def _non_jordan():
    # anticommutative table, so the supercommutativity precheck trips
    return make_algebra([0, 0], [(0, 1, 0, 1), (1, 0, 0, -1)], check=False)


@given(vecs(3), vecs(3), vecs(3))
@settings(**SETTINGS)
def test_triple_symmetry_numerically_on_kac_k(x, y, z):
    V = jordan_catalog("kacK")
    assert check_triple_symmetry(V) is None
    # outer symmetry for homogeneous arguments: split x, z by parity
    for xp, px in _parts(x):
        for zp, pz in _parts(z):
            for yp, py in _parts(y):
                sgn = Q(-1) if (px * py + py * pz + px * pz) % 2 else Q(1)
                lhs = triple(V, xp, yp, zp)
                rhs = tuple(sgn * t for t in triple(V, zp, yp, xp))
                assert lhs == rhs


def _parts(v):
    return (((v[0], Q(0), Q(0)), 0), ((Q(0), v[1], v[2]), 1))
