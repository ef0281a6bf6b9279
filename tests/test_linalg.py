"""Exact linear algebra: kernels, solving, subspace lattice, canonical forms."""

import random

from hypothesis import given, settings, strategies as st

import oracle_linalg as oracle
from pyrun import run_python
from supertkk.exact import (
    Q, Matrix, SpanSolver, Subspace, grassmann_ok, kernel, kernel_sparse,
    rref, solve, span,
)

SETTINGS = dict(max_examples=60, deadline=None)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12).map(Q)


def vecs(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def test_scalar_contract():
    assert Q(1, 2) + Q(1, 2) == Q(1)
    assert Q("3/4") * Q(4) == Q(3)
    assert Q("-2/6") == Q(-1, 3)
    assert str(Q(-4, 6)) == "-2/3"  # reduced, denominator positive
    assert str(Q(5)) == "5"


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(2)).dim == 0
    full = kernel(Matrix.zero(3, 3))
    assert full.dim == 3 and full == Subspace.full(3)


def test_kernel_rank_one():
    # [[1,2],[2,4]] has kernel spanned by (2,-1); canonical form (1,-1/2)
    ker = kernel(Matrix([[1, 2], [2, 4]]))
    assert ker.dim == 1
    assert ker.basis == ((Q(1), Q(-1, 2)),)
    assert ker.contains((2, -1))


def test_solve_basic():
    assert solve(Matrix.identity(3), (1, 2, 3)) == (Q(1), Q(2), Q(3))
    x = solve(Matrix([[1, 1]]), (1,))
    assert x is not None and x[0] + x[1] == Q(1)
    assert solve(Matrix([[1], [2]]), (1, 1)) is None  # rank oracle: inconsistent


def test_span_examples():
    assert span([(1, 0), (1, 0)]).dim == 1
    x_axis = span([(1, 0)])
    y_axis = span([(0, 1)])
    assert x_axis.sum(y_axis).dim == 2
    a = span([(1, 1, 0), (0, 0, 1)])
    b = span([(1, 1, 1)])
    assert a.intersect(b) == b


def test_quotient_dim():
    a = span([(1, 0, 0), (0, 1, 0)])
    b = span([(1, 1, 0)])
    assert a.quotient_dim(b) == 1
    try:
        span([(0, 0, 1)]).quotient_dim(b)
    except ValueError:
        pass
    else:
        raise AssertionError("quotient_dim must reject non-contained subspace")


@given(st.lists(vecs(4), min_size=0, max_size=5), st.data())
@settings(**SETTINGS)
def test_echelon_canonicity(vectors, data):
    """Shuffling and rescaling a generating set gives the identical Subspace."""
    s1 = Subspace(4, vectors)
    shuffled = list(vectors)
    random.Random(data.draw(st.integers(0, 10 ** 6))).shuffle(shuffled)
    scales = [data.draw(st.sampled_from([1, 2, -1, Q(1, 3), Q(-5, 2)]))
              for _ in shuffled]
    s2 = Subspace(4, [tuple(c * x for x in v) for c, v in zip(scales, shuffled)])
    assert s1 == s2 and hash(s1) == hash(s2)


@given(st.lists(vecs(5), max_size=4), st.lists(vecs(5), max_size=4))
@settings(**SETTINGS)
def test_grassmann_identity(us, ws):
    assert grassmann_ok(Subspace(5, us), Subspace(5, ws))


@given(st.lists(vecs(3), min_size=3, max_size=3), vecs(3))
@settings(**SETTINGS)
def test_solve_verifies(rows, x):
    m = Matrix(rows)
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None and m.apply(got) == b


@given(st.lists(vecs(4), min_size=1, max_size=6))
@settings(**SETTINGS)
def test_kernel_orthogonal_to_rows(rows):
    m = Matrix(rows)
    ker = kernel(m)
    assert ker.dim + rref(m)[0].rows == 4
    for v in ker.basis:
        assert all(not x for x in m.apply(v))


def test_subspace_contains_and_coordinates():
    s = span([(1, 0, 2), (0, 1, -1)])
    assert s.contains((2, 3, 1))
    coords = s.coordinates((2, 3, 1))
    assert coords == (Q(2), Q(3))
    assert not s.contains((0, 0, 1))
    assert s.coordinates((0, 0, 1)) is None


def test_span_solver_expresses_members():
    ss = SpanSolver(3)
    assert ss.add((1, 1, 0))
    assert ss.add((0, 1, 1))
    assert not ss.add((1, 2, 1))  # dependent
    combo = ss.express((2, 3, 1))
    assert combo is not None
    target = [Q(0)] * 3
    for c, gen in zip(combo, [(1, 1, 0), (0, 1, 1), (1, 2, 1)]):
        for i, g in enumerate(gen):
            target[i] += c * Q(g)
    assert tuple(target) == (Q(2), Q(3), Q(1))
    assert ss.express((1, 0, 1)) is None


def _random_sparse_system(rng, nrows, ncols, density=0.2):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Q(rng.randint(-9, 9), rng.randint(1, 4))
        rows.append(row)
    return rows


def _canonical(sub):
    return sub.basis, sub.pivots


def test_integer_kernel_matches_dense_oracle():
    """Fraction-free sparse elimination and dense rational RREF give the same
    kernel on random sparse systems with mixed denominators."""
    rng = random.Random(7)
    for trial in range(8):
        ncols = rng.randint(60, 120)
        rows = _random_sparse_system(rng, rng.randint(30, 90), ncols)
        got = Subspace(ncols, kernel_sparse(rows, ncols))
        assert _canonical(got) == oracle.kernel(rows, ncols), f"trial {trial}: kernel mismatch"


def test_integer_kernel_with_large_coefficients():
    big = 10 ** 12
    rows = [{0: Q(1), 1: Q(big)}, {2: Q(1), 3: Q(1, big)}]
    ker = kernel_sparse(rows, 4)
    assert _canonical(Subspace(4, ker)) == oracle.kernel(rows, 4)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + big * v[1] == 0 and v[2] + Q(1, big) * v[3] == 0


sparse_rationals = st.one_of(st.just(Q(0)), rationals)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(sparse_rationals, min_size=n, max_size=n),
                         max_size=7))))
@settings(**SETTINGS)
def test_integer_kernel_differential(system):
    ncols, dense = system
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    ker = kernel_sparse(rows, ncols)
    sub = Subspace(ncols, ker)
    assert sub.basis == tuple(ker)  # already canonical
    assert _canonical(sub) == oracle.kernel(rows, ncols)


def _with_repeats(data, vectors, n):
    """vectors plus zero rows and rescaled duplicates, shuffled."""
    out = list(vectors)
    out += [(Q(0),) * n] * data.draw(st.integers(0, 2))
    for _ in range(data.draw(st.integers(0, 3)) if vectors else 0):
        v = data.draw(st.sampled_from(vectors))
        c = data.draw(st.sampled_from([1, -1, Q(2, 3), Q(-7, 5)]))
        out.append(tuple(c * x for x in v))
    random.Random(data.draw(st.integers(0, 10 ** 6))).shuffle(out)
    return out


def dense_systems(max_rows=6, max_cols=6):
    """(n, vectors in Q^n), about half of whose entries are 0."""
    return st.integers(1, max_cols).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(sparse_rationals, min_size=n, max_size=n)
                             .map(tuple), max_size=max_rows)))


@given(dense_systems(), st.data())
@settings(**SETTINGS)
def test_subspace_matches_dense_oracle(system, data):
    n, vectors = system
    vectors = _with_repeats(data, vectors, n)
    assert _canonical(Subspace(n, vectors)) == oracle.subspace(n, vectors)


@given(dense_systems(), st.data())
@settings(**SETTINGS)
def test_rref_matches_dense_oracle(system, data):
    n, vectors = system
    m = Matrix(_with_repeats(data, vectors, n) or [(Q(0),) * n])
    assert rref(m) == oracle.rref(m)


@given(dense_systems(), st.data())
@settings(**SETTINGS)
def test_solve_matches_dense_oracle(system, data):
    n, vectors = system
    m = Matrix(_with_repeats(data, vectors, n) or [(Q(0),) * n])
    if data.draw(st.booleans()):
        b = m.apply(data.draw(vecs(n)))  # consistent
    else:
        b = data.draw(vecs(m.rows))  # usually inconsistent when rank < rows
    got = solve(m, b)
    assert got == oracle.solve(m, b)
    assert got is None or m.apply(got) == tuple(b)


@given(dense_systems(), dense_systems(), st.data())
@settings(**SETTINGS)
def test_intersect_matches_dense_oracle(us, ws, data):
    n = min(us[0], ws[0])
    us = _with_repeats(data, [u[:n] for u in us[1]], n)
    ws = _with_repeats(data, [w[:n] for w in ws[1]], n)
    got = Subspace(n, us).intersect(Subspace(n, ws))
    assert _canonical(got) == oracle.intersect(n, us, ws)


@given(dense_systems(max_rows=4), st.data())
@settings(**SETTINGS)
def test_inconsistent_solve_is_none_on_both_sides(system, data):
    """Negative control: a row repeated with a shifted right-hand side."""
    n, vectors = system
    vectors = [v for v in vectors if any(v)] or [(Q(1),) * n]
    b = list(data.draw(vecs(len(vectors))))
    i = data.draw(st.integers(0, len(vectors) - 1))
    c = data.draw(st.sampled_from([1, -2, Q(3, 4)]))
    m = Matrix(vectors + [tuple(c * x for x in vectors[i])])
    b.append(c * b[i] + data.draw(st.sampled_from([1, Q(-1, 3)])))
    assert solve(m, b) is None
    assert oracle.solve(m, b) is None


BROKEN_KERNEL = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
echelon, calls = exact._echelon, []
def broken(rows):  # doubles the pivots of the system's echelon form only
    store = echelon(rows)
    if not calls:
        calls.append(rows)
        store = {p: {**r, p: 2 * r[p]} for p, r in store.items()}
    return store
exact._echelon = broken
exact.kernel_sparse([{0: 1, 1: 1}], 2)
"""

BROKEN_SOLVE = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
rref_rows = exact._rref_rows
def broken(vectors, ncols):  # shifts the first solved coordinate
    rows, pivots = rref_rows(vectors, ncols)
    rows[0] = rows[0][:-1] + (rows[0][-1] + 1,)
    return rows, pivots
exact._rref_rows = broken
exact.solve(exact.Matrix.identity(2), (1, 2))
"""


SHAPE_GUARDS = """
import sys
from supertkk.exact import Matrix, SpanSolver, Subspace, rref
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
plane = Subspace(3, [(1, 0, 0), (0, 1, 0)])
solver = SpanSolver(3)
solver.add((1, 0, 0))
calls = {
    "Subspace long": lambda: Subspace(2, [(1, 0), (1, 2, 3)]),
    "Subspace short": lambda: Subspace(3, [(1, 2)]),
    "reduce long": lambda: plane.reduce((0, 0, 0, 1)),
    "reduce short": lambda: plane.reduce((1, 0)),
    "coordinates long": lambda: plane.coordinates((1, 0, 0, 1)),
    "SpanSolver.add long": lambda: solver.add((0, 1, 0, 1)),
    "SpanSolver.express short": lambda: solver.express((1, 0)),
}
for name, call in calls.items():
    try:
        call()
    except ValueError as e:
        if "ambient dimension mismatch" not in str(e):
            raise SystemExit(f"{name}: {e}")
    else:
        raise SystemExit(f"{name}: no ValueError")
print("ok")
"""


def test_shape_guards_survive_python_O():
    done = run_python(["-O"], SHAPE_GUARDS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "ok"


def test_kernel_certificate_survives_python_O():
    done = run_python(["-O"], BROKEN_KERNEL)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: kernel verification failed"
            in done.stderr.strip().splitlines()[-1])


def test_solve_certificate_survives_python_O():
    done = run_python(["-O"], BROKEN_SOLVE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: solve verification failed"
            in done.stderr.strip().splitlines()[-1])


def test_matrix_flatten_roundtrip():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert Matrix.unflatten(2, 3, m.flatten()) == m


def test_matrix_algebra():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a @ b).data == Matrix([[2, 1], [4, 3]]).data
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(Q(1, 2))[0, 1] == Q(1)
    assert a.transpose()[0, 1] == Q(3)
