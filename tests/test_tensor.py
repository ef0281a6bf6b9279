"""The exact tensor layer against the loop oracle (tests/oracle_identities.py).

Every tensor-backed checker must return what its loop reference returns:
None, or a witness with identical indices and message.
"""

import json
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_identities as oracle
import oracle_tables
import oracle_tkk
from oracle_linalg import Matrix, basis_vector, operators
from pyrun import run_python
from supertkk import catalog, superspace, tensor, tkk
from supertkk.catalog import (_JORDAN_DEFAULTS, _LIE_DEFAULTS, jordan_catalog, load_algebra,
                              resolve, save_algebra)
from supertkk.exact import CertificateError, Q
from supertkk.jordan import (check_commutator_identity, check_five_linear,
                             check_jordan_identity, check_triple_symmetry)
from supertkk.structure import JordanPair, check_pair_axioms, double
from supertkk.superspace import (SuperAlgebra, check_super_jacobi, check_superanticommutative,
                                 check_supercommutative, integer_algebra, make_algebra)
from supertkk.tkk import KantorTop, j_functor, kantor, kantor_relations, koecher

SETTINGS = dict(max_examples=30, deadline=None)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Q)
coefficients = st.one_of(st.just(Q(0)), rationals)

JORDAN_CHECKS = [
    (check_jordan_identity, oracle.check_jordan_identity),
    (check_commutator_identity, oracle.check_commutator_identity),
    (check_triple_symmetry, oracle.check_triple_symmetry),
    (check_five_linear, oracle.check_five_linear),
]
SMALL_JORDAN = ("j19", "kacK", "trunc_poly:4", "trunc_poly:5", "full_matrix:1,1",
                "form:1,2", "form:3,0", "dt:2")
SMALL_LIE = ("gl:1,1", "sl:2,1", "psl:2,2", "pe:2", "q:2", "w:2", "lambda:4")
DENSE_LIE = ("gl:1,1", "sl:2,1", "pe:2", "q:2", "w:2")


def _key(w):
    return None if w is None else (w.indices, w.message)


def _assert_same(V):
    for new, old in JORDAN_CHECKS:
        assert _key(new(V)) == _key(old(V)), new.__name__
    assert _key(check_pair_axioms(double(V))) == _key(oracle.check_pair_axioms(double(V)))


@st.composite
def graded_tables(draw, sym, coeffs=coefficients):
    """A random supercommutative (sym=1) or super-anticommutative (sym=-1)
    table of dim <= 4 with mixed parities and rational constants."""
    n = draw(st.integers(1, 4))
    par = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    products = []
    for i in range(n):
        for j in range(i, n):
            s = sym * (-1) ** (par[i] * par[j])
            if i == j and s == -1:
                continue  # x x = -x x forces zero
            for k in range(n):
                c = draw(coeffs) if par[k] == (par[i] + par[j]) % 2 else 0
                if c:
                    products.append((i, j, k, c))
                    if i != j:
                        products.append((j, i, k, s * c))
    return make_algebra(par, products, name="random", check=False)


@st.composite
def triple_pairs(draw):
    """A random homogeneous triple pair of dims <= 3, half of them with the
    outer symmetry imposed so that the 5-linear scan is reached."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    par = [tuple(draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))) for d in dims]
    symmetric = draw(st.booleans())
    tables = []
    for sigma in (0, 1):
        p, q = par[sigma], par[1 - sigma]
        table: dict = {}
        for i in range(len(p)):
            for j in range(len(q)):
                for k in range(i if symmetric else 0, len(p)):
                    s = (-1) ** (p[i] * q[j] + q[j] * p[k] + p[k] * p[i])
                    if symmetric and k == i and s == -1:
                        continue
                    for l in range(len(p)):
                        c = draw(coefficients) if p[l] == (p[i] + q[j] + p[k]) % 2 else 0
                        if c:
                            table.setdefault((i, j, k), {})[l] = c
                            if symmetric and k != i:
                                table.setdefault((k, j, i), {})[l] = s * c
        tables.append(table)
    dp, dm = dims
    return JordanPair("random", tuple(par),
                      *oracle_tables.encode(tables, [(dp, dm, dp, dp), (dm, dp, dm, dm)]))


def _pair_tables(pair):
    """The pair's rational triple tables {(i, j, k): {l: c}}, decoded from its
    tensors, for exact comparison."""
    return tuple(oracle_tkk.decode(T, pair.den) for T in pair.tensors)


def _perturbed(a, sym=None, nth=0):
    """a with its first (nth) structure constant raised by one; with sym = +-1
    the first (nth) off-diagonal one, its mirror adjusted to keep the
    (anti)symmetry."""
    entries = [(i, j, k, c) for (i, j), e in a.table.items() for k, c in e.items()]
    at = nth if sym is None else [n for n, e in enumerate(entries) if e[0] != e[1]][nth]
    i, j, k, c = entries[at]
    entries[at] = (i, j, k, c + 1)
    if sym is not None:
        mirror = next((n for n, e in enumerate(entries) if e[:3] == (j, i, k)), None)
        s = sym * (-1) ** (a.parity(i) * a.parity(j))
        if mirror is None:
            entries.append((j, i, k, Q(s)))
        else:
            entries[mirror] = (j, i, k, entries[mirror][3] + s)
    return make_algebra(a.parities, entries, a.zdegrees, name=f"{a.name}+1", check=False)


@given(graded_tables(1))
@settings(**SETTINGS)
def test_jordan_checkers_match_the_loop_oracle(V):
    _assert_same(V)


@st.composite
def dense_lie_tables(draw):
    """A catalog Lie table in a random basis (`_basis_changed`).  Half of
    them get one constant raised, its mirror kept antisymmetric."""
    g = resolve(draw(st.sampled_from(DENSE_LIE)))
    h = _basis_changed(g, lambda: draw(st.integers(-2, 2)))
    return _perturbed(h, -1) if draw(st.booleans()) else h


def _basis_changed(g, entry):
    """g's table in the basis f_a = sum_b P[a, b] e_b, for a unit
    upper-triangular integer P whose entries above the diagonal that mix
    basis vectors of one parity come from entry(): still a Lie
    superalgebra, but with most constants nonzero."""
    n, p = g.dim, g.parities
    P = [[1 if a == b else entry() if a < b and p[a] == p[b] else 0
          for b in range(n)] for a in range(n)]
    inv = [None] * n  # P**-1, unit upper-triangular and integer, by back substitution
    for a in reversed(range(n)):
        inv[a] = [int(a == t) - sum(P[a][b] * inv[b][t] for b in range(a + 1, n))
                  for t in range(n)]
    products = []
    for a in range(n):
        for b in range(n):
            e: dict = {}  # [f_a, f_b] in the old basis
            for (c, d), row in g.table.items():
                for m, x in row.items():
                    e[m] = e.get(m, 0) + P[a][c] * P[b][d] * x
            for t in range(n):
                c = sum(x * inv[m][t] for m, x in e.items())
                if c:
                    products.append((a, b, t, c))
    return make_algebra(p, products, name=f"{g.name}~", check=False)


@given(st.one_of(graded_tables(-1), dense_lie_tables()))
@settings(**SETTINGS)
def test_super_jacobi_matches_the_loop_oracle(g):
    assert _key(check_super_jacobi(g)) == _key(oracle.check_super_jacobi(g))


@given(st.one_of(graded_tables(-1), dense_lie_tables()))
@settings(**SETTINGS)
def test_super_jacobi_matches_the_loop_oracle_one_product_per_chunk(g):
    # every product is its own chunk, so every cancellation spans chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_JACOBI_CHUNK", 1)
        assert _key(check_super_jacobi(g)) == _key(oracle.check_super_jacobi(g))


def test_super_jacobi_runs_in_bounded_memory():
    # w(4) (dim 64): the join forms 15,840 products, folded a chunk at a
    # time, and holds no n**4 array and no array with one entry per product
    g = resolve("w:4")
    tracemalloc.start()
    try:
        assert tensor.jacobi_defect(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_super_jacobi_of_w5_forms_no_dense_table():
    # w(5) (dim 160): one dense int64 copy of its table takes 31 MiB, and
    # the check used to make two.  The integer table is encoded under the
    # trace too, for a fresh copy of the algebra.
    g = resolve("w:5")
    g = SuperAlgebra(g.name, g.parities, g.entries, g.d, g.zdegrees, g.kind)
    tracemalloc.start()
    try:
        assert tensor.jacobi_defect(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def _jacobi_controls(g):
    """g, then three copies of it with one off-diagonal constant raised and
    its mirror kept super-anticommutative: the first, a middle and the last."""
    count = sum(len(e) for (i, j), e in g.table.items() if i != j)
    return [g] + [_perturbed(g, -1, nth) for nth in (0, count // 2, count - 1)]


JACOBI_TABLES = ([(source, None) for source in _LIE_DEFAULTS]
                 + [(source, seed) for source in DENSE_LIE for seed in (1, 2)])


@pytest.mark.parametrize("source, seed", JACOBI_TABLES,
                         ids=[f"{s}-{seed}" if seed else s for s, seed in JACOBI_TABLES])
def test_jacobi_witness_matches_the_oracle(source, seed):
    # every Lie catalog entry (w(4) and h(6) included), and some in a dense
    # basis (`_basis_changed`, seeded), each with three negative controls
    g = resolve(source)
    if seed is not None:
        rng = random.Random(seed)
        g = _basis_changed(g, lambda: rng.randint(-2, 2))
    for a in _jacobi_controls(g):
        w = oracle.check_super_jacobi(a)  # super-anticommutativity holds: a Jacobi witness
        assert check_superanticommutative(a) is None, a.name
        assert tensor.jacobi_defect(a) == (w and w.indices), a.name


def _scaled(a, factor):
    """a with every structure constant times factor."""
    return integer_algebra(a.parities, [(i, j, k, v * factor) for i, j, k, v in a.entries], a.d,
                           name=a.name)


def _dropped(a):
    """a without its first off-diagonal constant, whose mirror stays."""
    at = next(m for m, e in enumerate(a.entries) if e[0] != e[1])
    return integer_algebra(a.parities, a.entries[:at] + a.entries[at + 1:], a.d, name=a.name)


def _from_arrays(a):
    """a built again from its entries as four arrays, which it keeps as its
    `IntTable`: its mirror checks run as a join."""
    *ijk, v = a.columns()
    value = np.array(v, dtype=np.int64 if max(map(abs, v), default=0) < 2 ** 62 else object)
    return integer_algebra(a.parities, (*(np.array(c, dtype=np.int64) for c in ijk), value), a.d,
                           name=a.name)


def _sign_flipped(a):
    """a with its first off-diagonal constant negated and the mirror kept:
    the support is unchanged, the values differ."""
    at = next(m for m, e in enumerate(a.entries) if e[0] != e[1])
    return integer_algebra(a.parities, [e[:3] + (-e[3] if m == at else e[3],)
                                        for m, e in enumerate(a.entries)], a.d, name=a.name)


@given(st.sampled_from([1, -1]).flatmap(graded_tables))
@settings(**SETTINGS)
def test_graded_symmetry_checks_match_the_loop_oracle(a):
    # an explicit zero constant is dropped as it is built; constants past
    # 2**62 put the integer table on object dtype
    n = a.dim
    zeros = integer_algebra(a.parities, list(a.entries) + [
        (0, n - 1, k, 0) for k in range(n) if k not in a.basis_product(0, n - 1)], a.d,
        name=a.name)
    huge = _scaled(a, 2 ** 70)
    assert huge.int_table.value.dtype == object or not a.table
    tables = [a, zeros, huge]
    if a.table:
        tables.append(_perturbed(a))
    if any(i != j for i, j in a.table):
        tables += [_sign_flipped(a), _dropped(a)]
    for table in tables + [_from_arrays(t) for t in tables]:
        for new, old in ((check_supercommutative, oracle.check_supercommutative),
                         (check_superanticommutative, oracle.check_superanticommutative)):
            assert _key(new(table)) == _key(old(table)), new.__name__


@given(triple_pairs())
@settings(**SETTINGS)
def test_pair_axioms_match_the_loop_oracle(pair):
    assert _key(check_pair_axioms(pair)) == _key(oracle.check_pair_axioms(pair))


@pytest.mark.parametrize("source", SMALL_JORDAN)
def test_perturbed_jordan_catalog_is_rejected_like_the_oracle(source):
    # the truncated polynomial algebras are nilpotent: raising their first
    # constant gives another Jordan algebra, so only agreement is required
    control = not source.startswith("trunc_poly")
    V = resolve(source)
    _assert_same(V)
    for bad in (_perturbed(V), _perturbed(V, 1)):
        _assert_same(bad)
        assert any(new(bad) is not None for new, _ in JORDAN_CHECKS) or not control
    pair = j_functor(koecher(V).lie)
    plus = pair.tensors[0].copy()
    plus[tuple(np.argwhere(plus)[0])] += pair.den  # its first nonzero triple, raised by 1
    bad_pair = JordanPair(pair.name, pair.parities, (plus, pair.tensors[1]), pair.den)
    assert check_pair_axioms(pair) is None
    w = check_pair_axioms(bad_pair)
    assert _key(w) == _key(oracle.check_pair_axioms(bad_pair))
    assert w is not None or not control


@pytest.mark.parametrize("source", SMALL_LIE)
def test_perturbed_lie_catalog_is_rejected_like_the_oracle(source):
    g = resolve(source)
    assert check_super_jacobi(g) is None is oracle.check_super_jacobi(g)
    for bad in (_perturbed(g), _perturbed(g, -1)):
        w = check_super_jacobi(bad)
        assert w is not None and _key(w) == _key(oracle.check_super_jacobi(bad)), bad.name


def test_d_op_matches_the_operator_formula():
    # D_{e_i,e_j} read off the triple tensor, d**2 D[r, c] = T[i, j, c, r]
    for source in ("kacK", "full_matrix:1,1", "form:1,2"):
        V = resolve(source)
        T, d = tensor.triple_tensor(V)
        for i in range(V.dim):
            for j in range(V.dim):
                x, y = basis_vector(V, i), basis_vector(V, j)
                got = Matrix([[Q(int(t), d * d) for t in row] for row in T[i, j].T.tolist()])
                assert got == oracle.d_op(V, x, y).matrix


def _sl2():
    """sl(2) with basis e, f, h: [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return make_algebra([0, 0, 0], [(2, 0, 0, 2), (0, 2, 0, -2), (2, 1, 1, -2),
                                    (1, 2, 1, 2), (0, 1, 2, 1), (1, 0, 2, -1)],
                        name="sl2", kind="lie")


def _rescaled(a, scales):
    """a in the basis scales[i] * e_i: constant c of e_i e_j -> e_k becomes
    c * scales[i] * scales[j] / scales[k]."""
    products = [(i, j, k, c * scales[i] * scales[j] / scales[k])
                for (i, j), e in a.table.items() for k, c in e.items()]
    return make_algebra(a.parities, products, name=f"{a.name}*", kind=a.kind)


def test_constants_near_1e12_take_the_exact_object_path(monkeypatch):
    # sl(2) with e scaled by 10^12 and kacK with xi1 scaled: [e, f] = 10^12 h,
    # xi1 xi2 = 10^12 a.  No int64 bound can be proved for their sums.
    big = Q(10 ** 12)
    sl2, jordan = _sl2(), _rescaled(jordan_catalog("kacK"), [Q(1), big, Q(1)])
    dtypes, jacobi = [], []
    cast, table_cast = tensor._exact, tensor.IntTable.dtype

    def spy(*args):
        out = cast(*args)
        dtypes.extend(str(t.dtype) for t in out)
        return out

    def table_spy(*args):  # the casts of checks that read an IntTable
        out = table_cast(*args)
        dtypes.append(str(np.dtype(out)))
        if sys._getframe(1).f_code.co_name == "jacobi_defect":
            jacobi.append(dtypes[-1])
        return out

    monkeypatch.setattr(tensor, "_exact", spy)
    monkeypatch.setattr(tensor.IntTable, "dtype", table_spy)
    # built under the spies: make_algebra proves super-Jacobi, and the
    # check_super_jacobi below is a memo hit
    lie = _rescaled(sl2, [big, Q(1), Q(1)])
    assert jacobi == ["object"]
    assert max(abs(c) for e in lie.table.values() for c in e.values()) == big
    assert check_super_jacobi(lie) is None is oracle.check_super_jacobi(lie)
    _assert_same(jordan)
    assert all(check(jordan) is None for check, _ in JORDAN_CHECKS)
    assert dtypes and set(dtypes) == {"object"}
    bad = _perturbed(lie, -1, 1)  # the first is [e, f] = (10^12 + 1) h: sl(2) again
    w = check_super_jacobi(bad)
    assert w is not None and _key(w) == _key(oracle.check_super_jacobi(bad))
    _assert_same(_perturbed(jordan))


def test_int_table_is_read_only_sorted_and_kept_per_algebra():
    g = resolve("w:3")
    t = g.int_table
    assert g.int_table is t
    for a in (t.i, t.j, t.k, t.value):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    twin = SuperAlgebra(g.name, g.parities, g.entries, g.d, g.zdegrees, g.kind)
    assert twin.int_table is not t  # equal content, its own table
    keys = list(zip(t.i.tolist(), t.j.tolist(), t.k.tolist()))
    assert keys == sorted(keys)
    assert ({key: Q(v, t.d) for key, v in zip(keys, t.value.tolist())}
            == {(i, j, k): c for (i, j), e in g.table.items() for k, c in e.items()})


@given(st.sampled_from([1, -1]).flatmap(graded_tables), st.sampled_from([1, 2 ** 61, 2 ** 70]))
@settings(**SETTINGS)
def test_int_table_matches_encode(a, scale):
    # explicit zeros are dropped as the algebra is built; past 2**62 the
    # values are Python ints
    n = a.dim
    table = {key: {k: c * scale for k, c in e.items()} for key, e in a.table.items()}
    table[0, n - 1] = {**{k: Q(0) for k in range(n)}, **table.get((0, n - 1), {})}
    b = make_algebra(a.parities, [(i, j, k, c) for (i, j), e in table.items() for k, c in e.items()],
                     name=a.name, check=False)
    t = b.int_table
    (C,), d = oracle_tables.encode([b.table], [(n, n, n)])
    dense = t.dense()
    assert (t.d, t.top) == (d, int(abs(C).max()))
    assert dense.dtype == C.dtype == t.value.dtype and (dense == C).all()
    assert len(t.value) == np.count_nonzero(C)


# ---------------------------------------------------------------------------
# the integer form of an algebra against the rational path it replaced


def _assert_matches_the_rational_path(a, parities, products, zdegrees=None):
    """a, built from the (i, j, k, c) products, against the former path
    (tests/oracle_tables.py): the Fraction table of make_algebra and the
    `IntTable` encoded from it."""
    table = oracle_tables.fraction_table(parities, products, zdegrees)
    want, got = oracle_tables.int_table_of(table, len(parities)), a.int_table
    for axis in ("i", "j", "k", "value"):
        assert getattr(got, axis).tolist() == getattr(want, axis).tolist(), (a.name, axis)
    assert (got.value.dtype, got.d, got.top) == (want.value.dtype, want.d, want.top), a.name
    assert a.table == table, a.name


def _is_arrays(entries) -> bool:
    """Whether integer_algebra's entries are four arrays (i, j, k, value)."""
    return type(entries) is tuple and len(entries) == 4 and isinstance(entries[0], np.ndarray)


def _record_builds(patch) -> list:
    """Every algebra make_algebra and integer_algebra build from now on, as
    (algebra, parities, rational products, zdegrees): make_algebra's own
    products, and value / d for each integer entry, given as tuples or as
    four arrays (which go on to the build as they are)."""
    builds = []

    def spy(build, rational):
        def wrapper(parities, entries, *args, **kwargs):
            entries = entries if _is_arrays(entries) else list(entries)
            a = build(parities, entries, *args, **kwargs)
            rows = list(zip(*(c.tolist() for c in entries))) if _is_arrays(entries) else entries
            builds.append((a, parities, rational(rows, args, kwargs), a.zdegrees))
            return a
        return wrapper

    over_d = spy(superspace.integer_algebra, lambda entries, args, kwargs: [
        (i, j, k, Q(v, args[0] if args else kwargs.get("d", 1))) for i, j, k, v in entries])
    as_given = spy(superspace.make_algebra, lambda entries, args, kwargs: entries)
    for module in (superspace, catalog, tkk):
        patch.setattr(module, "integer_algebra", over_d)
        if hasattr(module, "make_algebra"):
            patch.setattr(module, "make_algebra", as_given)
    patch.setattr(catalog, "_MEMO", {})  # every catalog entry built afresh
    return builds


@given(st.one_of(st.sampled_from([1, -1]).flatmap(graded_tables), dense_lie_tables()),
       st.sampled_from([1, 2 ** 61, 2 ** 70]))
@settings(**SETTINGS)
def test_integer_form_matches_the_rational_path(a, scale):
    # 2**61 times a denominator up to 6 crosses 2**62: object dtype
    products = [(i, j, k, c * scale) for (i, j), e in a.table.items() for k, c in e.items()]
    b = make_algebra(a.parities, products, name=a.name, check=False)
    _assert_matches_the_rational_path(b, a.parities, products)


@pytest.mark.parametrize("source", _JORDAN_DEFAULTS + _LIE_DEFAULTS)
def test_catalog_builds_match_the_rational_path(source):
    # every algebra a catalog entry builds on the way, from make_algebra's
    # rational products or from integer entries over d
    with pytest.MonkeyPatch.context() as patch:
        builds = _record_builds(patch)
        resolve(source)
    assert builds
    for a, parities, products, zdegrees in builds:
        _assert_matches_the_rational_path(a, parities, products, zdegrees)


@pytest.mark.parametrize("source", ["kacK", "j19", "full_matrix:1,1"])
def test_constructions_match_the_rational_path(source):
    # a fresh copy of V, so that no construction is a memo hit
    V = load_algebra(save_algebra(resolve(source)))
    with pytest.MonkeyPatch.context() as patch:
        builds = _record_builds(patch)
        for build in (tkk.kantor, tkk.koecher, tkk.koecher_tilde, tkk.tits):
            build(V)
    assert {a.name for a, *_ in builds} >= {f"Kan({V.name})", f"Ti({V.name},inn)"}
    for a, parities, products, zdegrees in builds:
        _assert_matches_the_rational_path(a, parities, products, zdegrees)


def test_lie_blocks_come_out_over_the_least_denominator():
    # sl(2) = <e, h, f> with [e, f] = h/2, each bracket over a denominator
    # that shares a factor with its value: [e, h] = -8/4 e, [e, f] = 3/6 h,
    # [h, f] = -4/2 f.  _lie scales them to 12, and d comes out 2.
    one = lambda x: np.array([x])
    blocks = [(one(0), one(1), one(0), one(-8), 4), (one(0), one(2), one(1), one(3), 6),
              (one(1), one(2), one(2), one(-4), 2)]
    layout = tkk._layout(("e", [0], 1), ("h", [0], 0), ("f", [0], -1))
    with pytest.MonkeyPatch.context() as patch:
        builds = _record_builds(patch)
        g = tkk._lie(blocks, layout, "sl2/2", "Ko", {}).lie
    assert (g.d, g.entries) == (2, ((0, 1, 0, -4), (0, 2, 1, 1), (1, 0, 0, 4), (1, 2, 2, -4),
                                    (2, 0, 1, -1), (2, 1, 2, 4)))
    (a, parities, products, zdegrees), = builds
    _assert_matches_the_rational_path(a, parities, products, zdegrees)


def test_lie_scales_its_blocks_on_python_ints_past_the_int64_bound():
    # the sl(2) above with [e, h] written as -2**62 / 2**61 e: over the lcm
    # 3 * 2**61 of the blocks' denominators it is -3 * 2**62 e, past int64
    one = lambda x: np.array([x])
    blocks = [(one(0), one(1), one(0), one(-2 ** 62), 2 ** 61),
              (one(0), one(2), one(1), one(3), 6), (one(1), one(2), one(2), one(-4), 2)]
    layout = tkk._layout(("e", [0], 1), ("h", [0], 0), ("f", [0], -1))
    g = tkk._lie(blocks, layout, "sl2/2", "Ko", {}).lie
    assert (g.d, g.entries) == (2, ((0, 1, 0, -4), (0, 2, 1, 1), (1, 0, 0, 4), (1, 2, 2, -4),
                                    (2, 0, 1, -1), (2, 1, 2, 4)))


@pytest.mark.parametrize("source, triple", [("kacK", "(0,3,9)"), ("j19", "(0,3,4)"),
                                            ("full_matrix:1,1", "(0,4,8)")])
def test_a_lie_block_over_twice_its_denominator_fails_super_jacobi(source, triple):
    # Ko(V) with the action of the middle on V+ (its second block) halved
    lie = tkk._lie

    def halved(blocks, *args, **kwargs):
        i, j, k, x, den = blocks[1]
        return lie([blocks[0], (i, j, k, x, 2 * den), *blocks[2:]], *args, **kwargs)

    V = load_algebra(save_algebra(resolve(source)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tkk, "_lie", halved)
        with pytest.raises(ValueError) as err:
            tkk.koecher(V)
    assert str(err.value) == f"not a Lie superalgebra: super-Jacobi fails at basis triple {triple}"


def test_a_saved_coefficient_halved_fails_on_load():
    # w(3)'s first constant [e_0, e_3] = e_0 rewritten as 1/2: its mirror
    # [e_3, e_0] = e_0 no longer matches
    doc = json.loads(save_algebra(resolve("w:3")))
    assert doc["products"][0] == {"i": 0, "j": 3, "k": 0, "coeff": "1"}
    doc["products"][0]["coeff"] = "1/2"
    with pytest.raises(ValueError) as err:
        load_algebra(json.dumps(doc).encode())
    assert str(err.value) == "not a Lie superalgebra: super-anticommutativity fails at pair (3,0)"


def test_building_the_jordan_catalog_does_not_import_numpy():
    # supercommutativity runs on every make_algebra and stays pure Python;
    # numpy's import would otherwise land in every command's start-up.  The
    # second input is tkk-export-dense's set-up: each Jordan default in a
    # dense basis (make_algebra(..., kind="jordan")), then save_algebra.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for build in ("supertkk.jordan_entries()",
                  f"sys.path.insert(0, {str(bench)!r})\nimport workloads\n"
                  "assert workloads.prepare('tkk-export-dense', 1)"):
        done = run_python([], f"import sys, supertkk\n{build}\n"
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]", build


BROKEN_PAIR = """
import sys
from supertkk import make_algebra
from supertkk.tkk import j_functor
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
# g+1 = <a1, a2>, g-1 = <b>, g0 = <h>: {a1, b, a2} = [h, a2] = a1, {a2, b, a1} = 0
g = make_algebra([0] * 4, [(0, 2, 3, 1), (3, 1, 0, 1)], zdegrees=[1, 1, -1, 0], check=False)
j_functor(g)
"""


def test_superpair_certificate_survives_python_O():
    done = run_python(["-O"], BROKEN_PAIR)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: superpair axioms fail: outer symmetry fails at (0, 0, 0, 1)"
            in done.stderr.strip().splitlines()[-1])


def test_triple_leaving_the_graded_block_raises_a_certificate_error():
    assert issubclass(CertificateError, ValueError)  # the CLI's exit-2 path
    # [a, b] = h but [h, a] = b breaks the grading: {a, b, a} lands in g-1
    g = SuperAlgebra("bad", (0, 0, 0), [(0, 1, 2, 1), (2, 0, 1, 1)], 1, (1, -1, 0))
    with pytest.raises(CertificateError, match="left the graded block"):
        j_functor(g)


# ---------------------------------------------------------------------------
# the Kantor relations and the g_0 action on Hom(V (x) V, V)

twelfths = st.fractions(min_value=-3, max_value=3, max_denominator=12).map(Q)
KANTOR_JORDAN = ("j19", "kacK", "full_matrix:1,1", "form:1,2", "trunc_poly:5", "dt:1/2")


def _as_jordan(a, unit=False):
    """a's table as kind "jordan" without the checks; with unit, an even unit
    adjoined as the last basis vector."""
    n = a.dim
    entries = [(i, j, k, c) for (i, j), e in a.table.items() for k, c in e.items()]
    if unit:
        entries += [(n, i, i, 1) for i in range(n)] + [(i, n, i, 1) for i in range(n)]
        entries.append((n, n, n, 1))
    return make_algebra(a.parities + ((0,) if unit else ()), entries, name=f"{a.name}j",
                        kind="jordan", check=False)


@st.composite
def kantor_inputs(draw):
    """A supercommutative table with mixed parities and denominators up to 12:
    a small Jordan catalog algebra in a rescaled basis, or a random table
    (rarely Jordan), half of those with a unit adjoined."""
    if draw(st.booleans()):
        V = resolve(draw(st.sampled_from(KANTOR_JORDAN)))
        nonzero = twelfths.filter(bool)
        return _rescaled(V, draw(st.lists(nonzero, min_size=V.dim, max_size=V.dim)))
    a = draw(graded_tables(1, st.one_of(st.just(Q(0)), twelfths)))
    return _as_jordan(a, draw(st.booleans()) and a.dim < 4)


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _flats(T, den):
    """Integer tensors T[u, i, j, l] at den as Fraction flats, index (l, i, j)."""
    return [tuple(Q(int(x), den) for x in t.transpose(2, 0, 1).ravel()) for t in T]


def _assert_top_matches_oracle(V, top):
    """[L_a, P] and the Kantor top's tags, parities and basis against the
    Fraction loops; returns the oracle's top."""
    want = oracle_tkk.KantorTop(V)
    lp, d = tensor.lp_tensor(V)
    assert _flats(lp, d * d) == want.lp_flats
    assert (top.tags, top.parities) == (want.tags, want.parities)
    assert _flats(top.tensors, top.den) == want.flats
    return want


@given(kantor_inputs())
@settings(**SETTINGS)
def test_kantor_relations_match_the_loop_oracle(V):
    try:
        want = _triples(oracle.kantor_relations(V))
    except ValueError as e:  # find_unit: the unit is not unique
        with pytest.raises(ValueError, match=str(e)):
            kantor_relations(V)
        return
    assert _triples(kantor_relations(V)) == want
    _assert_top_matches_oracle(V, KantorTop(V))


@st.composite
def g0_inputs(draw):
    """A random table, and a homogeneous operator A and bilinear map B on it
    with constants of denominators up to 12."""
    V = draw(graded_tables(1))
    n, p = V.dim, V.parities
    pa, pb = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    values = st.one_of(st.just(Q(0)), twelfths)
    A = Matrix([[draw(values) if (p[r] + p[c]) % 2 == pa else Q(0) for c in range(n)]
                for r in range(n)])
    B = tuple(draw(values) if (p[i] + p[j] + p[l]) % 2 == pb else Q(0)
              for l in range(n) for i in range(n) for j in range(n))  # flat (l, i, j)
    return V, A, pa, B, pb


@given(g0_inputs())
@settings(**SETTINGS)
def test_g0_action_matches_the_loop_oracle(inputs):
    V, A, pa, B, pb = inputs
    n = V.dim
    (a, b), d = oracle_tables.encode(
        [{(r,): {c: x for c, x in enumerate(row) if x} for r, row in enumerate(A.data)},
         {(i, j): {l: B[l * n * n + i * n + j] for l in range(n) if B[l * n * n + i * n + j]}
          for i in range(n) for j in range(n)}], [(n, n), (n, n, n)])
    got = tensor.g0_action(a, b, (-1) ** (pa * pb), V.parities)
    flat = tuple(Q(int(x), d * d) for x in got.transpose(2, 0, 1).ravel())
    assert flat == oracle._g0_on_gplus(V, A, pa, B, pb)


def test_perturbed_table_fails_the_weyl_relation_like_the_oracle():
    bad = _as_jordan(_perturbed(jordan_catalog("full_matrix", 1, 1), 1))
    got, want = _triples(kantor_relations(bad)), _triples(oracle.kantor_relations(bad))
    assert got == want
    assert ("kantor_weyl_relation", False) in [(name, ok) for name, ok, _ in got]


@pytest.mark.parametrize("scale", [5 * 10 ** 8, 10 ** 12])
def test_kantor_contractions_prove_their_int64_bound(scale, monkeypatch):
    # full_matrix(1,1) with e12 scaled: its constants reach the scale, so the
    # relation checks can prove int64 for some contractions (products of two
    # tensors) at 5 * 10^8 and for none at 10^12; there only the unit's scaling of
    # the table fits.  Every cast is checked against its own bound.
    V = _rescaled(jordan_catalog("full_matrix", 1, 1), [Q(1), Q(scale), Q(1), Q(1)])
    casts = []
    cast = tensor._exact

    def spy(arrays, factor, degree):
        out = cast(arrays, factor, degree)
        top = max((int(abs(a).max()) for a in arrays if a.size), default=0)
        casts.append((factor * max(top, 1) ** degree < 2 ** 62, degree,
                      {str(t.dtype) for t in out}))
        return out

    monkeypatch.setattr(tensor, "_exact", spy)
    got = _triples(kantor_relations(V))
    assert got == _triples(oracle.kantor_relations(V)) and all(ok for _, ok, _ in got)
    assert len(got) == 6  # unital: P = -[L_e, P] is reached
    products = {proved for proved, degree, _ in casts if degree == 2}
    assert products == ({True, False} if scale < 10 ** 12 else {False})
    _assert_kantor_top_matches_oracle(V)  # the build's own casts go either way
    assert all(dtypes == ({"int64"} if proved else {"object"}) for proved, _, dtypes in casts)


def _assert_kantor_top_matches_oracle(V):
    """The top space and the g_0 action block of Kan(V) against the Fraction
    loops: the oracle's basis, acted on and read in its own coordinates."""
    kan = kantor(V)
    want = _assert_top_matches_oracle(V, kan.data["top"])
    ops = operators(kan.data["middle"])
    n, nm = V.dim, len(ops)
    for t, op in enumerate(ops):
        for u, (_, flat, par) in enumerate(want.basis()):
            acted = oracle._g0_on_gplus(V, op.matrix, op.parity, flat, par)
            coords = want.coords(acted, (op.parity + par) % 2)
            want_row = {n + nm + l: c for l, c in enumerate(coords) if c}
            assert kan.lie.basis_product(n + t, n + nm + u) == want_row


@pytest.mark.parametrize("source", ["kacK", "full_matrix:1,1", "form:1,2", "dt:1/2"])
def test_kantor_top_block_matches_the_loop_oracle(source):
    _assert_kantor_top_matches_oracle(resolve(source))


def test_kantor_top_of_an_odd_first_basis_lists_its_even_members_first():
    # kacK in the basis xi1, a, xi2: the top's family P, [L_0, P], [L_1, P],
    # [L_2, P] has parities 0, 1, 0, 1 and keeps every member (kacK has no
    # unit); the one greedy scan over it sorted even-first lists P and
    # [L_1, P] first, as the oracle's scan per parity does
    K = resolve("kacK")
    perm = (1, 0, 2)
    where = {old: new for new, old in enumerate(perm)}
    V = superspace.integer_algebra([K.parities[o] for o in perm],
                                   [(where[i], where[j], where[k], v) for i, j, k, v in K.entries],
                                   K.d, name="kacK'", kind="jordan")
    top = kantor(V).data["top"]
    assert top.tags == [("kantorP", 0), ("kantorLP", 1), ("kantorLP", 0), ("kantorLP", 2)]
    assert top.parities == [0, 0, 1, 1]
    _assert_kantor_top_matches_oracle(V)


@pytest.mark.parametrize("nth", [0, -1])
@pytest.mark.parametrize("source", ["kacK", "full_matrix:1,1", "dt:1/2"])
def test_a_raised_top_entry_fails_kantor(source, nth, monkeypatch):
    # the first or last nonzero entry of the top basis, raised by 1: the
    # [x, B] block leaves istr, or an [A, B] leaves the top space
    V = _rescaled(resolve(source), [Q(1)] * resolve(source).dim)  # a fresh object
    init = KantorTop.__init__

    def raised(self, V):
        init(self, V)
        self.tensors = self.tensors.copy()
        self.tensors[tuple(np.argwhere(self.tensors)[nth])] += 1

    monkeypatch.setattr(KantorTop, "__init__", raised)
    with pytest.raises(CertificateError, match="operator does not lie in istr|"
                                              "element does not lie in the Kantor top space"):
        kantor(V)
