"""Structure algebras checked against hand-computed small cases."""

import functools
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import oracle_linalg as oracle
from oracle_linalg import basis_vector, contains, contains_space, triple
import oracle_tkk
import oracle_tables
from supertkk import exact, structure, tensor, tkk
from supertkk.catalog import (jordan_catalog, jordan_entries, lie_catalog, load_algebra,
                              resolve, save_algebra)
from supertkk.exact import Matrix, Q, Subspace
from supertkk.structure import (
    JordanPair,
    der_algebra,
    derivation_kernel,
    leibniz_blocks,
    leibniz_weight_zero,
    double,
    inclusion_report,
    inn_algebra,
    istr_algebra,
    istr_tilde,
    l_space,
    l_stack,
    pair_d_stack,
    pair_der,
    pair_inn,
    str_algebra,
    str_w,
    structure_summary,
)
from supertkk.superspace import SuperAlgebra, center, make_algebra, memoized, mirror
from test_tensor import _pair_tables, _rescaled, _sl2

SETTINGS = dict(max_examples=40, deadline=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(Q)


def diag(*entries):
    n = len(entries)
    return Matrix.from_entries(n, n, {(i, i): Q(e) for i, e in enumerate(entries)})


def l_flat(V, i):
    """L_{e_i} flattened, read off l_stack."""
    ls = l_stack(V)
    return tuple(Q(int(x), ls.den) for x in ls.flats()[i])


def d_matrix(V, i, j):
    """D_{e_i,e_j}, read off the triple tensor: d**2 D[r, c] = T[i, j, c, r]."""
    T, d = tensor.triple_tensor(V)
    return Matrix([[Q(int(x), d * d) for x in row] for row in T[i, j].T.tolist()])


def test_j19_dims():
    V = jordan_catalog("j19")
    s = structure_summary(V)
    got = {k: sp.dims() for k, sp in s.items()}
    assert got == {
        "Der": (2, 0),
        "Inn": (1, 0),
        "str": (3, 0),
        "istr": (2, 0),
        "istr~": (2, 0),
        "str_w": (5, 0),
        "pair_der": (5, 0),
        "pair_inn": (3, 0),
    }


def test_j19_l_e2_is_inner():
    V = jordan_catalog("j19")
    ls = l_stack(V)
    # [L_{e1}, L_{e2}] = -1/2 L_{e2}, so L_{e2} = -2 [L_{e1}, L_{e2}] is inner
    br = ls.bracket(ls)  # [L_{e_i}, L_{e_j}] at i * 3 + j, scaled by den**2
    assert (-2 * br.blocks[0][0 * 3 + 1] == ls.den * ls.blocks[0][1]).all()
    assert contains(inn_algebra(V).part(0), l_flat(V, 1))
    assert not contains(inn_algebra(V).part(0), l_flat(V, 0))


def test_j19_grading_derivation():
    # the weight derivation assigns weights 0, 1, 2 to e1, e2, e3
    V = jordan_catalog("j19")
    der = der_algebra(V)
    assert contains(der.part(0), diag(0, 1, 2).flatten())
    assert not contains(der.part(0), diag(0, 2, 1).flatten())
    assert der.dims() == (2, 0)


def test_j19_report():
    rep = {r.name: r for r in inclusion_report(jordan_catalog("j19"))}
    for r in rep.values():
        if r.kind == "check":
            assert r.passed, str(r)
    assert not rep["chain_hypothesis"].passed
    assert rep["chain_hypothesis"].detail == "chain hypothesis fails: L_{e_2} in Inn(V)"
    assert not rep["istr_sum_direct"].passed  # {L} meets Inn in L_{e2}
    assert not rep["psi_injective"].passed  # Inn(V,V) is 3-dim, istr~ only 2


def test_kacK_dims():
    V = jordan_catalog("kacK")
    s = structure_summary(V)
    assert s["istr"].dims() == (4, 4)
    assert s["str"].dims() == (4, 4)
    assert s["istr"].even == s["str"].even and s["istr"].odd == s["str"].odd
    assert s["pair_inn"].dims() == (4, 4)
    assert s["pair_der"].dims() == (5, 4)
    assert s["istr~"].dims() == (4, 4)


def test_kacK_pair_generator():
    # for x = xi1, y = xi2: D_{x,y} = diag(2,0,2) and the companion slot is
    # -(-1)^{|x||y|} D_{y,x} = +D_{xi2,xi1} = diag(-2,-2,0)
    V = jordan_catalog("kacK")
    assert d_matrix(V, 1, 2) == diag(2, 0, 2)
    assert d_matrix(V, 2, 1) == diag(-2, -2, 0)
    d_plus, d_minus, parity = oracle_tkk.pair_d_ops(double(V), 0, 1, 2)
    assert parity == 0
    assert d_plus == diag(2, 0, 2)
    assert d_minus == diag(-2, -2, 0)
    ds = pair_d_stack(double(V))  # row x * dim V- + y
    assert ds.parities[1 * 3 + 2] == 0
    assert [[Q(int(x), ds.den) for x in row] for row in ds.blocks[0][1 * 3 + 2]] == \
        [list(r) for r in d_plus.data]
    assert [[Q(int(x), ds.den) for x in row] for row in ds.blocks[1][1 * 3 + 2]] == \
        [list(r) for r in d_minus.data]
    assert contains(pair_inn(V).part(0), d_plus.flatten() + d_minus.flatten())
    assert contains(istr_tilde(V).part(0), d_plus.flatten())


def test_trunc_poly_tower():
    for k in range(4, 8):
        V = jordan_catalog("trunc_poly", k)
        assert istr_algebra(V).dims() == (k - 2, 0), f"istr of k={k}"
        assert istr_tilde(V).dims() == (k - 3, 0), f"istr~ of k={k}"
        assert inn_algebra(V).dim == 0
        der = der_algebra(V)
        # L_{t^m} is a derivation exactly when 2m >= k, i.e. m >= k - 2 here
        top = l_flat(V, k - 3)  # basis index m-1 holds t^m
        below = l_flat(V, k - 4)
        assert contains(der.part(0), top)
        assert not contains(der.part(0), below)
        assert l_space(V).intersect(der).dim > 0


def test_trunc_poly_report_witness():
    rep = {r.name: r for r in inclusion_report(jordan_catalog("trunc_poly", 5))}
    assert rep["chain_hypothesis"].detail == "chain hypothesis fails: L_{e_3} in Der(V)"


def test_str_w_matches_pair_der():
    # (X, Y) -> (X, -Y) carries str_w onto Der(V,V), not just into it, on
    # every catalog entry (all of dim <= 9)
    for name, V in jordan_entries().items():
        sw, pd = str_w(V), pair_der(V)
        assert sw.dims() == pd.dims(), name
        n2 = V.dim * V.dim
        for parity in (0, 1):
            swapped = [v[:n2] + tuple(-x for x in v[n2:]) for v in sw.part(parity).basis]
            assert Subspace(2 * n2, swapped) == pd.part(parity), (name, parity)


@pytest.mark.parametrize("source", ["kacK", "full_matrix:1,1", "h:4"])
def test_pair_der_of_a_j_functor_pair_matches_the_oracle(source):
    # J(g) reads its triples off a Lie bracket, not off a Jordan triple as
    # double(V) does: for g = Ko(V) the tables come out equal to double(V)'s,
    # for g = h(4) the two triples differ
    g = resolve(source)
    pair = tkk.j_functor(tkk.koecher(g).lie if g.kind == "jordan" else g)
    for parity in (0, 1):
        assert pair_der(pair).part(parity) == oracle.pair_derivation_kernel(pair, parity), parity
    if g.kind == "jordan":
        assert pair_der(pair) == pair_der(g)
    else:
        plus, minus = _pair_tables(pair)
        assert plus != minus


def test_unital_str_w_is_str():
    for source in (("full_matrix", 1, 1), ("dt", 2), ("form", 1, 2)):
        V = jordan_catalog(*source)
        assert str_w(V).dims() == str_algebra(V).dims(), V.name


def test_reports_clean():
    for source in (("kacK",), ("full_matrix", 1, 1), ("dt", Q(1, 2)), ("form", 3, 0)):
        for r in inclusion_report(jordan_catalog(*source)):
            if r.kind == "check":
                assert r.passed, str(r)


def test_report_rejects_lie_input():
    with pytest.raises(ValueError):
        inclusion_report(lie_catalog("gl", 1, 1))


@given(x=st.tuples(*[rationals] * 3), y=st.tuples(*[rationals] * 3),
       z=st.tuples(*[rationals] * 3))
@settings(**SETTINGS)
def test_pair_triple_is_trilinear_extension(x, y, z):
    V = jordan_catalog("kacK")
    pair = double(V)
    assert oracle_tkk.pair_triple(pair, 0, x, y, z) == triple(V, x, y, z)
    assert oracle_tkk.pair_triple(pair, 1, x, y, z) == triple(V, x, y, z)


def test_derivation_kernel_graded_blocks():
    # for a graded algebra the degree-homogeneous pieces exhaust Der, and each
    # piece is the block the Fraction row builder of the oracle finds
    for name, params in [("lambda", (2,)), ("w", (2,)), ("h", (4,)), ("htilde", (4,)),
                         ("pe", (2,)), ("gl", (2, 1))]:
        g = lie_catalog(name, *params)
        shifts = sorted({g.zdegree(r) - g.zdegree(c)
                         for r in range(g.dim) for c in range(g.dim)})
        for parity in (0, 1):
            full = derivation_kernel(g, parity)
            pieces = [derivation_kernel(g, parity, s) for s in shifts]
            assert sum(p.dim for p in pieces) == full.dim, \
                f"graded Der pieces must sum up ({name}, parity {parity})"
            assert all(contains_space(full, p) for p in pieces), name
            assert pieces == [oracle.derivation_kernel(g, parity, s) for s in shifts], name


constants = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool).map(Q)


@st.composite
def homogeneous_tables(draw):
    """A random table homogeneous for a parity and (maybe) a Z-grading: made
    supercommutative, super-anticommutative or left as drawn, and in general
    neither Jordan nor Lie."""
    n = draw(st.integers(1, 5))
    parities = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    graded = draw(st.booleans())
    zdeg = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) if graded else [0] * n
    upper = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if (parities[k] == (parities[i] + parities[j]) % 2
                        and zdeg[k] == zdeg[i] + zdeg[j] and draw(st.booleans())):
                    upper.append((i, j, k, draw(constants)))
    sym = draw(st.sampled_from((1, -1, 0)))
    products = mirror(parities, upper, sym) if sym else upper
    return make_algebra(parities, products, zdeg if graded else None, check=False)


@st.composite
def tables_with_zeros(draw):
    """A table of `homogeneous_tables`, its constants maybe scaled past 2**62
    (so that its integer table holds object-dtype Python ints), with explicit
    zeros added at homogeneous places (which the integer table drops)."""
    a = draw(homogeneous_tables())
    scale = draw(st.sampled_from((1, 2 ** 70 + 1)))
    table = {key: {k: c * scale for k, c in row.items()} for key, row in a.table.items()}
    places = [(i, j, k) for i in range(a.dim) for j in range(a.dim) for k in range(a.dim)
              if a.parity(k) == (a.parity(i) + a.parity(j)) % 2
              and a.zdegree(k) == a.zdegree(i) + a.zdegree(j)]
    for i, j, k in draw(st.lists(st.sampled_from(places), max_size=4)) if places else ():
        table.setdefault((i, j), {}).setdefault(k, Q(0))
    return make_algebra(a.parities, [(i, j, k, c) for (i, j), row in table.items()
                                     for k, c in row.items()],
                        a.zdegrees, name=a.name, kind=a.kind, check=False)


def _is_derivation(a, flat, parity) -> bool:
    """D(xy) = D(x)y + (-1)^{|D||x|} x D(y) on every ordered basis pair, for
    the flattened operator D of the given parity."""
    m, n = oracle.Matrix.unflatten(a.dim, a.dim, flat), a.dim
    for i in range(n):
        for j in range(n):
            x, y = basis_vector(a, i), basis_vector(a, j)
            left = m.apply(a.product(x, y))
            right = [u + (-v if parity * a.parity(i) % 2 else v) for u, v in
                     zip(a.product(m.apply(x), y), a.product(x, m.apply(y)))]
            if list(left) != right:
                return False
    return True


@given(homogeneous_tables())
@settings(max_examples=60, deadline=None)
def test_derivation_kernel_matches_fraction_oracle(a):
    n = a.dim
    der = der_algebra(a)
    assert all(_is_derivation(a, v, p) for p in (0, 1) for v in der.part(p).basis)
    for parity in (0, 1):
        assert derivation_kernel(a, parity) == oracle.derivation_kernel(a, parity)
        for s in {a.zdegree(r) - a.zdegree(c) for r in range(n) for c in range(n)}:
            assert (derivation_kernel(a, parity, s)
                    == oracle.derivation_kernel(a, parity, s)), (parity, s)


def test_der_algebra_of_a_table_without_symmetry():
    # e0*e0 = e0 - e1 and e1*e0 = e0 + 2 e1: the Leibniz equations of the
    # pairs i <= j admit a nonzero operator, those of (1, 0) rule it out
    a = make_algebra((0, 0), [(0, 0, 0, 1), (0, 0, 1, -1), (1, 0, 0, 1), (1, 0, 1, 2)])
    assert der_algebra(a).dims() == (0, 0)
    assert oracle.derivation_kernel(a, 0).dim == 0


@st.composite
def rational_triples(draw):
    """(parities, tables): random triple tables {(i, j, k): {l: c}} on V+ and
    V- with dim V+ != dim V-, at least one odd basis vector,
    parity-homogeneous nonzero rational constants, and in general no
    superpair axiom."""
    dp, dm = draw(st.sampled_from([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]))
    parities = [draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)) for d in (dp, dm)]
    if not any(parities[0] + parities[1]):
        parities[draw(st.integers(0, 1))][0] = 1
    sparsity = draw(st.integers(2, 8))
    tables = []
    for sigma in (0, 1):
        same, other = parities[sigma], parities[1 - sigma]
        table: dict = {}
        for i in range(len(same)):
            for j in range(len(other)):
                for k in range(len(same)):
                    for l in range(len(same)):
                        if (same[l] == (same[i] + other[j] + same[k]) % 2
                                and draw(st.integers(1, sparsity)) == 1):
                            table.setdefault((i, j, k), {})[l] = draw(constants)
        tables.append(table)
    return tuple(map(tuple, parities)), tables


def _pair_of(parities, tables):
    """The JordanPair of rational triple tables, encoded at one denominator."""
    dp, dm = map(len, parities)
    return JordanPair("random", parities,
                      *oracle_tables.encode(tables, [(dp, dm, dp, dp), (dm, dp, dm, dm)]))


@given(rational_triples())
@settings(max_examples=60, deadline=None)
def test_pair_derivation_kernel_matches_fraction_oracle(triples):
    pair = _pair_of(*triples)
    for parity in (0, 1):
        assert pair_der(pair).part(parity) == oracle.pair_derivation_kernel(pair, parity), parity


def _unit_triangular(parities, entry):
    """(P, P**-1) for a unit upper-triangular integer P whose entries above
    the diagonal that join basis vectors of one parity come from entry()."""
    n = len(parities)
    P = np.array([[int(a == b) if a >= b or parities[a] != parities[b] else entry()
                   for b in range(n)] for a in range(n)], dtype=np.int64)
    inv = np.eye(n, dtype=np.int64)  # by back substitution, integer too
    for a in reversed(range(n)):
        inv[a] -= P[a, a + 1:] @ inv[a + 1:]
    return P, inv


@st.composite
def odd_derivation_pairs(draw):
    """The J-functor pair of Ko(V) for a V whose Der(V,V) has odd part of
    dimension 4, in a random homogeneous basis of V+ and one of V-: an
    isomorphic pair, so the odd derivations stay, with denser triples."""
    V = resolve(draw(st.sampled_from(("kacK", "full_matrix:1,1", "form:1,2", "dt:2"))))
    pair = tkk.j_functor(tkk.koecher(V).lie)
    entry = lambda: draw(st.integers(-2, 2))
    (P, Pi), (M, Mi) = (_unit_triangular(p, entry) for p in pair.parities)
    # {f_i, g_j, f_k} for f_i = sum_a P[a, i] e_a, then in the f basis
    plus = np.einsum('ai,bj,ck,abcd,ld->ijkl', P, M, P, pair.tensors[0], Pi)
    minus = np.einsum('ai,bj,ck,abcd,ld->ijkl', M, P, M, pair.tensors[1], Mi)
    return JordanPair(f"{pair.name}~", pair.parities, (plus, minus), pair.den)


@given(odd_derivation_pairs())
@settings(max_examples=20, deadline=None)
def test_pair_derivation_kernel_with_odd_derivations_matches_fraction_oracle(pair):
    # random triples seldom have odd derivations; these always do, so the
    # Koszul signs of the derivation rule on odd X are compared too
    assert pair_der(pair).part(1).dim == 4
    for parity in (0, 1):
        assert pair_der(pair).part(parity) == oracle.pair_derivation_kernel(pair, parity), parity


@given(rational_triples())
@settings(max_examples=40, deadline=None)
def test_a_pair_returns_its_rational_triples_and_is_read_only(triples):
    parities, tables = triples
    pair = _pair_of(parities, tables)
    for sigma, table in enumerate(tables):
        dims = (pair.dim(sigma), pair.dim(1 - sigma), pair.dim(sigma))
        for key in np.ndindex(*dims):
            assert pair.basis_triple(sigma, *key) == table.get(key, {}), (sigma, key)
        T = pair.tensors[sigma]
        with pytest.raises(ValueError):
            T[(0,) * 4] = 1
    # the pair keeps a copy: writing to the arrays it was built from changes nothing
    source, den = oracle_tables.encode(tables, [t.shape for t in pair.tensors])
    copy = JordanPair("copy", parities, source, den)
    source[0][...] += 1
    assert all(copy.basis_triple(0, *key) == tables[0].get(key, {})
               for key in np.ndindex(*copy.tensors[0].shape[:3]))
    with pytest.raises(ValueError, match="do not fit"):  # dim V+ != dim V-
        JordanPair("swapped", parities, source[::-1], den)


@st.composite
def supercommutative_tables(draw):
    """A random supercommutative parity-homogeneous table, in general not Jordan."""
    n = draw(st.integers(1, 4))
    parities = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sparsity = draw(st.integers(2, 6))
    upper = [(i, j, k, draw(constants))
             for i in range(n) for j in range(i, n) for k in range(n)
             if parities[k] == (parities[i] + parities[j]) % 2
             and draw(st.integers(1, sparsity)) == 1]
    return make_algebra(parities, mirror(parities, upper, 1), check=False)


@given(supercommutative_tables())
@settings(max_examples=60, deadline=None)
def test_str_w_matches_fraction_oracle(a):
    got, want = str_w(a), oracle.str_w(a)
    assert (got.even, got.odd) == (want.even, want.odd)


def test_leibniz_blocks_reject_an_inhomogeneous_table():
    # [a, b] = h but [h, a] = b: e_2 * e_0 lands in the wrong degree
    g = SuperAlgebra("bad", (0, 0, 0), [(0, 1, 2, 1), (2, 0, 1, 1)], 1, (1, -1, 0))
    with pytest.raises(ValueError, match="inhomogeneous product: e_2\\*e_0 hits e_1"):
        leibniz_blocks(g)


def _row_set(rows) -> frozenset:
    return frozenset(tuple(sorted(row.items())) for row in rows)


def _assert_same_blocks(got, want, n):
    """Same blocks and columns, and the same distinct rows in each block (got
    gives each column as its flat index r n + c, the oracle as (r, c))."""
    assert got.keys() == want.keys()
    for key, (cols, rows) in got.items():
        want_cols, want_rows = want[key]
        rows = rows.dicts()
        assert tuple(divmod(c, n) for c in cols.tolist()) == want_cols, key
        assert len(rows) == len(want_rows) and _row_set(rows) == _row_set(want_rows), key


@given(homogeneous_tables())
@settings(max_examples=60, deadline=None)
def test_leibniz_blocks_match_the_assembler_oracle(a):
    _assert_same_blocks(leibniz_blocks(a), oracle.leibniz_blocks(a), a.dim)


def test_leibniz_blocks_match_the_oracle_on_fixed_tables():
    # the table without symmetry of the Der test above, and the towers of
    # Ko and Ko~ of small Jordan entries
    algebras = [make_algebra((0, 0), [(0, 0, 0, 1), (0, 0, 1, -1), (1, 0, 0, 1), (1, 0, 1, 2)])]
    for source in ("kacK", "j19", "full_matrix:1,1", "dt:1/2", "form:1,2"):
        V = resolve(source)
        algebras += [tkk.koecher(V).lie, tkk.koecher_tilde(V).lie]
    for a in algebras:
        _assert_same_blocks(leibniz_blocks(a), oracle.leibniz_blocks(a), a.dim)


def _one_first_index_per_chunk(cost, budget=None):
    return ((i, i + 1) for i in range(len(cost)))


@given(homogeneous_tables())
@settings(max_examples=40, deadline=None)
def test_leibniz_blocks_match_the_oracle_one_first_index_per_chunk(a):
    # rows repeated across chunks are removed by the pass over all chunks
    with mock.patch.object(structure, "_runs", _one_first_index_per_chunk):
        got = leibniz_blocks.__wrapped__(a)
    _assert_same_blocks(got, oracle.leibniz_blocks(a), a.dim)


def test_leibniz_blocks_of_the_catalog_match_the_oracle_one_first_index_per_chunk(monkeypatch):
    monkeypatch.setattr(structure, "_runs", _one_first_index_per_chunk)
    algebras = [lie_catalog("w", 2), lie_catalog("q", 2), resolve("kacK")]
    for source in ("kacK", "j19"):
        V = resolve(source)
        algebras += [tkk.koecher(V).lie, tkk.koecher_tilde(V).lie]
    for a in algebras:
        _assert_same_blocks(leibniz_blocks.__wrapped__(a), oracle.leibniz_blocks(a), a.dim)


def _weight_zero_rows(a, weight) -> dict:
    """The rows of the oracle's whole Leibniz system supported on the
    entries D[r, c] with weight[r] == weight[c], per block, over those
    entries' positions: the weight-zero system, read off the oracle."""
    out = {}
    for key, (cols, rows) in oracle.leibniz_blocks(a).items():
        live = [rc for rc in cols if weight[rc[0]] == weight[rc[1]]]
        at = {cols.index(rc): p for p, rc in enumerate(live)}
        out[key] = (tuple(live),
                    [{at[c]: x for c, x in row.items()} for row in rows if row.keys() <= at.keys()])
    return out


@pytest.mark.parametrize("per_index", [False, True])
def test_weight_zero_blocks_are_the_weight_zero_rows_of_the_oracle(per_index, monkeypatch):
    # once the torus weights grade the table, each Leibniz equation lies on
    # weight-zero columns or on none, so the weight-zero system is the rows
    # of the whole system that lie there; also one first index per chunk
    if per_index:
        monkeypatch.setattr(structure, "_runs", _one_first_index_per_chunk)
    algebras = [lie_catalog("w", 2), lie_catalog("w", 3), resolve("sl:2,1"), resolve("q:2"),
                resolve("pe:3"), tkk.koecher(resolve("kacK")).lie]
    for a in algebras:
        weight = tkk._torus(a)[0]
        got = structure.leibniz_weight_zero(a, weight)
        _assert_same_blocks(got, _weight_zero_rows(a, weight.tolist()), a.dim)


@pytest.mark.parametrize("scale", [10 ** 12, 10 ** 20])
def test_leibniz_assembly_proves_its_int64_bound(scale, monkeypatch):
    # sl(2) with e scaled and kacK with xi1 scaled: [e, f] = scale h and
    # xi1 xi2 = scale a.  A Leibniz entry sums at most three constants, so
    # the triplet values stay int64 at 10^12 and take object-dtype Python
    # ints at 10^20.  The pair derivations and str_w of the scaled kacK are
    # the trilinear rule, an entry of which sums four triple constants of
    # size up to 8 scale: int64 at 10^12 and Python ints at 10^20 as well.
    # Every cast is checked against its own bound, and each value cast of an
    # assembly against r + 1 times the largest value of its chunk.
    casts, bounds = [], []
    cast, assemble = exact.int_dtype, structure.primitive_row_blocks

    def spy(bound):
        dtype = cast(bound)
        casts.append((sys._getframe(1).f_code.co_name, bound, dtype))
        return dtype

    def assembly(r):
        """primitive_row_blocks for an r-linear rule, recording the bound
        (r + 1) max|val| that each chunk's value cast must prove."""
        def run(chunks, terms, *args):
            assert terms == r + 1

            def seen():
                for eq, col, val in chunks:
                    if len(eq):
                        bounds.append(terms * int(np.abs(val).max()))
                    yield eq, col, val
            return assemble(seen(), terms, *args)
        return run

    monkeypatch.setattr(exact, "int_dtype", spy)
    lie = _rescaled(_sl2(), [Q(scale), Q(1), Q(1)])
    jordan = _rescaled(jordan_catalog("kacK"), [Q(1), Q(scale), Q(1)])
    monkeypatch.setattr(structure, "primitive_row_blocks", assembly(2))
    for a in (lie, jordan):
        _assert_same_blocks(leibniz_blocks(a), oracle.leibniz_blocks(a), a.dim)
    assert tkk.lie_der_tower(lie) == tkk.lie_der_tower(_sl2())
    proved = {bound < 2 ** 62 for caller, bound, _ in casts if caller == "primitive_row_blocks"}
    assert proved == ({True} if 3 * scale < 2 ** 62 else {True, False})  # the keys fit
    leibniz = len(bounds)
    monkeypatch.setattr(structure, "primitive_row_blocks", assembly(3))
    for parity in (0, 1):
        assert pair_der(jordan).part(parity) == oracle.pair_derivation_kernel(double(jordan), parity)
    got, want = str_w(jordan), oracle.str_w(jordan)
    assert (got.even, got.odd) == (want.even, want.odd)
    assert {bound < 2 ** 62 for bound in bounds[leibniz:]} == {scale == 10 ** 12}
    # a chunk casts its values, then its keys
    assert [bound for caller, bound, _ in casts if caller == "primitive_row_blocks"][::2] == bounds
    assert all((dtype is np.int64) == (bound < 2 ** 62) for _, bound, dtype in casts)


def test_row_hash_collisions_fall_back_to_exact_comparison(monkeypatch):
    # every row hashed alike: deduplication must still keep exactly the
    # distinct rows, through the comparison of tuples
    monkeypatch.setattr(exact, "_row_hashes",
                        lambda starts, lens, cols, vals: np.zeros(len(starts), dtype=np.uint64))
    for a in (lie_catalog("w", 2), lie_catalog("q", 2), resolve("kacK")):
        _assert_same_blocks(leibniz_blocks.__wrapped__(a), oracle.leibniz_blocks(a), a.dim)


def test_leibniz_system_is_assembled_once(monkeypatch):
    # the ungraded kernel the checked tower compares with and der_algebra
    # share one assembly; the tower itself assembles only its weight-zero
    # part (tkk.lie_der_tower)
    calls = []

    def counted(a):
        calls.append(a)
        return leibniz_blocks.__wrapped__(a)

    spy = memoized(counted)
    monkeypatch.setattr(structure, "leibniz_blocks", spy)
    g = load_algebra(save_algebra(lie_catalog("w", 2)))  # fresh: an empty memo
    oracle_tkk.checked_lie_der_tower(g)
    der_algebra(g)
    assert calls == [g]


def test_kernel_bases_are_eliminated_once(monkeypatch):
    # integer_kernel's basis is canonical already: Der, the pair derivations,
    # str_w and the centre take it as it is (scattered by Subspace.embedded),
    # and no Subspace(ambient, vectors) eliminates it a second time
    kack, w2 = resolve("kacK"), lie_catalog("w", 2)
    V, g = (load_algebra(save_algebra(a)) for a in (kack, w2))  # fresh: empty memos

    def spaces(V, g):
        return der_algebra(V).dims(), pair_der(V).dims(), str_w(V).dims(), center(g).dim

    def refuse(rows):
        raise AssertionError("a canonical kernel basis was eliminated again")

    want = spaces(kack, w2)
    monkeypatch.setattr(exact, "primitive_rows", refuse)
    assert spaces(V, g) == want


def test_leibniz_rows_reach_the_integer_kernel_as_assembled(monkeypatch):
    # the block rows are primitive and distinct already: lie_der_tower counts
    # the rows of its weight-zero system as they are, in one system with each
    # block's columns offset past the blocks before it, and derivation_kernel
    # hands the rows of leibniz_blocks to integer_kernel; neither calls
    # kernel_sparse and its second primitive_rows pass (structure and tkk do
    # not even bind it)
    assert not hasattr(structure, "kernel_sparse") and not hasattr(tkk, "kernel_sparse")
    g = load_algebra(save_algebra(lie_catalog("w", 2)))
    blocks = leibniz_weight_zero(g, tkk._torus(g)[0])
    passed = []

    def spy(rows, ncols):
        passed.append(rows)
        return exact.integer_kernel(rows, ncols)

    def count(rows, ncols):
        passed.append(rows)
        return exact.kernel_columns(rows, ncols)

    def refuse(rows, ncols):
        raise AssertionError("kernel_sparse called on Leibniz rows")

    monkeypatch.setattr(structure, "integer_kernel", spy)
    monkeypatch.setattr(tkk, "kernel_columns", count)
    monkeypatch.setattr(exact, "kernel_sparse", refuse)
    tkk.lie_der_tower(g)
    (got,) = passed
    parts = [rows for _, rows in blocks.values()]
    lo = np.cumsum([0] + [len(cols) for cols, _ in blocks.values()])
    assert got.lens.tolist() == np.concatenate([r.lens for r in parts]).tolist()
    assert got.cols.tolist() == np.concatenate([r.cols + at for r, at in zip(parts, lo)]).tolist()
    assert got.vals.tolist() == np.concatenate([r.vals for r in parts]).tolist()
    passed.clear()
    assert derivation_kernel(g, 0) == oracle.derivation_kernel(g, 0)  # every even block
    rows = passed[0].dicts()
    assert len(passed) == 1 and exact.primitive_rows(rows) == rows


def test_operator_space_basis_roundtrip():
    V = jordan_catalog("kacK")
    # the basis as an integer stack, read back, is the basis and lies inside
    for sp in (istr_algebra(V), pair_der(V)):
        ops = sp.stack
        flats = [tuple(Q(int(x), ops.den) for x in row) for row in ops.flats().tolist()]
        assert flats == list(sp.even.basis + sp.odd.basis)
        for flat, parity in zip(flats, ops.parities.tolist()):
            assert contains(sp.part(parity), flat)


def test_operator_space_sum_and_intersect():
    V = jordan_catalog("j19")
    ls, inn = l_space(V), inn_algebra(V)
    assert ls.sum(inn).dims() == (2, 0)  # L_{e2} already lies in Inn
    meet = ls.intersect(inn)
    assert meet.dims() == (1, 0)
    assert contains(meet.even, l_flat(V, 1))


def test_symmetry_is_checked_once_per_algebra(monkeypatch):
    # make_algebra checks the symmetry of a Lie or Jordan table once; the
    # memoized check then decides whether leibniz_blocks may halve the
    # system of the tower (Lie) or of Der (Jordan)
    from collections import Counter

    from supertkk import superspace
    from supertkk.tkk import lie_der_tower

    sources = ("sl:2,1", "w:2", "psl:2,2", "kacK", "full_matrix:1,1")
    data = [save_algebra(resolve(s)) for s in sources]
    passes = Counter()

    def spied(check):
        """check, memoized afresh, counting the passes it makes."""
        @functools.wraps(check)
        def spy(a):
            passes[a] += 1
            return check(a)
        return superspace.memoized(spy)

    for name in ("check_supercommutative", "check_superanticommutative"):
        check = spied(getattr(superspace, name).__wrapped__)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("supertkk") and hasattr(module, name):
                monkeypatch.setattr(module, name, check)
    loaded = []
    for blob in data:
        g = load_algebra(blob)
        loaded.append(g)
        lie_der_tower(g) if g.kind == "lie" else der_algebra(g)
    assert [passes[g] for g in loaded] == [1] * len(sources)
    assert set(passes) == set(loaded)
