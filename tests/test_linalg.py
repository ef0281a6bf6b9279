"""Exact linear algebra: kernels, solving, subspace lattice, canonical forms."""

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle_linalg as oracle
from pyrun import run_python
from supertkk import exact
from supertkk.catalog import lie_catalog, load_algebra, resolve, save_algebra
from supertkk.exact import (
    CertificateError, GeneratedSpan, IntRows, Q, Matrix, Subspace, integer_kernel,
    kernel_columns, kernel_sparse, primitive_rows, solve, span,
)
from supertkk.structure import leibniz_blocks
from supertkk.superspace import make_algebra
from supertkk.tkk import lie_der_tower

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


def test_q_keeps_an_existing_rational():
    x = Q(-4, 6)
    assert Q(x) is x
    assert (Q(3), Q("2/4"), Q(1, 2)) == (Fraction(3), Fraction(1, 2), Fraction(1, 2))
    assert type(Q(3)) is type(x) and Q(Q(3)) == 3


def test_kernel_identity_and_zero():
    assert integer_kernel(IntRows.from_dicts([{0: 1}, {1: 1}]), 2).dim == 0
    full = integer_kernel(IntRows.from_dicts([]), 3)
    assert full.dim == 3 and full == Subspace.full(3)
    assert kernel_sparse([{0: Q(0)}, {}], 3) == list(full.basis)  # zero rows


def test_kernel_rank_one():
    # [[1,2],[2,4]] has kernel spanned by (2,-1); canonical form (1,-1/2)
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert kernel_sparse(rows, 2) == [(Q(1), Q(-1, 2))]
    ker = integer_kernel(IntRows.from_dicts(primitive_rows(rows)), 2)
    assert ker.dim == 1
    assert ker.basis == ((Q(1), Q(-1, 2)),) and ker.pivots == (0,)
    assert oracle.contains(ker, (2, -1))


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
    a, b = Subspace(5, us), Subspace(5, ws)
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


@given(st.lists(vecs(3), min_size=3, max_size=3), vecs(3))
@settings(**SETTINGS)
def test_solve_verifies(rows, x):
    m = oracle.Matrix(rows)
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None and m.apply(got) == b


@given(st.lists(vecs(4), min_size=1, max_size=6))
@settings(**SETTINGS)
def test_kernel_orthogonal_to_rows(rows):
    m = oracle.Matrix(rows)
    ker = kernel_sparse([{c: x for c, x in enumerate(r) if x} for r in rows], 4)
    assert len(ker) + Subspace(4, rows).dim == 4
    for v in ker:
        assert all(not x for x in m.apply(v))


def test_subspace_contains_and_coordinates():
    s = span([(1, 0, 2), (0, 1, -1)])
    assert oracle.contains(s, (2, 3, 1))
    coords = oracle.coordinates(s, (2, 3, 1))
    assert coords == (Q(2), Q(3))
    assert not oracle.contains(s, (0, 0, 1))
    assert oracle.coordinates(s, (0, 0, 1)) is None
    assert oracle.reduce(s, (2, 3, 2)) == [0, 0, 1]


def test_subspace_reads_a_zero_string_as_zero():
    # "p/q" strings are exact rationals too, and "0", though a truthy
    # string, is no entry of the row, let alone its pivot
    s = Subspace(2, [("0", "1/2")])
    assert s == Subspace(2, [(0, 1)]) and s.pivots == (1,)


def test_generated_span_expresses_members():
    gens = GeneratedSpan([(1, 1, 0), (0, 1, 1), (1, 2, 1)], 3)
    assert gens.independent == (0, 1) and gens.dim == 2  # the third is dependent
    combo = gens.express((2, 3, 1))
    assert combo == (Q(2), Q(1), Q(0))
    target = [Q(0)] * 3
    for c, gen in zip(combo, [(1, 1, 0), (0, 1, 1), (1, 2, 1)]):
        for i, g in enumerate(gen):
            target[i] += c * Q(g)
    assert tuple(target) == (Q(2), Q(3), Q(1))
    assert gens.express((1, 0, 1)) is None
    assert GeneratedSpan([], 2).express((0, 0)) == ()
    assert GeneratedSpan([], 2).express((0, 1)) is None


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


# ---------------------------------------------------------------------------
# the sparse kernel certificate


def _integer_vectors(basis) -> list[dict]:
    """Rational vectors scaled to sparse integer vectors."""
    out = []
    for v in basis:
        m = lcm(*(int(x.denominator) for x in v))
        out.append({j: int(x * m) for j, x in enumerate(v) if x})
    return out


certificate_entries = st.one_of(st.integers(-9, 9), st.integers(-9, 9),
                                st.integers(-10 ** 20, 10 ** 20)).filter(bool)


@st.composite
def certificate_cases(draw):
    """(rows, vectors, ncols): sparse integer rows, some entries past int64,
    and either their own kernel basis or random sparse vectors."""
    n = draw(st.integers(1, 8))
    rows, vecs = (draw(st.lists(st.dictionaries(st.integers(0, n - 1), certificate_entries,
                                                min_size=least, max_size=n),
                                min_size=least, max_size=most))
                  for least, most in ((0, 8), (1, 4)))
    if draw(st.booleans()):
        vecs = _integer_vectors(integer_kernel(IntRows.from_dicts(primitive_rows(rows)), n).basis)
    return rows, vecs, n


def _assert_join_matches_the_dense_check(case):
    rows, vecs, n = case
    bad, missed = exact._verify_kernel(IntRows.from_dicts(rows), IntRows.from_dicts(vecs), n)
    assert (not bad.any()) == oracle.verify_kernel(*case)
    assert bad.tolist() == [not oracle.verify_kernel(rows, [v], n) for v in vecs]
    assert missed.tolist() == [not oracle.verify_kernel([r], vecs, n) for r in rows if r]


@given(certificate_cases())
@example(([], [{0: 2 ** 63}], 1))  # no row: the bound still covers casting the vectors
@settings(**SETTINGS)
def test_sparse_kernel_certificate_matches_the_dense_check(case):
    _assert_join_matches_the_dense_check(case)


@given(certificate_cases())
@settings(**SETTINGS)
def test_sparse_kernel_certificate_matches_the_dense_check_one_row_per_chunk(case):
    # a chunk always holds whole ranges, so one product budget per chunk runs
    # every row entry in a chunk of its own, and a row's sums stay open
    # across the chunks of its entries
    with mock.patch.object(exact, "_KERNEL_CHUNK", 1):
        _assert_join_matches_the_dense_check(case)


@st.composite
def keyed_values(draw):
    """Keys from a small range, so that they repeat, and values that often
    cancel: int64, or object-dtype Python ints beyond 2**63."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)), max_size=30))
    big = draw(st.sampled_from([0, 2 ** 70]))
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    vals = [v * (big or 1) for _, v in pairs]
    return keys, np.array(vals, dtype=object if big else np.int64)


@given(keyed_values())
@example((np.array([2, 0, 2]), np.array([5, 1, -5])))  # key 2 cancels
@example((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)))
@settings(**SETTINGS)
def test_sum_by_key_matches_a_dict_sum(case):
    keys, vals = case
    want: dict = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        want[k] = want.get(k, 0) + v
    got_keys, sums = exact.sum_by_key(keys, vals)
    assert sums.dtype == vals.dtype
    assert list(zip(got_keys.tolist(), sums.tolist())) == sorted(
        (k, v) for k, v in want.items() if v)


@given(st.sampled_from([0, 1, 5, 17, 2000, 30000]), st.integers(1, 60), st.integers(0, 2 ** 32))
@settings(**SETTINGS)
def test_first_occurrences_match_np_unique(size, distinct, seed):
    # row hashes with repeats, long enough that the unstable sort moves equal
    # hashes: the first index of each hash, and the first index of every
    # entry's hash, as the stable np.unique that `_distinct_rows` used
    rng = np.random.default_rng(seed)
    h = rng.integers(0, distinct, size).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    got, rep = exact._first_occurrences(h)
    assert got.tolist() == sorted(first.tolist())
    assert rep.tolist() == first[inverse.reshape(-1)].tolist()


def test_int_dtype_leaves_room_for_a_sum_of_two():
    # int64 holds values below 2**62, so that the sum or difference of two
    # of them stays in range; from 2**62 on the values are Python ints
    assert exact.int_dtype(2 ** 62 - 1) is np.int64 and exact.int_dtype(2 ** 62) is object
    top = np.array([2 ** 62 - 1, 1 - 2 ** 62], dtype=exact.int_dtype(2 ** 62 - 1))
    assert (top + top).tolist() == [2 ** 63 - 2, 2 - 2 ** 63]
    a = make_algebra([0], [(0, 0, 0, 2 ** 62)])
    assert a.int_table.value.dtype == object and a.int_table.top == 2 ** 62


def test_raising_one_kernel_entry_fails_the_certificate():
    # the Leibniz blocks of w(3): each kernel vector raised by 1 at a column
    # some row uses no longer kills every row, on both checks
    g = lie_catalog("w", 3)
    for cols, rows in leibniz_blocks(g).values():
        vecs = _integer_vectors(integer_kernel(rows, len(cols)).basis)
        assert not exact._verify_kernel(rows, IntRows.from_dicts(vecs), len(cols))[0].any()
        used = sorted(set(rows.cols.tolist()))
        for k, v in enumerate(vecs[:4]):
            j = next((c for c in v if c in used), used[0])
            bad = [dict(u) for u in vecs]
            bad[k][j] = bad[k].get(j, 0) + 1
            assert np.flatnonzero(exact._verify_kernel(rows, IntRows.from_dicts(bad),
                                                       len(cols))[0]).tolist() == [k]
            assert not oracle.verify_kernel(rows.dicts(), bad, len(cols))


def _raise_one_entry(vecs, used):
    # the first entry, of the first vector, on a column some row uses
    k, c = next((k, c) for k, v in enumerate(vecs) for c in v if c in used)
    vecs[k][c] += 1


def _copy_one_vector(vecs, used):
    vecs[1] = dict(vecs[0])


def _zero_one_vector(vecs, used):
    vecs[0] = dict.fromkeys(vecs[0], 0)


@pytest.mark.parametrize("fault", [_raise_one_entry, _copy_one_vector, _zero_one_vector],
                         ids=["raised entry", "copied vector", "zero vector"])
def test_a_perturbed_free_vector_fails_the_count_certificate(fault, monkeypatch):
    # the tower of w(3) counts its derivations from one vector per free
    # column: a vector that no longer kills every row, two vectors on one
    # free column (so none on the other), or a zero vector (which kills
    # every row, on no free column) must fail the count
    read = exact._free_vectors

    def perturbed(root, sign, rows):
        rank, free, vecs = read(root, sign, rows)
        fault(vecs, {c for r in rows for c in r})  # a root a core row uses
        return rank, free, vecs

    g = load_algebra(save_algebra(lie_catalog("w", 3)))  # fresh: an empty memo
    monkeypatch.setattr(exact, "_free_vectors", perturbed)
    with pytest.raises(CertificateError, match="kernel verification failed"):
        lie_der_tower(g)


def test_a_dropped_free_vector_fails_the_count_certificate(monkeypatch):
    # the last free column and its vector dropped: the vectors left are each
    # alone on their own free column and kill every row, so only the count
    # of ncols - rank free columns sees the lost kernel dimension
    read = exact._free_vectors

    def dropped(root, sign, rows):
        rank, free, vecs = read(root, sign, rows)
        return rank, free[:-1], vecs[:-1]

    g = load_algebra(save_algebra(lie_catalog("w", 3)))  # fresh: an empty memo
    monkeypatch.setattr(exact, "_free_vectors", dropped)
    with pytest.raises(CertificateError, match="kernel verification failed"):
        lie_der_tower(g)


def test_certifying_the_tower_of_w5_stays_in_bounded_memory(monkeypatch):
    # the joins of fingerprint(w(5))'s whole Leibniz system (366,325 rows,
    # 870,505 entries, 25,600 columns) with its 160 kernel vectors, then
    # with its 160 ad rows, traced: each peaks at 12.2 MiB (numpy 2.4)
    verify, peaks = exact._verify_kernel, []

    def traced(int_rows, vecs, ncols):
        tracemalloc.start()
        try:
            return verify(int_rows, vecs, ncols)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    g = load_algebra(save_algebra(resolve("w:5")))  # fresh: an empty memo
    monkeypatch.setattr(exact, "_verify_kernel", traced)
    lie_der_tower(g)
    assert len(peaks) == 2 and max(peaks) < 16 * 2 ** 20, peaks


@pytest.mark.parametrize("scale", [10 ** 6, 10 ** 12])
def test_kernel_certificate_proves_its_int64_bound(scale, monkeypatch):
    # rows and kernel vectors with entries near the scale: max|row| *
    # max|v| * (longest row) is 2 * 10^12 or 2 * 10^24, so the certificate
    # runs in int64 at 10^6 and on object-dtype Python ints at 10^12
    rows = [{0: Q(1), 1: Q(scale)}, {2: Q(1), 3: Q(1, scale)}, {0: Q(2), 4: Q(-scale)}]
    casts = []
    cast = exact.int_dtype

    def spy(bound):
        dtype = cast(bound)
        casts.append((sys._getframe(1).f_code.co_name, bound < 2 ** 62, dtype))
        return dtype

    monkeypatch.setattr(exact, "int_dtype", spy)
    ker = kernel_sparse(rows, 5)
    assert _canonical(Subspace(5, ker)) == oracle.kernel(rows, 5)
    proved = {ok for caller, ok, _ in casts if caller == "_verify_kernel"}
    assert proved == ({True} if scale < 10 ** 12 else {False})
    assert all((dtype is np.int64) == ok for _, ok, dtype in casts)


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


# ---------------------------------------------------------------------------
# the structured-elimination pre-pass of integer_kernel


units = st.one_of(st.integers(1, 9), st.just(2 ** 62 + 3), st.just(2 ** 70))


@st.composite
def structured_systems(draw):
    """(rows, ncols): integer rows built from the shapes the pre-pass
    absorbs or must leave alone, in any order, over shared columns."""
    n = draw(st.integers(0, 9))
    rows = []
    col = st.integers(0, n - 1) if n else st.nothing()
    pairs = st.lists(col, min_size=2, max_size=2, unique=True)
    sign = st.sampled_from([1, -1])
    for shape in draw(st.lists(st.sampled_from(
            ["singleton", "unit", "chain", "cycle", "late unit", "non-unit", "dense"]),
            max_size=8 if n >= 3 else 0)):
        a = draw(units) * draw(sign)
        if shape == "singleton":  # x_c = 0
            rows.append({draw(col): a})
        elif shape == "unit":  # a x_c + (+-a) x_d: x_d = -+x_c
            c, d = draw(pairs)
            rows.append({c: a, d: a * draw(sign)})
        elif shape == "chain":  # x_0 = +-x_1 = ... along a run of columns
            run = draw(st.lists(col, min_size=2, max_size=n, unique=True))
            rows += [{c: a, d: a * draw(sign)} for c, d in zip(run, run[1:])]
        elif shape == "cycle":  # x_c = x_d and x_d = -x_c: both are 0
            c, d = draw(pairs)
            rows += [{c: a, d: -a}, {c: a, d: a}]
        elif shape == "late unit":  # (k - 1) x_c + x_e + k x_d, then x_e = x_c
            c, d, e = draw(st.lists(col, min_size=3, max_size=3, unique=True))
            k = draw(st.integers(-4, 4).filter(bool))
            rows += [{e: 1, c: -1}, {c: k - 1, e: 1, d: k * draw(sign)}]
        elif shape == "non-unit":  # 2 x_c = 3 x_d stays in the core
            c, d = draw(pairs)
            rows.append({c: 2 * a, d: -3 * a})
        else:
            rows.append(draw(st.dictionaries(col, st.integers(-5, 5).filter(bool), max_size=n)))
    if rows and draw(st.booleans()):
        rows.append(dict(rows[0]))  # a repeated row
    order = draw(st.permutations(range(len(rows))))
    return [{c: x for c, x in rows[i].items() if x} for i in order], n


@given(structured_systems())
@settings(max_examples=200, deadline=None)
def test_structured_elimination_matches_the_all_rows_oracle(system):
    rows, n = system
    got = integer_kernel(IntRows.from_dicts(rows), n)
    assert list(got.basis) == oracle.integer_kernel([r for r in rows if r], n)
    assert _canonical(Subspace(n, got.basis)) == _canonical(got)  # canonical
    assert len(kernel_columns(IntRows.from_dicts(rows), n)) == got.dim


def test_structured_elimination_of_degenerate_systems():
    assert integer_kernel(IntRows.from_dicts([]), 0).basis == ()
    assert integer_kernel(IntRows.from_dicts([]), 2).basis == ((1, 0), (0, 1))
    # every row absorbed: x_1 = -x_0, x_2 = x_1, x_3 = 0, and two rows that
    # substitution empties
    rows = [{0: 1, 1: 1}, {1: 1, 2: -1}, {3: 5}, {0: 1, 2: 1}, {1: 2 ** 70, 2: -2 ** 70}]
    got = integer_kernel(IntRows.from_dicts(rows), 5)
    assert list(got.basis) == oracle.integer_kernel(rows, 5)
    assert got.basis == ((1, -1, -1, 0, 0), (0, 0, 0, 0, 1)) and got.pivots == (0, 4)


def test_only_the_core_reaches_the_elimination(monkeypatch):
    calls = []
    echelon = exact._echelon

    def spy(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(exact, "_echelon", spy)
    # ties and zeros leave one core row, x_0 + 2 x_4 once x_2 = 0 and x_3 = x_0
    rows = [{0: 1, 1: -1}, {2: 3}, {3: 1, 0: -1}, {0: 1, 2: 1, 3: -2, 4: 2}]
    integer_kernel(IntRows.from_dicts(rows), 5)
    assert calls[0] == [{0: -1, 4: 2}]
    # nothing to absorb: the rows reach the elimination as they are
    calls.clear()
    rows = [{0: 1, 1: 2}, {0: 3, 2: 1, 3: 1}]
    integer_kernel(IntRows.from_dicts(rows), 4)
    assert calls[0] == rows


# ---------------------------------------------------------------------------
# tall systems: the core eliminated on its shortest rows, then on the rows missed


@st.composite
def tall_systems(draw):
    """(rows, ncols): the distinct primitive combinations, coefficients in
    -3..3, of two or three integer rows (the first at times scaled by 2**40,
    which puts the joins on Python ints), then a few rows that may lie off
    their span: more rows than columns by far, most of them dependent, and
    more entries than a dense system of 2 * ncols rows (`exact._tall`)."""
    n = draw(st.integers(2, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    base = draw(st.lists(row, min_size=2, max_size=3))
    base[0] = [x * draw(st.sampled_from([1, 1, 1, 2 ** 40])) for x in base[0]]
    coefficients = product(range(-3, 4), repeat=len(base))
    rows = [{c: sum(a * b[c] for a, b in zip(coef, base)) for c in range(n)} for coef in coefficients]
    rows = primitive_rows(rows + [dict(enumerate(r)) for r in draw(st.lists(row, max_size=2))])
    assume(exact._tall(IntRows.from_dicts(rows), n))
    return rows, n


def _assert_tall_kernel_matches_the_oracle(system):
    rows, n = system
    want = oracle.integer_kernel(rows, n)
    assert list(integer_kernel(IntRows.from_dicts(rows), n).basis) == want
    assert len(kernel_columns(IntRows.from_dicts(rows), n)) == len(want)


@given(tall_systems())
@settings(**SETTINGS)
def test_tall_kernel_matches_the_all_rows_oracle(system):
    _assert_tall_kernel_matches_the_oracle(system)


@given(tall_systems())
@settings(**SETTINGS)
def test_tall_kernel_matches_the_all_rows_oracle_one_product_per_chunk(system):
    # every row entry's range is a chunk of its own in both joins
    with mock.patch.object(exact, "_KERNEL_CHUNK", 1):
        _assert_tall_kernel_matches_the_oracle(system)


def _shortest_rows_miss_the_rank():
    """(rows, ncols): every primitive combination of u = (1, 2, 0, 0) and
    w = (0, 1, 3, 0) with coefficients in -3..3, then x_0 + x_1 + x_2 + x_3:
    17 rows and 49 entries, more than a dense system of 8 rows, of rank 3,
    whose 8 shortest rows lie in the span of u and w."""
    u, w = (1, 2, 0, 0), (0, 1, 3, 0)
    rows = primitive_rows({c: a * x + b * y for c, (x, y) in enumerate(zip(u, w)) if a * x + b * y}
                          for a in range(-3, 4) for b in range(-3, 4))
    return rows + [{0: 1, 1: 1, 2: 1, 3: 1}], 4


def test_a_tall_system_eliminates_the_rows_its_shortest_miss(monkeypatch):
    rows, n = _shortest_rows_miss_the_rank()
    calls, absorbed = [], []
    read, absorb = exact._free_vectors, exact._absorb

    def spy(root, sign, eliminated):
        calls.append((len(eliminated), eliminated[-1]))
        return read(root, sign, eliminated)

    def absorb_spy(int_rows, ncols):
        absorbed.append(len(int_rows))
        return absorb(int_rows, ncols)

    monkeypatch.setattr(exact, "_free_vectors", spy)
    monkeypatch.setattr(exact, "_absorb", absorb_spy)
    assert exact._tall(IntRows.from_dicts(rows), n)
    assert list(integer_kernel(IntRows.from_dicts(rows), n).basis) == oracle.integer_kernel(rows, n)
    assert kernel_columns(IntRows.from_dicts(rows), n).tolist() == [3]
    # each a first round on the 8 shortest rows, then a second with the one
    # row whose vectors the first did not kill, the last, added; the second
    # round reuses the first's pre-pass, so each kernel runs `_absorb` once
    assert calls == [(8, {0: 3, 1: 4, 2: -6}), (9, rows[-1])] * 2
    assert absorbed == [len(rows)] * 2


ABSORB_FAULT = """
import sys
import numpy as np
from supertkk import exact
absorb = exact._absorb
def broken(rows, ncols):
    root, sign, core = absorb(rows, ncols)
    sign = sign.copy()
    if sys.argv[1] == "flip":  # one tied column takes the other sign
        c = np.flatnonzero((root != np.arange(ncols)) & (sign != 0))[0]
        sign[c] = -sign[c]
    else:  # one column forced to 0 is free again
        sign[np.flatnonzero(sign == 0)[0]] = 1
    return root, sign, core
exact._absorb = broken
exact.kernel_sparse([{0: 1, 1: -1}, {1: 1, 2: 1}, {3: 4}, {3: 1, 4: 1, 5: 2}], 6)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python_O"])
@pytest.mark.parametrize("fault", ["flip", "forget"])
def test_absorption_faults_fail_the_certificate(fault, flags):
    done = run_python(flags, ABSORB_FAULT.replace("sys.argv[1]", repr(fault)))
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: kernel verification failed"
            in done.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("scale", [1, 10 ** 12])
def test_absorption_proves_its_int64_bound(scale, monkeypatch):
    # the longest row (3 entries) times max|entry| (2 * scale**2) bounds
    # every sum of the pre-pass: int64 at 1, object-dtype Python ints at 10^12
    rows = [{0: 1, 1: -1}, {1: scale, 2: scale}, {2: 2 * scale ** 2, 3: 3, 4: 1}, {4: 1}]
    casts = []
    cast = exact.int_dtype

    def spy(bound):
        dtype = cast(bound)
        casts.append((sys._getframe(1).f_code.co_name, bound < 2 ** 62, dtype))
        return dtype

    monkeypatch.setattr(exact, "int_dtype", spy)
    assert list(integer_kernel(IntRows.from_dicts(rows), 5).basis) == oracle.integer_kernel(rows, 5)
    proved = [ok for caller, ok, _ in casts if caller == "_absorb"]
    assert proved == ([True, True] if scale == 1 else [False, True])  # values, then keys
    assert all((dtype is np.int64) == ok for _, ok, dtype in casts)


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
def test_kernel_of_repeated_rows_matches_dense_oracle(system, data):
    n, vectors = system
    rows = [{c: x for c, x in enumerate(v) if x} for v in _with_repeats(data, vectors, n)]
    got = integer_kernel(IntRows.from_dicts(primitive_rows(rows)), n)
    assert _canonical(got) == oracle.kernel(rows, n)
    assert kernel_sparse(rows, n) == list(got.basis)


@st.composite
def embeddings(draw):
    """(space, positions, ambient): a canonical Subspace of Q^n, from a
    spanning set or as a kernel, and n strictly increasing positions inside
    range(ambient)."""
    n, vectors = draw(dense_systems())
    if draw(st.booleans()):
        space = Subspace(n, vectors)
    else:
        rows = [{c: x for c, x in enumerate(v) if x} for v in vectors]
        space = integer_kernel(IntRows.from_dicts(primitive_rows(rows)), n)
    ambient = n + draw(st.integers(0, 6))
    positions = sorted(draw(st.lists(st.integers(0, ambient - 1), min_size=n, max_size=n,
                                     unique=True)))
    return space, positions, ambient


@given(embeddings())
@settings(**SETTINGS)
def test_embedded_matches_the_re_elimination_oracle(case):
    space, positions, ambient = case
    got = space.embedded(positions, ambient)
    want = oracle._kernel_space(space.basis, positions, ambient)
    assert got == want and _canonical(got) == _canonical(want)


@pytest.mark.parametrize("positions,message", [
    ([3, 1, 4], "increase strictly"), ([0, 0, 4], "increase strictly"),
    ([1, 3, 5], "increase strictly"), ([-1, 0, 2], "increase strictly"),
    ([0, 1], "ambient dimension mismatch"),
], ids=["decreasing", "repeated", "past the end", "negative", "too few"])
def test_embedded_refuses_positions_that_break_the_canonical_basis(positions, message):
    plane = Subspace(3, [(1, 0, 2), (0, 1, -1)])
    with pytest.raises(ValueError, match=message):
        plane.embedded(positions, 5)


@given(dense_systems(), st.data())
@settings(**SETTINGS)
def test_solve_matches_dense_oracle(system, data):
    n, vectors = system
    m = oracle.Matrix(_with_repeats(data, vectors, n) or [(Q(0),) * n])
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


def _greedy_independent(n, gens):
    """Indices a left-to-right scan keeps because they grow the span."""
    kept, grown = [], Subspace(n)
    for i, g in enumerate(gens):
        bigger = Subspace(n, list(grown.basis) + [g])
        if bigger.dim > grown.dim:
            kept.append(i)
            grown = bigger
    return tuple(kept)


# generators of different denominators in the hyperplane x_3 = 0 (the last
# is 2 g_0 - g_1), member coefficients whose denominators none of them has,
# and a vector outside
MIXED_GENS = [(Q(1, 2), Q(1, 3), Q(0), Q(0)), (Q(0), Q(1, 5), Q(2, 7), Q(0)),
              (Q(1, 4), Q(0), Q(-1, 6), Q(0)), (Q(1), Q(7, 15), Q(-2, 7), Q(0))]
MIXED_MEMBERS = [(Q(1, 11), Q(-3, 13), Q(5, 17), Q(0)), (Q(0), Q(0), Q(0), Q(9, 19))]


@given(dense_systems(), st.data())
@example((4, MIXED_GENS), None)
@settings(**SETTINGS)
def test_generated_span_matches_span_solver_oracle(system, data):
    n, gens = system
    if data is None:  # the explicit example above
        coefficients, outside = MIXED_MEMBERS, (Q(1, 3), Q(0), Q(0), Q(1, 9))
    else:
        gens = _with_repeats(data, gens, n)
        coefficients, outside = [data.draw(vecs(len(gens)))], data.draw(vecs(n))
    ours = GeneratedSpan(gens, n)
    theirs = oracle.SpanSolver(n)
    added = [theirs.add(g) for g in gens]
    assert ours.independent == _greedy_independent(n, gens)
    assert ours.independent == tuple(i for i, grew in enumerate(added) if grew)
    m = oracle.Matrix.from_columns(gens) if gens else None
    members = [m.apply(c) for c in coefficients] if gens else [(Q(0),) * n]
    for v in (*members, outside):  # the last is usually outside
        got = ours.express(v)
        assert got == theirs.express(v)
        if gens:
            assert got == oracle.solve(m, v)


@given(dense_systems(), st.data())
@settings(**SETTINGS)
def test_outside_the_span_is_none_on_both_sides(system, data):
    """Negative control: every generator is 0 in the last coordinate, the
    target is not."""
    n, gens = system
    gens = _with_repeats(data, [g[:-1] + (Q(0),) for g in gens], n)
    v = data.draw(vecs(n - 1)) + (data.draw(st.sampled_from([1, Q(-2, 3)])),)
    assert GeneratedSpan(gens, n).express(v) is None
    solver = oracle.SpanSolver(n)
    for g in gens:
        solver.add(g)
    assert solver.express(v) is None
    if gens:
        assert oracle.solve(Matrix.from_columns(gens), v) is None


def test_a_raised_stored_generator_fails_the_recombination():
    # negative control: the elimination is untouched, so the coefficients
    # are those of the true generators, and the recombination from the
    # stored integer rows no longer gives the member
    gens = GeneratedSpan(MIXED_GENS, 4)
    member = oracle.Matrix.from_columns(MIXED_GENS).apply(MIXED_MEMBERS[0])
    assert gens.express(member) == MIXED_MEMBERS[0]
    gens._gens[1][2] += 1
    with pytest.raises(CertificateError, match="solve verification failed"):
        gens.express(member)


def _integer_form_holds(space):
    """rows / den is the rational basis, den its least common denominator."""
    assert space.den == lcm(1, *(int(x.denominator) for v in space.basis for x in v))
    assert space.rows == tuple(tuple(int(x * space.den) for x in v) for v in space.basis)


@given(dense_systems(), dense_systems(), st.data())
@settings(**SETTINGS)
def test_integer_subspace_matches_the_fraction_rref_oracle(us, ws, data):
    # basis, pivots, == and hash against the dense Fraction RREF, for a
    # spanning set and a shuffled, rescaled copy of it, and sum, intersect,
    # embedded and contains against the same oracle
    n = min(us[0], ws[0])
    us = _with_repeats(data, [u[:n] for u in us[1]], n)
    ws = _with_repeats(data, [w[:n] for w in ws[1]], n)
    a, b = Subspace(n, us), Subspace(n, ws)
    assert _canonical(a) == oracle.subspace(n, us)
    _integer_form_holds(a)
    again = Subspace(n, _with_repeats(data, [tuple(-2 * x for x in u) for u in us], n))
    assert again == a and hash(again) == hash(a)
    assert (a == b) == (oracle.subspace(n, us) == oracle.subspace(n, ws))
    assert _canonical(a.sum(b)) == oracle.subspace(n, us + ws)
    meet = a.intersect(b)
    assert _canonical(meet) == oracle.intersect(n, us, ws)
    _integer_form_holds(meet)
    v = data.draw(vecs(n))
    assert oracle.contains(a, v) == (oracle.subspace(n, us + [v])[1] == oracle.subspace(n, us)[1])
    assert all(oracle.contains(a, u) for u in us) and oracle.contains_space(a, meet)
    ambient = n + data.draw(st.integers(0, 4))
    positions = sorted(data.draw(st.lists(st.integers(0, ambient - 1), min_size=n,
                                          max_size=n, unique=True)))
    scattered = [[Q(0)] * ambient for _ in a.basis]
    for row, u in zip(scattered, a.basis):
        for at, x in zip(positions, u):
            row[at] = x
    moved = a.embedded(positions, ambient)
    assert _canonical(moved) == oracle.subspace(ambient, scattered) and moved.den == a.den


@st.composite
def non_primitive_stores(draw):
    """(n, rows): integer rows of Q^n, each times a factor, so that the
    `_echelon` store keeps some of them as they are, not primitive."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6))
    factors = st.sampled_from([1, 2, -3, 6, -10])
    return n, [[draw(factors) * x for x in row] for row in rows]


@given(non_primitive_stores(), st.data())
@settings(**SETTINGS)
def test_a_store_of_non_primitive_rows_reads_the_canonical_form(case, data):
    # the integer form is read off an elimination store as it is
    # (`Subspace.from_int_rows`, `integer_kernel`): each store row divided by
    # its gcd first, so the same space compares equal however it was built
    n, rows = case
    dicts = [{c: x for c, x in enumerate(r) if x} for r in rows]
    got = Subspace.from_int_rows(n, IntRows.from_dicts(dicts))
    want = Subspace(n, rows)
    assert _canonical(got) == oracle.subspace(n, rows) == _canonical(want)
    assert got == want and hash(got) == hash(want) and got.rows == want.rows
    _integer_form_holds(got)
    kernel = integer_kernel(IntRows.from_dicts(primitive_rows(dicts)), n)
    assert _canonical(kernel) == oracle.kernel(dicts, n)
    again = Subspace(n, kernel.basis)
    assert kernel == again and hash(kernel) == hash(again)
    _integer_form_holds(kernel)


@given(dense_systems(), st.data())
@example((4, MIXED_GENS), None)
@settings(**SETTINGS)
def test_span_coordinates_are_express_times_den(system, data):
    # one batch of members, of mixed denominators: row r of C is express of
    # member r times den, den the least common denominator of all the rows
    n, gens = system
    if data is None:  # the explicit example above
        coefficients = MIXED_MEMBERS[:1] + [(Q(-2, 9), Q(1, 4), Q(0), Q(5))]
    else:
        gens = _with_repeats(data, gens, n)
        coefficients = data.draw(st.lists(vecs(len(gens)), max_size=4))
    m = oracle.Matrix.from_columns(gens) if gens else None
    members = [m.apply(c) for c in coefficients] if gens else [(Q(0),) * n]
    span_ = GeneratedSpan(gens, n)
    C, den = span_.coordinates(members, "outside")
    assert C.shape == (len(members), span_.count)
    rational = [span_.express(v) for v in members]
    assert [tuple(Q(int(x)) for x in row) for row in C.tolist()] == [
        tuple(c * den for c in row) for row in rational]
    assert den == lcm(1, *(int(c.denominator) for row in rational for c in row))


def _read(span, vectors):
    """What coordinates gives, or the text of the CertificateError it raises."""
    try:
        C, den = span.coordinates(vectors, "left the span")
    except CertificateError as e:
        return str(e)
    return C.tolist(), C.dtype, den


@given(dense_systems(), st.data())
@example((4, MIXED_GENS), None)
@settings(**SETTINGS)
def test_batch_read_matches_the_solve_oracle(system, data):
    # the batched read against the former one-member reader, on rational
    # rows, members inside and outside the span, and generators and members
    # scaled far enough that the bound forces object dtype; an integer
    # array of the members reads as the list of them does
    n, gens = system
    if data is None:  # the explicit example above
        coefficients, outside, big = MIXED_MEMBERS, [(Q(1, 3), Q(0), Q(0), Q(1, 9))], 3 ** 45
    else:
        gens = _with_repeats(data, gens, n)
        coefficients = data.draw(st.lists(vecs(len(gens)), max_size=4))
        outside = data.draw(st.lists(vecs(n), max_size=2))
        big = data.draw(st.sampled_from([1, 2 ** 40, 3 ** 45]))
    gens = [tuple(big * x for x in g) for g in gens]
    m = oracle.Matrix.from_columns(gens) if gens else None
    members = [m.apply(c) for c in coefficients] if gens else [(Q(0),) * n]
    ours, theirs = GeneratedSpan(gens, n), oracle.GeneratedSpan(gens, n)
    assert ours.independent == theirs.independent
    for v in members + outside:
        assert ours.express(v) == theirs.express(v)
    batch = members + outside[:1]
    random.Random(len(batch)).shuffle(batch)
    assert _read(ours, members) == _read(theirs, members) != "left the span"
    assert _read(ours, batch) == _read(theirs, batch)
    scale = lcm(1, *(int(x.denominator) for v in members for x in v))
    ints = [tuple(int(x * scale) for x in v) for v in members]
    array = np.array(ints, dtype=exact.int_dtype(max((abs(x) for v in ints for x in v), default=0)))
    assert _read(ours, array.reshape(len(ints), n)) == _read(theirs, ints)


def test_a_batch_past_the_int64_bound_reads_on_python_ints(monkeypatch):
    # generators of the plane x_2 = 0 scaled by 3**45: the bound of the
    # reduction passes 2**62, so it runs on object dtype, exactly
    gens = [(3 ** 45, 0, 0), (3 ** 45, 3 ** 45 * 2, 0)]
    members = [(1, 2, 0), (Q(7, 3), 0, 0), (3 ** 50, 1, 0)]
    dtypes, int_dtype = [], exact.int_dtype
    monkeypatch.setattr(exact, "int_dtype", lambda bound: dtypes.append(int_dtype(bound))
                        or dtypes[-1])
    got = GeneratedSpan(gens, 3).coordinates(members, "left the span")
    assert object in dtypes
    want = oracle.GeneratedSpan(gens, 3).coordinates(members, "left the span")
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


@pytest.mark.parametrize("base", [2 ** 16, 5 ** 7])
def test_pivots_sharing_a_factor_keep_the_int64_path(base):
    # the pivot entries base (t + 2) share the factor base: a row that meets
    # all three is scaled by their lcm, 12 base, whose bound stays below
    # 2**62; their product, base**3 * 24, would overflow int64
    gens = [tuple(Q(base * (t + 2) if c == t else int(c == 3), 1000) for c in range(4))
            for t in range(3)]
    member = tuple(sum((t + 1) * g[c] for t, g in enumerate(gens)) for c in range(4))
    C, den = GeneratedSpan(gens, 4).coordinates([member], "left the span")
    assert C.dtype == np.int64 and (C.tolist(), den) == ([[1, 2, 3]], 1)
    want = oracle.GeneratedSpan(gens, 4).coordinates([member], "left the span")
    assert (C.tolist(), den) == (want[0].tolist(), want[1])


def test_batch_read_of_an_empty_batch_and_an_empty_span():
    for span_ in (GeneratedSpan(MIXED_GENS, 4), oracle.GeneratedSpan(MIXED_GENS, 4)):
        C, den = span_.coordinates([], "left the span")
        assert C.shape == (0, 4) and den == 1
    C, den = GeneratedSpan(MIXED_GENS, 4).coordinates(np.zeros((0, 4), dtype=np.int64), "x")
    assert C.shape == (0, 4) and den == 1
    for span_ in (GeneratedSpan([], 3), oracle.GeneratedSpan([], 3)):
        C, den = span_.coordinates([(0, 0, 0), (0, 0, 0)], "left the span")
        assert C.shape == (2, 0) and den == 1
        with pytest.raises(CertificateError, match="left the span"):
            span_.coordinates([(0, 0, 0), (0, 1, 0)], "left the span")
        assert span_.express((0, 0, 0)) == () and span_.express((0, 0, 1)) is None


def _raise_a_coordinate(monkeypatch):
    """Raise one generator coordinate of the first pivot row of every span."""
    arrays = GeneratedSpan._pivot_arrays

    def raised(self):
        piv, P, *rest = arrays(self)
        P = P.copy()
        P[0, self.ambient] += 1
        return (piv, P, *rest)

    monkeypatch.setattr(GeneratedSpan, "_pivot_arrays", raised)


def test_a_raised_coordinate_fails_the_recombination(monkeypatch):
    # negative control: (2, 1) = g_0 + g_1 reads as 3 g_0 + g_1 once the
    # pivot row of column 0 records 2 g_0, and no member is returned
    gens = GeneratedSpan([(1, 0), (1, 1)], 2)
    assert gens.express((2, 1)) == (1, 1)
    _raise_a_coordinate(monkeypatch)
    for span_ in (GeneratedSpan([(1, 0), (1, 1)], 2), GeneratedSpan(MIXED_GENS, 4)):
        member = (2, 1) if span_.ambient == 2 else oracle.Matrix.from_columns(
            MIXED_GENS).apply(MIXED_MEMBERS[0])
        with pytest.raises(CertificateError, match="solve verification failed"):
            span_.coordinates([member], "left the span")
        with pytest.raises(CertificateError, match="solve verification failed"):
            span_.express(member)


def test_floats_are_rejected():
    # a float's binary expansion is no exact constant: Fraction(0.1) would
    # be 3602879701896397/36028797018963968
    for x in (0.1, np.float64(0.1), np.float32(0.5), np.longdouble(0.5)):
        with pytest.raises(TypeError):
            Q(x)
    with pytest.raises(TypeError, match="not an exact rational"):
        make_algebra([0], [(0, 0, 0, 0.1)], kind="jordan")
    with pytest.raises(TypeError, match="not an exact rational"):
        GeneratedSpan([(1, 0)], 2).express((0.5, 0))
    with pytest.raises(TypeError, match="not an exact rational"):
        GeneratedSpan([(1, np.float64(0.5))], 2)
    assert Q(np.int64(3)) == 3 and Q(True) == 1


BROKEN_KERNEL = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
echelon, calls = exact._echelon, []
def broken(rows):  # doubles the pivots of the core's echelon form only
    store = echelon(rows)
    if not calls:
        calls.append(rows)
        store = {p: {**r, p: 2 * r[p]} for p, r in store.items()}
    return store
exact._echelon = broken
exact.kernel_sparse([{0: 1, 1: 2}], 2)  # not absorbed: 1 != 2
"""

SECOND_ROUND_FAULT = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
read, first = exact._free_vectors, []
def broken(root, sign, rows):  # the second round leaves out the rows missed
    first.append(len(rows))
    return read(root, sign, rows[:first[0]])
exact._free_vectors = broken
exact.integer_kernel(exact.IntRows.from_dicts(ROWS), 4)
"""

BROKEN_SOLVE = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
echelon = exact._echelon
def broken(rows):  # doubles the generator coordinates every row records
    return {p: {c: 2 * x if c >= 2 else x for c, x in r.items()}
            for p, r in echelon(rows).items()}
exact._echelon = broken
exact.solve(exact.Matrix.identity(2), (1, 2))
"""


SHAPE_GUARDS = """
import sys
from supertkk import catalog
from supertkk.exact import CertificateError, GeneratedSpan, Matrix, Subspace
from supertkk.structure import OperatorSpace
from supertkk.superspace import quotient_algebra
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
plane = Subspace(3, [(1, 0, 0), (0, 1, 0)])
gens = GeneratedSpan([(1, 0, 0)], 3)
on2, on3 = (OperatorSpace("a", Subspace(k * k), Subspace(k * k), (k,)) for k in (2, 3))
gl11 = catalog.lie_catalog("gl", 1, 1)

# gl(1,1)'s centre, its identity row raised after construction to twice the
# identity: still central, so the ideal test passes, but the residue of
# [E01, E10] = I over den = 1 keeps -1 at the pivot
raised = Subspace(4, [(1, 0, 0, 1)])
raised.rows = ((2, 0, 0, 2),)

idx_par, mats = catalog._gl_mats(1, 1)
mismatch = (ValueError, "ambient dimension mismatch")
calls = {
    "Subspace long": (lambda: Subspace(2, [(1, 0), (1, 2, 3)]), mismatch),
    "Subspace short": (lambda: Subspace(3, [(1, 2)]), mismatch),
    "Subspace.embedded long": (lambda: plane.embedded([0, 1, 2, 3], 5), mismatch),
    "Subspace.embedded short": (lambda: plane.embedded([0, 1], 5), mismatch),
    "GeneratedSpan.coordinates long": (lambda: gens.coordinates([(1, 0, 0, 1)], "x"), mismatch),
    "GeneratedSpan long": (lambda: GeneratedSpan([(0, 1, 0, 1)], 3), mismatch),
    "GeneratedSpan.express short": (lambda: gens.express((1, 0)), mismatch),
    "Matrix ragged": (lambda: Matrix([(1, 2), (3,)]), (ValueError, "ragged")),
    "Matrix.unflatten": (lambda: Matrix.unflatten(2, 2, (1, 2, 3)),
                         (ValueError, "flatten length mismatch")),
    "OperatorSpace.sum": (lambda: on2.sum(on3), (ValueError, "different spaces")),
    "OperatorSpace.intersect": (lambda: on2.intersect(on3),
                                (ValueError, "different spaces")),
    "quotient pivot": (lambda: quotient_algebra(gl11, raised),
                       (CertificateError, "reduction left a pivot coordinate")),
    "quotient by identity": (
        lambda: catalog._quotient_by_identity(gl11, idx_par, mats[1:3],
                                              name="x", metadata={}),
        (CertificateError, "identity matrix should lie in the span")),
}
for name, (call, (error, text)) in calls.items():
    try:
        call()
    except error as e:
        if text not in str(e):
            raise SystemExit(f"{name}: {e}")
    else:
        raise SystemExit(f"{name}: no {error.__name__}")
print("ok")
"""


OUTSIDE_THE_SPAN = """
import sys
from supertkk.exact import CertificateError, GeneratedSpan
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
try:
    GeneratedSpan([(1, 0, 0), (0, 1, 0)], 3).coordinates([(1, 2, 0), (0, 0, 1)], "left the span")
except CertificateError as e:
    print(e)
"""


RAISED_COORDINATE = """
import sys
from supertkk import exact
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
arrays = exact.GeneratedSpan._pivot_arrays
def raised(self):  # one generator coordinate of the first pivot row raised by 1
    piv, P, *rest = arrays(self)
    P = P.copy()
    P[0, self.ambient] += 1
    return (piv, P, *rest)
exact.GeneratedSpan._pivot_arrays = raised
exact.GeneratedSpan([(1, 0), (1, 1)], 2).coordinates([(2, 1)], "left the span")
"""


def test_raised_coordinate_certificate_survives_python_O():
    done = run_python(["-O"], RAISED_COORDINATE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: solve verification failed"
            in done.stderr.strip().splitlines()[-1])


def test_span_coordinates_certificate_survives_python_O():
    done = run_python(["-O"], OUTSIDE_THE_SPAN)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "left the span"


def test_shape_guards_survive_python_O():
    done = run_python(["-O"], SHAPE_GUARDS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "ok"


def test_kernel_certificate_survives_python_O():
    done = run_python(["-O"], BROKEN_KERNEL)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("CertificateError: kernel verification failed"
            in done.stderr.strip().splitlines()[-1])


def test_tall_kernel_second_round_survives_python_O():
    rows, _ = _shortest_rows_miss_the_rank()
    done = run_python(["-O"], SECOND_ROUND_FAULT.replace("ROWS", repr(rows)))
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
    # the dense arithmetic lives on in the oracle's Matrix
    a = oracle.Matrix([[1, 2], [3, 4]])
    b = oracle.Matrix([[0, 1], [1, 0]])
    assert (a @ b).data == Matrix([[2, 1], [4, 3]]).data
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(Q(1, 2))[0, 1] == Q(1)
    assert a.transpose()[0, 1] == Q(3)
    assert a == Matrix([[1, 2], [3, 4]])  # equal to the package's container
    assert not any(hasattr(Matrix, name) for name in (
        "__matmul__", "__add__", "__sub__", "__neg__", "scale", "apply", "is_zero"))
