"""Exact linear algebra: kernels, solving, subspace lattice, canonical forms."""

import random
import sys
import tracemalloc
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert s.contains((2, 3, 1))
    coords = s.coordinates((2, 3, 1))
    assert coords == (Q(2), Q(3))
    assert not s.contains((0, 0, 1))
    assert s.coordinates((0, 0, 1)) is None


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
    bad = exact._verify_kernel(IntRows.from_dicts(rows), IntRows.from_dicts(vecs), n)
    assert (not bad.any()) == oracle.verify_kernel(*case)
    assert bad.tolist() == [not oracle.verify_kernel(rows, [v], n) for v in vecs]


@given(certificate_cases())
@example(([], [{0: 2 ** 63}], 1))  # no row: the bound still covers casting the vectors
@settings(**SETTINGS)
def test_sparse_kernel_certificate_matches_the_dense_check(case):
    _assert_join_matches_the_dense_check(case)


@given(certificate_cases())
@settings(**SETTINGS)
def test_sparse_kernel_certificate_matches_the_dense_check_one_row_per_chunk(case):
    # a chunk always holds whole rows, so one product budget per chunk runs
    # every row in a chunk of its own
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
        assert not exact._verify_kernel(rows, IntRows.from_dicts(vecs), len(cols)).any()
        used = sorted(set(rows.cols.tolist()))
        for k, v in enumerate(vecs[:4]):
            j = next((c for c in v if c in used), used[0])
            bad = [dict(u) for u in vecs]
            bad[k][j] = bad[k].get(j, 0) + 1
            assert np.flatnonzero(exact._verify_kernel(rows, IntRows.from_dicts(bad),
                                                       len(cols))).tolist() == [k]
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

    def perturbed(int_rows, ncols):
        rank, free, vecs = read(int_rows, ncols)
        fault(vecs, set(int_rows.cols.tolist()))
        return rank, free, vecs

    g = load_algebra(save_algebra(lie_catalog("w", 3)))  # fresh: an empty memo
    monkeypatch.setattr(exact, "_free_vectors", perturbed)
    with pytest.raises(CertificateError, match="kernel verification failed"):
        lie_der_tower(g)


def test_certifying_the_tower_of_w5_stays_in_bounded_memory(monkeypatch):
    # the joins of fingerprint(w(5))'s whole Leibniz system (366,325 rows,
    # 870,505 entries, 25,600 columns) with its 160 kernel vectors, then
    # with its 160 ad rows, traced: each peaks at 10.1 MiB (numpy 2.4)
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

class Unreduced(Subspace):  # claims every vector, reduces none
    __slots__ = ()
    def contains(self, vec):
        return True
    def reduce(self, vec):
        return list(vec)

idx_par, mats = catalog._gl_mats(1, 1)
mismatch = (ValueError, "ambient dimension mismatch")
calls = {
    "Subspace long": (lambda: Subspace(2, [(1, 0), (1, 2, 3)]), mismatch),
    "Subspace short": (lambda: Subspace(3, [(1, 2)]), mismatch),
    "reduce long": (lambda: plane.reduce((0, 0, 0, 1)), mismatch),
    "reduce short": (lambda: plane.reduce((1, 0)), mismatch),
    "coordinates long": (lambda: plane.coordinates((1, 0, 0, 1)), mismatch),
    "GeneratedSpan long": (lambda: GeneratedSpan([(0, 1, 0, 1)], 3), mismatch),
    "GeneratedSpan.express short": (lambda: gens.express((1, 0)), mismatch),
    "Matrix ragged": (lambda: Matrix([(1, 2), (3,)]), (ValueError, "ragged")),
    "Matrix.unflatten": (lambda: Matrix.unflatten(2, 2, (1, 2, 3)),
                         (ValueError, "flatten length mismatch")),
    "OperatorSpace.sum": (lambda: on2.sum(on3), (ValueError, "different spaces")),
    "OperatorSpace.intersect": (lambda: on2.intersect(on3),
                                (ValueError, "different spaces")),
    "quotient pivot": (lambda: quotient_algebra(gl11, Unreduced(4, [(1, 0, 0, 1)])),
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
