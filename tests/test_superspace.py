"""Structure-constant superalgebras: construction, identity checkers, quotients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_catalog
import oracle_identities
from oracle_linalg import contains
from supertkk.exact import Q, span
from supertkk.superspace import (
    center, check_super_jacobi, check_superanticommutative, check_supercommutative,
    derived, graded_dims, integer_algebra, make_algebra, parity_dims, quotient_algebra,
    subalgebra,
)
from supertkk.catalog import jordan_catalog, lie_catalog, load_algebra, save_algebra
from supertkk.structure import double, l_stack
from supertkk.tkk import j_functor, koecher
from test_structure import tables_with_zeros
from test_tensor import dense_lie_tables

SETTINGS = dict(max_examples=40, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(Q)


def sl2():
    # [h,e]=2e, [h,f]=-2f, [e,f]=h on basis (e, h, f)
    products = [(1, 0, 0, 2), (0, 1, 0, -2), (1, 2, 2, -2), (2, 1, 2, 2),
                (0, 2, 1, 1), (2, 0, 1, -1)]
    return make_algebra([0, 0, 0], products, name="sl2", kind="lie")


def test_make_algebra_rejects_bad_entries():
    with pytest.raises(ValueError, match="out of range"):
        make_algebra([0, 0], [(0, 0, 2, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        make_algebra([0, 0], [(0, 0, 1, 1), (0, 0, 1, 2)])
    # even*even landing on an odd basis vector is an error, not a warning
    with pytest.raises(ValueError, match="wrong parity"):
        make_algebra([0, 0, 1], [(0, 1, 2, 1)])
    with pytest.raises(ValueError, match="wrong degree"):
        make_algebra([0, 0, 0], [(0, 1, 2, 1)], zdegrees=[1, 1, 3])


BAD_ENTRIES = [
    ("k-out-of-range", (0, 0), [(0, 0, 2, 1)], None, "product entry (0,0,2) out of range for dim 2"),
    ("i-negative", (0, 0), [(-1, 0, 0, 1)], None, "product entry (-1,0,0) out of range for dim 2"),
    ("j-out-of-range", (0, 0), [(0, 2, 0, 0)], None, "product entry (0,2,0) out of range for dim 2"),
    ("duplicate", (0, 0), [(0, 0, 1, 1), (0, 0, 1, 2)], None,
     "duplicate structure constant for (0,0,1)"),
    ("duplicate-zero", (0, 1), [(1, 1, 0, 0), (1, 1, 0, 0)], None,
     "duplicate structure constant for (1,1,0)"),
    ("parity", (0, 0, 1), [(0, 1, 2, 1)], None,
     "inhomogeneous product: e_0*e_1 hits e_2 of wrong parity"),
    ("degree", (0, 0, 0), [(0, 1, 2, 1)], (1, 1, 3),
     "inhomogeneous product: e_0*e_1 hits e_2 of wrong degree"),
    # entries are checked in order, each for range, repetition, parity, degree
    ("first-parity-then-range", (0, 0, 1), [(0, 1, 2, 1), (0, 0, 3, 1)], None,
     "inhomogeneous product: e_0*e_1 hits e_2 of wrong parity"),
    ("first-range-then-parity", (0, 0, 1), [(0, 0, 3, 1), (0, 1, 2, 1)], None,
     "product entry (0,0,3) out of range for dim 3"),
]


@pytest.mark.parametrize("parities, entries, zdegrees, message",
                         [case[1:] for case in BAD_ENTRIES], ids=[case[0] for case in BAD_ENTRIES])
def test_integer_algebra_pins_each_diagnostic(parities, entries, zdegrees, message):
    with pytest.raises(ValueError) as err:
        integer_algebra(parities, entries, 1, zdegrees, check=False)
    assert str(err.value) == message


def test_integer_algebra_keeps_homogeneous_entries_over_the_least_denominator():
    # odd * odd -> even at the last index, degrees 1 + -1 = 0, a zero entry
    # that would be inhomogeneous, and constants over 12 whose least
    # common denominator is 4: b_0 b_1 = 3/4 b_2 = -b_1 b_0, b_2 b_2 = 1/2 b_2
    a = integer_algebra((1, 1, 0), [(2, 2, 2, 6), (0, 1, 2, 9), (1, 0, 2, -9), (0, 0, 0, 0)],
                        12, (1, -1, 0), kind="jordan")
    assert (a.entries, a.d) == (((0, 1, 2, 3), (1, 0, 2, -3), (2, 2, 2, 2)), 4)
    assert a.table == {(0, 1): {2: Q(3, 4)}, (1, 0): {2: Q(-3, 4)}, (2, 2): {2: Q(1, 2)}}
    assert integer_algebra((0,), [(0, 0, 0, 0)], 6).d == 1  # an empty table is over 1


@st.composite
def entry_lists(draw):
    """(parities, entries, d, zdegrees): a random table of dim <= 4, its
    homogeneous entries with zeros and values past 2**62 among them, faults
    planted (an index out of range, a repeated key, a nonzero that may break
    parity or degree homogeneity), in a shuffled order."""
    n = draw(st.integers(1, 4))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = draw(st.none() | st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    values = st.integers(-3, 3) | st.sampled_from([2 ** 62, -2 ** 62 - 5, 3 * 2 ** 70])
    entries = []
    for i, j, k in draw(st.lists(st.tuples(index, index, index), unique=True, max_size=10)):
        homogeneous = p[k] == p[i] ^ p[j] and (z is None or z[k] == z[i] + z[j])
        entries.append((i, j, k, draw(values) if homogeneous else 0))
    for fault in draw(st.lists(st.sampled_from(["range", "repeat", "inhomogeneous"]),
                               max_size=3)):
        if fault == "range":
            e = [draw(index), draw(index), draw(index), draw(values)]
            e[draw(st.integers(0, 2))] = draw(st.sampled_from([-1, n]))
            entries.append(tuple(e))
        elif fault == "repeat" and entries:
            entries.append(draw(st.sampled_from(entries))[:3] + (draw(values),))
        elif fault == "inhomogeneous":
            entries.append((draw(index), draw(index), draw(index), draw(st.integers(1, 3))))
    entries = draw(st.permutations(entries))
    return p, entries, draw(st.sampled_from([1, 4, 6])), z


def _as_arrays(entries, value_dtype):
    """The entries as four arrays: int64 indices, values in value_dtype."""
    columns = list(zip(*entries)) or [()] * 4
    return tuple(np.array(c, dtype=np.int64 if a < 3 else value_dtype)
                 for a, c in enumerate(columns))


def _built(parities, entries, d, zdegrees):
    """The algebra's entries, d and `IntTable` fields, or the error raised."""
    try:
        a = integer_algebra(parities, entries, d, zdegrees, check=False)
    except ValueError as err:
        return type(err).__name__, str(err)
    t = a.int_table
    assert all(not c.flags.writeable for c in (t.i, t.j, t.k, t.value))
    return (a.entries, a.d, t.n, t.i.tolist(), t.j.tolist(), t.k.tolist(), t.value.tolist(),
            t.i.dtype, t.value.dtype, t.d, t.top)


@given(entry_lists(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_array_entries_are_checked_like_the_tuple_loop(table, as_object):
    # the same accept or reject, the same first fault and message, equal
    # tables; values go in as int64 when they fit, else as Python ints
    parities, entries, d, zdegrees = table
    fits = all(abs(e[3]) < 2 ** 63 for e in entries)
    arrays = _as_arrays(entries, object if as_object or not fits else np.int64)
    assert _built(parities, arrays, d, zdegrees) == _built(parities, entries, d, zdegrees)


def test_array_keys_past_int64_order_like_the_tuples():
    # at n = 2**21 + 1 the key (i n + j) n + k of (n-1, n-1, n-1) passes
    # 2**63, so the keys are Python ints there
    n = 2 ** 21 + 1
    entries = [(n - 1, n - 1, n - 1, 1), (0, 0, 1, 2)]
    built = _built((0,) * n, _as_arrays(entries, np.int64), 1, None)
    assert built == _built((0,) * n, entries, 1, None)
    assert built[0] == ((0, 0, 1, 2), (n - 1, n - 1, n - 1, 1))


def test_array_entries_keep_their_arrays_and_form_tuples_on_first_use():
    # an empty table is over 1; the arrays are the algebra's IntTable
    a = integer_algebra((0, 1), _as_arrays([], np.int64), 6)
    assert (a.entries, a.d, a.int_table.top) == ((), 1, 0)
    b = integer_algebra((1, 1, 0), _as_arrays([(2, 2, 2, 6), (0, 1, 2, 9), (1, 0, 2, -9),
                                               (0, 0, 0, 0)], np.int64), 12, kind="jordan")
    assert b._entries is None and b.int_table.value.tolist() == [3, -3, 2]
    assert b.columns() == ([0, 1, 2], [1, 0, 2], [2, 2, 2], [3, -3, 2])
    assert b._entries is None  # columns() reads the arrays
    assert (b.entries, b.d) == (((0, 1, 2, 3), (1, 0, 2, -3), (2, 2, 2, 2)), 4)


def test_zero_coefficients_are_dropped_after_duplicate_check():
    a = make_algebra([0, 1], [(1, 1, 0, 0)])
    assert a.basis_product(1, 1) == {}
    with pytest.raises(ValueError, match="duplicate"):
        make_algebra([0, 1], [(1, 1, 0, 0), (1, 1, 0, 0)])


def test_supercommutative_witness():
    bad = make_algebra([0, 0], [(0, 1, 1, 1), (1, 0, 1, -1)])
    w = check_supercommutative(bad)
    assert w is not None and w.indices == (1, 0)
    assert check_supercommutative(jordan_catalog("kacK")) is None


def test_superanticommutative_witness():
    bad = make_algebra([0, 0], [(0, 1, 1, 1), (1, 0, 1, 1)])
    w = check_superanticommutative(bad)
    assert w is not None and w.indices == (1, 0)
    assert check_superanticommutative(sl2()) is None


def test_super_jacobi_on_sl2_and_a_broken_table():
    assert check_super_jacobi(sl2()) is None
    # replace [e,f] = h by [e,f] = e; the (e,h,f) triple then fails Jacobi
    products = [(1, 0, 0, 2), (0, 1, 0, -2), (1, 2, 2, -2), (2, 1, 2, 2),
                (0, 2, 0, 1), (2, 0, 0, -1)]
    broken = make_algebra([0, 0, 0], products, check=False)
    w = check_super_jacobi(broken)
    assert w is not None and w.indices == (0, 1, 2)
    assert str(w) == "super-Jacobi fails at basis triple (0,1,2)"


def test_product_is_bilinear_against_left_mult():
    # x * y = sum_i x_i L_{e_i} y, with L read off l_stack
    a = jordan_catalog("kacK")
    x = (Q(2), Q(1, 2), Q(-1))
    y = (Q(0), Q(3), Q(1, 3))
    ls = l_stack(a)
    lx_y = tuple(sum((xi * int(ls.blocks[0][i, r, c]) * yc for i, xi in enumerate(x)
                      for c, yc in enumerate(y)), Q(0)) / ls.den for r in range(a.dim))
    assert a.product(x, y) == lx_y


@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3),
       rationals)
@settings(**SETTINGS)
def test_product_bilinearity_random(x, y, c):
    a = jordan_catalog("j19")
    cx = tuple(c * t for t in x)
    left = a.product(cx, tuple(y))
    right = tuple(c * t for t in a.product(tuple(x), tuple(y)))
    assert left == right, "product must be linear in the first slot"


def test_graded_dims_and_parity_dims():
    lam = lie_catalog("lambda", 2)
    # monomials 1, xi1, xi2, xi1 xi2 have Poisson degrees -2, -1, -1, 0
    assert graded_dims(lam) == {(-2, 0): 1, (-1, 1): 2, (0, 0): 1}
    assert parity_dims(lam) == (2, 2)
    assert parity_dims(lie_catalog("gl", 1, 1)) == (2, 2)


def test_center_of_gl_is_the_identity_matrix():
    gl = lie_catalog("gl", 1, 1)
    z = center(gl)
    assert z.dim == 1
    # basis order is E00, E01, E10, E11, so I2 has coordinates (1,0,0,1)
    assert contains(z, (1, 0, 0, 1))


def test_center_of_simple_entries_is_zero():
    assert center(lie_catalog("psl", 2, 2)).dim == 0
    assert center(sl2()).dim == 0


def test_derived_of_sl2_is_everything():
    assert derived(sl2()).dim == 3
    # the one-dimensional abelian algebra has zero derived algebra
    assert derived(make_algebra([0], [])).dim == 0


@given(tables_with_zeros())
@settings(max_examples=60, deadline=None)
def test_center_and_derived_match_the_fraction_oracle(a):
    assert center(a) == oracle_identities.center(a)
    assert derived(a) == oracle_identities.derived(a)


def test_quotient_sl22_by_identity_is_psl22():
    psl = lie_catalog("psl", 2, 2)
    assert psl.dim == 14
    assert parity_dims(psl) == (6, 8)
    assert check_super_jacobi(psl) is None


def test_quotient_rejects_non_ideal():
    gl = lie_catalog("gl", 1, 1)
    bad = span([(0, 1, 0, 0)], ambient=4)  # E01 alone is not an ideal
    with pytest.raises(ValueError, match="not an ideal"):
        quotient_algebra(gl, bad)


def test_subalgebra_rejects_a_non_closed_span():
    a = sl2()
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(a, span([(1, 0, 0), (0, 0, 1)], ambient=3))  # [e,f]=h escapes


def test_subalgebra_restricts_structure_constants():
    a = sl2()
    b = subalgebra(a, span([(0, 1, 0), (1, 0, 0)], ambient=3))  # borel of sl2
    assert b.dim == 2
    assert check_super_jacobi(b) is None
    assert derived(b).dim == 1


def test_operator_parity_and_supercommutator():
    a = jordan_catalog("kacK")
    ls = l_stack(a)  # L_a, L_xi1, L_xi2 scaled by ls.den
    assert ls.parities.tolist() == [0, 1, 1]
    br = ls.bracket(ls)  # [L_i, L_j] at 3 i + j, scaled by ls.den**2
    assert br.parities.tolist() == [0, 1, 1, 1, 0, 0, 1, 0, 0]
    # odd-odd supercommutator is an anticommutator: [A,A] = 2 A^2
    lx = ls.blocks[0][1]  # L_xi1, odd
    assert (br.blocks[0][1 * 3 + 1] == 2 * lx @ lx).all() and (lx @ lx).any()
    # even-odd: [L_a, L_xi1] = L_a L_xi1 - L_xi1 L_a
    le = ls.blocks[0][0]
    assert (br.blocks[0][0 * 3 + 1] == le @ lx - lx @ le).all()


def test_mixed_basis_vector_proves_subspace_not_graded():
    a = jordan_catalog("kacK")  # parities (0,1,1)
    with pytest.raises(ValueError, match="not graded"):
        subalgebra(a, span([(1, 1, 0)], ambient=3))


def _assert_frozen(a):
    key = next(iter(a.table))
    with pytest.raises(TypeError):
        a.table[0, 0] = {0: Q(1)}
    with pytest.raises(TypeError):
        a.table[key][0] = Q(1)
    with pytest.raises(TypeError):
        a.metadata["family"] = "x"
    for attr in ("name", "table", "entries", "d", "metadata", "parities"):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(a, attr))


def test_algebras_are_immutable():
    a = sl2()
    psl = lie_catalog("psl", 2, 2)
    built = [a, jordan_catalog("j19"), psl, load_algebra(save_algebra(psl)),
             subalgebra(a, span([(0, 1, 0), (1, 0, 0)], ambient=3)),
             quotient_algebra(lie_catalog("gl", 1, 1), span([(1, 0, 0, 1)], ambient=4),
                              metadata={"family": "pgl"})]
    for alg in built:
        _assert_frozen(alg)
    # metadata is passed in when an algebra is built, never written afterwards
    assert dict(psl.metadata) == {"family": "psl", "simple": "yes"}
    assert dict(built[-2].metadata) == {} and dict(built[-1].metadata) == {"family": "pgl"}
    assert dict(lie_catalog("h", 4).metadata) == {"family": "h", "simple": "yes"}


def test_superpairs_are_immutable():
    V = jordan_catalog("j19")
    for pair in (double(V), j_functor(koecher(V).lie)):
        for T in pair.tensors:
            with pytest.raises(ValueError):
                T[(0,) * 4] = 1
        with pytest.raises(AttributeError):
            pair.name = "x"
        with pytest.raises(AttributeError):
            pair.tensors = ()


def _outcome(build, a, s):
    """The fields of build(a, s), or the message of the ValueError it raises."""
    try:
        g = build(a, s)
    except ValueError as err:
        return type(err).__name__, str(err)
    return g.entries, g.d, g.parities, g.zdegrees, g.name, dict(g.metadata), g.kind


def _rescaled(a, scale):
    """a in the basis f_i = scale[i] e_i: rational constants, so that the
    canonical bases of its centre and derived algebra take denominators."""
    return make_algebra(a.parities, [(i, j, k, Q(v * scale[i] * scale[j], a.d * scale[k]))
                                     for i, j, k, v in a.entries], a.zdegrees,
                        name=a.name, check=False)


# a scale of 2**40 takes the joins past their int64 bound, onto Python ints
@given(dense_lie_tables(),
       st.lists(st.sampled_from([1, 2, 3, -2, 5, 2 ** 40]), min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_subalgebra_and_quotient_match_the_rational_oracle(a, scale):
    a = _rescaled(a, scale)
    assert _outcome(subalgebra, a, derived(a)) == _outcome(oracle_catalog.subalgebra, a,
                                                           derived(a))
    assert _outcome(quotient_algebra, a, center(a)) == _outcome(oracle_catalog.quotient_algebra,
                                                                a, center(a))


def test_quotient_by_a_centre_over_a_denominator():
    # in the basis E00, E01, E10, 3 E11 the identity is (1, 0, 0, 1/3): the
    # centre's canonical basis is over 3, so the residues are 3 times the
    # quotient's constants
    a = _rescaled(lie_catalog("gl", 1, 1), [1, 1, 1, 3])
    z = center(a)
    assert (z.rows, z.den) == (((3, 0, 0, 1),), 3)
    q = _outcome(quotient_algebra, a, z)
    assert q == _outcome(oracle_catalog.quotient_algebra, a, z)
    # [E01, 3 E11] = 3 E01, [E10, 3 E11] = -3 E10, [E01, E10] = 0 mod the centre
    assert q[:2] == (((0, 2, 0, 3), (1, 2, 1, -3), (2, 0, 0, -3), (2, 1, 1, 3)), 1)


def _left_not_right():
    # b_1 b_0 = b_0 and no other product: span(b_1) absorbs b_i b_1 = 0 but
    # not b_1 b_0
    return make_algebra([0, 0], [(1, 0, 0, 1)], name="lr")


REFUSED = [
    ("non-ideal", lambda: lie_catalog("gl", 1, 1), quotient_algebra, [(0, 1, 0, 0)],
     "quotient: not an ideal, e_2*v escapes (v in ideal)"),
    ("left-ideal-only", _left_not_right, quotient_algebra, [(0, 1)],
     "quotient: not an ideal, v*e_0 escapes (v in ideal)"),
    ("non-closed", sl2, subalgebra, [(1, 0, 0), (0, 0, 1)],
     "subalgebra: not closed, product of basis vectors (0,1) leaves it"),
    ("mixed-subalgebra", lambda: jordan_catalog("kacK"), subalgebra, [(1, 1, 0)],
     "subalgebra: subspace is not graded (mixed basis vector)"),
    ("mixed-quotient", lambda: jordan_catalog("kacK"), quotient_algebra, [(0, 1, 1), (1, 1, 0)],
     "quotient: subspace is not graded (mixed basis vector)"),
    ("ambient", sl2, subalgebra, [(1, 0)], "subalgebra: ambient 2 != algebra dim 3"),
]


@pytest.mark.parametrize("algebra, build, vectors, message", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_subalgebra_and_quotient_refuse_like_the_oracle(algebra, build, vectors, message):
    a, s = algebra(), span(vectors)
    oracle_build = getattr(oracle_catalog, build.__name__)
    assert _outcome(build, a, s) == _outcome(oracle_build, a, s) == ("ValueError", message)


SPANS_REFUSED = [
    ("dependent", [{(0, 1): 1}, {(1, 0): 1}, {(0, 1): -1}], "x: spanning matrices are dependent"),
    ("not-closed", [{(0, 1): 1}, {(1, 0): 1}], "x: span not closed under the bracket"),
    ("inhomogeneous", [{(0, 1): 1, (0, 0): 1}], "spanning matrix is not parity-homogeneous"),
]


@pytest.mark.parametrize("mats, message", [case[1:] for case in SPANS_REFUSED],
                         ids=[case[0] for case in SPANS_REFUSED])
def test_matrix_spans_refuse_like_the_oracle(mats, message):
    from supertkk import catalog

    for build in (catalog._span_algebra, oracle_catalog.span_algebra):
        with pytest.raises(ValueError) as err:
            build((0, 1), mats, name="x")
        assert str(err.value) == message
