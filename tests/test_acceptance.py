"""Acceptance suite: ten criteria, exact equality, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Everything asserts exact rational equality; there are no
tolerances anywhere.
"""

from oracle_linalg import contains
from supertkk.catalog import jordan_catalog, jordan_entries, lie_catalog, lie_entries
from supertkk.exact import Q
from supertkk.jordan import (check_commutator_identity, check_five_linear,
                             check_jordan_identity, check_triple_symmetry,
                             find_unit)
from supertkk.structure import (der_algebra, inn_algebra, istr_algebra,
                                istr_tilde, l_space, l_stack, pair_der, pair_inn,
                                str_algebra, str_w)
from supertkk.superspace import (center, check_super_jacobi,
                                 check_supercommutative, derived,
                                 parity_dims)
from supertkk.tkk import (check_unital_equivalences, fingerprint,
                          j_roundtrip_check, kantor, koecher,
                          koecher_inverse_check, koecher_tilde, lie_der_tower,
                          out_dims, tits, tits_roundtrip, zdims)

UNITAL_SIX = (("full_matrix", (1, 1)), ("full_matrix", (1, 2)),
              ("full_matrix", (2, 1)), ("form", (1, 2)), ("form", (2, 2)),
              ("dt", (2,)))


def _flat_fingerprint(g):
    # collapse the degree grading so an ungraded catalog entry can be compared
    f = fingerprint(g)
    dims, out = {}, {}
    for (_, p), d in dict(f["dims"]).items():
        dims[p] = dims.get(p, 0) + d
    for (_, p), d in dict(f.get("out", ())).items():
        out[p] = out.get(p, 0) + d
    return {"dims": tuple(sorted(dims.items())), "center": f["center"],
            "derived": f["derived"], "out": tuple(sorted(out.items()))}


def _l_flat(V, i):
    """L_{e_i} flattened, read off l_stack."""
    ls = l_stack(V)
    return [Q(int(x), ls.den) for x in ls.flats()[i]]


def test_criterion_01_identity_suites():
    for name, V in jordan_entries().items():
        assert check_supercommutative(V) is None, name
        assert check_jordan_identity(V) is None, name
        assert check_commutator_identity(V) is None, name
        assert check_triple_symmetry(V) is None, name
        assert check_five_linear(V) is None, name
        # constructed Lie superalgebras satisfy super-Jacobi exactly
        assert check_super_jacobi(koecher(V).lie) is None, name
    for name, g in lie_entries().items():
        assert check_super_jacobi(g) is None, name


def test_criterion_02_j19_structure():
    V = jordan_catalog("j19")
    assert contains(inn_algebra(V).part(0), _l_flat(V, 1))
    assert istr_algebra(V).dim == 2
    assert str_algebra(V).dim == 3
    assert pair_inn(V).dim == 3
    assert pair_der(V).dim == 5
    # the algebra/pair structure algebras differ already by dimension
    assert istr_algebra(V).dim != pair_inn(V).dim
    assert str_algebra(V).dim != pair_der(V).dim


def test_criterion_03_truncated_polynomials():
    for k in range(4, 8):
        V = jordan_catalog("trunc_poly", k)
        assert istr_algebra(V).dim == k - 2, k
        assert istr_tilde(V).dim == k - 3, k
        # basis is t, t^2, ..., t^{k-1}, so t^{k-2} sits at index k-3
        assert contains(der_algebra(V).part(0), _l_flat(V, k - 3)), k
        meet_even = l_space(V).even.intersect(der_algebra(V).even)
        assert meet_even.dim > 0, f"k={k}: {{L}} + Der must not be direct"


def test_criterion_04_kaplansky_bundle():
    K = jordan_catalog("kacK")
    assert find_unit(K) is None
    assert istr_algebra(K).dims() == (4, 4)
    assert str_algebra(K).dims() == (4, 4)
    assert pair_inn(K).dims() == (4, 4)
    assert pair_der(K).dims() == (5, 4)
    ko = koecher(K)
    assert zdims(ko.lie) == {-1: 3, 0: 8, 1: 3}
    assert parity_dims(ko.lie) == (6, 8)
    kot = koecher_tilde(K)
    assert kot.dim == 15
    assert zdims(kot.lie)[0] == 9
    assert out_dims(lie_der_tower(ko.lie)) == {-1: (1, 0), 0: (1, 0), 1: (1, 0)}
    gplus = zdims(kantor(K).lie)[1]
    assert gplus == 4 and gplus != 3  # Kan(K) and Ko(K) differ in grade +1
    assert fingerprint(tits(K, "inn").lie) == fingerprint(ko.lie)


def test_criterion_05_unital_equivalences():
    for name, params in UNITAL_SIX:
        results = check_unital_equivalences(jordan_catalog(name, *params))
        names = {r.name for r in results}
        assert {"kantor_equals_koecher", "tits_inn_equals_koecher",
                "der_koecher_shift2_zero", "der_koecher_shift1_dims",
                "der_koecher_matches_kotilde", "out_koecher_zero_shift"} <= names
        for r in results:
            assert r.passed, f"{name}{params}: {r.name}: {r.detail}"


def test_criterion_06_round_trips():
    for name, V in jordan_entries().items():
        assert j_roundtrip_check(V).passed, name
        for r in koecher_inverse_check(koecher(V).lie):
            assert r.passed, (name, r.name, r.detail)
    for name, params, d in (("full_matrix", (1, 1), "inn"),
                            ("kacK", (), "inn"), ("j19", (), "der")):
        r = tits_roundtrip(jordan_catalog(name, *params), d)
        assert r.passed, (name, d, r.detail)


def test_criterion_07_table_fingerprints():
    gl11 = jordan_catalog("full_matrix", 1, 1)
    ko = koecher(gl11)
    assert parity_dims(ko.lie) == (6, 8)
    assert _flat_fingerprint(ko.lie) == _flat_fingerprint(lie_catalog("psl", 2, 2))
    kot = koecher_tilde(gl11)
    assert kot.dim == 17 and parity_dims(kot.lie) == (9, 8)
    kot_k = koecher_tilde(jordan_catalog("kacK"))
    assert _flat_fingerprint(kot_k.lie) == _flat_fingerprint(lie_catalog("pgl", 2, 2))
    # orthosymplectic dimension identities for the quadratic form family:
    # even (p+3)(p+2)/2 + q(2q+1), odd 2(p+3)q
    for p, q2 in ((1, 2), (2, 2), (3, 0)):
        q = q2 // 2
        got = parity_dims(koecher(jordan_catalog("form", p, q2)).lie)
        assert got == ((p + 3) * (p + 2) // 2 + q * (2 * q + 1),
                       2 * (p + 3) * q), (p, q2)
    a = koecher(jordan_catalog("dt", 2))
    b = koecher(jordan_catalog("dt", "1/2"))
    assert a.dim == 17 and parity_dims(a.lie) == (9, 8)
    assert fingerprint(a.lie) == fingerprint(b.lie)


def test_criterion_08_out_kotilde_vanishes():
    for name, V in jordan_entries().items():
        kot = koecher_tilde(V)
        assert out_dims(lie_der_tower(kot.lie)) == {}, name


def test_criterion_09_strw_matches_pair_der():
    for name, V in jordan_entries().items():
        assert str_w(V).dims() == pair_der(V).dims(), name
        if find_unit(V) is not None:
            assert str_w(V).dims() == str_algebra(V).dims(), name


def test_criterion_10_lie_dimensions_and_simplicity():
    for m, n in ((1, 1), (2, 1), (2, 2)):
        assert lie_catalog("gl", m, n).dim == (m + n) ** 2
        assert parity_dims(lie_catalog("gl", m, n)) == (m * m + n * n, 2 * m * n)
    for n in (2, 3):
        assert lie_catalog("pe", n).dim == 2 * n * n
        assert lie_catalog("q", n).dim == 2 * n * n
    assert lie_catalog("spe", 3).dim == 2 * 9 - 1
    for n in (4, 5, 6):
        assert lie_catalog("h", n).dim == 2 ** n - 2
    simple = [(name, g) for name, g in lie_entries().items()
              if g.metadata.get("simple") == "yes"]
    assert simple, "catalog must tag its simple entries"
    for name, g in simple:
        assert center(g).dim == 0, name
        assert derived(g).dim == g.dim, name
