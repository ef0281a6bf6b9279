"""TKK constructions checked against hand-computed dimensions and roundtrips."""

import importlib.util
import re
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import oracle_linalg
from oracle_linalg import basis_vector
import oracle_tkk
from pyrun import run_python
from test_structure import tables_with_zeros
from supertkk import tkk
from supertkk.catalog import (jordan_catalog, jordan_entries, lie_entries, load_algebra, resolve,
                             save_algebra)
from supertkk.exact import CertificateError, Q, integer_kernel, row_primitive
from supertkk.structure import l_space, leibniz_blocks, leibniz_weight_zero, pair_der
from supertkk.superspace import SuperAlgebra, center, graded_dims, make_algebra, parity_dims
from supertkk.tkk import (
    check_propnu,
    check_unital_equivalences,
    fingerprint,
    is_jordan_graded,
    j_functor,
    j_roundtrip_check,
    kantor,
    kantor_koecher_comparison,
    kantor_relations,
    koecher,
    koecher_d,
    koecher_ideal_check,
    koecher_inverse_check,
    koecher_tilde,
    lie_der_tower,
    out_dims,
    tits,
    tits_data,
    tits_roundtrip,
    zdims,
)

SETTINGS = dict(max_examples=25, deadline=None)

# the Lie catalog entries the lie-fingerprint benchmark runs
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
_workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
LIE_SOURCES = _workloads.LIE_SOURCES

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Q)


def test_koecher_kack_dims():
    ko = koecher(jordan_catalog("kacK"))
    # g0 = Inn(K,K) has dims (4|4), the tips are two copies of K = (1|2)
    assert graded_dims(ko.lie) == {
        (1, 0): 1, (1, 1): 2, (0, 0): 4, (0, 1): 4, (-1, 0): 1, (-1, 1): 2}
    assert parity_dims(ko.lie) == (6, 8)
    assert ko.construction == "Ko"
    assert [o[0] for o in ko.origin].count("vplus") == 3
    assert ko.block("op0") == [3, 4, 5, 6, 7, 8, 9, 10]


def test_koecher_tilde_kack_dims():
    kot = koecher_tilde(jordan_catalog("kacK"))
    # Der(K,K) is one dimension bigger than Inn(K,K) in the even part
    assert kot.dim == 15
    assert zdims(kot.lie) == {1: 3, 0: 9, -1: 3}
    assert kot.construction == "KoTilde"


def test_koecher_j19_all_even():
    ko = koecher(jordan_catalog("j19"))
    assert ko.dim == 9
    assert parity_dims(ko.lie) == (9, 0)


def test_koecher_tips_are_abelian():
    g = koecher(jordan_catalog("kacK")).lie
    plus = [i for i in range(g.dim) if g.zdegree(i) == 1]
    minus = [i for i in range(g.dim) if g.zdegree(i) == -1]
    for block in (plus, minus):
        for i in block:
            for j in block:
                br = g.product(basis_vector(g, i), basis_vector(g, j))
                assert not any(br), "[g_{+-1}, g_{+-1}] must vanish"


def test_koecher_rejects_bad_middle():
    with pytest.raises(ValueError):
        koecher(jordan_catalog("kacK"), middle="outer")


def test_kantor_kack_top_dimension():
    kan = kantor(jordan_catalog("kacK"))
    # P, [L_e,P], [L_x,P], [L_y,P] stay independent without a unit,
    # while g0 = istr(K) has dims (4|4)
    assert zdims(kan.lie) == {-1: 3, 0: 8, 1: 4}
    tags = [o[0] for o in kan.origin]
    assert tags.count("kantorP") == 1 and tags.count("kantorLP") == 3


def test_kantor_unital_collapses_lp_of_unit():
    kan = kantor(jordan_catalog("full_matrix", 1, 1))
    # the unit is e11 + e22, so P = -[L_e11,P] - [L_e22,P] makes the last
    # even direction [L_e22, P] dependent; greedy keeps the first three
    assert zdims(kan.lie) == {-1: 4, 0: 6, 1: 4}
    tags = [o for o in kan.origin if o[0] == "kantorLP"]
    assert tags == [("kantorLP", 0), ("kantorLP", 1), ("kantorLP", 2)]


# kantor_relations as the Fraction loops reported it; unital V add the last one
KANTOR_RELATIONS = [
    ("kantor_p_bracket", True, "[P, x] = L_x"),
    ("kantor_lp_bracket", True, "[[L_a,P], x] = [L_a,L_x] - L_{ax}"),
    ("kantor_mid_action", True, "[L_a, [L_b,P]] = -[L_{ab}, P]"),
    ("kantor_inner_kills_p", True, "[[L_a,L_b], P] = 0"),
    ("kantor_weyl_relation", True,
     "[[L_a,L_b], [L_c,P]] = (-1)^{|b||c|} [L_{a(cb) - (ac)b}, P]"),
    ("kantor_unital_p", True, "P = -[L_e, P]"),
]


@pytest.mark.parametrize("name,params", [
    ("kacK", ()), ("j19", ()), ("full_matrix", (1, 1)), ("dt", (2,)),
    ("trunc_poly", (5,)), ("full_matrix", (1, 2)), ("full_matrix", (2, 1)),
])
def test_kantor_relations(name, params):
    results = kantor_relations(jordan_catalog(name, *params))
    got = [(r.name, r.passed, r.detail) for r in results]
    assert got == KANTOR_RELATIONS[:6 if name in ("full_matrix", "dt") else 5]


def test_kantor_unital_p_relation():
    results = {r.name for r in kantor_relations(jordan_catalog("full_matrix", 1, 1))}
    assert "kantor_unital_p" in results
    results = {r.name for r in kantor_relations(jordan_catalog("kacK"))}
    assert "kantor_unital_p" not in results


def test_kantor_vs_koecher_notes():
    note = kantor_koecher_comparison(jordan_catalog("kacK"))
    assert note.kind == "note" and not note.passed
    assert "Kan ≇ Ko (graded dims differ)" in note.detail
    note = kantor_koecher_comparison(jordan_catalog("full_matrix", 1, 1))
    assert note.passed


def test_tits_fingerprint_matches_koecher():
    K = jordan_catalog("kacK")
    ti = tits(K, "inn")
    ko = koecher(K)
    assert fingerprint(ti.lie) == fingerprint(ko.lie)


def test_tits_der_matches_koecher_tilde():
    V = jordan_catalog("full_matrix", 1, 1)
    ti = tits(V, "der")
    kot = koecher_tilde(V)
    assert graded_dims(ti.lie) == graded_dims(kot.lie)


def test_tits_data_validation():
    K = jordan_catalog("kacK")
    with pytest.raises(ValueError):
        tits_data(K, "left")
    with pytest.raises(ValueError):
        tits_data(K, l_space(K))  # multiplications are not derivations here
    data = tits_data(K, "inn")
    # the half Killing form of sl2 in the basis e, h, f, on integers
    kappa, den = data.killing
    got = [[Q(int(kappa[i, j]), den) for j in range(3)] for i in range(3)]
    assert got == [[0, 0, 2], [0, 4, 0], [2, 0, 0]]
    assert got == [list(row) for row in oracle_tkk.killing_half(data.sl2).data]


def test_one_container_builds_sl2_once(monkeypatch):
    # a fresh kacK: Ti, Ko_D, the isomorphism between them and the Tits
    # round trip all read the one memoized TitsData of (V, "inn")
    K = load_algebra(save_algebra(resolve("kacK")))
    built = []
    integer_algebra = tkk.integer_algebra

    def spy(*args, **kwargs):
        built.append(kwargs["name"])
        return integer_algebra(*args, **kwargs)

    monkeypatch.setattr(tkk, "integer_algebra", spy)
    data, ti, kd = tits_data(K, "inn"), tits(K, "inn"), koecher_d(K, "inn")
    checks = check_propnu(K, "inn") + [tits_roundtrip(K, "inn")]
    assert built.count("sl2") == 1, built
    assert ti.data["tits"] is data and data.sl2.name == "sl2" and kd.dim == ti.dim
    assert all(c.passed for c in checks), checks


def test_the_isomorphism_reads_the_ko_d_a_caller_built(monkeypatch):
    # koecher_d is memoized on V: check_propnu builds no second Ko_D(kacK)
    K = load_algebra(save_algebra(resolve("kacK")))
    built = []
    integer_algebra = tkk.integer_algebra

    def spy(*args, **kwargs):
        built.append(kwargs["name"])
        return integer_algebra(*args, **kwargs)

    monkeypatch.setattr(tkk, "integer_algebra", spy)
    kd = koecher_d(K, "inn")
    assert check_propnu(K, "inn")[0].passed
    assert built.count("Ko_inn(kacK)") == 1, built
    assert koecher_d(K) is kd


@pytest.mark.parametrize("d", ["inn", "der"])
def test_koecher_d_builds_no_sl2(d, monkeypatch):
    # Ko_D reads the certified container only: once Ti(V, D) is built,
    # checking the isomorphism onto Ko_D(V) builds no sl2 again; a fresh V,
    # so that no memoized Ko_D from another test skips the build
    V = load_algebra(save_algebra(resolve("full_matrix:1,1")))
    tits(V, d)
    built = []
    sl2 = tkk._sl2

    def spy():
        built.append(1)
        return sl2()

    monkeypatch.setattr(tkk, "_sl2", spy)
    assert check_propnu(V, d)[0].passed
    assert built == []


def test_a_tits_data_of_another_algebra_is_refused():
    K, J = jordan_catalog("kacK"), jordan_catalog("j19")
    data = tits_data(K, "inn")
    assert data.algebra is K and tits_data(K, data) is data
    for build in (tits_data, tits, koecher_d, tits_roundtrip, check_propnu):
        with pytest.raises(ValueError, match=r"TitsData built for kacK given for j19"):
            build(J, data)


def test_a_container_that_does_not_act_on_v_is_refused():
    from supertkk.structure import inn_algebra, pair_inn
    K = jordan_catalog("kacK")
    for space in (pair_inn(K), inn_algebra(jordan_catalog("full_matrix", 1, 1))):
        with pytest.raises(ValueError, match=r"derivation container must act on V: "
                                             rf"shape \({space.shape[0]},.*expected \(3,\)"):
            tits_data(K, space)


def test_a_table_that_is_not_supercommutative_is_refused():
    # the derivation defect reads (Ay)x as +-x(Ay): on e0 e1 = e1, e1 e0 = 0
    # the map e0 -> e1, e1 -> 0 has no defect but is no derivation
    V = SuperAlgebra("e0e1", (0, 0), [(0, 1, 1, 1)], 1, None, "jordan")
    with pytest.raises(ValueError, match="tits expects a Jordan superalgebra"):
        tits_data(V, "der")
    with pytest.raises(ValueError, match="koecher_d expects a Jordan superalgebra"):
        koecher_d(V, "der")


def test_a_non_derivation_past_the_first_operator_is_refused():
    # Inn(kacK) (3|2) plus the odd L_{xi1}: the first operator of the stack
    # is an inner derivation, the last no derivation at all
    from supertkk.exact import Subspace
    from supertkk.structure import OperatorSpace, inn_algebra
    K = jordan_catalog("kacK")
    inn, L = inn_algebra(K), l_space(K)
    odd = inn.odd.sum(Subspace(9, [L.odd.basis[0]]))
    space = OperatorSpace("Inn+L", inn.even, odd, (3,))
    for build in (tits_data, oracle_tkk.tits_data):
        with pytest.raises(ValueError, match="derivation container must consist of derivations"):
            build(K, space)


def test_tits_inn_builds_no_der(monkeypatch):
    # a fresh kacK, so that no memo of an earlier test answers
    from supertkk import structure
    V = load_algebra(save_algebra(resolve("kacK")))
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (tkk, structure):
        for name in ("der_algebra", "derivation_kernel", "derivation_kernels"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    assert tits(V, "inn").lie.dim == 14
    assert check_propnu(V, "inn")[0].passed and tits_roundtrip(V, "inn").passed
    assert calls == []


@pytest.mark.parametrize("d", ["inn", "der"])
def test_the_tits_reads_are_done_once(d, monkeypatch):
    # Ti, Ko_D (through propnu) and the round trip of one fresh V read the
    # container once for the [L_a, L_b] and once for its own brackets
    from supertkk.structure import OperatorSpace
    V = load_algebra(save_algebra(resolve("j19")))
    read, reads = OperatorSpace._read, []

    def spy(self, ops):
        reads.append((self, len(ops)))
        return read(self, ops)

    monkeypatch.setattr(OperatorSpace, "_read", spy)
    assert tits(V, d) and check_propnu(V, d)[0].passed and tits_roundtrip(V, d).passed
    dsp = tits_data(V, d).dspace
    n, nd = V.dim, dsp.dim
    assert sorted(len_ for space, len_ in reads if space is dsp) == sorted(
        [n * n, nd * (nd + 1) // 2]), reads


NOT_DERIVATIONS = """
from supertkk.catalog import jordan_catalog
from supertkk.structure import l_space
from supertkk.tkk import tits_data
K = jordan_catalog("kacK")
tits_data(K, l_space(K))
"""


def test_the_derivation_defect_survives_python_O():
    done = run_python(["-O"], NOT_DERIVATIONS)
    assert done.returncode == 1, done.stdout + done.stderr
    assert (done.stderr.strip().splitlines()[-1]
            == "ValueError: derivation container must consist of derivations")


@pytest.mark.parametrize("name,params,d", [
    ("kacK", (), "inn"), ("kacK", (), "der"),
    ("full_matrix", (1, 1), "inn"), ("j19", (), "der"),
])
def test_propnu_and_tits_roundtrip(name, params, d):
    V = jordan_catalog(name, *params)
    r = check_propnu(V, d)[0]
    assert r.name == "propnu" and r.passed, r.detail
    r = tits_roundtrip(V, d)
    assert r.name == "tits_roundtrip" and r.passed, r.detail


def test_koecher_d_equals_tits_dims():
    V = jordan_catalog("dt", 2)
    assert graded_dims(koecher_d(V, "inn").lie) == graded_dims(tits(V, "inn").lie)


@pytest.mark.parametrize("name,params", [
    ("kacK", ()), ("j19", ()), ("full_matrix", (1, 1)), ("form", (1, 2)),
])
def test_j_functor_roundtrip(name, params):
    V = jordan_catalog(name, *params)
    assert j_roundtrip_check(V).passed
    for r in koecher_inverse_check(koecher(V).lie):
        assert r.passed, (r.name, r.detail)


def test_jordan_graded_recognition():
    g = koecher(jordan_catalog("kacK")).lie
    assert is_jordan_graded(g).passed
    from supertkk.catalog import lie_catalog
    gl = lie_catalog("gl", 1, 1)  # no 3-grading attached
    assert not is_jordan_graded(gl).passed


@given(data=st.data())
@settings(**SETTINGS)
def test_j_functor_triple_is_double_bracket(data):
    # {x,y,z} built from the pair table must agree with [[x,y],z] in Ko
    V = jordan_catalog("kacK")
    ko = koecher(V)
    g = ko.lie
    pair = j_functor(g)
    dp = pair.dim(0)
    xs = [data.draw(st.tuples(*[rationals] * dp)) for _ in range(3)]
    got = oracle_tkk.pair_triple(pair, 0, *xs)
    plus = [i for i in range(g.dim) if g.zdegree(i) == 1]
    minus = [i for i in range(g.dim) if g.zdegree(i) == -1]

    def emb(vec, block):
        out = [Q(0)] * g.dim
        for l, c in enumerate(vec):
            out[block[l]] = c
        return tuple(out)

    br = g.product(g.product(emb(xs[0], plus), emb(xs[1], minus)),
                   emb(xs[2], plus))
    assert tuple(br[p] for p in plus) == got
    assert not any(br[m] for m in minus)


@pytest.mark.parametrize("name,params", [
    ("j19", ()), ("kacK", ()), ("full_matrix", (1, 1)),
])
def test_koecher_ideal_and_der0(name, params):
    V = jordan_catalog(name, *params)
    assert koecher_ideal_check(V).passed
    got = oracle_tkk.pair_der_matches_der0(V)
    assert got.passed, got.detail


def test_unital_equivalences_non_unital_note():
    res = check_unital_equivalences(jordan_catalog("kacK"))
    assert len(res) == 1 and res[0].kind == "note" and not res[0].passed


@pytest.mark.parametrize("name,params", [
    ("full_matrix", (1, 1)), ("form", (1, 2)), ("dt", (2,)),
])
def test_unital_equivalences(name, params):
    results = check_unital_equivalences(jordan_catalog(name, *params))
    names = {r.name for r in results}
    assert {"kantor_equals_koecher", "tits_inn_equals_koecher",
            "der_koecher_shift2_zero", "der_koecher_shift1_dims",
            "der_koecher_matches_kotilde", "out_koecher_zero_shift"} <= names
    for r in results:
        assert r.passed, f"{name}{params}: {r.name}: {r.detail}"


def test_out_koecher_kack():
    tower = oracle_tkk.checked_lie_der_tower(koecher(jordan_catalog("kacK")).lie)
    # one outer even direction in each of the shifts -1, 0, +1
    assert out_dims(tower) == {-1: (1, 0), 0: (1, 0), 1: (1, 0)}


@pytest.mark.parametrize("name,params", [
    ("kacK", ()), ("j19", ()), ("trunc_poly", (4,)), ("dt", (2,)),
])
def test_out_koecher_tilde_vanishes(name, params):
    kot = koecher_tilde(jordan_catalog(name, *params))
    assert out_dims(oracle_tkk.checked_lie_der_tower(kot.lie)) == {}


@pytest.mark.parametrize("source", LIE_SOURCES)
def test_lie_catalog_towers_sum_to_the_ungraded_kernel(source):
    tower = oracle_tkk.checked_lie_der_tower(resolve(source))
    assert all(b["out"] == b["der"] - b["inn"] >= 0 for b in tower.values())


# the catalog entries up to w(3) (dim 24) in the benchmark's order
SMALL_LIE_SOURCES = LIE_SOURCES[:LIE_SOURCES.index("w:3") + 1]


def test_structured_elimination_matches_the_all_rows_oracle_on_the_lie_catalog():
    for source in SMALL_LIE_SOURCES:
        for key, (cols, rows) in leibniz_blocks(resolve(source)).items():
            assert (list(integer_kernel(rows, len(cols)).basis)
                    == oracle_linalg.integer_kernel(rows.dicts(), len(cols))), (source, key)


def test_der_tower_matches_the_subspace_oracle():
    # the weight-zero tower against the whole Leibniz system, on the Lie
    # catalog and on Ko, Ko~ and Kan of every Jordan default (Ko of
    # trunc_poly and Kan of full_matrix have no torus)
    algebras = list(lie_entries().values())
    for V in jordan_entries().values():
        algebras += [koecher(V).lie, koecher_tilde(V).lie, kantor(V).lie]
    for g in algebras:
        assert lie_der_tower(g) == oracle_tkk.lie_der_tower(g), g.name


# catalog Lie tables whose torus is diagonal in the catalog basis
TORUS_LIE = ("gl:2,1", "sl:2,1", "psl:2,2", "pe:3", "q:3", "pq:2", "w:3", "h:4", "c_htilde:4")


@st.composite
def torus_lie_tables(draw):
    """A catalog Lie table in the basis f_a = s_a e_{pi(a)}, for a
    permutation pi and nonzero integers s_a: a diagonal row stays diagonal,
    so the torus is kept, its weights rescaled and permuted."""
    g = resolve(draw(st.sampled_from(TORUS_LIE)))
    n = g.dim
    pi = draw(st.permutations(range(n)))
    s = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=n, max_size=n))
    at = {b: a for a, b in enumerate(pi)}  # e_b = f_{at[b]} / s_{at[b]}
    entries = [(at[i], at[j], at[k], Q(s[at[i]] * s[at[j]] * v, g.d * s[at[k]]))
               for i, j, k, v in g.entries]
    return make_algebra([g.parity(b) for b in pi], entries, [g.zdegree(b) for b in pi],
                        name=f"{g.name}^", kind="lie")


@given(torus_lie_tables())
@settings(**SETTINGS)
def test_der_tower_of_a_permuted_rescaled_basis_matches_the_subspace_oracle(g):
    assert lie_der_tower(g) == oracle_tkk.lie_der_tower(g)


def _classes(weights) -> list:
    """Each weight's class, numbered in order of first occurrence."""
    classes: dict = {}
    return [classes.setdefault(w, len(classes)) for w in weights]


# [x, a] = a and [x, b] = c: the row of x has one off-diagonal entry, so
# this algebra has no torus at all
ONE_OFF_DIAGONAL = ((0, 0, 0, 0), [(0, 1, 1, 1), (1, 0, 1, -1), (0, 2, 3, 1), (2, 0, 3, -1)])


def test_torus_weights_match_the_loop_oracle():
    algebras = [make_algebra(*ONE_OFF_DIAGONAL, kind="lie")]
    algebras += [resolve(s) for s in TORUS_LIE + ("w:4", "h:6")]
    for V in map(resolve, ("kacK", "trunc_poly:4", "full_matrix:1,1")):
        algebras += [koecher(V).lie, koecher_tilde(V).lie, kantor(V).lie]
    for g in algebras:
        weight, zero = tkk._torus(g)
        want = oracle_tkk.torus_weights(g)
        assert weight.tolist() == _classes(want), g.name
        assert zero.tolist() == [not any(w) for w in want], g.name


# sl(2)-like h, e, f with [h, e] = e, [h, f] = f and [e, f] = h: the row of h
# is diagonal, but [e, f] has weight 2 and lands on h, of weight 0
NOT_GRADED = """
from supertkk import tkk
from supertkk.superspace import make_algebra, mirror
g = make_algebra([0, 0, 0], mirror([0, 0, 0], [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 1)], -1),
                 check=False)
tkk.check_super_jacobi = lambda a: None  # pretend it is a Lie superalgebra
tkk.lie_der_tower(g)
"""


def test_torus_certificate_survives_python_O():
    done = run_python(["-O"], NOT_GRADED)
    assert done.returncode == 1, done.stdout + done.stderr
    assert (done.stderr.strip().splitlines()[-1] == "supertkk.exact.CertificateError: "
            "torus weights must grade the table: [e_1, e_2] hits e_0")


@given(st.one_of(tables_with_zeros(), torus_lie_tables()))
@settings(max_examples=60, deadline=None)
def test_ad_rows_match_the_row_primitive_loop(a):
    # the one-pass read of the ad_x of weight 0, restricted to each block and
    # its weight-zero columns (every x, on the tables with no torus)
    weight, zero = tkk._torus(a)
    blocks = leibniz_weight_zero(a, weight)
    ad, of = tkk._ad_rows(a, blocks, zero)
    rows, lo, xs = ad.dicts(), 0, set(np.flatnonzero(zero).tolist())
    for b, ((shift, parity), (cols, _)) in enumerate(blocks.items()):
        got = [{c - lo: x for c, x in r.items()} for r, at in zip(rows, of) if at == b]
        assert all(0 <= c < len(cols) for r in got for c in r), (shift, parity)
        rc = [divmod(c, a.dim) for c in cols.tolist()]
        want = oracle_tkk.ad_rows(a, shift, parity, rc, xs)
        assert [row_primitive(r) for r in got] == [r for r in want if r], (shift, parity)
        lo += len(cols)


def test_fingerprint_center_is_the_dimension_of_the_center():
    # the fingerprint reads the center off the tower, dim g - sum of Inn
    algebras = list(lie_entries().values())
    for V in map(resolve, ("kacK", "j19", "dt:2")):
        algebras += [koecher(V).lie, koecher_tilde(V).lie]
    for g in algebras:
        assert fingerprint(g)["center"] == center(g).dim, g.name


def test_a_perturbed_adjoint_fails_the_certificate(monkeypatch):
    # ad_x of w(2), x the first basis vector of weight 0 whose ad is not
    # zero, with one constant raised: the Leibniz rows still come from the
    # table, so the raised operator is no derivation, on both sides.  The
    # tower reads the ad rows of weight 0 off the integer table in one pass
    # (tkk._ad_rows), the oracle every ad row off SuperAlgebra.basis_product
    g = load_algebra(save_algebra(resolve("w:2")))  # fresh: an empty memo
    rows, product = tkk._ad_rows, SuperAlgebra.basis_product
    zero = tkk._torus(g)[1]
    x, c, w = next((x, c, w) for x in np.flatnonzero(zero).tolist() for c in range(g.dim)
                   if (w := product(g, x, c)))
    k = next(iter(w))

    def raised_rows(a, blocks, zero):
        # the first row is ad_x
        out, of = rows(a, blocks, zero)
        if a is g:
            out.vals = out.vals.copy()
            out.vals[0] += 1
        return out, of

    def raised(a, i, j):
        out = product(a, i, j)
        return {**out, k: out[k] + 1} if a is g and (i, j) == (x, c) else out

    monkeypatch.setattr(tkk, "_ad_rows", raised_rows)
    monkeypatch.setattr(SuperAlgebra, "basis_product", raised)
    for tower in (lie_der_tower, oracle_tkk.lie_der_tower):
        with pytest.raises(CertificateError, match="adjoint operators must be derivations"):
            tower(g)


NOT_LIE = """
from supertkk.superspace import make_algebra, mirror
from supertkk.tkk import lie_der_tower
# h, e, f of degrees 0, 1, -1 with [h,e] = e, [h,f] = f, [e,f] = h: graded and
# anticommutative, but Jacobi on (h, e, f) gives -2h, and ad_f is no derivation
g = make_algebra([0, 0, 0], mirror([0, 0, 0], [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 1)], -1),
                 zdegrees=[0, 1, -1], check=False)
lie_der_tower(g)
"""


def test_adjoint_certificate_survives_python_O():
    done = run_python(["-O"], NOT_LIE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert (done.stderr.strip().splitlines()[-1]
            == "supertkk.exact.CertificateError: adjoint operators must be derivations (shift -1)")


def test_der_tower_blocks_match_pair_der():
    V = jordan_catalog("j19")
    tower = lie_der_tower(koecher(V).lie)
    got = tuple(tower.get((0, p), {"der": 0})["der"] for p in (0, 1))
    assert got == pair_der(V).dims()


def test_form_family_osp_dims():
    # quadratic form algebras land on orthosymplectic fingerprints
    expected = {(1, 2): (9, 8), (2, 2): (13, 10), (3, 0): (15, 0)}
    for (p, q2), dims in expected.items():
        ko = koecher(jordan_catalog("form", p, q2))
        assert parity_dims(ko.lie) == dims, f"form({p},{q2})"
        assert out_dims(lie_der_tower(ko.lie)) == {}


def test_dt_family_fingerprints_agree():
    a = koecher(jordan_catalog("dt", 2))
    b = koecher(jordan_catalog("dt", "1/2"))
    assert fingerprint(a.lie) == fingerprint(b.lie)
    assert parity_dims(a.lie) == (9, 8)
    assert koecher_tilde(jordan_catalog("dt", 2)).dim == 17


def test_full_matrix_psl_fingerprint():
    ko = koecher(jordan_catalog("full_matrix", 1, 1))
    assert parity_dims(ko.lie) == (6, 8)
    assert zdims(ko.lie) == {1: 4, 0: 6, -1: 4}
    fp = fingerprint(ko.lie)
    assert fp["center"] == 0 and fp["derived"] == 14


@given(data=st.data())
@settings(**SETTINGS)
def test_super_jacobi_with_even_first_slot(data):
    # [x,[y,z]] = [[x,y],z] + [y,[x,z]] holds verbatim when x is even
    g = koecher(jordan_catalog("full_matrix", 1, 1)).lie
    even = [i for i in range(g.dim) if g.parity(i) == 0]
    x = [Q(0)] * g.dim
    for i in even:
        x[i] = data.draw(rationals)
    x = tuple(x)
    y = data.draw(st.tuples(*[rationals] * g.dim))
    z = data.draw(st.tuples(*[rationals] * g.dim))
    lhs = g.product(x, g.product(y, z))
    rhs = tuple(a + b for a, b in zip(g.product(g.product(x, y), z),
                                      g.product(y, g.product(x, z))))
    assert lhs == rhs


def test_tkk_algebra_bookkeeping():
    K = jordan_catalog("kacK")
    kan = kantor(K)
    assert kan.dim == kan.lie.dim
    assert len(kan.origin) == kan.dim
    assert kan.source == "Kan(kacK)"
    ti = tits(K, "der")
    assert ti.data["label"] == "der"
    assert {o[0] for o in ti.origin} == {"d", "e", "h", "f"}


def test_constructions_form_no_rational(monkeypatch):
    """Ko, Ko~, Kan, Ti and Ko_D of a fresh unital and a fresh non-unital
    algebra read integer tables, subspaces and spans only: no module of the
    package calls Q while they are built (Ti's and Ko_D's sl2 included)."""
    import supertkk
    from supertkk import catalog, exact, jordan, structure, superspace

    fresh = [load_algebra(save_algebra(resolve(s))) for s in ("full_matrix:1,1", "kacK")]
    calls = []

    def spy(*args):
        calls.append(args)
        return Q(*args)

    for module in (supertkk, catalog, exact, jordan, structure, superspace, tkk):
        if hasattr(module, "Q"):
            monkeypatch.setattr(module, "Q", spy)
    for V in fresh:
        for build in (koecher, koecher_tilde, kantor, lambda V: tits(V, "inn"),
                      lambda V: tits(V, "der"), lambda V: koecher_d(V, "inn"),
                      lambda V: koecher_d(V, "der")):
            assert build(V).lie.dim
    assert calls == []
    jordan.find_unit(fresh[0])  # the spy sees the rationals express forms
    assert calls


@pytest.mark.parametrize("source", [("full_matrix", 1, 1), ("form", 1, 2)])
def test_equivalence_maps_eliminate_each_generator_list_once(source, monkeypatch):
    """The Kantor top space and every equivalence map factorise their
    generator lists once per call, however many elements they read: one
    span and one read per map (`_graded_map`), so two of each for the two
    unital maps, whose run also builds the unit's span.  The unit is
    memoized on V: each run starts without it, and a second `find_unit`
    builds nothing."""
    from collections import Counter

    from supertkk.catalog import load_algebra, save_algebra
    from supertkk.exact import GeneratedSpan
    from supertkk.jordan import find_unit

    V = load_algebra(save_algebra(jordan_catalog(*source)))
    ko = koecher(V, middle="inn")
    kantor(V), tits(V, "inn"), koecher_tilde(V), lie_der_tower(ko.lie)
    koecher(j_functor(ko.lie), middle="inn")  # warm every memoized construction
    calls = Counter()
    init, coordinates = GeneratedSpan.__init__, GeneratedSpan.coordinates

    def spy_init(self, *args):
        calls["built"] += 1
        init(self, *args)

    def spy_coordinates(self, vectors, message):
        calls["read"] += 1
        calls["expressed"] += len(vectors)
        return coordinates(self, vectors, message)

    monkeypatch.setattr(GeneratedSpan, "__init__", spy_init)
    monkeypatch.setattr(GeneratedSpan, "coordinates", spy_coordinates)
    for run, built, read in ((lambda: tkk.KantorTop(V), 1, 0), (lambda: find_unit(V), 1, 0),
                             (lambda: check_unital_equivalences(V), 3, 2),
                             (lambda: koecher_inverse_check(ko.lie), 1, 1)):
        calls.clear()
        V._memo.pop((find_unit.__wrapped__,), None)
        run()
        assert (calls["built"], calls["read"]) == (built, read), calls
    assert calls["expressed"] > 1
    unit = find_unit(V)
    calls.clear()
    assert find_unit(V) is unit and calls["built"] == 0


def _graded_maps(source) -> dict:
    """The arguments (src, dst, F, den) each of the four maps hands
    `tkk._graded_map` for V = resolve(source), by the check that asks: the
    tip images alone, its degree-0 rows zero."""
    V = resolve(source)
    calls = {}
    graded_map = tkk._graded_map

    def spy(src, dst, F, den):
        calls[src.name] = (src, dst, F.copy(), den)
        return graded_map(src, dst, F, den)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tkk, "_graded_map", spy)
        check_unital_equivalences(V)
        koecher_inverse_check(koecher(V).lie)
        koecher_ideal_check(V)
    return calls


@pytest.mark.parametrize("source", ["full_matrix:1,1", "form:1,2"])
def test_a_raised_tip_image_fails_the_bracket_map(source):
    # Kan -> Ko, Ti -> Ko, Ko(J(Ko)) -> Ko and Ko -> Ko~ (of equal dimension
    # for form(1,2)): each written from its tips passes, and with its first
    # tip entry raised by one it is written out and refused by the one proof
    maps = _graded_maps(source)
    assert len(maps) == 4, list(maps)
    details = {}
    for name, (src, dst, F, den) in maps.items():
        if src.dim != dst.dim:
            continue  # Ko(full_matrix(1,1)) in Ko~ is a proper ideal
        assert all(not F[i].any() for i, z in enumerate(src.zdegrees) if z == 0)
        assert tkk._check_bracket_map(src, dst, *tkk._graded_map(src, dst, F, den), "map").passed
        raised = F.copy()
        raised[tuple(np.argwhere(raised)[0])] += 1
        got = tkk._check_bracket_map(src, dst, *tkk._graded_map(src, dst, raised, den), "map")
        assert not got.passed and got.detail.startswith("bracket mismatch at basis pair ("), got
        details[name] = got.detail
    assert len(details) == 3 + (source == "form:1,2"), details
    if source == "full_matrix:1,1":
        assert details["Ti(full_matrix(1,1),inn)"] == "bracket mismatch at basis pair (0,2)"


@pytest.mark.parametrize("source", ["kacK", "j19", "full_matrix:1,1"])
def test_a_g0_beyond_the_tip_brackets_is_refused(source):
    # Der(V,V) is larger than Inn(V,V) = [V+, V-] here, so no map out of
    # Ko~(V) is fixed by its tips
    g = koecher_tilde(resolve(source)).lie
    with pytest.raises(CertificateError, match=rf"^g0 of {re.escape(g.name)} is not \[g\+, g-\]$"):
        tkk._graded_map(g, g, np.eye(g.dim, dtype=np.int64), 1)


BEYOND_THE_TIPS = """
import numpy as np
from supertkk.catalog import resolve
from supertkk.tkk import _graded_map, koecher_tilde
g = koecher_tilde(resolve("kacK")).lie
_graded_map(g, g, np.eye(g.dim, dtype=np.int64), 1)
"""


def test_a_g0_beyond_the_tip_brackets_survives_python_O():
    done = run_python(["-O"], BEYOND_THE_TIPS)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stderr.strip().splitlines()[-1] == (
        "supertkk.exact.CertificateError: g0 of Ko~(kacK,kacK) is not [g+, g-]")
