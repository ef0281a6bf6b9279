"""The J side against the loop oracle (tests/oracle_tkk.py).

`j_functor`, `is_jordan_graded`, `koecher_inverse_check` and
`koecher_ideal_check` read every bracket they need off the encoded table of
g: the triples [[x, y], z] are one contraction (`tensor.lie_triples`), the
brackets [g+, g-] one slice, the middle images of Ko(J(g)) -> g one product
and the brackets with the embedded Ko one more contraction.  They must give
what the `SuperAlgebra.product` loops gave, on the Ko, Ko~, Kan and Ti(inn)
of every Jordan catalog entry, and fail where the loops fail on perturbed
tables and images.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_tkk as oracle
from oracle_tables import unchecked
from pyrun import run_python
from supertkk import structure, tensor, tkk
from supertkk.catalog import (_JORDAN_DEFAULTS, jordan_catalog, load_algebra, resolve,
                              save_algebra)
from supertkk.exact import CertificateError, GeneratedSpan, Q
from supertkk.structure import JordanPair, pair_inn
from supertkk.superspace import integer_algebra
from test_tensor import _pair_tables, _rescaled, twelfths

SETTINGS = dict(max_examples=15, deadline=None)
SMALL = ("kacK", "j19", "full_matrix:1,1", "form:1,2", "dt:1/2", "trunc_poly:4")


def _lie_side(V):
    """The 3-graded Lie superalgebras built from V, by label."""
    return {"Ko": tkk.koecher(V).lie, "Ko~": tkk.koecher_tilde(V).lie,
            "Kan": tkk.kantor(V).lie, "Ti": tkk.tits(V, "inn").lie}


def _outcome(compute):
    try:
        return compute()
    except CertificateError as e:
        return ("raised", str(e))


def _pair(module, g):
    # J(g) before the axiom check, which a perturbed g may fail
    pair = tkk._j_pair(g) if module is tkk else module.j_functor(g, check=False)
    return pair.parities, _pair_tables(pair)


def _inverse(module, g):
    """koecher_inverse_check's results and the images it certified."""
    images = []
    check = tkk._check_bracket_map

    def spy(src, dst, F, den, name):
        images.append(oracle.map_images(F, den))
        return check(src, dst, F, den, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tkk, "_check_bracket_map", spy)
        results = _outcome(lambda: module.koecher_inverse_check(g))
    return results, images


def _assert_same(g):
    assert _outcome(lambda: _pair(tkk, g)) == _outcome(lambda: _pair(oracle, g))
    assert tkk.is_jordan_graded(g) == oracle.is_jordan_graded(g)
    assert _inverse(tkk, g) == _inverse(oracle, g)


@pytest.mark.parametrize("source", _JORDAN_DEFAULTS)
def test_j_side_matches_the_loop_oracle(source):
    V = resolve(source)
    for g in _lie_side(V).values():
        _assert_same(g)
    assert tkk.koecher_ideal_check(V) == oracle.koecher_ideal_check(V)
    assert tkk.koecher_ideal_check(V).passed


# ---------------------------------------------------------------------------
# perturbed tables and images


def _blocks(g):
    return ([i for i in range(g.dim) if g.zdegree(i) == z] for z in (1, -1, 0))


def _with_table(g, table):
    return unchecked(f"{g.name}'", g.parities, table, g.zdegrees, kind="lie")


@given(st.data())
@settings(**SETTINGS)
def test_a_triple_leaving_its_block_fails_like_the_loop(data):
    # one constant of [e_m, e_k], m in g0 and k in g+-, raised at a basis
    # vector outside e_k's block: every triple through e_m and e_k leaves it
    g = _lie_side(resolve(data.draw(st.sampled_from(SMALL))))["Ko"]
    plus, minus, zero = _blocks(g)
    m = data.draw(st.sampled_from(zero))
    k = data.draw(st.sampled_from(plus + minus))
    l = data.draw(st.sampled_from([i for i in range(g.dim) if g.zdegree(i) != g.zdegree(k)]))
    table = {key: dict(row) for key, row in g.table.items()}
    row = table.setdefault((m, k), {})
    row[l] = row.get(l, Q(0)) + data.draw(twelfths.filter(bool))
    bad = _with_table(g, table)
    got = _outcome(lambda: _pair(tkk, bad))
    assert got == _outcome(lambda: _pair(oracle, bad))
    assert got == ("raised", "triple left the graded block")


@given(st.data())
@settings(**SETTINGS)
def test_brackets_missing_or_leaving_g0_fail_like_the_loop(data):
    # every [x+, u-] (and [u-, x+]) loses its e_t component, t in g0, or
    # one of them gains a component outside g0
    g = _lie_side(resolve(data.draw(st.sampled_from(SMALL))))[
        data.draw(st.sampled_from(("Ko", "Kan", "Ti")))]
    plus, minus, zero = _blocks(g)
    table = {key: dict(row) for key, row in g.table.items()}
    if data.draw(st.booleans()):
        t = data.draw(st.sampled_from(zero))
        for i in plus:
            for j in minus:
                for key in ((i, j), (j, i)):
                    table.get(key, {}).pop(t, None)
    else:
        key = (data.draw(st.sampled_from(plus)), data.draw(st.sampled_from(minus)))
        at = data.draw(st.sampled_from(plus + minus))
        table.setdefault(key, {})[at] = data.draw(twelfths.filter(bool))
    bad = _with_table(g, table)
    got = tkk.is_jordan_graded(bad)
    assert not got.passed and got == oracle.is_jordan_graded(bad)
    assert got.detail.startswith("[g+, g-] has dim ")
    assert tkk.koecher_inverse_check(bad) == [got]


def test_a_central_g0_fails_like_the_loop():
    # Heisenberg, basis a, b, z of degrees 1, -1, 0: [a, b] = z spans g0, but
    # z is central, so g0 meets the centre
    g = integer_algebra([0, 0, 0], [(0, 1, 2, 1), (1, 0, 2, -1)], 1, [1, -1, 0],
                        name="heisenberg", kind="lie")
    got = tkk.is_jordan_graded(g)
    assert got == oracle.is_jordan_graded(g)
    assert not got.passed and got.detail == "center meets g0 in dim 1"


@given(st.data())
@settings(**SETTINGS)
def test_a_broken_middle_image_fails_like_the_loop(data):
    # the D-span coefficients of one middle element, raised at a nonzero
    # generator D_{x,u}: the image moves by a multiple of [x, u] != 0, which
    # is not central in Jordan-graded g, so no bracket map can absorb it.
    # The loop reads each element's rationals (express); supertkk reads the
    # whole middle as (C, den) over the D_{x,u} at their stack's scale, so
    # its coefficient is raised by the same shift in the units of its rows
    V = resolve(data.draw(st.sampled_from(SMALL)))
    g = _lie_side(V)[data.draw(st.sampled_from(("Ko", "Ti")))]
    pair = tkk.j_functor(g)
    mid = tkk.koecher(pair).data["middle"]
    target, pick = data.draw(st.integers(0, mid.dim - 1)), data.draw(st.integers(0, 50))
    shift = data.draw(twelfths.filter(bool))
    express, coordinates, calls = GeneratedSpan.express, GeneratedSpan.coordinates, []

    def at(gens):
        nonzero = [i for i, gen in enumerate(gens) if gen.any()]  # the rows of an array
        return nonzero[pick % len(nonzero)]

    def broken(self, vec):
        c = express(self, vec)
        calls.append(None)
        if len(calls) - 1 == target and c is not None:
            i = at(self._gens)
            c = c[:i] + (c[i] + shift,) + c[i + 1:]
        return c

    def broken_batch(self, vectors, message):
        C, den = coordinates(self, vectors, message)
        if message == "middle element outside the D span":
            # row t / den holds the coefficients of mid.den W_t over ds.den D_k
            s = shift * mid.stack.den / tkk.pair_d_stack(pair).den
            C = C.astype(object) * s.denominator
            C[target, at(self._gens)] += s.numerator * den
            den *= s.denominator
        return C, den

    results = {}
    for module in (tkk, oracle):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GeneratedSpan, "express", broken)
            mp.setattr(GeneratedSpan, "coordinates", broken_batch)
            results[module] = _inverse(module, g)
    assert results[tkk] == results[oracle]
    jordan, *iso = results[tkk][0]
    assert not iso[0].passed if jordan.passed else iso == [], iso  # Ti(j19) is not graded


@pytest.mark.parametrize("source", ("kacK", "full_matrix:1,1", "j19"))
def test_a_smaller_middle_is_no_ideal_like_the_loop(source, monkeypatch):
    # Inn(V,V) cut to its first basis operator: [x+, u-] leaves the span
    V = resolve(source)
    full = pair_inn(V)
    cut = oracle.operator_space("cut", {0: full.even.basis[:1]}, full.shape)
    monkeypatch.setattr(tkk, "pair_inn", lambda v: cut)
    got = tkk.koecher_ideal_check(V)
    assert not got.passed and got == oracle.koecher_ideal_check(V)


def test_repeated_inverse_checks_build_ko_of_j_once(monkeypatch):
    # J(g) is memoized on g, so Ko(J(g)) and its Inn(V,V) are built by the
    # first check and found by the next two
    V = load_algebra(save_algebra(jordan_catalog("full_matrix", 2, 1)))  # a fresh object
    g = tkk.koecher(V).lie
    labels = []
    build = structure._stack_space

    def spy(label, *args):
        labels.append(label)
        return build(label, *args)

    monkeypatch.setattr(structure, "_stack_space", spy)
    for _ in range(3):
        assert all(r.passed for r in tkk.koecher_inverse_check(g))
    assert labels.count("Inn(V,V)") == 1, labels
    assert tkk.j_functor(g) is tkk._j_pair(g)


def test_repeated_inverse_checks_run_the_axiom_check_once(monkeypatch):
    # check_pair_axioms is memoized on the pair, which J(g) keeps: the first
    # check scans the triples, the next two find its verdict; the two halves
    # of J(Ko(V)) are equal, so one scan covers sigma = + and sigma = -
    V = load_algebra(save_algebra(jordan_catalog("full_matrix", 2, 1)))  # a fresh object
    g = tkk.koecher(V).lie
    scans = []
    scan = tensor.outer_symmetry_defect

    def spy(T, p, q):
        scans.append(T.shape)
        return scan(T, p, q)

    monkeypatch.setattr(tensor, "outer_symmetry_defect", spy)
    for _ in range(3):
        assert all(r.passed for r in tkk.koecher_inverse_check(g))
    assert len(scans) == 1, scans


@pytest.mark.parametrize("source", ("kacK", "full_matrix:1,1", "j19"))
def test_j_roundtrip_compares_the_tensors_at_their_denominators(source, monkeypatch):
    # a raised entry of either tensor of J(Ko(V)) fails the round trip; the
    # same pair at 3 times its tensors and 3 times its denominator passes
    V = resolve(source)
    pair = tkk.j_functor(tkk.koecher(V).lie)
    assert tkk.j_roundtrip_check(V).passed
    cases = [(JordanPair(pair.name, pair.parities, tuple(3 * T for T in pair.tensors),
                         3 * pair.den), "triple tables agree")]
    for sigma, nth in ((0, 0), (1, -1)):  # the first nonzero of T+, the last of T-
        tensors = [T.copy() for T in pair.tensors]
        tensors[sigma][tuple(np.argwhere(tensors[sigma])[nth])] += 1
        cases.append((JordanPair(pair.name, pair.parities, tensors, pair.den),
                      "triple tables differ"))
    for other, detail in cases:
        monkeypatch.setattr(tkk, "_j_pair", lambda g: other)
        got = tkk.j_roundtrip_check(V)
        assert (got.passed, got.detail) == (detail.endswith("agree"), detail), detail


# ---------------------------------------------------------------------------
# the int64 bound and python -O


@pytest.mark.parametrize("scale", [1, 10 ** 12])
def test_the_j_side_proves_its_int64_bound(scale, monkeypatch):
    # full_matrix(1,1) with e12 scaled: the constants of Ko, Ko~ and their
    # products pass 2**62 at 10^12, and every contraction is cast for its
    # own bound
    V = _rescaled(jordan_catalog("full_matrix", 1, 1), [Q(1), Q(scale), Q(1), Q(1)])
    g = tkk.koecher(V).lie
    tkk.koecher_tilde(V)  # built outside the spy
    casts = []
    cast = tensor._exact

    def spy(arrays, factor, degree):
        out = cast(arrays, factor, degree)
        top = max((int(abs(a).max()) for a in arrays if a.size), default=0)
        casts.append((sys._getframe(1).f_code.co_name, factor * max(top, 1) ** degree < 2 ** 62,
                      {str(t.dtype) for t in out}))
        return out

    monkeypatch.setattr(tensor, "_exact", spy)
    _assert_same(g)
    assert tkk.koecher_ideal_check(V) == oracle.koecher_ideal_check(V)
    proved = {p for caller, p, _ in casts if caller == "contract"}
    assert proved == {True} if scale == 1 else False in proved, proved
    assert all(dtypes == ({"int64"} if p else {"object"}) for _, p, dtypes in casts)


LEAVING_TRIPLE = """
import sys
from supertkk.superspace import SuperAlgebra
from supertkk.tkk import j_functor
if not sys.flags.optimize:
    raise SystemExit("expected python -O")
# [a, b] = h but [h, a] = b: {a, b, a} lands in g-1
g = SuperAlgebra("bad", (0, 0, 0), [(0, 1, 2, 1), (2, 0, 1, 1)], 1, (1, -1, 0))
j_functor(g)
"""


def test_triple_certificate_survives_python_O():
    done = run_python(["-O"], LEAVING_TRIPLE)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stderr.strip().splitlines()[-1] == (
        "supertkk.exact.CertificateError: triple left the graded block")
