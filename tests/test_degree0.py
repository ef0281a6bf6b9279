"""The degree-0 layer against the loop oracle (tests/oracle_tkk.py).

The supercommutators of an operator basis come from one batched contraction
(`OperatorStack.bracket`), their coordinates from the pivot entries,
certified by one recombination per parity (`OperatorSpace.coordinates`).
Every construction built on them must write the structure constants the
Fraction loops wrote, and a bracket leaving its space must raise where the
loop raised.  The checks that ran the last dense Matrix loops (the Tits
round trip, the unital equivalence maps, the L witness and the Killing form
of sl2) must give what those loops give, on perturbed input too.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_tkk as oracle
from oracle_linalg import basis_vector, contains, operators, supercommutator
from oracle_tables import unchecked
from supertkk import structure, tensor, tkk
from supertkk.catalog import jordan_catalog, lie_catalog, resolve
from supertkk.exact import CertificateError, Q, Subspace
from supertkk.structure import (OperatorSpace, der_algebra, double, inclusion_report,
                                inn_algebra, istr_tilde, l_space, pair_inn)
from supertkk.superspace import make_algebra
from test_tensor import _as_jordan, _pair_tables, _rescaled, _sl2, graded_tables, twelfths

SETTINGS = dict(max_examples=25, deadline=None)
values = st.one_of(st.just(Q(0)), st.just(Q(0)), twelfths)
CONSTRUCTION_SOURCES = ("kacK", "full_matrix:1,1", "form:1,2", "j19", "dt:1/2",
                        "trunc_poly:4", "form:3,0")


# ---------------------------------------------------------------------------
# random operator spaces


def _loop_brackets(space: OperatorSpace, other: OperatorSpace):
    """(flat, parity) of [A_t, B_s] for the bases of two spaces, by Matrix products."""
    out = []
    for a in operators(space):
        for b in operators(other):
            if space.paired:
                (ap, am, pa), (bp, bm, pb) = a, b
                s = Q(-1) if pa * pb % 2 else Q(1)
                out.append(((ap @ bp - (bp @ ap).scale(s)).flatten()
                            + (am @ bm - (bm @ am).scale(s)).flatten(), (pa + pb) % 2))
            else:
                br = supercommutator(a, b)
                out.append((br.matrix.flatten(), br.parity))
    return out


@st.composite
def operator_spaces(draw, shape=None):
    """A span of homogeneous operators on V (plain) or on V+ x V- (paired,
    dim V+ != dim V-) with constants of denominators up to 12, both parities
    drawn; about half of them closed under bracket."""
    if shape is None:
        paired = draw(st.booleans())
        shape = ((draw(st.integers(1, 3)),) if not paired
                 else draw(st.tuples(st.integers(1, 3), st.integers(1, 3))
                           .filter(lambda s: s[0] != s[1])))
    par = [draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)) for m in shape]
    flats = {0: [], 1: []}
    for parity in (0, 1):
        for _ in range(draw(st.integers(0, 2))):
            flats[parity].append(tuple(
                draw(values) if (p[r] + p[c]) % 2 == parity else Q(0)
                for p in par for r in range(len(p)) for c in range(len(p))))
    space = oracle.operator_space("S", flats, tuple(shape))
    closed = not draw(st.booleans())
    while not closed:
        for flat, parity in _loop_brackets(space, space):
            flats[parity].append(flat)
        bigger = oracle.operator_space("S", flats, tuple(shape))
        closed, space = bigger.dims() == space.dims(), bigger
    return space


def _new_coordinates(space, ops):
    rows = oracle.decode(space.coordinates(ops), ops.den)
    return [[rows.get((b,), {}).get(l, Q(0)) for l in range(space.dim)]
            for b in range(len(ops))]


def _outcome(compute):
    try:
        return compute()
    except CertificateError as e:
        return ("raised", str(e))


@given(operator_spaces())
@settings(**SETTINGS)
def test_bracket_coordinates_match_the_loop_oracle(space):
    t_le_s = [(t, s) for t in range(space.dim) for s in range(t, space.dim)]
    loop = _loop_brackets(space, space)
    want = _outcome(lambda: [oracle.op_coords(space, *loop[t * space.dim + s])
                             for t, s in t_le_s])
    got = _outcome(lambda: _new_coordinates(space, space.stack.bracket()))
    assert got == want


@given(st.data())
@settings(**SETTINGS)
def test_bracket_of_two_spaces_is_contained_like_the_loop(data):
    a = data.draw(operator_spaces())
    b = data.draw(operator_spaces(a.shape))
    want = all(contains(b.part(parity), flat) for flat, parity in _loop_brackets(a, b))
    assert b.contains_stack(a.stack.bracket(b.stack)) is want
    flats = [v for v in a.even.basis + a.odd.basis]
    assert [[Q(int(x), a.stack.den) for x in row] for row in a.stack.flats().tolist()] == \
        [list(v) for v in flats]


def test_an_unclosed_space_raises_where_the_loop_raised():
    # span{E12, E21} in End(Q^2): [E12, E21] = E11 - E22 leaves it
    e12, e21 = (Q(0), Q(1), Q(0), Q(0)), (Q(0), Q(0), Q(1), Q(0))
    space = OperatorSpace("span{E12,E21}", Subspace(4, [e12, e21]), Subspace(4, []), (2,))
    with pytest.raises(CertificateError, match=r"operator does not lie in span\{E12,E21\}"):
        space.coordinates(space.stack.bracket())
    assert not space.contains_stack(space.stack.bracket())
    A, B = (op for op in operators(space))
    with pytest.raises(CertificateError, match=r"operator does not lie in span\{E12,E21\}"):
        oracle.op_coords(space, supercommutator(A, B).matrix.flatten(), 0)
    # as a Tits derivation container of the zero product on Q^2, where
    # Der = End(Q^2) and Inn = 0, it passes every other precondition
    V = make_algebra((0, 0), [], name="zero2", kind="jordan")
    for tits_data in (tkk.tits_data, oracle.tits_data):
        with pytest.raises(ValueError, match="derivation container is not closed under bracket"):
            tits_data(V, space)


@st.composite
def tits_containers(draw):
    """A rescaled catalog algebra V and a derivation container of V: Inn,
    Der, {L} or the sum of two of them, as it is or with one operator
    perturbed: a basis operator of one parity dropped, dropped with a
    nonzero multiple of it folded into another one (which can break the
    closure, as span{x d, x^2 d + x^3 d} in Der(Q[x]/(x^4)) does), or raised
    by a random operator of that parity (added to the part when it is
    empty)."""
    V = draw(rescaled_jordan())
    n, p = V.dim, V.parities
    spaces = {"Inn": inn_algebra(V), "Der": der_algebra(V), "{L}": l_space(V)}
    names = draw(st.lists(st.sampled_from(sorted(spaces)), min_size=1, max_size=2, unique=True))
    space = spaces[names[0]] if len(names) == 1 else spaces[names[0]].sum(spaces[names[1]])
    change = draw(st.sampled_from(("none", "drop", "fold", "raise")))
    if change == "none":
        return V, space
    parity = draw(st.integers(0, 1))
    rows = list(space.part(parity).basis)
    at = draw(st.integers(0, len(rows) - 1)) if rows else None
    if change == "drop" and rows:
        del rows[at]
    elif change == "fold" and len(rows) > 1:
        to = draw(st.integers(0, len(rows) - 1).filter(lambda b: b != at))
        c = draw(twelfths.filter(bool))
        rows[to] = tuple(a + c * b for a, b in zip(rows[to], rows[at]))
        del rows[at]
    elif change == "raise":
        X = tuple(draw(values) if (p[r] + p[c]) % 2 == parity else Q(0)
                  for r in range(n) for c in range(n))
        if rows:
            rows[at] = tuple(a + b for a, b in zip(rows[at], X))
        else:
            rows.append(X)
    parts = [space.even, space.odd]
    parts[parity] = Subspace(n * n, rows)
    return V, OperatorSpace("+".join(names), *parts, (n,))


@given(tits_containers())
@settings(**SETTINGS)
def test_tits_data_accepts_and_refuses_like_the_loop_oracle(case):
    # the derivation defect and the two certified reads against membership
    # in the computed Der(V), containment of Inn(V) and the bracket loop
    V, space = case

    def outcome(tits_data):
        try:
            return tits_data(V, space).dspace
        except ValueError as err:
            return ("raised", str(err))

    assert outcome(tkk.tits_data) == outcome(oracle.tits_data)


# ---------------------------------------------------------------------------
# the constructions on catalog algebras in rescaled bases


def _same_algebra(new, old):
    assert new.lie.name == old.lie.name
    assert new.lie.parities == old.lie.parities and new.lie.zdegrees == old.lie.zdegrees
    assert new.lie.table == old.lie.table
    assert new.origin == old.origin


@st.composite
def rescaled_jordan(draw, sources=CONSTRUCTION_SOURCES):
    V = resolve(draw(st.sampled_from(sources)))
    nonzero = twelfths.filter(bool)
    return _rescaled(V, draw(st.lists(nonzero, min_size=V.dim, max_size=V.dim)))


def _assert_constructions_match(V):
    _same_algebra(tkk.koecher(V), oracle.koecher(V))
    _same_algebra(tkk.koecher_tilde(V), oracle.koecher(V, "der"))
    _same_algebra(tkk.kantor(V), oracle.kantor(V))
    for d in ("inn", "der"):
        _same_algebra(tkk.tits(V, d), oracle.tits(V, d))
        _same_algebra(tkk.koecher_d(V, d), oracle.koecher_d(V, d))


@given(rescaled_jordan())
@settings(max_examples=8, deadline=None)
def test_constructions_match_the_loop_oracle(V):
    _assert_constructions_match(V)


@given(rescaled_jordan())
@settings(max_examples=8, deadline=None)
def test_structure_spaces_and_checks_match_the_loop_oracle(V):
    assert inn_algebra(V) == oracle.inn_algebra(V)
    assert l_space(V) == oracle.l_space(V)
    assert pair_inn(V) == oracle.pair_inn(V)
    want = oracle.inclusion_checks(V)
    assert {r.name: r.passed for r in inclusion_report(V) if r.name in want} == want
    assert all(want.values())
    assert oracle.pair_der_matches_der0(V).passed
    for got in tkk.check_propnu(V, "inn") + tkk.check_unital_equivalences(V)[:2]:
        assert got.passed or got.kind == "note", got


@given(rescaled_jordan(CONSTRUCTION_SOURCES + ("trunc_poly:6", "form:2,2", "dt:2")))
@settings(**SETTINGS)
def test_istr_tilde_matches_the_d_op_loop(V):
    # read off the triple tensor against n**2 d_op matrices of Fraction triples
    assert istr_tilde(V) == oracle.istr_tilde(V)


@given(st.one_of(rescaled_jordan(),
                 graded_tables(1, values).flatmap(
                     lambda a: st.booleans().map(lambda u: _as_jordan(a, u and a.dim < 4)))))
@settings(**SETTINGS)
def test_double_matches_the_triple_loop(V):
    got, want = double(V), oracle.double(V)
    assert got.parities == want.parities and _pair_tables(got) == _pair_tables(want)


# ---------------------------------------------------------------------------
# the equivalence-map certificate


def _identity_images(g):
    return [basis_vector(g, i) for i in range(g.dim)]


@given(st.data())
@settings(**SETTINGS)
def test_perturbed_bracket_map_fails_like_the_loop(data):
    V = resolve(data.draw(st.sampled_from(("kacK", "full_matrix:1,1", "j19"))))
    g = data.draw(st.sampled_from([tkk.koecher(V), tkk.tits(V, "inn")])).lie
    images = [list(v) for v in _identity_images(g)]
    at = data.draw(st.integers(0, g.dim - 1))
    to = data.draw(st.sampled_from([k for k in range(g.dim) if g.parity(k) == g.parity(at)]))
    images[at][to] += data.draw(twelfths.filter(bool))
    images = [tuple(v) for v in images]
    got = tkk._check_bracket_map(g, g, *oracle.map_matrix(images), "perturbed")
    assert got == oracle.check_bracket_map(g, g, images, "perturbed")


def test_a_perturbed_image_names_the_first_pair_in_loop_order():
    V = jordan_catalog("full_matrix", 1, 1)
    ti, kd = tkk.tits(V, "inn"), tkk.koecher_d(V, "inn")
    assert tkk.check_propnu(V, "inn")[0].passed
    n, nd = V.dim, ti.data["dspace"].dim
    off_d, off_l, off_m = n, n + nd, n + nd + n
    # the propnu map, with h (x) e_0 sent to 3 L-hat_0 instead of 2 L-hat_0
    images = []
    for tag in ti.origin:
        vec = [Q(0)] * kd.dim
        at = {"d": off_d, "e": 0, "f": off_m, "h": off_l}[tag[0]] + tag[1]
        vec[at] = Q(2) if tag[0] == "h" else Q(1)
        images.append(vec)
    images[nd + n][off_l] = Q(3)  # h (x) e_0
    images = [tuple(v) for v in images]
    got = tkk._check_bracket_map(ti.lie, kd.lie, *oracle.map_matrix(images), "propnu")
    want = oracle.check_bracket_map(ti.lie, kd.lie, images, "propnu")
    assert got == want and not got.passed
    assert got.detail.startswith("bracket mismatch at basis pair (")


def test_each_early_exit_of_the_map_certificate_matches_the_loop():
    # a map into an algebra of another dimension, a map with two equal
    # images, and one that swaps an even and an odd basis vector: each stops
    # the certificate before the brackets, with the loop's detail
    V = resolve("kacK")
    ko, kot = tkk.koecher(V).lie, tkk.koecher_tilde(V).lie
    even, odd = ko.parities.index(0), ko.parities.index(1)
    dependent = np.eye(ko.dim, dtype=np.int64)
    dependent[odd] = dependent[even]
    order = list(range(ko.dim))
    order[even], order[odd] = odd, even
    cases = [(kot, np.eye(ko.dim, kot.dim, dtype=np.int64), "dimension mismatch 14 vs 15"),
             (ko, dependent, "images are linearly dependent"),
             (ko, np.eye(ko.dim, dtype=np.int64)[order],
              f"parity broken at basis {min(even, odd)}")]
    for dst, F, detail in cases:
        got = tkk._check_bracket_map(ko, dst, F, 1, "exit")
        assert got == oracle.check_bracket_map(ko, dst, oracle.map_images(F, 1), "exit")
        assert not got.passed and got.detail == detail


def test_a_map_past_int64_is_checked_on_python_ints():
    # the identity of Ko(kacK) written as 2**70 I / 2**70, then with one
    # image moved by 2**-70 along a basis vector of its parity
    g = tkk.koecher(resolve("kacK")).lie
    big = 2 ** 70
    F = np.eye(g.dim, dtype=np.int64).astype(object) * big
    assert tensor.bracket_map_defect(g, g, F, big) is None
    F[0, next(k for k in range(1, g.dim) if g.parity(k) == g.parity(0))] += 1
    got = tkk._check_bracket_map(g, g, F, big, "big")
    assert got == oracle.check_bracket_map(g, g, oracle.map_images(F, big), "big")
    assert got.detail.startswith("bracket mismatch at basis pair (")


# ---------------------------------------------------------------------------
# the int64 bound


def test_degree0_contractions_prove_their_int64_bound(monkeypatch):
    # full_matrix(1,1) with e12 scaled by 10^12: the bases of the middles
    # carry the scale and its inverse, so bracket and reader casts cannot be
    # proved for int64 and take object-dtype Python ints.  Every cast is
    # checked against its own bound, and every result against the loops.
    import sys

    V = _rescaled(jordan_catalog("full_matrix", 1, 1), [Q(1), Q(10 ** 12), Q(1), Q(1)])
    casts = []
    cast = tensor._exact

    def spy(arrays, factor, degree):
        out = cast(arrays, factor, degree)
        top = max((int(abs(a).max()) for a in arrays if a.size), default=0)
        casts.append((sys._getframe(1).f_code.co_name, factor * max(top, 1) ** degree < 2 ** 62,
                      {str(t.dtype) for t in out}))
        return out

    monkeypatch.setattr(tensor, "_exact", spy)
    _assert_constructions_match(V)
    assert _pair_tables(double(V)) == _pair_tables(oracle.double(V))
    assert oracle.pair_der_matches_der0(V).passed
    for kernel in ("brackets", "pivot_coordinates"):  # both reach the object path
        assert False in {proved for caller, proved, _ in casts if caller == kernel}, kernel
    assert {proved for _, proved, _ in casts} == {True, False}
    assert all(dtypes == ({"int64"} if proved else {"object"}) for _, proved, dtypes in casts)


# ---------------------------------------------------------------------------
# the last dense loops: Tits round trip, equivalence maps, L witness, Killing


UNITAL_SOURCES = ("full_matrix:1,1", "form:1,2", "dt:1/2", "form:3,0", "dt:2", "form:2,2")


def _equivalence_images(V):
    """The images check_unital_equivalences certifies, by check name, and its
    results."""
    images = {}
    check = tkk._check_bracket_map

    def spy(src, dst, F, den, name):
        images[name] = oracle.map_images(F, den)
        return check(src, dst, F, den, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tkk, "_check_bracket_map", spy)
        results = tkk.check_unital_equivalences(V)
    return images, results


@given(rescaled_jordan(), st.sampled_from(("inn", "der")))
@settings(**SETTINGS)
def test_tits_roundtrip_matches_the_loop_oracle(V, d):
    got = tkk.tits_roundtrip(V, d)
    assert got == oracle.tits_roundtrip(V, d) and got.passed, got


def _perturbed_tits(V, d, changes):
    """Ti(V, d) with the constant at coordinate k of [e (x) a, f (x) b]
    raised by c, for each (a, b, k, c) in changes."""
    ti = tkk.tits(V, d)
    g, n, nd = ti.lie, V.dim, ti.data["dspace"].dim
    table = {key: dict(row) for key, row in g.table.items()}
    for a, b, k, c in changes:
        row = table.setdefault((nd + a, nd + 2 * n + b), {})
        row[k] = row.get(k, Q(0)) + c
    lie = unchecked(g.name, g.parities, table, g.zdegrees, g.kind, g.metadata)
    return tkk.TkkAlgebra(lie, ti.construction, ti.origin, ti.source, ti.data)


@st.composite
def tits_perturbations(draw):
    """A catalog algebra, a derivation choice and one or two raised constants
    of [e (x) a, f (x) b]: in its D component, in h (x) V, or outside D + h (x) V.
    The raised constants sit at distinct (a, b, k), so two changes never
    cancel."""
    V = resolve(draw(st.sampled_from(("kacK", "full_matrix:1,1", "j19", "form:1,2"))))
    d = draw(st.sampled_from(("inn", "der")))
    n, nd = V.dim, tkk.tits(V, d).data["dspace"].dim

    @st.composite
    def change(draw):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        where = draw(st.sampled_from(("D", "h", "e", "f")))
        k = {"D": draw(st.integers(0, nd - 1)) if nd else nd + n,
             "h": nd + n + draw(st.integers(0, n - 1)),
             "e": nd + draw(st.integers(0, n - 1)),
             "f": nd + 2 * n + draw(st.integers(0, n - 1))}[where]
        return a, b, k, draw(twelfths.filter(bool))

    changes = draw(st.lists(change(), min_size=1, max_size=2, unique_by=lambda c: c[:3]))
    return V, d, changes


@given(tits_perturbations())
@example((resolve("kacK"), "inn", [(0, 0, 0, Q(1)), (0, 0, 1, Q(-1))]))  # one (a, b), two k
@settings(**SETTINGS)
def test_perturbed_tits_fails_like_the_loop(case):
    # a Ti whose [e (x) a, f (x) b] has raised constants fails the round trip
    # with the oracle's detail, at the first perturbed (a, b) in loop order
    V, d, changes = case
    bad = _perturbed_tits(V, d, changes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tkk, "tits", lambda V, d="inn": bad)
        got, want = tkk.tits_roundtrip(V, d), oracle.tits_roundtrip(V, d)
    assert got == want and not got.passed, (got, want)
    a, b = min((a, b) for a, b, _, _ in changes)
    assert f"{a}, f (x) {b}]" in got.detail or f"at ({a},{b})" in got.detail, got.detail


def test_a_raised_d_coefficient_names_its_pair():
    V = jordan_catalog("full_matrix", 1, 1)
    bad = _perturbed_tits(V, "inn", [(2, 1, 0, Q(1))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tkk, "tits", lambda V, d="inn": bad)
        got = tkk.tits_roundtrip(V, "inn")
        assert got == oracle.tits_roundtrip(V, "inn")
    assert got.detail == "recovered pairing wrong at (2,1)"


@given(rescaled_jordan(UNITAL_SOURCES))
# the contraction that combines the [F x, F u] of Ti(V, inn) -> Ko(V) proves
# its int64 bound here (about 5.2 10**12), but times the denominator of Ti's
# table (about 1.6 10**7) it passes 2**63
@example(_rescaled(resolve("dt:2"), [Q(-5, 9), Q(-9, 11), Q(12, 7), Q(-2, 11)]))
@settings(max_examples=12, deadline=None)
def test_equivalence_images_match_the_loop_oracle(V):
    images, results = _equivalence_images(V)
    assert images == oracle.equivalence_images(V)
    assert all(r.passed for r in results), results


@given(rescaled_jordan(CONSTRUCTION_SOURCES + ("trunc_poly:6",)), st.data())
@settings(**SETTINGS)
def test_l_witness_matches_the_loop_oracle(V, data):
    # a multiple of some L_x, and (usually) an operator outside {L}
    n = V.dim
    x = data.draw(st.lists(twelfths, min_size=n, max_size=n))
    scale = data.draw(twelfths.filter(bool))
    flat = tuple(scale * c for c in oracle.l_op(V, x).matrix.flatten())
    other = tuple(data.draw(st.lists(twelfths, min_size=n * n, max_size=n * n)))
    for op in (flat, other):
        got = _outcome(lambda: structure._l_witness(V, op))
        assert got == _outcome(lambda: oracle.l_witness(V, op))
    if any(flat):  # the witness w has L_w proportional to the operator
        w = oracle.l_op(V, structure._l_witness(V, flat)).matrix.flatten()
        assert Subspace(n * n, [w, flat]).dim == 1


@given(st.one_of(graded_tables(-1, values), graded_tables(1, values),
                 st.lists(twelfths.filter(bool), min_size=3, max_size=3)
                 .map(lambda s: _rescaled(_sl2(), s))))
@settings(**SETTINGS)
def test_killing_half_matches_the_adjoint_loop(y):
    assert _killing_half(y) == oracle.killing_half(y).data


def _killing_half(y) -> tuple:
    """tkk._killing_half's (K, den) as rows of rationals, like Matrix.data."""
    K, den = tkk._killing_half(y)
    return tuple(tuple(Q(int(x), den) for x in row) for row in K.tolist())


def test_killing_half_of_sl2_is_computed():
    # e, h, f: (e, f) = (f, e) = 2 and (h, h) = 4, from the adjoint traces
    assert _killing_half(tkk._sl2()) == oracle.killing_half(tkk._sl2()).data
    assert _killing_half(tkk._sl2()) == ((0, 0, 2), (0, 4, 0), (2, 0, 0))
    gl11 = lie_catalog("gl", 1, 1)
    assert _killing_half(gl11) == oracle.killing_half(gl11).data


@pytest.mark.parametrize("scale", [1, 10 ** 12])
def test_roundtrip_and_equivalences_prove_their_int64_bound(scale, monkeypatch):
    # full_matrix(1,1) with e12 scaled: the equivalence images (a product of
    # generator coefficients and stack flats, by tensor.contract) and the
    # round trip's comparison (tensor.mismatch) run in int64 only where
    # their bounds are proved, and give what the loops give
    V = _rescaled(jordan_catalog("full_matrix", 1, 1), [Q(1), Q(scale), Q(1), Q(1)])
    casts = []
    exact_cast = tensor._exact

    def exact_spy(arrays, factor, degree):
        out = exact_cast(arrays, factor, degree)
        top = max((int(abs(a).max()) for a in arrays if a.size), default=0)
        casts.append((sys._getframe(1).f_code.co_name, factor * max(top, 1) ** degree < 2 ** 62,
                      {str(t.dtype) for t in out}))
        return out

    for d in ("inn", "der"):
        tkk.tits(V, d)  # built outside the spies
    images = oracle.equivalence_images(V)
    monkeypatch.setattr(tensor, "_exact", exact_spy)
    assert _equivalence_images(V)[0] == images
    for d in ("inn", "der"):
        got = tkk.tits_roundtrip(V, d)
        assert got.passed and got == oracle.tits_roundtrip(V, d)
    for caller in ("contract", "mismatch"):  # both reach the object path at 10^12
        proved = {p for c, p, _ in casts if c == caller}
        assert proved == {True} if scale == 1 else False in proved, (caller, proved)
    assert all(dtypes == ({"int64"} if proved else {"object"}) for _, proved, dtypes in casts)
