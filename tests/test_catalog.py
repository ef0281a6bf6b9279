"""Shipped catalogs: dimensions, identities, simplicity data, file format."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oracle_linalg import Matrix  # dense products for the independent route below
from supertkk.exact import GeneratedSpan, Q
from supertkk.superspace import (
    center, check_super_jacobi, check_supercommutative, derived, parity_dims,
)
from supertkk.jordan import (
    check_commutator_identity, check_five_linear, check_jordan_identity,
    check_triple_symmetry,
)
from supertkk.catalog import (
    _JORDAN_DEFAULTS, _LIE_DEFAULTS, jordan_catalog, jordan_entries, lie_catalog, lie_entries,
    load_algebra, resolve, save_algebra,
)
from supertkk.tkk import kantor, koecher, koecher_tilde, tits
import oracle_catalog
from test_tensor import dense_lie_tables

SETTINGS = dict(max_examples=25, deadline=None)


def test_jordan_entry_dimensions():
    dims = {name: a.dim for name, a in jordan_entries().items()}
    assert dims == {
        "j19": 3, "kacK": 3,
        "trunc_poly(4)": 3, "trunc_poly(5)": 4, "trunc_poly(6)": 5, "trunc_poly(7)": 6,
        "full_matrix(1,1)": 4, "full_matrix(1,2)": 9, "full_matrix(2,1)": 9,
        "form(1,2)": 4, "form(2,2)": 5, "form(3,0)": 4,
        "dt(2)": 4, "dt(1/2)": 4,
    }


def test_every_jordan_entry_passes_the_identity_suite():
    for name, V in jordan_entries().items():
        assert check_supercommutative(V) is None, name
        assert check_jordan_identity(V) is None, name
        assert check_commutator_identity(V) is None, name
        assert check_triple_symmetry(V) is None, name
        assert check_five_linear(V) is None, name


def test_every_lie_entry_satisfies_super_jacobi():
    for name, g in lie_entries().items():
        assert check_super_jacobi(g) is None, name


def test_matrix_family_dimension_formulas():
    assert lie_catalog("gl", 2, 2).dim == 16
    assert parity_dims(lie_catalog("gl", 2, 1)) == (5, 4)  # m^2+n^2 | 2mn
    assert lie_catalog("sl", 2, 2).dim == 15
    assert lie_catalog("pe", 2).dim == 8 and lie_catalog("pe", 3).dim == 18
    assert lie_catalog("spe", 3).dim == 17
    assert lie_catalog("q", 3).dim == 18
    assert lie_catalog("sq", 3).dim == 17
    assert lie_catalog("psq", 3).dim == 16
    assert lie_catalog("pq", 2).dim == 7


def test_exterior_family_dimension_formulas():
    assert lie_catalog("lambda", 4).dim == 16
    assert lie_catalog("w", 3).dim == 24  # n * 2^n
    for n in (4, 5, 6):
        assert lie_catalog("htilde", n).dim == 2 ** n - 1
        assert lie_catalog("h", n).dim == 2 ** n - 2
    assert lie_catalog("c_htilde", 4).dim == 16
    assert lie_catalog("c_htilde_lambda", 4).dim == 32


def test_simple_entries_have_zero_center_and_full_derived():
    for name, g in lie_entries().items():
        if g.metadata.get("simple") != "yes":
            continue
        assert center(g).dim == 0, f"{name} should have trivial center"
        assert derived(g).dim == g.dim, f"{name} should equal its derived algebra"


def test_h4_is_psl22_sized_and_w2_is_sl12_sized():
    assert lie_catalog("h", 4).dim == 14
    assert parity_dims(lie_catalog("w", 2)) == (4, 4)


def test_w2_structure_constants_match_operator_matrices():
    # independent route: realise each f d_i as a matrix acting on the
    # exterior algebra with basis 1, xi1, xi2, xi1 xi2 and compare brackets
    w2 = lie_catalog("w", 2)
    # w(2)'s own basis order: (mask, i) sorted by (popcount, mask, i)
    order = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    mats = {fi: _w2_matrix(*fi) for fi in order}
    gens = GeneratedSpan([mats[fi].flatten() for fi in order], 16)
    assert gens.dim == len(order)
    for i, fi in enumerate(order):
        for j, gj in enumerate(order):
            a, b = mats[fi], mats[gj]
            sgn = Q(-1) if w2.parity(i) * w2.parity(j) % 2 else Q(1)
            br = a @ b - (b @ a).scale(sgn)
            coords = gens.express(br.flatten())
            assert coords is not None, (fi, gj)
            got = {k: c for k, c in enumerate(coords) if c}
            assert got == w2.basis_product(i, j), (fi, gj)


def _w2_matrix(mask, i):
    # action of xi^mask * d_i on monomial basis 1, xi1, xi2, xi1 xi2
    monos = [0, 1, 2, 3]
    cols = []
    for m in monos:
        img = {}
        if (m >> i) & 1:
            below = bin(m & ((1 << i) - 1)).count("1")
            sgn = -1 if below % 2 else 1
            rest = m ^ (1 << i)
            if rest & mask == 0:
                inv = sum(bin(mask >> (j + 1)).count("1")
                          for j in range(rest.bit_length()) if (rest >> j) & 1)
                img[mask | rest] = sgn * (-1 if inv % 2 else 1)
        cols.append(tuple(img.get(m2, 0) for m2 in monos))
    return Matrix.from_columns(cols)


def test_kac_k_odd_product_signs():
    V = jordan_catalog("kacK")
    assert V.basis_product(1, 2) == {0: Q(1)}   # xi1 xi2 = a
    assert V.basis_product(2, 1) == {0: Q(-1)}  # xi2 xi1 = -a


def test_external_definitions_are_flagged():
    for name in ("full_matrix(1,2)", "form(2,2)", "dt(2)"):
        assert jordan_entries()[name].metadata.get("external") == "yes", name
    assert "external" not in jordan_entries()["j19"].metadata


def test_resolve_accepts_colon_and_paren_syntax():
    assert resolve("trunc_poly:5") is resolve("trunc_poly(5)")
    assert resolve("dt:1/2").name == "dt(1/2)"
    assert resolve("psl:2,2") is lie_catalog("psl", 2)
    with pytest.raises(ValueError, match="known names"):
        resolve("nosuch")
    with pytest.raises(ValueError, match="parameter"):
        resolve("dt:1,2")
    with pytest.raises(ValueError, match="avoid 0 and -1"):
        resolve("dt:0")
    # a catalog name before ":" or "(" makes no file name of a source with a suffix
    for unbalanced in ("form(2,2", "form:2,2)", "form:(2,2)", "form:(2.2)", "form(2.2"):
        with pytest.raises(ValueError, match="cannot parse algebra source"):
            resolve(unbalanced)
    with pytest.raises(ValueError, match="no such file"):
        resolve("nosuch.json")
    with pytest.raises(ValueError, match="must be in 3..8"):
        jordan_catalog("trunc_poly", 12)


def test_catalog_memo_does_not_grow_with_dt_parameters():
    from supertkk import catalog
    before = len(catalog._MEMO)
    for k in range(1, 41):
        assert resolve(f"dt:{k}/{k + 1}").name == f"dt({k}/{k + 1})"
    assert len(catalog._MEMO) == before


def _assert_round_trip(a):
    data = save_algebra(a)
    b = load_algebra(data)
    assert _fields(b) == _fields(a), a.name
    assert save_algebra(b) == data, a.name  # byte-identical round trip


def test_round_trip_every_jordan_entry():
    for V in jordan_entries().values():
        _assert_round_trip(V)
        assert V.kind == "jordan"


def test_round_trip_every_lie_entry():
    for g in lie_entries().values():
        _assert_round_trip(g)
        assert g.kind == "lie"


def _constructions(source):
    V = resolve(source)
    return [kantor(V).lie, koecher(V).lie, koecher_tilde(V).lie, tits(V, "inn").lie,
            tits(V, "der").lie]


def test_save_algebra_matches_the_former_writer():
    # the one writer against the former spec-based one (`oracle_catalog`),
    # byte for byte, on every default and its Kan, Ko, Ko~ and two Ti
    algebras = [resolve(s) for s in _JORDAN_DEFAULTS + _LIE_DEFAULTS]
    algebras += [g for s in _JORDAN_DEFAULTS for g in _constructions(s)]
    for a in algebras:
        assert save_algebra(a) == oracle_catalog.save_algebra(a), a.name


@given(dense_lie_tables())
@settings(**SETTINGS)
def test_save_algebra_matches_the_former_writer_on_dense_tables(g):
    assert save_algebra(g) == oracle_catalog.save_algebra(g)


def test_a_raised_coefficient_in_a_saved_lie_document_fails_super_jacobi():
    # [e_i, e_j] and its mirror [e_j, e_i] both doubled at one k: the table
    # stays super-anticommutative, so only the super-Jacobi proof the loader
    # runs can refuse it
    doc = json.loads(save_algebra(lie_catalog("sl", 2, 1)))
    load_algebra(json.dumps(doc).encode())  # the unedited document loads
    prods = {(p["i"], p["j"], p["k"]): p for p in doc["products"]}
    i, j, k = next(key for key in prods if key[0] < key[1])
    for key in ((i, j, k), (j, i, k)):
        prods[key]["coeff"] = str(2 * Q(prods[key]["coeff"]))
    with pytest.raises(ValueError, match="not a Lie superalgebra: super-Jacobi fails"):
        load_algebra(json.dumps(doc).encode())


def test_round_trip_keeps_exact_fractions():
    V = jordan_catalog("dt", Q(1, 3))
    data = save_algebra(V)
    assert b'"coeff": "1/3"' in data
    W = load_algebra(data)
    assert W.basis_product(2, 3) == {0: Q(1), 1: Q(1, 3)}


def test_round_trip_of_a_graded_lie_entry():
    g = lie_catalog("c_htilde", 4)
    W = load_algebra(save_algebra(g))
    assert W.zdegrees == g.zdegrees
    assert W.table == g.table
    assert check_super_jacobi(W) is None


def test_load_rejects_malformed_documents():
    data = save_algebra(jordan_catalog("j19"))
    with pytest.raises(ValueError, match=r"products\[0\].coeff.*1\.5"):
        load_algebra(data.replace(b'"coeff": "1"', b'"coeff": "1.5"', 1))
    with pytest.raises(ValueError, match="unsupported schema_version"):
        load_algebra(data.replace(b'"schema_version": 1', b'"schema_version": 3'))
    with pytest.raises(ValueError, match="unknown field"):
        load_algebra(data.replace(b'"name"', b'"nameX"', 1))
    with pytest.raises(ValueError, match="line"):
        load_algebra(b"{not json}")
    with pytest.raises(ValueError, match="duplicate"):
        doc = save_algebra(jordan_catalog("j19"))
        dup = doc.replace(b'{"i": 0, "j": 0, "k": 0, "coeff": "1"}',
                          b'{"i": 0, "j": 0, "k": 0, "coeff": "1"},\n'
                          b'{"i": 0, "j": 0, "k": 0, "coeff": "2"}', 1)
        load_algebra(dup)


def _j19_doc():
    """j19's saved document as a dict, with zdegrees set so that they are read."""
    doc = json.loads(save_algebra(jordan_catalog("j19")))
    doc["zdegrees"] = [0, 0, 0]
    return doc


def _edit(path, value):
    """An edit in place: set doc[path[0]]...[path[-1]] = value, or delete
    that key when value is _DROP."""
    def apply(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value
    return apply


def _both(*edits):
    def apply(doc):
        for edit in edits:
            edit(doc)
    return apply


_DROP = object()
_PRODUCT = {"i": 0, "j": 0, "k": 0, "coeff": "1"}
MALFORMED = [
    ("top-level-list", lambda doc: [doc], "top level must be a JSON object"),
    ("unknown-field", _edit(["extra"], 1), "unknown field 'extra'"),
    ("missing-field", _edit(["metadata"], _DROP), "missing field 'metadata'"),
    ("schema-bool", _edit(["schema_version"], True), "schema_version must be an integer"),
    ("schema-2", _edit(["schema_version"], 2), "unsupported schema_version: 2"),
    ("name-not-string", _edit(["name"], 19), "name must be a string"),
    ("parities-not-list", _edit(["parities"], "000"), "parities must be a list"),
    ("parity-2", _edit(["parities", 1], 2), "parities[1]: expected 0 or 1, got 2"),
    ("parity-bool", _edit(["parities", 0], False), "parities[0]: expected 0 or 1, got False"),
    ("parity-float", _edit(["parities", 0], 0.0), "parities[0]: expected 0 or 1, got 0.0"),
    ("zdegrees-length", _edit(["zdegrees"], [0, 0]), "zdegrees must be a list of length 3"),
    ("zdegrees-not-list", _edit(["zdegrees"], 0), "zdegrees must be a list of length 3"),
    ("zdegree-float", _edit(["zdegrees", 2], 1.5), "zdegrees[2]: expected an integer, got 1.5"),
    ("zdegree-bool", _edit(["zdegrees", 0], True), "zdegrees[0]: expected an integer, got True"),
    ("products-not-list", _edit(["products"], {}), "products must be a list"),
    ("product-not-object", _edit(["products", 1], [0, 1, 1, "1/2"]),
     "products[1]: expected an object"),
    ("product-missing-field", _edit(["products", 0, "coeff"], _DROP),
     "products[0]: expected exactly the fields i, j, k, coeff"),
    ("product-extra-field", _edit(["products", 2, "l"], 0),
     "products[2]: expected exactly the fields i, j, k, coeff"),
    ("index-bool", _edit(["products", 0, "i"], True),
     "products[0].i: expected an index in 0..2, got True"),
    ("index-out-of-range", _edit(["products", 1, "k"], 3),
     "products[1].k: expected an index in 0..2, got 3"),
    ("index-negative", _edit(["products", 0, "j"], -1),
     "products[0].j: expected an index in 0..2, got -1"),
    ("index-string", _edit(["products", 0, "k"], "0"),
     "products[0].k: expected an index in 0..2, got '0'"),
    ("index-past-int64", _edit(["products", 0, "i"], 2 ** 70),
     f"products[0].i: expected an index in 0..2, got {2 ** 70}"),
    ("coeff-not-string", _edit(["products", 0, "coeff"], 1),
     "products[0].coeff: 1 does not match integer-or-fraction syntax"),
    ("coeff-decimal", _edit(["products", 0, "coeff"], "1.5"),
     "products[0].coeff: '1.5' does not match integer-or-fraction syntax"),
    ("coeff-zero-denominator", _edit(["products", 1, "coeff"], "1/0"),
     "products[1].coeff: '1/0' does not match integer-or-fraction syntax"),
    ("duplicate", lambda doc: doc["products"].append(dict(_PRODUCT, coeff="2")),
     "products[4]: duplicate entry for (0, 0, 0)"),
    ("metadata-not-object", _edit(["metadata"], []), "metadata must be an object"),
    ("metadata-value", _edit(["metadata", "family"], 1),
     "metadata entries must be string-to-string, got 'family': 1"),
    ("kind-unknown", _edit(["metadata", "kind"], "group"), "unknown algebra kind 'group'"),
    # the first fault is reported: fields in order, a product's index before
    # its coefficient, and earlier products before later ones
    ("first-parity-then-product", _both(_edit(["parities", 2], 3), _edit(["products", 0, "i"], 9)),
     "parities[2]: expected 0 or 1, got 3"),
    ("first-index-then-coeff", _both(_edit(["products", 1, "coeff"], "x"),
                                     _edit(["products", 1, "j"], 5)),
     "products[1].j: expected an index in 0..2, got 5"),
    ("first-product", _both(_edit(["products", 3, "i"], 7), _edit(["products", 2, "coeff"], "")),
     "products[2].coeff: '' does not match integer-or-fraction syntax"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_load_pins_each_diagnostic(edit, message):
    doc = _j19_doc()
    load_algebra(json.dumps(doc).encode())  # the unedited document loads
    doc = edit(doc) or doc  # an edit in place returns None
    with pytest.raises(ValueError) as err:
        load_algebra(json.dumps(doc).encode())
    assert str(err.value) == message


@pytest.mark.parametrize("coeff", ["2\n", " 2", "+2", "1_0", "1/2\n", "1/ 2"])
def test_load_rejects_coefficients_only_python_would_parse(coeff):
    # int() and Fraction() accept each of these; the file syntax does not
    doc = _j19_doc()
    doc["products"][0]["coeff"] = coeff
    with pytest.raises(ValueError) as err:
        load_algebra(json.dumps(doc).encode())
    assert str(err.value) == (f"products[0].coeff: {coeff!r} does not match "
                              "integer-or-fraction syntax")


def test_save_is_deterministic_across_processes_inputs():
    a = save_algebra(jordan_catalog("form", 2, 2))
    b = save_algebra(jordan_catalog("form", 2, 2))
    assert a == b


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                          st.fractions(min_value=-5, max_value=5, max_denominator=7)),
                max_size=8))
@settings(**SETTINGS)
def test_round_trip_random_even_tables(entries):
    # all-even parities keep every table homogeneous; duplicates are dropped
    table = {}
    for i, j, k, c in entries:
        table[(i, j, k)] = Q(c)
    products = [(i, j, k, c) for (i, j, k), c in table.items() if c]
    from supertkk.superspace import make_algebra
    a = make_algebra([0, 0, 0], products, name="rand", kind="plain")
    _assert_round_trip(a)


def _fields(a):
    return a.entries, a.d, a.parities, a.zdegrees, a.name, dict(a.metadata), a.kind


# every n each exterior family admits
EXTERIOR = [("_build_lambda", n) for n in range(2, 8)] + [("_build_w", n) for n in range(1, 8)] \
    + [("_build_c_htilde_lambda", n) for n in range(2, 6)]


def _unchecked(monkeypatch):
    """Both sides' integer_algebra without the identity checks, which the
    catalog's own builds run; a fresh catalog memo."""
    from functools import partial

    from supertkk import catalog, superspace

    monkeypatch.setattr(catalog, "_MEMO", {})
    for module in (catalog, oracle_catalog):
        monkeypatch.setattr(module, "integer_algebra",
                            partial(superspace.integer_algebra, check=False))


def test_exterior_builders_match_the_loop_oracles(monkeypatch):
    """The bitmask array builders against the former loop builders, entry
    for entry, for every n each family admits."""
    from supertkk import catalog

    _unchecked(monkeypatch)
    for name, n in EXTERIOR:
        got = getattr(catalog, name)(n)
        assert _fields(got) == _fields(oracle_catalog.EXTERIOR_BUILDERS[name](n)), (name, n)


def test_exterior_builders_match_one_first_index_per_chunk(monkeypatch):
    # chunks of one first index each sum the same terms
    from supertkk import catalog

    _unchecked(monkeypatch)
    whole = {(name, n): _fields(getattr(catalog, name)(n)) for name, n in EXTERIOR if n <= 4}
    monkeypatch.setattr(catalog, "_PAIR_CHUNK", 1)
    for (name, n), want in whole.items():
        assert _fields(getattr(catalog, name)(n)) == want, (name, n)


@pytest.mark.parametrize("name,n", [("_build_lambda", 4), ("_build_w", 3),
                                    ("_build_c_htilde_lambda", 4)])
def test_a_flipped_wedge_sign_is_refused_by_super_jacobi(name, n, monkeypatch):
    # negative control: xi_0 xi_1 and xi_1 xi_0 both negated keep the
    # exterior product supercommutative, so the bracket stays
    # super-anticommutative and super-Jacobi is the check that refuses it
    from supertkk import catalog

    exterior = catalog._exterior

    def flipped(n):
        masks, pos, sign, partial, wedge = exterior(n)
        wedge = wedge.copy()
        wedge[1, 2], wedge[2, 1] = -wedge[1, 2], -wedge[2, 1]
        return masks, pos, sign, partial, wedge

    monkeypatch.setattr(catalog, "_MEMO", {})
    monkeypatch.setattr(catalog, "_exterior", flipped)
    with pytest.raises(ValueError, match="super-Jacobi fails"):
        getattr(catalog, name)(n)


def test_every_lie_default_matches_its_rational_build(monkeypatch):
    """Each Lie default, built fresh on the integers, equals its build on the
    rational oracle builders (`oracle_catalog`), which rebuild everything
    it depends on too."""
    import oracle_catalog
    from supertkk import catalog

    monkeypatch.setattr(catalog, "_MEMO", {})
    built = {s: _fields(resolve(s)) for s in catalog._LIE_DEFAULTS}
    monkeypatch.setattr(catalog, "_MEMO", {})
    for name, fn in oracle_catalog.BUILDERS.items():
        monkeypatch.setattr(catalog, name, fn)
    assert {s: _fields(resolve(s)) for s in catalog._LIE_DEFAULTS} == built


def test_building_the_lie_catalog_forms_no_rational(monkeypatch):
    """No module of the package calls Q while every Lie default is built
    fresh, except `_norm_param`, which reads the catalog parameters."""
    import sys

    import supertkk
    from supertkk import catalog, exact, jordan, structure, superspace, tensor, tkk

    calls = []

    def spy(*args):
        if sys._getframe(1).f_code.co_name != "_norm_param":
            calls.append(args)
        return Q(*args)

    monkeypatch.setattr(catalog, "_MEMO", {})
    for module in (supertkk, catalog, exact, jordan, structure, superspace, tensor, tkk):
        if hasattr(module, "Q"):
            monkeypatch.setattr(module, "Q", spy)
    for s in catalog._LIE_DEFAULTS:
        assert resolve(s).dim
    assert calls == []
    save_algebra(resolve("dt:1/3"))  # the writer forms rationals: the spy sees them
    assert calls


# every parameter each Jordan family admits, and dt at a few more rationals
JORDAN_SOURCES = (
    ["j19", "kacK"] + [f"trunc_poly:{k}" for k in range(3, 9)]
    + [f"full_matrix:{m},{n}" for m in range(4) for n in range(4) if 1 <= m + n <= 3]
    + [f"form:{p},{q}" for p in range(6) for q in (0, 2, 4) if 1 <= p + q <= 5]
    + ["dt:2", "dt:1/2", "dt:-2", "dt:-1/3", "dt:5/4"])


def test_every_jordan_build_matches_its_rational_build(monkeypatch):
    """Each Jordan family, built on the integers, equals its build by the
    former rational builders (`oracle_catalog.JORDAN_BUILDERS`) at every
    parameter it admits."""
    from supertkk import catalog

    monkeypatch.setattr(catalog, "_MEMO", {})
    built = {s: _fields(resolve(s)) for s in JORDAN_SOURCES}
    monkeypatch.setattr(catalog, "_MEMO", {})
    monkeypatch.setattr(catalog, "_JORDAN_BUILDERS", oracle_catalog.JORDAN_BUILDERS)
    assert {s: _fields(resolve(s)) for s in JORDAN_SOURCES} == built


def test_building_the_jordan_catalog_hands_integer_algebra_ints(monkeypatch):
    """Every Jordan default, built fresh, reaches `integer_algebra` with int
    constants and an int denominator; no module of the package calls
    `make_algebra` for it, and none calls Q but `_norm_param`, which reads
    the catalog parameters."""
    import sys

    import supertkk
    from supertkk import catalog, exact, superspace

    made, constants, rationals = [], [], []
    make, integer = superspace.make_algebra, superspace.integer_algebra

    def make_spy(*args, **kwargs):
        made.append(kwargs.get("name"))
        return make(*args, **kwargs)

    def integer_spy(parities, entries, d=1, *args, **kwargs):
        entries = list(entries)
        constants.extend([d] + [e[3] for e in entries])
        return integer(parities, entries, d, *args, **kwargs)

    def q_spy(*args):
        if sys._getframe(1).f_code.co_name != "_norm_param":
            rationals.append(args)
        return Q(*args)

    monkeypatch.setattr(catalog, "_MEMO", {})
    for module in (supertkk, catalog, exact, superspace):
        for name, spy in (("make_algebra", make_spy), ("integer_algebra", integer_spy),
                          ("Q", q_spy)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    for s in _JORDAN_DEFAULTS:
        assert resolve(s).kind == "jordan"
    assert made == [] and rationals == []
    assert len(constants) > len(_JORDAN_DEFAULTS)
    assert all(type(c) is int for c in constants)


def test_h6_from_a_memoised_htilde6_stays_sparse(monkeypatch):
    """h(6) = [htilde(6), htilde(6)] is read off sparse joins: building it
    from a memoised htilde(6) traces well under the 7.8 MiB that a dense
    closure check costs."""
    import tracemalloc

    from supertkk import catalog

    ht = lie_catalog("htilde", 6)
    monkeypatch.setattr(catalog, "_MEMO", {("lie", "htilde", (6,)): ht})
    tracemalloc.start()
    try:
        h = lie_catalog("h", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dim == 62
    assert peak < 4 * 2 ** 20, peak
