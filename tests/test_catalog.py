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
    AlgebraSpec, algebra_to_spec, jordan_catalog, jordan_entries, lie_catalog,
    lie_entries, load, load_algebra, resolve, save, save_algebra, spec_to_algebra,
)

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


def test_round_trip_every_jordan_entry():
    for name, V in jordan_entries().items():
        spec = algebra_to_spec(V)
        data = save(spec)
        assert load(data) == spec, name
        assert save(load(data)) == data, name  # byte-identical round trip
        W = spec_to_algebra(spec)
        assert W.table == V.table and W.parities == V.parities, name
        assert W.kind == "jordan"


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
        load(data.replace(b'"coeff": "1"', b'"coeff": "1.5"', 1))
    with pytest.raises(ValueError, match="unsupported schema_version"):
        load(data.replace(b'"schema_version": 1', b'"schema_version": 3'))
    with pytest.raises(ValueError, match="unknown field"):
        load(data.replace(b'"name"', b'"nameX"', 1))
    with pytest.raises(ValueError, match="line"):
        load(b"{not json}")
    with pytest.raises(ValueError, match="duplicate"):
        doc = save_algebra(jordan_catalog("j19"))
        dup = doc.replace(b'{"i": 0, "j": 0, "k": 0, "coeff": "1"}',
                          b'{"i": 0, "j": 0, "k": 0, "coeff": "1"},\n'
                          b'{"i": 0, "j": 0, "k": 0, "coeff": "2"}', 1)
        load(dup)


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
    load(json.dumps(doc).encode())  # the unedited document loads
    doc = edit(doc) or doc  # an edit in place returns None
    with pytest.raises(ValueError) as err:
        load(json.dumps(doc).encode())
    assert str(err.value) == message


@pytest.mark.parametrize("coeff", ["2\n", " 2", "+2", "1_0", "1/2\n", "1/ 2"])
def test_load_rejects_coefficients_only_python_would_parse(coeff):
    # int() and Fraction() accept each of these; the file syntax does not
    doc = _j19_doc()
    doc["products"][0]["coeff"] = coeff
    with pytest.raises(ValueError) as err:
        load(json.dumps(doc).encode())
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
    spec = algebra_to_spec(a)
    assert load(save(spec)) == spec
    b = spec_to_algebra(spec)
    assert b.table == a.table
