"""Exact structure constants, structure algebras and TKK constructions for
Jordan superalgebras over Q."""

from supertkk.catalog import (jordan_catalog, jordan_entries, lie_catalog,
                              lie_entries, load_algebra, resolve, save_algebra)
from supertkk.exact import CertificateError, Q, Matrix, Subspace, solve, span
from supertkk.jordan import (check_commutator_identity, check_five_linear,
                             check_jordan_identity, check_triple_symmetry,
                             find_unit)
from supertkk.structure import (CheckResult, JordanPair, OperatorSpace,
                                check_pair_axioms, der_algebra, double,
                                inclusion_report, inn_algebra, istr_algebra,
                                istr_tilde, pair_der, pair_inn, projects_onto,
                                str_algebra, str_w, structure_summary)
from supertkk.superspace import (SuperAlgebra, Witness, center, derived, graded_dims,
                                 integer_algebra, make_algebra, parity_dims)
from supertkk.tkk import (TitsData, TkkAlgebra, check_propnu,
                          check_unital_equivalences, fingerprint, j_functor,
                          j_roundtrip_check, kantor, kantor_koecher_comparison,
                          kantor_relations, koecher, koecher_d,
                          koecher_ideal_check, koecher_inverse_check,
                          koecher_tilde, lie_der_tower, is_jordan_graded,
                          out_dims, pair_der_matches_der0, tits, tits_data,
                          tits_roundtrip)

__all__ = [
    "Q", "Matrix", "Subspace", "solve", "span", "CertificateError",
    "SuperAlgebra", "Witness", "integer_algebra", "make_algebra", "graded_dims", "parity_dims",
    "center", "derived",
    "find_unit",
    "check_jordan_identity", "check_commutator_identity",
    "check_triple_symmetry", "check_five_linear",
    "jordan_catalog", "jordan_entries", "lie_catalog", "lie_entries",
    "resolve", "save_algebra", "load_algebra",
    "OperatorSpace", "JordanPair", "CheckResult", "double", "check_pair_axioms",
    "inn_algebra", "der_algebra", "istr_algebra", "istr_tilde", "str_algebra",
    "pair_inn", "pair_der", "str_w", "projects_onto", "structure_summary", "inclusion_report",
    "TkkAlgebra", "TitsData", "kantor", "kantor_relations", "koecher",
    "koecher_tilde", "koecher_d", "tits", "tits_data", "tits_roundtrip",
    "check_propnu", "check_unital_equivalences", "kantor_koecher_comparison",
    "j_functor", "is_jordan_graded", "j_roundtrip_check",
    "koecher_inverse_check", "koecher_ideal_check", "pair_der_matches_der0",
    "lie_der_tower", "out_dims", "fingerprint",
]
__version__ = "0.1.0"
