"""Mutation check: every mutant of the package must fail the tests named for it.

A mutant is (file, old text, new text, tests).  In a fresh copy of src/ and
tests/ the one occurrence of the old text in the file is replaced by the new
text, and the named tests run there under pytest with a fixed hypothesis
seed and no shrinking.  The mutant is killed when they fail; a survivor
names a fault those tests cannot see.  Old text that does not occur exactly
once is an error, so a mutant cannot go stale unnoticed when the code it
mutates changes, and the named tests must first pass on an unmutated copy.

    python tests/mutants.py

Standard library only (the tests it runs need numpy, pytest and
hypothesis); the file is no test module, so a plain pytest run does not
collect it.  Exit status 0 iff every mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/supertkk/"
CATALOG = "tests/test_catalog.py::"
CLI = "tests/test_cli.py::"
DEGREE0 = "tests/test_degree0.py::"
LINALG = "tests/test_linalg.py::"
STRUCTURE = "tests/test_structure.py::"
SUPERSPACE = "tests/test_superspace.py::"
TENSOR = "tests/test_tensor.py::"
TKK = "tests/test_tkk.py::"

# (name, file, old text, new text, tests)
MUTANTS = [
    ("tkk._act drops the Koszul sign", PKG + "tkk.py",
     "(2 * odd - 1) * M[t, l, i]", "-M[t, l, i]",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
    ("tkk._lie mirrors without the parity sign", PKG + "tkk.py",
     "(2 * (p[i[off]] * p[j[off]]) - 1) * x[off]", "-x[off]",
     [TKK + "test_koecher_kack_dims"]),
    ("tkk._middle_brackets pairs t >= s", PKG + "tkk.py",
     "t, s = np.triu_indices(C.shape[1])", "s, t = np.triu_indices(C.shape[1])",
     [TKK + "test_koecher_kack_dims"]),
    ("tensor.derivation_defect takes the defect of the first operator only", PKG + "tensor.py",
     "X, s = A[lo:lo + _DEFECT_CHUNK], sign[lo:lo + _DEFECT_CHUNK,", "X, s = A[:1], sign[:1,",
     [TKK + "test_a_non_derivation_past_the_first_operator_is_refused"]),
    ("tensor.derivation_defect drops (-1)**(|A||x|)", PKG + "tensor.py",
     "- s * (X @ r_xl)", "- (X @ r_xl)",
     [TENSOR + "test_operator_identity_matches_the_loop_oracle_without_symmetry",
      TENSOR + "test_perturbed_jordan_catalog_is_rejected_like_the_oracle"]),
    ("structure.l_brackets drops the Koszul sign", PKG + "structure.py",
     "tensor.brackets(L, p, L, p)", "tensor.brackets(L, p, L, [0] * t.n)",
     [TENSOR + "test_perturbed_jordan_catalog_is_rejected_like_the_oracle"]),
    ("tensor.jordan_defect contracts [L_x, L_{zy}]", PKG + "tensor.py",
     "np.einsum('yzm,xmf->xyzf', C,", "np.einsum('zym,xmf->xyzf', C,",
     ["tests/test_acceptance.py::test_criterion_01_identity_suites",
      CLI + "test_reports_match_their_pins[verify-all.out]",
      TENSOR + "test_kantor_doubles_pass_every_identity_like_the_loop_oracle"]),
    ("tkk.tits_roundtrip compares against the container's own brackets", PKG + "tkk.py",
     "M, dm = data.l_brackets\n    # X / (dx ef)", "M, dm = data.brackets\n    # X / (dx ef)",
     [TKK + "test_propnu_and_tits_roundtrip"]),
    ("tkk._join drops the diagonal a == b", PKG + "tkk.py",
     "keep = i <= j", "keep = i < j",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
    ("tkk.tits_data is not memoized", PKG + "tkk.py",
     "@memoized\ndef tits_data(", "def tits_data(",
     [TKK + "test_one_container_builds_sl2_once"]),
    ("tkk.koecher_d is not memoized", PKG + "tkk.py",
     "@memoized\ndef koecher_d(", "def koecher_d(",
     [TKK + "test_the_isomorphism_reads_the_ko_d_a_caller_built"]),
    ("tkk.tits drops the half-Killing factor", PKG + "tkk.py",
     "(a, b, 0 * a, K[a, b])", "(a, b, 0 * a, 0 * K[a, b] + 1)",
     [TKK + "test_propnu_and_tits_roundtrip"]),
    ("tkk.kantor flips the sign of [x, B]", PKG + "tkk.py",
     "sign = 2 * (np.outer(V.parities, top_par) % 2) - 1",
     "sign = 1 - 2 * (np.outer(V.parities, top_par) % 2)",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
    ("tkk.koecher_d drops the Koszul sign of [x+, L-hat_y]", PKG + "tkk.py",
     "(t.j, off_l + t.i, t.k, (2 * odd - 1) * t.value, t.d)",
     "(t.j, off_l + t.i, t.k, -t.value, t.d)",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
    ("tkk.koecher_d halves [x+, u-] in L-hat", PKG + "tkk.py",
     "(t.i, off_m + t.j, off_l + t.k, 2 * t.value.astype(object), t.d)",
     "(t.i, off_m + t.j, off_l + t.k, t.value.astype(object), t.d)",
     [TKK + "test_propnu_and_tits_roundtrip"]),
    ("tkk._check_bracket_map skips the parity test", PKG + "tkk.py",
     "np.not_equal.outer(src.parities, dst.parities)).any(1))",
     "np.not_equal.outer(src.parities, dst.parities)).all(1))",
     [DEGREE0 + "test_each_early_exit_of_the_map_certificate_matches_the_loop"]),
    ("tkk.check_unital_equivalences sends P to +e/2", PKG + "tkk.py",
     "[int(-c * den / 2) for c in unit]", "[int(c * den / 2) for c in unit]",
     [TKK + "test_unital_equivalences"]),
    ("tkk._graded_map scales in int64", PKG + "tkk.py",
     "dst.dim)).astype(object) * d", "dst.dim)) * d",
     [DEGREE0 + "test_roundtrip_and_equivalences_prove_their_int64_bound",
      DEGREE0 + "test_equivalence_images_match_the_loop_oracle"]),
    ("tkk._graded_map drops the source denominator", PKG + "tkk.py",
     "dst.dim)).astype(object) * d", "dst.dim)).astype(object)",
     [DEGREE0 + "test_equivalence_images_match_the_loop_oracle"]),
    ("tkk._graded_map contracts [Fu, Fx]", PKG + "tkk.py",
     "tensor.contract(F[z == -1], tensor.contract(F[z == 1], t.dense())",
     "tensor.contract(F[z == 1], tensor.contract(F[z == -1], t.dense())",
     [DEGREE0 + "test_equivalence_images_match_the_loop_oracle"]),
    ("tensor.bracket_map_defect cross-multiplies by the wrong table", PKG + "tensor.py",
     "mismatch(lhs, df * td.d, rhs, ts.d)", "mismatch(lhs, df * td.d, rhs, td.d)",
     [DEGREE0 + "test_equivalence_images_match_the_loop_oracle"]),
    ("exact.GeneratedSpan.express drops the L/d_i factor", PKG + "exact.py",
     "scale = np.array([lg // d for d in self._dens]", "scale = np.array([lg for d in self._dens]",
     ["tests/test_linalg.py::test_generated_span_matches_span_solver_oracle"]),
    ("superspace mirror witness is (min, max)", PKG + "superspace.py",
     "min(((max(i, j), min(i, j))", "min(((min(i, j), max(i, j))",
     ["tests/test_tensor.py::test_graded_symmetry_checks_match_the_loop_oracle"]),
    ("exact.Q accepts floats", PKG + "exact.py",
     "and not isinstance(value, Rational):", "and False:",
     ["tests/test_linalg.py::test_floats_are_rejected"]),
    ("structure._rule_blocks halves to i < j", PKG + "structure.py",
     "t[K[0, t] <= K[1, t]] if halve else t", "t[K[0, t] < K[1, t]] if halve else t",
     [STRUCTURE + "test_leibniz_blocks_match_the_oracle_on_fixed_tables"]),
    ("structure._rule_blocks does not halve the output term", PKG + "structure.py",
     "t[K[0, t] <= K[1, t]] if halve else t", "t",
     [STRUCTURE + "test_leibniz_blocks_match_the_oracle_on_fixed_tables"]),
    ("structure._rule_blocks halves the terms of slot 1 by b < k_1", PKG + "structure.py",
     "(at >= b_min[rep])", "(at > b_min[rep])",
     [STRUCTURE + "test_leibniz_blocks_match_the_oracle_on_fixed_tables"]),
    ("structure._rule_blocks drops the Koszul sign of the slots before", PKG + "structure.py",
     "    odd[1:r] = par[G[:r - 1]].cumsum(axis=0) % 2 == 1\n", "",
     [STRUCTURE + "test_pair_der_of_a_j_functor_pair_matches_the_oracle",
      STRUCTURE + "test_pair_derivation_kernel_with_odd_derivations_matches_fraction_oracle"]),
    ("structure._rule_blocks drops the Koszul sign of the last slot", PKG + "structure.py",
     "odd[1:r] = par[G[:r - 1]].cumsum(axis=0) % 2 == 1",
     "odd[1:r - 1] = par[G[:r - 2]].cumsum(axis=0) % 2 == 1",
     [STRUCTURE + "test_pair_der_of_a_j_functor_pair_matches_the_oracle",
      STRUCTURE + "test_pair_derivation_kernel_with_odd_derivations_matches_fraction_oracle"]),
    ("structure._rule_blocks proves its int64 bound for r terms", PKG + "structure.py",
     "_runs(cost)), r + 1, block_of,", "_runs(cost)), r, block_of,",
     [STRUCTURE + "test_leibniz_assembly_proves_its_int64_bound"]),
    ("structure._kernel splits by the parity of the blocks' unsorted columns", PKG + "structure.py",
     "[len(c) for _, c, _ in blocks])[order]", "[len(c) for _, c, _ in blocks])",
     [STRUCTURE + "test_one_elimination_of_both_parities_splits_into_the_per_parity_kernels",
      STRUCTURE + "test_kacK_dims"]),
    ("structure.projects_onto compares dims only", PKG + "structure.py",
     "return (_stack_space(\"pi\", X, target.shape).dims() == pairs.dims() == target.dims()\n"
     "            and target.contains_stack(X))",
     "return pairs.dims() == target.dims()",
     [STRUCTURE + "test_the_projection_of_str_w_is_onto_str_and_a_same_dims_non_image_is_refused"]),
    ("exact._absorb takes its shortcut while a two-entry row with |a| = |b| exists",
     PKG + "exact.py", " and not (abs(vals[two]) == abs(vals[two + 1])).any():", ":",
     [LINALG + "test_absorb_returns_at_once_only_when_no_row_ties_or_zeroes_a_column"]),
    ("structure.str_w puts Y on the right side with +1", PKG + "structure.py",
     "(f, f, 1 - f), (1, 1, -1)", "(f, f, 1 - f), (1, 1, 1)",
     [STRUCTURE + "test_str_w_matches_fraction_oracle"]),
    ("structure.check_pair_axioms never scans sigma = -", PKG + "structure.py",
     "for sigma in (0,) if pair.equal_halves else (0, 1):", "for sigma in (0,):",
     [TENSOR + "test_a_pair_with_one_half_raised_is_scanned_on_both_halves"]),
    ("structure.JordanPair.equal_halves compares the halves by their parities only", PKG + "structure.py",
     "\n                and bool((self.tensors[0] == self.tensors[1]).all())", "",
     [TENSOR + "test_a_pair_with_one_half_raised_is_scanned_on_both_halves"]),
    ("structure.check_pair_axioms scans equal halves twice", PKG + "structure.py",
     "for sigma in (0,) if pair.equal_halves else (0, 1):", "for sigma in (0, 1):",
     [CLI + "test_verify_section_evaluates_each_jordan_triple_identity_once"]),
    ("jordan.check_triple_symmetry builds a triple of its own", PKG + "jordan.py",
     "tensor.outer_symmetry_defect(double(V).tensors[0],",
     "tensor.outer_symmetry_defect(tensor.triple_tensor(V)[0],",
     [CLI + "test_verify_section_evaluates_each_jordan_triple_identity_once"]),
    ("tensor.five_linear_defect reads T where U belongs", PKG + "tensor.py",
     "np.einsum('vjm,umwl->juvwl', U[:, i], T)", "np.einsum('vjm,umwl->juvwl', T[:, i], T)",
     [TENSOR + "test_pair_axioms_match_the_loop_oracle"]),
    ("tensor.jacobi_defect sorts [e_x, e_l] by (i, j, k)", PKG + "tensor.py",
     "((t.j * n + t.i) * n + t.k).argsort(", "((t.i * n + t.j) * n + t.k).argsort(",
     ["tests/test_tensor.py::test_super_jacobi_matches_the_loop_oracle"]),
    ("tkk._ad_rows swaps (c, k)", PKG + "tkk.py",
     "column[t.k[keep] * n + t.j[keep]]", "column[t.j[keep] * n + t.k[keep]]",
     [TKK + "test_ad_rows_match_the_row_primitive_loop"]),
    ("tkk.lie_der_tower does not offset the blocks", PKG + "tkk.py",
     "IntRows(r.lens, r.cols + lo, r.vals)", "IntRows(r.lens, r.cols, r.vals)",
     [TKK + "test_der_tower_matches_the_subspace_oracle"]),
    ("tkk._torus reads the weights of e_j, j < h, off the mirror entry without its sign",
     PKG + "tkk.py",
     "W[t.j[at], h.searchsorted(t.i[at])] = t.value[at]",
     "W[t.j[at], h.searchsorted(t.i[at])] = np.where(t.j[at] < t.i[at], -1, 1) * t.value[at]",
     [TKK + "test_torus_weights_match_the_loop_oracle"]),
    ("tkk._torus accepts a row with one off-diagonal entry", PKG + "tkk.py",
     "torus[t.i[t.k != t.j]] = False",
     "torus[np.flatnonzero(np.bincount(t.i[t.k != t.j], minlength=n) > 1)] = False",
     [TKK + "test_torus_weights_match_the_loop_oracle"]),
    ("tkk._torus reads a torus off a table that fails super-Jacobi", PKG + "tkk.py",
     "if check_super_jacobi(g) is None:", "if True:",
     [TKK + "test_adjoint_certificate_survives_python_O"]),
    ("tkk.lie_der_tower adds N to the block of the other parity", PKG + "tkk.py",
     "Counter((g.zdegree(x), g.parity(x))", "Counter((g.zdegree(x), 1 - g.parity(x))",
     [TKK + "test_der_tower_matches_the_subspace_oracle"]),
    ("structure._rule_blocks writes the columns of nonzero weight too", PKG + "structure.py",
     "live = np.concatenate([np.equal.outer(x, x).ravel() for x in w]).nonzero()[0]",
     "live = np.arange(len(block_of))",
     [STRUCTURE + "test_weight_zero_blocks_are_the_weight_zero_rows_of_the_oracle"]),
    ("tkk._j_pair takes d for the denominator", PKG + "tkk.py",
     'JordanPair(f"J({g.name})", parities, tensors, d * d)',
     'JordanPair(f"J({g.name})", parities, tensors, d)',
     ["tests/test_j_functor.py::test_j_side_matches_the_loop_oracle"]),
    ("tkk._killing_half drops the 1/2", PKG + "tkk.py",
     "np.einsum('ick,jkc->ij', C, C), 2 * d * d", "np.einsum('ick,jkc->ij', C, C), d * d",
     [DEGREE0 + "test_killing_half_of_sl2_is_computed"]),
    ("catalog._product_arrays matches a coefficient's prefix", PKG + "catalog.py",
     "all(map(_COEFF_RE.fullmatch, distinct))", "all(map(_COEFF_RE.match, distinct))",
     ["tests/test_catalog.py::test_load_rejects_coefficients_only_python_would_parse"]),
    ("catalog._check_product matches a coefficient's prefix", PKG + "catalog.py",
     "isinstance(c, str) and _COEFF_RE.fullmatch(c)", "isinstance(c, str) and _COEFF_RE.match(c)",
     [CATALOG + "test_load_rejects_coefficients_only_python_would_parse"]),
    ("catalog._product_arrays lets an index run to n", PKG + "catalog.py",
     "ijk.max() < n)", "ijk.max() <= n)",
     [CATALOG + "test_load_pins_each_diagnostic"]),
    ("catalog._product_arrays skips the repetition check", PKG + "catalog.py",
     "if (key[order[1:]] == key[order[:-1]]).any():", "if False:",
     [CATALOG + "test_load_pins_each_diagnostic"]),
    ("catalog.save_algebra leaves an integer coefficient unquoted", PKG + "catalog.py",
     """'"%d"' % (x // g)""", """'%d' % (x // g)""",
     [CATALOG + "test_save_algebra_matches_the_former_writer"]),
    ("superspace.integer_algebra lets k run to n", PKG + "superspace.py",
     "0 <= k < n)", "0 <= k <= n)",
     [SUPERSPACE + "test_integer_algebra_pins_each_diagnostic"]),
    ("superspace.integer_algebra keeps the later of two duplicates", PKG + "superspace.py",
     "if key in seen:", "if False:",
     [SUPERSPACE + "test_integer_algebra_pins_each_diagnostic"]),
    ("superspace.integer_algebra adds parities without mod 2", PKG + "superspace.py",
     "parities[k] != (parities[i] + parities[j]) % 2", "parities[k] != parities[i] + parities[j]",
     [SUPERSPACE + "test_integer_algebra_keeps_homogeneous_entries_over_the_least_denominator"]),
    ("superspace.integer_algebra skips the degree check", PKG + "superspace.py",
     "if zdeg is not None and zdeg[k] != zdeg[i] + zdeg[j]:", "if False:",
     [SUPERSPACE + "test_integer_algebra_pins_each_diagnostic"]),
    ("superspace.integer_algebra does not reduce d", PKG + "superspace.py",
     "g = gcd(d, *(e[3] for e in nonzero))", "g = 1",
     [SUPERSPACE + "test_integer_algebra_keeps_homogeneous_entries_over_the_least_denominator"]),
    ("superspace._checked_arrays does not reduce d", PKG + "superspace.py",
     "g = gcd(d, int(np.gcd.reduce(v)))", "g = 1",
     [TENSOR + "test_lie_blocks_come_out_over_the_least_denominator"]),
    ("superspace.integer_algebra skips the rescale when the gcd is not 1", PKG + "superspace.py",
     "if g != 1:", "if False:",
     [SUPERSPACE + "test_integer_algebra_keeps_homogeneous_entries_over_the_least_denominator"]),
    ("superspace._checked_arrays marks the first of two repeated keys", PKG + "superspace.py",
     "repeated[order[1:]] = key[order[1:]] == key[order[:-1]]",
     "repeated[order[:-1]] = key[order[1:]] == key[order[:-1]]",
     [SUPERSPACE + "test_array_entries_are_checked_like_the_tuple_loop"]),
    ("superspace._checked_arrays adds parities with +", PKG + "superspace.py",
     "p[i] ^ p[j] ^ p[k] != 0", "p[i] + p[j] + p[k] != 0",
     [SUPERSPACE + "test_array_entries_are_checked_like_the_tuple_loop"]),
    ("superspace._checked_arrays lets an index run to n", PKG + "superspace.py",
     "(ijk < 0) | (ijk >= n)", "(ijk < 0) | (ijk > n)",
     [SUPERSPACE + "test_array_entries_are_checked_like_the_tuple_loop"]),
    ("superspace._checked_arrays takes nondecreasing keys for sorted", PKG + "superspace.py",
     "if not (key[1:] > key[:-1]).all():", "if not (key[1:] >= key[:-1]).all():",
     [SUPERSPACE + "test_array_entries_are_checked_like_the_tuple_loop"]),
    ("superspace.table_keys keys in int64 past 2**62", PKG + "superspace.py",
     "i.astype(int_dtype(n ** 3), copy=False)", "i.astype(np.int64, copy=False)",
     [SUPERSPACE + "test_array_keys_past_int64_order_like_the_tuples"]),
    ("superspace._mirror_defect's join ignores a missing mirror", PKG + "superspace.py",
     "np.where(found, t.value[at], 0)", "np.where(found, t.value[at], want)",
     [TENSOR + "test_graded_symmetry_checks_match_the_loop_oracle"]),
    ("tkk._lie scales in int64 without its bound", PKG + "tkk.py",
     "b[3].astype(int_dtype(top))", "b[3].astype(np.int64)",
     [TENSOR + "test_lie_scales_its_blocks_on_python_ints_past_the_int64_bound"]),
    ("exact.sum_by_key keeps the zero sums", PKG + "exact.py",
     "keep = vals != 0", "keep = vals == vals",
     ["tests/test_linalg.py::test_sum_by_key_matches_a_dict_sum"]),
    ("exact.sum_by_key's window drops its offset lo", PKG + "exact.py",
     "            keys += lo\n", "",
     ["tests/test_linalg.py::test_sum_by_key_matches_a_dict_sum"]),
    ("exact.sum_by_key's window keeps the zero sums", PKG + "exact.py",
     "at = acc.nonzero()[0]", "at = np.unique(keys - lo)",
     ["tests/test_linalg.py::test_sum_by_key_matches_a_dict_sum"]),
    ("structure.pair_der's B half keeps eps (1, 1, 1)", PKG + "structure.py",
     "(T, 1, (1, 1, 1), (1, -1, 1))", "(T, 1, (1, 1, 1), (1, 1, 1))",
     [STRUCTURE + "test_pair_der_on_the_swap_halves_matches_the_coupled_system"]),
    ("structure.pair_der recombines [A | B] as [A + B | A + B]", PKG + "structure.py",
     "np.hstack([A + B, A - B])", "np.hstack([A + B, A + B])",
     [STRUCTURE + "test_pair_der_on_the_swap_halves_matches_the_coupled_system"]),
    ("exact.int_dtype admits int64 up to 2**63", PKG + "exact.py",
     "return np.int64 if bound < 2 ** 62 else object",
     "return np.int64 if bound < 2 ** 63 else object",
     ["tests/test_linalg.py::test_int_dtype_leaves_room_for_a_sum_of_two"]),
    ("exact.Subspace takes den off the raw pivot entries", PKG + "exact.py",
     "prim = [(store[p], gcd(*store[p].values()), p)", "prim = [(store[p], 1, p)",
     [STRUCTURE + "test_derivation_kernel_graded_blocks",
      LINALG + "test_a_store_of_non_primitive_rows_reads_the_canonical_form"]),
    ("exact.Subspace.intersect drops the row pivoting at column n", PKG + "exact.py",
     "for p, r in store.items() if p >= n})", "for p, r in store.items() if p > n})",
     [LINALG + "test_intersect_matches_dense_oracle"]),
    ("exact.Subspace.embedded admits the position ambient", PKG + "exact.py",
     "positions[-1] >= ambient", "positions[-1] > ambient",
     [LINALG + "test_embedded_refuses_positions_that_break_the_canonical_basis"]),
    ("exact.GeneratedSpan.coordinates drops the den // m rescale", PKG + "exact.py",
     "C = N.astype(dtype) * np.array([den // x for x in m.tolist()], dtype=dtype)[:, None]",
     "C = N.astype(dtype)",
     [LINALG + "test_span_coordinates_are_express_times_den"]),
    ("exact.GeneratedSpan.express drops the L/e factor", PKG + "exact.py",
     "certify(np.array_equal(got * np.array(e, dtype=dtype)[:, None],",
     "certify(np.array_equal(got,",
     [LINALG + "test_generated_span_matches_span_solver_oracle"]),
    ("exact.GeneratedSpan._read scales a row by the product of its pivots", PKG + "exact.py",
     "L = np.lcm.reduce(np.where(W != 0, p, 1), axis=1, initial=1)",
     "L = np.multiply.reduce(np.where(W != 0, p, 1), axis=1, initial=1)",
     [LINALG + "test_pivots_sharing_a_factor_keep_the_int64_path"]),
    ("exact.GeneratedSpan._read recombines without L/d_i", PKG + "exact.py",
     "got = (C.astype(dtype) * scale.astype(dtype)) @ G.astype(dtype)",
     "got = C.astype(dtype) @ G.astype(dtype)",
     [LINALG + "test_generated_span_matches_span_solver_oracle"]),
    ("exact._certified_kernel takes the longest core rows first", PKG + "exact.py",
     'short = core.lens.argsort(kind="stable")[:2 * ncols]',
     'short = (-core.lens).argsort(kind="stable")[:2 * ncols]',
     [LINALG + "test_a_tall_system_eliminates_the_rows_its_shortest_miss"]),
    ("exact._certified_kernel marks every column free", PKG + "exact.py",
     "is_free = set(free)", "is_free = set(range(ncols))",
     [LINALG + "test_a_tall_system_eliminates_the_rows_its_shortest_miss"]),
    ("catalog._exterior counts the wedge parity below the wrong bit", PKG + "catalog.py",
     "inv += np.outer(has[:, p], low[:, p])", "inv += np.outer(has[:, p], low[:, p - 1])",
     [CATALOG + "test_exterior_builders_match_the_loop_oracles"]),
    ("exact._certified_kernel drops its ncols - rank count", PKG + "exact.py",
     "certify(len(vecs) == len(free) == ncols - rank and",
     "certify(len(vecs) == len(free) and",
     [LINALG + "test_a_dropped_free_vector_fails_the_count_certificate"]),
    ("exact._certified_kernel stops after its first round", PKG + "exact.py",
     "if second or not (tall and missed.any()):", "if True:",
     [LINALG + "test_a_tall_system_eliminates_the_rows_its_shortest_miss",
      LINALG + "test_tall_kernel_matches_the_all_rows_oracle"]),
    ("exact._certified_kernel: the tower's joint certificate leaves out the ad rows",
     PKG + "exact.py",
     "joined = IntRows.concat([joined, others])", "pass",
     [LINALG + "test_a_raised_ad_row_fails_the_joint_certificate"]),
    ("exact._first_occurrences takes the first index of a run after an unstable sort",
     PKG + "exact.py", "first = np.minimum.reduceat(order, start)", "first = order[start]",
     [LINALG + "test_first_occurrences_match_np_unique"]),
    ("exact.range_join drops the sign flag", PKG + "exact.py",
     "np.negative(v, out=v, where=flag[lo:hi].repeat(m) & odd[at])", "pass",
     [TENSOR + "test_super_jacobi_matches_the_loop_oracle",
      TENSOR + "test_jacobi_witness_matches_the_oracle"]),
    ("exact.range_join cuts a chunk inside a range", PKG + "exact.py",
     "m = size[lo:hi]", "m = np.minimum(size[lo:hi], chunk)",
     [TENSOR + "test_super_jacobi_matches_the_loop_oracle_one_product_per_chunk",
      LINALG + "test_sparse_kernel_certificate_matches_the_dense_check_one_row_per_chunk",
      LINALG + "test_tall_kernel_matches_the_all_rows_oracle_one_product_per_chunk"]),
    ("tkk.KantorTop.den is d, not d * d", PKG + "tkk.py",
     "self.tensors, self.den = family[kept], d * d", "self.tensors, self.den = family[kept], d",
     [TENSOR + "test_kantor_top_block_matches_the_loop_oracle"]),
    ("tkk.KantorTop scans its family in basis order", PKG + "tkk.py",
     "order = sorted(range(n + 1), key=par.__getitem__)", "order = list(range(n + 1))",
     [TENSOR + "test_kantor_top_of_an_odd_first_basis_lists_its_even_members_first"]),
    ("structure.OperatorSpace.stack leaves each part at its own den", PKG + "structure.py",
     "rows = [[x * (den // part.den) for x in row]", "rows = [[x for x in row]",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
    ("superspace.quotient_algebra tests only e_i v", PKG + "superspace.py",
     "enumerate(((t.i, t.j), (t.j, t.i)))", "enumerate(((t.i, t.j),))",
     [SUPERSPACE + "test_subalgebra_and_quotient_refuse_like_the_oracle"]),
    ("superspace.subalgebra drops its recombination certificate", PKG + "superspace.py",
     "bad, _, _ = _residues(s, group, col, val)", "bad = []",
     [SUPERSPACE + "test_subalgebra_and_quotient_refuse_like_the_oracle"]),
    ("catalog._span_algebra drops the odd-odd sign", PKG + "catalog.py",
     "tensor.brackets(M, parities, M, parities)", "tensor.brackets(M, parities, M, [0] * k)",
     [CATALOG + "test_every_lie_default_matches_its_rational_build"]),
    ("catalog._pe_mats drops the transpose of its even block", PKG + "catalog.py",
     "U[n:, n:].swapaxes(0, 1)", "U[n:, n:]",
     [CATALOG + "test_matrix_families_match_the_dict_oracle"]),
    ("superspace.quotient_algebra drops the ideal's den", PKG + "superspace.py",
     "t.d * ideal.den,", "t.d,",
     [SUPERSPACE + "test_quotient_by_a_centre_over_a_denominator",
      SUPERSPACE + "test_subalgebra_and_quotient_match_the_rational_oracle"]),
    ("superspace._residues drops the den of w", PKG + "superspace.py",
     "[val * s.den,", "[val,",
     [SUPERSPACE + "test_quotient_by_a_centre_over_a_denominator",
      SUPERSPACE + "test_subalgebra_and_quotient_match_the_rational_oracle"]),
    ("superspace.subalgebra runs in int64 without its bound", PKG + "superspace.py",
     "dtype = int_dtype(n * n * max(t.top, 1) * top ** 2 * (s.den + m * top))",
     "dtype = np.int64",
     [SUPERSPACE + "test_subalgebra_and_quotient_match_the_rational_oracle"]),
    ("superspace.subalgebra keeps the pivot order", PKG + "superspace.py",
     "order = sorted(range(s.dim), key=keys.__getitem__)", "order = list(range(s.dim))",
     [SUPERSPACE + "test_subalgebra_and_quotient_match_the_rational_oracle"]),
    ("catalog._build_full_matrix drops its odd-odd sign", PKG + "catalog.py",
     "s = -1 if parities[i] * parities[j] % 2 else 1", "s = 1",
     [CATALOG + "test_every_jordan_build_matches_its_rational_build"]),
    ("catalog._build_dt writes t over d / 2", PKG + "catalog.py",
     "(2, 3, 1, 2 * t.numerator)", "(2, 3, 1, t.numerator)",
     [CATALOG + "test_every_jordan_build_matches_its_rational_build"]),
    ("exact._sparse skips the ambient-length check", PKG + "exact.py",
     "if len(v) != ambient:", "if False:",
     [LINALG + "test_shape_guards_survive_python_O"]),
    ("exact.row_primitive keeps a zero given as a string", PKG + "exact.py",
     "items = [(c, v) for c, v in items if v]", "pass",
     [LINALG + "test_subspace_reads_a_zero_string_as_zero"]),
    ("tkk.is_jordan_graded meets the centre with the wrong coordinates", PKG + "tkk.py",
     "embedded(zero, g.dim)", "embedded(range(len(zero)), g.dim)",
     ["tests/test_j_functor.py::test_a_central_g0_fails_like_the_loop"]),
    ("cli.verify_section drops tits_roundtrip(V, 'inn')", PKG + "cli.py",
     '    checks.append(tits_roundtrip(V, "inn"))\n', "",
     [CLI + "test_reports_match_their_pins"]),
    ("cli._skipped skips a dim equal to --max-dim", PKG + "cli.py",
     "    if dim > max_dim:", "    if dim >= max_dim:",
     [CLI + "test_max_dim_bounds_are_inclusive"]),
    ("cli.verify_section skips Out(Ko) at a dim equal to --max-dim", PKG + "cli.py",
     "ko.dim <= max_dim", "ko.dim < max_dim",
     [CLI + "test_max_dim_bounds_are_inclusive"]),
    ("cli.cmd_tkk skips the der tower at a dim equal to --max-dim", PKG + "cli.py",
     "g.dim <= max_dim", "g.dim < max_dim",
     [CLI + "test_max_dim_bounds_are_inclusive"]),
    ("cli.cmd_tkk runs the unital section only for ko", PKG + "cli.py",
     'if construction in ("kan", "ko"):', 'if construction == "ko":',
     [CLI + "test_reports_match_their_pins"]),
    ("cli._catalog_report leaves the catalog in build order", PKG + "cli.py",
     "sorted((section_of(V, max_dim) for V in entries), key=lambda s: s.name)",
     "[section_of(V, max_dim) for V in entries]",
     [CLI + "test_dims_all_is_the_sections_of_each_source"]),
    ("cli.main lets an OSError through", PKG + "cli.py",
     "except (ValueError, OSError) as err:", "except ValueError as err:",
     [CLI + "test_io_errors_exit_2_without_a_traceback"]),
]


# a failing hypothesis test would shrink its example for minutes: a mutant
# only needs the failure, so the copy runs without the shrink phase
CONFTEST = """from hypothesis import Phase, settings
settings.register_profile("mutants", database=None,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for part in ("src", "tests", "perfbench"):  # tests/test_tkk.py reads perfbench/workloads.py
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)
    (dest / "tests" / "conftest.py").write_text(CONFTEST)


def _pytest(tests, edit=None) -> tuple:
    """(pytest's exit code, output tail) of the tests in a fresh copy, with
    edit = (file, old, new) applied; code None if the old text does not
    occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        if edit:
            file, old, new = edit
            text = (work / file).read_text()
            if text.count(old) != 1:
                return None, f"{file}: the old text occurs {text.count(old)} times"
            (work / file).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--hypothesis-seed=0", *tests],
                              cwd=work, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:]


def main() -> int:
    start = time.perf_counter()
    # a mutant whose tests fail without it proves nothing
    code, output = _pytest(sorted({t for *_, tests in MUTANTS for t in tests}))
    if code != 0:
        print(f"the unmutated tests do not pass:\n{output}")
        return 1
    failed = 0
    for name, file, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        code, output = _pytest(tests, (file, old, new))
        verdict = {0: "survived", 1: "killed"}.get(code, "error")
        print(f"{verdict:9} {time.perf_counter() - t0:6.1f}s  {name}", flush=True)
        if verdict != "killed":
            failed += 1
            print(output)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
