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
DEGREE0 = "tests/test_degree0.py::"
STRUCTURE = "tests/test_structure.py::"
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
     "t, s = np.triu_indices(space.dim)", "s, t = np.triu_indices(space.dim)",
     [TKK + "test_koecher_kack_dims"]),
    ("tkk._join drops the diagonal a == b", PKG + "tkk.py",
     "keep = i <= j", "keep = i < j",
     [DEGREE0 + "test_constructions_match_the_loop_oracle"]),
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
    ("tkk.check_unital_equivalences scales in int64", PKG + "tkk.py",
     "mid.coordinates(ops).astype(object) * (den // ops.den)",
     "mid.coordinates(ops) * (den // ops.den)",
     [DEGREE0 + "test_roundtrip_and_equivalences_prove_their_int64_bound"]),
    ("tensor.bracket_map_defect cross-multiplies by the wrong table", PKG + "tensor.py",
     "mismatch(lhs, df * td.d, rhs, ts.d)", "mismatch(lhs, df * td.d, rhs, td.d)",
     [DEGREE0 + "test_equivalence_images_match_the_loop_oracle"]),
    ("exact.GeneratedSpan.express drops the L/d_i factor", PKG + "exact.py",
     "f = -x * (scale // self._dens[i])", "f = -x * scale",
     ["tests/test_linalg.py::test_generated_span_matches_span_solver_oracle"]),
    ("superspace antisymmetry witness is (min, max)", PKG + "superspace.py",
     "hi, lo = np.maximum(i, j), np.minimum(i, j)", "hi, lo = np.minimum(i, j), np.maximum(i, j)",
     ["tests/test_tensor.py::test_graded_symmetry_checks_match_the_loop_oracle"]),
    ("exact.Q accepts floats", PKG + "exact.py",
     "and not isinstance(value, Rational):", "and False:",
     ["tests/test_linalg.py::test_floats_are_rejected"]),
    ("structure._rule_blocks halves to i < j", PKG + "structure.py",
     "index[0] <= index[1] if halve", "index[0] < index[1] if halve",
     [STRUCTURE + "test_leibniz_blocks_match_the_oracle_on_fixed_tables"]),
    ("structure._rule_blocks does not halve the output term", PKG + "structure.py",
     "entries(first & (key[0] <= key[1])) if halve else chunk", "chunk",
     [STRUCTURE + "test_leibniz_blocks_match_the_oracle_on_fixed_tables"]),
    ("structure._rule_blocks drops the Koszul sign of the slots before", PKG + "structure.py",
     "before = sum(p[ops[t]][slots[t]] for t in range(s))", "before = 0",
     [STRUCTURE + "test_pair_der_of_a_j_functor_pair_matches_the_oracle"]),
    ("structure._rule_blocks proves its int64 bound for r terms", PKG + "structure.py",
     "primitive_row_blocks(chunks(), len(maps[0][2]) + 1,",
     "primitive_row_blocks(chunks(), len(maps[0][2]),",
     [STRUCTURE + "test_leibniz_assembly_proves_its_int64_bound"]),
    ("structure.str_w puts Y on the right side with +1", PKG + "structure.py",
     "(f, f, 1 - f), (1, 1, -1)", "(f, f, 1 - f), (1, 1, 1)",
     [STRUCTURE + "test_str_w_matches_fraction_oracle"]),
    ("tensor.jacobi_defect sorts [e_x, e_l] by (i, j, k)", PKG + "tensor.py",
     "np.lexsort((t.k, t.i, t.j))", "np.lexsort((t.k, t.j, t.i))",
     ["tests/test_tensor.py::test_super_jacobi_matches_the_loop_oracle"]),
    ("tkk._ad_rows swaps (c, k)", PKG + "tkk.py",
     "np.argsort(flats)[t.k * n + t.j]", "np.argsort(flats)[t.j * n + t.k]",
     [TKK + "test_ad_rows_match_the_row_primitive_loop"]),
    ("tkk.lie_der_tower does not offset the blocks", PKG + "tkk.py",
     "IntRows(r.lens, r.cols + lo, r.vals)", "IntRows(r.lens, r.cols, r.vals)",
     [TKK + "test_der_tower_matches_the_subspace_oracle"]),
    ("tkk._j_pair takes d for the denominator", PKG + "tkk.py",
     'JordanPair(f"J({g.name})", parities, tensors, d * d)',
     'JordanPair(f"J({g.name})", parities, tensors, d)',
     ["tests/test_j_functor.py::test_j_side_matches_the_loop_oracle"]),
    ("tkk._killing_half drops the 1/2", PKG + "tkk.py",
     "np.einsum('ick,jkc->ij', C, C), 2 * d * d", "np.einsum('ick,jkc->ij', C, C), d * d",
     [DEGREE0 + "test_killing_half_of_sl2_is_computed"]),
    ("catalog.load matches a coefficient's prefix", PKG + "catalog.py",
     "_COEFF_RE.fullmatch(c)", "_COEFF_RE.match(c)",
     ["tests/test_catalog.py::test_load_rejects_coefficients_only_python_would_parse"]),
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
