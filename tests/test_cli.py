"""CLI subcommands, report formats and exit codes."""

import gc
import hashlib
import json
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pyrun import run_python
from supertkk import tensor, tkk
from supertkk.catalog import _JORDAN_DEFAULTS, load_algebra, resolve, save_algebra
from supertkk.cli import (CONSTRUCTIONS, cmd_dims, cmd_tkk, cmd_verify, main,
                          report_from_machine, report_to_human,
                          report_to_machine, verify_section)
from supertkk.superspace import check_super_jacobi


def test_parse_source_forms():
    # the command line parses its sources with catalog.resolve
    assert resolve("j19").name == "j19"
    assert resolve("full_matrix:1,1").name == "full_matrix(1,1)"
    assert resolve("full_matrix(1,2)").name == "full_matrix(1,2)"
    assert resolve("dt:1/2").name == "dt(1/2)"
    assert resolve("form:1,2/1") is resolve("form:1,2")  # 2/1 is the integer 2
    with pytest.raises(ValueError):
        resolve("nosuch.alg")


def test_parse_source_file(tmp_path):
    path = tmp_path / "v.alg"
    path.write_bytes(save_algebra(resolve("j19")))
    assert resolve(str(path)).name == "j19"
    assert resolve(f"file:{path}").name == "j19"


def test_non_jordan_source_exit_code(tmp_path, capsys):
    assert main(["dims", "psl:2,2"]) == 2
    assert "not a Jordan superalgebra" in capsys.readouterr().err
    path = tmp_path / "ko.alg"
    assert main(["export", "j19", "ko", "-o", str(path)]) == 0
    assert main(["verify", str(path)]) == 2
    assert "not a Jordan superalgebra" in capsys.readouterr().err


def test_dims_j19_table():
    report = cmd_dims("j19", 64)
    table = report.sections[0].tables["operator_spaces"]
    assert table["istr"] == [2, 0] and table["str"] == [3, 0]
    assert table["pair_inn"] == [3, 0] and table["pair_der"] == [5, 0]
    human = report_to_human(report)
    assert "chain hypothesis fails: L_{e_2} in Inn(V)" in human


def test_dims_trunc_poly():
    table = cmd_dims("trunc_poly:5", 64).sections[0].tables["operator_spaces"]
    assert table["istr"] == [3, 0] and table["istr~"] == [2, 0]


def test_tkk_ko_kack():
    report = cmd_tkk("kacK", "ko", 64)
    section = report.sections[0]
    assert section.tables["degree_dims"] == {"-1": 3, "0": 8, "1": 3}
    names = {c.name: c for c in section.checks}
    assert names["super_jacobi"].passed and names["jordan_graded"].passed
    assert "der_tower" in section.tables
    assert any("no unit" in n for n in section.notes)


def test_tkk_kan_kack_top_note():
    report = cmd_tkk("kacK", "kan", 64)
    assert any("g+ dim 4 != dim V = 3" in n for n in report.sections[0].notes)


def test_tkk_kotilde_dim17():
    report = cmd_tkk("full_matrix:1,1", "kotilde", 64)
    assert any("total dim 17" in n for n in report.sections[0].notes)
    # Ko~ of a pair with Der > Inn is not Jordan graded, and says so
    names = {c.name: c for c in report.sections[0].checks}
    assert not names["jordan_graded"].passed


def test_tkk_ti_runs_roundtrips():
    report = cmd_tkk("j19", "ti-der", 64)
    names = {c.name: c for c in report.sections[0].checks}
    assert names["propnu"].passed and names["tits_roundtrip"].passed


def test_verify_j19_green(capsys):
    code = main(["verify", "j19"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain hypothesis fails: L_{e_2} in Inn(V)" in out
    assert "FAIL" not in out


def test_verify_kack_counterexamples(capsys):
    code = main(["verify", "kacK"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Kan ≇ Ko (graded dims differ)" in out
    assert "Out(Ko) dims (1,1,1)" in out


def test_verify_unital_runs_equivalences():
    report = cmd_verify("full_matrix:1,1", 64, None)
    names = {c.name for s in report.sections for c in s.checks}
    assert {"kantor_equals_koecher", "tits_inn_equals_koecher",
            "strw_matches_str", "out_kotilde_zero"} <= names
    assert report.all_passed()


def test_machine_report_roundtrip():
    report = cmd_verify("j19", 64, None)
    text = report_to_machine(report)
    assert report_from_machine(text) == report
    # every check in the human output appears in the machine output
    parsed = json.loads(text)
    machine_names = {c["name"] for s in parsed["sections"] for c in s["checks"]}
    for s in report.sections:
        for c in s.checks:
            assert c.name in machine_names


def test_machine_flag(capsys):
    code = main(["--format", "machine", "dims", "j19"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["title"] == "dims j19"


def test_export_deterministic(tmp_path):
    a, b = tmp_path / "a.alg", tmp_path / "b.alg"
    assert main(["export", "j19", "ko", "-o", str(a)]) == 0
    assert main(["export", "j19", "ko", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    g = load_algebra(a.read_bytes())
    assert g.dim == 9  # Ko(j19) has 3 + 3 + 3 basis elements
    assert check_super_jacobi(g) is None


def test_export_self_matches_catalog(tmp_path):
    path = tmp_path / "self.alg"
    main(["export", "kacK", "self", "-o", str(path)])
    assert path.read_bytes() == save_algebra(resolve("kacK"))


def test_export_stdout(capsys):
    assert main(["export", "j19", "self"]) == 0
    out = capsys.readouterr().out
    assert '"name": "j19"' in out


def test_unknown_source_exit_code(capsys):
    assert main(["dims", "nosuch"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "dims", "tkk"])
@pytest.mark.parametrize("source", ["dt:1/0", "full_matrix:1.5,1", "w:3/2", "gl:1/2,1",
                                    "trunc_poly:9/2", "dt:x"])
def test_malformed_catalog_parameter_exit_code(source, command, capsys):
    # exit 1 means "a check failed"; a parameter the catalog cannot take is
    # an error of the command line, like an unknown name
    argv = [command, source] + (["ko"] if command == "tkk" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_io_errors_exit_2_without_a_traceback(tmp_path, monkeypatch, capsys):
    # exit 1 means "a check failed"; a file that cannot be written or read is
    # an error line and exit 2, like any other error of the command line
    done = run_python([], "import sys\nfrom supertkk.cli import main\n"
                      f"sys.exit(main(['export', 'j19', 'ko', '-o', {str(tmp_path / 'no' / 'x.alg')!r}]))")
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    path = tmp_path / "j19.alg"
    assert main(["export", "j19", "self", "-o", str(path)]) == 0

    def unreadable(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", unreadable)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Permission denied" in err


def test_a_directory_is_not_reported_as_a_missing_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "d.alg").mkdir()
    monkeypatch.chdir(tmp_path)
    for source in ("d.alg", "file:d.alg"):
        assert main(["verify", source]) == 2
        err = capsys.readouterr().err
        assert err == "error: not a regular file: d.alg\n", err


PINS = Path(__file__).with_name("verify_dim9.sha256")
PINNED_REPORTS = [
    ("verify-all.out", ["--format", "machine", "verify", "all"]),
    ("tkk-kacK-ko.out", ["--format", "machine", "tkk", "kacK", "ko"]),
    ("tkk-kacK-kotilde.out", ["--format", "machine", "tkk", "kacK", "kotilde"]),
    ("tkk-full_matrix:2,1-kan.out", ["--format", "machine", "tkk", "full_matrix:2,1", "kan"]),
    ("verify-all-human.out", ["verify", "all"]),
    ("tkk-kacK-ko-human.out", ["tkk", "kacK", "ko"]),
    ("dims-j19-human.out", ["dims", "j19"]),
    ("export-j19.out", ["export", "j19", "kotilde"]),
    ("export-trunc_poly:7.out", ["export", "trunc_poly:7", "kotilde"]),
]


@pytest.mark.parametrize("out, argv", PINNED_REPORTS, ids=[o for o, _ in PINNED_REPORTS])
def test_reports_match_their_pins(out, argv, capsys):
    # the same reports the CI step writes to files, rendered in process, so
    # that the mutation check sees the command layer
    pins = dict(reversed(line.split()) for line in PINS.read_text().splitlines())
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pins[out]


def test_max_dim_bounds_are_inclusive():
    # Ko(kacK) has dim 14 and Ko~(kacK) dim 15: a cap equal to a dimension
    # still runs the work on it
    for cap, tower, out_ko in ((15, True, True), (14, False, True), (13, False, False)):
        section = cmd_verify("kacK", cap).sections[0]
        assert ("out_kotilde_zero" in {c.name for c in section.checks}) == tower, cap
        assert any("derivation tower skipped" in n for n in section.notes) != tower, cap
        assert any(n.startswith("Out(Ko) dims") for n in section.notes) == out_ko, cap
    assert "der_tower" in cmd_tkk("kacK", "ko", 14).sections[0].tables
    assert "der_tower" not in cmd_tkk("kacK", "ko", 13).sections[0].tables
    for report in (cmd_dims("kacK", 3), cmd_tkk("kacK", "kan", 3), cmd_verify("kacK", 3)):
        assert report.sections[0].checks
        assert not any(n.startswith("skipped:") for n in report.sections[0].notes)
    for report in (cmd_dims("kacK", 2), cmd_tkk("kacK", "kan", 2), cmd_verify("kacK", 2)):
        assert report.sections[0].notes == ["skipped: dim 3 exceeds --max-dim 2"]
        assert not report.sections[0].checks


def test_check_names_are_unique_within_each_section():
    reports = [cmd_verify("all", 64)] + [cmd_tkk(source, c, 64)
                                         for source in ("kacK", "full_matrix:1,1")
                                         for c in CONSTRUCTIONS[:-1]]
    assert len(reports[0].sections) == 14
    for report in reports:
        for section in report.sections:
            names = [c.name for c in section.checks]
            assert len(names) == len(set(names)), (report.title, section.name, names)


def test_dims_all_is_the_sections_of_each_source(capsys):
    report = cmd_dims("all", 64)
    assert report.title == "dims all"
    names = [s.name for s in report.sections]
    assert names == sorted(names) and len(names) == len(_JORDAN_DEFAULTS)
    by_name = dict(zip(names, report.sections))
    for source in _JORDAN_DEFAULTS:
        section = cmd_dims(source, 64).sections[0]
        assert by_name[section.name] == section, source
    assert cmd_dims("all", 64, seed=7) == report
    assert main(["--seed", "7", "--format", "machine", "dims", "all"]) == 0
    assert report_from_machine(capsys.readouterr().out) == report


def test_max_dim_guard():
    report = cmd_dims("full_matrix:1,2", 4)
    assert any("exceeds --max-dim" in n for n in report.sections[0].notes)
    assert not report.sections[0].checks
    report = cmd_verify("kacK", 10, None)
    # Ko~(kacK) has dim 15, so its tower is skipped under the cap
    assert any("derivation tower skipped" in n
               for n in report.sections[0].notes)


def test_seed_flag_accepted(capsys):
    assert main(["--seed", "7", "verify", "j19"]) == 0
    capsys.readouterr()


def _non_jordan_file(tmp_path):
    """j19 with its first structure constant raised by one: still
    supercommutative, no longer Jordan."""
    doc = json.loads(save_algebra(resolve("j19")))
    entry = doc["products"][0]
    entry["coeff"] = str(Fraction(entry["coeff"]) + 1)
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    return path


def test_verify_non_jordan_table_exit_code(tmp_path, capsys):
    # a failed certificate inside a construction is a ValueError, not a crash
    assert main(["verify", str(_non_jordan_file(tmp_path))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_non_jordan_table_survives_python_O(tmp_path):
    path = _non_jordan_file(tmp_path)
    done = run_python(["-O"], "import sys\nfrom supertkk.cli import main\n"
                      f"sys.exit(main(['verify', {str(path)!r}]))")
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: "), done.stderr


@pytest.mark.parametrize("source", ["j19", "full_matrix:1,1"])
def test_verify_section_builds_each_construction_once(source, monkeypatch):
    # a freshly loaded object, so no construction can be warm from earlier tests
    V = load_algebra(save_algebra(resolve(source)))
    built = Counter()
    integer_algebra = tkk.integer_algebra

    def spy(*args, **kwargs):
        built[kwargs["name"]] += 1
        return integer_algebra(*args, **kwargs)

    monkeypatch.setattr(tkk, "integer_algebra", spy)
    verify_section(V, 64)
    pair = f"({V.name},{V.name})"
    for name in (f"Ko{pair}", f"Ko~{pair}", f"Kan({V.name})", f"Ti({V.name},inn)"):
        assert built[name] == 1, (name, built)


def test_verify_section_proves_super_jacobi_once_per_lie_algebra(monkeypatch):
    # make_algebra proves super-Jacobi for each Lie table it builds, and the
    # super_jacobi_ko check reuses that proof on the same object
    V = load_algebra(save_algebra(resolve("j19")))
    checked = []
    jacobi_defect = tensor.jacobi_defect

    def spy(a):
        checked.append(a)
        return jacobi_defect(a)

    monkeypatch.setattr(tensor, "jacobi_defect", spy)
    verify_section(V, 64)
    assert f"Ko({V.name},{V.name})" in {g.name for g in checked}
    assert len({id(g) for g in checked}) == len(checked), [g.name for g in checked]


@pytest.mark.parametrize("source", ["j19", "kacK", "full_matrix:1,1"])
def test_verify_section_evaluates_each_jordan_triple_identity_once(source, monkeypatch):
    # one triple tensor per algebra (double(V)); one outer-symmetry and one
    # 5-linear scan of V, and one of each for J(Ko(V)), whose halves are equal
    V = load_algebra(save_algebra(resolve(source)))
    calls = Counter()
    for name in ("triple_tensor", "five_linear_defect", "outer_symmetry_defect"):
        def spy(*args, _kernel=getattr(tensor, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(tensor, name, spy)
    verify_section(V, 64)
    assert calls == {"triple_tensor": 1, "five_linear_defect": 2, "outer_symmetry_defect": 2}


class _Stores(dict):
    """A memo that counts the results stored in it, by function name."""

    def __init__(self, memo, counts):
        super().__init__(memo)
        self.counts = counts

    def __setitem__(self, key, value):
        self.counts[key[0].__name__] += 1
        super().__setitem__(key, value)


def test_verify_section_builds_one_l_bracket_stack_and_one_d_stack(monkeypatch):
    # l_brackets and pair_d_stack are memoized on V and on double(V), so a
    # store in those memos is a build; the [L_a, L_b] are one batched
    # tensor.brackets of the L_a, which Inn(V), the identities, the Tits
    # container and the unital equivalences share
    from supertkk.structure import double, l_stack
    formed, brackets = [], tensor.brackets

    def spy(A, pa, B, pb):
        L = l_stack(V).blocks[0]
        formed.append(A.shape == B.shape == L.shape and (A == L).all() and (B == L).all())
        return brackets(A, pa, B, pb)

    monkeypatch.setattr(tensor, "brackets", spy)
    for first in ("verify", "tits"):
        V = load_algebra(save_algebra(resolve("full_matrix:1,1")))
        stores, pair = Counter(), double(V)
        for obj in (V, pair):
            object.__setattr__(obj, "_memo", _Stores(obj._memo, stores))
        if first == "tits":
            tkk.tits(V, "inn")
            assert formed.count(True) == 1 and stores["l_brackets"] == 1
        verify_section(V, 64)
        assert stores["l_brackets"] == stores["pair_d_stack"] == 1, stores
        assert tkk.tits(V, "inn") and formed.count(True) == 1, first
        formed.clear()


def test_verify_section_releases_its_algebra():
    V = load_algebra(save_algebra(resolve("j19")))
    ref = weakref.ref(V)
    verify_section(V, 64)
    del V
    gc.collect()
    assert ref() is None


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RUN_SCRIPT = """
import runpy, sys
sys.argv = {argv!r}
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("argv", [["tkk_survey.py", "--max-dim", "4", "--fingerprints"]],
                         ids=["tkk_survey"])
def test_survey_scripts_run(argv):
    # the scripts import public names of the package, which no other test runs them against
    done = run_python([], RUN_SCRIPT.format(argv=[str(SCRIPTS / argv[0]), *argv[1:]]))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "skipped (--max-dim)" in done.stdout


def test_the_machine_report_is_the_asdict_rendering_without_the_copy(monkeypatch):
    # report_to_machine reads the dataclasses as the encoder reaches them;
    # the text is what json.dumps(dataclasses.asdict(report), indent=2) gave,
    # and no deep copy is made
    import dataclasses
    report = cmd_dims("all", 64)
    report.sections.append(cmd_verify("j19", 64).sections[0])
    want = json.dumps(dataclasses.asdict(report), indent=2)
    monkeypatch.setattr(dataclasses, "asdict", None)
    assert report_to_machine(report) == want
