"""Command line front end: build algebras, run the check suite, emit reports.

Each command writes one Section per Jordan superalgebra by straight-line calls
into the library, in report order; `dims all` and `verify all` share one loop
over the catalog.  Exit 1: a `verify` check failed; exit 2: an `error:` line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import jordan_entries, resolve, save_algebra
from .jordan import (check_commutator_identity, check_five_linear, check_jordan_identity,
                     check_triple_symmetry, find_unit)
from .structure import (CheckResult, inclusion_report, pair_der, projects_onto, str_algebra,
                        str_w, structure_summary)
from .superspace import (SuperAlgebra, check_super_jacobi, check_supercommutative, graded_dims,
                         parity_dims)
from .tkk import (check_propnu, check_unital_equivalences, is_jordan_graded, j_roundtrip_check,
                  kantor, kantor_koecher_comparison, kantor_relations, koecher,
                  koecher_inverse_check, koecher_tilde, lie_der_tower, out_dims, tits,
                  tits_roundtrip, zdims)

_BUILDERS = {"kan": kantor, "ko": koecher, "kotilde": koecher_tilde,
             "ti-inn": lambda V: tits(V, "inn"), "ti-der": lambda V: tits(V, "der")}
CONSTRUCTIONS = (*_BUILDERS, "self")


@dataclass
class Section:
    """One algebra's worth of report: dimension tables, checks, free notes."""

    name: str
    tables: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class Report:
    title: str
    sections: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for s in self.sections for c in s.checks if c.kind == "check")


def report_to_machine(report: Report) -> str:
    """Stable JSON rendering; parses back to an equal Report.  The encoder
    reads each dataclass by its fields (`vars`) as it goes: no deep copy."""
    return json.dumps(report, default=vars, indent=2)


def report_from_machine(text: str) -> Report:
    raw = json.loads(text)
    sections = [Section(s["name"], s["tables"], [CheckResult(**c) for c in s["checks"]],
                        s["notes"]) for s in raw["sections"]]
    return Report(raw["title"], sections)


def report_to_human(report: Report) -> str:
    lines = [f"# {report.title}", ""]
    for s in report.sections:
        lines.append(f"== {s.name} ==")
        for tname, table in s.tables.items():
            lines.append(f"  {tname}:")
            width = max((len(k) for k in table), default=0)
            for k, v in table.items():
                lines.append(f"    {k:<{width}}  {v}")
        for c in s.checks:
            mark = "note" if c.kind == "note" else "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        lines += [f"  - {n}" for n in s.notes]
        lines.append("")
    return "\n".join(lines)


def _jordan_source(source: str) -> SuperAlgebra:
    """The Jordan superalgebra named by a catalog.resolve source."""
    V = resolve(source)
    if V.kind != "jordan":
        raise ValueError(f"{source!r} is a {V.kind} algebra, not a Jordan superalgebra")
    return V


def _witness_check(name: str, witness) -> CheckResult:
    detail = "holds on all homogeneous basis tuples" if witness is None else str(witness)
    return CheckResult(name, witness is None, detail)


def _skipped(section: Section, dim: int, max_dim: int, what: str = "skipped") -> bool:
    """Whether dim exceeds --max-dim; if so, section notes what is skipped."""
    if dim > max_dim:
        section.notes.append(f"{what}: dim {dim} exceeds --max-dim {max_dim}")
        return True
    return False


def _graded_dims_table(g: SuperAlgebra) -> dict:
    return {f"{z},{p}": d for (z, p), d in sorted(graded_dims(g).items())}


def _catalog_report(command: str, section_of, source: str, max_dim: int, seed) -> Report:
    """section_of the source's algebra, or for source "all" of every catalog entry by name."""
    if source != "all":
        return Report(f"{command} {source}", [section_of(_jordan_source(source), max_dim)])
    entries = list(jordan_entries().values())
    if seed is not None:
        random.Random(seed).shuffle(entries)  # results are order-independent
    sections = sorted((section_of(V, max_dim) for V in entries), key=lambda s: s.name)
    return Report(f"{command} all", sections)


def dims_section(V: SuperAlgebra, max_dim: int) -> Section:
    section = Section(V.name)
    if not _skipped(section, V.dim, max_dim):
        section.tables["operator_spaces"] = {
            label: list(space.dims()) for label, space in structure_summary(V).items()}
        section.checks += inclusion_report(V)
    return section


def cmd_dims(source: str, max_dim: int, seed: int | None = None) -> Report:
    return _catalog_report("dims", dims_section, source, max_dim, seed)


def cmd_tkk(source: str, construction: str, max_dim: int) -> Report:
    V = _jordan_source(source)
    section = Section(V.name)
    report = Report(f"tkk {source} {construction}", [section])
    if _skipped(section, V.dim, max_dim):
        return report
    g = _BUILDERS[construction](V).lie
    section.name = g.name
    degrees = zdims(g)
    section.tables["graded_dims"] = _graded_dims_table(g)
    section.tables["degree_dims"] = {str(z): d for z, d in sorted(degrees.items())}
    section.notes.append("total dim {} = ({}|{})".format(g.dim, *parity_dims(g)))
    section.checks += [_witness_check("super_jacobi", check_super_jacobi(g)), is_jordan_graded(g)]
    if construction == "kan":
        gplus = degrees.get(1, 0)
        section.notes.append(f"g+ dim {gplus} = dim V = {V.dim}" if gplus == V.dim else
                             f"g+ dim {gplus} != dim V = {V.dim} (top space strictly bigger)")
    if construction == "ko" and g.dim <= max_dim:
        tower = lie_der_tower(g)
        section.tables["der_tower"] = {f"{shift},{parity}": [b["der"], b["inn"], b["out"]]
                                       for (shift, parity), b in sorted(tower.items())}
        section.notes.append(f"Out dims by shift: {out_dims(tower) or 0}")
    if construction in ("ti-inn", "ti-der"):
        d = construction[3:]
        section.checks += [*check_propnu(V, d), tits_roundtrip(V, d)]
    if construction in ("kan", "ko"):
        if find_unit(V) is None:
            section.notes.append("unital-equivalence section skipped (no unit)")
        else:
            section.checks += check_unital_equivalences(V)
    return report


def verify_section(V: SuperAlgebra, max_dim: int) -> Section:
    section = Section(V.name)
    if _skipped(section, V.dim, max_dim):
        return section
    checks = section.checks
    for name, check in (("supercommutative", check_supercommutative),
                        ("jordan_identity", check_jordan_identity),
                        ("operator_identity", check_commutator_identity),
                        ("triple_symmetry", check_triple_symmetry),
                        ("five_linear", check_five_linear)):
        checks.append(_witness_check(name, check(V)))
    inclusions = inclusion_report(V)
    checks += inclusions
    # str_w against Der(V,V), on inclusion_report's verdict, and onto str for unital V
    same = next(c.passed for c in inclusions if c.name == "str_w_matches_pair_der")
    sw = str_w(V).dims()
    checks.append(CheckResult("strw_matches_pair_der", same,
                              f"str_w dims {sw}, pair_der dims {pair_der(V).dims()}"))
    unit = find_unit(V)
    if unit is not None:
        ss = str_algebra(V).dims()
        checks.append(CheckResult("strw_matches_str", projects_onto(str_w(V), str_algebra(V)),
                                  f"str_w dims {sw}, str dims {ss}"))

    ko = koecher(V)
    checks.append(_witness_check("super_jacobi_ko", check_super_jacobi(ko.lie)))
    section.tables["koecher_graded_dims"] = _graded_dims_table(ko.lie)
    checks.append(j_roundtrip_check(V))
    checks += koecher_inverse_check(ko.lie)
    checks.append(tits_roundtrip(V, "inn"))
    checks += kantor_relations(V)

    kot = koecher_tilde(V)
    if not _skipped(section, kot.dim, max_dim, "derivation tower skipped"):
        od = out_dims(lie_der_tower(kot.lie))
        checks.append(CheckResult("out_kotilde_zero", not od,
                                  f"Out(Ko~(V)) dims {od}" if od else "Out(Ko~(V)) = 0"))
    if unit is None:
        # counterexample corner: expected non-theorems for non-unital V
        checks.append(kantor_koecher_comparison(V))
    checks += check_unital_equivalences(V)
    if unit is None and ko.dim <= max_dim:
        od = out_dims(lie_der_tower(ko.lie))
        dims = ",".join(str(sum(od[s])) for s in sorted(od))
        parity = "all even" if all(v[1] == 0 for v in od.values()) else "mixed parity"
        section.notes.append(f"Out(Ko) dims ({dims}) at shifts {tuple(sorted(od))}, {parity}")
    return section


def cmd_verify(source: str, max_dim: int, seed: int | None = None) -> Report:
    return _catalog_report("verify", verify_section, source, max_dim, seed)


def cmd_export(source: str, construction: str, out, max_dim: int) -> Report:
    V = _jordan_source(source)
    if V.dim > max_dim:
        raise ValueError(f"dim {V.dim} exceeds --max-dim {max_dim}")
    alg = V if construction == "self" else _BUILDERS[construction](V).lie
    if out is None:
        sys.stdout.write(save_algebra(alg).decode())
    else:
        Path(out).write_bytes(save_algebra(alg))
    note = f"exported {alg.dim} basis elements" + (f" to {out}" if out else " to stdout")
    return Report(f"export {source} {construction}", [Section(alg.name, notes=[note])])


def main(argv=None) -> int:
    # the flags accepted both before and after the subcommand; SUPPRESS so a
    # subcommand parse never clobbers a flag given up front
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("human", "machine"),
                        default=argparse.SUPPRESS, help="report format")
    shared.add_argument("--max-dim", type=int, default=argparse.SUPPRESS,
                        help="skip work on algebras above this dimension")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="shuffle the processing order (results unaffected)")
    parser = argparse.ArgumentParser(prog="supertkk", parents=[shared],
                                     description="structure algebras and TKK constructions over Q")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in (("dims", "structure algebra dimensions; 'all' for the catalog"),
                             ("tkk", "build one TKK construction and check it"),
                             ("verify", "full check suite; 'all' for the catalog"),
                             ("export", "write a constructed algebra to a file")):
        sub.add_parser(command, parents=[shared], help=summary).add_argument("source")
    sub.choices["tkk"].add_argument("construction", choices=CONSTRUCTIONS[:-1])
    sub.choices["export"].add_argument("construction", choices=CONSTRUCTIONS)
    sub.choices["export"].add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv, argparse.Namespace(format="human", max_dim=64, seed=None))
    try:
        if args.command == "tkk":
            report = cmd_tkk(args.source, args.construction, args.max_dim)
        elif args.command == "export":
            report = cmd_export(args.source, args.construction, args.output, args.max_dim)
        else:
            command = cmd_dims if args.command == "dims" else cmd_verify
            report = command(args.source, args.max_dim, args.seed)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not (args.command == "export" and args.output is None):
        print(report_to_machine(report) if args.format == "machine" else report_to_human(report))
    # exit status contract: nonzero iff at least one verify check fails
    return 1 if args.command == "verify" and not report.all_passed() else 0


if __name__ == "__main__":
    raise SystemExit(main())
