"""Command line front end: build algebras, run the check suite, emit reports."""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .catalog import jordan_entries, resolve, save_algebra
from .jordan import (check_commutator_identity, check_five_linear,
                     check_jordan_identity, check_triple_symmetry, find_unit)
from .structure import (CheckResult, inclusion_report, pair_der,
                        str_algebra, str_w, structure_summary)
from .superspace import (SuperAlgebra, check_super_jacobi,
                         check_supercommutative, graded_dims, parity_dims)
from .tkk import (check_propnu, check_unital_equivalences, is_jordan_graded,
                  j_roundtrip_check, kantor, kantor_koecher_comparison,
                  kantor_relations, koecher, koecher_inverse_check,
                  koecher_tilde, lie_der_tower, out_dims, tits,
                  tits_roundtrip, zdims)

CONSTRUCTIONS = ("kan", "ko", "kotilde", "ti-inn", "ti-der", "self")


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
        return all(c.passed for s in self.sections for c in s.checks
                   if c.kind == "check")


def report_to_machine(report: Report) -> str:
    """Stable JSON rendering; parses back to an equal Report."""
    return json.dumps(asdict(report), indent=2)


def report_from_machine(text: str) -> Report:
    raw = json.loads(text)
    sections = [Section(s["name"], s["tables"],
                        [CheckResult(**c) for c in s["checks"]], s["notes"])
                for s in raw["sections"]]
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
            mark = {True: "PASS", False: "FAIL"}[c.passed]
            if c.kind == "note":
                mark = "note"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        for n in s.notes:
            lines.append(f"  - {n}")
        lines.append("")
    return "\n".join(lines)


def _jordan_source(source: str) -> SuperAlgebra:
    """The Jordan superalgebra named by a catalog.resolve source."""
    V = resolve(source)
    if V.kind != "jordan":
        raise ValueError(f"{source!r} is a {V.kind} algebra, not a Jordan superalgebra")
    return V


def _witness_check(name: str, witness) -> CheckResult:
    if witness is None:
        return CheckResult(name, True, "holds on all homogeneous basis tuples")
    return CheckResult(name, False, str(witness))


def _dims_cell(space) -> list:
    e, o = space.dims()
    return [e, o]


def cmd_dims(source: str, max_dim: int) -> Report:
    V = _jordan_source(source)
    section = Section(V.name)
    if V.dim > max_dim:
        section.notes.append(f"skipped: dim {V.dim} exceeds --max-dim {max_dim}")
        return Report(f"dims {source}", [section])
    summary = structure_summary(V)
    section.tables["operator_spaces"] = {
        label: _dims_cell(sp) for label, sp in summary.items()}
    section.checks.extend(inclusion_report(V))
    return Report(f"dims {source}", [section])


def _build(V: SuperAlgebra, construction: str):
    if construction == "kan":
        return kantor(V)
    if construction == "ko":
        return koecher(V)
    if construction == "kotilde":
        return koecher_tilde(V)
    if construction == "ti-inn":
        return tits(V, "inn")
    if construction == "ti-der":
        return tits(V, "der")
    raise ValueError(f"unknown construction {construction!r}")


def cmd_tkk(source: str, construction: str, max_dim: int) -> Report:
    V = _jordan_source(source)
    section = Section(V.name)
    report = Report(f"tkk {source} {construction}", [section])
    if V.dim > max_dim:
        section.notes.append(f"skipped: dim {V.dim} exceeds --max-dim {max_dim}")
        return report
    built = _build(V, construction)
    g = built.lie
    section.name = g.name
    section.tables["graded_dims"] = {
        f"{z},{p}": d for (z, p), d in sorted(graded_dims(g).items())}
    section.tables["degree_dims"] = {str(z): d
                                     for z, d in sorted(zdims(g).items())}
    ev, od = parity_dims(g)
    section.notes.append(f"total dim {g.dim} = ({ev}|{od})")
    section.checks.append(_witness_check("super_jacobi", check_super_jacobi(g)))
    section.checks.append(is_jordan_graded(g))
    if construction == "kan":
        gplus = sum(d for z, d in zdims(g).items() if z == 1)
        rel = "=" if gplus == V.dim else "!="
        section.notes.append(
            f"g+ dim {gplus} {rel} dim V = {V.dim}"
            + ("" if gplus == V.dim else " (top space strictly bigger)"))
    if construction == "ko" and g.dim <= max_dim:
        tower = lie_der_tower(g)
        section.tables["der_tower"] = {
            f"{shift},{parity}": [b["der"], b["inn"], b["out"]]
            for (shift, parity), b in sorted(tower.items())}
        section.notes.append(f"Out dims by shift: {out_dims(tower) or 0}")
    if construction in ("ti-inn", "ti-der"):
        d = construction.split("-")[1]
        section.checks.extend(check_propnu(V, d))
        section.checks.append(tits_roundtrip(V, d))
    if construction in ("kan", "ko"):
        if find_unit(V) is None:
            section.notes.append("unital-equivalence section skipped (no unit)")
        else:
            section.checks.extend(check_unital_equivalences(V))
    return report


def verify_section(V: SuperAlgebra, max_dim: int) -> Section:
    section = Section(V.name)
    if V.dim > max_dim:
        section.notes.append(f"skipped: dim {V.dim} exceeds --max-dim {max_dim}")
        return section
    checks = section.checks
    checks.append(_witness_check("supercommutative", check_supercommutative(V)))
    checks.append(_witness_check("jordan_identity", check_jordan_identity(V)))
    checks.append(_witness_check("operator_identity",
                                 check_commutator_identity(V)))
    checks.append(_witness_check("triple_symmetry", check_triple_symmetry(V)))
    checks.append(_witness_check("five_linear", check_five_linear(V)))
    checks.extend(inclusion_report(V))

    # str_w against the pair derivations, and against str for unital V
    sw, pd = str_w(V).dims(), pair_der(V).dims()
    checks.append(CheckResult("strw_matches_pair_der", sw == pd,
                              f"str_w dims {sw}, pair_der dims {pd}"))
    unit = find_unit(V)
    if unit is not None:
        ss = str_algebra(V).dims()
        checks.append(CheckResult("strw_matches_str", sw == ss,
                                  f"str_w dims {sw}, str dims {ss}"))

    ko = koecher(V)
    checks.append(_witness_check("super_jacobi_ko",
                                 check_super_jacobi(ko.lie)))
    section.tables["koecher_graded_dims"] = {
        f"{z},{p}": d for (z, p), d in sorted(graded_dims(ko.lie).items())}
    checks.append(j_roundtrip_check(V))
    checks.extend(koecher_inverse_check(ko.lie))
    checks.append(tits_roundtrip(V, "inn"))
    checks.extend(kantor_relations(V))

    kot = koecher_tilde(V)
    if kot.dim > max_dim:
        section.notes.append(
            f"derivation tower skipped: dim {kot.dim} exceeds --max-dim {max_dim}")
    else:
        od = out_dims(lie_der_tower(kot.lie))
        checks.append(CheckResult("out_kotilde_zero", od == {},
                                  "Out(Ko~(V)) = 0" if od == {}
                                  else f"Out(Ko~(V)) dims {od}"))

    if unit is None:
        # counterexample corner: expected non-theorems for non-unital V
        checks.append(kantor_koecher_comparison(V))
    checks.extend(check_unital_equivalences(V))
    if unit is None and ko.dim <= max_dim:
        od = out_dims(lie_der_tower(ko.lie))
        shifts = sorted(od)
        dims = ",".join(str(sum(od[s])) for s in shifts)
        parity = ("all even" if all(v[1] == 0 for v in od.values())
                  else "mixed parity")
        section.notes.append(
            f"Out(Ko) dims ({dims}) at shifts {tuple(shifts)}, {parity}")
    return section


def cmd_verify(source: str, max_dim: int, seed: int | None) -> Report:
    if source == "all":
        entries = list(jordan_entries().values())
        if seed is not None:
            random.Random(seed).shuffle(entries)  # results are order-independent
        sections = [verify_section(V, max_dim) for V in entries]
        sections.sort(key=lambda s: s.name)
        return Report("verify all", sections)
    V = _jordan_source(source)
    return Report(f"verify {source}", [verify_section(V, max_dim)])


def cmd_export(source: str, construction: str, out, max_dim: int) -> Report:
    V = _jordan_source(source)
    if V.dim > max_dim:
        raise ValueError(f"dim {V.dim} exceeds --max-dim {max_dim}")
    alg = V if construction == "self" else _build(V, construction).lie
    data = save_algebra(alg)
    if out is None:
        sys.stdout.write(data.decode())
    else:
        Path(out).write_bytes(data)
    section = Section(alg.name)
    section.notes.append(f"exported {alg.dim} basis elements"
                         + (f" to {out}" if out else " to stdout"))
    return Report(f"export {source} {construction}", [section])


def _add_shared_flags(parser):
    """Attach the flags accepted both before and after the subcommand."""
    # SUPPRESS so a subcommand parse never clobbers a flag given up front
    parser.add_argument("--format", choices=("human", "machine"),
                        default=argparse.SUPPRESS, help="report format")
    parser.add_argument("--max-dim", type=int, default=argparse.SUPPRESS,
                        help="skip work on algebras above this dimension")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="shuffle the processing order (results unaffected)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supertkk",
        description="structure algebras and TKK constructions over Q")
    _add_shared_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="structure algebra dimensions")
    p.add_argument("source")
    _add_shared_flags(p)
    p = sub.add_parser("tkk", help="build one TKK construction and check it")
    p.add_argument("source")
    p.add_argument("construction", choices=CONSTRUCTIONS[:-1])
    _add_shared_flags(p)
    p = sub.add_parser("verify", help="full check suite; 'all' for the catalog")
    p.add_argument("source")
    _add_shared_flags(p)
    p = sub.add_parser("export", help="write a constructed algebra to a file")
    p.add_argument("source")
    p.add_argument("construction", choices=CONSTRUCTIONS)
    p.add_argument("-o", "--output", default=None)
    _add_shared_flags(p)

    args = parser.parse_args(argv)
    args.format = getattr(args, "format", "human")
    args.max_dim = getattr(args, "max_dim", 64)
    args.seed = getattr(args, "seed", None)
    try:
        if args.command == "dims":
            report = cmd_dims(args.source, args.max_dim)
        elif args.command == "tkk":
            report = cmd_tkk(args.source, args.construction, args.max_dim)
        elif args.command == "verify":
            report = cmd_verify(args.source, args.max_dim, args.seed)
        else:
            report = cmd_export(args.source, args.construction, args.output,
                                args.max_dim)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not (args.command == "export" and args.output is None):
        text = (report_to_machine(report) if args.format == "machine"
                else report_to_human(report))
        print(text)
    if args.command == "verify":
        # exit status contract: nonzero iff at least one check fails
        return 0 if report.all_passed() else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
