"""The three workloads: their inputs, the timed op, and the golden check.

Every op decodes a fresh algebra from bytes prepared during set-up.  The
structure caches in supertkk key on object identity, so repeated calls on one
object would time cache hits that no command-line user gets.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Called through their modules, so that the tracer's rebinding reaches them.
from supertkk import catalog, cli, superspace, tkk

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The Jordan catalog up to dim 6.  full_matrix:1,2 and :2,1 (dim 9) take
# 65-70 s each and would outweigh the rest of a pass.
JORDAN_SOURCES = (
    "j19", "kacK", "trunc_poly:4", "trunc_poly:5", "trunc_poly:6",
    "trunc_poly:7", "full_matrix:1,1", "form:1,2", "form:2,2", "form:3,0",
    "dt:2", "dt:1/2",
)

# The Lie catalog up to dim 32; w:4 (337 s) and h:6 (211 s) are left out.
LIE_SOURCES = (
    "gl:1,1", "gl:2,1", "gl:2,2", "sl:2,1", "sl:2,2", "psl:2,2", "pgl:2,2",
    "pe:2", "pe:3", "spe:3", "q:2", "q:3", "sq:3", "psq:3", "pq:2",
    "lambda:2", "lambda:4", "w:2", "w:3", "htilde:4", "htilde:5", "h:4",
    "h:5", "c_htilde:4", "c_htilde_lambda:4",
)

CONSTRUCTIONS = ("kan", "ko", "kotilde", "ti-inn", "ti-der")

VERIFY_MAX_DIM = 64  # the command line's default --max-dim


@dataclass(frozen=True)
class Op:
    key: str             # golden key
    data: bytes          # the encoded input algebra
    construction: str = ""


def _build(V, construction):
    """The construction named as on the command line (cli._build is private)."""
    if construction == "kan":
        return tkk.kantor(V)
    if construction == "ko":
        return tkk.koecher(V)
    if construction == "kotilde":
        return tkk.koecher_tilde(V)
    return tkk.tits(V, construction.split("-")[1])


def _dims(g) -> list:
    return [[list(k), d] for k, d in sorted(superspace.graded_dims(g).items())]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def deform(V, rng: random.Random):
    """V in a basis changed by a unit upper-triangular integer matrix P that
    keeps each parity block: f_c = e_c + sum_{r<c} P[r][c] e_r.

    P^-1 is integral too, so the new constants keep V's denominators while
    the sparse +-1 tables become dense.  The result goes through
    make_algebra(kind="jordan") with its checks on.
    """
    n = V.dim
    P = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c):
            if V.parities[r] == V.parities[c]:
                P[r][c] = Fraction(rng.choice((-1, 1)))
    basis = [tuple(P[r][c] for r in range(n)) for c in range(n)]
    products = []
    for i in range(n):
        for j in range(n):
            w = V.product(basis[i], basis[j])
            x = [Fraction(0)] * n  # back-substitution: P x = w
            for r in reversed(range(n)):
                x[r] = w[r] - sum(P[r][c] * x[c] for c in range(r + 1, n))
            products.extend((i, j, k, x[k]) for k in range(n) if x[k])
    return superspace.make_algebra(V.parities, products, name=V.name,
                                   kind="jordan", metadata=V.metadata)


def prepare(workload: str, seed: int) -> list:
    """Catalog builds, input generation and encoding: the set-up of a run."""
    if workload in ("jordan-verify", "lie-fingerprint"):
        sources = JORDAN_SOURCES if workload == "jordan-verify" else LIE_SOURCES
        return [Op(s, catalog.save_algebra(catalog.resolve(s))) for s in sources]
    if workload == "tkk-export-dense":
        rng = random.Random(seed)
        ops = []
        for s in JORDAN_SOURCES:
            data = catalog.save_algebra(deform(catalog.resolve(s), rng))
            ops.extend(Op(f"{s}|{c}", data, c) for c in CONSTRUCTIONS)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode() + b"\0" + op.data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the timed op and its check


def run(workload: str, op: Op):
    """One op; returns what check() compares against the golden."""
    if workload == "jordan-verify":
        V = catalog.load_algebra(op.data)
        section = cli.verify_section(V, VERIFY_MAX_DIM)
        text = cli.report_to_machine(cli.Report("verify all", [section]))
        return section, text
    if workload == "lie-fingerprint":
        return tkk.fingerprint(catalog.load_algebra(op.data))
    g = _build(catalog.load_algebra(op.data), op.construction).lie
    return g, catalog.load_algebra(catalog.save_algebra(g))


def check(workload: str, result, golden) -> bool:
    if workload == "jordan-verify":
        section, text = result
        return (_sha(text) == golden
                and all(c.passed for c in section.checks if c.kind == "check"))
    if workload == "lie-fingerprint":
        return json.loads(json.dumps(result)) == golden
    g, back = result
    return (_dims(g) == golden and back.table == g.table
            and back.parities == g.parities and back.zdegrees == g.zdegrees)


def expected(workload: str, op: Op):
    """The golden output, computed from the undeformed catalog algebra."""
    if workload == "jordan-verify":
        return _sha(run(workload, op)[1])
    if workload == "lie-fingerprint":
        return json.loads(json.dumps(run(workload, op)))
    source = op.key.split("|")[0]
    return _dims(_build(catalog.resolve(source), op.construction).lie)


def load_golden(workload: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[workload]


def perturbed(op: Op) -> Op:
    """The op with its first structure constant raised by one."""
    doc = json.loads(op.data)
    entry = doc["products"][0]
    entry["coeff"] = str(Fraction(entry["coeff"]) + 1)
    return Op(op.key, json.dumps(doc).encode(), op.construction)
