"""Outside-in tracer: wraps public supertkk functions from outside the package.

A wrapped function records one span per call (name, start, end, parent span,
op id) and adds to per-function counters.  `from .exact import kernel_sparse`
copies the binding into the importing module, so a function is rebound in
every `supertkk` module that holds it, not only in the module defining it.
`Subspace` is traced through its `__init__`, where the row reduction runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter

# (module, attribute) of every traced function, in report order
TARGETS = (
    ("exact", "kernel_sparse"), ("exact", "solve"), ("exact", "Subspace"),
    ("superspace", "make_algebra"), ("superspace", "check_super_jacobi"),
    ("superspace", "center"), ("superspace", "derived"),
    ("jordan", "check_five_linear"), ("jordan", "check_jordan_identity"),
    ("jordan", "check_commutator_identity"), ("jordan", "check_triple_symmetry"),
    ("structure", "derivation_kernel"), ("structure", "pair_inn"),
    ("structure", "pair_der"), ("structure", "str_w"),
    ("structure", "inclusion_report"), ("structure", "check_pair_axioms"),
    ("tkk", "koecher"), ("tkk", "kantor"), ("tkk", "tits"),
    ("tkk", "kantor_relations"), ("tkk", "check_unital_equivalences"),
    ("tkk", "koecher_inverse_check"), ("tkk", "lie_der_tower"),
    ("tkk", "j_functor"),
    ("catalog", "save_algebra"), ("catalog", "load_algebra"),
    ("catalog", "resolve"),
    ("cli", "verify_section"), ("cli", "report_to_machine"),
)

# kernel_sparse switches to its modular path past this size (exact.py)
MODULAR_CELLS = 20000
MODULAR_MIN_COLS = 32

_MARK = "_perfbench_wrapped"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "supertkk" or name.startswith("supertkk."))]


def _primitive_key(row: dict) -> tuple:
    """Sorted primitive integer form of a sparse rational row, sign fixed by
    its lowest column, so that proportional rows share one key."""
    items = sorted((c, Fraction(v)) for c, v in row.items() if v)
    if not items:
        return ()
    den = 1
    for _, v in items:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [(c, int(v * den)) for c, v in items]
    g = 0
    for _, v in ints:
        g = gcd(g, v)
    g = -g if ints[0][1] < 0 else g
    return tuple((c, v // g) for c, v in ints)


class Tracer:
    """Spans and counters for the TARGETS; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list = []      # (span id, name, start, end, parent id, op id)
        self.stats = {f"{m}.{n}": dict(calls=0, self_s=0.0, errors=0)
                      for m, n in TARGETS}
        self.stats["exact.kernel_sparse"].update(cells=0, nnz=0, large_calls=0)
        self.stats["catalog.save_algebra"]["bytes"] = 0
        self.op_id = None
        self._stack: list = []     # [span id, time covered by child spans]
        self._restore: list = []   # (owner, attribute, original)
        structure = importlib.import_module("supertkk.structure")
        self.lru = [v for v in vars(structure).values() if hasattr(v, "cache_info")]
        self._lru_start = self._lru_end = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        on_args = self._kernel_args if name == "exact.kernel_sparse" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args = on_args(stats, *args)
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats["errors"] += 1
                raise
            finally:
                end = perf_counter()
                _, child = stack.pop()
                stats["calls"] += 1
                stats["self_s"] += (end - start) - child
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, name, start, end, parent, self.op_id))
            if name == "catalog.save_algebra":
                stats["bytes"] += len(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    @staticmethod
    def _kernel_args(stats, rows, ncols, *rest):
        rows = list(rows)
        stats["cells"] += len(rows) * ncols
        stats["nnz"] += sum(len(r) for r in rows)
        # kernel_sparse drops zero and proportional rows before it decides;
        # deduplicating can only shrink the system, so small ones skip it
        if len(rows) * ncols > MODULAR_CELLS and ncols >= MODULAR_MIN_COLS:
            distinct = {k for k in map(_primitive_key, rows) if k}
            if len(distinct) * ncols > MODULAR_CELLS:
                stats["large_calls"] += 1
        return (rows, ncols, *rest)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            orig = getattr(importlib.import_module(f"supertkk.{mod_name}"), attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                self._restore.append((orig, "__init__", init))
                setattr(orig, "__init__", self._wrap(name, init))
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        self._lru_start = [f.cache_info() for f in self.lru]

    def uninstall(self):
        self._lru_end = [f.cache_info() for f in self.lru]
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for name, st in self.stats.items():
            for key, value in st.items():
                unit = "s" if key == "self_s" else ("B" if key == "bytes" else "count")
                out[f"{name}.{key}"] = (value, unit)
        hits = sum(e.hits - s.hits for s, e in zip(self._lru_start, self._lru_end))
        misses = sum(e.misses - s.misses
                     for s, e in zip(self._lru_start, self._lru_end))
        entries = sum(e.currsize - s.currsize
                      for s, e in zip(self._lru_start, self._lru_end))
        lookups = hits + misses
        out["structure.lru.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        out["structure.lru.lookups"] = (lookups, "count")
        out["structure.lru.entries"] = (entries, "count")
        out["tkk.koecher.calls_per_op"] = (
            self.stats["tkk.koecher"]["calls"] / ops, "count/op")
        return out


def find_wrappers() -> list:
    """Names of traced wrappers still bound anywhere in the package."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and getattr(
                    value.__dict__.get("__init__"), _MARK, False):
                found.append(f"{mod.__name__}.{key}.__init__")
    return found
