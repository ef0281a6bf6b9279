#!/usr/bin/env python3
"""Outside-in benchmark of supertkk: one process, one thread, closed loop.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; supertkk is imported from ./src.
The workloads (workloads.py):

  jordan-verify     verify_section + report_to_machine on the Jordan catalog
                    up to dim 6; the only workload running the identity checks.
  lie-fingerprint   load_algebra + fingerprint on the Lie catalog up to dim 32;
                    dominated by the exact kernel layer.
  tkk-export-dense  one Kan/Ko/Ko~/Ti construction of a seeded dense basis
                    change of a Jordan catalog algebra, then save and reload.

A run makes seconds // NOMINAL_PASS_S passes (at least one) over the
workload's ops, each pass in an order drawn from the seed, after an untimed
warm-up on the first input.  Every op is checked against golden.json; a
perturbed copy of the first input is run last as a negative control and must
be judged failed.  Op times are wall times scaled to the host's reference
speed (HostSpeed); the raw wall figures are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the passes traced,
then again untraced, and prints the per-layer metrics of the traced passes
(self times there are raw wall time, including the ~1.5% that the speed
sampler takes) and trace.overhead_ratio; the spans go
to perfbench/out/.  Lines starting with "#" describe the run; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("jordan-verify", "lie-fingerprint", "tkk-export-dense")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10   # samples required beyond the reported tail percentile

# One pass over each workload's ops, in reference-speed seconds, at the
# commit that added the benchmark.  Deriving the pass count from these
# constants, not from the clock, times every commit on the same ops and the
# same number of samples, so that the tail percentile means the same thing.
NOMINAL_PASS_S = {"jordan-verify": 21.0, "lie-fingerprint": 6.0,
                  "tkk-export-dense": 17.0}


class HostSpeed:
    """Scales wall times to the host's reference speed.

    On the 2 shared cores the benchmark was defined on, the same
    pure-Python work runs at one of two speeds about 1.7x apart, and the
    speed switches every few seconds, also inside one op.  While armed, a
    SIGALRM handler times a fixed job of rational and dict arithmetic (the
    kind of work supertkk does) every SAMPLE_INTERVAL_S.  A timed call's
    wall time, less the time spent in the handler, is scaled by REF_JOB_S
    over the mean job time (10% trimmed at each end) seen from WINDOW_S
    before the call to WINDOW_S after it.  Over repeated jordan-verify
    passes, sampling inside the ops cut the coefficient of variation from 4%
    (scaling by job times taken around each op only) to 1%.
    """

    REF_JOB_S = 0.0003  # the job's time at the reference speed
    SAMPLE_INTERVAL_S = 0.02
    WINDOW_S = 0.25

    def __init__(self):
        self.samples: list = []  # (perf_counter after the job, job seconds)
        self.spent = 0.0
        self._old_handler = None

    @staticmethod
    def job() -> float:
        start = perf_counter()
        acc = Fraction(0)
        cells: dict = {}
        for i in range(1, 50):
            acc += Fraction(1, i % 50 + 1) * Fraction(i % 7 + 1, 3)
            cells[i % 97] = cells.get(i % 97, 0) + i
        return perf_counter() - start

    def _tick(self, signum, frame):
        elapsed = self.job()
        self.samples.append((perf_counter(), elapsed))
        self.spent += elapsed

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S,
                         self.SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def time(self, fn) -> tuple:
        """(start, end, wall seconds less the handler's) of fn()."""
        spent = self.spent
        start = perf_counter()
        fn()
        end = perf_counter()
        return start, end, end - start - (self.spent - spent)

    def settle(self):
        """Wait WINDOW_S, so that the samples after the last call come in."""
        until = perf_counter() + self.WINDOW_S
        while perf_counter() < until:
            pass

    def scaled(self, timing) -> float:
        """A time() result at reference speed."""
        start, end, elapsed = timing
        jobs = sorted(j for t, j in self.samples
                      if start - self.WINDOW_S <= t <= end + self.WINDOW_S)
        cut = len(jobs) // 10
        return elapsed * self.REF_JOB_S / statistics.mean(jobs[cut:len(jobs) - cut])


def setup(workload: str, seed: int) -> tuple:
    """Import supertkk and build the run's inputs.  Returns the ops and the
    set-up time, raw and at reference speed."""
    ops = []

    def build():
        import workloads
        ops.extend(workloads.prepare(workload, seed))

    with HostSpeed() as speed:
        timing = speed.time(build)
        speed.settle()
    import supertkk
    if not Path(supertkk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"supertkk was imported from {supertkk.__file__}, "
                         f"not from {SRC}")
    return ops, timing[2], speed.scaled(timing)


def setup_in_child(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    """Runs ops, checks each against its golden, and counts failures."""

    def __init__(self, workloads, workload, ops, speed):
        self.w = workloads
        self.workload = workload
        self.ops = ops
        self.golden = workloads.load_golden(workload)
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def one(self, op) -> tuple:
        """(timing, error): timing as from HostSpeed.time; error is None
        when the op matched its golden.  An exception fails the op, not the
        run."""
        out = {}

        def call():
            try:
                out["result"] = self.w.run(self.workload, op)
            except Exception as err:
                out["error"] = f"{type(err).__name__}: {err}"

        timing = self.speed.time(call)
        error = out.get("error")
        if error is None and not self.w.check(self.workload, out["result"],
                                              self.golden[op.key]):
            error = "output differs from the golden"
        return timing, error

    def passes(self, orders, tracer=None) -> list:
        """Runs the ops once per order; returns their timings."""
        timings = []
        for order in orders:
            for idx in order:
                if tracer is not None:
                    tracer.op_id = self.attempted
                timing, error = self.one(self.ops[idx])
                timings.append(timing)
                self.attempted += 1
                if error is not None:
                    self.failed += 1
                    self.errors.append(f"{self.ops[idx].key}: {error}")
        return timings


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it."""
    s = sorted(times)
    rank = max(1, len(s) - TAIL_BEYOND)
    return s[rank - 1], 100.0 * rank / len(s)


def run_metadata() -> dict:
    """What a result must be compared with: never across scalar backends."""
    import supertkk
    h = hashlib.sha256()
    lines = 0
    for f in sorted((SRC / "supertkk").glob("*.py")):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # a checkout without .git has no sha; src_sha256 stays
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref_file = ROOT / ".git" / sha[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
    scalar = type(supertkk.Q(1))
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "scalar_backend": f"{scalar.__module__}.{scalar.__qualname__}",
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "supertkk" / "__init__.py").is_file():
        print(f"error: no supertkk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ops, raw_setup, own_setup = setup(args.workload, args.seed)
    import workloads
    digest = workloads.digest(ops)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "raw_setup_s": raw_setup,
                          "digest": digest}))
        return 0

    children = [setup_in_child(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES - 1)]
    setup_samples = [own_setup] + [c["setup_s"] for c in children]
    raw_setup_samples = [raw_setup] + [c["raw_setup_s"] for c in children]
    deterministic = all(c["digest"] == digest for c in children)

    rng = random.Random(f"order:{args.seed}")
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    orders = [rng.sample(range(len(ops)), len(ops)) for _ in range(passes)]
    speed = HostSpeed()
    runner = Runner(workloads, args.workload, ops, speed)

    from tracer import Tracer, find_wrappers
    with speed:
        # untimed warm-up on the first input: the lazy imports inside
        # supertkk happen once per process and would land on a random op
        warmup_errors = []
        for op in ops:
            if op.data == ops[0].data:
                _, error = runner.one(op)
                if error is not None:
                    warmup_errors.append(f"{op.key} (warm-up): {error}")
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.passes(orders, tracer)
            finally:
                tracer.uninstall()
        leftover = find_wrappers()
        untraced = runner.passes(orders)
        leftover += find_wrappers()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        control = workloads.perturbed(ops[0])
        _, control_error = runner.one(control)
        speed.settle()

    correct = (runner.failed == 0 and not warmup_errors and deterministic
               and control_error is not None and not leftover)
    raw = [t[2] for t in untraced]
    times = [speed.scaled(t) for t in untraced]
    ops_per_s = len(times) / sum(times)
    tail_value, tail_pct = tail(times)

    meta = run_metadata()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, input_digest=digest)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# {passes} pass(es), {len(times)} ops; op_tail_s is "
          f"p{tail_pct:.1f} of {len(times)} samples; op_max_s {max(times):.4f}")
    print(f"# raw wall: ops_per_s {len(raw) / sum(raw):.6g}, op_p50_s "
          f"{statistics.median(raw):.6g}, op_tail_s {tail(raw)[0]:.6g}, "
          f"setup_s {statistics.median(raw_setup_samples):.6g}; host slower "
          f"than reference by {sum(raw) / sum(times):.3f}x")
    print(f"# failed_op_ratio {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    print(f"# negative control ({control.key}, perturbed): "
          + (f"judged failed, as required ({control_error})"
             if control_error is not None else "NOT judged failed"))
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)};"
          f" inputs byte-identical across set-ups: {deterministic}")
    if leftover:
        print(f"# tracer wrappers left installed: {leftover}")
    for line in (warmup_errors + runner.errors)[:20]:
        print(f"# failed op {line}")

    if args.trace:
        layer = tracer.metrics(len(traced))
        traced_ops_per_s = len(traced) / sum(speed.scaled(t) for t in traced)
        layer["trace.overhead_ratio"] = (traced_ops_per_s / ops_per_s, "ratio")
        top = sorted(((v, k) for k, (v, _) in layer.items()
                      if k.endswith(".self_s")), reverse=True)[:6]
        print("# top self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"# {len(tracer.spans)} spans (id, name, start, end, parent, op)"
              f" in {spans_path.relative_to(ROOT)}")
        metrics = {k: metric(v, u) for k, (v, u) in layer.items()}
    else:
        metrics = {
            "ops_per_s": metric(ops_per_s, "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "op_tail_s": metric(tail_value, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
        }
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
