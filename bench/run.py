#!/usr/bin/env python3
"""steadydim benchmark: time to verdict, one network at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  The loop is closed and single-threaded: one caller
analyses the next network only after the previous verdict.  Each
operation is an in-process ``steadydim.cli.main(["analyze", FILE, "--json",
"--seed", K])`` with stdout captured, so it crosses every module from the
parser to the JSON report.  K is derived from the workload seed.

Phases of a run:

1. set-up, measured in fresh interpreters (bench/probe.py): process
   start, importing steadydim and generating the workload, until the
   first network's ``.crn`` file is written; setup_s is the median of
   several probes;
2. warm-up: a few operations, untimed, then timed passes over the
   workload for ``--seconds``;
3. correctness: every report is compared byte for byte with the first
   report of its network, and each distinct report is checked by the
   oracle (bench/oracle.py) after the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` passes alternate between traced and untraced; the
traced ones give the per-layer metrics (bench/tracer.py) and the pair
gives the tracing overhead.  The spans are written to
``.bench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Recorder
from workloads import AD, ND, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
WARMUP_S = 2.0
RETRIES = 5  # `analyze --retries` default: samples before the symbolic fallback

# spans whose call count is reported
CALLS = [
    "netmodel.parse_network",
    "ratmat.rref",
    "ratmat.rank",
    "ratmat.kernel_basis",
    "ratmat.row_basis",
    "ratmat.left_kernel_basis",
    "ratmat.mul_vec",
    "cone.positive_kernel_vector",
    "mpoly.det",
    "mpoly.all_minors_zero",
    "mpoly.eval",
    "nondegen.generic_rank_test",
]
# spans whose self time is reported.  mpoly.det and mpoly.all_minors_zero
# make no calls on chain_scale, where their time would read 0 on every
# run; their time is reported within mpoly.self_s.
SELF = [
    "netmodel.parse_network",
    "netmodel.from_network",
    "ratmat.rref",
    "ratmat.rank",
    "ratmat.kernel_basis",
    "ratmat.row_basis",
    "ratmat.left_kernel_basis",
    "ratmat.mul_vec",
    "cone.positive_kernel_vector",
    "mpoly.eval",
    "nondegen.symbolic_jacobian_f",
    "nondegen.symbolic_jacobian_F",
    "nondegen.generic_rank_test",
    "cli.report_to_dict",
]
# layers whose total self time is reported (netmodel and cone totals equal
# the sums of their reported spans)
LAYER_TOTALS = ["ratmat", "mpoly", "nondegen", "cli"]
LAYERS = ["netmodel", "ratmat", "cone", "mpoly", "nondegen", "cli"]


def load_cli():
    """Import steadydim.cli from the checkout's src/ directory."""
    if not (SRC / "steadydim" / "cli.py").is_file():
        raise FileNotFoundError(f"no steadydim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from steadydim import cli

    return cli


def op_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**31


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter until bench/probe.py has its first input ready."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# -- the measured loop -----------------------------------------------------------


class Run:
    """Closed-loop passes over one workload, with every report kept for checking."""

    def __init__(self, cli, nets, paths, seed: int, recorder=None):
        self.cli = cli
        self.nets = nets
        self.argvs = [["analyze", str(p), "--json", "--seed", str(op_seed(seed, i))]
                      for i, p in enumerate(paths)]
        self.recorder = recorder
        self.reference: dict[int, tuple[object, str]] = {}  # first (exit code, stdout)
        self.plain: dict[int, list[float]] = defaultdict(list)  # untraced seconds
        self.traced_ops: dict[int, list[int]] = defaultdict(list)  # op ids of traced calls
        self.timed: list[tuple[int, bool]] = []  # (network, exit code 0 and same report)
        self._op = 0

    def _call(self, i: int, traced: bool) -> tuple[float, object, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                if traced:
                    rc = self.recorder.call(self._op, i, self.cli.main, self.argvs[i])
                else:
                    rc = self.cli.main(self.argvs[i])
            except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
                rc = repr(exc)
            dt = perf_counter() - t0
        return dt, rc, buf.getvalue()

    def op(self, i: int, traced: bool = False, timed: bool = True) -> None:
        dt, rc, out = self._call(i, traced)
        ref = self.reference.setdefault(i, (rc, out))
        if timed:
            self.timed.append((i, rc == 0 and ref == (rc, out)))
            if traced:
                self.traced_ops[i].append(self._op)
            else:
                self.plain[i].append(dt)
        self._op += 1

    def warm_up(self, seconds: float) -> None:
        t0 = perf_counter()
        for i in range(len(self.nets)):
            self.op(i, timed=False)
            if perf_counter() - t0 >= seconds:
                break

    def measure(self, seconds: float) -> None:
        """Passes over the workload until ``seconds`` have passed and every network
        has been timed (both traced and untraced when tracing); the run stops
        after the operation that crosses the deadline.  When tracing, even
        passes are traced and odd ones are not."""
        deadline = perf_counter() + seconds

        def one_pass(traced: bool) -> bool:
            for i in range(len(self.nets)):
                self.op(i, traced=traced)
                if perf_counter() >= deadline and self._covered():
                    return True
            return False

        pass_no = 0
        finished = False
        while not finished:
            traced = self.recorder is not None and pass_no % 2 == 0
            if traced:
                self.recorder.install()
            try:
                finished = one_pass(traced)
            finally:
                if traced:
                    self.recorder.uninstall()
                gc.collect()
            pass_no += 1

    def _covered(self) -> bool:
        n = len(self.nets)
        if len(self.plain) < n:
            return False
        return self.recorder is None or len(self.traced_ops) == n


# -- correctness ---------------------------------------------------------------------


def check_reports(run: Run, seed: int) -> tuple[list[dict], set[int]]:
    """Parse every reference report and run the oracle; return reports and bad indices."""
    from oracle import NetworkOracle

    reports, bad = [], set()
    for i, net in enumerate(run.nets):
        rc, out = run.reference[i]
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc!r}")
            report = json.loads(out)
            problems = NetworkOracle(net).check(report, random.Random(f"oracle:{seed}:{i}"))
        except (ValueError, KeyError, TypeError) as exc:
            report, problems = None, [f"unreadable report: {exc!r}"]
        if problems:
            bad.add(i)
            print(f"oracle: {net.name}: {'; '.join(problems)}", file=sys.stderr)
        reports.append(report)
    return reports, bad


def _bits(x: str) -> int:
    f = Fraction(x)
    return max(abs(f.numerator).bit_length(), f.denominator.bit_length())


def report_counters(reports: list[dict], outputs: list[str]) -> dict[str, float]:
    """Counters read from one pass of reports (exact; they repeat run to run)."""
    tests = [r[t] for r in reports if r is not None for t in ("f_test", "F_test")]
    decided_first = sum(1 for v in tests if v["status"] == ND and v["samples_tried"] <= RETRIES)
    witness_bits = [
        _bits(x) for v in tests for key in ("witness_u", "witness_h", "witness_w") for x in v.get(key) or ()
    ]
    return {
        "cert_lines": sum(len(v["certificate"] or ()) for v in tests),
        "nondegen.samples": sum(v["samples_tried"] for v in tests),
        "nondegen.certificates": sum(1 for v in tests if v["status"] == AD),
        "nondegen.hunts": sum(1 for v in tests if v["samples_tried"] > RETRIES),
        # base: rank tests run, two per network
        "nondegen.first_round_hit_ratio": decided_first / len(tests) if tests else 0.0,
        "nondegen.witness_bits.max": max(witness_bits, default=0),
        "cli.json_bytes": sum(len(o.encode()) for o in outputs),
    }


# -- metrics --------------------------------------------------------------------------


def _median_sum(per_net: dict[int, list[float]]) -> float:
    return sum(statistics.median(v) for v in per_net.values())


def end_to_end(run: Run, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    medians = [statistics.median(run.plain[i]) for i in range(len(run.nets))]
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(medians) / sum(medians), "1/s"),
        "verdict_s.p50": (statistics.median(medians), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(run: Run, counters: dict[str, float]) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-pass layer metrics: per network, the median over its traced calls, summed.

    Also returns the per-pass self seconds of every span name and layer, for
    the human-readable summary.
    """
    profiles = {op: (dur, selfs, calls) for op, dur, selfs, calls in run.recorder.op_profiles()}
    op_s: dict[int, list[float]] = defaultdict(list)
    self_s: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    calls: dict[str, int] = defaultdict(int)
    for i, ops in run.traced_ops.items():
        names = set()
        for op in ops:
            names.update(profiles[op][1])
        for k, op in enumerate(ops):
            dur, selfs, ncalls = profiles[op]
            op_s[i].append(dur)
            by_layer = defaultdict(float)
            for name in names:
                self_s[name][i].append(selfs.get(name, 0.0))
                by_layer[name.split(".")[0]] += selfs.get(name, 0.0)
            for layer in LAYERS:
                self_s[layer][i].append(by_layer[layer])
            if k == 0:
                for name, c in ncalls.items():
                    calls[name] += c
    per_pass = {name: _median_sum(v) for name, v in self_s.items()}
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SELF + LAYER_TOTALS:
        out[f"{name}.self_s"] = (per_pass.get(name, 0.0), "s")
    traced = _median_sum(op_s)
    out["trace.op_s"] = (traced, "s")
    out["trace.overhead"] = (traced / _median_sum(run.plain) - 1, "ratio")
    units = {"cert_lines": "lines", "nondegen.first_round_hit_ratio": "ratio",
             "nondegen.witness_bits.max": "bits", "cli.json_bytes": "bytes"}
    for key, value in counters.items():
        out[key] = (value, units.get(key, "count"))
    return out, per_pass


def _summary(workload: str, run: Run, metrics: dict, per_pass: dict | None) -> None:
    n = len(run.nets)
    samples = sum(len(v) for v in run.plain.values())
    print(f"{workload}: {n} networks (verdict_s.p50 is over their {n} medians), "
          f"{len(run.timed)} timed operations ({samples} untraced)", file=sys.stderr)
    if n >= 100 and per_pass is None:
        medians = sorted(statistics.median(v) for v in run.plain.values())
        p90 = statistics.quantiles(medians, n=10)[-1]
        print(f"  verdict_s.p90 = {p90:.6f} s over {n} per-network medians", file=sys.stderr)
    if per_pass is not None:
        total = metrics["trace.op_s"][0]
        print("  self time per pass, share of traced operation time:", file=sys.stderr)
        for name in LAYERS + sorted(k for k in per_pass if "." in k):
            print(f"    {name:32s} {per_pass.get(name, 0.0):10.6f} s {per_pass.get(name, 0.0) / total:7.1%}",
                  file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadydim time-to-verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    try:
        cli = load_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    setup = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    nets = WORKLOADS[args.workload].build(args.seed, False)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        paths = write_inputs(nets, Path(tmp))
        run = Run(cli, nets, paths, args.seed, Recorder() if args.trace else None)
        run.warm_up(WARMUP_S)
        gc.collect()
        run.measure(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reports, bad = check_reports(run, args.seed)
    failed = sum(1 for i, ok in run.timed if not ok or i in bad)
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        run.recorder.write(out_dir / f"spans-{args.workload}.jsonl")
        counters = report_counters(reports, [run.reference[i][1] for i in range(len(nets))])
        metrics, per_pass = per_layer(run, counters)
    else:
        metrics, per_pass = end_to_end(run, statistics.median(setup), rss_mb), None
    _summary(args.workload, run, metrics, per_pass)
    result = {
        "correct": failed == 0 and not bad,
        "attempted": len(run.timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
