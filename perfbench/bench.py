"""The benchmark itself: set-up probes, timed passes, the traced run, checks and
output.  Imported by run.py once robbins is importable from the checkout.

Output: human-readable lines, then one `report {...}` JSON line with every
metric, its sample count, the failures and the environment, then the result
line, always last:

    {"correct": true, "attempted": 3000, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing off;
with --trace 1 they are the per-layer ones (PER_LAYER) from a separate run that
also times an untraced pass, so the tracing overhead shows.  The names and
units of both sets are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np
import scipy

import robbins
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
SETUP_PROBES = 3

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Spans of the traced run, keyed on (module, function) inside the package.
SPAN_LABELS = {
    ("simulation", "reproduce_table"): "simulation.call",
    ("simulation", "run_plan"): "simulation.call",
    ("simulation", "_map_chunks"): "simulation.pool",
    ("simulation", "_bisect_lower_flat"): "simulation.solve",
    ("simulation", "_bisect_upper_flat"): "simulation.solve",
    ("simulation", "worker"): "simulation.scan",        # closed-form chunk kernels, draws included
    ("simulation", "scan_worker"): "simulation.scan",   # level-set gather/scan
    ("simulation", "gen_worker"): "simulation.gen_chunk",
    ("simulation", "replication_rng"): "simulation.rng",
    ("simulation", "_tally"): "simulation.tally",
    ("engine", "verify_ville_inequality"): "engine.verify_ville_inequality",
    ("normal", "path"): "engine.ville_path",
    ("bernoulli", "path"): "engine.ville_path",
    ("engine", "concave_level_set"): "engine.level_set",
    ("engine", "quadrature_log_mixture"): "engine.quadrature",
    ("normal", "fn"): "engine.loglik",
    ("bernoulli", "fn"): "engine.loglik",
    ("two_bernoulli", "fn"): "engine.loglik",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    monte_carlo: bool
    make_inputs: Callable       # (seed, smoke) -> calls or MonitorInputs

    def ops(self, inputs) -> int:
        if self.monte_carlo:
            return sum(c.ops for c in inputs)
        return len(inputs.requests)

    def run_pass(self, inputs, threads: int):
        if self.monte_carlo:
            return wl.run_mc_pass(inputs, threads)
        return wl.run_monitor_pass(inputs)

    def latencies(self, passes) -> list:
        """Seconds per request: per public call in the Monte Carlo workloads,
        per interval + monitor update in monitor-online."""
        if self.monte_carlo:
            return [t for p in passes for t in p.times]
        return [t for p in passes for t in (p.rule_time + p.update_time)]

    def failed_ops(self, inputs, passes, pinned: dict, seed: int, smoke: bool):
        """(failed ops, first reasons).  Pinned outputs apply to the default
        seed only; every other seed gets the seed-free checks."""
        if self.monte_carlo:
            want = None
            if seed == wl.DEFAULT_SEED:
                missing = [c.id for c in inputs if c.id not in pinned["digests"]]
                if missing:
                    sys.exit(f"error: {PINNED.name} has no digest for {missing}; "
                             "regenerate it with --pin")
                want = pinned["digests"]
            fails = wl.mc_failures(inputs, passes, want)
            keys = {(p, c) for p, c, _ in fails}
            failed = sum(inputs[c].ops for _, c in keys)
            reasons = [f"pass {p}: {inputs[c].id}: {r}" for p, c, r in fails]
        else:
            want = None
            if seed == wl.DEFAULT_SEED:
                want = pinned["intervals"]["smoke" if smoke else "full"]
            fails = wl.monitor_failures(inputs, passes, want)
            failed = len({(p, i) for p, i, _ in fails})
            reasons = [f"pass {p}: request {i}: {r}" for p, i, r in fails]
        return failed, reasons[:10]


# Why each workload was chosen, and what it loads and bypasses: BENCHMARK.json
# and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("table-levelset", True, wl.table_levelset_calls),
    Workload("mc-closedform", True, wl.mc_closedform_calls),
    Workload("monitor-online", False, wl.monitor_inputs),
)}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(threads: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc(), "threads": threads, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "robbins": robbins.__version__,
            "commit": _git_commit(), "src_sha256": src.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def prepare(workload: Workload, seed: int, threads: int, smoke: bool):
    """Generate the inputs and warm up: one pass over the smoke-size inputs of
    the same workload, so lazy imports and first-call costs are paid."""
    inputs = workload.make_inputs(seed, smoke)
    workload.run_pass(workload.make_inputs(seed, True), threads)
    return inputs


def measure_setup(workload: Workload, seed: int, smoke: bool, probes: int) -> list:
    """Seconds from starting a fresh interpreter to 'ready': import robbins,
    generate the inputs and warm up (prepare), in `probes` child processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload.name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}): {' '.join(cmd)}")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _metric(value, unit, n=None) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def _metrics(values: dict, declared: dict, counts: Optional[dict] = None) -> dict:
    """Metrics in the order BENCHMARK.json declares them, each with its unit
    and, where given, its sample count.  Every computed value must have a
    declared name, and every declared name a value."""
    unknown, missing = set(values) - set(declared), set(declared) - set(values)
    if unknown or missing:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}; "
                           f"declared but not computed: {sorted(missing)}")
    counts = counts or {}
    return {name: _metric(values[name], unit, counts.get(name))
            for name, unit in declared.items()}


class PeakRss:
    """Peak resident memory in MB of this process while the `with` block runs.
    When the block raises the kernel's high-water mark (ru_maxrss), that mark
    is the peak, exactly.  Otherwise the mark still holds an earlier peak (the
    imports or set-up), and the value is the larger resident size at the
    block's start and end: a lower bound of its peak, close to it when the
    block allocates little."""

    @staticmethod
    def _rss_mb() -> float:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20

    def __enter__(self):
        self._mark = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._start = self._rss_mb()
        return self

    def __exit__(self, *exc):
        mark = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.mb = mark / 1024.0 if mark > self._mark else max(self._start, self._rss_mb())
        return False


def untraced_run(workload: Workload, seed: int, seconds: float, threads: int,
                 smoke: bool, pinned: dict) -> dict:
    """Timed passes over the same inputs, tracing off, while the next pass,
    taken to last as long as the last one, still fits in `seconds` (at least
    one pass).  So the timed section stays within `seconds`: at 30 s
    table-levelset's ~18 s pass runs once."""
    setup = measure_setup(workload, seed, smoke, 1 if smoke else SETUP_PROBES)
    inputs = prepare(workload, seed, threads, smoke)
    passes = []
    with PeakRss() as rss:
        t0 = perf_counter()
        while True:
            passes.append(workload.run_pass(inputs, threads))
            if perf_counter() - t0 + passes[-1].wall > seconds:
                break
    walls = [p.wall for p in passes]
    lat = np.asarray(workload.latencies(passes))
    attempted = workload.ops(inputs) * len(passes)
    failed, reasons = workload.failed_ops(inputs, passes, pinned, seed, smoke)
    values = {
        "setup_s": statistics.median(setup),
        # The mean pass: on small shared VMs the speed of the same code drifts
        # in phases of seconds, which the mean averages better than the
        # median of a few passes.
        "wall_s": sum(walls) / len(walls),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": 1e3 * np.percentile(lat, 50),
        "op_p99_ms": 1e3 * np.percentile(lat, 99),
        "peak_rss_mb": rss.mb,
    }
    counts = {"setup_s": len(setup), "wall_s": len(walls), "ops_per_s": attempted,
              "op_p50_ms": lat.size, "op_p99_ms": lat.size}
    metrics = _metrics(values, END_TO_END, counts)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": reasons, "passes": len(passes),
            "fail_frac": failed / attempted}


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def traced_run(workload: Workload, seed: int, threads: int, smoke: bool,
               pinned: dict) -> dict:
    """Untraced pass, then (Monte Carlo) a threads=1 pass, then a traced pass
    with the profile hook (and tracemalloc for the Monte Carlo calls)."""
    inputs = prepare(workload, seed, threads, smoke)
    values = dict.fromkeys(PER_LAYER, 0.0)
    base = workload.run_pass(inputs, threads)
    passes = [base]
    tracer = Tracer(os.path.dirname(robbins.__file__), SPAN_LABELS)
    if workload.monte_carlo:
        single = wl.run_mc_pass(inputs, 1)
        passes.append(single)
        tracemalloc.start()
        try:
            with tracer:
                traced = wl.run_mc_pass(inputs, threads, measure_alloc=True)
        finally:
            tracemalloc.stop()
        values.update({f"simulation.{k}": v for k, v in wl.replay_streams(inputs, seed).items()})
        values["simulation.parallel_eff"] = single.wall / (threads * base.wall)
        values["simulation.threads"] = threads
        values["simulation.peak_alloc_mb"] = max(traced.peak_alloc) / 2 ** 20
        t0 = perf_counter()
        cells = [c for r in base.results if isinstance(r, robbins.TableReport)
                 for c in robbins.compare_to_reference(r)]
        values["reference.compare_s"] = perf_counter() - t0
        values["reference.cells_outside_3se"] = sum(not c.within for c in cells)
    else:
        reqs = inputs.requests
        by_kind = {}
        for i, req in enumerate(reqs):
            if not req.via_cli:
                by_kind.setdefault(req.kind, []).append(base.rule_time[i])
        for kind, times in by_kind.items():
            if kind == "two_bernoulli.conditional":
                values[f"{kind}.p50_ms"] = 1e3 * _p50(times)
                values[f"{kind}.p99_ms"] = 1e3 * float(np.percentile(times, 99))
            else:
                values[f"{kind}.p50_us"] = 1e6 * _p50(times)
        values["core.monitor_update.p50_us"] = 1e6 * _p50(base.update_time)
        cli_idx = [i for i, req in enumerate(reqs) if req.via_cli]
        overhead = []
        for i in cli_idx:
            t0 = perf_counter()
            try:
                reqs[i].rule(*reqs[i].args)
            except Exception:   # monitor_failures reports it
                continue
            overhead.append(base.rule_time[i] - (perf_counter() - t0))
        values["cli.main.p50_ms"] = 1e3 * _p50([base.rule_time[i] for i in cli_idx])
        values["cli.overhead_ms"] = 1e3 * _p50(overhead)
        with tracer:
            traced = wl.run_monitor_pass(inputs)
    passes.append(traced)

    spans = tracer.summary()
    main_spans = tracer.summary(main_only=True)
    calls = lambda label: spans.get(label, (0, 0.0, 0.0))[0]
    total = lambda label, s=spans: s.get(label, (0, 0.0, 0.0))[1]
    self_s = lambda label: spans.get(label, (0, 0.0, 0.0))[2]
    values["simulation.solve_s"] = total("simulation.solve")
    values["simulation.scan_s"] = self_s("simulation.scan")
    values["simulation.tally_s"] = total("simulation.tally")
    values["simulation.serial_s"] = (total("simulation.call", main_spans)
                                     - total("simulation.pool", main_spans))
    values["simulation.chunks"] = calls("simulation.scan") + calls("simulation.gen_chunk")
    values["engine.verify_ville_inequality.self_s"] = self_s("engine.verify_ville_inequality")
    values["engine.level_set.calls"] = calls("engine.level_set")
    values["engine.level_set.self_s"] = self_s("engine.level_set")
    values["engine.quadrature.calls"] = calls("engine.quadrature")
    values["engine.quadrature.self_s"] = self_s("engine.quadrature")
    if not workload.monte_carlo:
        values["engine.loglik_evals"] = calls("engine.loglik") / len(inputs.requests)
        n_cond = sum(r.kind == "two_bernoulli.conditional" for r in inputs.requests)
        values["two_bernoulli.quadrature_per_interval"] = (
            calls("engine.quadrature") / n_cond if n_cond else 0.0)
    values["trace.untraced_wall_s"] = base.wall
    values["trace.traced_wall_s"] = traced.wall
    values["trace.overhead_s"] = traced.wall - base.wall

    failed, reasons = workload.failed_ops(inputs, passes, pinned, seed, smoke)
    attempted = workload.ops(inputs) * len(passes)
    metrics = _metrics(values, PER_LAYER)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": reasons, "passes": len(passes), "fail_frac": failed / attempted}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _print_block(name: str, seed: int, trace: int, res: dict) -> None:
    print(f"== {name}  seed={seed}  trace={trace}  passes={res['passes']}")
    for metric, m in res["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}{n}")
    print(f"  {'fail_frac':40s} {res['fail_frac']:14.6g} "
          f"({res['failed']} of {res['attempted']} ops failed)")
    for reason in res["failures"]:
        print(f"  FAILED {reason}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    plain = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": plain})


def reproduce(threads: int, pinned: dict) -> int:
    """Full-size reproduction (not a workload, not gated): T1..T5 at 10,000
    reps, seed 42; per-table wall time and CSV sha256 against the prefixes
    recorded in ROADMAP.md."""
    metrics, bad = {}, 0
    for table_id, want in pinned["reproduce"].items():
        t0 = perf_counter()
        report = robbins.reproduce_table(table_id, reps=10_000, seed=42, threads=threads)
        wall = perf_counter() - t0
        sha = wl.digest(report.csv_text())
        ok = sha.startswith(want)
        bad += not ok
        print(f"{table_id}  wall_s={wall:8.2f}  sha256={sha[:16]}  "
              f"{'ok' if ok else 'MISMATCH, expected ' + want}")
        metrics[f"{table_id}.wall_s"] = _metric(wall, "s")
    print(_result_line(bad == 0, len(pinned["reproduce"]), bad, metrics))
    return 0


def pin(threads: int, pinned: dict) -> int:
    """Print a pinned.json for the current code: default-seed digests of every
    Monte Carlo call and the monitor-online intervals, at both sizes."""
    seed = wl.DEFAULT_SEED
    out = {"seed": seed, "digests": {}, "intervals": {}, "reproduce": pinned["reproduce"]}
    for smoke in (False, True):
        for w in WORKLOADS.values():
            inputs = w.make_inputs(seed, smoke)
            res = w.run_pass(inputs, threads)
            if w.monte_carlo:
                for call, r, err in zip(inputs, res.results, res.errors):
                    if err is not None:
                        sys.exit(f"error: {call.id} raised {err}")
                    out["digests"][call.id] = wl.digest(wl.output_text(r))
            else:
                if any(e is not None for e in res.errors):
                    sys.exit("error: a monitor-online request raised")
                out["intervals"]["smoke" if smoke else "full"] = [
                    [float(f"{v:.12g}") for v in lo_hi] for lo_hi in res.outputs]
    print(json.dumps(out, indent=1))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                   help="workload seed; outputs are pinned for the default only")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    p.add_argument("--reproduce", action="store_true",
                   help="T1..T5 at 10k reps, seed 42: wall times and digests")
    p.add_argument("--pin", action="store_true",
                   help="print pinned outputs of the current code as JSON")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = nproc()
    if args.probe_setup:
        prepare(WORKLOADS[args.workload], args.seed, threads, args.smoke)
        print("ready", flush=True)
        return 0
    with open(PINNED) as fh:
        pinned = json.load(fh)
    if args.reproduce:
        return reproduce(threads, pinned)
    if args.pin:
        return pin(threads, pinned)

    if args.workload == "all":
        return run_all(args)
    env = environment(threads)
    print("env " + json.dumps(env))
    w = WORKLOADS[args.workload]
    if args.trace:
        res = traced_run(w, args.seed, threads, args.smoke, pinned)
    else:
        res = untraced_run(w, args.seed, args.seconds, threads, args.smoke, pinned)
    _print_block(w.name, args.seed, args.trace, res)
    print("report " + json.dumps({"workload": w.name, "seed": args.seed,
                                  "trace": args.trace, "env": env, **res}))
    print(_result_line(res["failed"] == 0, res["attempted"], res["failed"], res["metrics"]))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process (so peak memory is per
    workload), output relayed; the last line sums the results, with metrics
    named <workload>.<metric>."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0
