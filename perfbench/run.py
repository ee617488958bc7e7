"""End-to-end benchmark of crtypes: one workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload model-corpus --seed 1902 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

One client runs the workload's jobs back to back (no threads, no second
process), cycle after cycle, until at least ``--seconds`` of job time,
``MIN_JOBS`` jobs and ``MIN_CYCLES`` cycles have passed; only whole cycles
are run, so every job of the seeded list weighs the same in the result.  The
timing metrics take each job at its median latency in the run, each run of
it scaled to a reference machine speed measured by a fixed probe run after
every job (see ``scaled_samples``).  Every output is checked against the recorded reference
(byte for byte) and against the answers known independently of the code.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced cycles, then one more cycle with the tracing shim installed, and
prints the per-layer metrics, the tracing overhead and each layer's share of
self time.  ``--record`` writes the reference outputs of the default seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import workloads
from tracer import METRIC_UNITS, Tracer, coverage_failures, layer_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

DEFAULT_SEED = 1902      # reference outputs are recorded for this seed
SETUP_REPEATS = 11       # set-ups before the first job; one more follows each cycle
SETUP_PROBES = 3         # compile probes after each set-up
REFERENCE_COMPILE_S = 7e-3   # the compile probe's median time at the reference speed
TAIL_PERCENTILE = 90
MIN_JOBS = 100           # so the tail percentile has at least ten jobs beyond it
MIN_CYCLES = 3           # each job's latency is the median of at least this many runs
MAX_MEASURE_S = 90.0     # no new cycle starts after this, whatever the job count
LIGHT_S = 0.25           # jobs this short get EXTRA_PASSES more samples a cycle
EXTRA_PASSES = 2
REFERENCE_PROBE_S = 2.5e-3   # the probe's median time at the reference speed
PROBE_WINDOW = 10        # a job run is scaled by the probes of the 2 * this + 1 runs around it

MODULES = ("gaussian", "poly", "grammar", "linalg", "vfield", "normalize",
           "invariants", "psh", "tangency", "fixtures", "cli")

# (job index, latency in s, exit code, output, error)
Record = Tuple[int, float, Optional[int], str, Optional[str]]


def import_crtypes() -> SimpleNamespace:
    """A fresh import of the package under test (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "crtypes" or n.startswith("crtypes.")]:
        del sys.modules[name]
    ct = SimpleNamespace(package=importlib.import_module("crtypes"))
    for name in MODULES:
        setattr(ct, name, importlib.import_module(f"crtypes.{name}"))
    return ct


def set_up(workload: str, seed: int):
    """Import crtypes and build the job list: the modules, the jobs and the time taken."""
    t0 = time.perf_counter()
    ct = import_crtypes()
    jobs = workloads.build(workload, seed, ct)
    return ct, jobs, time.perf_counter() - t0


def compile_probe_time() -> float:
    """Seconds to compile the benchmark's own workloads.py: fixed work like
    the larger part of a set-up, which compiles crtypes's modules."""
    source = (HERE / "workloads.py").read_text()
    t0 = time.perf_counter()
    compile(source, "workloads.py", "exec")
    return time.perf_counter() - t0


class SetupTimer:
    """Set-up time samples taken across the run: SETUP_REPEATS before the first
    job and one after each cycle, so that one noisy moment does not decide
    the median.  Each extra set-up re-imports crtypes; the modules the jobs
    were built with are put back afterwards.

    Each sample is also scaled to the reference speed, as job latencies are
    (see ``scaled_samples``), but by a compile probe run right after it:
    the set-up follows the speed of compiling more closely than that of
    the job probe, which over-corrects it."""

    def __init__(self, workload: str, seed: int, first: float):
        self.workload, self.seed = workload, seed
        self.keep = {n: m for n, m in sys.modules.items()
                     if n == "crtypes" or n.startswith("crtypes.")}
        self.samples: List[float] = []
        self.scaled: List[float] = []
        self._add(first)
        for _ in range(SETUP_REPEATS - 1):
            self.sample()

    def sample(self) -> None:
        seconds = set_up(self.workload, self.seed)[2]
        for name in [n for n in sys.modules if n == "crtypes" or n.startswith("crtypes.")]:
            del sys.modules[name]
        sys.modules.update(self.keep)
        self._add(seconds)

    def _add(self, seconds: float) -> None:
        local = statistics.median(compile_probe_time() for _ in range(SETUP_PROBES))
        self.samples.append(seconds)
        self.scaled.append(seconds * REFERENCE_COMPILE_S / local)


def run_job(run) -> Tuple[Optional[int], str, Optional[str]]:
    try:
        code, out = run()
    except Exception as e:  # a job that raises is a failed job, not a failed benchmark
        return None, "", f"{type(e).__name__}: {e}"
    return code, out, None


def _probe_operand(shift: int) -> Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]:
    return {
        (j % 4, (j + shift) % 3, j // 4, (j * shift) % 2):
            (Fraction(j + shift - 6, 1 + j % 5), Fraction(7 - j * shift % 11, 1 + (j + shift) % 4))
        for j in range(12)
    }


_PROBE_P, _PROBE_Q = _probe_operand(1), _probe_operand(2)


def probe() -> None:
    """Fixed reference work of the kind crtypes does (products of sparse
    polynomials with complex rational coefficients, in dicts), written here
    so that no change to crtypes changes it."""
    out: Dict[Tuple[int, ...], Tuple[Fraction, Fraction]] = {}
    for k1, (a, b) in _PROBE_P.items():
        for k2, (c, d) in _PROBE_Q.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            re, im = a * c - b * d, a * d + b * c
            s = out.get(k)
            out[k] = (re, im) if s is None else (s[0] + re, s[1] + im)


def run_cycles(jobs, seconds: float, between=None):
    """Whole cycles of the job list until ``seconds`` of job time, MIN_JOBS
    jobs and MIN_CYCLES cycles; ``between`` runs after each cycle, outside
    the measured time.  The probe runs after every job, outside the job time.

    From the second cycle on, the jobs that took under LIGHT_S in the first
    are also run EXTRA_PASSES more times, spread between the others: a short
    job's latency needs more samples to average out the load of the moment.
    Returns the records (one per job per cycle), the extra records, each
    cycle's job time and the timeline: (job index, latency, probe time) for
    every job run, in order.
    """
    clock = time.perf_counter
    records: List[Record] = []
    extra: List[Record] = []
    cycles: List[float] = []
    timeline: List[Tuple[int, float, float]] = []
    order = [(i, records) for i in range(len(jobs))]
    while True:
        job_time = 0.0
        for i, sink in order:
            t0 = clock()
            code, out, error = run_job(jobs[i].run)
            t1 = clock()
            probe()
            timeline.append((i, t1 - t0, clock() - t1))
            sink.append((i, t1 - t0, code, out, error))
            job_time += t1 - t0
        cycles.append(job_time)
        elapsed = sum(cycles)
        enough = len(records) >= max(MIN_JOBS, MIN_CYCLES * len(jobs))
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and enough):
            return records, extra, cycles, timeline
        if len(cycles) == 1:
            order = _spread_light_jobs(records, order, extra)
        if between is not None:
            between()


def _spread_light_jobs(first: List[Record], order, extra: List[Record]):
    """``order`` with the light jobs of the first cycle inserted EXTRA_PASSES
    times at even steps, their records going to ``extra``."""
    light = [(r[0], extra) for r in first if r[1] < LIGHT_S]
    if not light:
        return order
    out = []
    step = len(order) / (EXTRA_PASSES + 1)
    for k, item in enumerate(order):
        if k and int(k / step) != int((k - 1) / step):
            out.extend(light)
        out.append(item)
    return out


def load_reference(workload: str) -> Dict[str, dict]:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def verify(jobs, records: List[Record], reference: Dict[str, dict]) -> List[Tuple[str, str]]:
    """(job key, reason) for every execution that failed."""
    failures = []
    checked: Dict[int, Tuple[Optional[int], str, Optional[str]]] = {}
    for i, _, code, out, error in records:
        job = jobs[i]
        if error is not None:
            reason = error
        elif i in checked:
            first = checked[i]
            reason = first[2] if (code, out) == first[:2] else "output differs between cycles"
        else:
            ref = reference.get(job.key)
            if ref is not None and (code, out) != (ref["code"], ref["out"]):
                reason = "output differs from the recorded reference"
            else:
                try:
                    reason = job.check(code, out)
                except Exception as e:  # a malformed output fails its check
                    reason = f"known-answer check raised {type(e).__name__}: {e}"
            checked[i] = (code, out, reason)
        if reason:
            failures.append((job.key, reason))
    return failures


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crtypes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def scaled_samples(timeline: List[Tuple[int, float, float]]) -> List[Tuple[int, float, float]]:
    """(job index, latency, scaled latency) for every job run, in order.

    On a 2-core machine shared with other users, the same job runs up to
    1.7 times slower for stretches of seconds to minutes, depending on what
    else runs on the host; the fixed probe slows with it.  A latency times
    REFERENCE_PROBE_S over the median probe time of the runs around it is
    what it would read on a machine where the probe takes REFERENCE_PROBE_S.
    The probe does not touch crtypes, so a change to crtypes moves the
    scaled latencies as much as the raw ones.
    """
    probes = [p for _, _, p in timeline]
    out = []
    for k, (i, latency, _) in enumerate(timeline):
        local = statistics.median(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
        out.append((i, latency, latency * REFERENCE_PROBE_S / local))
    return out


def job_medians(samples: List[Tuple[int, float, float]], njobs: int, column: int) -> List[float]:
    """Each job's median, over its runs, of ``column`` of the samples."""
    per_job: List[List[float]] = [[] for _ in range(njobs)]
    for sample in samples:
        per_job[sample[0]].append(sample[column])
    return [statistics.median(v) for v in per_job]


def latency_metrics(records: List[Record], typical: List[float]) -> Tuple[Dict[str, float], int]:
    """jobs_per_s, job_p50_s and job_tail_s from each job's typical latency,
    and how many jobs lie beyond the tail percentile."""
    latencies = [typical[r[0]] for r in records]
    tail_s, beyond = tail(latencies)
    return {
        "jobs_per_s": len(typical) / sum(typical),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
    }, beyond


def tail(latencies: List[float]) -> Tuple[float, int]:
    """The TAIL_PERCENTILE latency (nearest rank) and how many jobs lie beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def print_failures(failures: List[Tuple[str, str]]) -> None:
    seen = set()
    for key, reason in failures:
        if (key, reason) not in seen:
            seen.add((key, reason))
            print(f"FAILED {key}: {reason}")


def timed(args, jobs, setups: SetupTimer, env: dict) -> dict:
    records, extra, cycles, timeline = run_cycles(jobs, args.seconds, setups.sample)
    elapsed = sum(cycles)
    failures = verify(jobs, records + extra, load_reference(args.workload))
    n = len(records)
    samples = scaled_samples(timeline)
    raw, _ = latency_metrics(records, job_medians(samples, len(jobs), 1))
    scaled, beyond = latency_metrics(records, job_medians(samples, len(jobs), 2))
    probe_s = statistics.median(p for _, _, p in timeline)
    raw["setup_s"] = statistics.median(setups.samples)
    scaled["setup_s"] = statistics.median(setups.scaled)
    units = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "job_tail_s": "s"}
    metrics = {name: (scaled[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = n + len(extra)
    failed_share = len(failures) / attempted
    print_failures(failures)
    print(f"workload {args.workload}  seed {args.seed}  {n} jobs in {len(cycles)} cycles "
          f"of {len(jobs)}, {len(extra)} extra samples of short jobs  job time {elapsed:.2f} s "
          f"({attempted / elapsed:.4g} jobs/s by wall clock)")
    print(f"probe median {probe_s * 1e3:.4g} ms over {len(timeline)} runs, reference "
          f"{REFERENCE_PROBE_S * 1e3:.4g} ms: each latency scaled by the probes around it")
    notes = {
        "setup_s": f"median of {len(setups.samples)} set-ups",
        "jobs_per_s": "jobs in a cycle over the sum of their median latencies",
        "job_p50_s": f"median of {n} jobs, each at its median latency",
        "job_tail_s": f"p{TAIL_PERCENTILE} of the same, {beyond} jobs beyond it",
    }
    for name, (value, unit) in metrics.items():
        unscaled = f"(unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<13} {value:>12.6g} {unit:<7} {unscaled:<20} {notes.get(name, '')}")
    print(f"  {'failed_share':<13} {failed_share:>12.6g} {'ratio':<7} "
          f"{len(failures)} of {attempted} jobs failed")
    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": args.workload, "trace": 0, "jobs": n, "extra_samples": len(extra),
        "cycle_jobs": len(jobs), "cycle_s": cycles, "job_time_s": elapsed,
        "wall_jobs_per_s": attempted / elapsed, "tail_percentile": TAIL_PERCENTILE,
        "jobs_beyond_tail": beyond, "failed_share": failed_share,
        "probe_median_s": probe_s,
        "metrics": {k: v[0] for k, v in metrics.items()}, "unscaled": raw, "env": env,
    }
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, ct, jobs, env: dict) -> dict:
    records, extra, *_ = run_cycles(jobs, args.seconds)
    plain_rate = len(records) / sum(r[1] for r in records)
    tracer = Tracer()
    tracer.install(ct)
    try:
        roots = [tracer.span("bench.job", job.run) for job in jobs]
        traced_records: List[Record] = []
        for i, root in enumerate(roots):
            tracer.job = i
            t0 = time.perf_counter()
            code, out, error = run_job(root)
            traced_records.append((i, time.perf_counter() - t0, code, out, error))
    finally:
        tracer.uninstall()
    traced_elapsed = sum(r[1] for r in traced_records)
    failures = verify(jobs, records + extra + traced_records, load_reference(args.workload))
    plain_out = {}
    for i, _, code, out, _ in records:
        plain_out.setdefault(i, (code, out))
    for i, _, code, out, _ in traced_records:
        if (code, out) != plain_out[i]:
            failures.append((jobs[i].key, "traced output differs from the untraced output"))

    calls, self_s = tracer.self_times()
    metrics = tracer.layer_metrics(calls, self_s)
    metrics["trace.overhead_ratio"] = (len(traced_records) / traced_elapsed) / plain_rate
    activity = tracer.layer_activity(calls)
    for layer in coverage_failures(args.workload, activity):
        failures.append((f"layer {layer}", f"recorded no spans or counts on {args.workload}"))

    print_failures(failures)
    shares = layer_shares(self_s)
    print(f"workload {args.workload}  seed {args.seed}  traced cycle of {len(jobs)} jobs: "
          f"{traced_elapsed:.2f} s, untraced {len(records)} jobs at {plain_rate:.4g} jobs/s, "
          f"overhead ratio {metrics['trace.overhead_ratio']:.3f}")
    print("  share of traced self time by layer:")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<11} {share:7.1%}")
    for name in METRIC_UNITS:
        print(f"  {name:<32} {metrics[name]:>14.6g} {METRIC_UNITS[name]}")
    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": args.workload, "trace": 1, "spans": len(tracer.span_start),
        "layer_shares": shares, "layer_activity": activity,
        "metrics": metrics, "env": env,
    }
    print("record " + json.dumps(record, sort_keys=True))
    attempted = len(records) + len(extra) + len(traced_records)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in METRIC_UNITS.items()},
    }


def record_reference(args, jobs) -> int:
    if args.seed != DEFAULT_SEED:
        print(f"error: references are recorded for the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    records = [(i, 0.0, *run_job(job.run)) for i, job in enumerate(jobs)]
    failures = verify(jobs, records, {})
    if failures:
        print_failures(failures)
        print("error: known-answer checks failed; nothing recorded", file=sys.stderr)
        return 1
    reference = {jobs[i].key: {"code": code, "out": out} for i, _, code, out, _ in records}
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{args.workload}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} reference outputs in {path.relative_to(ROOT)}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them, each in a fresh process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; 10581 is held out for "
                        "confirming claims)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the reference outputs of the default seed and exit")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, one after the other; their metrics
    are merged under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv + ["--record"] * args.record, stdout=subprocess.PIPE,
                               text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines if args.record else lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        if args.record:
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if not args.record:
        print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crtypes" / "__init__.py").is_file():
        print(f"error: no crtypes sources under {SRC}; run from a crtypes checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # every set-up compiles crtypes from source, whether or not the
    # environment lets Python cache bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    ct, jobs, first_setup_s = set_up(args.workload, args.seed)
    if Path(ct.package.__file__).resolve().parent != SRC / "crtypes":
        print(f"error: imported crtypes from {ct.package.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_reference(args, jobs)
    if args.trace:
        result = traced(args, ct, jobs, env)
    else:
        result = timed(args, jobs, SetupTimer(args.workload, args.seed, first_setup_s), env)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
