"""spinpaths benchmark: one closed-loop client, in process, single-threaded.

Usage (from the repository root):

    python3 bench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload symbolic --seed 1 --seconds 25 --trace 1

The seed builds the workload's request list (see workloads.py).  The list is
run pass after pass, each request only after the previous one returned,
until --seconds have passed; the last pass always completes.  Every output
is validated (validators.py) the first time it is produced, and must be
byte-identical in later passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes for
a third of the time, then traced passes (tracing.py) for the rest, and
prints the per-layer metrics and the tracing overhead.  The second-to-last
line of stdout is a full report with the environment record; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

STARTED = time.perf_counter()   # before spinpaths, numpy and the request list are loaded
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# reference_loop()'s time on the host the benchmark was tuned on (Python 3.11.7,
# 2 vCPUs); the *_ref metrics are times scaled to a host running it this fast
REFERENCE_S = 0.002
UNITS = (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_bytes", "bytes"), ("_bits", "bits"),
         ("_frac", "frac"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the request list and exit (times set-up)")
    args = parser.parse_args(argv)
    if not args.setup_probe and (args.seconds is None or args.seconds < 1):
        parser.error("--seconds must be given and at least 1")
    return args


# -- measuring ------------------------------------------------------------------


@dataclass
class Pass:
    """Timings and failures of one pass over the request list."""

    latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None   # per-layer metrics of a traced pass
    speed: float = 1.0           # REFERENCE_S over the reference loop's time around the pass

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(requests, validated: dict, tracer=None) -> Pass:
    from validators import validate
    from workloads import Outcome, execute

    result = Pass()
    if tracer is not None:
        tracer.reset()
    for rid, request in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(rid)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = execute(request)
        except Exception as exc:  # a request that raises is a failed request
            out = Outcome(f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        c1 = time.process_time()
        result.latencies.append(t1 - t0)
        result.cpu += c1 - c0
        if tracer is not None:
            tracer.end_request()
            tracer.counts["cli.output_bytes"] += len(out.stdout.encode()) + len(out.stderr.encode())
        if validated.get(rid) != out.digest():
            reason = validate(request, out)
            if reason is None:
                validated[rid] = out.digest()
            else:
                result.failures.append(f"{' '.join(request.argv) or request.kind}: {reason}")
    if tracer is not None:
        result.layers = tracer.layer_metrics()
    return result


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python task, the best of three.

    Dict-of-int polynomial products and Fraction sums, the instruction mix
    of the package's hot loops, written here so that no change to the
    package can move it.  It is timed before and after every pass.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        a = {e: 7 * e + 1 for e in range(40)}
        for _ in range(4):
            out: dict[int, int] = {}
            for ea, ca in a.items():
                for eb, cb in a.items():
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        total = Fraction(0)
        for k in range(1, 150):
            total += Fraction(k, k + 1) ** 2
        best = min(best, time.perf_counter() - t0)
    return best


def run_for(requests, seconds: float, validated: dict, tracer=None) -> list[Pass]:
    """Whole passes until ``seconds`` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    before = reference_loop()
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(requests, validated, tracer))
        after = reference_loop()
        passes[-1].speed = REFERENCE_S / ((before + after) / 2)
        before = after
    return passes


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times in fresh interpreters: importing the package and building
    the request list, as each probe times itself from the top of this script.

    One unmeasured probe warms the file cache and bytecode first.  The
    interpreter's own start-up is left out: it varied by 60-100 ms between
    identical runs on a 2-vCPU virtual machine, and no change to the package
    can move it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        word, _, value = out.stdout.partition(" ")
        if out.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed: {out.stderr[-500:]}")
        times.append(float(value))
    return times[1:]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- environment ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's git directory, read directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(seed: int, untraced: float, traced: float | None) -> dict:
    import numpy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "l3_bytes": l3_bytes(),
            "seed": seed, "untraced_pass_wall_s": untraced, "traced_pass_wall_s": traced}


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


# -- modes -------------------------------------------------------------------------


def untraced(args, requests) -> tuple[dict, dict, list[Pass]]:
    setup = setup_seconds(args.workload, args.seed)
    passes = run_for(requests, args.seconds, {})
    latencies = [x for p in passes for x in p.latencies]
    scaled = [x * p.speed for p in passes for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.mean(p.wall * p.speed for p in passes),
        "cpu_ref_s": statistics.mean(p.cpu * p.speed for p in passes),
        "latency_p50_ref_ms": 1000 * statistics.median(scaled),
        "latency_p90_ref_ms": 1000 * percentile(scaled, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {
        "wall_s": statistics.mean(p.wall for p in passes),
        "cpu_s": statistics.mean(p.cpu for p in passes),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
    }
    extra = {"measured": {k: {"value": v, "unit": unit(k)} for k, v in measured.items()},
             "latency_samples": len(latencies), "setup_samples_s": setup,
             "pass_wall_s": [p.wall for p in passes],
             "reference_loop_s": [REFERENCE_S / p.speed for p in passes],
             "env": environment(args.seed, measured["wall_s"], None)}
    return metrics, extra, passes


def traced(args, requests) -> tuple[dict, dict, list[Pass]]:
    from tracing import EXACT_COUNTS, Tracer

    validated: dict = {}
    plain = run_for(requests, args.seconds / 3, validated)
    with Tracer() as tracer:
        spans = run_for(requests, args.seconds * 2 / 3, validated, tracer)
    raw = [statistics.mean(p.wall for p in ps) for ps in (plain, spans)]
    ref = [statistics.mean(p.wall * p.speed for p in ps) for ps in (plain, spans)]
    metrics = {}
    for name in spans[0].layers:
        values = [p.layers[name] for p in spans]
        metrics[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
    metrics["trace_overhead_frac"] = ref[1] / ref[0] - 1
    repeat = all(p.layers[n] == spans[0].layers[n] for p in spans for n in EXACT_COUNTS)
    extra = {"untraced_passes": len(plain), "exact_counts_repeat": repeat,
             "env": environment(args.seed, raw[0], raw[1])}
    return metrics, extra, plain + spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinpaths" / "__init__.py").is_file():
        print(f"error: no spinpaths sources under {SRC}", file=sys.stderr)
        return 2
    # one single-threaded process: keep numpy's BLAS (the Hamiltonian oracle) to one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print(f"ready {time.perf_counter() - STARTED!r}")
        return 0

    mode = traced if args.trace else untraced
    metrics, extra, passes = mode(args, requests)
    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(requests)
    correct = not failures and extra.get("exact_counts_repeat", True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "mode": "traced" if args.trace else "untraced",
              "requests_per_pass": len(requests), "passes": len(passes),
              "failed_frac": len(failures) / attempted, "failures": failures[:10], **extra,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
