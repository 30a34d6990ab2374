"""qdds benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a qdds checkout:

    python3 perfbench/run.py --workload literal-grid --seed 2023 --seconds 50 --trace 0

``--trace 0`` reports every end_to_end metric of BENCHMARK.json and
``--trace 1`` every per_layer metric. Every pass runs in a fresh
interpreter (worker.py). Stdout ends with one line of JSON,
{"correct", "attempted", "failed", "metrics"}; the line before it
records the machine and the sample counts behind the numbers.

``--record-reference`` rewrites reference.json: the artifact digests of
every workload at the default seed, which ``--trace 1`` runs compare
against (``harness.artifact_mismatch``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
REF_SEED = 2023
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
# One BLAS thread: the workloads run in one process, and the only BLAS call
# (a 2048x20 complex gemv per FIR response) gains nothing from a second
# thread, which spins on the second core of a 2-core box (a fir-20 trial
# used 20 s of CPU for 12 s of wall with the default, 8 s with one thread).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(worker_args, timeout):
    """Run the worker in a fresh interpreter; returns (setup seconds, its JSON)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, *worker_args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, **BLAS_THREADS},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {worker_args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["ready"] - started, data


def pass_args(workload, seed, *extra):
    return ["--workload", workload, "--seed", str(seed), *extra]


def tail(samples):
    """Highest percentile with at least 10 samples beyond it (the max below 11)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def gmean(costs):
    return math.exp(statistics.fmean(math.log(max(c, 1e-300)) for c in costs))


def mismatches(digests, reference):
    keys = set(digests) | set(reference)
    return sum(digests.get(k) != reference.get(k) for k in keys)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }


def steal_s():
    """Machine-wide CPU time the hypervisor took from this guest so far."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def record_reference():
    workloads = {}
    for name in sorted(WORKLOADS):
        _, data = spawn(pass_args(name, REF_SEED), TIME_LIMIT_S)
        if data["failed"]:
            raise RuntimeError(f"{name} failed its checks: {data['problems'][:5]}")
        workloads[name] = data["digests"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REF_SEED, "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


class Runner:
    """Spawns the passes of one run inside the run's time limit."""

    def __init__(self, workload):
        self.workload = workload
        self.started = time.perf_counter()
        self.passes = []
        self.setups = []

    def run(self, seed, *extra):
        remaining = TIME_LIMIT_S - (time.perf_counter() - self.started)
        setup, data = spawn(pass_args(self.workload, seed, *extra), remaining)
        self.setups.append(setup)
        if "--setup-only" not in extra:
            self.passes.append(data)
        return data


def end_to_end(runner, seed, seconds):
    """Passes at seed, seed+1, ... until the next one would end after seconds."""
    deadline = time.perf_counter() + seconds
    spent = []
    while True:
        t = time.perf_counter()
        runner.run(seed + len(spent))
        spent.append(time.perf_counter() - t)
        if time.perf_counter() + statistics.median(spent) > deadline:
            break
    while len(runner.setups) < SETUP_SAMPLES:
        runner.run(seed, "--setup-only")

    passes = runner.passes
    trial_s = [t for p in passes for t in p["trial_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tail_value, tail_pct = tail(trial_s)
    values = {
        "trial_s.p50": statistics.median(trial_s),
        "trial_s.tail": tail_value,
        "evals_per_s": sum(p["evals"] for p in passes) / sum(p["wall"] for p in passes),
        "setup_s": statistics.median(runner.setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_share": (attempted - failed) / attempted,
    }
    return values, {"trial_samples": len(trial_s), "tail_percentile": tail_pct}


def per_layer(runner, seed):
    """An untraced and a traced pass at seed, plus the reference check."""
    plain = runner.run(seed)
    traced = runner.run(seed, "--trace", "1")
    ref_pass = plain if seed == REF_SEED else runner.run(REF_SEED)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][runner.workload]
    values = dict(traced["layers"])
    values.update(
        {
            "harness.emit.bytes": traced["emit_bytes"],
            "harness.artifact_mismatch": mismatches(traced["digests"], plain["digests"])
            + mismatches(ref_pass["digests"], reference),
            "trace.overhead_s": traced["wall"] - plain["wall"],
            "quality.best_cost_gmean": gmean(plain["best_costs"]),
        }
    )
    return values, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description="qdds benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REF_SEED)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qdds", "__init__.py")):
        print("perfbench: src/qdds not found; run from the root of a qdds checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    load_start, steal_start = os.getloadavg(), steal_s()
    runner = Runner(args.workload)
    if args.trace:
        values, samples = per_layer(runner, args.seed)
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(runner, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    passes = runner.passes
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and (not args.trace or values["trace.self_share"] <= 1.0)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        **samples,
        "setup_samples_s": runner.setups,
        "machine": {**machine(), "numpy": passes[0]["numpy"], "blas": passes[0]["blas"]},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_s": None if steal_start is None else steal_s() - steal_start,
        "elapsed_s": time.perf_counter() - runner.started,
        "problems": [msg for p in passes for msg in p["problems"]][:10],
    }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
