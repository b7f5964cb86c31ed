"""phodge benchmark: seeded, closed-loop workloads over the exact-elimination
engine, with end-to-end metrics and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics of BENCHMARK.json (latencies in
reference time, see worker.py); --trace 1 runs untraced and traced passes over
the same inputs and prints the per-layer metrics with trace.overhead_ratio.
The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it give every metric by name and unit,
fail_ratio, the raw latencies, the tail percentile and sample counts, the
Python version, the CPU count and the revision.  Everything runs from the
root of the checkout, one process at a time, and writes only under
.bench_build/ in the checkout.  See perfbench/README.md.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 170.0
# traced runs repeat the untraced and traced passes when a pass is shorter
ABBA_PASS_LIMIT_S = 15.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def compile_sources() -> None:
    """Fill the bytecode caches beside the sources before anything is timed,
    so every run, the first after a checkout included, starts warm."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "phodge"), str(BENCH)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def worker_cmd(workload: str, seed: int, args, *extra: str):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.refs:
        cmd += ["--refs", args.refs]
    return cmd


def run_worker(cmd):
    """Run one worker to its end: its JSON result (None for --setup-only) and
    its set-up time, or (None, None) if it failed."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s: {' '.join(cmd)}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        return None, None
    return (json.loads(lines[-1]) if lines[-1].startswith("{") else None), ready[0] - t0


def setup_probe(workload: str, seed: int, args):
    """Set-up time of one fresh process, or None if its input check failed."""
    if workload == "corpus_cli":
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", "import phodge.cli"], cwd=ROOT, env=workloads.child_env())
        return time.monotonic() - t0 if proc.returncode == 0 else None
    return run_worker(worker_cmd(workload, seed, args, "--setup-only"))[1]


def tail(latencies, pct: float):
    """The pct-th percentile latency (nearest rank) and the number of samples
    beyond it."""
    lat = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(lat)))
    return lat[rank - 1], len(lat) - rank


def end_to_end(workload: str, seed: int, args):
    # half the set-up probes before the timed worker and half after it, so
    # the median samples the machine at two moments
    probes = [setup_probe(workload, seed, args) for _ in range(SETUP_PROBES // 2)]
    result, _ = run_worker(worker_cmd(workload, seed, args, "--seconds", str(args.seconds)))
    probes += [setup_probe(workload, seed, args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    good = [p for p in probes if p is not None]
    if result is None or not good:
        return None
    setup_ok = len(good) == len(probes)
    setup = statistics.median(good)
    lat = result["latencies_s"]
    pct = workloads.WORKLOADS[workload].tail_pct
    value, beyond = tail(lat, pct)
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(lat) / result["timed_s"],
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": value * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = result["raw_latencies_s"]
    detail = {
        "fail_ratio": result["failed"] / result["attempted"],
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1000.0,
        "raw_op_tail_ms": tail(raw, pct)[0] * 1000.0,
        "reference_p50_ms": statistics.median(result["reference_s"]) * 1000.0,
        "op_tail_percentile": round(pct, 2),
        "op_tail_samples_beyond": beyond,
        "samples": len(lat),
        "timed_s": result["timed_s"],
        "wall_s": result["wall_s"],
        "errors": result["errors"] + ([] if setup_ok else ["set-up input digest check failed"]),
    }
    return {
        "correct": result["correct"] and setup_ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        "detail": detail,
    }


def per_layer(workload: str, seed: int, args):
    """One pass over the pool untraced, then one traced; when a pass is short
    enough, a second traced and a second untraced pass follow (ABBA), so that
    a drift of the machine's speed cancels in trace.overhead_ratio.  The
    per-layer metrics are those of the first traced pass."""
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    spans = OUT / "trace" / f"{workload}-{seed}.spans.jsonl"
    plain = [run_worker(worker_cmd(workload, seed, args, "--passes", "1"))[0]]
    traced = [run_worker(worker_cmd(workload, seed, args, "--passes", "1", "--trace", "--spans-out", str(spans)))[0]]
    if None in plain + traced:
        return None
    if plain[0]["timed_s"] < ABBA_PASS_LIMIT_S:
        traced.append(run_worker(worker_cmd(workload, seed, args, "--passes", "1", "--trace"))[0])
        plain.append(run_worker(worker_cmd(workload, seed, args, "--passes", "1"))[0])
        if None in plain + traced:
            return None
    values = dict.fromkeys(layertrace.PER_LAYER, 0)
    values.update(traced[0]["layers"])
    values["trace.overhead_ratio"] = sum(r["timed_s"] for r in traced) / sum(r["timed_s"] for r in plain)
    runs = plain + traced
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, (unit, _) in layertrace.PER_LAYER.items()
        },
        "detail": {"errors": [e for r in runs for e in r["errors"]], "spans": str(spans.relative_to(ROOT))},
    }


def revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:  # no git on this machine
        return "unknown (no git)"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def report(workload: str, seed: int, res: dict, args) -> None:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "revision": revision()}
    for name, m in res["metrics"].items():
        print(f"{workload:<15} {name:<38} {m['value']:>14.6g} {m['unit']}")
    if "fail_ratio" in res["detail"]:
        d = res["detail"]
        print(f"{workload:<15} {'fail_ratio':<38} {d['fail_ratio']:>14.6g} 1")
        for name, unit in (("raw_ops_per_s", "1/s"), ("raw_op_p50_ms", "ms"), ("raw_op_tail_ms", "ms"),
                           ("reference_p50_ms", "ms")):
            print(f"{workload:<15} {name:<38} {d[name]:>14.6g} {unit}")
        print(
            f"{workload:<15} op_tail_ms is p{d['op_tail_percentile']} of {d['samples']} samples "
            f"({d['op_tail_samples_beyond']} beyond)"
        )
    for err in res["detail"]["errors"]:
        print(f"{workload:<15} FAILED: {err}")
    record = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace, **env, **res}
    print(json.dumps({k: record[k] for k in ("workload", "seed", "python", "nproc", "revision")}))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload}-{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's criterion seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one-item pools, for the self-test")
    parser.add_argument("--refs", help="CLI reference file to check against, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phodge" / "cli.py").is_file():
        return fail(f"no phodge sources under {ROOT / 'src'}; run from a full checkout")
    compile_sources()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else workloads.WORKLOADS[name].default_seed
        res = per_layer(name, seed, args) if args.trace else end_to_end(name, seed, args)
        if res is None:
            return fail(f"{name}: a worker process failed")
        report(name, seed, res, args)
        results[name] = res
    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
