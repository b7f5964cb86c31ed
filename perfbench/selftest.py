"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last line names every metric of BENCHMARK.json with its unit and that no
operation failed.  Then checks that a corrupted CLI reference is counted as a
failed operation, and that run.py fails without a result when the program's
sources are missing.  Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def run(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def metrics_named(result: dict, spec: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} has no numeric value")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        for trace, spec in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = f"{name} --trace {trace}"
            proc, result = run("--workload", name, "--tiny", "--seconds", "0.2", "--trace", trace)
            check(proc.returncode == 0 and result is not None, f"{label}: exit {proc.returncode} {proc.stderr[-500:]}")
            check(result["correct"] and result["failed"] == 0, f"{label}: {proc.stdout[-800:]}")
            check(result["attempted"] >= 1, f"{label}: no operation attempted")
            metrics_named(result, spec, label)
            if trace == "0":
                check(f"{name:<15} fail_ratio" in proc.stdout, f"{label}: fail_ratio not printed")
            print(f"ok  {label}")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    refs = json.loads((BENCH / "cli_refs.json").read_text())
    refs[0]["stdout"] += "corrupted\n"
    bad = SCRATCH / "cli_refs_corrupted.json"
    bad.write_text(json.dumps(refs))
    proc, result = run("--workload", "corpus_cli", "--tiny", "--seconds", "0.2", "--refs", str(bad))
    check(proc.returncode == 0 and result is not None, f"corrupted reference: exit {proc.returncode}")
    check(not result["correct"] and result["failed"] >= 1, "a corrupted reference output passed")
    print("ok  corrupted reference counted as a failed operation")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = run("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and result is None, "run.py without the program's sources printed a result")
    shutil.rmtree(bare)
    print("ok  without the program's sources run.py exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
