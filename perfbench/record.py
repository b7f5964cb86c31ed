"""Record the references the benchmark checks against.

    python perfbench/record.py

Writes cli_refs.json (stdout and exit code of every corpus_cli command) and
expected.json (per workload and size: the digests of the base pool and of the
first-pass inputs of the default seed, the answer of every pool item, and the
digest of those answers).  Run
it only when the benchmark's inputs change; a change to the program must
reproduce the recorded answers exactly, because reduced row echelon form is
unique.  Every answer recorded must satisfy its workload's invariant.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

# criterion 12's GOLDEN commands, then three commands that reach the
# absolute layer through the largest datum and map of the corpus
CLI_COMMANDS = [
    ["validate", "point.datum"],
    ["ext", "tate0.phc", "tate1.phc"],
    ["abs", "point.datum", "--twist", "1"],
    ["abs", "p1.datum", "--twist", "1", "--format", "json"],
    ["les", "gm.datum", "--twist", "1"],
    ["duality", "p1.datum", "--twist", "1"],
    ["duality", "point.datum", "--twist", "0", "--format", "json"],
    ["gysin", "p1_to_point.map", "--degree", "2", "--twist", "1"],
    ["ss", "d2page.dcomplex"],
    ["godement", "pseudocircle.site", "constK.sheaf"],
    ["godement", "sierpinski.site", "constK.sheaf", "--format", "json"],
    ["cup", "p1.datum", "--twist1", "0", "--twist2", "1", "--deg1", "0", "--deg2", "2"],
    ["gysin", "elliptic_doubling.map", "--degree", "1", "--twist", "1"],
    ["duality", "elliptic.datum", "--twist", "1"],
    ["abs", "elliptic.datum", "--twist", "1"],
]


def record_cli_refs() -> None:
    refs = []
    for args in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "phodge.cli", *args],
            cwd=workloads.ROOT, env=workloads.child_env(), capture_output=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{args} exited {proc.returncode}: {proc.stderr.decode()}")
        refs.append({"args": args, "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")})
    workloads.CLI_REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


def record_expected() -> None:
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        out[name] = {}
        for size in ("tiny", "full"):
            wl = cls(cls.default_seed, size == "tiny")
            first = [wl.make_input(0, i) for i in range(len(wl.pool))]
            answers = []
            for item, inp in enumerate(first):
                result = wl.run(inp)
                if not wl.valid(result):
                    raise SystemExit(f"{name} {size} item {item}: invariant fails")
                answers.append(wl.answer(item, result))
            out[name][size] = {
                "pool": workloads.digest(workloads.serialize(wl.pool)),
                "first_pass": workloads.digest([wl.describe(x) for x in first]),
                "answers": answers,
                "answers_digest": workloads.digest(answers),
            }
            print(name, size, "recorded", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_cli_refs()
    record_expected()
