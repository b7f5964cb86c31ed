"""One workload in one fresh process.

    python perfbench/worker.py --workload NAME --seed N [--seconds S | --passes P]
                               [--trace] [--tiny] [--setup-only] [--refs FILE]

Set-up (imports, base pool, first-pass inputs, digest check) ends with a line
`ready <time.monotonic()>` on stdout, so the parent can time set-up from the
moment it started this process.  Then operations run closed loop, one at a
time, each on a fresh input made outside the timed interval, in whole passes
over the pool, until the timed total reaches --seconds, or --passes passes
are done.  The last stdout line is one
JSON object with the latencies (in reference time and raw) and failures;
with --trace it also holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

# stop starting operations after this much wall time, so a run ends in time
# even when one pass is far longer than --seconds
WALL_LIMIT_S = 120.0

# On the shared 2-core virtual machines this benchmark was built on, CPU
# speed drifts by up to 2x over seconds to minutes (a fixed loop of Fraction
# arithmetic: 50-168 ms), and the drift is shared by all Python code.  So every operation is also
# reported in reference time: its latency times REFERENCE_S over the mean
# time of reference() measured right before it, right after it and (see
# Sampler) every SAMPLE_INTERVAL_S while it runs.  reference() is the
# same kind of work as phodge's inner loop (Fraction arithmetic) but shares
# no code with phodge, so a change to phodge moves the operation and not the
# reference.  REFERENCE_S is a constant (about reference()'s typical time on
# such a machine), never measured per run.
REFERENCE_S = 0.005
SAMPLE_INTERVAL_S = 1.0


def reference() -> float:
    """Time of a fixed piece of Fraction arithmetic, in seconds."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Sampler:
    """reference() every SAMPLE_INTERVAL_S, from a timer signal, so that an
    operation longer than the interval is corrected by the machine's speed
    while it ran and not only at its two ends.  The handler's own time is
    recorded and taken out of the operation's latency."""

    def __init__(self):
        self.samples = []  # (start, reference time, handler time)

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        ref = reference()
        self.samples.append((t0, ref, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def during(self, t0: float, t1: float):
        return [(ref, spent) for start, ref, spent in self.samples if t0 <= start < t1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--refs", help="CLI reference file (corpus_cli only)")
    parser.add_argument("--spans-out", help="file for the trace spans")
    args = parser.parse_args(argv)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    kwargs = {}
    if args.workload == "corpus_cli":
        kwargs = {"shim": args.trace}
        if args.refs:
            kwargs["refs_path"] = Path(args.refs)
    if args.workload != "corpus_cli":
        import phodge.cli  # noqa: F401  every layer loaded before set-up ends
    wl = cls(args.seed, args.tiny, **kwargs)
    first_pass = [wl.make_input(0, i) for i in range(len(wl.pool))]
    inputs_ok = wl.inputs_ok(first_pass)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0 if inputs_ok else 1

    tracer = None
    if args.trace and args.workload != "corpus_cli":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()

    # every operation starts from the same collector state: nothing left over
    # from set-up or from the previous operation is scanned inside the timing
    gc.collect()
    gc.freeze()
    # in-process operations also sample the reference while they run; the
    # CLI workload's operations are subprocesses, too short to need it
    sampler = None if args.workload == "corpus_cli" else Sampler()
    if sampler:
        sampler.start()
    latencies, raw, references, failures, answers = [], [], [], [], []
    timed = 0.0
    wall0 = time.monotonic()
    pass_index = 0
    while True:
        for item in range(len(wl.pool)):
            inp = first_pass[item] if pass_index == 0 else wl.make_input(pass_index, item)
            gc.collect()
            ref_before = reference()
            t0 = time.perf_counter()
            try:
                out, error = wl.run(inp), None
            except Exception:  # an operation that raises is a failed operation
                out, error = None, traceback.format_exc(limit=2)[-400:]
            t1 = time.perf_counter()
            inside = sampler.during(t0, t1) if sampler else []
            lat = (t1 - t0) - sum(spent for _, spent in inside)
            refs = [ref_before, *(ref for ref, _ in inside), reference()]
            references.append(sum(refs) / len(refs))
            raw.append(lat)
            latencies.append(lat * REFERENCE_S / references[-1])
            timed += lat
            answer = None
            if error is None:
                try:
                    answer = wl.answer(item, out)
                    if not wl.ok(item, out):
                        error = "wrong answer"
                except Exception:  # an answer that cannot be read is wrong
                    error = "unreadable answer: " + traceback.format_exc(limit=2)[-400:]
            if error is not None:
                failures.append(f"pass {pass_index} item {item}: {error}")
            if pass_index == 0:
                answers.append(answer)
            if time.monotonic() - wall0 > WALL_LIMIT_S:
                break
        else:
            pass_index += 1
            if args.passes and pass_index >= args.passes:
                break
            if not args.passes and timed >= args.seconds:
                break
            continue
        break

    if sampler:
        sampler.stop()
    run_errors = []
    if not inputs_ok:
        run_errors.append("input digest differs from expected.json")
    if args.seed == wl.default_seed and len(answers) == len(wl.pool):
        if workloads.digest(answers) != wl.expected["answers_digest"]:
            run_errors.append("answer digest differs from expected.json")

    who = resource.RUSAGE_CHILDREN if args.workload == "corpus_cli" else resource.RUSAGE_SELF
    result = {
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "reference_s": references,
        "timed_s": sum(latencies),
        "wall_s": time.monotonic() - wall0,
        "attempted": len(latencies),
        "failed": len(failures),
        "errors": (run_errors + failures)[:5],
        "correct": not failures and not run_errors,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.write_spans(Path(args.spans_out))
    elif args.trace:
        result["layers"] = wl.trace_totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
