"""Serving benchmark of the PHom query service: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf-serve --seed 1 --seconds 10 --trace 0

``--trace 0`` replays the workload through a 2-worker ``QueryService`` in
rounds until ``--seconds`` of replay time are spent and prints the
end-to-end metrics; ``--trace 1`` makes the traced run instead and prints
the per-layer ledger (see ``perfbench/README.md``).  Every answer of an
unmeasured warm-up round is checked against a single-process reference,
and every measured round must repeat it exactly.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (environment, sample
counts and the workload's shape counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: Scratch space for WAL directories and trace files, removed after a run.
WORK_DIR = ROOT / ".perfbench_work"

#: Where the traced run leaves its harness and program spans.
TRACE_DIR = ROOT / ".perfbench_traces"


def _commit() -> str:
    """The checkout's commit, read from ``.git`` inside it when present."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    from workloads import NUM_WORKERS

    return {
        "cpus": os.cpu_count(),
        "workers": NUM_WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


#: Bare set-ups (start the pool, register, close) measured per run, beside
#: the set-up of each round: ``setup_s`` is the median of them all.
SETUP_SAMPLES = 8


def untraced_run(workload, seconds: float, work: str) -> tuple:
    """Rounds until ``seconds`` of replay time; returns (result, record).

    A first warm-up round is checked but not measured: it pays one-time
    process costs no later round does.  Each metric is the median over
    the measured rounds of that round's value.
    """
    from harness import (
        attempts_per_round, peak_rss_mb, percentile, reference_mismatches, run_round, set_up,
    )

    def fresh_dir() -> str:
        return tempfile.mkdtemp(dir=work)

    warm_up = run_round(workload, fresh_dir())
    setups = []
    for _ in range(SETUP_SAMPLES):
        service, seconds_taken = set_up(workload, fresh_dir())
        service.close()
        setups.append(seconds_taken)
    rounds = []
    replay_s = 0.0
    while not rounds or replay_s < seconds:
        rounds.append(run_round(workload, fresh_dir()))
        replay_s += rounds[-1].elapsed_s
    rss = peak_rss_mb()
    errors = reference_mismatches(workload, warm_up.answers)
    for index, other in enumerate(rounds, start=1):
        if other.answers != warm_up.answers:
            errors.append(f"round {index} answers differ from the warm-up round")
        if other.shape != warm_up.shape:
            errors.append(f"round {index} shape counts differ: {other.shape} != {warm_up.shape}")
    def per_round(measure) -> float:
        # The median over rounds: a burst of load from outside the
        # benchmark that spans less than half the rounds cannot move it.
        return statistics.median(measure(r) for r in rounds)

    metrics = {
        "answers_per_s": (per_round(lambda r: r.timed_answers / r.elapsed_s), "1/s"),
        "call_p50_ms": (per_round(lambda r: percentile(r.call_ms, 50)), "ms"),
        "call_p90_ms": (per_round(lambda r: percentile(r.call_ms, 90)), "ms"),
        "update_p50_ms": (per_round(lambda r: percentile(r.update_ms, 50)), "ms"),
        "setup_s": (statistics.median(setups + [r.setup_s for r in rounds]), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    attempted = (len(rounds) + 1) * attempts_per_round(workload)
    failed = sum(r.failed for r in rounds + [warm_up])
    record = {
        "rounds": len(rounds),
        "round_answers_per_s": [round(r.timed_answers / r.elapsed_s, 1) for r in rounds],
        "samples_per_round": {
            "calls": len(warm_up.call_ms),
            "updates": len(warm_up.update_ms),
            "answers": warm_up.timed_answers,
        },
        "shape": warm_up.shape,
        "errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.trace:
            from ledger import traced_run

            result, record = traced_run(workload, args.seconds, work, str(TRACE_DIR))
        else:
            result, record = untraced_run(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), **record}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        import repro  # noqa: F401  - the program under test, from ROOT/src
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
