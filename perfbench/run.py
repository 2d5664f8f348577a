"""Benchmark of the jacweight CLI: one workload, a whole number of passes.

    python3 perfbench/run.py --workload duality|enumeration|averages \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up builds the workload's inputs from
the seed, computes the expected outputs with the independent reference
(its own process) and times fresh-interpreter start-up (`setup_s`).  A
separate worker process then runs the warm-up and the timed passes and
checks every output.  Every end-to-end time is given at the machine's
reference speed (see `at_reference_speed`).  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

A run that reaches the deadline (DEADLINE_S after start) has its child
stopped and reports correct=false with the timed operations it reached.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Nominal seconds of one pass on a 2-core machine.  The pass count is
# round(seconds / PASS_S), fixed by --seconds alone, so every run of a
# workload makes the same operations in the same mix.  A duality pass takes
# 6 to 7 s, the others 8 to 9 s; at --seconds 24 duality makes four passes
# and the others three, so that each measures 25 to 30 s of operations.
PASS_S = {"duality": 6.0, "enumeration": 8.0, "averages": 8.0}
SETUP_PROBES = 15
# Every child process is stopped by this many seconds after start, so that
# a run ends within the 180 s a run may take even when the code under test
# has become several times slower; a run at today's speed takes 30 to 52 s.
DEADLINE_S = 170
START = time.monotonic()
# A shared host runs this process at one of two speeds, about 1.75x apart,
# and flips between them many times a second; the share of time at the
# fast one drifts over tens of seconds, so raw times of identical runs
# differ by a quarter or more.  The flips slow jacweight's code and a
# fixed block of pure Python alike.  So each measured time is scaled by
# CAL_REF_S over the mean time of the worker's calibration blocks around
# it (those of the CAL_WINDOW operations before and after): the mean, not
# the median, since it follows the share of fast time.  CAL_REF_S is the
# block's median time on a 2-core machine at the slower speed, so scaled
# times read close to plain wall time there.
CAL_REF_S = 0.0032
CAL_WINDOW = 2
# The worker's BLAS is kept to one thread, so that a run uses one core and
# the sampled path's matrix products do not depend on how busy another is.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def child(args) -> str:
    """stdout of a benchmark subprocess; a failure aborts the benchmark."""
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def at_reference_speed(times) -> list[float]:
    """Seconds of each timed operation, scaled to the reference speed."""
    cal = [t[3] for t in times]
    return [
        t[0] * CAL_REF_S / statistics.fmean(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def layer_metrics(layers) -> dict:
    metrics = {name: {"value": layers["self_s"].get(name, 0.0), "unit": "s"}
               for name in tracing.TIME_METRICS}
    metrics.update({name: {"value": layers["counts"].get(name, 0), "unit": "count"}
                    for name in tracing.COUNT_METRICS})
    metrics["cli.output_bytes"]["unit"] = "B"
    for name in ("op_wall_s", "unattributed_s", "overhead_s"):
        metrics[f"trace.{name}"] = {"value": layers[name], "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jacweight" / "cli.py").is_file():
        print(f"no jacweight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    try:
        result = measure(args, run_dir)
    except subprocess.TimeoutExpired as exc:
        print(f"deadline of {DEADLINE_S} s reached in {exc.cmd[1]}", file=sys.stderr)
        result = cut_result(exc.stdout)
    print(json.dumps(result))
    return 0


def measure(args, run_dir: Path) -> dict:
    """Set up, run the worker and return the result object."""
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, run_dir / "codes")
    (run_dir / "ops.json").write_text(json.dumps(ops))
    codes = sorted({spec for op in ops for spec in op["codes"]})
    (run_dir / "codes.json").write_text(json.dumps(codes))
    child([HERE / "reference.py", run_dir / "ops.json", run_dir / "ref.json"])
    setup = [json.loads(child([HERE / "worker.py", "setup", run_dir]))
             for _ in range(SETUP_PROBES + 1)][1:]

    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    out = child([HERE / "worker.py", "run", run_dir, passes, args.trace])
    res = json.loads(out.strip().splitlines()[-1])
    times = res.pop("times")
    (run_dir / "times.json").write_text(json.dumps(times))
    (run_dir / "setup.json").write_text(json.dumps(setup))
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(res["layers"])
    else:
        scaled = at_reference_speed(times)
        done = [s for s, t in zip(scaled, times) if not t[1]]
        metrics = {
            "ops_per_s": {"value": len(done) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(done) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(s * CAL_REF_S / c for s, c in setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def cut_result(stdout) -> dict:
    """Result of a run cut at the deadline, from the worker's progress lines.

    The operation that was running counts as attempted and failed; a run
    cut before the timed passes reports that one operation alone.
    """
    if isinstance(stdout, bytes):
        stdout = stdout.decode(errors="replace")
    progress = [line.split() for line in (stdout or "").splitlines()
                if line.startswith("progress ")]
    attempted, failed = (int(x) for x in progress[-1][1:]) if progress else (0, 0)
    return {"correct": False, "attempted": attempted + 1, "failed": failed + 1, "metrics": {}}


if __name__ == "__main__":
    sys.exit(main())
