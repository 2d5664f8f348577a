"""The timed process: runs one workload's operations in-process.

    python3 perfbench/worker.py run RUN_DIR PASSES TRACE
    python3 perfbench/worker.py setup RUN_DIR

``run`` executes an untimed warm-up (the first operation of each kind),
then PASSES timed passes over the whole operation list; with TRACE=1
each of them is followed by a pass with the tracer installed.  Garbage
is collected before each operation, outside its timer, and each output
is checked after the timer stops.  Before each operation, also outside
its timer, the process times CAL_BLOCKS runs of ``calibrate``, a fixed
pure-Python block that shares no code with jacweight: it gauges how fast
the machine runs at that moment (see run.py).  After each timed
operation stdout gets a line ``progress ATTEMPTED FAILED``; the last line
is a JSON summary.

``setup`` times, in this fresh interpreter, importing jacweight.cli and
loading (not enumerating) every code the workload uses, then times
CAL_BLOCKS calibration blocks, and prints both as one JSON list.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

CAL_BLOCKS = 3
CAL_ADD = [[(x + y) % 4 for y in range(4)] for x in range(4)]
CAL_GENS = [tuple((i * j + 1) % 4 for i in range(16)) for j in range(1, 6)]


def calibrate() -> float:
    """Seconds of a fixed block of the work jacweight's hot loops do.

    Table lookups that build tuples, dict counting and integer
    arithmetic, about 3 ms on a 2-core machine.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for c in range(240):
        word = CAL_GENS[c % 5]
        for gen in CAL_GENS:
            word = tuple(CAL_ADD[x][y] for x, y in zip(word, gen))
        key = (word.count(0), word.count(1), word.count(2))
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + c * c) % 1000000007
    return time.perf_counter() - start


def calibration() -> float:
    """Mean seconds of CAL_BLOCKS calibration blocks."""
    return sum(calibrate() for _ in range(CAL_BLOCKS)) / CAL_BLOCKS


def run_op(cli, codes, op):
    """(exit code, output, stderr) of one operation.

    A dual that raises BudgetExceeded exits 2; an uncaught exception of
    either kind of operation gives exit code None and its message.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "argv" in op:
                try:
                    rc = cli.main(op["argv"])
                except SystemExit as exc:
                    rc = exc.code
                return rc, out.getvalue(), err.getvalue()
            try:
                return 0, codes.load_code(op["dual"]).dual().generators, ""
            except codes.BudgetExceeded as exc:
                return 2, None, f"BudgetExceeded: {exc}"
        except Exception as exc:  # noqa: BLE001 - reported as a check problem
            return None, None, f"{type(exc).__name__}: {exc}"


class Runner:
    def __init__(self, run_dir: Path):
        from checks import judge
        from jacweight import cli, codes

        self.judge, self.cli, self.codes = judge, cli, codes
        self.ops = json.loads((run_dir / "ops.json").read_text())
        self.ref = json.loads((run_dir / "ref.json").read_text())
        self.problems: list[str] = []
        # timed operations so far, printed after each so that a run cut by
        # the deadline can still report them
        self.attempted = self.failed = 0

    def timed(self, op):
        """Run, time and check one operation.

        Returns (seconds, failed, output bytes, calibration seconds).
        """
        gc.collect()
        cal = calibration()
        start = time.perf_counter()
        rc, out, err = run_op(self.cli, self.codes, op)
        seconds = time.perf_counter() - start
        failed, problems = self.judge(op, rc, out, err, self.ref.get(op["id"]))
        for problem in problems:
            self.problems.append(f"{op['id']} {op.get('argv', op.get('dual'))}: {problem}")
        return seconds, failed, len(out.encode()) if isinstance(out, str) else 0, cal

    def passes(self, count, tracer=None):
        """[seconds, failed, op id, calibration seconds] per operation,
        and the bytes printed."""
        times, out_bytes = [], 0
        for _ in range(count):
            for op in self.ops:
                if tracer is not None:
                    tracer.op = op["id"]
                seconds, op_failed, nbytes, cal = self.timed(op)
                out_bytes += nbytes
                times.append((seconds, op_failed, op["id"], cal))
                self.attempted += 1
                self.failed += op_failed
                print(f"progress {self.attempted} {self.failed}", flush=True)
        return times, out_bytes


def run(run_dir: Path, passes: int, trace: bool) -> dict:
    runner = Runner(run_dir)
    seen = set()
    for op in runner.ops:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            runner.timed(op)
    if not trace:
        times, _ = runner.passes(passes)
        return {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "times": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "problems": runner.problems,
        }
    from tracing import Tracer

    # Untraced and traced passes alternate, so that the machine's drift in
    # speed over the run falls on both alike and the overhead is their gap.
    tracer = Tracer()
    times, traced = [], []
    for _ in range(passes):
        plain, _ = runner.passes(1)
        tracer.install()
        timed, out_bytes = runner.passes(1, tracer)
        tracer.uninstall()
        times += plain
        traced += timed
        tracer.counts["cli.output_bytes"] += out_bytes
    tracer.write(run_dir / "spans.jsonl")
    op_wall = sum(t[0] for t in traced)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "times": times,
        "layers": {
            "self_s": {k: v / passes for k, v in tracer.self_s.items()},
            "counts": {k: v / passes for k, v in tracer.counts.items()},
            "op_wall_s": op_wall / passes,
            "unattributed_s": (op_wall - tracer.self_time()) / passes,
            "overhead_s": (op_wall - sum(t[0] for t in times)) / passes,
        },
        "problems": runner.problems,
    }


def setup(run_dir: Path) -> float:
    specs = json.loads((run_dir / "codes.json").read_text())
    start = time.perf_counter()
    import jacweight.cli  # noqa: F401
    from jacweight.codes import load_code

    for spec in specs:
        load_code(spec)
    return time.perf_counter() - start


def main(argv) -> int:
    mode, run_dir = argv[1], Path(argv[2])
    if mode == "setup":
        seconds = setup(run_dir)
        print(json.dumps([seconds, calibration()]))
        return 0
    print(json.dumps(run(run_dir, int(argv[3]), argv[4] == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
