#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and the BENCH file they make.

``run`` runs ``perfbench/run.py`` in a parent checkout and a change
checkout, one pair per seed, the parent first on even pair indices and
the change first on odd ones, each for the ``run_seconds`` of the change
checkout's BENCHMARK.json, and appends one JSON line per run to the
runs file: side, workload, seed and the benchmark's result.  A run that
exits nonzero or prints no result stops it, and nothing is written for
that run.

``summarize`` reads a runs file and writes a BENCH JSON file: for each
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the pairs the change won, and the parent's quartile spread;
with the seeds, the core count, the Python and numpy versions, and the
line count of ``src/`` in both checkouts.

``startup`` times whole fresh processes, one command line per
subcommand (``STARTUP_COMMANDS``), run as the ``jacweight`` entry point
runs them with the checkout's ``src`` on the path and the environment
otherwise as it is, so the interpreter's bytecode setting holds on both
sides.  Each of ``STARTUP_ROUNDS`` rounds runs every command once on
each side, the parent first on even rounds and the change first on odd
ones.  It writes each side's median and quartiles in milliseconds, and
the exit code both sides gave, into the BENCH file as its ``startup``
object, keeping what the file already holds; a command whose exit codes
differ stops it.  Each round also times ``import jacweight.cli`` alone on
each side, from inside a fresh interpreter (``IMPORT_PROBE``), so that a
change to start-up reads apart from the interpreter's and ``site``'s own;
its median and quartiles go to the ``startup`` object as ``import_cli``.

    python3 scripts/bench_pairs.py run --parent P --change C \\
        --workload enumeration --seeds 501-510 --runs runs.jsonl
    python3 scripts/bench_pairs.py summarize --parent P --change C \\
        --runs runs.jsonl --out BENCH_5.json
    python3 scripts/bench_pairs.py startup --parent P --change C \\
        --out BENCH_5.json
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one command line per subcommand for ``startup``
STARTUP_COMMANDS = [
    "cwe e8",
    "cwe-g e8 -g 2",
    "jacobi e8 --w-weight 1",
    "joint-cwe e8 e8",
    "joint-jacobi e8 e8 --w-weight 1",
    "macwilliams e8 --side single --w-weight 2",
    "avg-jacobi e8 --w-weight 1",
    "avg-joint-jacobi e8 e8 --w-weight 1",
    "delta e8 e8 --w-weight 1",
    "design-check e8 --weight 4 --t 3",
    "homogeneous e8 --t 3",
    "repro-paper --conjecture",
]
STARTUP_ROUNDS = 15
ENTRY_POINT = "import sys; from jacweight.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import time; start = time.perf_counter(); import jacweight.cli; "
                "print(time.perf_counter() - start)")


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run(args):
    bench = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    for i, seed in enumerate(seed_range(args.seeds)):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"])],
                cwd=getattr(args, side), capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                raise SystemExit(f"{side} seed {seed} exited {proc.returncode}:\n"
                                 + proc.stderr[-500:])
            record = {"side": side, "workload": args.workload, "seed": seed,
                      "result": json.loads(lines[-1])}
            with open(args.runs, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")


def src_lines(checkout):
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(Path(checkout, "src").rglob("*.py"))
    )


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(args):
    bench = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    records = [json.loads(line) for line in open(args.runs, encoding="utf-8")]
    workloads = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        runs = {side: {r["seed"]: r["result"] for r in records
                       if r["workload"] == name and r["side"] == side}
                for side in ("parent", "change")}
        seeds = sorted(runs["parent"].keys() & runs["change"].keys())
        entry = {
            "seeds": seeds,
            "correct": {side: all(runs[side][s].get("correct") for s in seeds)
                        for side in runs},
            "failed_of_attempted": {
                side: [sum(runs[side][s].get(key, 0) for s in seeds)
                       for key in ("failed", "attempted")]
                for side in runs},
            "metrics": {},
        }
        for metric in bench["end_to_end"]:
            key, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [runs[side][s]["metrics"][key]["value"] for s in seeds]
                      for side in runs}
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            entry["metrics"][key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "change_won_pairs": wins,
                "parent_quartile_spread": parent["q3"] - parent["q1"],
            }
        workloads[name] = entry
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    out = {
        "command": bench["command"] + ["--seconds", str(bench["run_seconds"])],
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy_version},
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


def checkout_env(checkout):
    return {**os.environ, "PYTHONPATH": str(Path(checkout, "src"))}


def fresh_process(checkout, command):
    """(exit code, wall seconds) of one command in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT, *shlex.split(command)],
        cwd=checkout, env=checkout_env(checkout), capture_output=True,
    )
    return proc.returncode, time.perf_counter() - start


def fresh_import(checkout):
    """Seconds that ``import jacweight.cli`` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=checkout,
        env=checkout_env(checkout), capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def compared(times):
    """Each side's median and quartiles of its times, and the medians' ratio."""
    parent, change = quartiles(times["parent"]), quartiles(times["change"])
    return {"parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"]}


def startup(args):
    ms = {command: {"parent": [], "change": []} for command in STARTUP_COMMANDS}
    import_ms = {"parent": [], "change": []}
    codes = {}
    for i in range(STARTUP_ROUNDS):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            import_ms[side].append(fresh_import(getattr(args, side)) * 1000)
        for command in STARTUP_COMMANDS:
            for side in sides:
                rc, seconds = fresh_process(getattr(args, side), command)
                if codes.setdefault(command, rc) != rc:
                    raise SystemExit(f"{command!r} exited {rc} on the {side} side, "
                                     f"{codes[command]} before")
                ms[command][side].append(seconds * 1000)
    commands = {command: {"exit": codes[command], **compared(times)}
                for command, times in ms.items()}
    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    out["startup"] = {"unit": "ms", "rounds": STARTUP_ROUNDS, "commands": commands,
                      "import_cli": compared(import_ms)}
    out_path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="N or N-M")
    p.set_defaults(func=run)
    p = sub.add_parser("summarize")
    p.add_argument("--out", required=True)
    p.set_defaults(func=summarize)
    p = sub.add_parser("startup")
    p.add_argument("--out", required=True)
    p.set_defaults(func=startup)
    for name, p in sub.choices.items():
        p.add_argument("--parent", required=True, help="parent checkout")
        p.add_argument("--change", required=True, help="change checkout")
        if name != "startup":
            p.add_argument("--runs", required=True, help="JSON lines, one per run")
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
