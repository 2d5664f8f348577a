#!/usr/bin/env python3
"""Compare the outputs of two checkouts on the benchmark's operations.

``compare`` builds every operation of the named workloads at the given
seeds with the change checkout's ``perfbench/workloads.py`` (imported,
not modified), adds one operation per line of ``--commands`` (a jacweight
command line, split as a shell would), and runs the whole list in-process
in a fresh interpreter per checkout.  For each operation it compares the
exit code and the sha256 of stdout and of stderr, prints every
difference and a summary line, and exits 1 on any difference.

    python3 scripts/same_output.py compare --parent P --change C --seeds 3,7
    python3 scripts/same_output.py compare --parent P --change C --seeds 3 \\
        --workloads enumeration --commands designs.txt

``collect`` is the per-checkout half: it runs an operations file in one
checkout and prints {id: [exit code, stdout sha256, stderr sha256]}.
An operation runs as perfbench's worker runs it: a CLI command through
``jacweight.cli.main``, a dual through ``LinearCode.dual()`` (its stdout
is the repr of the generators, and BudgetExceeded exits 2), and any
other exception gives exit code None and its type and message.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def seed_list(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def build_ops(change, workload_names, seeds, commands, workdir):
    sys.path.insert(0, str(Path(change, "perfbench").resolve()))
    import workloads

    ops = []
    for name in workload_names or list(workloads.WORKLOADS):
        for seed in seeds:
            for op in workloads.build(name, seed, workdir / f"{name}-{seed}"):
                ops.append({**op, "id": f"{name}-{seed}/{op['id']}"})
    if commands:
        lines = Path(commands).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if line.strip() and not line.lstrip().startswith("#"):
                ops.append({"id": f"commands:{number}", "argv": shlex.split(line)})
    return ops


def compare(args):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        ops = build_ops(args.change, args.workloads, seed_list(args.seeds),
                        args.commands, workdir)
        ops_file = workdir / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")
        results = {}
        for side in ("parent", "change"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "collect",
                 str(Path(getattr(args, side)).resolve()), str(ops_file)],
                capture_output=True, text=True,
            )
            if proc.returncode:
                raise SystemExit(f"{side} exited {proc.returncode}:\n" + proc.stderr[-2000:])
            results[side] = json.loads(proc.stdout)
    differ = 0
    for op in ops:
        parent, change = results["parent"][op["id"]], results["change"][op["id"]]
        if parent != change:
            differ += 1
            print(f"DIFF {op['id']} {op.get('argv', op.get('dual'))}")
            print(f"  parent: {parent}")
            print(f"  change: {change}")
    print(f"{len(ops)} operations, {differ} differ")
    return 1 if differ else 0


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def collect(args):
    sys.path.insert(0, str(Path(args.checkout, "src")))
    from jacweight import cli, codes

    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(Path(args.checkout).resolve()):
        raise SystemExit(f"imported jacweight from {source}, not from {args.checkout}")
    results = {}
    for op in json.loads(Path(args.ops).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if "argv" in op:
                    try:
                        rc = cli.main(op["argv"])
                    except SystemExit as exc:
                        rc = exc.code
                else:
                    try:
                        print(repr(codes.load_code(op["dual"]).dual().generators))
                        rc = 0
                    except codes.BudgetExceeded as exc:
                        print(f"BudgetExceeded: {exc}", file=sys.stderr)
                        rc = 2
            except Exception as exc:  # noqa: BLE001 - compared like any output
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = None
        results[op["id"]] = [rc, sha(out.getvalue()), sha(err.getvalue())]
    print(json.dumps(results))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--seeds", required=True, help="N, N-M, or a comma list of them")
    p.add_argument("--workloads", nargs="*", help="default: every workload")
    p.add_argument("--commands", help="file of jacweight command lines, one a line")
    p.set_defaults(func=compare)
    p = sub.add_parser("collect")
    p.add_argument("checkout")
    p.add_argument("ops", help="operations file written by compare")
    p.set_defaults(func=collect)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
