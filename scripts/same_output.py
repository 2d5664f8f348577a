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

``pin`` writes that map, for this checkout, over the transcript's
operations: every workload at seed 3 and every line of
``scripts/cli_commands.txt`` but the ``-h`` lines, whose bytes follow
argparse's layout and so the Python version.  ``tests/test_transcript.py``
reruns them and compares with the pinned file.

    python3 scripts/same_output.py pin --out tests/transcript.json
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

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT_SEED = 3


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


def run_ops(ops):
    """{id: [exit code, stdout sha256, stderr sha256]} of each operation,
    run in process with the jacweight on sys.path."""
    from jacweight import cli, codes

    results = {}
    for op in ops:
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
    return results


def collect(args):
    sys.path.insert(0, str(Path(args.checkout, "src")))
    from jacweight import cli

    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(Path(args.checkout).resolve()):
        raise SystemExit(f"imported jacweight from {source}, not from {args.checkout}")
    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    print(json.dumps(run_ops(ops)))
    return 0


def transcript(workdir):
    """The results of the transcript's operations, their code files
    written under workdir."""
    ops = build_ops(ROOT, None, [TRANSCRIPT_SEED], ROOT / "scripts" / "cli_commands.txt",
                    Path(workdir))
    return run_ops([op for op in ops if "-h" not in op.get("argv", ())])


def pin(args):
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        results = transcript(tmp)
    lines = [f"{json.dumps(op)}: {json.dumps(result)}" for op, result in results.items()]
    Path(args.out).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(results)} operations pinned in {args.out}")
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
    p = sub.add_parser("pin")
    p.add_argument("--out", required=True, help="transcript file to write")
    p.set_defaults(func=pin)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
