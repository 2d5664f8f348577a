"""The operation lists of the three workloads, built from a seed.

An operation is a dict:

* ``id``: unique within the list;
* ``kind``: operations of one kind run the same code path; the warm-up
  runs the first operation of each kind;
* ``argv``: a jacweight CLI command line, or ``dual``: a code file whose
  dual ``LinearCode.dual()`` computes (the CLI has no such command);
* ``check``: the name of the output check in checks.py;
* ``ref``: what reference.py computes for the check, or absent;
* ``codes``: the code files and fixtures the operation loads.

Random codes are written as code files into the run directory, so that
every operation loads its codes from disk as a user's command does.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from reference import Ring, span

RINGS = {
    "F2": {"kind": "field", "p": 2, "f": 1},
    "F3": {"kind": "field", "p": 3, "f": 1},
    "F4": {"kind": "field", "p": 2, "f": 2, "primitive_poly": [1, 1, 1]},
    "Z4": {"kind": "modring", "k": 4},
}

# Random (C, D, w) triples per (ring, length) cell of a duality pass, with
# the transforms of SIDES minus those in SLOW.  The two-code transforms of
# length 5 over F4 and Z4 take 1 to 50 s each and vary most from code to
# code; "both" over F4 and Z4 at length 4 and over F3 at length 5 takes 1
# to 2 s.  Without them a pass takes a few seconds and a run makes several.
# F2 cells get four triples each: the many small transforms put the median
# operation among operations of the same size, so that op_p50_ms measures
# the small-transform path and not whichever mid-size one ranks middle.
SIDES = ("single", "first", "second", "both")
SLOW = {("F4", 4, "both"), ("Z4", 4, "both"), ("F3", 5, "both")} | {
    (ring, 5, side) for ring in ("F4", "Z4") for side in ("first", "second", "both")
}
DUALITY_GRID = [
    (ring, n, 4 if ring == "F2" else 1, tuple(s for s in SIDES if (ring, n, s) not in SLOW))
    for ring in ("F2", "F3", "F4", "Z4")
    for n in (3, 4, 5)
]

# the pairs and mask weights of the published table
REFERENCE_PAIRS = [
    ("e8", "e8"),
    ("e8x2", "e8x2"),
    ("d16plus", "d16plus"),
    ("d16plus", "e8x2"),
    ("g24", "g24"),
    ("d24plus", "d24plus"),
    ("g24", "d24plus"),
]
REFERENCE_ROWS = [
    ("e8", "e8", 1), ("e8", "e8", 2), ("e8", "e8", 3),
    ("e8x2", "e8x2", 1), ("d16plus", "d16plus", 1), ("d16plus", "e8x2", 1),
    ("d16plus", "d16plus", 2), ("e8x2", "e8x2", 2), ("d16plus", "e8x2", 2),
    ("d16plus", "d16plus", 3), ("e8x2", "e8x2", 3), ("d16plus", "e8x2", 3),
    ("g24", "g24", 1), ("d24plus", "d24plus", 1), ("g24", "d24plus", 1),
    ("d24plus", "d24plus", 2), ("g24", "g24", 2), ("g24", "d24plus", 2),
    ("d24plus", "d24plus", 3), ("g24", "g24", 3), ("g24", "d24plus", 3),
    ("g24", "g24", 4), ("g24", "g24", 5),
]
LENGTH = {"e8": 8, "e8x2": 16, "d16plus": 16, "g24": 24, "d24plus": 24}


class Builder:
    """Accumulates operations and writes the code files they load."""

    def __init__(self, seed: int, codes_dir: Path):
        self.rng = random.Random(seed)
        self.codes_dir = codes_dir
        self.ops: list[dict] = []
        self.files = 0
        codes_dir.mkdir(parents=True, exist_ok=True)

    def add(self, kind, check, ref=None, argv=None, dual=None, codes=()):
        op = {"id": f"{len(self.ops):03d}-{kind}", "kind": kind, "check": check}
        if argv is not None:
            op["argv"] = [str(a) for a in argv]
            codes = [a for a in op["argv"] if a in LENGTH or a.endswith(".json")] + list(codes)
        else:
            op["dual"] = dual
            codes = [dual]
        op["codes"] = codes
        if ref is not None:
            op["ref"] = ref
        self.ops.append(op)

    def code_file(self, ring: str, rows) -> str:
        self.files += 1
        path = self.codes_dir / f"code{self.files:03d}.json"
        obj = {"name": "", "ring": RINGS[ring], "n": len(rows[0]), "generators": rows}
        path.write_text(json.dumps(obj))
        return str(path)

    def free_code(self, ring: str, n: int, rows: int):
        """Random generator rows spanning order**rows words, no zero column."""
        r = Ring(RINGS[ring])
        while True:
            gens = [[self.rng.randrange(r.order) for _ in range(n)] for _ in range(rows)]
            if len(span(r, n, gens)) == r.order**rows and all(any(c) for c in zip(*gens)):
                return gens

    def mask(self, n: int, k: int) -> str:
        support = set(self.rng.sample(range(n), k))
        return "".join("1" if i in support else "0" for i in range(n))


def duality(b: Builder) -> None:
    for ring, n, copies, sides in DUALITY_GRID:
        q = Ring(RINGS[ring]).order
        for _ in range(copies):
            c = b.code_file(ring, b.free_code(ring, n, 2))
            d = b.code_file(ring, b.free_code(ring, n, 1))
            # every symbol as evenly as n allows, in a random order
            w = b.rng.sample([i % q for i in range(n)], n)
            for side in sides:
                codes = [c] if side == "single" else [c, d]
                ref = {"what": "macwilliams", "side": side, "c": c, "w": w}
                if side != "single":
                    ref["d"] = d
                argv = ["macwilliams", *codes, "--side", side, "--w", "".join(map(str, w))]
                b.add(f"macwilliams-{side}", "macwilliams", ref, argv=argv)
    w = [1, 1] + [0] * 14
    b.add(
        "macwilliams-both",
        "macwilliams",
        {"what": "self_dual_joint", "c": "e8x2", "w": w},
        argv=["macwilliams", "e8x2", "e8x2", "--side", "both", "--w-weight", 2],
    )


def enumeration(b: Builder) -> None:
    # The 18 pair tables (about 150 ms each) have 8 faster operations below
    # them and 4 slower above, so the median operation is one of them.
    b.add("cwe", "golay_cwe", {"what": "table", "codes": ["g24"]}, argv=["cwe", "g24"])
    b.add("cwe", "poly", {"what": "table", "codes": ["d24plus"]}, argv=["cwe", "d24plus"])
    for g in (3, 4):
        ref = {"what": "table", "codes": ["e8"] * g}
        b.add("cwe-g", "poly", ref, argv=["cwe-g", "e8", "-g", g])
    for c, d in (("e8x2", "d16plus"), ("d16plus", "e8x2")):
        b.add("joint-cwe", "poly", {"what": "table", "codes": [c, d]}, argv=["joint-cwe", c, d])
    for k in list(range(1, 9)) * 2:
        w = b.mask(16, k)
        ref = {"what": "table", "codes": ["e8x2", "d16plus"], "w": [int(x) for x in w]}
        b.add("joint-jacobi", "poly", ref, argv=["joint-jacobi", "e8x2", "d16plus", "--w", w])
    for code, t, check in (("d24plus", 2, "designs"), ("d24plus", 3, "designs"), ("g24", 5, "golay_designs")):
        b.add(
            "homogeneous",
            check,
            {"what": "designs", "c": code, "t": t, "coverage": code != "g24"},
            argv=["homogeneous", code, "--t", t],
        )
    for code, wt, t in (("d24plus", 8, 3), ("g24", 8, 5)):
        b.add(
            "design-check",
            "design_check",
            {"what": "designs", "c": code, "t": t, "coverage": True, "weight": wt},
            argv=["design-check", code, "--weight", wt, "--t", t],
        )
    for n, count in ((8, 3), (16, 2)):
        for _ in range(count):
            path = b.code_file("Z4", b.free_code("Z4", n, 2))
            b.add(f"z4-dual-{n}", "z4_dual", {"what": "z4_dual", "c": path}, dual=path)


def averages(b: Builder) -> None:
    b.add(
        "repro-paper",
        "repro_conjecture",
        {"what": "repro", "rows": REFERENCE_ROWS},
        argv=["repro-paper", "--conjecture"],
        codes=list(LENGTH),
    )
    b.add(
        "repro-paper",
        "repro",
        {"what": "repro", "rows": REFERENCE_ROWS},
        argv=["repro-paper"],
        codes=list(LENGTH),
    )
    # g24,g24 also at the table's weights 4 and 5, so that the median
    # operation falls inside this group of similar ones
    for c, d in REFERENCE_PAIRS:
        for k in (1, 2, 3, 4, 5) if c == d == "g24" else (1, 2, 3):
            w = b.mask(LENGTH[c], k)
            ref = {"what": "delta", "c": c, "d": d, "w": [int(x) for x in w]}
            argv = ["avg-joint-jacobi", c, d, "--w", w, "--value-at", "intersection"]
            b.add("avg-joint-value", "value", ref, argv=argv)
    w = b.mask(16, 2)
    ref = {"what": "avg_joint", "c": "e8x2", "d": "e8x2", "w": [int(x) for x in w]}
    b.add("avg-joint-expand", "avg_joint", ref, argv=["avg-joint-jacobi", "e8x2", "e8x2", "--w", w])
    for k in (4,):
        w = b.mask(24, k)
        ref = {"what": "avg_jacobi", "c": "g24", "w": [int(x) for x in w]}
        b.add("avg-jacobi", "poly", ref, argv=["avg-jacobi", "g24", "--w", w])
    for k in (1, 2):
        w = b.mask(8, k)
        ref = {"what": "delta", "c": "e8", "d": "e8", "w": [int(x) for x in w]}
        b.add("delta-brute", "delta", ref, argv=["delta", "e8", "e8", "--w", w, "--method", "brute"])
    # Fixed sampling seeds and masks: the estimates are the same on every run,
    # so the 4-standard-error check cannot fail on an unlucky seed.
    for c, d, k, samples, seed in (
        ("g24", "g24", 1, 4000, 11),
        ("g24", "g24", 2, 4000, 12),
        ("g24", "g24", 3, 4000, 13),
        ("e8x2", "d16plus", 1, 150000, 14),
        ("e8x2", "d16plus", 2, 150000, 15),
        ("d16plus", "d16plus", 3, 150000, 16),
    ):
        w = [1] * k + [0] * (LENGTH[c] - k)
        ref = {"what": "delta", "c": c, "d": d, "w": w}
        argv = ["delta", c, d, "--w-weight", k, "--method", "mc", "--samples", samples, "--seed", seed]
        b.add("delta-mc", "mc", ref, argv=argv)


WORKLOADS = {"duality": duality, "enumeration": enumeration, "averages": averages}


def build(workload: str, seed: int, codes_dir: Path) -> list[dict]:
    b = Builder(seed, codes_dir)
    WORKLOADS[workload](b)
    # The machine's speed drifts over seconds.  In a seeded random order the
    # similar operations around the median sample the whole pass, not one
    # stretch of it, so op_p50_ms follows the run's typical speed as
    # ops_per_s does.
    b.rng.shuffle(b.ops)
    return b.ops
