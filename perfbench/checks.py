"""Output checks, one per operation type.

Each check takes the operation, its exit code, its output (the captured
stdout, or the dual generators for a dual operation) and the reference
data from reference.py, and returns a list of problems; an empty list
means the output is correct.  Nothing here compares against a stored copy
of an earlier output: values come from the independent reference or from
properties the method must have.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from reference import Ring, modring_span_size, monomial_text, read_code

VARIABLE = re.compile(r"x_\(([^)]*)\)\^(\d+)")
GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
GOLAY_LAMBDAS = {8: 1, 12: 48, 16: 78, 24: 1}
CONJECTURE_TARGETS = {1: 6, 2: 8, 3: 12, 4: 20, 5: 36}


# ---- parsing -----------------------------------------------------------------


def parse_poly(text: str) -> dict[str, Fraction]:
    """A rendered polynomial as {canonical monomial text: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, _, factors = term.partition(" * ")
        key = tuple(
            (tuple(int(s) for s in sym.split()), int(e))
            for sym, e in VARIABLE.findall(factors)
        )
        out[monomial_text(key)] = Fraction(coeff)
    return out


def reference_poly(ref) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in ref.items()}


def render(x: Fraction, digits: int = 12) -> str:
    """x rounded half-even to the given significant digits, fixed-point text."""
    if x == 0:
        return "0." + "0" * (digits - 1)
    sign, x = ("-" if x < 0 else ""), abs(x)
    e = len(str(x.numerator)) - len(str(x.denominator))
    if Fraction(10) ** e > x:
        e -= 1
    scale = digits - 1 - e
    m = round(x * Fraction(10) ** scale)
    if scale <= 0:
        return sign + str(m * 10**-scale)
    whole, frac = divmod(m, 10**scale)
    return f"{sign}{whole}.{frac:0{scale}d}"


def rounds_to(value: Fraction, printed: str) -> bool:
    """Whether value, rounded to the printed number of decimals, is printed."""
    decimals = len(printed.partition(".")[2])
    return round(value * 10**decimals) == Fraction(printed) * 10**decimals


def evaluate(poly: dict[str, Fraction], zero) -> Fraction:
    """Value at the point that is 0 on variables where zero(symbols) holds, else 1."""
    total = Fraction(0)
    for key, coeff in poly.items():
        symbols = [tuple(map(int, f.split("^")[0].split("."))) for f in key.split()]
        if not any(zero(s) for s in symbols):
            total += coeff
    return total


def _poly_problems(got, want, what="polynomial") -> list[str]:
    if got == want:
        return []
    diff = sorted(set(got.items()) ^ set(want.items()))[:3]
    return [f"{what} differs from the reference ({len(got)} vs {len(want)} terms), e.g. {diff}"]


# ---- checks ------------------------------------------------------------------


def check_poly(op, rc, out, ref):
    if rc != 0:
        return [f"exit code {rc}"]
    return _poly_problems(parse_poly(out), reference_poly(ref))


def check_macwilliams(op, rc, out, ref):
    lines = out.strip().splitlines()
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not lines or lines[-1] != "EQUAL":
        problems.append("verdict is not EQUAL")
    if not lines or not lines[0].startswith("transform: "):
        return problems + ["no transform line"]
    return problems + _poly_problems(
        parse_poly(lines[0][len("transform: "):]), reference_poly(ref), "transform"
    )


def check_golay_cwe(op, rc, out, ref):
    problems = check_poly(op, rc, out, ref)
    dist = {}
    for key, coeff in parse_poly(out).items():
        weight = sum(int(f.split("^")[1]) for f in key.split() if f.startswith("1^"))
        dist[weight] = dist.get(weight, 0) + coeff
    if dist != GOLAY_WEIGHTS:
        problems.append(f"weight distribution {sorted(dist.items())}")
    return problems


def _design_problems(n, report, want) -> list[str]:
    """One class report against the reference coverage and the lambda identity."""
    k, t, lam = report["weight"], report["t"], report["lambda"]
    cls = want.get(str(k))
    if cls is None:
        return [f"weight {k} has no words"]
    problems = []
    if "min" in cls:
        want_lam = cls["min"] if cls["min"] == cls["max"] else None
        got = (report["min"], report["max"], lam)
        if got != (cls["min"], cls["max"], want_lam):
            problems.append(f"weight {k}: min/max/lambda {got}, reference {cls}")
    if lam is not None and lam * math.comb(n, t) != cls["blocks"] * math.comb(k, t):
        problems.append(f"weight {k}: lambda {lam} breaks lambda*C(n,t) = blocks*C(k,t)")
    return problems


def check_designs(op, rc, out, ref):
    obj = json.loads(out)
    n = read_code(op["ref"]["c"])[1]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if sorted(str(r["weight"]) for r in obj["classes"]) != sorted(ref, key=str):
        problems.append("weight classes differ from the reference")
    for report in obj["classes"]:
        problems += _design_problems(n, report, ref)
    if obj["homogeneous"] != all(r["lambda"] is not None for r in obj["classes"]):
        problems.append("homogeneous verdict disagrees with the classes")
    return problems


def check_golay_designs(op, rc, out, ref):
    problems = check_designs(op, rc, out, ref)
    obj = json.loads(out)
    lams = {r["weight"]: r["lambda"] for r in obj["classes"]}
    if lams != GOLAY_LAMBDAS or obj["homogeneous"] is not True:
        problems.append(f"lambdas {lams}, expected {GOLAY_LAMBDAS}")
    return problems


def check_design_check(op, rc, out, ref):
    n = read_code(op["ref"]["c"])[1]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    return problems + _design_problems(n, json.loads(out), ref)


def check_z4_dual(op, rc, gens, ref):
    desc, n, rows = read_code(op["dual"])
    ring = Ring(desc)
    problems = []
    if any(ring.dot(g, h) for g in rows for h in gens):
        problems.append("a dual generator is not orthogonal to the code")
    if ref["size"] * modring_span_size(desc["k"], gens) != ref["order"] ** n:
        problems.append("|C| * |span of dual generators| != |R|^n")
    return problems


def _value_problems(got: str, dec: str, want: Fraction) -> list[str]:
    problems = []
    if Fraction(got) != want:
        problems.append(f"value {got}, reference {want}")
    if dec != render(want):
        problems.append(f"decimal {dec}, reference {render(want)}")
    return problems


def check_value(op, rc, out, ref):
    fields = out.split()
    problems = [] if rc == 0 else [f"exit code {rc}"]
    return problems + _value_problems(fields[0], fields[1], Fraction(ref))


def check_delta(op, rc, out, ref):
    fields = out.split()
    want = Fraction(ref)
    problems = _value_problems(fields[0], fields[1], want)
    paper = [f[len("paper:"):] for f in fields if f.startswith("paper:")]
    mismatch = bool(paper) and not rounds_to(want, paper[0])
    if paper and fields[-1] != ("MISMATCH" if mismatch else "MATCH"):
        problems.append(f"verdict {fields[-1]} for reference {want} against {paper[0]}")
    if rc != (1 if mismatch else 0):
        problems.append(f"exit code {rc}")
    return problems


def check_mc(op, rc, out, ref):
    fields = dict(f.split(":", 1) for f in out.split()[1:])
    estimate, stderr = Fraction(out.split()[0]), Fraction(fields["stderr"])
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if abs(estimate - Fraction(ref)) > 4 * stderr:
        problems.append(f"estimate {float(estimate)} is beyond 4 standard errors of {ref}")
    if fields["samples"] != op["argv"][op["argv"].index("--samples") + 1]:
        problems.append(f"samples {fields['samples']}")
    return problems


def check_avg_joint(op, rc, out, ref):
    poly = parse_poly(out)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    ones = evaluate(poly, lambda s: False)
    if ones != Fraction(ref["ones"]):
        problems.append(f"value {ones} at the all-ones point, expected |C||D| = {ref['ones']}")
    delta = evaluate(poly, lambda s: s[0] != s[1] and s[2] == 0)
    if delta != Fraction(ref["delta"]):
        problems.append(f"value {delta} at the intersection point, reference {ref['delta']}")
    return problems


def _repro_rows(out):
    return [line.split() for line in out.strip().splitlines()]


def check_repro(op, rc, out, ref):
    rows = _repro_rows(out)
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    problems, failing = [], False
    for fields, want in zip(rows, ref):
        want = Fraction(want)
        printed = fields[4][len("paper:"):]
        match = rounds_to(want, printed)
        problems += _value_problems(fields[2], fields[3], want)
        if fields[5] != ("MATCH" if match else "MISMATCH"):
            problems.append(f"{fields[0]} {fields[1]}: {fields[5]} for reference {want}")
        failing = failing or not match or fields[6] != "spots:5/5"
    if rc != (1 if failing else 0):
        problems.append(f"exit code {rc}")
    return problems


def check_repro_conjecture(op, rc, out, ref):
    rows = _repro_rows(out)
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    for fields, want in zip(rows, ref):
        want = Fraction(want)
        k = int(fields[1][len("wt="):])
        target = CONJECTURE_TARGETS[k]
        expect = [render(want), f"target:{target}", f"gap:{render(abs(want - target))}"]
        if fields[2:] != expect:
            problems.append(f"{fields[0]} {fields[1]}: {fields[2:]}, reference {expect}")
    return problems


CHECKS = {
    name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")
}


def check(op, rc, out, ref) -> list[str]:
    """Problems with one operation's output; parse errors count as problems."""
    try:
        return CHECKS[op["check"]](op, rc, out, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def judge(op, rc, out, err, ref) -> tuple[bool, list[str]]:
    """(failed, problems) of one operation.

    Only a dual that ran out of budget (exit code 2 from the worker) counts
    as failed.  Any other error exit, 2 from a CLI command or None for an
    uncaught exception, is a problem, so a command that starts to fail
    makes the run incorrect rather than quietly faster.
    """
    if "dual" in op and rc == 2:
        return True, []
    if rc not in (0, 1):
        last = (err.strip().splitlines() or ["no message"])[-1]
        return False, [f"exit code {rc}: {last}"]
    return False, check(op, rc, out, ref)
