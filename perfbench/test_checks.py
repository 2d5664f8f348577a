"""Each output check accepts a correct output and rejects a corrupted one.

Correct outputs are rendered here from the independent reference, in the
CLI's text formats; the corruptions are a changed coefficient, an average
intersection number off by a small amount, and a wrong lambda.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SMALL = Fraction(1, 10**9)


def poly_text(poly: dict[str, str]) -> str:
    """A reference polynomial in the CLI's text rendering."""
    terms = []
    for key, coeff in sorted(poly.items()):
        factors = []
        for factor in key.split():
            symbols, exp = factor.split("^")
            factors.append(f"x_({symbols.replace('.', ' ')})^{exp}")
        terms.append(f"{coeff} * " + " ".join(factors))
    return " + ".join(terms) or "0"


def bump_first_coefficient(poly: dict[str, str]) -> dict[str, str]:
    key = sorted(poly)[0]
    return {**poly, key: str(Fraction(poly[key]) + 1)}


def expect(op):
    return reference.expected(op, reference.Codes())


@pytest.fixture(scope="module")
def duality_ops(tmp_path_factory):
    return workloads.build("duality", 7, tmp_path_factory.mktemp("codes"))


def test_macwilliams_rejects_changed_coefficient(duality_ops):
    op = next(o for o in duality_ops if o["kind"] == "macwilliams-first")
    ref = expect(op)
    good = f"transform: {poly_text(ref)}\ndirect: {poly_text(ref)}\nEQUAL\n"
    assert checks.check(op, 0, good, ref) == []
    bad = good.replace(poly_text(ref), poly_text(bump_first_coefficient(ref)), 1)
    assert checks.check(op, 0, bad, ref)
    assert checks.check(op, 1, good.replace("EQUAL", "UNEQUAL"), ref)


def test_self_dual_fixture_rejects_changed_coefficient(duality_ops):
    op = next(o for o in duality_ops if o["ref"]["what"] == "self_dual_joint")
    ref = expect(op)
    good = f"transform: {poly_text(ref)}\ndirect: {poly_text(ref)}\nEQUAL\n"
    assert checks.check(op, 0, good, ref) == []
    assert checks.check(op, 0, good.replace(poly_text(ref), poly_text(bump_first_coefficient(ref))), ref)


@pytest.fixture(scope="module")
def enumeration_ops(tmp_path_factory):
    return workloads.build("enumeration", 7, tmp_path_factory.mktemp("codes"))


def test_table_checks_reject_changed_coefficient(enumeration_ops):
    for kind in ("joint-jacobi", "joint-cwe", "cwe-g"):
        op = next(o for o in enumeration_ops if o["kind"] == kind)
        ref = expect(op)
        assert checks.check(op, 0, poly_text(ref), ref) == [], kind
        assert checks.check(op, 0, poly_text(bump_first_coefficient(ref)), ref), kind


def test_golay_cwe_needs_the_golay_weights(enumeration_ops):
    op = next(o for o in enumeration_ops if o["check"] == "golay_cwe")
    ref = expect(op)
    assert checks.check(op, 0, poly_text(ref), ref) == []
    wrong = dict(ref)
    wrong["0^16 1^8"] = "758"
    assert checks.check(op, 0, poly_text(wrong), wrong)


def _homogeneous_output(ref, t, lams):
    classes = [
        {"weight": int(k), "t": t, "lambda": lams.get(int(k)),
         "min": v.get("min", lams.get(int(k))), "max": v.get("max", lams.get(int(k)))}
        for k, v in sorted(ref.items(), key=lambda kv: int(kv[0]))
    ]
    verdict = all(c["lambda"] is not None for c in classes)
    return json.dumps({"t": t, "homogeneous": verdict, "classes": classes})


def test_golay_designs_reject_wrong_lambda(enumeration_ops):
    op = next(o for o in enumeration_ops if o["check"] == "golay_designs")
    ref = expect(op)
    assert checks.check(op, 0, _homogeneous_output(ref, 5, checks.GOLAY_LAMBDAS), ref) == []
    wrong = {**checks.GOLAY_LAMBDAS, 12: 47}
    assert checks.check(op, 0, _homogeneous_output(ref, 5, wrong), ref)


def test_design_checks_reject_wrong_lambda(enumeration_ops):
    for op in (o for o in enumeration_ops if o["check"] in ("designs", "design_check")):
        ref = expect(op)
        t = op["ref"]["t"]
        lams = {int(k): v["min"] for k, v in ref.items() if v["min"] == v["max"]}
        if op["check"] == "designs":
            good = _homogeneous_output(ref, t, lams)
            bad = _homogeneous_output(ref, t, {k: v + 1 for k, v in lams.items()})
        else:
            k = int(op["argv"][op["argv"].index("--weight") + 1])
            cls = ref[str(k)]
            report = {"weight": k, "t": t, "lambda": lams.get(k), "min": cls["min"], "max": cls["max"]}
            good = json.dumps(report)
            # claim a design with the wrong lambda, or one where there is none
            bad_lam = cls["min"] + (report["lambda"] is not None)
            bad = json.dumps({**report, "lambda": bad_lam})
        assert checks.check(op, 0, good, ref) == [], op["argv"]
        assert checks.check(op, 0, bad, ref), op["argv"]


def test_z4_dual_rejects_a_non_orthogonal_or_short_generator_set(enumeration_ops):
    op = next(o for o in enumeration_ops if o["kind"] == "z4-dual-8")
    ref = expect(op)
    desc, n, rows = reference.read_code(op["dual"])
    ring = reference.Ring(desc)
    dual = reference.dual_words(ring, n, rows)
    gens, words = [], {(0,) * n}
    for v in dual:  # greedy generating set of the dual
        if v not in words:
            gens.append(v)
            words = set(reference.span(ring, n, gens))
    assert checks.check(op, 0, tuple(gens), ref) == []
    assert checks.check(op, 0, tuple(gens[:-1]), ref)
    assert checks.check(op, 0, tuple(gens) + ((1,) + (0,) * (n - 1),), ref)


def test_z4_dual_of_length_16_from_the_standard_form(enumeration_ops):
    """A valid dual of a free [16, 2] code, built from C = M [I | A] without scanning."""
    op = next(o for o in enumeration_ops if o["kind"] == "z4-dual-16")
    ref = expect(op)
    _, n, rows = reference.read_code(op["dual"])
    # a free code has a 2x2 minor that is a unit mod 4: odd
    pivots = next(
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]) % 2
    )
    (a, b), (c, d) = ([row[p] for p in pivots] for row in rows)
    inv = pow(a * d - b * c, -1, 4)
    std = [
        [inv * (d * x - b * y) % 4 for x, y in zip(*rows)],
        [inv * (a * y - c * x) % 4 for x, y in zip(*rows)],
    ]
    assert [[row[p] for p in pivots] for row in std] == [[1, 0], [0, 1]]
    gens = []
    for col in range(n):
        if col not in pivots:
            v = [0] * n
            v[col] = 1
            v[pivots[0]], v[pivots[1]] = -std[0][col] % 4, -std[1][col] % 4
            gens.append(tuple(v))
    assert checks.check(op, 0, tuple(gens), ref) == []
    assert checks.check(op, 0, tuple(gens[:-1]), ref)
    doubled = tuple(gens[:-1]) + (tuple(2 * x % 4 for x in gens[-1]),)
    assert checks.check(op, 0, doubled, ref)
    assert checks.check(op, 0, tuple(gens) + ((1,) + (0,) * (n - 1),), ref)


def test_modring_span_size_counts_the_span():
    rng = random.Random(3)
    for k in (4, 6, 9):
        ring = reference.Ring({"kind": "modring", "k": k})
        for _ in range(100):
            n, m = rng.randrange(1, 5), rng.randrange(1, 4)
            scale = rng.choice((1, 2, 3))
            rows = [[scale * rng.randrange(k) % k for _ in range(n)] for _ in range(m)]
            assert reference.modring_span_size(k, rows) == len(reference.span(ring, n, rows)), rows


def test_only_a_dual_out_of_budget_counts_as_failed(enumeration_ops):
    dual = next(o for o in enumeration_ops if o["kind"] == "z4-dual-16")
    table = next(o for o in enumeration_ops if o["kind"] == "joint-cwe")
    assert checks.judge(dual, 2, None, "BudgetExceeded: 4^16 vectors", None) == (True, [])
    failed, problems = checks.judge(table, 2, "", "error: bad mask\n", expect(table))
    assert not failed and "bad mask" in problems[0]
    failed, problems = checks.judge(dual, None, None, "ValueError: no ring", None)
    assert not failed and "ValueError" in problems[0]


def test_a_run_cut_at_the_deadline_reports_incorrect():
    import run

    cut = run.cut_result(b"progress 1 0\nprogress 2 1\n")
    assert cut == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}
    assert run.cut_result(None)["attempted"] == 1


def test_times_at_reference_speed_undo_a_change_of_machine_speed(monkeypatch):
    import run

    # the same four operations, the last two at a speed 1.75x slower,
    # which the calibration blocks around them show alike
    base = [0.1, 0.2, 0.1, 0.2]
    times = [(t * f, 0, str(i), run.CAL_REF_S * f)
             for i, (t, f) in enumerate(zip(base, (1, 1, 1.75, 1.75)))]
    monkeypatch.setattr(run, "CAL_WINDOW", 0)
    assert run.at_reference_speed(times) == pytest.approx(base)


@pytest.fixture(scope="module")
def averages_ops(tmp_path_factory):
    return workloads.build("averages", 7, tmp_path_factory.mktemp("codes"))


def test_value_and_delta_reject_a_small_error(averages_ops):
    for kind in ("avg-joint-value", "delta-brute"):
        op = next(o for o in averages_ops if o["kind"] == kind)
        ref = expect(op)
        want = Fraction(ref)
        good = f"{want.numerator}/{want.denominator}  {checks.render(want)}"
        if kind == "delta-brute":
            good += f"  paper:{checks.render(want, 2)}  MATCH"
        assert checks.check(op, 0, good, ref) == [], kind
        off = want + SMALL
        bad = good.replace(f"{want.numerator}/{want.denominator}", f"{off.numerator}/{off.denominator}")
        assert checks.check(op, 0, bad, ref), kind


def test_mc_rejects_an_estimate_beyond_four_standard_errors(averages_ops):
    op = next(o for o in averages_ops if o["kind"] == "delta-mc")
    ref = Fraction(expect(op))
    samples = op["argv"][op["argv"].index("--samples") + 1]

    def line(estimate):
        return f"{checks.render(estimate)}  stderr:0.1  samples:{samples}  seed:11"

    assert checks.check(op, 0, line(ref + Fraction(39, 100)), str(ref)) == []
    assert checks.check(op, 0, line(ref + Fraction(41, 100)), str(ref))


def test_expanded_average_rejects_a_small_error(averages_ops):
    op = next(o for o in averages_ops if o["kind"] == "avg-joint-expand")
    ref = expect(op)
    delta, ones = Fraction(ref["delta"]), Fraction(ref["ones"])

    def output(agree, differ):
        # x_(0 0 0) is 1 at the intersection point, x_(1 0 0) is 0 there
        return poly_text({"0.0.0^16": str(agree), "1.0.0^16": str(differ)})

    assert checks.check(op, 0, output(delta, ones - delta), ref) == []
    assert checks.check(op, 0, output(delta + SMALL, ones - delta - SMALL), ref)
    assert checks.check(op, 0, output(delta, ones - delta + 1), ref)


def _repro_output(rows, values, flags=None):
    lines = []
    for i, ((c, d, k), value) in enumerate(zip(rows, values)):
        printed = checks.render(value, 6)
        flag = flags[i] if flags else "MATCH"
        lines.append(
            f"{c},{d}  wt={k}  {value.numerator}/{value.denominator}  {checks.render(value)}"
            f"  paper:{printed}  {flag}  spots:5/5"
        )
    return "\n".join(lines) + "\n"


def test_repro_rejects_a_small_error_and_a_wrong_verdict(averages_ops):
    op = next(o for o in averages_ops if o["check"] == "repro")
    ref = expect(op)
    values = [Fraction(v) for v in ref]
    rows = op["ref"]["rows"]
    assert checks.check(op, 0, _repro_output(rows, values), ref) == []
    off = [values[0] + SMALL] + values[1:]
    assert checks.check(op, 0, _repro_output(rows, off), ref)
    flags = ["MISMATCH"] + ["MATCH"] * (len(rows) - 1)
    assert checks.check(op, 1, _repro_output(rows, values, flags), ref)
    assert checks.check(op, 1, _repro_output(rows, values), ref)


def test_repro_conjecture_rejects_a_small_error(averages_ops):
    op = next(o for o in averages_ops if o["check"] == "repro_conjecture")
    ref = expect(op)

    def output(values):
        return "".join(
            f"{c},{d}  wt={k}  {checks.render(v)}  target:{checks.CONJECTURE_TARGETS[k]}"
            f"  gap:{checks.render(abs(v - checks.CONJECTURE_TARGETS[k]))}\n"
            for (c, d, k), v in zip(op["ref"]["rows"], values)
        )

    values = [Fraction(v) for v in ref]
    assert checks.check(op, 0, output(values), ref) == []
    assert checks.check(op, 0, output([values[0] + Fraction(1, 10**8)] + values[1:]), ref)


def test_render_rounds_half_even_at_twelve_digits():
    assert checks.render(Fraction(24, 5)) == "4.80000000000"
    assert checks.render(Fraction(256)) == "256.000000000"
    assert checks.render(Fraction(50560, 4199)) == "12.0409621338"
    assert checks.render(Fraction(25, 2), 3) == "12.5"
    assert checks.render(Fraction(125, 100), 2) == "1.2"
    assert checks.rounds_to(Fraction(50560, 4199), "12.0409621338")
    assert not checks.rounds_to(Fraction(50560, 4199), "12.0409962134")
