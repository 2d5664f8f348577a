import contextlib
import hashlib
import io
import json
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from jacweight import cli
from jacweight.cli import decimal_string, main
from jacweight.codes import load_code


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_decimal_string_significant_digits():
    assert decimal_string(Fraction(24, 5)) == "4.80000000000"
    assert decimal_string(Fraction(256)) == "256.000000000"
    assert decimal_string(Fraction(1, 3), digits=6) == "0.333333"
    assert decimal_string(Fraction(50560, 4199)) == "12.0409621338"
    # round half to even on the digit after the cut
    assert decimal_string(Fraction(25, 2), digits=3) == "12.5"
    assert decimal_string(Fraction(125, 100), digits=2) == "1.2"


def test_delta_golden_line():
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1")
    assert rc == 0
    assert out == "24/5  4.80000000000  paper:4.8  MATCH\n"
    assert err == ""


def test_delta_explicit_mask_matches_class_representative():
    rc, out, _ = run("delta", "e8", "e8", "--w", "10000000")
    assert rc == 0
    assert out == "24/5  4.80000000000  paper:4.8  MATCH\n"


def test_delta_digits_flag():
    rc, out, _ = run("delta", "e8", "e8", "--w-weight", "2", "--digits", "6")
    assert rc == 0
    assert out == "32/5  6.40000  paper:6.4  MATCH\n"


def test_delta_reports_reference_disagreement():
    rc, out, _ = run("delta", "g24", "g24", "--w-weight", "3")
    assert rc == 1
    assert out == "50560/4199  12.0409621338  paper:12.0409962134  MISMATCH\n"


def test_delta_monte_carlo_line_is_reproducible():
    args = (
        "delta", "e8", "e8", "--w-weight", "1",
        "--method", "mc", "--samples", "2000", "--seed", "42",
    )
    rc, out, _ = run(*args)
    assert rc == 0
    assert out == "4.85000000000  stderr:0.0680372  samples:2000  seed:42\n"
    rc2, out2, _ = run(*args)
    assert (rc2, out2) == (rc, out)


def test_delta_monte_carlo_g24_line():
    rc, out, _ = run(
        "delta", "g24", "g24", "--w-weight", "1",
        "--method", "mc", "--samples", "2000", "--seed", "42",
    )
    assert rc == 0
    assert out == "5.90000000000  stderr:0.107512  samples:2000  seed:42\n"


# the numpy Monte Carlo route over F4 and Z4 keys every word on sigma(K)
MC_KEY_GOLDENS = [
    (
        "f4_small",
        "4.99000000000  stderr:0.0738422  samples:2000  seed:42\n",
        '{"method": "mc", "value": 4.99, "decimal": "4.99000000000", "paper": null, "match": null, "samples": 2000, "seed": 42, "stderr": 0.07384223952568802}\n',
    ),
    (
        "z4_small",
        "10.5840000000  stderr:0.0836718  samples:2000  seed:42\n",
        '{"method": "mc", "value": 10.584, "decimal": "10.5840000000", "paper": null, "match": null, "samples": 2000, "seed": 42, "stderr": 0.08367181416847086}\n',
    ),
]


def test_delta_monte_carlo_lines_over_f4_and_z4():
    for name, text, obj in MC_KEY_GOLDENS:
        args = (
            "delta", name, name, "--w-weight", "1",
            "--method", "mc", "--samples", "2000", "--seed", "42",
        )
        assert run(*args) == (0, text, "")
        assert run(*args, "--format", "json") == (0, obj, "")


JOINT_JACOBI_Z4_TERMS = [
    "1 * x_(2 2 0)^2 x_(2 2 1)^1",
    "1 * x_(2 0 1)^1 x_(2 2 0)^2",
    "2 * x_(2 0 0)^1 x_(2 2 0)^1 x_(2 3 1)^1",
    "2 * x_(2 0 0)^1 x_(2 1 1)^1 x_(2 2 0)^1",
    "1 * x_(2 0 0)^2 x_(2 2 1)^1",
    "1 * x_(2 0 0)^2 x_(2 0 1)^1",
    "2 * x_(0 3 1)^1 x_(2 0 0)^1 x_(2 2 0)^1",
    "1 * x_(0 2 1)^1 x_(2 2 0)^2",
    "1 * x_(0 2 1)^1 x_(2 0 0)^2",
    "2 * x_(0 2 0)^1 x_(2 2 0)^1 x_(3 2 1)^1",
    "2 * x_(0 2 0)^1 x_(2 2 0)^1 x_(3 0 1)^1",
    "2 * x_(0 2 0)^1 x_(2 0 0)^1 x_(3 3 1)^1",
    "2 * x_(0 2 0)^1 x_(2 0 0)^1 x_(3 1 1)^1",
    "2 * x_(0 2 0)^1 x_(1 3 1)^1 x_(2 0 0)^1",
    "2 * x_(0 2 0)^1 x_(1 2 1)^1 x_(2 2 0)^1",
    "2 * x_(0 2 0)^1 x_(1 1 1)^1 x_(2 0 0)^1",
    "2 * x_(0 2 0)^1 x_(1 0 1)^1 x_(2 2 0)^1",
    "1 * x_(0 2 0)^2 x_(2 2 1)^1",
    "1 * x_(0 2 0)^2 x_(2 0 1)^1",
    "1 * x_(0 2 0)^2 x_(0 2 1)^1",
    "2 * x_(0 1 1)^1 x_(2 0 0)^1 x_(2 2 0)^1",
    "1 * x_(0 0 1)^1 x_(2 2 0)^2",
    "1 * x_(0 0 1)^1 x_(2 0 0)^2",
    "1 * x_(0 0 1)^1 x_(0 2 0)^2",
    "2 * x_(0 0 0)^1 x_(2 2 0)^1 x_(3 3 1)^1",
    "2 * x_(0 0 0)^1 x_(2 2 0)^1 x_(3 1 1)^1",
    "2 * x_(0 0 0)^1 x_(2 0 0)^1 x_(3 2 1)^1",
    "2 * x_(0 0 0)^1 x_(2 0 0)^1 x_(3 0 1)^1",
    "2 * x_(0 0 0)^1 x_(1 3 1)^1 x_(2 2 0)^1",
    "2 * x_(0 0 0)^1 x_(1 2 1)^1 x_(2 0 0)^1",
    "2 * x_(0 0 0)^1 x_(1 1 1)^1 x_(2 2 0)^1",
    "2 * x_(0 0 0)^1 x_(1 0 1)^1 x_(2 0 0)^1",
    "2 * x_(0 0 0)^1 x_(0 2 0)^1 x_(2 3 1)^1",
    "2 * x_(0 0 0)^1 x_(0 2 0)^1 x_(2 1 1)^1",
    "2 * x_(0 0 0)^1 x_(0 2 0)^1 x_(0 3 1)^1",
    "2 * x_(0 0 0)^1 x_(0 1 1)^1 x_(0 2 0)^1",
    "1 * x_(0 0 0)^2 x_(2 2 1)^1",
    "1 * x_(0 0 0)^2 x_(2 0 1)^1",
    "1 * x_(0 0 0)^2 x_(0 2 1)^1",
    "1 * x_(0 0 0)^2 x_(0 0 1)^1",
]


def test_joint_jacobi_golden_text_and_json():
    args = ("joint-jacobi", "z4_small", "z4_small", "--w-weight", "1")
    assert run(*args) == (0, " + ".join(JOINT_JACOBI_Z4_TERMS) + "\n", "")
    rows = []
    for term in JOINT_JACOBI_Z4_TERMS:
        coeff, _, monomial = term.partition(" * x_(")
        exps = {}
        for var in monomial.split(" x_("):
            symbols, _, power = var.partition(")^")
            exps["(" + symbols.replace(" ", ",") + ")"] = int(power)
        rows.append({"exps": exps, "coeff": f"{coeff}/1"})
    assert run(*args, "--format", "json") == (0, json.dumps(rows) + "\n", "")


def test_value_at_intersection_and_ones():
    rc, out, _ = run(
        "avg-joint-jacobi", "e8", "e8", "--w-weight", "1",
        "--value-at", "intersection",
    )
    assert rc == 0
    assert out == "24/5  4.80000000000\n"
    rc, out, _ = run(
        "avg-joint-jacobi", "e8", "e8", "--w-weight", "1", "--value-at", "ones"
    )
    assert rc == 0
    assert out == "256/1  256.000000000\n"


def test_cwe_text_golden():
    rc, out, _ = run("cwe", "e8")
    assert rc == 0
    assert out == "1 * x_(1)^8 + 14 * x_(0)^4 x_(1)^4 + 1 * x_(0)^8\n"


def test_cwe_json_format():
    rc, out, _ = run("cwe", "e8", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == [
        {"exps": {"(1)": 8}, "coeff": "1/1"},
        {"exps": {"(0)": 4, "(1)": 4}, "coeff": "14/1"},
        {"exps": {"(0)": 8}, "coeff": "1/1"},
    ]


def test_jacobi_with_full_weight_mask():
    rc, out, _ = run("jacobi", "e8", "--w-weight", "8")
    assert rc == 0
    assert out == "1 * x_(1 1)^8 + 14 * x_(0 1)^4 x_(1 1)^4 + 1 * x_(0 1)^8\n"


def test_genus_two_equals_joint_with_itself():
    rc1, out1, _ = run("cwe-g", "e8", "--genus", "2", "--format", "json")
    rc2, out2, _ = run("joint-cwe", "e8", "e8", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_avg_jacobi_is_deterministic_text():
    rc1, out1, _ = run("avg-jacobi", "z4_small", "--w", "012")
    rc2, out2, _ = run("avg-jacobi", "z4_small", "--w", "012")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "1/3 * " in out1


def test_avg_joint_jacobi_expand_smoke():
    rc, out, _ = run(
        "avg-joint-jacobi", "z4_small", "z4_small", "--w-weight", "1", "--expand"
    )
    assert rc == 0
    assert out.startswith("1 * x_(2 2 0)^2 x_(2 2 1)^1")


def test_macwilliams_equal_and_exit_zero():
    rc, out, _ = run("macwilliams", "e8", "--side", "single", "--w-weight", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "EQUAL"
    assert lines[0].startswith("transform: ")
    assert lines[1].startswith("direct: ")
    assert lines[0].split(": ", 1)[1] == lines[1].split(": ", 1)[1]


def test_macwilliams_joint_sides():
    for side in ("first", "second", "both"):
        rc, out, _ = run(
            "macwilliams", "z4_small", "z4_small", "--side", side, "--w-weight", "1"
        )
        assert rc == 0
        assert out.splitlines()[-1] == "EQUAL"


# sha256 and byte length of the stdout of
# "macwilliams NAME NAME --side both --w-weight 1", in text and in JSON
MACWILLIAMS_BOTH_GOLDENS = {
    ("f4_small", "text"): (
        "0fe6deaede599042be399d4651a8a0dfcb684e43a98dc65a3e72e16016779425", 26541
    ),
    ("f4_small", "json"): (
        "94d62428006f025e2f59b284ca8203d581b7145c32961890924e058ea273a4e7", 41740
    ),
    ("z4_small", "text"): (
        "4bcf3ba440b5148577f155b8cd6d0c30d439407805d302c9969c2a79382d9671", 2997
    ),
    ("z4_small", "json"): (
        "ba86c3c5d1c2dcd4c642dac9d840444fb60c49e65dbd2ed51818f68caa58a89a", 5200
    ),
}


def test_macwilliams_both_goldens_over_f4_and_z4():
    for (name, fmt), (digest, length) in MACWILLIAMS_BOTH_GOLDENS.items():
        rc, out, err = run(
            "macwilliams", name, name, "--side", "both", "--w-weight", "1",
            "--format", fmt,
        )
        assert (rc, err) == (0, "")
        if fmt == "text":
            transform, direct, verdict = out.splitlines()
            assert transform.split(": ", 1)[1] == direct.split(": ", 1)[1]
            assert verdict == "EQUAL"
        else:
            obj = json.loads(out)
            assert obj["transform"] == obj["direct"]
            assert obj["verdict"] == "EQUAL"
        assert len(out.encode()) == length
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# (p and generator rows of each code over F_p, --side, --w, the charge
# that exceeds the budget).  Before the transform the words and the
# enumerator table charge at most 32 and 18; after it the direct duals'
# words charge more than the transform.  The first case's four steps form
# 18, 70, 77 and 225 terms (see test_transform_term_budget_gate).
TRANSFORM_BUDGET_CASES = [
    (
        [(2, [[1] * 8]), (2, [[1] * 4 + [0] * 4, [0] * 4 + [1] * 4])],
        "first", "01010101", 225, "transform terms",
    ),
    ([(3, [[1] * 6])], "single", "000000", 504, "group image steps"),
]


@pytest.mark.parametrize("codes, side, w, count, what", TRANSFORM_BUDGET_CASES)
def test_macwilliams_exits_2_on_transform_budget(
    tmp_path, monkeypatch, codes, side, w, count, what
):
    paths = []
    for i, (p, gens) in enumerate(codes):
        path = tmp_path / f"code{i}.json"
        ring = {"kind": "field", "p": p}
        obj = {"name": "", "ring": ring, "n": len(w), "generators": gens}
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    argv = ("macwilliams", *paths, "--side", side, "--w", w)
    monkeypatch.setenv("JF_BUDGET", str(count - 1))
    rc, out, err = run(*argv)
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == f"{count} {what} exceed the budget {count - 1}"
    # at the count itself the transform runs and the direct check is skipped
    monkeypatch.setenv("JF_BUDGET", str(count))
    rc, out, _ = run(*argv)
    assert rc == 0
    assert out.startswith("transform: ")
    assert len(out.splitlines()) == 1


def test_macwilliams_both_charges_every_step(tmp_path, monkeypatch):
    # the zero code over F4 at n = 6: its joint Jacobi polynomial is the one
    # term x_(0 0 1)^2 x_(0 0 0)^4.  The first transform forms 35 and then
    # 350 terms; the second's groups x_(0 . 0) and x_(0 . 1) form 2100 and
    # then 5880.  The full transform has 527136 terms.
    path = tmp_path / "zero.json"
    ring = {"kind": "field", "p": 2, "f": 2}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 6, "generators": []}))
    monkeypatch.setenv("JF_BUDGET", "4096")
    argv = ("macwilliams", str(path), str(path), "--side", "both", "--w-weight", "2")
    rc, out, err = run(*argv, "--format", "json")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "5880 transform terms exceed the budget 4096"
    }


@pytest.mark.parametrize(
    "argv, steps",
    [
        (("macwilliams", "z128_row", "--side", "single", "--w", "110010"), 137379840),
        (("macwilliams", "z64_row", "--side", "single", "--w-weight", "5"), 3335720960),
    ],
)
def test_macwilliams_over_large_rings_is_refused_before_the_characters_cost(
    argv, steps, monkeypatch
):
    # the transform builds one character per ring element before its first
    # charge, so even over Z_128 the refusal comes at once
    monkeypatch.delenv("JF_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run(*argv)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": f"{steps} group image steps exceed the budget 67108864"
    }


def test_z128_value_at_intersection_is_refused_soon(monkeypatch):
    # the point's q^3 = 2097152 entries share one Fraction(0) and one
    # Fraction(1), so the split charge is reached well within the bound
    monkeypatch.delenv("JF_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run("avg-joint-jacobi", "z128_row", "z128_row", "--w", "110010",
                       "--value-at", "intersection")
    assert time.perf_counter() - start < 1.5
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "265655680 composition splits exceed the budget 67108864"
    }


def test_z128_delta_closed_sums_compositions_at_once(monkeypatch):
    # 126 zero-mask groups times 128 compositions of the one-row code; the
    # split walk this replaces had 45077760 charged splits and ran for minutes
    monkeypatch.delenv("JF_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run("delta", "z128_row", "z128_row", "--w", "110010",
                       "--method", "closed")
    assert time.perf_counter() - start < 1
    assert (rc, out, err) == (0, "43/15  2.86666666667\n", "")


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"kind": "modring", "k": 4.5}, "'k' must be an integer, got 4.5"),
        ({"kind": "field", "p": "2"}, "'p' must be an integer, got '2'"),
        (
            {"kind": "field", "p": 2, "f": 2, "primitive_poly": "111"},
            "'primitive_poly' must be a list of integers, got '111'",
        ),
    ],
)
def test_bad_ring_objects_exit_2_with_a_plain_message(tmp_path, ring, message):
    path = tmp_path / "code.json"
    obj = {"name": "", "ring": ring, "n": 2, "generators": [[1, 1]]}
    path.write_text(json.dumps(obj))
    rc, out, err = run("cwe", str(path))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": f"bad ring object: {message}"}


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"kind": "field"}, "a 'field' ring needs the key 'p'"),
        ({"kind": "modring"}, "a 'modring' ring needs the key 'k'"),
    ],
)
def test_ring_objects_without_their_size_key_exit_2(tmp_path, ring, message):
    path = tmp_path / "code.json"
    obj = {"name": "", "ring": ring, "n": 2, "generators": [[1, 1]]}
    path.write_text(json.dumps(obj))
    rc, out, err = run("cwe", str(path))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": f"bad ring object: {message}"}


def test_ring_tables_past_the_budget_exit_2(tmp_path, monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    path = tmp_path / "code.json"
    ring = {"kind": "modring", "k": 100000}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 2, "generators": [[1, 1]]}))
    rc, out, err = run("cwe", str(path))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "10000000000 ring table entries exceed the budget 67108864"
    }


def test_counts_too_long_to_print_exit_2_by_bit_length(tmp_path, monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    path = tmp_path / "code.json"
    poly = [1] + [0] * 19999 + [1]
    ring = {"kind": "field", "p": 2, "f": 20000, "primitive_poly": poly}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 2, "generators": []}))
    start = time.perf_counter()
    for argv, error in (
        (("cwe", str(path)), "at least 2^40000 ring table entries"),
        (("cwe-g", "e8", "-g", "20000"), "at least 2^80000 tuples of codewords"),
        (("cwe-g", "e8", "-g", str(10**10)), "at least 2^40000000000 tuples of codewords"),
        (("cwe-g", "e8", "-g", "28"), f"{16**28} tuples of codewords"),
    ):
        rc, out, err = run(*argv)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": f"{error} exceed the budget 67108864"}
    assert time.perf_counter() - start < 5


def test_a_long_code_is_charged_before_it_is_sized(tmp_path, monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    path = tmp_path / "code.json"
    ring = {"kind": "field", "p": 2}
    path.write_text(json.dumps({"ring": ring, "n": 10**12, "generators": []}))
    start = time.perf_counter()
    rc, out, err = run("cwe", str(path))
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "1000000000000 codeword symbols exceed the budget 67108864"
    }


@pytest.mark.parametrize(
    "n, generators, message",
    [
        (True, [[1]], "n must be a positive integer"),
        (2, [[True, 1]], "generator rows must be lists of integers"),
    ],
)
def test_bools_in_code_files_exit_2(tmp_path, n, generators, message):
    path = tmp_path / "code.json"
    obj = {"name": "", "ring": {"kind": "field", "p": 2}, "n": n,
           "generators": generators}
    path.write_text(json.dumps(obj))
    rc, out, err = run("cwe", str(path))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": message}


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "e8", "e8", "--w-weight", "1", "--digits", "-5"),
        ("delta", "e8", "e8", "--w-weight", "1", "--digits", "0"),
        ("delta", "e8", "e8", "--w-weight", "1", "--method", "mc", "--digits", "0"),
        ("avg-joint-jacobi", "e8", "e8", "--w-weight", "1", "--value-at", "ones",
         "--digits", "0"),
    ],
)
def test_digits_below_one_exit_2(argv):
    rc, out, err = run(*argv)
    assert (rc, out) == (2, "")
    digits = argv[argv.index("--digits") + 1]
    assert json.loads(err) == {
        "error": f"argument --digits: must be at least 1, got {digits}"
    }
    rc, out, _ = run(*argv[:-1], "1")
    assert rc == 0
    assert out


def test_digits_are_charged(monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1", "--digits", "10" * 20)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": f"{'10' * 20} decimal digits exceed the budget 67108864"
    }
    monkeypatch.setenv("JF_BUDGET", "200")
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1", "--digits", "201")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "201 decimal digits exceed the budget 200"}
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1", "--digits", "200")
    assert (rc, out, err) == (0, "24/5  4.8" + "0" * 198 + "  paper:4.8  MATCH\n", "")


def test_digits_are_charged_before_any_work(monkeypatch):
    import jacweight.averages as averages

    calls = []
    real = averages.monte_carlo_delta

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(averages, "monte_carlo_delta", spy)
    monkeypatch.delenv("JF_BUDGET", raising=False)
    argv = ["delta", "g24", "g24", "--w-weight", "1", "--method", "mc",
            "--samples", "100000", "--digits", "100000000"]
    rc, out, err = run(*argv)
    assert (rc, out, calls) == (2, "", [])
    assert json.loads(err) == {
        "error": "100000000 decimal digits exceed the budget 67108864"
    }
    # a command that prints no decimal refuses the same --digits
    rc, out, err = run("cwe", "e8", "--digits", "100000000")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "100000000 decimal digits exceed the budget 67108864"
    }
    rc, out, _ = run(*argv[:-3], "100", "--digits", "10")
    assert (rc, len(calls)) == (0, 1)
    assert out


def test_macwilliams_single_rejects_second_code():
    rc, out, err = run("macwilliams", "e8", "e8", "--side", "single", "--w-weight", "1")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "--side single transforms one code; drop the second"


def test_error_reports_are_json_on_stderr(monkeypatch):
    rc, out, err = run("delta", "nosuchcode", "e8", "--w-weight", "1")
    assert rc == 2
    assert out == ""
    assert "nosuchcode" in json.loads(err)["error"]

    rc, out, err = run("delta", "e8", "e8", "--w", "12a45678")
    assert rc == 2
    assert "12a45678" in json.loads(err)["error"]

    rc, out, err = run("jacobi", "e8")
    assert rc == 2
    assert json.loads(err)["error"] == "give exactly one of --w or --w-weight"

    rc, out, err = run("macwilliams", "z4_small", "f4_small", "--side", "first",
                       "--w-weight", "1")
    assert rc == 2
    assert json.loads(err)["error"] == "codes must share ring and length"

    monkeypatch.setenv("JF_BUDGET", "1000")
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1", "--method", "brute")
    assert rc == 2
    assert out == ""
    assert "exceed the budget 1000" in json.loads(err)["error"]


def test_monte_carlo_samples_past_the_budget_exit_2(monkeypatch):
    argv = ("delta", "e8", "e8", "--w-weight", "1",
            "--method", "mc", "--samples", "2000", "--seed", "42")
    monkeypatch.setenv("JF_BUDGET", "1999")
    rc, out, err = run(*argv)
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert json.loads(last) == {"error": "2000 samples exceed the budget 1999"}
    monkeypatch.setenv("JF_BUDGET", "2000")
    rc, out, err = run(*argv)
    assert (rc, out, err) == (
        0, "4.85000000000  stderr:0.0680372  samples:2000  seed:42\n", ""
    )


def test_monte_carlo_span_symbols_are_charged_on_numpys_stream(tmp_path, monkeypatch):
    # over F4 with |K| = 6 the samples count span sizes of 2 rows on K:
    # 200 samples * 2 rows * 6 symbols
    path = tmp_path / "f4_row.json"
    ring = {"kind": "field", "p": 2, "f": 2}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 6, "generators": [[1] * 6]}))
    argv = ("delta", str(path), str(path), "--w-weight", "0",
            "--method", "mc", "--samples", "200")
    monkeypatch.setenv("JF_BUDGET", "2399")
    assert run(*argv) == (
        2, "", '{"error": "2400 span symbols exceed the budget 2399"}\n'
    )
    monkeypatch.setenv("JF_BUDGET", "2400")
    assert run(*argv) == (
        0, "4.00000000000  stderr:0.00000  samples:200  seed:0\n", ""
    )


def _unit_rows_code(tmp_path, n, k):
    """A binary code of length n spanned by its first k unit rows."""
    path = tmp_path / f"units_{n}_{k}.json"
    ring = {"kind": "field", "p": 2, "f": 1}
    rows = [[int(i == j) for i in range(n)] for j in range(k)]
    path.write_text(json.dumps({"name": "", "ring": ring, "n": n, "generators": rows}))
    return str(path)


OVERFLOW = '{"error": "the sampled statistics overflow a float"}\n'


def test_a_sampled_stderr_past_a_float_exits_2(tmp_path):
    # ranked on numpy's stream: each count is near 2^720, its square is not
    # a float
    path = _unit_rows_code(tmp_path, 400, 390)
    argv = ("delta", path, path, "--w-weight", "340", "--method", "mc",
            "--samples", "50")
    assert run(*argv) == (2, "", OVERFLOW)
    assert run(*argv, "--format", "json") == (2, "", OVERFLOW)


def test_a_ranked_count_past_a_float_exits_2(tmp_path):
    # each count is 2^1190 on numpy's stream, past the float the rank gives
    path = _unit_rows_code(tmp_path, 600, 600)
    argv = ("delta", path, path, "--w-weight", "590", "--method", "mc",
            "--samples", "10")
    assert run(*argv) == (2, "", OVERFLOW)
    assert run(*argv, "--format", "json") == (2, "", OVERFLOW)


def test_a_shuffled_mean_past_a_float_exits_2(tmp_path):
    # |K| = 70 on the shuffles: span sizes whose int mean is past a float
    path = _unit_rows_code(tmp_path, 1200, 1130)
    argv = ("delta", path, path, "--w-weight", "1130", "--method", "mc",
            "--samples", "3")
    assert run(*argv) == (2, "", OVERFLOW)
    assert run(*argv, "--format", "json") == (2, "", OVERFLOW)


def test_monte_carlo_with_one_sample_has_no_stderr():
    argv = ("delta", "e8", "e8", "--w-weight", "1", "--method", "mc",
            "--samples", "1", "--seed", "3")
    assert run(*argv) == (0, "4.00000000000  stderr:none  samples:1  seed:3\n", "")
    rc, out, err = run(*argv, "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["stderr"] is None


def test_a_code_named_twice_is_loaded_once_per_command(monkeypatch):
    calls = []

    def counting_load(spec):
        calls.append(spec)
        return load_code(spec)

    monkeypatch.setattr(cli, "load_code", counting_load)
    rc, out, _ = run("delta", "e8", "e8", "--w-weight", "1")
    assert rc == 0
    assert out.startswith("24/5")
    assert calls == ["e8"]
    # the next command loads its codes afresh
    run("delta", "e8", "e8", "--w-weight", "1")
    assert calls == ["e8", "e8"]


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_argparse_errors_are_json_too():
    rc, out, err = run("delta", "e8", "e8", "--w-weight", "1", "--no-such-flag")
    assert rc == 2
    assert "error" in json.loads(err)

    rc, out, err = run("not-a-command")
    assert rc == 2
    assert "error" in json.loads(err)


def test_design_check_golden():
    rc, out, _ = run("design-check", "g24", "--weight", "8", "--t", "5")
    assert rc == 0
    assert json.loads(out) == {"weight": 8, "t": 5, "lambda": 1, "min": 1, "max": 1}


def test_homogeneous_golden():
    rc, out, _ = run("homogeneous", "e8", "--t", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["t"] == 3
    assert obj["homogeneous"] is True
    assert obj["classes"] == [
        {"weight": 4, "t": 3, "lambda": 1, "min": 1, "max": 1},
        {"weight": 8, "t": 3, "lambda": 1, "min": 1, "max": 1},
    ]


# sha256 of the stdout of the design commands of the enumeration benchmark
DESIGN_GOLDENS = {
    ("homogeneous", "g24", "--t", "5"):
        "a4ea10d82271a26fb1caddbc236e839946743a06bfb31f734db2500abc34008b",
    ("homogeneous", "d24plus", "--t", "3"):
        "7c9deb9ed3609b77bd86a5834bbab06fcb47d46c832cac8d1f3a5a0e62602ebb",
    ("homogeneous", "d24plus", "--t", "2"):
        "906841029c85a897e25c967b97e9ac6704f572c698fbdb042b3a9aef361d073e",
    ("design-check", "g24", "--weight", "8", "--t", "5"):
        "e9198115366577ab66b954cc4a43030720ac0e1fa5bb047e550a42918f1584fe",
    ("design-check", "d24plus", "--weight", "8", "--t", "3"):
        "949615744555bf0ca8a4e65f213f1cbe54161201b4190a62afe0d4755b63d791",
}


@pytest.mark.parametrize("argv", DESIGN_GOLDENS, ids=" ".join)
def test_design_command_goldens(argv, monkeypatch):
    loaded = []

    def recording_load(spec):
        loaded.append(load_code(spec))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_code", recording_load)
    rc, out, err = run(*argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DESIGN_GOLDENS[argv]
    # binary codes are scanned from their packed words
    assert len(loaded) == 1
    assert "words" not in loaded[0].__dict__


@pytest.mark.parametrize("weight", ["-1", "9"])
def test_design_check_refuses_a_weight_outside_the_points(weight):
    rc, out, err = run("design-check", "e8", "--weight", weight, "--t", "1")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": f"block size {weight} is outside 0..8"}


def test_homogeneous_is_stopped_by_the_budget(tmp_path, monkeypatch):
    # two words of 24 symbols; 42504 5-subsets for the full-support class
    path = tmp_path / "repetition.json"
    ring = {"kind": "field", "p": 2}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 24, "generators": [[1] * 24]}))
    for budget, error in (
        (47, "48 codeword symbols exceed the budget 47"),
        (42503, "42504 5-subsets of 24 points exceed the budget 42503"),
    ):
        monkeypatch.setenv("JF_BUDGET", str(budget))
        rc, out, err = run("homogeneous", str(path), "--t", "5")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": error}
    monkeypatch.setenv("JF_BUDGET", "42504")
    rc, out, err = run("homogeneous", str(path), "--t", "5")
    assert (rc, err) == (0, "")
    assert json.loads(out)["classes"] == [
        {"weight": 24, "t": 5, "lambda": 1, "min": 1, "max": 1}
    ]


def test_repro_paper_table():
    rc, out, err = run("repro-paper")
    assert rc == 1
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 23
    mismatches = [line for line in lines if line.endswith("MISMATCH  spots:5/5")]
    matches = [line for line in lines if "  MATCH  " in line]
    assert len(matches) == 22
    assert len(mismatches) == 1
    assert mismatches[0].startswith("g24,g24  wt=3  50560/4199  12.0409621338")
    assert all("spots:5/5" in line for line in lines)


def test_repro_paper_is_byte_deterministic():
    first = run("repro-paper")
    second = run("repro-paper")
    assert first == second


def test_repro_paper_conjecture_mode():
    rc, out, err = run("repro-paper", "--conjecture")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 23
    assert lines[0] == "e8,e8  wt=1  4.80000000000  target:6  gap:1.20000000000"
    for line in lines:
        assert "  target:" in line and "  gap:" in line
    # length-24 weight-1 rows sit close to the conjectured bound of 6
    for name in ("g24,g24", "d24plus,d24plus", "g24,d24plus"):
        row = [line for line in lines if line.startswith(f"{name}  wt=1")]
        assert len(row) == 1
        gap = float(row[0].rsplit("gap:", 1)[1])
        assert gap < 0.12
    again = run("repro-paper", "--conjecture")
    assert again == (rc, out, err)


def test_table_columns_are_charged(tmp_path, monkeypatch):
    # one word, so 1 tuple of codewords at any genus, but 2^30 table columns
    monkeypatch.delenv("JF_BUDGET", raising=False)
    path = tmp_path / "zero.json"
    ring = {"kind": "field", "p": 2}
    path.write_text(json.dumps({"name": "", "ring": ring, "n": 8, "generators": []}))
    start = time.perf_counter()
    rc, out, err = run("cwe-g", str(path), "-g", "30")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": f"{2**30} table columns exceed the budget 67108864"
    }
    rc, out, err = run("cwe-g", str(path), "-g", "3", "--format", "json")
    assert (rc, err) == (0, "")


# each command, and the library functions it must call through their names
# on jacweight.cli, with their call counts; a tracer replaces those names
# after the parser is built, so a command table holding the functions
# themselves would miss every wrapper
TRACED_CALLS = [
    (("cwe", "e8"), {"cwe": 1}),
    (("cwe-g", "e8", "-g", "2"), {"cwe_genus": 1}),
    (("jacobi", "e8", "--w-weight", "1"), {"jacobi": 1}),
    (("joint-cwe", "e8", "e8"), {"joint_cwe": 1}),
    (("joint-jacobi", "e8", "e8", "--w-weight", "1"), {"joint_jacobi": 1}),
    (("macwilliams", "e8", "--side", "single", "--w-weight", "1"),
     {"jacobi": 2, "macwilliams_single": 1}),
    (("macwilliams", "e8", "e8", "--side", "first", "--w-weight", "1"),
     {"joint_jacobi": 2, "macwilliams_first": 1}),
    (("macwilliams", "e8", "e8", "--side", "second", "--w-weight", "1"),
     {"joint_jacobi": 2, "macwilliams_second": 1}),
    (("macwilliams", "e8", "e8", "--side", "both", "--w-weight", "1"),
     {"joint_jacobi": 2, "macwilliams_both": 1}),
    (("avg-jacobi", "e8", "--w-weight", "1"), {"avg_jacobi": 1}),
    (("avg-joint-jacobi", "e8", "e8", "--w-weight", "1"), {"avg_joint_jacobi": 1}),
    (("avg-joint-jacobi", "e8", "e8", "--w-weight", "1", "--value-at", "ones"),
     {"avg_joint_jacobi_value": 1}),
    (("delta", "e8", "e8", "--w-weight", "1"), {"delta": 1}),
    (("design-check", "e8", "--weight", "4", "--t", "3"), {"class_report": 1}),
    (("homogeneous", "e8", "--t", "3"), {"is_t_homogeneous": 1}),
    (("repro-paper", "--conjecture"), {"delta_closed": 23}),
]
LIBRARY_NAMES = sorted({name for _, calls in TRACED_CALLS for name in calls})


@pytest.mark.parametrize(
    "argv, expected", TRACED_CALLS, ids=[" ".join(argv) for argv, _ in TRACED_CALLS]
)
def test_commands_call_library_functions_by_their_cli_names(
    argv, expected, monkeypatch
):
    # built and cached first, as the benchmark worker's warm-up does
    assert run("cwe", "e8")[0] == 0
    calls = Counter()

    def spy(name, fn):
        def called(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return called

    for name in LIBRARY_NAMES:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    rc, _, err = run(*argv)
    assert (rc, err) == (0, "")
    assert calls == expected


# sha256 of the stdout of "jacweight -h" and of "jacweight COMMAND -h" at
# 80 columns
HELP_SHA256 = {
    (): "a785552fee85b838104cee6b66cecd2fe0fd0aae40888a483918d7bdfec787fa",
    ("cwe",): "8b0679336a1043b13bcc8322b5a01cd985c31e2b9951e457033b945552d0ac95",
    ("cwe-g",): "7b532e4c0111523fdc621746211f822a68c1b2545b54a0ed71fcb00559ab0c16",
    ("jacobi",): "814d70d4bf8c973dc701d768a9c1c277e47dbbb3bead29812c13f1b308b90b3b",
    ("joint-cwe",): "2925995a6a6ac019ea69a0fd0074a21c1ee30b2a54344d2242055e3a682e0c64",
    ("joint-jacobi",):
        "edad12c0a07a8b3dba2b21e55f164080749db1671fb9884ae3435a76eedaeee2",
    ("macwilliams",):
        "b0bce31414160edbe6602805309177da7d5d7ece66ec16681ebde33fb8017726",
    ("avg-jacobi",): "b735790742f1d9d5fb2ab3272c9d9b8e987c41d50ec98c61aea7c3f2475a5ee9",
    ("avg-joint-jacobi",):
        "72bc59f2e4d1447452f8d5d9eab1925264a205f6435068e538440cd702b1b74e",
    ("delta",): "35f1f388de3f9f4dcf041830e4da886c3cd3696e982bd996c876952024a2fdce",
    ("design-check",):
        "c239902e535e0962a16ad0ff99720a9edadf37f17f771ee73fb770f4af489e8a",
    ("homogeneous",):
        "45e5493a9096cee4cdcaaab41a388a714b9fe8a2c2ab8243401b06d01df187f5",
    ("repro-paper",):
        "27b2246c6006c373cf892067036b67419b6193fba858b8810de8c76707692492",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="pinned under Python 3.11; argparse lays out help differently by version",
)
def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        rc, out, err = run(*command, "-h")
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# what each command reports when run with none of its arguments
REQUIRED_ARGUMENTS = {
    "cwe": "code",
    "cwe-g": "code, -g/--genus",
    "jacobi": "code",
    "joint-cwe": "code_c, code_d",
    "joint-jacobi": "code_c, code_d",
    "macwilliams": "code_c, --side",
    "avg-jacobi": "code",
    "avg-joint-jacobi": "code_c, code_d",
    "delta": "code_c, code_d",
    "design-check": "code, --weight, --t",
    "homogeneous": "code, --t",
}


def test_commands_without_their_arguments_exit_2():
    for command, missing in REQUIRED_ARGUMENTS.items():
        error = f"the following arguments are required: {missing}"
        assert run(command) == (2, "", json.dumps({"error": error}) + "\n")
