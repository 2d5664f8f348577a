"""Input-surface fuzz of the command line, run in-process through cli.main.

Code and ring JSON objects go through `cwe`: wrong types, bools, floats,
missing keys, symbols out of range, empty or ragged rows, huge `f` and
huge `n` with no generators.  Argv flags go through every command but
`repro-paper` on e8, z4_small and f4_small: masks, points, digits,
samples, genus, t and weight, each sometimes dropped or malformed.

Every run is under JF_BUDGET=4096, a per-example deadline of 3 s and a
hard stop at 10 s.  It must exit 0, 1 or 2; on exit 2 the last stderr
line is a JSON {"error": ...}, and no run prints a traceback.

The drawn sizes are capped so that no example allocates more than a few
MB before its charge: rows of at most 40 symbols (a huge n comes with no
rows, or with short ragged ones) and `f` up to 20000 with its modulus.
`--digits` is drawn up to 10^30, since the decimals charge their digits.

`macwilliams` runs on the three small fixtures and on well-formed drawn
code files over F2, F3, F4, F9, Z4 and Z6 (n <= 8, one to three rows) at
every `--side`, in text and in JSON.  A drawn run must exit 0 or 2, since
exit 1 is an UNEQUAL verdict, a transform that differs from the duals'
enumerator; whenever the direct cross-check prints, its verdict is EQUAL.
The transform charges the terms each group's substitution forms, so no
draw grinds.  Drawn codes stay short because the cross-check builds
`LinearCode.dual()`, whose n x n identity is built before any charge.

Well-formed drawn code files over q > 2 (n <= 40, up to three rows) go
through `delta --method mc`, which counts them by span size: at
|K| <= 8 on numpy's stream, and at |K| >= 32, past 62 bits, on the
shuffles.
"""

import contextlib
import io
import json
import os
import signal
from datetime import timedelta

import numpy  # noqa: F401  (imported once here, not inside a timed example)
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jacweight.cli import main

BUDGET = "4096"
CAP_SECONDS = 10
# fixture: (n, q)
FIXTURES = {"e8": (8, 2), "z4_small": (3, 4), "f4_small": (4, 4)}
FUZZ = settings(
    max_examples=200,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow],
)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 5), max_size=2),
)
wide_ints = st.one_of(
    st.integers(-3, 12), st.integers(-(10**6), 10**6), st.just(10**30)
)
int_text = wide_ints.map(str) | st.sampled_from(["", "x", "1.5", "0x10", "-"])


def pick(draw, good, bad):
    """A well-formed value most of the time, a malformed one now and then."""
    return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)


VALID_RINGS = [
    {"kind": "field", "p": 2},
    {"kind": "field", "p": 3},
    {"kind": "field", "p": 2, "f": 2},
    {"kind": "field", "p": 3, "f": 2},
    {"kind": "modring", "k": 4},
    {"kind": "modring", "k": 6},
]


@st.composite
def bad_rings(draw):
    """A valid ring with a key dropped, replaced or added; a huge extension
    degree with its modulus, a short one or none; or no ring object."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        ring = dict(draw(st.sampled_from(VALID_RINGS)))
        key = draw(st.sampled_from(["kind", "p", "f", "k", "primitive_poly", "x"]))
        action = draw(st.sampled_from(["drop", "junk", "int"]))
        if action == "drop":
            ring.pop(key, None)
        elif action == "junk":
            ring[key] = draw(junk)
        else:
            ring[key] = draw(wide_ints | st.integers(2, 10**40))
        return ring
    if choice == 1:
        f = draw(st.integers(20, 20000) | st.integers(10**6, 10**15))
        ring = {"kind": "field", "p": draw(st.sampled_from([2, 3])), "f": f}
        if f <= 20000 and draw(st.booleans()):
            ring["primitive_poly"] = [1] + [0] * (f - 1) + [1]
        elif draw(st.booleans()):
            ring["primitive_poly"] = [1, 1, 1]
        return ring
    return draw(junk)


@st.composite
def code_objects(draw):
    ring = pick(draw, st.sampled_from(VALID_RINGS).map(dict), bad_rings())
    q = ring.get("p", ring.get("k", 2)) if isinstance(ring, dict) else 2
    q = q if type(q) is int and 2 <= q <= 9 else 2
    n = draw(st.integers(1, 40))
    ragged = st.lists(st.integers(0, q - 1), max_size=n + 1)
    if draw(st.integers(0, 7)):
        row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    else:
        symbol = st.integers(-1, q) | junk
        row = st.lists(symbol, min_size=n, max_size=n) | ragged | junk
    generators = pick(draw, st.lists(row, max_size=4), junk)
    shape = draw(st.sampled_from(["plain"] * 6 + ["huge n", "junk n"]))
    if shape == "huge n":
        n = draw(st.integers(10**6, 10**15))
        generators = draw(st.just([]) | st.lists(ragged, max_size=2))
    elif shape == "junk n":
        n = draw(junk | st.integers(-3, 0))
    obj = {"ring": ring, "n": n, "generators": generators}
    obj["name"] = pick(draw, st.text(max_size=3), junk)
    if draw(st.integers(0, 7)) == 0:
        del obj[draw(st.sampled_from(["ring", "n", "generators"]))]
    return obj


@st.composite
def masks(draw, n, q):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return ["--w-weight", pick(draw, st.integers(0, n).map(str), int_text)]
    if choice == 1:
        good = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(
            lambda xs: "".join(map(str, xs))
        )
        bad = st.one_of(
            st.text(alphabet="0123456789,- xa", max_size=12),
            st.lists(st.integers(-1, 4), max_size=10).map(
                lambda xs: ",".join(map(str, xs))
            ),
        )
        return ["--w", pick(draw, good, bad)]
    return draw(st.sampled_from([[], ["--w", "0" * n, "--w-weight", "0"]]))


entry_text = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-5, 5), st.integers(1, 5)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0.5", "-1.25", "2e3", "1e-2"]),
)
bad_entry_text = st.one_of(
    st.sampled_from(["x", "", "1/", "1/0", "nan", "inf"]),
    st.integers(-(10**9), 10**9).map(lambda e: f"1e{e}"),
)


@st.composite
def points(draw, q):
    if draw(st.booleans()):
        return draw(st.sampled_from(["ones", "intersection"]))
    m = q**3 if draw(st.integers(0, 3)) else draw(st.integers(1, 70))
    entries = [pick(draw, entry_text, bad_entry_text) for _ in range(m)]
    return ",".join(entries)


@st.composite
def argvs(draw):
    """One command line over the fixtures, each flag well-formed, malformed
    or dropped."""
    code_c = draw(st.sampled_from(sorted(FIXTURES)))
    code_d = pick(draw, st.just(code_c), st.sampled_from(sorted(FIXTURES)))
    n, q = FIXTURES[code_c]
    mask = draw(masks(n, q))
    command = draw(
        st.sampled_from(
            ["cwe", "cwe-g", "jacobi", "joint-cwe", "joint-jacobi", "macwilliams",
             "avg-jacobi", "avg-joint-jacobi", "delta", "design-check",
             "homogeneous"]
        )
    )
    if command in ("cwe", "cwe-g", "design-check", "homogeneous"):
        argv = [command, code_c]
    elif command in ("jacobi", "avg-jacobi"):
        argv = [command, code_c, *mask]
    elif command == "joint-cwe":
        argv = [command, code_c, code_d]
    elif command == "macwilliams":
        side = pick(draw, st.sampled_from(["first", "second", "both", "single"]),
                    st.just("x"))
        one = (side == "single") != (draw(st.integers(0, 7)) == 0)
        argv = [command, code_c, *([] if one else [code_d]), "--side", side, *mask]
    else:
        argv = [command, code_c, code_d, *mask]
    flags = {
        "cwe-g": [("-g", st.integers(1, 4).map(str))],
        "avg-joint-jacobi": [("--value-at", points(q))],
        "delta": [
            ("--method", st.sampled_from(["closed", "brute", "mc"])),
            ("--samples", st.integers(1, 5000).map(str)),
            ("--seed", st.integers(0, 10**6).map(str)),
        ],
        "design-check": [
            ("--weight", st.integers(0, n).map(str)),
            ("--t", st.integers(0, 4).map(str)),
        ],
        "homogeneous": [("--t", st.integers(0, 4).map(str))],
    }.get(command, [])
    flags += [
        ("--format", st.sampled_from(["text", "json"])),
        ("--digits", st.integers(1, 40).map(str)),
    ]
    bad = int_text | st.just("x")
    for flag, good in flags:
        value = pick(draw, good, bad)
        if draw(st.integers(0, 7)):
            argv += [flag, value]
    return argv


def _grinds(signum, frame):
    raise TimeoutError(f"no exit within {CAP_SECONDS} s")


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run under the budget.

    A run still going after CAP_SECONDS is stopped by SIGALRM with a
    TimeoutError, which fails the example where the deadline, checked
    only once a run returns, would wait for it."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("JF_BUDGET")
    os.environ["JF_BUDGET"] = BUDGET
    handler = signal.signal(signal.SIGALRM, _grinds)
    signal.alarm(CAP_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        if saved is None:
            del os.environ["JF_BUDGET"]
        else:
            os.environ["JF_BUDGET"] = saved
    return rc, out.getvalue(), err.getvalue()


def check_outcome(argv, rc, out, err):
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in out + err, argv
    if rc == 2:
        last = json.loads(err.splitlines()[-1])
        assert set(last) == {"error"}, (argv, err)


@pytest.fixture(scope="module")
def code_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.json"


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pair")
    return folder / "c.json", folder / "d.json"


@given(obj=code_objects())
@FUZZ
def test_code_and_ring_objects_exit_0_or_2(code_path, obj):
    path = code_path
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(["cwe", str(path)])
    check_outcome(obj, rc, out, err)
    assert rc != 1


@given(argvs())
@FUZZ
def test_argv_flags_exit_0_1_or_2(argv):
    rc, out, err = run_cli(argv)
    check_outcome(argv, rc, out, err)


@given(data=st.data())
@FUZZ
def test_monte_carlo_on_drawn_codes_exit_0_or_2(pair_paths, data):
    ring = data.draw(st.sampled_from(VALID_RINGS[1:]))
    q = ring.get("p", ring.get("k")) ** ring.get("f", 1)
    # every ring here takes at least 2 bits a symbol, so |K| >= 32 passes
    # 62 bits and goes to the shuffles
    wide = data.draw(st.booleans())
    n = data.draw(st.integers(32, 40) if wide else st.integers(1, 40))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    for path in pair_paths:
        generators = data.draw(st.lists(row, max_size=3))
        path.write_text(json.dumps({"ring": ring, "n": n, "generators": generators}))
    kept_sizes = range(32, n + 1) if wide else range(min(n, 8) + 1)
    kept = data.draw(st.sampled_from(kept_sizes))
    argv = ["delta", *map(str, pair_paths), "--w-weight", str(n - kept),
            "--method", "mc", "--samples", str(data.draw(st.integers(1, 5000))),
            "--seed", str(data.draw(st.integers(0, 10**6)))]
    rc, out, err = run_cli(argv)
    check_outcome(argv, rc, out, err)
    assert rc != 1


@given(data=st.data())
@FUZZ
def test_macwilliams_on_drawn_codes_exit_0_or_2(pair_paths, data):
    ring = data.draw(st.sampled_from(VALID_RINGS))
    q = ring.get("p", ring.get("k")) ** ring.get("f", 1)
    n = data.draw(st.integers(1, 8))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    for path in pair_paths:
        generators = data.draw(st.lists(row, min_size=1, max_size=3))
        path.write_text(json.dumps({"ring": ring, "n": n, "generators": generators}))
    side = data.draw(st.sampled_from(["single", "first", "second", "both"]))
    codes = pair_paths[:1] if side == "single" else pair_paths
    w = "".join(map(str, data.draw(row)))
    as_json = data.draw(st.booleans())
    argv = ["macwilliams", *map(str, codes), "--side", side, "--w", w,
            *(["--format", "json"] if as_json else [])]
    rc, out, err = run_cli(argv)
    check_outcome(argv, rc, out, err)
    # exit 1 is UNEQUAL: the transform differs from the duals' enumerator
    assert rc != 1, argv
    if rc == 0 and as_json:
        obj = json.loads(out)
        assert obj["verdict"] == (None if obj["direct"] is None else "EQUAL"), argv
    elif rc == 0:
        lines = out.splitlines()
        direct = [line for line in lines if line.startswith("direct: ")]
        assert lines[-1] == "EQUAL" if direct else len(lines) == 1, argv
