"""Command line interface.

Subcommands cover the enumerators, the duality transforms with an
independent cross-check, the permutation averages, design checks,
and a harness that recomputes the published reference table.  Output
is deterministic: polynomials print in canonical term order and
decimals are rendered round-half-even at a fixed number of
significant digits.

One table, `COMMANDS`, gives each subcommand its name, help text, code
arguments, whether it takes a mask, its handler and the enumerator it
prints; one loop builds the subparsers from it, and `cmd_poly` prints
every enumerator.  In `macwilliams` each side names its transform and
the code slots that transform dualises (`SIDES`): single and first (0,),
second (1,), both (0, 1).  The transform gets those codes' sizes, and
the cross-check builds the same enumerator with exactly those codes
replaced by their duals.  The table and `SIDES` call library functions
through lambdas that look up this module's globals when a command runs,
so a tracer that replaces those globals after the parser is built and
cached still sees every call.

Only what every command needs is imported with this module.  The last
column of `COMMANDS` names the modules of `LAZY` a command needs beyond
that (the averages, the design scans, the reference values, `random`),
and `main` binds their names into this module's globals when the command
runs, each only where no value is bound yet: a name that a tracer or a
test spy replaced keeps its replacement.  A module `__getattr__` binds
them the same way on first access from outside, so a tracer or
`monkeypatch.setattr` finds each of them before any command has run,
and what it puts in place is what the command calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from importlib import import_module

from .budget import check_budget
from .codes import BudgetExceeded, CodeFormatError, LinearCode, load_code, weight
from .enumerators import (
    cwe,
    cwe_genus,
    jacobi,
    joint_cwe,
    joint_jacobi,
    macwilliams_both,
    macwilliams_first,
    macwilliams_second,
    macwilliams_single,
)
from .exactnum import NonRationalValue, fraction_str

# modules imported when a command that needs them runs, and the names each
# binds into this module
LAZY = {
    ".averages": (
        "all_ones_point",
        "avg_jacobi",
        "avg_joint_jacobi",
        "avg_joint_jacobi_value",
        "delta",
        "delta_closed",
        "intersection_point",
    ),
    ".designs": ("class_report", "is_t_homogeneous"),
    ".refvalues": (
        "CONJECTURE_TARGETS",
        "REFERENCE_ROWS",
        "matches_reference",
        "reference_string",
    ),
    "random": ("Random",),
}


def _bind(modules) -> None:
    """Bind the names of these modules of LAZY where none is bound yet."""
    for module in modules:
        imported = import_module(module, __package__)
        for name in LAZY[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name):
    for module, lazy in LAZY.items():
        if name in lazy:
            _bind((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

SPOT_CHECK_SEED = 271828
SPOT_CHECKS_PER_ROW = 5


class CliError(Exception):
    """User-facing failure reported as JSON on stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def decimal_string(value, digits: int = 12) -> str:
    """Round-half-even rendering at a fixed significant-digit count."""
    with localcontext() as ctx:
        ctx.prec = max(digits + 15, 40)
        ctx.rounding = ROUND_HALF_EVEN
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        elif isinstance(value, float):
            d = Decimal(repr(value))
        else:
            d = Decimal(value)
        exp = (d.adjusted() if d != 0 else 0) - (digits - 1)
        q = d.quantize(Decimal(1).scaleb(exp), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


def _parse_symbols(text: str, q: int):
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        symbols = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"cannot parse symbol string {text!r}") from exc
    for s in symbols:
        if not 0 <= s < q:
            raise CliError(f"symbol {s} out of range for alphabet size {q}")
    return symbols


def _mask_for(args, code: LinearCode):
    wspec = getattr(args, "w", None)
    wweight = getattr(args, "w_weight", None)
    if (wspec is None) == (wweight is None):
        raise CliError("give exactly one of --w or --w-weight")
    if wweight is not None:
        if not 0 <= wweight <= code.n:
            raise CliError(f"--w-weight must be between 0 and {code.n}")
        return (1,) * wweight + (0,) * (code.n - wweight)
    symbols = _parse_symbols(wspec, code.ring.order)
    if len(symbols) != code.n:
        raise CliError(f"mask length {len(symbols)} does not match n={code.n}")
    return symbols


def _code_name(code: LinearCode, spec: str) -> str:
    if code.name:
        return code.name
    stem = spec.rsplit("/", 1)[-1]
    return stem[:-5] if stem.endswith(".json") else stem


def _emit_poly(poly, args) -> None:
    if args.format == "json":
        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly.render_text())


# ---- subcommand handlers ---------------------------------------------------


def _operands(args) -> list:
    """The command's codes, each loaded once, then its mask if it takes one."""
    codes = [args.load(getattr(args, name)) for name in args.codes]
    return codes + [_mask_for(args, codes[0])] if args.masked else codes


def cmd_poly(args) -> int:
    _emit_poly(args.poly(args, *_operands(args)), args)
    return 0


# side: its transform, given the polynomial and the sizes of the codes in
# its slots, and the code slots that transform dualises
SIDES = {
    "first": (lambda *a: macwilliams_first(*a), (0,)),
    "second": (lambda *a: macwilliams_second(*a), (1,)),
    "both": (lambda *a: macwilliams_both(*a), (0, 1)),
    "single": (lambda *a: macwilliams_single(*a), (0,)),
}


def cmd_macwilliams(args) -> int:
    code_c, w = _operands(args)
    side = args.side
    if side == "single" and args.code_d is not None:
        raise CliError("--side single transforms one code; drop the second")
    if side != "single" and args.code_d is None:
        raise CliError(f"--side {side} needs two codes")
    codes = [code_c] if args.code_d is None else [code_c, args.load(args.code_d)]
    enumerator = jacobi if len(codes) == 1 else joint_jacobi
    transform, slots = SIDES[side]
    transformed = transform(enumerator(*codes, w), *(codes[i].size for i in slots))
    try:
        direct = enumerator(
            *(c.dual() if i in slots else c for i, c in enumerate(codes)), w
        )
    except BudgetExceeded:
        direct = None
    verdict = None if direct is None else (
        "EQUAL" if transformed == direct else "UNEQUAL"
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "transform": transformed.to_json_obj(),
                    "direct": None if direct is None else direct.to_json_obj(),
                    "verdict": verdict,
                }
            )
        )
    else:
        text = transformed.render_text()
        print(f"transform: {text}")
        if direct is not None:
            # equal polynomials render alike, so an EQUAL pair renders once
            print(f"direct: {text if verdict == 'EQUAL' else direct.render_text()}")
            print(verdict)
    return 0 if verdict in (None, "EQUAL") else 1


def _parse_point(text: str, ring):
    if text == "ones":
        return all_ones_point(ring, 3)
    if text == "intersection":
        return intersection_point(ring)
    parts = [p.strip() for p in text.split(",")]
    try:
        # Fraction("1e999999999") would build 10**999999999; an exponent
        # past 4300, the digits Python parses into an int, is refused
        if any(abs(int(e)) > 4300 for e in re.findall(r"[eE]([-+]?[\d_]+)", text)):
            raise ValueError("exponent too large")
        point = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse point {text!r}") from exc
    if len(point) != ring.order**3:
        raise CliError(
            f"point needs {ring.order ** 3} entries, got {len(point)}"
        )
    return point


def cmd_avg_joint_jacobi(args) -> int:
    if args.value_at is None:
        return cmd_poly(args)
    code_c, code_d, w = _operands(args)
    point = _parse_point(args.value_at, code_c.ring)
    value = avg_joint_jacobi_value(code_c, code_d, w, point)
    exact = {
        "value": fraction_str(value), "decimal": decimal_string(value, args.digits)
    }
    print(json.dumps(exact) if args.format == "json" else "  ".join(exact.values()))
    return 0


def cmd_delta(args) -> int:
    code_c, code_d, w = _operands(args)
    result = delta(
        code_c, code_d, w, method=args.method, samples=args.samples, seed=args.seed
    )
    name_c = _code_name(code_c, args.code_c)
    name_d = _code_name(code_d, args.code_d)
    ref = reference_string(name_c, name_d, weight(w))
    exact = isinstance(result.value, Fraction)
    match = None
    if ref is not None and exact:
        match = matches_reference(result.value, ref)
    dec = decimal_string(result.value, args.digits)
    if args.format == "json":
        obj = {
            "method": result.method,
            "value": fraction_str(result.value) if exact else result.value,
            "decimal": dec,
            "paper": ref,
            "match": match,
        }
        if result.method == "mc":
            obj["samples"] = result.samples
            obj["seed"] = result.seed
            obj["stderr"] = result.stderr
        print(json.dumps(obj))
    else:
        if exact:
            line = f"{fraction_str(result.value)}  {dec}"
            if ref is not None:
                line += f"  paper:{ref}  {'MATCH' if match else 'MISMATCH'}"
        else:
            # one sample has no stderr: JSON prints null, text "none"
            err = "none" if result.stderr is None else decimal_string(result.stderr, 6)
            line = f"{dec}  stderr:{err}  samples:{result.samples}  seed:{result.seed}"
        print(line)
    return 1 if match is False else 0


def cmd_design_check(args) -> int:
    code = args.load(args.code)
    report = class_report(code, args.weight, args.t)
    print(json.dumps(report.to_json_obj()))
    return 0


def cmd_homogeneous(args) -> int:
    code = args.load(args.code)
    verdict, reports = is_t_homogeneous(code, args.t)
    obj = {
        "t": args.t,
        "homogeneous": verdict,
        "classes": [r.to_json_obj() for r in reports],
    }
    print(json.dumps(obj))
    return 0


def _spot_masks(n: int, k: int, rng: Random):
    masks = []
    for _ in range(SPOT_CHECKS_PER_ROW):
        pos = set(rng.sample(range(n), k))
        masks.append(tuple(int(i in pos) for i in range(n)))
    return masks


def cmd_repro_paper(args) -> int:
    rng = Random(SPOT_CHECK_SEED)
    rows = []
    all_ok = True
    for name_c, name_d, k, printed in REFERENCE_ROWS:
        code_c = args.load(name_c)
        code_d = args.load(name_d)
        w = (1,) * k + (0,) * (code_c.n - k)
        value = delta_closed(code_c, code_d, w)
        if args.conjecture:
            target = CONJECTURE_TARGETS[k]
            gap = abs(value - target)
            rows.append(
                {
                    "pair": f"{name_c},{name_d}",
                    "wt": k,
                    "decimal": decimal_string(value, args.digits),
                    "target": target,
                    "gap": decimal_string(gap, args.digits),
                }
            )
            continue
        ok = matches_reference(value, printed)
        spots = sum(
            1
            for w2 in _spot_masks(code_c.n, k, rng)
            if delta_closed(code_c, code_d, w2) == value
        )
        spots_ok = spots == SPOT_CHECKS_PER_ROW
        all_ok = all_ok and ok and spots_ok
        rows.append(
            {
                "pair": f"{name_c},{name_d}",
                "wt": k,
                "value": fraction_str(value),
                "decimal": decimal_string(value, args.digits),
                "paper": printed,
                "match": ok,
                "spot_checks": f"{spots}/{SPOT_CHECKS_PER_ROW}",
            }
        )
    if args.format == "json":
        print(json.dumps(rows))
    elif args.conjecture:
        for r in rows:
            print(
                f"{r['pair']}  wt={r['wt']}  {r['decimal']}"
                f"  target:{r['target']}  gap:{r['gap']}"
            )
    else:
        for r in rows:
            flag = "MATCH" if r["match"] else "MISMATCH"
            print(
                f"{r['pair']}  wt={r['wt']}  {r['value']}  {r['decimal']}"
                f"  paper:{r['paper']}  {flag}  spots:{r['spot_checks']}"
            )
    return 0 if args.conjecture or all_ok else 1


# ---- parser ----------------------------------------------------------------


CODE, PAIR = ("code",), ("code_c", "code_d")
AVG, REF, DESIGNS = (".averages",), (".averages", ".refvalues"), (".designs",)

# name, help, code arguments, takes a mask, handler, the enumerator cmd_poly
# prints, called with the arguments, the codes and the mask, and the
# modules of LAZY the command needs
COMMANDS = (
    ("cwe", "complete weight enumerator", CODE, False, cmd_poly,
     lambda args, *ops: cwe(*ops), ()),
    ("cwe-g", "genus-g weight enumerator", CODE, False, cmd_poly,
     lambda args, code: cwe_genus(code, args.genus), ()),
    ("jacobi", "Jacobi polynomial", CODE, True, cmd_poly,
     lambda args, *ops: jacobi(*ops), ()),
    ("joint-cwe", "joint complete weight enumerator", PAIR, False, cmd_poly,
     lambda args, *ops: joint_cwe(*ops), ()),
    ("joint-jacobi", "joint Jacobi polynomial", PAIR, True, cmd_poly,
     lambda args, *ops: joint_jacobi(*ops), ()),
    ("macwilliams", "duality transform with independent cross-check",
     ("code_c",), True, cmd_macwilliams, None, ()),
    ("avg-jacobi", "average Jacobi polynomial", CODE, True, cmd_poly,
     lambda args, *ops: avg_jacobi(*ops), AVG),
    ("avg-joint-jacobi", "average joint Jacobi polynomial", PAIR, True,
     cmd_avg_joint_jacobi, lambda args, *ops: avg_joint_jacobi(*ops), AVG),
    ("delta", "average intersection number", PAIR, True, cmd_delta, None, REF),
    ("design-check", "coverage scan of one weight class", CODE, False,
     cmd_design_check, None, DESIGNS),
    ("homogeneous", "design check of every weight class", CODE, False,
     cmd_homogeneous, None, DESIGNS),
    ("repro-paper", "recompute the published reference table", (), False,
     cmd_repro_paper, None, (*REF, "random")),
)


@functools.cache
def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--digits", type=int, default=12, help="significant digits for decimals"
    )

    mask = argparse.ArgumentParser(add_help=False)
    mask.add_argument("--w", help="mask word: digits or comma-separated symbols")
    mask.add_argument(
        "--w-weight",
        type=int,
        dest="w_weight",
        help="mask weight k; uses the representative with ones first",
    )

    # -h prints the docstring's first two paragraphs
    description = "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="jacweight", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, text, codes, masked, handler, poly, needs in COMMANDS:
        p[name] = sub.add_parser(
            name, parents=[common, mask] if masked else [common], help=text
        )
        for code in codes:
            p[name].add_argument(code)
        p[name].set_defaults(
            func=handler, codes=codes, masked=masked, poly=poly, needs=needs
        )

    p["cwe-g"].add_argument("-g", "--genus", type=int, required=True)
    p["macwilliams"].add_argument("code_d", nargs="?", default=None)
    p["macwilliams"].add_argument("--side", choices=tuple(SIDES), required=True)
    group = p["avg-joint-jacobi"].add_mutually_exclusive_group()
    group.add_argument(
        "--expand", action="store_true", help="print the full polynomial (default)"
    )
    group.add_argument(
        "--value-at",
        dest="value_at",
        help="evaluate instead: 'ones', 'intersection', or comma-separated rationals",
    )
    p["delta"].add_argument(
        "--method", choices=("closed", "brute", "mc"), default="closed"
    )
    p["delta"].add_argument("--samples", type=int, default=10000)
    p["delta"].add_argument("--seed", type=int, default=0)
    p["design-check"].add_argument("--weight", type=int, required=True)
    p["design-check"].add_argument("--t", type=int, required=True)
    p["homogeneous"].add_argument("--t", type=int, required=True)
    p["repro-paper"].add_argument(
        "--conjecture",
        action="store_true",
        help="report gaps to the conjectured limits instead",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.digits < 1:
        parser.error(f"argument --digits: must be at least 1, got {args.digits}")
    # one load per code name for this command: a code named twice is
    # enumerated once, and nothing outlives the call
    args.load = functools.cache(load_code)
    try:
        # charged before any work, also by commands that print no decimal
        check_budget(args.digits, "decimal digits")
        _bind(args.needs)
        return args.func(args)
    except (
        CliError,
        CodeFormatError,
        BudgetExceeded,
        NonRationalValue,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
