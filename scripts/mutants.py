#!/usr/bin/env python3
"""Mutation check of the fast paths: named source patches, each of which
some test must fail.

A mutant names a file under ``src/jacweight``, the (old, new) text
replacements that make it, and the test files that guard its path.  For
each mutant the script copies ``src``, ``tests``, ``scripts``, ``fixtures``
and ``perfbench`` into a temporary directory, replaces every occurrence of
each old text in the copy (an old text that does not occur is an error of
the script, not a survivor), and runs ``pytest -x`` on the guarding files
there, under the hypothesis profile that ``tests/conftest.py`` loads,
which leaves out the explain phase.  The mutant is killed when pytest
fails.  The guarding files are first run once on an unchanged copy, and
must pass.  One line a mutant, then the survivors; the exit code is 1 if
any mutant survives.  Standard library only; nothing under ``src/`` is
changed.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py --list       # names and guarding tests
    python3 scripts/mutants.py NAME ...     # the named mutants
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "fixtures", "perfbench")

# name: (file under src/jacweight, [(old, new), ...], [guarding test files])
MUTANTS = {
    "little-endian polynomial keys": (
        "polynomials.py",
        [('struct.Struct(f">', 'struct.Struct(f"<'), ('"big"', '"little"')],
        ["tests/test_packed_terms.py", "tests/test_polynomials.py"],
    ),
    "renumbering shifted by one column": (
        "codes.py",
        [("rows[width * (v + 1) - 1 - j::out]", "rows[width * ((v + 1) % nvars + 1) - 1 - j::out]")],
        ["tests/test_packed_terms.py", "tests/test_monomial_layout.py"],
    ),
    "renumbering keeping a digit's bytes little-endian": (
        "codes.py",
        [("rows[width * (v + 1) - 1 - j::out]", "rows[width * v + j::out]")],
        ["tests/test_packed_terms.py", "tests/test_monomial_layout.py"],
    ),
    "render dropping the last nonzero digit": (
        "polynomials.py",
        [('pieces[v][exps[v]] for v in compress(variables, exps)])',
          'pieces[v][exps[v]] for v in compress(variables, exps)][:-1])')],
        ["tests/test_polynomials.py", "tests/test_packed_terms.py"],
    ),
    "zero coefficients kept by the constructor": (
        "polynomials.py",
        [("if (c := simplify(coeff))", "if (c := simplify(coeff)) is not None")],
        ["tests/test_polynomials.py"],
    ),
    "zero coefficients kept by the transform": (
        "enumerators.py",
        [("if r := c % modulus:", "if (r := c % modulus) is not None:"),
         ("out.items() if (r := c % modulus))]",
          "out.items() if (r := c % modulus) is not None)]")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "popcounts written into swapped digits": (
        "codes.py",
        [("start += size * at_zero", "start += size * at_one"),
         ("step = at_one - at_zero", "step = at_zero - at_one")],
        ["tests/test_tuple_counts.py", "tests/test_packed_terms.py"],
    ),
    "kept-generator scan run forwards": (
        "codes.py",
        [("_f2_basis(map(_pack, reversed(self.generators)))",
          "_f2_basis(map(_pack, self.generators))"),
         ("self.generators[~i] for i in reversed(grew)", "self.generators[i] for i in grew")],
        ["tests/test_tuple_counts.py", "tests/test_packed_terms.py"],
    ),
    "binary words read with their bit order reversed": (
        "codes.py",
        [("format(x, digits)[::-1]", "format(x, digits)")],
        ["tests/test_tuple_counts.py", "tests/test_codes.py"],
    ),
    "coset tables without their final chunk": (
        "codes.py",
        [("        for _, chunk, table in slots:\n            table.update(chunk)\n",
          "        for _, chunk, table in slots:\n")],
        ["tests/test_tuple_counts.py"],
    ),
    "split convolution starting a new key at 1": (
        "codes.py",
        [("sums[k] = get(k, 0) + mx * my", "sums[k] = get(k, 1) + mx * my")],
        ["tests/test_tuple_counts.py"],
    ),
    "split convolution ignoring the right halves' multiplicities": (
        "codes.py",
        [("sums[k] = get(k, 0) + mx * my", "sums[k] = get(k, 0) + mx")],
        ["tests/test_tuple_counts.py"],
    ),
    "split groups keyed on one constant": (
        "codes.py",
        [("groups.setdefault(frozenset(left.items()), len(groups))",
          "groups.setdefault(frozenset(), len(groups))")],
        ["tests/test_tuple_counts.py"],
    ),
    "a split group's right tables overwriting each other": (
        "codes.py",
        [("rights[g].update(right)", "rights[g] = right")],
        ["tests/test_tuple_counts.py"],
    ),
    "glue cosets taken from a list that repeats a word": (
        "codes.py",
        [("if len(key) < len(lefts):", "if False:")],
        ["tests/test_tuple_counts.py"],
    ),
    "glue cosets keyed by their right half alone": (
        "codes.py",
        [("groups.setdefault(key, (lefts, []))", "groups.setdefault(right, (lefts, []))")],
        ["tests/test_tuple_counts.py"],
    ),
    "split rule without its factor of 8": (
        "codes.py",
        [("if None not in cosets and 8 * (", "if None not in cosets and 1 * (")],
        ["tests/test_tuple_counts.py"],
    ),
    "full-support design class covered once more": (
        "designs.py",
        [("counts = {len(masks)}", "counts = {len(masks) + 1}")],
        ["tests/test_designs.py"],
    ),
    "coverage scan's prefixes stopping one point short": (
        "designs.py",
        [("rest[: len(rest) - depth + 1]", "rest[: len(rest) - depth]")],
        ["tests/test_designs.py"],
    ),
    "Krawtchouk recurrence with K_(j-1)'s factor n - j": (
        "designs.py",
        [("(q - 1) * (n - j + 1) * low", "(q - 1) * (n - j) * low")],
        ["tests/test_designs.py"],
    ),
    "Assmus-Mattson count s without weight n - t": (
        "designs.py",
        [("dual[1 : n - t + 1]", "dual[1 : n - t]")],
        ["tests/test_designs.py", "tests/test_transcript.py"],
    ),
    "Assmus-Mattson lam with C(u, t) and C(n, t) swapped": (
        "designs.py",
        [("divmod(count * math.comb(u, t), math.comb(n, t))",
          "divmod(count * math.comb(n, t), math.comb(u, t))")],
        ["tests/test_designs.py", "tests/test_transcript.py"],
    ),
    # At t = d the hypothesis s <= 0 holds for MDS codes alone, every class
    # of which is a design, so reports do not change: the test of the
    # route's scope kills it.
    "Assmus-Mattson without its t < d guard": (
        "designs.py",
        [("not 1 <= t < d", "not 1 <= t")],
        ["tests/test_designs.py"],
    ),
    "bit-sliced carry stopping after one plane": (
        "codes.py",
        [("while carry:", "if carry:")],
        ["tests/test_tuple_counts.py", "tests/test_packed_terms.py"],
    ),
    "cells not sorted by their lowest set bit": (
        "codes.py",
        [("cells.append(((mask & -mask).bit_length(), key, mask.bit_count()))",
          "cells.append((mask.bit_length(), key, mask.bit_count()))")],
        ["tests/test_tuple_counts.py", "tests/test_packed_terms.py"],
    ),
    "a signature's multiplicity taken as 1": (
        "codes.py",
        [("classes[symbols[-1]].append((_column(patterns, symbols), mult))",
          "classes[symbols[-1]].append((_column(patterns, symbols), 1))")],
        ["tests/test_tuple_counts.py", "tests/test_packed_terms.py"],
    ),
    # The group shift alone from the old layout, base * bits, is an equivalent
    # mutant: it reads the group of the mirrored base, variable v at
    # nvars - 1 - v, whose slot digits run the same way, and every group is
    # read once.  So the places go with it.
    "transform group shift and places from the old layout": (
        "enumerators.py",
        [("shift = (nvars - 1 - base - (q - 1) * stride) * bits", "shift = base * bits"),
         ("shifts = [(q - 1 - a) * stride * bits for a in range(q)]",
          "shifts = [a * stride * bits for a in range(q)]")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "transform group places from the old layout": (
        "enumerators.py",
        [("shifts = [(q - 1 - a) * stride * bits for a in range(q)]",
          "shifts = [a * stride * bits for a in range(q)]")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "transform characters indexed by a + b": (
        "enumerators.py",
        [("units[ring.mul(a, b)]", "units[ring.add(a, b)]")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "group image exponents read one digit off": (
        "enumerators.py",
        [("exps = [packed >> s & digit_mask for s in shifts]",
          "exps = [packed >> s + bits & digit_mask for s in shifts]")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "term degree of 2^bits - 1 cast out to 0": (
        "enumerators.py",
        [("degrees = [(k - 1) % digit_mask + 1 if k else 0 for k in poly.packed]",
          "degrees = [k % digit_mask for k in poly.packed]")],
        ["tests/test_packed_terms.py"],
    ),
    "both divided by one code's size": (
        "enumerators.py",
        [("_macwilliams(poly, (0, 1), size_c * size_d)", "_macwilliams(poly, (0, 1), size_c)")],
        ["tests/test_enumerators.py"],
    ),
    "idle terms dropped from the next group's buckets": (
        "enumerators.py",
        [("for item in idle:", "for item in idle[:0]:")],
        ["tests/test_packed_terms.py", "tests/test_enumerators.py"],
    ),
    "packed keys compared across digit widths": (
        "polynomials.py",
        [("if self.layout[1] == other.layout[1]", "if True")],
        ["tests/test_packed_terms.py", "tests/test_polynomials.py"],
    ),
    "rank counter skipping the pivot XOR into the free rows": (
        "averages.py",
        [("rows[ix] ^= moved[low]", "rows[ix] ^= moved[low] & 0")],
        ["tests/test_averages.py"],
    ),
    "rank elimination stopped one row early": (
        "averages.py",
        [("for r in range(len(rows) - 1):", "for r in range(len(rows) - 2):")],
        ["tests/test_averages.py"],
    ),
    "rank columns one dtype too narrow at its edge": (
        "averages.py",
        [("np.min_scalar_type((1 << len(basis)) - 1)",
          "np.min_scalar_type((1 << len(basis)) - 1 >> 1)")],
        ["tests/test_averages.py"],
    ),
    "rank counter taking all of K as free rows": (
        "averages.py",
        [("free = [j for j in range(len(keep)) if j not in lows]",
          "free = list(range(len(keep)))")],
        ["tests/test_averages.py"],
    ),
    "span counter reading C's rows on K, not sigma(K)": (
        "averages.py",
        [("tuple(g[sigma[i]] for i in keep)", "tuple(g[i] for i in keep)")],
        ["tests/test_averages.py"],
    ),
    "span counter leaving out D's rows": (
        "averages.py",
        [("_span_size(ring, moved + fixed, s)", "_span_size(ring, moved, s)")],
        ["tests/test_averages.py"],
    ),
    "span symbols charged on the shuffles alone": (
        "averages.py",
        [('        check_budget(samples * rows * s, "span symbols")',
          '        if shuffled:\n            check_budget(samples * rows * s, "span symbols")')],
        ["tests/test_cli.py"],
    ),
    "sampled statistics past a float let through": (
        "averages.py",
        [("except ArithmeticError:", "except ZeroDivisionError:"),
         ("if stderr == math.inf:", "if False:")],
        ["tests/test_cli.py", "tests/test_averages.py"],
    ),
    # a negative index reads a factorial from the end of the list, not 0
    "closed delta without the comp_a < col0_a guard": (
        "averages.py",
        [("if have < c:", "if False:")],
        ["tests/test_averages.py"],
    ),
    "closed delta reading col0 one digit off": (
        "averages.py",
        [("bits * (q * q - 1 - a * q)", "bits * (q * q - 2 - a * q)")],
        ["tests/test_averages.py"],
    ),
    "placements with the variable index of a split swapped": (
        "averages.py",
        [("(a * m + r)", "(r * q + a)")],
        ["tests/test_averages.py"],
    ),
    "weight distribution reading the digit of symbol 1": (
        "codes.py",
        [("top = table.layout[1] * (self.ring.order - 1)",
          "top = table.layout[1] * (self.ring.order - 2)")],
        ["tests/test_tuple_counts.py", "tests/test_codes.py"],
    ),
    "packed digits numbered from the wrong end": (
        "polynomials.py",
        [("out.append((self.nvars - 1 - d, e))", "out.append((d, e))")],
        ["tests/test_packed_terms.py", "tests/test_averages.py"],
    ),
    "closed delta with the mask weight L taken as n": (
        "averages.py",
        [("Fraction(total * fact[ell], fact[n])", "Fraction(total * fact[n], fact[n])")],
        ["tests/test_averages.py"],
    ),
    "streamed value without a split's multinomial": (
        "averages.py",
        [("key, weight = 0, multinomial(cell, parts)", "key, weight = 0, 1")],
        ["tests/test_averages.py"],
    ),
    "streamed value without a split's point power": (
        "averages.py",
        [("weight *= point[b * m + r] ** e", "weight *= 1")],
        ["tests/test_averages.py"],
    ),
    "transform values left as rational Cyclotomics": (
        "exactnum.py",
        [("return simplify(Cyclotomic(self.m, [c * scale for c in coeffs]))",
          "return Cyclotomic(self.m, [c * scale for c in coeffs])")],
        ["tests/test_enumerators.py"],
    ),
    "JSON printing an int count without its denominator": (
        "exactnum.py",
        [("    return fraction_str(value)\n",
          "    return str(value) if type(value) is int else fraction_str(value)\n")],
        ["tests/test_packed_terms.py"],
    ),
    "LinearCode equality reading its name": (
        "codes.py",
        [('    _uncompared = ("name",)\n', "")],
        ["tests/test_records.py"],
    ),
    "record assignment guard dropped": (
        "rings.py",
        [("    def __setattr__(self, name, value):\n"
          "        raise AttributeError(f\"cannot assign to field {name!r}\")\n", "")],
        ["tests/test_records.py"],
    ),
    "RingSpec repr showing its tables": (
        "rings.py",
        [("_uncompared = _unshown = (", "_uncompared = (")],
        ["tests/test_records.py"],
    ),
    # The rank counter needs every pivot's low slot clear in the other pivots;
    # `_kept` does not, as the rows that grow a basis stay the same.
    "F2 basis left without back-substitution": (
        "codes.py",
        [("basis = [p ^ x if p & x & -x else p for p in basis] + [x]",
          "basis = basis + [x]")],
        ["tests/test_codes.py", "tests/test_averages.py"],
    ),
    "transposed columns read one position off": (
        "codes.py",
        [("digits[n - 1 - p :: n]", "digits[n - 2 - p :: n]")],
        ["tests/test_codes.py", "tests/test_designs.py", "tests/test_averages.py"],
    ),
    # Scaling each pivot by u = 1 instead is an equivalent mutant: an
    # associate of the pivot entry has the same ideal and annihilators, so
    # the spans, and every dual and |C|, are the same.
    "echelon pivots scaled by a zero divisor": (
        "codes.py",
        [("units = [u for u in elements if 1 in mul[u]]",
          "units = [u for u in elements if u]")],
        ["tests/test_codes.py"],
    ),
}


def run_mutant(target, patches, tests):
    """True if the tests fail on the source so patched; the seconds they took."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in COPIED:
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        path = Path(tmp, "src", "jacweight", target)
        source = path.read_text(encoding="utf-8")
        for old, new in patches:
            if old not in source:
                raise SystemExit(f"{old!r} not found in {target}")
            source = source.replace(old, new)
        path.write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        return proc.returncode != 0, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args()
    if args.list:
        for name, (target, _, tests) in MUTANTS.items():
            print(f"{name}: {target}; {' '.join(tests)}")
        return 0
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}")
    names = args.names or list(MUTANTS)
    guards = sorted({test for name in names for test in MUTANTS[name][2]})
    failed, seconds = run_mutant("polynomials.py", [], guards)
    if failed:
        raise SystemExit(f"the unchanged source fails {guards}")
    print(f"unchanged source passes {len(guards)} test files ({seconds:.1f} s)", flush=True)
    survivors = []
    for name in names:
        killed, seconds = run_mutant(*MUTANTS[name])
        print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({seconds:.1f} s)", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(names) - len(survivors)} killed, "
          f"{len(survivors)} survived: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
