"""Independent reference values for the benchmark's output checks.

Shares no code with jacweight: it reads the same code files, builds its
own arithmetic for F_p, F_{p^f} and Z_k, spans generator matrices by
closure, finds duals by scanning R^n, and computes average intersection
numbers of binary pairs from the hypergeometric formula

    Delta^w = sum_a A_a(C) * sum_{v in D} C(k, a - b_v) / C(n, a),

where k is the mask weight and b_v the weight of v off supp(w).

Run as a script it reads the operation list written by workloads.py and
writes, for every operation that needs one, the expected result:

    python3 perfbench/reference.py OPS_JSON REF_JSON
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


# ---- rings -----------------------------------------------------------------


class Ring:
    """Alphabet with add/mul tables; elements are the file's integer codes."""

    def __init__(self, desc):
        if desc["kind"] == "modring":
            k = desc["k"]
            self.order = k
            self.add = [[(a + b) % k for b in range(k)] for a in range(k)]
            self.mul = [[(a * b) % k for b in range(k)] for a in range(k)]
            return
        p, f = desc["p"], desc.get("f", 1)
        modulus = desc.get("primitive_poly") or ([0, 1] if f == 1 else None)
        if modulus is None:
            raise ValueError(f"field of order {p}^{f} needs its modulus")
        self.order = q = p**f
        # an element is its base-p digit vector, lowest degree first
        digits = [[(e // p**i) % p for i in range(f)] for e in range(q)]

        def encode(vec):
            return sum(c * p**i for i, c in enumerate(vec))

        def times(x, y):
            prod = [0] * (2 * f - 1)
            for i, a in enumerate(x):
                for j, b in enumerate(y):
                    prod[i + j] += a * b
            for top in range(len(prod) - 1, f - 1, -1):
                c = prod[top] % p
                for j in range(f + 1):
                    prod[top - f + j] -= c * modulus[j]
            return encode([c % p for c in prod[:f]])

        self.add = [
            [encode([(a + b) % p for a, b in zip(digits[x], digits[y])]) for y in range(q)]
            for x in range(q)
        ]
        self.mul = [[times(digits[x], digits[y]) for y in range(q)] for x in range(q)]

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self.add[acc][self.mul[a][b]]
        return acc


def read_code(spec: str):
    """(ring description, n, generator rows) from a code file or fixture name."""
    path = Path(spec)
    if not path.exists():
        path = FIXTURE_DIR / f"{spec}.json"
    obj = json.loads(path.read_text())
    return obj["ring"], obj["n"], [tuple(row) for row in obj["generators"]]


def span(ring: Ring, n: int, rows) -> list[tuple[int, ...]]:
    """Every word of the submodule spanned by rows, by closure under adding rows."""
    words = {(0,) * n}
    for row in rows:
        multiples = [tuple(ring.mul[c][x] for x in row) for c in range(ring.order)]
        words = {
            tuple(ring.add[a][b] for a, b in zip(u, m)) for u in words for m in multiples
        }
    return sorted(words)


def modring_span_size(k: int, rows) -> int:
    """Number of words the rows span over Z_k, without listing them.

    Integer row operations and column operations (an automorphism of Z_k^n)
    bring the rows to a diagonal form d_1, ..., d_r, a Smith form without
    the divisibility chain, which the count does not need.  The span then
    has prod k / gcd(d_i, k) words.  Every step is a Euclidean one on
    representatives in [0, k), so it never wraps modulo k at the pivot.
    """
    m = [[x % k for x in row] for row in rows]
    size = 1
    while True:
        nonzero = [(x, i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not nonzero:
            return size
        p, i, j = min(nonzero)
        for r, row in enumerate(m):
            if r != i and row[j]:
                q = row[j] // p
                m[r] = [(x - q * y) % k for x, y in zip(row, m[i])]
        for c in range(len(m[i])):
            if c != j and m[i][c]:
                q = m[i][c] // p
                for row in m:
                    row[c] = (row[c] - q * row[j]) % k
        # a nonzero remainder beside the pivot is smaller than p: go again
        if not any(row[j] for r, row in enumerate(m) if r != i) and not any(
            x for c, x in enumerate(m[i]) if c != j
        ):
            size *= k // math.gcd(p, k)
            del m[i]
            for row in m:
                del row[j]


def dual_words(ring: Ring, n: int, rows) -> list[tuple[int, ...]]:
    """The dual code, found by testing every vector of R^n against the rows."""
    if ring.order == 2:
        row_bits = [sum(1 << i for i, x in enumerate(g) if x) for g in rows]
        return [
            tuple((v >> i) & 1 for i in range(n))
            for v in range(1 << n)
            if not any((v & g).bit_count() & 1 for g in row_bits)
        ]
    return [
        v
        for v in itertools.product(range(ring.order), repeat=n)
        if all(ring.dot(g, v) == 0 for g in rows)
    ]


# ---- enumerator tables -------------------------------------------------------

# A polynomial is a dict from a monomial key to a coefficient.  The key is
# the sorted tuple of (symbol tuple, exponent) over the variables that occur.


def _monomial(column_symbols) -> tuple:
    return tuple(sorted(Counter(column_symbols).items()))


def tuple_table(word_lists) -> Counter:
    """Counts of column-symbol-tuple compositions over a product of word lists."""
    table: Counter = Counter()
    for words in itertools.product(*word_lists):
        table[_monomial(zip(*words))] += 1
    return table


def poly_to_json(table) -> dict[str, str]:
    return {monomial_text(k): str(Fraction(c)) for k, c in table.items()}


def monomial_text(key) -> str:
    """Canonical text of a monomial key, shared with the output parser."""
    return " ".join(".".join(map(str, s)) + f"^{e}" for s, e in sorted(key))


# ---- averages ----------------------------------------------------------------


def weight(u) -> int:
    return sum(1 for x in u if x)


def binary_delta(words_c, words_d, w) -> Fraction:
    """Average intersection number of a binary pair by the hypergeometric formula."""
    n, k = len(w), weight(w)
    dist_c = Counter(weight(u) for u in words_c)
    off = Counter(sum(1 for x, m in zip(v, w) if x and not m) for v in words_d)
    total = Fraction(0)
    for a, count in dist_c.items():
        inner = sum(
            mult * math.comb(k, a - b) for b, mult in off.items() if 0 <= a - b <= k
        )
        total += Fraction(count * inner, math.comb(n, a))
    return total


def binary_avg_jacobi(words, w) -> Counter:
    """Average Jacobi polynomial of a binary code: supports placed uniformly."""
    n, k = len(w), weight(w)
    out: Counter = Counter()
    for a, count in Counter(weight(u) for u in words).items():
        for j in range(max(0, a - (n - k)), min(a, k) + 1):
            cells = {(0, 0): n - k - (a - j), (0, 1): k - j, (1, 0): a - j, (1, 1): j}
            key = tuple(sorted((s, e) for s, e in cells.items() if e))
            out[key] += Fraction(
                count * math.comb(k, j) * math.comb(n - k, a - j), math.comb(n, a)
            )
    return out


# ---- designs -----------------------------------------------------------------


def coverage(words, n: int, t: int, only=None) -> dict[int, dict]:
    """Per weight class (or only the one given): blocks and min/max coverage of t-subsets."""
    out = {}
    by_weight: dict[int, list] = {}
    for u in words:
        if weight(u) and only in (None, weight(u)):
            by_weight.setdefault(weight(u), []).append(u)
    for wt, block_words in sorted(by_weight.items()):
        cover: Counter = Counter()
        for u in block_words:
            cover.update(itertools.combinations([i for i, x in enumerate(u) if x], t))
        full = len(cover) == math.comb(n, t)
        out[wt] = {
            "blocks": len(block_words),
            "min": min(cover.values()) if full else 0,
            "max": max(cover.values(), default=0),
        }
    return out


# ---- per-operation expectations ------------------------------------------------


class Codes:
    """Spans and duals of each code spec, computed once per reference run."""

    def __init__(self):
        self._span: dict[str, list] = {}

    def meta(self, spec):
        desc, n, rows = read_code(spec)
        return Ring(desc), n, rows

    def words(self, spec):
        if spec not in self._span:
            ring, n, rows = self.meta(spec)
            self._span[spec] = span(ring, n, rows)
        return self._span[spec]

    def dual(self, spec):
        key = spec + "^perp"
        if key not in self._span:
            ring, n, rows = self.meta(spec)
            self._span[key] = dual_words(ring, n, rows)
        return self._span[key]


def expected(op, codes: Codes):
    """The reference data one operation's check compares against."""
    ref = op["ref"]
    what = ref["what"]
    if what == "macwilliams":
        c, d, w = ref["c"], ref.get("d"), tuple(ref["w"])
        if d is None:
            return poly_to_json(tuple_table([codes.dual(c), [w]]))
        first = codes.dual(c) if ref["side"] in ("first", "both") else codes.words(c)
        second = codes.dual(d) if ref["side"] in ("second", "both") else codes.words(d)
        return poly_to_json(tuple_table([first, second, [w]]))
    if what == "self_dual_joint":
        c, w = ref["c"], tuple(ref["w"])
        words = codes.words(c)
        if sorted(codes.dual(c)) != words:
            raise ValueError(f"{c} is not self-dual")
        return poly_to_json(tuple_table([words, words, [w]]))
    if what == "table":
        lists = [codes.words(c) for c in ref["codes"]]
        return poly_to_json(tuple_table(lists + ([[tuple(ref["w"])]] if "w" in ref else [])))
    if what == "designs":
        _, n, _ = codes.meta(ref["c"])
        words = codes.words(ref["c"])
        if ref["coverage"]:
            cover = coverage(words, n, ref["t"], ref.get("weight"))
            return {str(k): v for k, v in cover.items()}
        return {str(k): {"blocks": v} for k, v in Counter(map(weight, words)).items() if k}
    if what == "z4_dual":
        return {"size": len(codes.words(ref["c"])), "order": codes.meta(ref["c"])[0].order}
    if what == "delta":
        return str(binary_delta(codes.words(ref["c"]), codes.words(ref["d"]), ref["w"]))
    if what == "avg_joint":
        wc, wd = codes.words(ref["c"]), codes.words(ref["d"])
        return {
            "delta": str(binary_delta(wc, wd, ref["w"])),
            "ones": str(len(wc) * len(wd)),
        }
    if what == "avg_jacobi":
        words = codes.words(ref["c"])
        return poly_to_json(binary_avg_jacobi(words, ref["w"]))
    if what == "repro":
        rows = []
        for c, d, k in ref["rows"]:
            n = codes.meta(c)[1]
            w = (1,) * k + (0,) * (n - k)
            rows.append(str(binary_delta(codes.words(c), codes.words(d), w)))
        return rows
    raise ValueError(f"unknown reference kind {what!r}")


def main(argv) -> int:
    ops = json.loads(Path(argv[1]).read_text())
    codes = Codes()
    out = {op["id"]: expected(op, codes) for op in ops if op.get("ref")}
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
