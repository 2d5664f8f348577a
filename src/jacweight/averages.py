"""Permutation averages of Jacobi-type enumerators.

Averaging runs over all coordinate permutations applied to the first
code, with the mask and the second code held fixed.  The closed forms
replace the sum over n! permutations by a sum over symbol-placement
matrices weighted with multinomial counts, so they need only the
composition distribution of the averaged code and, in the joint case,
the Jacobi distribution of the fixed code against the mask.

The average joint Jacobi polynomial evaluated at the point that is
zero exactly on variables with differing code symbols and zero mask
symbol equals the average intersection number: the expected number of
pairs agreeing everywhere outside the mask support.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .codes import (
    LinearCode,
    _tuple_counts,
    check_budget,
    check_mask,
    comp_table,
    composition,
    jacobi_table,
    permute_word,
)
from .polynomials import SparsePolynomial
from .rings import RingSpec

__all__ = [
    "AverageResult",
    "multinomial",
    "compositions",
    "intersection_point",
    "all_ones_point",
    "intersection_size",
    "avg_jacobi",
    "avg_joint_jacobi",
    "avg_joint_jacobi_value",
    "brute_avg_jacobi",
    "brute_avg_joint_jacobi",
    "brute_delta",
    "delta_closed",
    "monte_carlo_delta",
    "delta",
]

BRUTE_MAX_N = 8


def multinomial(n: int, parts) -> int:
    """Multinomial coefficient; zero when parts do not compose n."""
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    r = math.factorial(n)
    for p in parts:
        r //= math.factorial(p)
    return r


def compositions(total: int, bins: int):
    """All tuples of bins nonnegative integers summing to total."""
    if bins == 0:
        if total == 0:
            yield ()
        return
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, bins - 1):
            yield (first,) + rest


def _zero_positions(w) -> list[int]:
    return [i for i, m in enumerate(w) if m == 0]


def _require_brute(*codes: LinearCode) -> None:
    """Gate a walk over every permutation and every word tuple of codes."""
    n = codes[0].n
    if n > BRUTE_MAX_N:
        raise ValueError(
            f"exhaustive averaging is limited to length {BRUTE_MAX_N}, got {n}"
        )
    steps = math.factorial(n) * math.prod(code.size for code in codes)
    check_budget(steps, f"steps over {n}! permutations")


def _check_pair(code_c: LinearCode, code_d: LinearCode, w) -> None:
    if code_c.ring != code_d.ring or code_c.n != code_d.n:
        raise ValueError("codes must share ring and length")
    check_mask(code_c.ring, code_c.n, w)


# ---- evaluation points -----------------------------------------------------


def intersection_point(ring: RingSpec):
    """Point over three-slot variables picking out masked agreement.

    The variable for symbols (a1, a2, a3) gets 0 when a1 != a2 while
    a3 = 0, and 1 otherwise.
    """
    q = ring.order
    point = []
    for a1 in range(q):
        for a2 in range(q):
            for a3 in range(q):
                zero = a1 != a2 and a3 == 0
                point.append(Fraction(0) if zero else Fraction(1))
    return tuple(point)


def all_ones_point(ring: RingSpec, arity: int):
    return (Fraction(1),) * ring.order**arity


def intersection_size(code_c: LinearCode, code_d: LinearCode, w) -> int:
    """Pairs in C x D that agree on every position outside supp(w)."""
    _check_pair(code_c, code_d, w)
    keep = _zero_positions(w)
    cnt_c = Counter(tuple(u[i] for i in keep) for u in code_c.words)
    cnt_d = Counter(tuple(v[i] for i in keep) for v in code_d.words)
    return sum(mult * cnt_d.get(key, 0) for key, mult in cnt_c.items())


# ---- exhaustive averages ---------------------------------------------------


def brute_avg_jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Average Jacobi polynomial by running over every permutation."""
    n = code.n
    check_mask(code.ring, n, w)
    _require_brute(code)
    ring = code.ring
    counts: Counter = Counter()
    total = 0
    for sigma in itertools.permutations(range(n)):
        total += 1
        permuted = [permute_word(u, sigma) for u in code.words]
        counts.update(_tuple_counts(ring, [permuted], (w,)))
    terms = {key: Fraction(mult, total) for key, mult in counts.items()}
    return SparsePolynomial(ring, 2, terms)


def brute_avg_joint_jacobi(
    code_c: LinearCode, code_d: LinearCode, w
) -> SparsePolynomial:
    """Average joint Jacobi polynomial over every permutation of C."""
    _check_pair(code_c, code_d, w)
    n = code_c.n
    _require_brute(code_c, code_d)
    ring = code_c.ring
    counts: Counter = Counter()
    total = 0
    for sigma in itertools.permutations(range(n)):
        total += 1
        permuted = [permute_word(u, sigma) for u in code_c.words]
        counts.update(_tuple_counts(ring, [permuted, code_d.words], (w,)))
    terms = {key: Fraction(mult, total) for key, mult in counts.items()}
    return SparsePolynomial(ring, 3, terms)


def brute_delta(code_c: LinearCode, code_d: LinearCode, w) -> Fraction:
    """Average intersection number by running over every permutation."""
    _check_pair(code_c, code_d, w)
    n = code_c.n
    _require_brute(code_c)
    keep = _zero_positions(w)
    cnt_d = Counter(tuple(v[i] for i in keep) for v in code_d.words)
    total = 0
    perms = 0
    for sigma in itertools.permutations(range(n)):
        perms += 1
        for u in code_c.words:
            total += cnt_d.get(tuple(u[sigma[i]] for i in keep), 0)
    return Fraction(total, perms)


# ---- closed forms ----------------------------------------------------------


def avg_jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Average Jacobi polynomial from composition counts alone.

    For each mask class the averaged code's symbols fall into the
    class multinomially, weighted by the number of codewords per
    composition over the number of arrangements of that composition.
    """
    n = code.n
    check_mask(code.ring, n, w)
    ring = code.ring
    q = ring.order
    ell = composition(ring, w)
    table = comp_table(code)
    per_class = [list(compositions(ell[b], q)) for b in range(q)]
    out: dict[tuple[int, ...], Fraction] = {}
    for cols in itertools.product(*per_class):
        comp_l = tuple(sum(cols[b][a] for b in range(q)) for a in range(q))
        mult = table.get(comp_l)
        if not mult:
            continue
        ways = 1
        for b in range(q):
            ways *= multinomial(ell[b], cols[b])
        exps = [0] * (q * q)
        for b in range(q):
            for a in range(q):
                exps[a * q + b] = cols[b][a]
        key = tuple(exps)
        coeff = Fraction(mult * ways, multinomial(n, comp_l))
        out[key] = out.get(key, Fraction(0)) + coeff
    return SparsePolynomial(ring, 2, out)


def _split_plans(ring: RingSpec, point):
    """Per-variable admissible first-slot symbols for the joint average.

    Splits that would place mass on a variable where the point is zero
    are pruned.
    """
    q = ring.order
    plans = {}
    for a1 in range(q):
        for a2 in range(q):
            allowed = [
                b for b in range(q) if point[(b * q + a1) * q + a2] != 0
            ]
            plans[(a1, a2)] = allowed
    return plans


def avg_joint_jacobi(code_c: LinearCode, code_d: LinearCode, w) -> SparsePolynomial:
    """Average joint Jacobi polynomial without enumerating pairs.

    Runs over the Jacobi distribution of the fixed code against the
    mask and splits each cell count over the averaged code's symbols,
    weighting by composition counts and placement multinomials.
    """
    _check_pair(code_c, code_d, w)
    ring = code_c.ring
    q = ring.order
    n = code_c.n
    table_a = comp_table(code_c)
    table_b = jacobi_table(code_d, w)
    slots = [(a1, a2) for a1 in range(q) for a2 in range(q)]
    out: dict[tuple[int, ...], Fraction] = {}
    for r_key, bcnt in table_b.items():
        split_lists = [
            list(compositions(r_key[a1 * q + a2], q)) for (a1, a2) in slots
        ]
        for splits in itertools.product(*split_lists):
            exps = [0] * (q * q * q)
            comp_l = [0] * q
            ways = 1
            for (a1, a2), sp in zip(slots, splits):
                ways *= multinomial(r_key[a1 * q + a2], sp)
                for b in range(q):
                    exps[(b * q + a1) * q + a2] = sp[b]
                    comp_l[b] += sp[b]
            mult = table_a.get(tuple(comp_l))
            if not mult:
                continue
            coeff = Fraction(
                mult * bcnt * ways, multinomial(n, tuple(comp_l))
            )
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + coeff
    return SparsePolynomial(ring, 3, out)


def avg_joint_jacobi_value(code_c: LinearCode, code_d: LinearCode, w, point):
    """Value of the average joint Jacobi polynomial at a point.

    Avoids building the polynomial: splits that touch a variable with
    point value zero are pruned before they are generated.
    """
    _check_pair(code_c, code_d, w)
    ring = code_c.ring
    q = ring.order
    n = code_c.n
    if len(point) != q**3:
        raise ValueError("point length must cover all three-slot variables")
    table_a = comp_table(code_c)
    table_b = jacobi_table(code_d, w)
    plans = _split_plans(ring, point)
    slots = [(a1, a2) for a1 in range(q) for a2 in range(q)]
    total = Fraction(0)
    for r_key, bcnt in table_b.items():
        split_lists = []
        feasible = True
        for a1, a2 in slots:
            cell = r_key[a1 * q + a2]
            allowed = plans[(a1, a2)]
            if cell and not allowed:
                feasible = False
                break
            split_lists.append(_sparse_splits(cell, allowed, q))
        if not feasible:
            continue
        for splits in itertools.product(*split_lists):
            comp_l = [0] * q
            ways = 1
            value = Fraction(1)
            for (a1, a2), sp in zip(slots, splits):
                ways *= multinomial(r_key[a1 * q + a2], sp)
                for b in range(q):
                    e = sp[b]
                    if not e:
                        continue
                    comp_l[b] += e
                    value = value * point[(b * q + a1) * q + a2] ** e
            mult = table_a.get(tuple(comp_l))
            if not mult:
                continue
            total += (
                Fraction(mult * bcnt * ways, multinomial(n, tuple(comp_l)))
                * value
            )
    return total


def _sparse_splits(total: int, allowed, bins: int):
    """Compositions of total over bins, supported only on allowed bins."""
    if total == 0:
        return [(0,) * bins]
    out = []
    for parts in compositions(total, len(allowed)):
        sp = [0] * bins
        for b, p in zip(allowed, parts):
            sp[b] = p
        out.append(tuple(sp))
    return out


def delta_closed(code_c: LinearCode, code_d: LinearCode, w) -> Fraction:
    """Average intersection number in closed form.

    Groups the fixed code's Jacobi distribution by its zero-mask
    column; within the mask support the averaged code's symbols are
    placed multinomially, and outside it they must copy the fixed
    word, which contributes no placement factor.
    """
    _check_pair(code_c, code_d, w)
    ring = code_c.ring
    q = ring.order
    n = code_c.n
    ell = composition(ring, w)
    table_a = comp_table(code_c)
    table_b = jacobi_table(code_d, w)
    groups: Counter = Counter()
    for r_key, mult in table_b.items():
        col0 = tuple(r_key[a * q + 0] for a in range(q))
        groups[col0] += mult
    support_classes = [b for b in range(1, q) if ell[b]]
    per_class = [list(compositions(ell[b], q)) for b in support_classes]
    total = Fraction(0)
    for col0, bcnt in groups.items():
        for rest in itertools.product(*per_class):
            comp_l = tuple(
                col0[a] + sum(col[a] for col in rest) for a in range(q)
            )
            mult = table_a.get(comp_l)
            if not mult:
                continue
            ways = 1
            for b, col in zip(support_classes, rest):
                ways *= multinomial(ell[b], col)
            total += Fraction(mult * bcnt * ways, multinomial(n, comp_l))
    return total


# ---- sampling --------------------------------------------------------------


@dataclass(frozen=True)
class AverageResult:
    """Outcome of an average computation, with sampling metadata."""

    value: object
    method: str
    samples: int | None = None
    seed: int | None = None
    stderr: float | None = None


def monte_carlo_delta(
    code_c: LinearCode,
    code_d: LinearCode,
    w,
    samples: int = 10000,
    seed: int = 0,
) -> AverageResult:
    """Estimate the average intersection number from random permutations."""
    _check_pair(code_c, code_d, w)
    if samples < 1:
        raise ValueError("samples must be positive")
    n = code_c.n
    q = code_c.ring.order
    keep = _zero_positions(w)
    s = len(keep)
    if s * max(1, (q - 1).bit_length()) > 62 or q**max(s, 1) >= 2**62:
        return _mc_delta_python(code_c, code_d, w, samples, seed)
    import numpy as np

    # keys are exact in float64 below 2**53, letting the matmul use BLAS
    dtype = np.float64 if q ** max(s, 1) < 2**53 else np.int64
    words_c = np.array(code_c.words, dtype=dtype)
    powers = np.array([q**j for j in range(s)], dtype=dtype)
    keys_d = np.sort(
        np.array(
            [
                sum(v[i] * q**j for j, i in enumerate(keep))
                for v in code_d.words
            ],
            dtype=dtype,
        )
    )
    table = None
    if q ** max(s, 1) <= 1 << 24:
        table = np.bincount(
            keys_d.astype(np.int64), minlength=q ** max(s, 1)
        ).astype(np.int32)
    rng = np.random.default_rng(seed)
    keep_arr = np.array(keep, dtype=np.int64)
    per_perm = []
    batch = 1024
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        perms = rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1)
        cols = perms[:, keep_arr]
        # weights[i, pos] = q**j when perm_i sends keep slot j to pos
        weights = np.zeros((b, n), dtype=dtype)
        np.put_along_axis(weights, cols, powers, axis=1)
        keys = words_c @ weights.T
        if table is not None:
            per_perm.append(table[keys.astype(np.int64)].sum(axis=0, dtype=np.int64))
        else:
            right = np.searchsorted(keys_d, keys, side="right")
            left = np.searchsorted(keys_d, keys, side="left")
            per_perm.append((right - left).sum(axis=0))
        done += b
    counts = np.concatenate(per_perm).astype(np.float64)
    mean = float(counts.mean())
    stderr = (
        float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else None
    )
    return AverageResult(
        value=mean, method="mc", samples=samples, seed=seed, stderr=stderr
    )


def _mc_delta_python(code_c, code_d, w, samples, seed):
    import random

    rng = random.Random(seed)
    n = code_c.n
    keep = _zero_positions(w)
    cnt_d = Counter(tuple(v[i] for i in keep) for v in code_d.words)
    counts = []
    order = list(range(n))
    for _ in range(samples):
        rng.shuffle(order)
        c = 0
        for u in code_c.words:
            c += cnt_d.get(tuple(u[order[i]] for i in keep), 0)
        counts.append(c)
    mean = sum(counts) / samples
    if samples > 1:
        var = sum((c - mean) ** 2 for c in counts) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = None
    return AverageResult(
        value=mean, method="mc", samples=samples, seed=seed, stderr=stderr
    )


def delta(
    code_c: LinearCode,
    code_d: LinearCode,
    w,
    method: str = "closed",
    samples: int = 10000,
    seed: int = 0,
) -> AverageResult:
    """Average intersection number by the chosen method."""
    if method == "closed":
        return AverageResult(value=delta_closed(code_c, code_d, w), method="closed")
    if method == "brute":
        return AverageResult(value=brute_delta(code_c, code_d, w), method="brute")
    if method == "mc":
        return monte_carlo_delta(code_c, code_d, w, samples=samples, seed=seed)
    raise ValueError(f"unknown method {method!r}")
