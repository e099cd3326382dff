"""Reference arithmetic the benchmark checks fhskit's outputs against.

Nothing here imports fhskit: correlation profiles, gaps, bounds and the
finite-field helpers are recomputed from their definitions so that a wrong
answer from the library cannot also be the expected answer.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations
from operator import sub

# A symbol whose position pairs outnumber this multiple of n is correlated by one
# big-integer product rather than pair by pair.
_DENSE_PAIRS_PER_POSITION = 8


def cross_profile(seq_s, seq_t) -> list[int]:
    """H(tau) = #{i : s_i = t_(i+tau mod n)} for every tau.

    Per symbol v, the positions of v in s (reversed) and in t are the
    coefficients of two polynomials whose product counts the position pairs by
    difference.  Dense symbols multiply them as Python integers with one
    digit per coefficient; sparse ones bin their pairs directly, and for an
    auto profile (seq_t is seq_s) each unordered pair once, for tau and n - tau.
    """
    n = len(seq_s)
    if len(seq_t) != n:
        raise ValueError("sequences differ in length")
    ps = defaultdict(list)
    for i, v in enumerate(seq_s):
        ps[v].append(i)
    pt = ps
    if seq_t is not seq_s:
        pt = defaultdict(list)
        for j, v in enumerate(seq_t):
            pt[v].append(j)
    h = [0] * n
    # A coefficient of the product counts pairs with one difference, at most n.
    width = 2 if n < 1 << 16 else 4
    product = 0
    for v, s_pos in ps.items():
        t_pos = pt.get(v)
        if not t_pos:
            continue
        if len(s_pos) * len(t_pos) <= _DENSE_PAIRS_PER_POSITION * n:
            if seq_t is seq_s:
                h[0] += len(s_pos)
                for i, j in combinations(s_pos, 2):
                    h[j - i] += 1
                    h[n - j + i] += 1
                continue
            for i in s_pos:
                for j in t_pos:
                    h[(j - i) % n] += 1
            continue
        a, b = bytearray(n * width), bytearray(n * width)
        for i in s_pos:
            a[(n - 1 - i) * width] = 1
        for j in t_pos:
            b[j * width] = 1
        product += int.from_bytes(a, "little") * int.from_bytes(b, "little")
    if product:
        # Coefficient k counts the pairs with j - i = k - (n - 1).
        digits = array("H" if width == 2 else "I", product.to_bytes((2 * n - 1) * width, "little"))
        if sys.byteorder == "big":
            digits.byteswap()
        for k, c in enumerate(digits):
            if c:
                h[(k - n + 1) % n] += c
    return h


def auto_profile(seq) -> list[int]:
    """H(tau) of a sequence against its own cyclic shifts, for every tau."""
    return cross_profile(seq, seq)


def matching_pairs(seq_s, seq_t) -> int:
    """sum_v c_s(v) * c_t(v): the number of equal-symbol position pairs."""
    cs, ct = Counter(seq_s), Counter(seq_t)
    return sum(c * ct[v] for v, c in cs.items())


def min_gap(seq) -> int:
    """One less than the smallest |s_(i+1) - s_i| over cyclically adjacent entries."""
    return min(abs(seq[0] - seq[-1]), *map(abs, map(sub, seq[1:], seq[:-1]))) - 1


def is_uniform(seq, l: int) -> bool:
    counts = [0] * l
    for v in seq:
        counts[v] += 1
    return max(counts) - min(counts) == (0 if len(seq) % l == 0 else 1)


def lg_bound(n: int, l: int) -> int:
    """Lempel-Greenberger bound: ceil((n - e)(n + e - l) / (l (n - 1))), e = n mod l."""
    if n == 1:
        return 0
    e = n % l
    return -(-(n - e) * (n + e - l) // (l * (n - 1)))


def wg_lg_bound(n: int, l: int) -> int:
    e = n % l
    return -(-(n - e) * (n + e - l) // (l * (n - 3)))


def gap_bound(n: int, l: int) -> tuple[str, int]:
    """The two-branch upper bound on the minimum gap of a uniform (n, l) sequence."""
    if l % 2 == 1:
        return "odd_l", (l - 1) // 2 - 1
    if n % l == 0:
        return "even_l_divides", (l - 1) // 2 - 1
    if n % 2 == 0:
        return "even_even_nondiv", l // 2 - 1
    return "even_l_odd_n", (l - 1) // 2 - 1


def report(seq, l: int) -> dict:
    """The fields of a verification report, recomputed from the definitions."""
    n = len(seq)
    h = max(auto_profile(seq)[1:]) if n >= 2 else None
    lg = lg_bound(n, l)
    bound = None
    if l >= 3 and n >= 2:
        case, value = gap_bound(n, l)
        bound = {"case": case, "bound": value}
    return {
        "n": n,
        "l": l,
        "max_auto": h,
        "lg_bound": lg,
        "wg_lg_bound": wg_lg_bound(n, l) if n >= 4 else None,
        "is_optimal": (h == lg) if h is not None else None,
        "min_gap": min_gap(seq) if n >= 2 else None,
        "gap_upper_bound": bound,
        "is_uniform": is_uniform(seq, l),
    }


def is_unit_set(l: int, elems) -> bool:
    """Every element and every pairwise difference is a unit modulo l."""
    elems = list(elems)
    if any(math.gcd(x, l) != 1 for x in elems):
        return False
    return all(math.gcd(b - a, l) == 1 for i, a in enumerate(elems) for b in elems[i + 1:])


@cache
def du_sets(l: int) -> list[tuple[int, ...]]:
    """Every difference unit set of Z_l, in lexicographic order, by trying every subset.

    They are the (p1 - 1)-subsets of the units whose pairwise differences are
    units, p1 the smallest prime factor of l.
    """
    units = [x for x in range(1, l) if math.gcd(x, l) == 1]
    size = smallest_prime_factor(l) - 1
    return [c for c in combinations(units, size) if is_unit_set(l, c)]


@cache
def max_min_gap(n: int, l: int) -> int:
    """The largest min_gap of a uniform length-n sequence over Z_l, by complete search.

    A memoised search over (symbol counts so far, last symbol) for each first
    symbol and each candidate smallest adjacent distance, largest first.
    """
    q, eps = divmod(n, l)
    for dist in range(l - 1, 0, -1):
        for first in range(l):

            @cache
            def completes(used: tuple, last: int, extras: int) -> bool:
                if sum(used) == n:
                    return extras == eps and abs(last - first) >= dist
                for v in range(l):
                    if used[v] > q or abs(v - last) < dist or extras + (used[v] == q) > eps:
                        continue
                    grown = used[:v] + (used[v] + 1,) + used[v + 1:]
                    if completes(grown, v, extras + (used[v] == q)):
                        return True
                return False

            start = tuple(int(v == first) for v in range(l))
            if completes(start, first, int(q == 0)):
                return dist - 1
    return -1


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_factors(n: int) -> list[int]:
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


# ---------------------------------------------------------------------------
# Polynomials over Z_p, coefficient lists in ascending degree


def _mulmod(a, b, f, p):
    d = len(f) - 1
    r = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] += x * y
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k] % p
        if c:
            for i in range(d + 1):
                r[k - d + i] -= c * f[i]
    return [v % p for v in r[:d]]


def x_power(k: int, f, p: int) -> tuple[int, ...]:
    """x^k modulo the monic polynomial f over Z_p, as a length-deg(f) tuple."""
    d = len(f) - 1
    acc = [1] + [0] * (d - 1)
    base = [0, 1] + [0] * (d - 2) if d > 1 else [(-f[0]) % p]
    while k:
        if k & 1:
            acc = _mulmod(acc, base, f, p)
        base = _mulmod(base, base, f, p)
        k >>= 1
    return tuple(acc)


def is_primitive(f, p: int) -> bool:
    """True iff x has multiplicative order p^deg - 1 modulo f, so f is irreducible too."""
    d = len(f) - 1
    q = p ** d
    one = (1,) + (0,) * (d - 1)
    if x_power(q - 1, f, p) != one:
        return False
    return all(x_power((q - 1) // r, f, p) != one for r in prime_factors(q - 1))


def random_primitive(p: int, d: int, rng) -> tuple[int, ...]:
    """A seeded random monic primitive polynomial of degree d over Z_p."""
    while True:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if f[0] != 0 and is_primitive(f, p):
            return f


def random_reducible(p: int, d: int, rng) -> tuple[int, ...]:
    """A seeded random monic polynomial of degree d >= 2 with a root in Z_p."""
    root = rng.randrange(p)
    g = [rng.randrange(p) for _ in range(d - 1)] + [1]
    # (x - root) * g
    out = [0] * (d + 1)
    for i, c in enumerate(g):
        out[i + 1] += c
        out[i] -= root * c
    return tuple(v % p for v in out)
