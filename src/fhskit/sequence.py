"""Frequency-hopping sequences and their Hamming-correlation metrics.

A sequence lives over the alphabet Z_l = {0, ..., l-1}; the symbol at index i
is the frequency used in time slot i.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

import operator
import reprlib
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterError


def _brief(value) -> str:
    """A repr of outside input short enough for a one-line error message."""
    try:
        text = reprlib.repr(value)
    except ValueError:  # an int past the interpreter's digit limit for str()
        return f"<{type(value).__name__} too long to show>"
    return text if len(text) <= 60 else text[:57] + "..."


@dataclass(frozen=True)
class Fhs:
    """A frequency-hopping sequence: symbols over Z_alphabet_size, length >= 1."""

    alphabet_size: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.alphabet_size, int) or self.alphabet_size < 1:
            raise ParameterError(f"alphabet size must be a positive integer, got {_brief(self.alphabet_size)}")
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 1:
            raise ParameterError("sequence must contain at least one symbol")
        for i, v in enumerate(symbols):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParameterError(f"symbol at index {i} is not an integer: {_brief(v)}")
            if not 0 <= v < self.alphabet_size:
                raise ParameterError(
                    f"symbol {_brief(v)} at index {i} out of range [0, {_brief(self.alphabet_size)})"
                )

    @property
    def n(self) -> int:
        """Sequence length."""
        return len(self.symbols)

    def shifted(self, tau: int) -> "Fhs":
        """Left cyclic shift by tau positions."""
        tau %= self.n
        return Fhs(self.alphabet_size, self.symbols[tau:] + self.symbols[:tau])

    def relabeled(self, perm) -> "Fhs":
        """Apply an alphabet permutation: symbol f becomes perm[f]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.alphabet_size)):
            raise ParameterError("perm must be a permutation of the full alphabet")
        return Fhs(self.alphabet_size, tuple(perm[v] for v in self.symbols))

    def to_json_dict(self) -> dict:
        return {"l": self.alphabet_size, "seq": list(self.symbols)}

    @classmethod
    def from_json_dict(cls, obj) -> "Fhs":
        if not isinstance(obj, dict):
            raise ParameterError("expected a JSON object with integer field 'l' and array 'seq'")
        if "l" not in obj or "seq" not in obj:
            raise ParameterError("sequence JSON must carry fields 'l' and 'seq'")
        l = obj["l"]
        seq = obj["seq"]
        if not isinstance(l, int) or isinstance(l, bool):
            raise ParameterError(f"field 'l' must be an integer, got {_brief(l)}")
        if not isinstance(seq, list):
            raise ParameterError("field 'seq' must be an array of integers")
        return cls(l, tuple(seq))


@dataclass(frozen=True)
class CorrelationProfile:
    """The full map tau -> H(tau) for one sequence (auto) or a pair (cross)."""

    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("auto", "cross"):
            raise ParameterError(f"kind must be 'auto' or 'cross', got {self.kind!r}")
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        if n < 1:
            raise ParameterError("profile must cover at least one shift")
        if min(values) < 0 or max(values) > n:
            raise ParameterError("profile values must lie in [0, n]")
        if self.kind == "auto":
            if values[0] != n:
                raise ParameterError("auto profile must have H(0) = n")
            if values[1:] != values[:0:-1]:
                raise ParameterError("auto profile must satisfy H(tau) = H(n - tau)")

    @property
    def length(self) -> int:
        return len(self.values)


def _positions(symbols) -> dict[int, list[int]]:
    positions = defaultdict(list)
    for i, v in enumerate(symbols):
        positions[v].append(i)
    return positions


def _product_cost(n: int, width: int) -> float:
    """Estimated cost of one dense symbol's product, in binned pairs.

    Measured on CPython 3.11 (x86-64 Xeon) from n = 4 to 10^5: about 1.5
    pairs per position to pack and convert, plus the Karatsuba multiply of two
    integers of width * n bytes each, which grows as (width * n)^log2(3).  The
    crossover c_s(v) * c_t(v) / n rises from about 1.5 at n <= 500 to about 9
    at n = 10^4, so no constant multiple of n would fit it.
    """
    return 1.5 * n + (width * n) ** 1.585 / 85


def cross_profile(s: Fhs, t: Fhs) -> CorrelationProfile:
    """All-shift cross-correlation H(tau) = #{i : s_i = t_(i+tau mod n)}.

    Each symbol v contributes its c_s(v) * c_t(v) matching position pairs and
    is counted by whichever of two exact methods is estimated to be cheaper.
    A sparse symbol bins its pairs one by one, so it costs its pair count; in
    an auto profile each unordered pair is visited once, for tau and n - tau.
    A dense symbol costs one product of two integers of about 16 n bits each
    (32 n from n = 2^16), whose fields are its position indicators in s,
    reversed, and in t: field k of the product counts the pairs with
    j - i = k - (n - 1).  The products of all dense symbols are summed and
    unpacked once.
    """
    if s.alphabet_size != t.alphabet_size:
        raise ParameterError(f"alphabet mismatch: {s.alphabet_size} vs {t.alphabet_size}")
    if s.n != t.n:
        raise ParameterError(f"length mismatch: {s.n} vs {t.n}")
    n = s.n
    auto = s.symbols == t.symbols
    # A field holds one coefficient of the summed products, at most n.
    width = 2 if n < 1 << 16 else 4
    cost = _product_cost(n, width)
    in_t = _positions(t.symbols)
    values = [0] * n
    product = 0
    # Unless the most frequent symbol of t could be dense (c_s(v) <= n), all
    # symbols are sparse; a cross profile needs positions in s only for dense
    # symbols.
    longest = max(map(len, in_t.values()))
    if longest * (longest if auto else n) > cost:
        s_counts = Counter(s.symbols)
        dense = [v for v, t_pos in in_t.items() if s_counts[v] * len(t_pos) > cost]
        in_s = in_t if auto or not dense else _positions(s.symbols)
        for v in dense:
            s_pos, t_pos = in_s[v], in_t.pop(v)
            s_bits = bytearray(width * n)
            for i in s_pos:
                s_bits[width * i] = 1
            t_bits = s_bits
            if not auto:
                t_bits = bytearray(width * n)
                for j in t_pos:
                    t_bits[width * j] = 1
            # Read big-endian, field i of s_bits lands at field n - 1 - i,
            # shifted up by width - 1 bytes.
            product += int.from_bytes(s_bits, "big") * int.from_bytes(t_bits, "little")
    # The sparse symbols are those left in in_t.
    if auto:
        for pos in in_t.values():
            values[0] += len(pos)
            for i, j in combinations(pos, 2):
                values[j - i] += 1
                values[i - j] += 1  # 0 < j - i < n: the negative index is n - (j - i)
    else:
        for i, v in enumerate(s.symbols):
            for j in in_t.get(v, ()):
                values[(j - i) % n] += 1
    if product:
        fields = (product >> 8 * (width - 1)).to_bytes(width * (2 * n - 1), "little")
        lags = array("H" if width == 2 else "I", fields)
        if sys.byteorder == "big":
            lags.byteswap()
        values[0] += lags[n - 1]
        values[1:] = map(operator.add, values[1:], map(operator.add, lags[n:], lags[: n - 1]))
    return CorrelationProfile("auto" if auto else "cross", tuple(values))


def auto_profile(s: Fhs) -> CorrelationProfile:
    """All-shift autocorrelation of s."""
    return cross_profile(s, s)


def max_auto(s: Fhs) -> int:
    """Maximum autocorrelation over the nontrivial shifts 0 < tau < n."""
    if s.n < 2:
        raise ParameterError("autocorrelation maximum is undefined for length-1 sequences")
    return max(auto_profile(s).values[1:])


def min_gap(s: Fhs) -> int:
    """Minimum gap: one less than the smallest |s_{i+1} - s_i|, wrap pair included.

    Differences are literal integer distances, not modular ones, so the gap
    can be -1 when two cyclically adjacent entries coincide.
    """
    if s.n < 2:
        raise ParameterError("minimum gap is undefined for length-1 sequences")
    sym = s.symbols
    n = s.n
    smallest = abs(sym[n - 1] - sym[0])
    for i in range(n - 1):
        d = abs(sym[i + 1] - sym[i])
        if d < smallest:
            smallest = d
    return smallest - 1


def frequency_counts(s: Fhs) -> Counter:
    """Occurrence count of every symbol present; indexing an absent symbol gives 0."""
    return Counter(s.symbols)


def is_uniform(s: Fhs) -> bool:
    """True iff symbol counts spread exactly 0 (when l | n) or 1 (otherwise)."""
    counts = frequency_counts(s)
    least = min(counts.values()) if len(counts) == s.alphabet_size else 0
    spread = max(counts.values()) - least
    return spread == (0 if s.n % s.alphabet_size == 0 else 1)


def _lg_formula(n: int, l: int, shortfall: int) -> int:
    """ceil((n - eps)(n + eps - l) / (l (n - shortfall))) with eps = n mod l."""
    eps = n % l
    return -(-(n - eps) * (n + eps - l) // (l * (n - shortfall)))


def lg_bound(n: int, l: int) -> int:
    """Lempel-Greenberger lower bound on the maximum nontrivial autocorrelation.

    Equals ceil((n - eps)(n + eps - l) / (l (n - 1))) with eps = n mod l, which
    simplifies to n // l for n > l and to 0 for n <= l.  Defined as 0 for n = 1,
    where no nontrivial shift exists.
    """
    if n < 1 or l < 1:
        raise ParameterError("need n >= 1 and l >= 1")
    if n == 1:
        return 0
    return _lg_formula(n, l, 1)


def wg_lg_bound(n: int, l: int) -> int:
    """Wide-gap variant of the correlation lower bound: denominator l (n - 3)."""
    if l < 1:
        raise ParameterError("need l >= 1")
    if n <= 3:
        raise ParameterError("wide-gap bound needs n >= 4")
    return _lg_formula(n, l, 3)


def sorted_alphabet_gap_bound(s: Fhs, frequencies) -> int | float:
    """Gap lower bound after relabeling onto a sorted physical frequency list.

    frequencies must be strictly increasing with one entry per alphabet symbol.
    The minimum adjacent spacing f' includes the wrap pair (last, first), with
    subscripts taken cyclically; the mapped sequence has gap >= (g+1)*f' - 1.
    """
    freqs = list(frequencies)
    if len(freqs) != s.alphabet_size:
        raise ParameterError(f"need exactly {s.alphabet_size} frequencies, got {len(freqs)}")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ParameterError("frequency list must be strictly increasing")
    l = len(freqs)
    f_prime = min(abs(freqs[(i + 1) % l] - freqs[i]) for i in range(l))
    return (min_gap(s) + 1) * f_prime - 1
