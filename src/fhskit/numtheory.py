"""Integer support: factorization, difference unit sets, and small finite fields.

GfContext holds the exp/log tables of GF(p^e), capped at 2^16 elements, with
each element packed into one int; elements cross the public boundary as
coefficient tuples.  It offers only what the cyclotomic construction uses:
exp, log and logs_minus_one.  General field arithmetic (add, sub, mul, pow,
element, elements) is not offered; tests/gf_reference.py keeps it, on tuples,
as the reference the tables are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power decomposition in ascending prime order, by trial division."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def smallest_prime_factor(n: int) -> int:
    return factorize(n)[0][0]


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def units(l: int) -> list[int]:
    """The multiplicative units of Z_l, ascending."""
    return [x for x in range(1, l) if math.gcd(x, l) == 1]


def du_violation(l: int, elements) -> str | None:
    """Why the elements cannot all lie in one difference unit set of Z_l, or None.

    Names the first element that is not a unit in [1, l - 1], else the first
    pair whose difference is not a unit; a repeated element differs from
    itself by the non-unit 0.
    """
    elems = list(elements)
    for x in elems:
        if not 1 <= x <= l - 1:
            return f"{x} is out of range [1, {l - 1}]"
        if math.gcd(x, l) != 1:
            return f"{x} is not a unit modulo {l}"
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            if math.gcd(b - a, l) != 1:
                return f"{a}, {b} differ by {abs(b - a)}, which is not a unit modulo {l}"
    return None


def is_du(l: int, candidate) -> bool:
    """True iff the candidate passes du_violation and no further unit could join it.

    Members are distinct and nonzero modulo each prime p | l, so at most p1 - 1
    fit (p1 the least such p); by the CRT any smaller set extends, so maximal
    means exactly p1 - 1 elements.
    """
    if l < 2:
        raise ParameterError(f"need modulus l >= 2, got {l}")
    elems = tuple(candidate)
    for x in elems:
        if not 1 <= x <= l - 1:
            raise ParameterError(f"element {x} out of range [1, {l - 1}]")
    return du_violation(l, elems) is None and len(elems) == smallest_prime_factor(l) - 1


@dataclass(frozen=True)
class DuSet:
    """A validated difference unit set of Z_modulus."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elements)
        if not is_du(self.modulus, elements):
            raise ParameterError(f"{list(elements)} is not a difference unit set of Z_{self.modulus}")

    def __len__(self) -> int:
        return len(self.elements)


def canonical_du(l: int) -> DuSet:
    """The canonical difference unit set {1, ..., p1 - 1}, p1 the smallest prime factor."""
    if l < 3:
        raise ParameterError(f"need l >= 3, got {l}")
    p1 = smallest_prime_factor(l)
    return DuSet(l, tuple(range(1, p1)))


def smallest_primitive_root(p: int) -> int:
    """Least primitive root of an odd prime p."""
    if not is_prime(p) or p == 2:
        raise ParameterError(f"need an odd prime, got {p}")
    for a in range(2, p):
        if multiplicative_order(a, p) == p - 1:
            return a
    raise ParameterError(f"no primitive root found for {p}")  # unreachable for primes


def multiplicative_order(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ParameterError("zero has no multiplicative order")
    v = a
    order = 1
    while v != 1:
        v = v * a % p
        order += 1
        if order > p:
            raise ParameterError(f"{a} is not invertible modulo {p}")
    return order


# ---------------------------------------------------------------------------
# GF(p^e) with explicit log tables


class GfContext:
    """GF(p^e) defined by a monic primitive modulus polynomial.

    Elements cross the public boundary as coefficient tuples of length e
    (ascending degree, reduced mod p).  Inside, the exp/log tables hold each
    element packed into one int, b bits per coefficient: b = 1 for p = 2,
    where adding is XOR, and otherwise room for 2p - 2 plus one guard bit, so
    every coefficient of a sum is reduced at once without a carry between
    fields.  The generator omega is the residue class of the indeterminate x,
    i.e. the root of the modulus polynomial.  It is validated to have full
    order q - 1; that also proves the modulus irreducible, since then
    Z_p[x]/(modulus) has q - 1 units and is therefore a field.
    """

    MAX_ELEMENTS = 1 << 16

    def __init__(self, p: int, modulus):
        if p < 2:
            raise ParameterError(f"characteristic must be prime, got {p}")
        coeffs = tuple(modulus)
        degree = len(coeffs) - 1
        if degree < 1:
            raise ParameterError("modulus polynomial must have degree >= 1")
        # before the primality test, whose trial division takes hours for a large p
        if degree > 16 or p**degree > self.MAX_ELEMENTS:
            raise ParameterError(f"field of order p^{degree} exceeds the 2^16 cap")
        if not is_prime(p):
            raise ParameterError(f"characteristic must be prime, got {p}")
        mod = tuple(c % p for c in coeffs)
        if mod[-1] != 1:
            raise ParameterError("modulus polynomial must be monic")
        q = p**degree
        self.p = p
        self.degree = degree
        self.q = q
        self.modulus = mod
        b = self._bits = 1 if p == 2 else (2 * p - 2).bit_length() + 1
        top = b * (degree - 1)
        low = (1 << top) - 1
        # red[c]: the packed low coefficients of -c * modulus, which replace c x^e
        red = [self._pack([-c * m % p for m in mod[:-1]]) for c in range(p)]
        exp: list[int] = []
        append = exp.append
        v = 1
        if p == 2:
            for _ in range(q - 1):
                append(v)
                v = ((v & low) << 1) ^ red[v >> top]
        else:
            guard = self._pack([1 << (b - 1)] * degree)
            p_all = self._pack([p] * degree)
            for _ in range(q - 1):
                append(v)
                s = ((v & low) << b) + red[v >> top]
                # a field's guard bit survives the subtraction iff it holds p or more
                v = s - ((((s | guard) - p_all) & guard) >> (b - 1)) * p
        self._exp = exp
        self._log = dict(zip(exp, range(q - 1)))
        # q - 1 distinct powers ending back at 1: x has order exactly q - 1
        if v != 1 or len(self._log) != q - 1:
            raise ParameterError(
                f"modulus polynomial is not primitive over Z_{p}: x does not have order {q - 1}"
            )
        self.zero = (0,) * degree
        self.one = self.exp(0)
        self.omega = self.exp(1)

    def _pack(self, coeffs) -> int:
        b = self._bits
        return sum(c << (b * i) for i, c in enumerate(coeffs))

    def exp(self, k: int) -> tuple[int, ...]:
        """omega**k."""
        v = self._exp[k % (self.q - 1)]
        b = self._bits
        mask = (1 << b) - 1
        return tuple((v >> (b * i)) & mask for i in range(self.degree))

    def log(self, a) -> int:
        """Discrete log base omega; defined for nonzero canonical elements only."""
        a = tuple(a)
        if len(a) != self.degree or not all(isinstance(c, int) and 0 <= c < self.p for c in a):
            raise ParameterError(f"{a!r} is not a canonical element of this field")
        if not any(a):
            raise ParameterError("discrete log of zero is undefined")
        return self._log[self._pack(a)]

    def logs_minus_one(self) -> list[int | None]:
        """log(omega**k - 1) at index k, None at k = 0 (omega**0 - 1 is zero).

        Subtracting one changes only the lowest coefficient field.
        """
        log, p = self._log, self.p
        field = (1 << self._bits) - 1
        return [log.get(v - 1 if v & field else v + p - 1) for v in self._exp]

    def __repr__(self) -> str:
        return f"GfContext(p={self.p}, degree={self.degree}, modulus={self.modulus})"
