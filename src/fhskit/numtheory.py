"""Integer support: factorization, difference unit sets, and small finite fields.

The finite-field arithmetic is table-driven and capped at 2^16 elements; the
discrete log of any nonzero element is a dictionary lookup against a table of
powers of a designated generator.
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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by the monic modulus, coefficients reduced mod p."""
    a = [v % p for v in a]
    deg_mod = len(mod) - 1
    while len(_poly_trim(a)) - 1 >= deg_mod:
        shift = len(a) - 1 - deg_mod
        lead = a[-1]
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * c) % p
        _poly_trim(a)
    return a


class GfContext:
    """GF(p^e) defined by a monic primitive modulus polynomial.

    Elements are coefficient tuples of length e (ascending degree, reduced mod
    p).  The generator omega is the residue class of the indeterminate x, i.e.
    the root of the modulus polynomial.  It is validated to have full order
    q - 1; that also proves the modulus irreducible, since then Z_p[x]/(modulus)
    has q - 1 units and is therefore a field.
    """

    MAX_ELEMENTS = 1 << 16

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise ParameterError(f"characteristic must be prime, got {p}")
        mod = tuple(c % p for c in modulus)
        if len(mod) < 2:
            raise ParameterError("modulus polynomial must have degree >= 1")
        if mod[-1] != 1:
            raise ParameterError("modulus polynomial must be monic")
        degree = len(mod) - 1
        q = p ** degree
        if q > self.MAX_ELEMENTS:
            raise ParameterError(f"field with {q} elements exceeds the 2^16 cap")
        self.p = p
        self.degree = degree
        self.q = q
        self.modulus = mod
        self.zero = (0,) * degree
        self.one = self.element((1,))
        self.omega = self.element((0, 1))
        self._exp: list[tuple[int, ...]] = []
        self._log: dict[tuple[int, ...], int] = {}
        low = mod[:-1]
        v = self.one
        for k in range(q - 1):
            if v in self._log:
                break
            self._log[v] = k
            self._exp.append(v)
            # v * x: shift the coefficients up one place, then subtract top * modulus
            top = v[-1]
            v = tuple((a - top * c) % p for a, c in zip((0,) + v[:-1], low))
        if len(self._exp) != q - 1 or v != self.one:
            raise ParameterError(
                f"modulus polynomial is not primitive over Z_{p}: x does not have order {q - 1}"
            )

    def element(self, coeffs) -> tuple[int, ...]:
        """Reduce a coefficient sequence into canonical element form."""
        c = _poly_mod(list(coeffs), self.modulus, self.p)
        return tuple(c) + (0,) * (self.degree - len(c))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.element(prod)

    def pow(self, a, k: int):
        if k < 0:
            raise ParameterError("negative exponents are not supported")
        acc = self.one
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def exp(self, k: int):
        """omega**k."""
        return self._exp[k % (self.q - 1)]

    def log(self, a) -> int:
        """Discrete log base omega; defined for nonzero elements only."""
        if a == self.zero:
            raise ParameterError("discrete log of zero is undefined")
        try:
            return self._log[tuple(a)]
        except KeyError:
            raise ParameterError(f"{a!r} is not a canonical element of this field") from None

    def elements(self):
        """All q elements, zero first, then ascending powers of omega."""
        return [self.zero] + list(self._exp)

    def __repr__(self) -> str:
        return f"GfContext(p={self.p}, degree={self.degree}, modulus={self.modulus})"
