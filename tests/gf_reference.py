"""Reference arithmetic for GF(p^e) on coefficient tuples.

The tests check the packed exp/log tables of fhskit.numtheory.GfContext
against this module, so it shares no code with them: an element is a tuple of
e coefficients in ascending degree, reduced mod p, and a product is reduced by
long division by the monic modulus.  Nothing here checks that the modulus is
primitive; tests that need it find out from the order of x.
"""

from itertools import product


class RefField:
    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        self.degree = len(self.modulus) - 1
        self.q = p**self.degree
        self.zero = (0,) * self.degree
        self.one = self.element((1,))
        self.x = self.element((0, 1))

    def element(self, coeffs):
        """Reduce a coefficient sequence into canonical element form."""
        p, d, mod = self.p, self.degree, self.modulus
        a = [c % p for c in coeffs]
        for top in range(len(a) - 1, d - 1, -1):
            lead = a[top]
            if lead:
                shift = top - d
                for i, c in enumerate(mod):
                    a[shift + i] = (a[shift + i] - lead * c) % p
        a = a[:d]
        return tuple(a) + (0,) * (d - len(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.degree - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    prod[i + j] += x * y
        return self.element(prod)

    def pow(self, a, k):
        if k < 0:
            raise ValueError("negative exponents are not supported")
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def elements(self):
        """All q elements."""
        return list(product(range(self.p), repeat=self.degree))

    def powers_of_x(self):
        """x^0, ..., x^(q-2), by repeated multiplication."""
        out, w = [], self.one
        for _ in range(self.q - 1):
            out.append(w)
            w = self.mul(w, self.x)
        return out

    def x_is_primitive(self):
        """True iff x has order q - 1, tested on the prime factors of q - 1."""
        n = self.q - 1
        if self.pow(self.x, n) != self.one:
            return False
        primes, m, r = [], n, 2
        while r * r <= m:
            if m % r == 0:
                primes.append(r)
                while m % r == 0:
                    m //= r
            r += 1
        if m > 1:
            primes.append(m)
        return all(self.pow(self.x, n // r) != self.one for r in primes)


def reference_cyclotomic(ref, e):
    """The cyclotomic sequence over GF(q) on tuple arithmetic: y(i) = k mod e where i = log(omega^k - 1).

    omega^0 - 1 is zero, and that class member takes the one index the others
    miss, log(-1).
    """
    powers = ref.powers_of_x()
    log = {w: k for k, w in enumerate(powers)}
    assert len(log) == ref.q - 1, "x is not primitive"
    minus_one = ref.sub(ref.zero, ref.one)
    out = [None] * (ref.q - 1)
    for k, w in enumerate(powers):
        idx = log[minus_one] if w == ref.one else log[ref.sub(w, ref.one)]
        assert out[idx] is None, idx
        out[idx] = k % e
    return tuple(out)
