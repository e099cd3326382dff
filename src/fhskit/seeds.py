"""Generators of known optimal uniform sequences, used as concatenation orders.

Three families: the b1 decimation-interleaving construction over Z_N, the
cyclotomic construction over GF(q) with q = ef + 1, and the quadratic-residue
construction over Z_p.  Each seed of shape (2m, m, 2) can be lifted through
the block-recursive construction into a (2l, l, 2) sequence via
pipeline_seed_to_wgfhs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import OrderSeq, RecursiveParams, construct_recursive, lift_at_index
from .errors import ConsistencyError, ParameterError, SearchSpaceError
from .numtheory import (
    GfContext,
    du_violation,
    is_prime,
    multiplicative_order,
    smallest_prime_factor,
    smallest_primitive_root,
)
from .sequence import Fhs, max_auto


@dataclass(frozen=True)
class B1Params:
    """Parameters of the b1 construction: y(t) = x_{epsilon(t0)}(t1 + gamma(t0)).

    phi is a permutation of Z_N, epsilon injects Z_k into a difference unit
    set of Z_N, and gamma is an arbitrary map Z_k -> Z_N.  Defaults reproduce
    the standard instance: identity phi, epsilon = (1, ..., k), gamma = 0.
    """

    N: int
    k: int = 2
    phi: tuple[int, ...] | None = None
    epsilon: tuple[int, ...] | None = None
    gamma: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.N < 3:
            raise ParameterError(f"need N >= 3, got {self.N}")
        p1 = smallest_prime_factor(self.N)
        if not 1 <= self.k <= p1 - 1:
            raise ParameterError(f"need 1 <= k <= p1 - 1 = {p1 - 1}, got {self.k}")
        phi = tuple(self.phi) if self.phi is not None else tuple(range(self.N))
        if sorted(phi) != list(range(self.N)):
            raise ParameterError("phi must be a permutation of Z_N")
        eps = tuple(self.epsilon) if self.epsilon is not None else tuple(range(1, self.k + 1))
        if len(eps) != self.k:
            raise ParameterError(f"epsilon must have length k = {self.k}")
        reason = du_violation(self.N, eps)
        if reason is not None:
            raise ParameterError(f"epsilon {eps} does not lie in a difference unit set: {reason}")
        gam = tuple(v % self.N for v in self.gamma) if self.gamma is not None else (0,) * self.k
        if len(gam) != self.k:
            raise ParameterError(f"gamma must have length k = {self.k}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "gamma", gam)


def b1_construct(params: B1Params) -> Fhs:
    """The length-kN sequence over Z_N; optimal and uniform for admissible parameters."""
    N, k = params.N, params.k
    out = []
    for t in range(k * N):
        t0 = t % k
        t1 = t % N
        i = params.epsilon[t0]
        arg = (t1 + params.gamma[t0]) % N
        out.append(0 if i == 0 else params.phi[i * arg % N])
    return Fhs(N, tuple(out))


@dataclass(frozen=True)
class CyclotomyParams:
    """Cyclotomic construction setup over GF(q), q = ef + 1."""

    field: GfContext
    e: int

    def __post_init__(self) -> None:
        q = self.field.q
        if self.e < 1 or (q - 1) % self.e != 0:
            raise ParameterError(f"e must divide q - 1 = {q - 1}, got {self.e}")

    @property
    def f(self) -> int:
        return (self.field.q - 1) // self.e

    @property
    def special_log(self) -> int:
        """log(-1), the index of the element 1: x -> log(x - 1) on x not in {0, 1} misses only it."""
        q = self.field.q
        return (q - 1) // 2 if q % 2 == 1 else 0  # -1 = 1 when q is even


def cyclotomic_construct(params: CyclotomyParams) -> Fhs:
    """Length (q-1) sequence over Z_e: y(i) = z iff i lies in the image of class z.

    Class z is {omega^(z + j*e)}; its image under the indexing map must tile
    Z_{q-1} exactly once across all classes, otherwise the field setup is wrong.
    """
    q, e = params.field.q, params.e
    images = params.field.logs_minus_one()  # log(omega^k - 1) at index k
    images[0] = params.special_log
    out: list[int | None] = [None] * (q - 1)
    for z in range(e):
        for idx in images[z::e]:  # omega^(z + j*e) for j in range(f)
            if out[idx] is not None:
                raise ConsistencyError(f"class images collide at index {idx}")
            out[idx] = z
    if any(v is None for v in out):
        raise ConsistencyError("class images do not cover Z_(q-1)")
    return Fhs(e, tuple(out))  # type: ignore[arg-type]


def is_valid_b(b) -> bool:
    """Check the cyclic correlation condition on a binary block pattern."""
    b = tuple(b)
    if len(b) < 2:
        raise ParameterError("need length >= 2")
    if any(v not in (0, 1) for v in b):
        raise ParameterError("pattern entries must be 0 or 1")
    k = len(b)
    for tau in range(1, k):
        if sum((-1) ** (b[t] - b[(t + tau) % k]) for t in range(k)) > 0:
            return False
    return True


def valid_b_patterns(k: int) -> list[tuple[int, ...]]:
    """All valid binary patterns of length k, by brute force (k <= 8)."""
    if k < 2:
        raise ParameterError("need k >= 2")
    if k > 8:
        raise SearchSpaceError(f"pattern enumeration is capped at k <= 8, got {k}")
    out = []
    for w in range(1 << k):
        b = tuple((w >> (k - 1 - i)) & 1 for i in range(k))
        if is_valid_b(b):
            out.append(b)
    return out


@dataclass(frozen=True)
class QrParams:
    """Quadratic-residue construction inputs over Z_p, p an odd prime.

    B is a binary pattern satisfying the correlation condition; x picks one
    residue from D_{B(t)} per block, all distinct, where D_0 is the set of
    quadratic residues and D_1 its complement in Z_p^*.
    """

    p: int
    k: int
    b: tuple[int, ...]
    x: tuple[int, ...]
    alpha: int | None = None

    def __post_init__(self) -> None:
        if self.p % 2 == 0 or not is_prime(self.p):
            raise ParameterError(f"p must be an odd prime, got {self.p}")
        if not 2 <= self.k < self.p:
            raise ParameterError(f"need 2 <= k < p, got k={self.k}")
        alpha = self.alpha if self.alpha is not None else smallest_primitive_root(self.p)
        if multiplicative_order(alpha, self.p) != self.p - 1:
            raise ParameterError(f"alpha = {alpha} is not a primitive element of Z_{self.p}")
        object.__setattr__(self, "alpha", alpha)
        b = tuple(self.b)
        if len(b) != self.k:
            raise ParameterError(f"pattern must have length k = {self.k}")
        if not is_valid_b(b):
            raise ParameterError("pattern violates the cyclic correlation condition")
        object.__setattr__(self, "b", b)
        x = tuple(self.x)
        if len(x) != self.k or len(set(x)) != self.k:
            raise ParameterError("x must contain k pairwise distinct values")
        d0, d1 = self.residue_classes()
        for t, v in enumerate(x):
            if not 1 <= v < self.p:
                raise ParameterError(f"x({t}) = {v} out of range [1, {self.p})")
            if v not in (d0 if b[t] == 0 else d1):
                raise ParameterError(f"x({t}) = {v} lies in the wrong residue class for B({t}) = {b[t]}")
        object.__setattr__(self, "x", x)

    def residue_classes(self) -> tuple[set[int], set[int]]:
        """(D_0, D_1): even and odd powers of the primitive element."""
        d0 = {pow(self.alpha, 2 * i, self.p) for i in range((self.p - 1) // 2)}
        d1 = {v for v in range(1, self.p) if v not in d0}
        return d0, d1


def qr_construct(params: QrParams) -> Fhs:
    """The length-kp sequence y(t) = x(t mod k) * (t mod p)^2 over Z_p.

    Uniformity is not guaranteed by the construction; callers should check the
    output (see sequence.is_uniform).
    """
    p, k = params.p, params.k
    return Fhs(p, tuple(params.x[t % k] * pow(t % p, 2, p) % p for t in range(k * p)))


def lift_seed(seed: Fhs, l: int, d1: int, d2: int, lift_index: int = 0) -> RecursiveParams:
    """The recursive-construction inputs that lift an optimal uniform (2m, m, 2) seed.

    The seed acts as the concatenation order; lift_index in [0, 2^m) selects
    which of its liftings supplies the permutation pi.
    """
    m = seed.alphabet_size
    try:
        order = OrderSeq(m, seed.symbols)  # length 2m, every residue twice: the seed is uniform
    except ParameterError as exc:
        raise ParameterError(f"seed is not a valid order sequence: {exc}") from None
    if max_auto(seed) != 2:
        raise ParameterError("seed must be an optimal uniform (2m, m, 2) sequence")
    return RecursiveParams(l=l, d1=d1, d2=d2, pi=lift_at_index(order, lift_index), m=m)


def pipeline_seed_to_wgfhs(seed: Fhs, l: int, d1: int, d2: int, lift_index: int = 0) -> Fhs:
    """Lift an optimal uniform (2m, m, 2) seed into a (2l, l, 2) sequence.

    The result inherits the seed's maximum autocorrelation regardless of
    lift_index (see lift_seed).
    """
    return construct_recursive(lift_seed(seed, l, d1, d2, lift_index))
