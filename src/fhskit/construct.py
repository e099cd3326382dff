"""The two construction families for optimal sequences with controlled gaps.

Unit-step family: concatenate two or three decimations s^d of (0, 1, ..., l-1)
with steps taken from a difference unit set of Z_l.  Block-recursive family:
when gcd(l, d1) = gcd(l, d2) = gcd(l, d2 - d1) = m >= 2, concatenate the 2m
rows of two m x (l/m) matrices in the order given by a permutation of
{0, ..., 2m-1}; the result's correlation equals that of the permutation's
mod-m reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import ParameterError
from .numtheory import du_violation
from .sequence import Fhs, max_auto


def _ds_symbols(l: int, d: int, offset: int, length: int) -> tuple[int, ...]:
    return tuple((i * d + offset) % l for i in range(length))


def _require_offsets(l: int, offsets) -> None:
    for off in offsets:
        if not 0 <= off < l:
            raise ParameterError(f"offset {off} out of range [0, {l})")


def ds_sequence(l: int, d: int, offset: int = 0, length: int | None = None) -> Fhs:
    """The decimated sequence s_i = (i*d + offset) mod l for 0 <= i < length."""
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    _require_offsets(l, (offset,))
    if length is None:
        length = l
    if length < 1:
        raise ParameterError(f"need length >= 1, got {length}")
    return Fhs(l, _ds_symbols(l, d, offset, length))


def unit_step_min_gap(l: int, steps) -> int:
    """min over the steps d of {d - 1, l - d - 1}: the gap of a zero-offset concatenation."""
    return min(min(d - 1, l - d - 1) for d in steps)


def _require_du_steps(l: int, steps: tuple[int, ...]) -> None:
    if l < 3:
        raise ParameterError(f"need l >= 3, got {l}")
    reason = du_violation(l, steps)
    if reason is not None:
        raise ParameterError(f"steps {steps} do not lie in a difference unit set: {reason}")


@dataclass(frozen=True)
class PairParams:
    """Two distinct difference-unit steps plus optional per-block offsets."""

    l: int
    d1: int
    d2: int
    i1: int = 0
    i2: int = 0

    # The maximum nontrivial autocorrelation of the built sequence, for any offsets.
    guaranteed_max_auto: ClassVar[int] = 2
    # The condition behind the promises.
    constraints: ClassVar[str] = "d1,d2 in DU(Z_l)"

    def __post_init__(self) -> None:
        _require_du_steps(self.l, (self.d1, self.d2))
        _require_offsets(self.l, (self.i1, self.i2))

    @property
    def guaranteed_gap(self) -> int | None:
        """The gap promise, available only for zero offsets."""
        if (self.i1, self.i2) == (0, 0):
            return unit_step_min_gap(self.l, (self.d1, self.d2))
        return None


@dataclass(frozen=True)
class TripleParams:
    """Three distinct difference-unit steps plus optional per-block offsets.

    Nonzero offsets can break optimality, so they are refused unless
    unchecked=True, which builds the sequence without any promise.
    """

    l: int
    d1: int
    d2: int
    d3: int
    i1: int = 0
    i2: int = 0
    i3: int = 0
    unchecked: bool = False

    # The condition behind the promises.
    constraints: ClassVar[str] = "d1,d2,d3 in DU(Z_l)"

    def __post_init__(self) -> None:
        _require_du_steps(self.l, (self.d1, self.d2, self.d3))
        _require_offsets(self.l, (self.i1, self.i2, self.i3))
        if not (self._zero_offsets or self.unchecked):
            raise ParameterError(
                "nonzero offsets void the optimality guarantee; pass unchecked=True to build anyway"
            )

    @property
    def _zero_offsets(self) -> bool:
        return (self.i1, self.i2, self.i3) == (0, 0, 0)

    @property
    def guaranteed_max_auto(self) -> int | None:
        """The maximum nontrivial autocorrelation 3, promised only for zero offsets."""
        return 3 if self._zero_offsets else None

    @property
    def guaranteed_gap(self) -> int | None:
        """The gap promise, available only for zero offsets."""
        if self._zero_offsets:
            return unit_step_min_gap(self.l, (self.d1, self.d2, self.d3))
        return None


def construct_pair(params: PairParams) -> Fhs:
    """s^{d1,i1} || s^{d2,i2}: an optimal (2l, l, 2) sequence for any offsets."""
    l = params.l
    return Fhs(l, _ds_symbols(l, params.d1, params.i1, l) + _ds_symbols(l, params.d2, params.i2, l))


def construct_triple(params: TripleParams) -> Fhs:
    """s^{d1,i1} || s^{d2,i2} || s^{d3,i3}: an optimal (3l, l, 3) sequence at zero offsets."""
    l = params.l
    return Fhs(
        l,
        _ds_symbols(l, params.d1, params.i1, l)
        + _ds_symbols(l, params.d2, params.i2, l)
        + _ds_symbols(l, params.d3, params.i3, l),
    )


# ---------------------------------------------------------------------------
# Block-recursive construction


def _common_gcd(l: int, d1: int, d2: int) -> int:
    if not 2 <= d1 < d2 < l:
        raise ParameterError(f"need 2 <= d1 < d2 < l, got d1={d1}, d2={d2}, l={l}")
    g = math.gcd(l, d1)
    if math.gcd(l, d2) != g or math.gcd(l, d2 - d1) != g:
        raise ParameterError(
            f"gcd(l,d1), gcd(l,d2), gcd(l,d2-d1) must coincide; got "
            f"{math.gcd(l, d1)}, {math.gcd(l, d2)}, {math.gcd(l, d2 - d1)}"
        )
    if g < 2:
        raise ParameterError("common gcd m must be >= 2; m = 1 is the plain pair construction")
    l1 = l // g
    # implied by the shared gcd; derived coprimality is asserted, not re-validated
    assert math.gcd(l1, d1 // g) == 1 and math.gcd(l1, d2 // g) == 1
    assert math.gcd(l1, (d2 - d1) // g) == 1
    return g


@dataclass(frozen=True)
class OrderSeq:
    """A length-2m sequence over Z_m in which every residue appears exactly twice."""

    m: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ParameterError(f"need m >= 1, got {self.m}")
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) != 2 * self.m:
            raise ParameterError(f"order sequence must have length {2 * self.m}")
        for j in range(self.m):
            if sum(1 for v in symbols if v == j) != 2:
                raise ParameterError(f"residue {j} must appear exactly twice")

    def as_fhs(self) -> Fhs:
        return Fhs(self.m, self.symbols)


def pi_m(pi, m: int) -> OrderSeq:
    """Reduce a permutation of {0, ..., 2m-1} entrywise modulo m."""
    pi = tuple(pi)
    if sorted(pi) != list(range(2 * m)):
        raise ParameterError(f"pi must be a permutation of {{0, ..., {2 * m - 1}}}")
    return OrderSeq(m, tuple(v % m for v in pi))


@dataclass(frozen=True)
class RecursiveParams:
    """Inputs of the block-recursive construction.

    m, when given, must equal the common gcd; shift moves every entry of the
    base matrix by +shift mod l, which keeps the correlation promise but voids
    the gap promise.
    """

    l: int
    d1: int
    d2: int
    pi: tuple[int, ...]
    m: int | None = None
    shift: int = 0

    def __post_init__(self) -> None:
        g = _common_gcd(self.l, self.d1, self.d2)
        if self.m is not None and self.m != g:
            raise ParameterError(f"(l, d1, d2) have common gcd {g}, but m = {self.m} is needed")
        object.__setattr__(self, "m", g)
        object.__setattr__(self, "pi", tuple(self.pi))
        pi_m(self.pi, g)  # raises unless pi permutes {0, ..., 2m-1}
        _require_offsets(self.l, (self.shift,))

    @property
    def order_seq(self) -> OrderSeq:
        return pi_m(self.pi, self.m)

    @property
    def guaranteed_max_auto(self) -> int:
        """The built sequence's maximum nontrivial autocorrelation: that of pi mod m."""
        return max_auto(self.order_seq.as_fhs())

    @property
    def guaranteed_gap(self) -> int | None:
        """The gap promise d1 - 1, available only unshifted and when gap_condition holds."""
        if self.shift == 0 and gap_condition(self.l, self.d1, self.d2):
            return self.d1 - 1
        return None

    @property
    def constraints(self) -> str:
        """The conditions behind the promises: the gcd rule, plus the gap rule when it holds."""
        gcd_rule = "gcd(l,d1)=gcd(l,d2)=gcd(l,d2-d1)=m"
        return gcd_rule + ", d1+d2<l-m+2" if gap_condition(self.l, self.d1, self.d2) else gcd_rule


def recursive_rows(l: int, d1: int, d2: int):
    """Rows s^0..s^{m-1} and t^0..t^{m-1}: s^j_i = i*d1 + j, t^k_i = i*d2 + k (mod l)."""
    g = _common_gcd(l, d1, d2)
    l1 = l // g
    s_rows = [tuple((i * d1 + j) % l for i in range(l1)) for j in range(g)]
    t_rows = [tuple((i * d2 + k) % l for i in range(l1)) for k in range(g)]
    return s_rows, t_rows


def gap_condition(l: int, d1: int, d2: int) -> bool:
    """True iff d1 + d2 < l - m + 2, under which the built gap equals d1 - 1."""
    return d1 + d2 < l - _common_gcd(l, d1, d2) + 2


def construct_recursive(params: RecursiveParams) -> Fhs:
    """Concatenate the 2m rows in pi order into a length-2l sequence.

    Every entry is moved by +params.shift mod l.  The output's maximum
    autocorrelation equals that of the mod-m reduction of pi viewed as a
    length-2m sequence; its minimum gap is params.guaranteed_gap whenever that
    is not None.
    """
    s_rows, t_rows = recursive_rows(params.l, params.d1, params.d2)
    blocks = s_rows + t_rows
    seq: list[int] = []
    for idx in params.pi:
        seq.extend(blocks[idx])
    if params.shift:
        seq = [(v + params.shift) % params.l for v in seq]
    return Fhs(params.l, tuple(seq))


def lift_at_index(order: OrderSeq, index: int) -> tuple[int, ...]:
    """The index-th lifting of the order sequence, 0 <= index < 2^m.

    The index reads as a binary choice word, most significant bit first: bit j
    = 0 means the earlier position of residue j receives value j (and the
    later one j + m).
    """
    m = order.m
    if not 0 <= index < (1 << m):
        raise ParameterError(f"lift index {index} out of range [0, 2^{m})")
    pi = [0] * (2 * m)
    for j in range(m):
        a = order.symbols.index(j)
        b = order.symbols.index(j, a + 1)
        bit = (index >> (m - 1 - j)) & 1
        pi[a], pi[b] = (j, j + m) if bit == 0 else (j + m, j)
    return tuple(pi)


def lift_order_seq(order: OrderSeq) -> list[tuple[int, ...]]:
    """All 2^m permutations whose mod-m reduction is the given order sequence.

    Output follows the lexicographic order of the binary choice word (see
    lift_at_index).
    """
    return [lift_at_index(order, index) for index in range(1 << order.m)]
