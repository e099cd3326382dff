"""Independent brute-force references and exhaustive enumerators.

Everything here recomputes results from first principles: the correlation
oracle is a literal double loop sharing no code with the fast profile, and the
enumerators stream complete, deterministic (lexicographic) result sets.
Guards are hard errors, never silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SearchSpaceError
from .numtheory import DuSet, smallest_prime_factor, units
from .sequence import CorrelationProfile, Fhs, max_auto

ENUMERATION_GUARD = 10_000_000


def brute_hamming_profile(s: Fhs, t: Fhs | None = None) -> CorrelationProfile:
    """Every H(tau) by the literal double sum over positions."""
    if t is None:
        t = s
    if s.alphabet_size != t.alphabet_size or len(s.symbols) != len(t.symbols):
        raise ParameterError("sequences must share alphabet size and length")
    a = s.symbols
    b = t.symbols
    n = len(a)
    values = []
    for tau in range(n):
        count = 0
        for i in range(n):
            if a[i] == b[(i + tau) % n]:
                count += 1
        values.append(count)
    return CorrelationProfile("auto" if a == b else "cross", tuple(values))


def uniform_count(n: int, l: int) -> int:
    """Number of uniform length-n sequences over Z_l."""
    q, eps = divmod(n, l)
    count = math.comb(l, eps) * math.factorial(n)
    count //= math.factorial(q + 1) ** eps
    count //= math.factorial(q) ** (l - eps)
    return count


def enumerate_uniform(n: int, l: int, guard: int = ENUMERATION_GUARD):
    """Yield all uniform length-n sequences over Z_l in lexicographic order."""
    if n < 1 or l < 1:
        raise ParameterError("need n >= 1 and l >= 1")
    total = uniform_count(n, l)
    if total > guard:
        raise SearchSpaceError(f"{total} uniform sequences exceed the guard of {guard}")
    q, eps = divmod(n, l)
    used = [0] * l

    def walk(depth: int, extras: int, deficit: int):
        # deficit = sum over symbols of max(0, q - used); extras = #symbols above q
        remaining = n - depth
        if remaining == 0:
            yield Fhs(l, tuple(prefix))
            return
        for v in range(l):
            if used[v] >= q + 1:
                continue
            new_extras = extras + (1 if used[v] == q else 0)
            if new_extras > eps:
                continue
            new_deficit = deficit - (1 if used[v] < q else 0)
            capacity = new_deficit + (eps - new_extras)
            if not new_deficit <= remaining - 1 <= capacity:
                continue
            used[v] += 1
            prefix.append(v)
            yield from walk(depth + 1, new_extras, new_deficit)
            prefix.pop()
            used[v] -= 1

    prefix: list[int] = []
    yield from walk(0, 0, q * l)


def canonical_form(s: Fhs) -> tuple[int, ...]:
    """Least representative under cyclic shifts plus alphabet relabeling.

    For each rotation the lexicographically best relabeling is the
    first-occurrence renumbering; the canonical form is the minimum over
    rotations.  Reversal is deliberately not part of the symmetry group.
    """
    syms = s.symbols
    n = len(syms)
    best: tuple[int, ...] | None = None
    for r in range(n):
        mapping: dict[int, int] = {}
        out = []
        for i in range(n):
            v = syms[(i + r) % n]
            if v not in mapping:
                mapping[v] = len(mapping)
            out.append(mapping[v])
        cand = tuple(out)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of an exhaustive filter: survivors plus their equivalence classes."""

    parameters: dict
    total_candidates: int
    survivors: tuple[Fhs, ...]
    canonical_classes: tuple[tuple[tuple[int, ...], tuple[Fhs, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "total_candidates": self.total_candidates,
            "survivors": [list(s.symbols) for s in self.survivors],
            "classes": [
                {"canonical": list(canon), "members": [list(s.symbols) for s in members]}
                for canon, members in self.canonical_classes
            ],
        }


def enumerate_optimal_order_seqs(m: int) -> EnumerationReport:
    """All uniform (2m, m) sequences with maximum autocorrelation exactly 2.

    These are precisely the optimal order sequences usable by the recursive
    construction.  Survivors are grouped under shift + relabel equivalence.
    """
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    if m > 5:
        raise SearchSpaceError(f"order-sequence enumeration is capped at m <= 5, got {m}")
    survivors = []
    total = 0
    for s in enumerate_uniform(2 * m, m):
        total += 1
        if max_auto(s) == 2:
            survivors.append(s)
    classes: dict[tuple[int, ...], list[Fhs]] = {}
    for s in survivors:
        classes.setdefault(canonical_form(s), []).append(s)
    ordered = tuple(sorted((canon, tuple(members)) for canon, members in classes.items()))
    return EnumerationReport(
        parameters={"n": 2 * m, "l": m, "m": m},
        total_candidates=total,
        survivors=tuple(survivors),
        canonical_classes=ordered,
    )


def _uniform_min_diff_feasible(n: int, l: int, min_diff: int, node_guard: int) -> bool:
    """Does a uniform (n, l) sequence with all cyclic adjacent |diffs| >= min_diff exist?

    Complete depth-first search over symbol assignments with count-budget and
    adjacency pruning.  Rotation symmetry pins position 0: to the symbol 0
    when every symbol must appear (n >= l), otherwise to the smallest symbol
    used.
    """
    q, eps = divmod(n, l)
    nodes = 0

    def walk(depth: int, extras: int, deficit: int, prev: int, first: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_guard:
            raise SearchSpaceError(f"gap search exceeded the {node_guard}-node guard")
        remaining = n - depth
        if remaining == 0:
            return abs(prev - first) >= min_diff
        lo = first + 1 if q == 0 else 0
        for v in range(lo, l):
            if used[v] >= q + 1 or abs(v - prev) < min_diff:
                continue
            new_extras = extras + (1 if used[v] == q else 0)
            if new_extras > eps:
                continue
            new_deficit = deficit - (1 if used[v] < q else 0)
            if not new_deficit <= remaining - 1 <= new_deficit + (eps - new_extras):
                continue
            used[v] += 1
            if walk(depth + 1, new_extras, new_deficit, v, first):
                used[v] -= 1
                return True
            used[v] -= 1
        return False

    first_candidates = [0] if q >= 1 else list(range(l))
    for first in first_candidates:
        used = [0] * l
        used[first] = 1
        deficit = q * l - (1 if q >= 1 else 0)
        # n < l means q = 0, so placing any symbol spends one of the eps extras
        extras = 0 if q >= 1 else 1
        if walk(1, extras, deficit, first, first):
            return True
    return False


def exhaustive_max_min_gap(n: int, l: int, node_guard: int = ENUMERATION_GUARD) -> int:
    """Maximum of min_gap over all uniform (n, l) sequences, by complete search."""
    if n < 2 or l < 1:
        raise ParameterError("need n >= 2 and l >= 1")
    for min_diff in range(l - 1, 0, -1):
        if _uniform_min_diff_feasible(n, l, min_diff, node_guard):
            return min_diff - 1
    return -1


def enumerate_du_sets(l: int) -> list:
    """All maximal difference unit sets of Z_l, lexicographically ordered.

    Vertices are the units; edges join pairs whose difference is a unit.  All
    maximal cliques of this graph have size p1 - 1 (elements are pairwise
    distinct modulo p1), so a complete search for cliques of that size finds
    every DU set.
    """
    if l < 3:
        raise ParameterError(f"need l >= 3, got {l}")
    if l > 60:
        raise SearchSpaceError(f"DU-set enumeration is capped at l <= 60, got {l}")
    target = smallest_prime_factor(l) - 1
    vertices = units(l)
    results: list[tuple[int, ...]] = []

    def extend(clique: list[int], candidates: list[int]) -> None:
        if len(clique) == target:
            results.append(tuple(clique))
            return
        for idx, v in enumerate(candidates):
            if len(clique) + len(candidates) - idx < target:
                break
            clique.append(v)
            narrowed = [w for w in candidates[idx + 1:] if math.gcd(w - v, l) == 1]
            extend(clique, narrowed)
            clique.pop()

    extend([], vertices)
    return [DuSet(l, elems) for elems in results]
