"""The four benchmark workloads: seeded op streams, op runners and output checks.

Every op stream is a sequence of decks.  A deck holds one op per size stratum
(and per op kind), so that a run made of whole decks has the same mix of sizes
whatever the seed; the seed picks the exact inputs inside each stratum.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from itertools import permutations

import independent as ind


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class CliCall:
    rc: int
    out: str
    err: str


def geometric(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One size from each of count equal log-width strata of [lo, hi), near its middle.

    The draw spans the middle fifth of its stratum: whole decks then give
    every run nearly the same sizes, so quantiles move little with the seed.
    """
    step = (hi / lo) ** (1 / count)
    return [lo * step ** (k + 0.4 + 0.2 * rng.random()) for k in range(count)]


def run_cli(cli, argv: list[str], stdin: str = "") -> CliCall:
    """Call fhskit.cli.main in-process with captured streams, as a shell would."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved
    return CliCall(rc, out.getvalue(), err.getvalue())


def check_refusal(call: CliCall, rc: int) -> str | None:
    """A refusal passes with the documented exit code and one message line, nothing else."""
    if call.rc != rc:
        return f"exit code {call.rc}, expected {rc}"
    if "Traceback" in call.err or call.out:
        return "refusal printed a traceback or output"
    if call.err.count("\n") != 1 or not call.err.endswith("\n"):
        return f"refusal message is not one line: {call.err!r}"
    return None


def compare_report(got: dict, seq, l: int) -> str | None:
    want = ind.report(seq, l)
    for key, value in want.items():
        if got.get(key) != value:
            return f"verification {key}={got.get(key)!r}, recomputed {value!r}"
    return None


def check_profile_identities(values, n: int, pairs: int, auto: bool) -> str | None:
    if sum(values) != pairs:
        return f"sum of H is {sum(values)}, matching pairs {pairs}"
    if auto:
        if values[0] != n:
            return f"auto H(0) = {values[0]} != n = {n}"
        if any(values[tau] != values[n - tau] for tau in range(1, n)):
            return "auto profile is not symmetric"
    return None


class Workload:
    """An op stream plus the code that runs and checks each op."""

    name = ""
    why = ""

    def __init__(self, fhskit):
        self.fx = fhskit

    def decks(self, seed: int):
        """An endless stream of decks (lists of ops), the same for the same seed."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Build the op's inputs; return the zero-argument callable that is timed."""
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        """None when the output is correct, otherwise the cause of failure."""
        raise NotImplementedError

    def handed_back(self, op: Op, output) -> int:
        """Symbols in the sequences the op hands back to its caller."""
        return 0

    def sample_check(self, seed: int) -> list[str]:
        """Cross-checks on a fixed small sample, against fhskit's brute-force oracle or theorems."""
        return []


# ---------------------------------------------------------------------------
# construct_verify


def _lift_at_index(order, index: int) -> list[int]:
    """The permutation of 0..2m-1 that reduces to order mod m, as fhskit documents its liftings.

    Bit j of index, most significant first, is 0 when residue j takes the
    earlier of its two slots.
    """
    m = len(order) // 2
    pi = [0] * (2 * m)
    for j in range(m):
        a, b = [i for i, v in enumerate(order) if v == j]
        bit = (index >> (m - 1 - j)) & 1
        pi[a], pi[b] = (j, j + m) if bit == 0 else (j + m, j)
    return pi


def _rows_in_order(l: int, d1: int, d2: int, m: int, pi, shift: int = 0) -> list[int]:
    l1 = l // m
    rows = [[(i * d1 + j + shift) % l for i in range(l1)] for j in range(m)]
    rows += [[(i * d2 + k + shift) % l for i in range(l1)] for k in range(m)]
    out: list[int] = []
    for idx in pi:
        out.extend(rows[idx])
    return out


def _small_auto_max(seq) -> int:
    n = len(seq)
    return max(sum(seq[i] == seq[(i + tau) % n] for i in range(n)) for tau in range(1, n))


def _optimal_order_seqs(m: int) -> list[tuple[int, ...]]:
    """All uniform (2m, m) sequences with maximum autocorrelation 2, lexicographic."""
    base = tuple(sorted(list(range(m)) * 2))
    return sorted(s for s in set(permutations(base)) if _small_auto_max(s) == 2)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class ConstructVerify(Workload):
    name = "construct_verify"
    why = ("CLI construct, pipeline and gapbound|verify ops at l in [1e3, 1e4]: "
           "builders, Fhs validation, reports and JSON carry the time; the kernel stays linear")

    KINDS = ("pair", "triple", "recursive", "pipeline_b1", "pipeline_qr", "pipeline_cyc", "gapbound")
    REFUSALS = ("refuse_pair_nonunit", "refuse_recursive_pi", "refuse_triple_offsets", "refuse_gapbound_l")
    STRATA = 16
    B1_N = (3, 5, 7, 9, 11, 13, 15)
    QR_P = (3, 5, 7, 11, 13)
    CYC_FIELDS = ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3))

    def __init__(self, fhskit):
        super().__init__(fhskit)
        self.orders = {m: _optimal_order_seqs(m) for m in (2, 3, 4)}

    def decks(self, seed: int):
        rng = random.Random(seed)
        while True:
            deck = [self._make(kind, l, rng) for kind in self.KINDS for l in stratified(rng, 1e3, 1e4, self.STRATA)]
            deck += [self._make(kind, rng.uniform(1e3, 1e4), rng) for kind in self.REFUSALS]
            rng.shuffle(deck)
            yield deck

    @staticmethod
    def _near(target: float, ok) -> int:
        """The smallest integer at or above target that satisfies ok."""
        l = int(target)
        while not ok(l):
            l += 1
        return l

    @staticmethod
    def _steps(l: int, count: int, rng) -> list[int]:
        while True:
            steps = [rng.randrange(1, l) for _ in range(count)]
            if len(set(steps)) == count and ind.is_unit_set(l, steps):
                return steps

    def _recursive_shape(self, m: int, target: float, rng, with_gap: bool):
        """(l, d1, d2) with common gcd m; d1 + d2 < l - m + 2 (the gap condition) iff with_gap."""
        l1 = self._near(target / m, lambda v: v % 2 == 1 and v >= 7)
        while True:
            a, b = sorted(rng.sample(range(1, l1), 2))
            if ind.is_unit_set(l1, [a, b]) and (a + b <= l1 - 1) == with_gap:
                return m * l1, m * a, m * b

    def _make(self, kind: str, target: float, rng) -> Op:
        if kind == "pair":
            l = self._near(target, lambda v: v % 2 == 1)
            d1, d2 = self._steps(l, 2, rng)
            offsets = [rng.randrange(l), rng.randrange(l)] if rng.random() < 0.25 else [0, 0]
            return Op(kind, {"l": l, "d": [d1, d2], "offsets": offsets})
        if kind == "triple":
            l = self._near(target, lambda v: math.gcd(v, 6) == 1)
            return Op(kind, {"l": l, "d": self._steps(l, 3, rng)})
        if kind == "recursive":
            m, gap = rng.choice((2, 3, 4)), rng.random() < 0.5
            l, d1, d2 = self._recursive_shape(m, target, rng, gap)
            pi = _lift_at_index(rng.choice(self.orders[m]), rng.randrange(1 << m))
            shift = rng.randrange(1, l) if rng.random() < 0.25 else 0
            return Op(kind, {"l": l, "d": [d1, d2], "m": m, "pi": pi, "shift": shift, "gap": gap})
        if kind.startswith("pipeline_"):
            return self._make_pipeline(kind, target, rng)
        if kind == "gapbound":
            l = self._near(target, lambda v: v >= 4)
            if l % 2 == 0 and rng.random() < 0.5:
                n = rng.randrange(l + 2, 3 * l, 2)
                if n % l == 0:
                    n += 2
            else:
                n = l * rng.choice((2, 3))
            return Op(kind, {"n": n, "l": l})
        if kind == "refuse_pair_nonunit":
            l = self._near(target, lambda v: v % 2 == 1 and ind.smallest_prime_factor(v) < v)
            p1 = ind.smallest_prime_factor(l)
            return Op(kind, {"l": l, "d": [p1 * rng.randrange(1, l // p1), 1]})
        if kind == "refuse_recursive_pi":
            l, d1, d2 = self._recursive_shape(3, target, rng, True)
            pi = [rng.randrange(6) for _ in range(5)]
            pi.append(pi[0])
            return Op(kind, {"l": l, "d": [d1, d2], "pi": pi})
        if kind == "refuse_triple_offsets":
            l = self._near(target, lambda v: math.gcd(v, 6) == 1)
            return Op(kind, {"l": l, "d": self._steps(l, 3, rng), "offsets": [0, rng.randrange(1, l), 0]})
        if kind == "refuse_gapbound_l":
            return Op(kind, {"n": int(target), "l": rng.choice((1, 2))})
        raise ValueError(kind)

    def _make_pipeline(self, kind: str, target: float, rng) -> Op:
        if kind == "pipeline_b1":
            m = rng.choice(self.B1_N)
            phi = list(range(m))
            rng.shuffle(phi)
            eps = self._steps(m, 2, rng)
            gamma = [rng.randrange(m), rng.randrange(m)]
            seed = {"kind": "b1", "N": m, "phi": phi, "epsilon": eps, "gamma": gamma}
        elif kind == "pipeline_qr":
            m = rng.choice(self.QR_P)
            squares = sorted({v * v % m for v in range(1, m)})
            others = [v for v in range(1, m) if v not in squares]
            b = rng.choice(((0, 1), (1, 0)))
            x = [rng.choice(squares if bit == 0 else others) for bit in b]
            seed = {"kind": "qr", "p": m, "b": list(b), "x": x}
        else:
            p, d = rng.choice(self.CYC_FIELDS)
            m = (p ** d - 1) // 2
            seed = {"kind": "cyclotomic", "p": p, "modulus": list(ind.random_primitive(p, d, rng)), "e": m}
        gap = rng.random() < 0.5
        l, d1, d2 = self._recursive_shape(m, target, rng, gap)
        return Op(kind, {"seed": seed, "l": l, "d": [d1, d2], "m": m,
                         "lift": rng.randrange(1 << m), "gap": gap})

    @staticmethod
    def _seed_flags(seed: dict) -> list[str]:
        if seed["kind"] == "b1":
            return ["--seed", "b1", "--N", str(seed["N"]), "--k", "2", "--phi", _csv(seed["phi"]),
                    "--epsilon", _csv(seed["epsilon"]), "--gamma", _csv(seed["gamma"])]
        if seed["kind"] == "qr":
            return ["--seed", "qr", "--p", str(seed["p"]), "--b", _csv(seed["b"]), "--x", _csv(seed["x"])]
        return ["--seed", "cyclotomic", "--p", str(seed["p"]), "--modulus", _csv(seed["modulus"]),
                "--e", str(seed["e"])]

    def argv(self, op: Op) -> list[str]:
        p = op.params
        if op.kind in ("pair", "refuse_pair_nonunit"):
            argv = ["construct", "pair", "--l", str(p["l"]), "--d1", str(p["d"][0]), "--d2", str(p["d"][1])]
            if any(p.get("offsets", ())):
                argv += ["--offsets", _csv(p["offsets"])]
            return argv
        if op.kind in ("triple", "refuse_triple_offsets"):
            argv = ["construct", "triple", "--l", str(p["l"])]
            for i, d in enumerate(p["d"]):
                argv += [f"--d{i + 1}", str(d)]
            if "offsets" in p:
                argv += ["--offsets", _csv(p["offsets"])]
            return argv
        if op.kind in ("recursive", "refuse_recursive_pi"):
            argv = ["construct", "recursive", "--l", str(p["l"]), "--d1", str(p["d"][0]),
                    "--d2", str(p["d"][1]), "--pi", _csv(p["pi"])]
            if p.get("shift"):
                argv += ["--shift-k", str(p["shift"])]
            return argv
        if op.kind.startswith("pipeline_"):
            return ["pipeline", *self._seed_flags(p["seed"]), "--l", str(p["l"]), "--d1", str(p["d"][0]),
                    "--d2", str(p["d"][1]), "--lift-index", str(p["lift"])]
        return ["gapbound", str(p["n"]), str(p["l"]), "--build"]

    def prepare(self, op: Op):
        cli = self.fx.cli
        argv = self.argv(op)
        if op.kind != "gapbound":
            return lambda: [run_cli(cli, argv)]

        def build_then_verify():
            built = run_cli(cli, argv)
            return [built, run_cli(cli, ["verify", "-"], stdin=built.out)]

        return build_then_verify

    def handed_back(self, op: Op, output) -> int:
        if op.kind.startswith("refuse"):
            return 0
        obj = json.loads(output[0].out)
        return len(obj["fhs"]["seq"]) + len(obj.get("seed_fhs", {}).get("seq", ()))

    def check(self, op: Op, output) -> str | None:
        calls = output
        if op.kind.startswith("refuse"):
            return check_refusal(calls[0], 2)
        for call in calls:
            if call.rc != 0 or "Traceback" in call.err:
                return f"exit code {call.rc}: {call.err.strip()[:200]}"
        try:
            objs = [json.loads(call.out) for call in calls]
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if op.kind == "gapbound":
            return self._check_gapbound(op, *objs)
        return self._check_construction(op, objs[0])

    def _expected_sequence(self, op: Op, obj: dict):
        p = op.params
        l = p["l"]
        if op.kind == "pair":
            return [(i * d + off) % l for d, off in zip(p["d"], p["offsets"]) for i in range(l)]
        if op.kind == "triple":
            return [(i * d) % l for d in p["d"] for i in range(l)]
        if op.kind == "recursive":
            return _rows_in_order(l, p["d"][0], p["d"][1], p["m"], p["pi"], p["shift"])
        return _rows_in_order(l, p["d"][0], p["d"][1], p["m"], obj.get("pi", ()))

    def _promised(self, op: Op):
        """(max_auto, min_gap) the theorem promises; None where it promises nothing."""
        p = op.params
        l = p["l"]
        if op.kind == "pair":
            gap = min(min(d - 1, l - d - 1) for d in p["d"]) if not any(p["offsets"]) else None
            return 2, gap
        if op.kind == "triple":
            return 3, min(min(d - 1, l - d - 1) for d in p["d"])
        gap = p["d"][0] - 1 if p["gap"] and not p.get("shift") else None
        return 2, gap

    def _check_seed(self, op: Op, obj: dict) -> str | None:
        p = op.params
        seed, m = p["seed"], p["m"]
        got = obj.get("seed_fhs", {}).get("seq")
        if seed["kind"] == "b1":
            phi, eps, gam = seed["phi"], seed["epsilon"], seed["gamma"]
            want = [phi[eps[t % 2] * ((t % m + gam[t % 2]) % m) % m] for t in range(2 * m)]
        elif seed["kind"] == "qr":
            want = [seed["x"][t % 2] * (t % m) ** 2 % m for t in range(2 * m)]
        else:
            if got is None or sorted(got) != sorted(list(range(m)) * 2) or _small_auto_max(got) != 2:
                return "cyclotomic seed is not an optimal uniform (2m, m, 2) sequence"
            want = got
        if got != want:
            return f"{seed['kind']} seed differs from its definition"
        if obj.get("pi") != _lift_at_index(got, p["lift"]):
            return "pi is not the documented lifting of the seed"
        return None

    def _check_construction(self, op: Op, obj: dict) -> str | None:
        fhs = obj.get("fhs", {})
        seq, l = fhs.get("seq"), fhs.get("l")
        if l != op.params["l"]:
            return f"alphabet {l}, expected {op.params['l']}"
        if op.kind.startswith("pipeline_"):
            cause = self._check_seed(op, obj)
            if cause:
                return cause
        if seq != self._expected_sequence(op, obj):
            return "sequence differs from the construction's definition"
        ver = obj.get("verification", {})
        cause = compare_report(ver, seq, l)
        if cause:
            return cause
        claims = obj.get("claims", {})
        for key in ("max_auto", "min_gap"):
            if claims.get(key) is not None and claims[key] != ver[key]:
                return f"claimed {key}={claims[key]}, verified {ver[key]}"
        want_h, want_gap = self._promised(op)
        if ver["max_auto"] != want_h or ver["max_auto"] != ver["lg_bound"]:
            return f"max_auto {ver['max_auto']}, promised {want_h} = lg_bound {ver['lg_bound']}"
        if want_gap is not None and (ver["min_gap"] != want_gap or claims.get("min_gap") != want_gap):
            return f"min_gap {ver['min_gap']} (claimed {claims.get('min_gap')}), promised {want_gap}"
        return None

    def _check_gapbound(self, op: Op, built: dict, ver: dict) -> str | None:
        n, l = op.params["n"], op.params["l"]
        case, bound = ind.gap_bound(n, l)
        if (built.get("case"), built.get("bound")) != (case, bound):
            return f"bound {built.get('case')}/{built.get('bound')}, expected {case}/{bound}"
        seq = built.get("fhs", {}).get("seq")
        if seq is None or len(seq) != n or built["fhs"].get("l") != l:
            return "extremal sequence has the wrong shape"
        cause = compare_report(ver, seq, l)
        if cause:
            return cause
        if not ver["is_uniform"] or ver["min_gap"] != bound:
            return f"extremal sequence: uniform={ver['is_uniform']}, min_gap {ver['min_gap']} != bound {bound}"
        return None

    def sample_check(self, seed: int) -> list[str]:
        """Small-l ops through the same path, profiles checked against the brute-force oracle."""
        rng = random.Random(seed + 1)
        causes = []
        for kind in self.KINDS:
            op = self._make(kind, rng.uniform(60, 120), rng)
            output = self.prepare(op)()
            cause = self.check(op, output)
            if cause is None:
                obj = json.loads(output[0].out)
                seq = obj["fhs"]["seq"]
                fhs = self.fx.sequence.Fhs(obj["fhs"]["l"], tuple(seq))
                brute = self.fx.oracle.brute_hamming_profile(fhs).values
                if list(brute) != ind.auto_profile(seq):
                    cause = "brute-force profile differs from the reference profile"
                elif max(brute[1:]) != self.fx.sequence.max_auto(fhs):
                    cause = "max_auto differs from the brute-force profile"
            if cause:
                causes.append(f"sample {kind}: {cause}")
        return causes


# ---------------------------------------------------------------------------
# verify_dense


class VerifyDense(Workload):
    name = "verify_dense"
    why = ("verify_sequence (auto) beside cross_profile on random sequences, l in [2, 16], n in [1e3, 3e3]: "
           "the correlation kernel is over 90% of op time")

    STRATA = 32
    KINDS = ("auto", "cross")

    def decks(self, seed: int):
        rng = random.Random(seed)
        while True:
            deck = [self._make(kind, pairs, rng)
                    for kind in self.KINDS for pairs in stratified(rng, 1000 ** 2 / 16, 3000 ** 2 / 2, self.STRATA)]
            rng.shuffle(deck)
            yield deck

    @staticmethod
    def _make(kind: str, pairs: float, rng, n_range=(1000, 3000)) -> Op:
        """Random sequences with about `pairs` matching pairs, in the middle shape (l, n) that fits.

        The kernel's cost per pair depends on l, so a seeded choice of l would
        move p50 from seed to seed.
        """
        shapes = [(l, round(math.sqrt(pairs * l))) for l in range(2, 17)]
        shapes = [(l, n) for l, n in shapes if n_range[0] <= n <= n_range[1]]
        l, n = shapes[len(shapes) // 2] if shapes else (2, n_range[1])
        s = [rng.randrange(l) for _ in range(n)]
        t = [rng.randrange(l) for _ in range(n)] if kind == "cross" else None
        return Op(kind, {"l": l, "s": s, "t": t})

    def prepare(self, op: Op):
        Fhs = self.fx.sequence.Fhs
        s = Fhs(op.params["l"], tuple(op.params["s"]))
        if op.kind == "auto":
            report = self.fx.report
            return lambda: report.verify_sequence(s)
        t = Fhs(op.params["l"], tuple(op.params["t"]))
        sequence = self.fx.sequence
        return lambda: sequence.cross_profile(s, t)

    def check(self, op: Op, output) -> str | None:
        s, l = op.params["s"], op.params["l"]
        if op.kind == "auto":
            return compare_report(output.to_json_dict(), s, l)
        t = op.params["t"]
        if output.kind != "cross":
            return f"cross profile of distinct sequences has kind {output.kind!r}"
        cause = check_profile_identities(output.values, len(s), ind.matching_pairs(s, t), auto=False)
        if cause:
            return cause
        if list(output.values) != ind.cross_profile(s, t):
            return "cross profile differs from the reference profile"
        return None

    def sample_check(self, seed: int) -> list[str]:
        rng = random.Random(seed + 1)
        seq = self.fx.sequence
        brute = self.fx.oracle.brute_hamming_profile
        causes = []
        for kind in self.KINDS:
            op = self._make(kind, 40_000, rng, n_range=(300, 600))
            cause = self.check(op, self.prepare(op)())
            s = seq.Fhs(op.params["l"], tuple(op.params["s"]))
            if cause is None and kind == "auto":
                values = seq.auto_profile(s).values
                cause = check_profile_identities(values, s.n, ind.matching_pairs(s.symbols, s.symbols), auto=True)
                if cause is None and values != brute(s).values:
                    cause = "auto profile differs from the brute-force profile"
            elif cause is None:
                t = seq.Fhs(op.params["l"], tuple(op.params["t"]))
                if seq.cross_profile(s, t).values != brute(s, t).values:
                    cause = "cross profile differs from the brute-force profile"
            if cause:
                causes.append(f"sample {kind}: {cause}")
        return causes


# ---------------------------------------------------------------------------
# oracle_search


class OracleSearch(Workload):
    name = "oracle_search"
    why = ("exhaustive oracles: optimal order sequences m = 4, max-min-gap search n <= 20, l <= 10, "
           "DU sets l <= 60; DFS self time dominates")

    PIM_M = 4
    PIM_PER_DECK = 4
    # (n, l) and l values whose searches each take 4-100 ms at the parent commit,
    # so that no single class sets p90 on its own.
    GAP_CASES = ((15, 6), (17, 6), (18, 6), (19, 6), (16, 7), (17, 7), (18, 7), (19, 7), (20, 7),
                 (13, 8), (15, 8), (16, 8), (17, 8), (20, 8), (12, 9), (13, 9), (14, 9), (15, 9),
                 (16, 9), (17, 9), (18, 9), (13, 10), (14, 10), (16, 10), (18, 10))
    DU_L = (25, 35, 39, 45, 50, 51, 57)

    def __init__(self, fhskit):
        super().__init__(fhskit)
        self.survivors = _optimal_order_seqs(self.PIM_M)

    def decks(self, seed: int):
        rng = random.Random(seed)
        deck = [Op("pim", {"m": self.PIM_M})] * self.PIM_PER_DECK
        deck += [Op("gap", {"n": n, "l": l}) for n, l in self.GAP_CASES]
        deck += [Op("du", {"l": l}) for l in self.DU_L]
        while True:
            yield rng.sample(deck, len(deck))

    def prepare(self, op: Op):
        oracle = self.fx.oracle
        p = op.params
        if op.kind == "pim":
            return lambda: oracle.enumerate_optimal_order_seqs(p["m"])
        if op.kind == "gap":
            return lambda: oracle.exhaustive_max_min_gap(p["n"], p["l"])
        return lambda: oracle.enumerate_du_sets(p["l"])

    def handed_back(self, op: Op, output) -> int:
        return sum(s.n for s in output.survivors) if op.kind == "pim" else 0

    def check(self, op: Op, output) -> str | None:
        p = op.params
        if op.kind == "pim":
            m = p["m"]
            if output.total_candidates != math.factorial(2 * m) // 2 ** m:
                return f"total_candidates {output.total_candidates}"
            if [s.symbols for s in output.survivors] != self.survivors:
                return "survivors differ from the uniform sequences with max_auto 2"
            members = sorted(s.symbols for _, group in output.canonical_classes for s in group)
            if members != self.survivors:
                return "canonical classes do not partition the survivors"
            return None
        if op.kind == "gap":
            want = ind.max_min_gap(p["n"], p["l"])
            if output != want:
                return f"max-min gap {output}, exhaustive search finds {want}"
            return None
        l = p["l"]
        sets, want = [d.elements for d in output], ind.du_sets(l)
        if sets != want:
            return f"{len(sets)} DU sets differ from the {len(want)} found by trying every subset"
        if not all(self.fx.numtheory.is_du(l, elems) for elems in sets):
            return "a DU set fails is_du"
        return None

    def sample_check(self, seed: int) -> list[str]:
        """Every gap case's exact answer against the theorem: at most the two-branch
        bound, and equal to it wherever extremal_sequence attains it."""
        gapbound = self.fx.gapbound
        causes = []
        for n, l in self.GAP_CASES:
            want = ind.max_min_gap(n, l)
            bound = ind.gap_bound(n, l)[1]
            claimed = gapbound.gap_upper_bound(n, l).bound
            if claimed != bound or want > bound:
                causes.append(f"gap ({n}, {l}): exact {want}, bound {bound}, gap_upper_bound {claimed}")
                continue
            try:
                seq = gapbound.extremal_sequence(n, l).symbols
            except self.fx.errors.UnsupportedCaseError:
                continue
            if want != bound or not ind.is_uniform(seq, l) or ind.min_gap(seq) != bound:
                causes.append(f"gap ({n}, {l}): extremal_sequence does not attain the bound {bound}")
        return causes


# ---------------------------------------------------------------------------
# field_seed


def _fields(strata: int) -> list[tuple[int, int, int, list[int]]]:
    """One extension field GF(p^d), d >= 2, per geometric size stratum from 25 to 2^16.

    Only fields where q - 1 has a divisor f in [2, 8] qualify.  Verification
    costs (q - 1) * f matching pairs, so small e = (q - 1) / f is left out on
    purpose (q = 2^16 with e = 3 takes minutes), and f is not seeded: the
    strata take turns with the two smallest, because a seeded f moved a run's
    total cost by 6% from seed to seed.
    """
    fields = []
    for p in range(2, 257):
        if ind.smallest_prime_factor(p) != p:
            continue
        d = 2
        while p ** d <= 1 << 16:
            q = p ** d
            fs = [f for f in range(2, 9) if (q - 1) % f == 0]
            if q >= 25 and fs:
                fields.append((q, p, d, fs[:2]))
            d += 1
    chosen = []
    for target in geometric(25, 1 << 16, strata):
        best = min((f for f in fields if f not in chosen), key=lambda f: abs(math.log(f[0] / target)))
        chosen.append(best)
    return chosen


class FieldSeed(Workload):
    name = "field_seed"
    why = ("CLI seed cyclotomic over GF(p^d), q from 25 to 2^16 with small f: "
           "the GfContext table build and cyclotomic_construct carry the time")

    STRATA = 48
    REFUSALS = ("refuse_reducible", "refuse_e", "refuse_p")
    LOG_SAMPLE = 64

    def __init__(self, fhskit):
        super().__init__(fhskit)
        self.fields = _fields(self.STRATA)

    def decks(self, seed: int):
        rng = random.Random(seed)
        while True:
            deck = [self._make(k, rng) for k in range(self.STRATA)]
            deck += [self._make_refusal(kind, rng) for kind in rng.sample(self.REFUSALS, 2)]
            rng.shuffle(deck)
            yield deck

    def _make(self, k: int, rng) -> Op:
        q, p, d, fs = self.fields[k]
        f = fs[k % len(fs)]
        return Op("cyclotomic", {"p": p, "q": q, "modulus": list(ind.random_primitive(p, d, rng)),
                                 "e": (q - 1) // f, "f": f})

    def _make_refusal(self, kind: str, rng) -> Op:
        q, p, d, fs = rng.choice(self.fields[:8])
        if kind == "refuse_reducible":
            return Op(kind, {"p": p, "modulus": list(ind.random_reducible(p, d, rng)), "e": (q - 1) // fs[0]})
        modulus = list(ind.random_primitive(p, d, rng))
        if kind == "refuse_e":
            return Op(kind, {"p": p, "modulus": modulus, "e": next(e for e in range(2, q) if (q - 1) % e)})
        return Op(kind, {"p": rng.choice((4, 6, 9, 15)), "modulus": modulus, "e": 2})

    def prepare(self, op: Op):
        cli = self.fx.cli
        p = op.params
        argv = ["seed", "cyclotomic", "--p", str(p["p"]), "--modulus", _csv(p["modulus"]), "--e", str(p["e"])]
        return lambda: run_cli(cli, argv)

    def handed_back(self, op: Op, output) -> int:
        return 0 if op.kind.startswith("refuse") else op.params["q"] - 1

    def check(self, op: Op, output) -> str | None:
        if op.kind.startswith("refuse"):
            return check_refusal(output, 2)
        if output.rc != 0 or "Traceback" in output.err:
            return f"exit code {output.rc}: {output.err.strip()[:200]}"
        p = op.params
        try:
            obj = json.loads(output.out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if obj.get("construction") != {"kind": "cyclotomic", "q": p["q"], "e": p["e"], "f": p["f"]}:
            return f"construction {obj.get('construction')}"
        seq, l = obj["fhs"]["seq"], obj["fhs"]["l"]
        if l != p["e"] or len(seq) != p["q"] - 1:
            return "sequence has the wrong shape"
        counts = [0] * l
        for v in seq:
            counts[v] += 1
        if set(counts) != {p["f"]}:
            return f"symbol counts {sorted(set(counts))}, expected each {p['f']}"
        return compare_report(obj["verification"], seq, l)

    def sample_check(self, seed: int) -> list[str]:
        """log(exp(k)) == k and exp(k) == x^k mod f on the two smallest fields and a mid one."""
        rng = random.Random(seed + 1)
        causes = []
        for k in (0, 1, len(self.fields) // 2):
            q, p, d, _ = self.fields[k]
            modulus = ind.random_primitive(p, d, rng)
            ctx = self.fx.numtheory.GfContext(p, modulus)
            for exponent in rng.sample(range(q - 1), min(self.LOG_SAMPLE, q - 1)):
                element = ctx.exp(exponent)
                if ctx.log(element) != exponent or tuple(element) != ind.x_power(exponent, modulus, p):
                    causes.append(f"GF({q}) modulus {modulus}: exp/log wrong at k = {exponent}")
                    break
        return causes


WORKLOADS = {w.name: w for w in (ConstructVerify, VerifyDense, OracleSearch, FieldSeed)}
