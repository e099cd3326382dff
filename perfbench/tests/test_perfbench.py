"""Tests of the benchmark itself: generators, checks, failure counting and span arithmetic."""

import json
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import run
import spans
import workloads
from workloads import Op


def first_ops(workload, seed, decks=2):
    return [(op.kind, json.dumps(op.params, sort_keys=True))
            for deck in islice(workload.decks(seed), decks) for op in deck]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(fhskit, name):
    workload = workloads.WORKLOADS[name](fhskit)
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


def flip_one_symbol(obj: dict) -> None:
    seq = obj["fhs"]["seq"]
    seq[len(seq) // 2] = (seq[len(seq) // 2] + 1) % obj["fhs"]["l"]


class CorruptingConstruct(workloads.ConstructVerify):
    def prepare(self, op):
        call = super().prepare(op)

        def corrupted():
            output = call()
            if output[0].rc == 0:
                obj = json.loads(output[0].out)
                flip_one_symbol(obj)
                output[0].out = json.dumps(obj)
            return output

        return corrupted


class CorruptingField(workloads.FieldSeed):
    def prepare(self, op):
        call = super().prepare(op)

        def corrupted():
            output = call()
            if output.rc == 0:
                obj = json.loads(output.out)
                flip_one_symbol(obj)
                output.out = json.dumps(obj)
            return output

        return corrupted


class CorruptingDense(workloads.VerifyDense):
    def prepare(self, op):
        call = super().prepare(op)
        return lambda: _flip_profile(call()) if op.kind == "cross" else call()


def _flip_profile(profile):
    values = list(profile.values)
    values[1], values[2] = values[1] + 1, values[2] - 1  # same sum, wrong profile
    object.__setattr__(profile, "values", tuple(values))
    return profile


class SmallOps:
    """Decks of one small op each, so that the test stays fast."""

    def __init__(self, workload, make):
        self.workload = workload
        self.make = make

    def decks(self, seed):
        rng = random.Random(seed)
        while True:
            yield [self.make(rng)]

    def __getattr__(self, name):
        return getattr(self.workload, name)


def test_flipped_symbol_fails_construct_ops(fhskit):
    workload = CorruptingConstruct(fhskit)
    kinds = iter(workload.KINDS * 2)
    small = SmallOps(workload, lambda rng: workload._make(next(kinds), 150, rng))
    result = run.run_ops(small, seed=3, seconds=0, min_ops=len(workload.KINDS))
    assert sum(result["failures"].values()) == len(workload.KINDS)


def test_flipped_symbol_fails_field_ops(fhskit):
    workload = CorruptingField(fhskit)
    small = SmallOps(workload, lambda rng: workload._make(rng.randrange(4), rng))
    result = run.run_ops(small, seed=3, seconds=0, min_ops=4)
    assert sum(result["failures"].values()) == 4


def test_wrong_cross_profile_fails(fhskit):
    workload = CorruptingDense(fhskit)
    small = SmallOps(workload, lambda rng: workload._make("cross", 20_000, rng, n_range=(200, 400)))
    result = run.run_ops(small, seed=3, seconds=0, min_ops=3)
    assert sum(result["failures"].values()) == 3


def test_uncorrupted_ops_pass(fhskit):
    workload = workloads.ConstructVerify(fhskit)
    kinds = iter(workload.KINDS + workload.REFUSALS)
    small = SmallOps(workload, lambda rng: workload._make(next(kinds), 150, rng))
    result = run.run_ops(small, seed=3, seconds=0, min_ops=len(workload.KINDS) + len(workload.REFUSALS))
    assert not result["failures"]
    assert result["refusals"] == len(workload.REFUSALS)


def test_refusal_with_traceback_or_wrong_code_fails():
    good = workloads.CliCall(2, "", "error: step 3 is not a unit modulo 9\n")
    assert workloads.check_refusal(good, 2) is None
    assert workloads.check_refusal(workloads.CliCall(1, "", "Traceback (most recent call last):\n  x\n"), 2)
    assert workloads.check_refusal(workloads.CliCall(2, "", "usage: fhskit\nerror: bad\n"), 2)
    assert workloads.check_refusal(workloads.CliCall(3, "", "unsupported case: x\n"), 2)


def test_oracle_checks_need_the_exact_answers(fhskit):
    workload = workloads.OracleSearch(fhskit)
    du, gap = Op("du", {"l": 25}), Op("gap", {"n": 15, "l": 6})
    sets = fhskit.oracle.enumerate_du_sets(25)
    assert workload.check(du, sets) is None
    assert workload.check(du, sets[:-1])
    assert workload.check(du, [])
    best = fhskit.oracle.exhaustive_max_min_gap(15, 6)
    assert workload.check(gap, best) is None
    assert workload.check(gap, best - 1)
    assert workload.check(gap, -1)


def test_independent_references_match_fhskit_oracles(fhskit):
    import independent as ind

    rng = random.Random(11)
    Fhs = fhskit.sequence.Fhs
    brute = fhskit.oracle.brute_hamming_profile
    # l = 2 with n = 200 takes the big-integer path, l = 40 the pair-binning one
    for n, l in ((1, 1), (7, 3), (200, 2), (150, 40), (97, 5)):
        s = [rng.randrange(l) for _ in range(n)]
        t = [rng.randrange(l) for _ in range(n)]
        assert ind.auto_profile(s) == list(brute(Fhs(l, tuple(s))).values)
        assert ind.cross_profile(s, t) == list(brute(Fhs(l, tuple(s)), Fhs(l, tuple(t))).values)
    for l in (9, 15, 25):
        assert ind.du_sets(l) == [d.elements for d in fhskit.oracle.enumerate_du_sets(l)]
    for n, l in ((5, 7), (9, 4), (12, 5), (15, 6)):
        assert ind.max_min_gap(n, l) == fhskit.oracle.exhaustive_max_min_gap(n, l)


def test_benchmark_does_not_load_numpy():
    code = "import sys, run, spans, workloads, compare; run.load_fhskit(); print('numpy' in sys.modules)"
    here = Path(run.__file__).parent
    proc = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class Raising(workloads.Workload):
    name = "raising"

    def decks(self, seed):
        while True:
            yield [Op("boom")]

    def prepare(self, op):
        def call():
            raise RuntimeError("op blew up")

        return call

    def check(self, op, output):
        raise AssertionError("never reached: the op raised")


def test_op_that_raises_counts_as_failed():
    result = run.run_ops(Raising(None), seed=0, seconds=0, min_ops=5)
    assert len(result["latencies"]) == 5
    assert result["failures"] == {"boom: raised RuntimeError: op blew up": 5}


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children A [1, 4] and B [5, 9]; A has child a [2, 3];
    # C [8, 9.5] overlaps B, so root's covered time is [1, 4] + [5, 9.5].
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 9.5]
    own = spans.self_times(parent, start, end)
    assert own == pytest.approx([10 - 3 - 4.5, 3 - 1, 1, 4, 1.5])


def test_tracer_charges_self_time_to_layers():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = tracer.wrap("sequence.kernel:leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("report:middle", middle)
    assert traced_middle() == 2  # no op open: nothing is recorded
    assert len(tracer.start) == 0
    root = tracer.begin_op()
    traced_middle()
    tracer.close(root)
    metrics = spans.layer_metrics(tracer, ops=1)
    own = tracer.self_times()
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0])
    assert metrics["report.calls"][0] == 1
    assert metrics["sequence.kernel_calls"][0] == 2
    assert metrics["sequence.kernel_s"][0] == pytest.approx(2.0)
    assert spans.accounted_share(tracer) == pytest.approx((1.0, 1.0))


def test_install_traces_cross_layer_calls_and_uninstalls(fhskit):
    original = fhskit.report.max_auto
    tracer = spans.Tracer()
    tracer.install(fhskit)
    try:
        assert fhskit.report.max_auto is not original
        root = tracer.begin_op()
        fhskit.report.verify_sequence(fhskit.sequence.Fhs(5, (0, 1, 2, 3, 4, 0, 2, 4, 1, 3)))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert fhskit.report.max_auto is original
    names = {tracer.names[n] for n in tracer.name}
    assert {"report:verify_sequence", "sequence.kernel:max_auto", "sequence.kernel:cross_profile",
            "sequence.profile_validate:CorrelationProfile", "bench:count"} <= names
    assert tracer.counters["kernel_pairs"] == 20


def test_kernel_pairs_do_not_depend_on_internal_calls(fhskit, monkeypatch):
    s = fhskit.sequence.Fhs(5, (0, 1, 2, 3, 4, 0, 2, 4, 1, 3))
    t = fhskit.sequence.Fhs(5, (0, 0, 1, 1, 2, 2, 3, 3, 4, 4))
    counts = {}
    for label, own_auto in (("auto calls cross", False), ("auto computes itself", True)):
        if own_auto:
            brute = fhskit.oracle.brute_hamming_profile

            def auto_profile(fhs):  # computes H itself, as a mirrored or FFT kernel would
                return brute(fhs)

            auto_profile.__module__ = fhskit.sequence.__name__
            monkeypatch.setattr(fhskit.sequence, "auto_profile", auto_profile)
        tracer = spans.Tracer()
        tracer.install(fhskit)
        try:
            root = tracer.begin_op()
            fhskit.sequence.max_auto(s)
            fhskit.sequence.auto_profile(s)
            fhskit.sequence.cross_profile(s, t)
            tracer.close(root)
        finally:
            tracer.uninstall()
        counts[label] = tracer.counters["kernel_pairs"]
    # 20 pairs for each auto call of s, 20 for s against t
    assert counts == {"auto calls cross": 60, "auto computes itself": 60}


def test_scale_divides_out_host_speed():
    import speed

    lat = [0.010, 0.020, 0.030]
    assert speed.scale(lat, [speed.NOMINAL_S] * 4) == pytest.approx(lat)
    assert speed.scale(lat, [2 * speed.NOMINAL_S] * 4) == pytest.approx([x / 2 for x in lat])
    # op 0 sits between reference times 1 and 3: the host ran at half speed
    assert speed.scale(lat[:1], [speed.NOMINAL_S, 3 * speed.NOMINAL_S], window=0) == pytest.approx([0.005])
    # a one-op spike in the reference time is outvoted by its neighbours
    refs = [speed.NOMINAL_S] * 5 + [21 * speed.NOMINAL_S]
    assert speed.scale([0.01] * 5, refs, window=2)[2] == pytest.approx(0.010)


def test_compare_verdicts():
    import compare

    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    gain = [(p, p * 1.2) for p in steady]
    assert compare.verdict(metric, gain, (0, 0), alternating=True)["status"] == "gain"
    assert compare.verdict(metric, gain, (0, 0), alternating=False)["status"] == "ok"
    assert compare.verdict(metric, gain, (0, 3), alternating=True)["status"] == "ok"
    loss = [(p, p * 0.8) for p in steady]
    assert compare.verdict(metric, loss, (0, 0), alternating=True)["status"] == "regression"
    noisy = [(p * f, p) for p, f in zip(steady, (0.7, 1.3) * 5)]
    assert compare.verdict(metric, noisy, (0, 0), alternating=True)["status"] == "unresolved"
