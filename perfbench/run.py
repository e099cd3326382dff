"""Run one fhskit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives fhskit in this process as a closed loop: each op starts
when the previous one has returned.  Inputs come from the seed; every output
is checked outside the timed region.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a run with spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
SETUP_RUNS = 9

SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import fhskit.cli
fhskit.cli.build_parser()
t1 = time.process_time()
print(repr(t1 - t0), fhskit.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_fhskit():
    """Import fhskit from this checkout's src/, and from nowhere else."""
    init = SRC / "fhskit" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no fhskit package at {init.parent}")
    sys.path.insert(0, str(SRC))
    try:
        import fhskit
        import fhskit.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        raise BenchError(f"cannot import fhskit from {SRC}: {exc}") from None
    if Path(fhskit.__file__).resolve() != init.resolve():
        raise BenchError(f"fhskit was imported from {fhskit.__file__}, not from {SRC}")
    return fhskit


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median CPU time a fresh interpreter takes to import fhskit.cli and build its parser.

    One extra first run fills the bytecode cache and is discarded.  The median
    is scaled to the nominal host speed by reference loops run around the children.
    """
    times, refs = [], []
    for _ in range(runs + 1):
        refs.append(speed.reference_time())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        value, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"set-up child imported fhskit from {path.strip()}")
        times.append(float(value))
    return statistics.median(times[1:]) * speed.NOMINAL_S / statistics.median(refs)


def run_ops(workload, seed: int, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> dict:
    """The closed loop over whole decks: time each op, then check it before the next one.

    Runs stop at a deck boundary once `seconds` of op time and `min_ops` ops are
    reached, so every run holds the same mix of op sizes.
    """
    result = {"latencies": [], "wall": [], "refs": [], "failures": Counter(), "refusals": 0}
    decks = workload.decks(seed)
    while sum(result["latencies"]) < seconds or len(result["latencies"]) < min_ops:
        for op in next(decks):
            result["refs"].append(speed.reference_time())
            time_op(workload, op, tracer, result)
            result["refusals"] += op.kind.startswith("refuse")
    result["refs"].append(speed.reference_time())
    result["busy"] = sum(result["latencies"])
    return result


def cpu_time() -> float:
    """CPU seconds used by this process and by the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_op(workload, op, tracer, result: dict) -> None:
    """Run one op in the timed region, then check its output.

    An op's latency is the CPU time it uses.  Ops run in this process on one
    thread and never wait for I/O, so CPU time is their wall time minus the
    time the host ran something else, which on a shared machine is neither
    small nor steady.  The wall time is kept for the printed CPU share.
    """
    call = workload.prepare(op)
    root = tracer.begin_op() if tracer else None
    t0 = time.perf_counter()
    c0 = cpu_time()
    try:
        output, cause = call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        output, cause = None, f"raised {type(exc).__name__}: {exc}"
    c1 = cpu_time()
    t1 = time.perf_counter()
    if tracer:
        tracer.close(root)
    result["latencies"].append(c1 - c0)
    result["wall"].append(t1 - t0)
    if cause is None:
        try:
            cause = workload.check(op, output)
            if tracer and cause is None:
                tracer.counters["symbols_handed_back"] += workload.handed_back(op, output)
        except Exception as exc:
            cause = f"check raised {type(exc).__name__}: {exc}"
    if cause is not None:
        result["failures"][f"{op.kind}: {cause}"[:200]] += 1


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def print_metrics(metrics: dict, notes: dict | None = None) -> None:
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} {notes.get(name, '')}".rstrip())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(tracer, workload: str, seed: int) -> Path:
    """One raw array file per span column, in native byte order, and names.json for the rest."""
    path = OUT / f"spans-{workload}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    columns = ("name", "parent", "op", "start", "end")
    (path / "names.json").write_text(json.dumps({
        "names": tracer.names,
        "typecodes": {col: getattr(tracer, col).typecode for col in columns},
    }))
    for col in columns:
        with open(path / f"{col}.bin", "wb") as f:
            getattr(tracer, col).tofile(f)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A run that hangs must still end, without a result, well inside any caller's timeout.
    signal.alarm(int(max(170, 3 * args.seconds + 60)))
    try:
        fhskit = load_fhskit()
        import spans
        import workloads
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        setup_s = measure_setup()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](fhskit)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, one client, closed loop")
    # The fixed sample runs first: it checks the reference answers against fhskit's
    # brute-force oracle and theorems, and warms the code paths the timed ops use.
    try:
        sample_failures = workload.sample_check(args.seed)
    except Exception as exc:  # a crash in the sample is a failed check, reported with the rest
        sample_failures = [f"sample check raised {type(exc).__name__}: {exc}"]
    gc.collect()
    rss_before = peak_rss_mb()

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(fhskit)
    try:
        result = run_ops(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    attempted = len(result["latencies"])
    failed = sum(result["failures"].values())
    wall = sum(result["wall"])
    print(f"peak RSS before the first op, with fhskit and the benchmark loaded: {rss_before:.1f} MB")
    print(f"ops {attempted} ({result['refusals']} refusals) in {result['busy']:.2f} s of op CPU time; "
          f"{wall:.2f} s of op wall time, of which the CPU time is {result['busy'] / wall:.1%}")
    raw = end_to_end(result["latencies"], setup_s)
    print(f"host speed: the reference loop took a median {statistics.median(result['refs']) * 1e3:.3f} ms "
          f"of CPU (nominal {speed.NOMINAL_S * 1e3:g} ms); unscaled: ops_per_s {raw['ops_per_s'][0]:.6g}, "
          f"op_p50_ms {raw['op_p50_ms'][0]:.6g}, op_p90_ms {raw['op_p90_ms'][0]:.6g}")
    lat = speed.scale(result["latencies"], result["refs"])
    if tracer:
        metrics = spans.layer_metrics(tracer, attempted)
        print("per-layer metrics (per op unless a ratio; self time excludes child spans):")
        zero_den = {"sequence.revalidation_ratio", "sequence.kernel_ns_per_pair",
                    "numtheory.gf_ns_per_element", "oracle.survivor_ratio", "oracle.kernel_share"}
        print_metrics(metrics, {k: "(n/a: no such work in this workload)" for k in zero_den if metrics[k][0] == 0})
        low, high = spans.accounted_share(tracer)
        print(f"per op, self times account for {low:.6f} to {high:.6f} of its traced wall time")
        print(f"traced ops_per_s {attempted / sum(lat):.6g} (compare an untraced run for the overhead)")
        print(f"{len(tracer.start)} spans written to {write_spans(tracer, workload.name, args.seed)}")
    else:
        metrics = end_to_end(lat, setup_s)
        beyond = sum(1 for x in lat if x * 1e3 > metrics["op_p90_ms"][0])
        print("end-to-end metrics (op CPU times scaled to the nominal host speed):")
        print_metrics({**metrics, "fail_ratio": (failed / attempted, "ratio")}, {
            "op_p50_ms": f"({attempted} samples)",
            "op_p90_ms": f"({beyond} samples beyond)",
            "setup_s": f"(median of {SETUP_RUNS} fresh interpreters)",
            "fail_ratio": f"({failed} of {attempted})",
        })
    print("waiting time: none to report; no fhskit layer queues work")
    for cause, count in result["failures"].most_common():
        print(f"FAILED x{count}: {cause}")
    for cause in sample_failures:
        print(f"FAILED sample: {cause}")

    print(json.dumps({
        "correct": failed == 0 and not sample_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
