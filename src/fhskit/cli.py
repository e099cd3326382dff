"""Command-line front end.

Exit codes: 0 success, 2 input/parameter error, 3 unsupported construction
case, 4 search guard exceeded.  Sequences travel as JSON objects
{"l": <int>, "seq": [<int>, ...]}; correlation profiles leave as CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct, gapbound, oracle, seeds
from .errors import ParameterError, SearchSpaceError, UnsupportedCaseError
from .report import render_table2, table_row_for, verify_sequence
from .sequence import Fhs, auto_profile, cross_profile


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ParameterError(f"expected a comma-separated integer list, got {text!r}") from None


def _read_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParameterError(f"JSON in {path} holds an integer too long to read") from None
    except RecursionError:
        raise ParameterError(f"JSON in {path} is nested too deeply") from None


def _fhs_from(obj) -> Fhs:
    """A bare sequence object, or the "fhs" field of a whole construction output."""
    if isinstance(obj, dict) and "fhs" in obj:
        obj = obj["fhs"]
    return Fhs.from_json_dict(obj)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def _dump(obj, args) -> str:
    if isinstance(obj, str):
        return obj
    if getattr(args, "json", False):
        return json.dumps(obj, separators=(",", ":")) + "\n"
    return json.dumps(obj, indent=2) + "\n"


def _construction_output(fhs: Fhs, meta: dict, params=None):
    """The output object; claims and constraints come from params, and seeds pass none."""
    out = {
        "fhs": fhs.to_json_dict(),
        "construction": meta,
        "claims": {
            "max_auto": None if params is None else params.guaranteed_max_auto,
            "min_gap": None if params is None else params.guaranteed_gap,
        },
        "verification": verify_sequence(fhs).to_json_dict(),
    }
    if params is not None:
        out["constraints"] = params.constraints
    return out


# the optional construct flags each family reads, by argparse dest; each defaults to None
_FAMILY_FLAGS = {"pair": {"offsets"}, "triple": {"d3", "offsets", "unchecked"}, "recursive": {"pi", "shift_k"}}
_OPTIONAL_FLAGS = {
    "d3": "--d3", "offsets": "--offsets", "unchecked": "--unchecked", "pi": "--pi", "shift_k": "--shift-k",
}


def _cmd_construct(args):
    stray = [
        flag
        for dest, flag in _OPTIONAL_FLAGS.items()
        if getattr(args, dest) is not None and dest not in _FAMILY_FLAGS[args.family]
    ]
    if stray:
        raise ParameterError(f"{', '.join(stray)} not used by the {args.family} construction")
    if args.family == "pair":
        offsets = _ints(args.offsets) if args.offsets else (0, 0)
        if len(offsets) != 2:
            raise ParameterError("pair construction takes exactly two offsets")
        params = construct.PairParams(args.l, args.d1, args.d2, *offsets)
        return _construction_output(
            construct.construct_pair(params),
            {"kind": "pair", "l": args.l, "d1": args.d1, "d2": args.d2, "offsets": list(offsets)},
            params,
        )
    if args.family == "triple":
        if args.d3 is None:
            raise ParameterError("triple construction needs --d3")
        offsets = _ints(args.offsets) if args.offsets else (0, 0, 0)
        if len(offsets) != 3:
            raise ParameterError("triple construction takes exactly three offsets")
        params = construct.TripleParams(args.l, args.d1, args.d2, args.d3, *offsets, unchecked=bool(args.unchecked))
        return _construction_output(
            construct.construct_triple(params),
            {
                "kind": "triple",
                "l": args.l,
                "d1": args.d1,
                "d2": args.d2,
                "d3": args.d3,
                "offsets": list(offsets),
            },
            params,
        )
    # recursive
    if args.pi is None:
        raise ParameterError("recursive construction needs --pi")
    pi = _ints(args.pi)
    shift = 0 if args.shift_k is None else args.shift_k
    params = construct.RecursiveParams(args.l, args.d1, args.d2, pi, shift=shift)
    return _construction_output(
        construct.construct_recursive(params),
        {
            "kind": "recursive",
            "l": args.l,
            "d1": args.d1,
            "d2": args.d2,
            "m": params.m,
            "pi": list(pi),
            "shift_k": shift,
        },
        params,
    )


def _build_seed(args) -> tuple[Fhs, dict]:
    if args.seed_kind == "b1":
        if args.N is None:
            raise ParameterError("b1 seed needs --N")
        params = seeds.B1Params(
            N=args.N,
            k=args.k,
            phi=_ints(args.phi) if args.phi else None,
            epsilon=_ints(args.epsilon) if args.epsilon else None,
            gamma=_ints(args.gamma) if args.gamma else None,
        )
        return seeds.b1_construct(params), {"kind": "b1", "N": args.N, "k": args.k}
    if args.seed_kind == "cyclotomic":
        if args.p is None or args.modulus is None or args.e is None:
            raise ParameterError("cyclotomic seed needs --p, --modulus, and --e")
        ctx = seeds.GfContext(args.p, _ints(args.modulus))
        params = seeds.CyclotomyParams(ctx, args.e)
        return (
            seeds.cyclotomic_construct(params),
            {"kind": "cyclotomic", "q": ctx.q, "e": args.e, "f": params.f},
        )
    if args.seed_kind == "qr":
        if args.p is None or args.b is None or args.x is None:
            raise ParameterError("qr seed needs --p, --b, and --x")
        b = _ints(args.b)
        params = seeds.QrParams(args.p, len(b), b, _ints(args.x), args.alpha)
        return seeds.qr_construct(params), {"kind": "qr", "p": args.p, "k": len(b)}
    raise ParameterError(f"unknown seed kind {args.seed_kind!r}")


def _cmd_seed(args):
    fhs, meta = _build_seed(args)
    return _construction_output(fhs, meta)


def _cmd_pipeline(args):
    seed, meta = _build_seed(args)
    params = seeds.lift_seed(seed, args.l, args.d1, args.d2, args.lift_index)
    out = _construction_output(
        construct.construct_recursive(params),
        {
            "kind": "pipeline",
            "seed": meta,
            "l": args.l,
            "d1": args.d1,
            "d2": args.d2,
            "m": params.m,
            "lift_index": args.lift_index,
        },
        params,
    )
    out["seed_fhs"] = seed.to_json_dict()
    out["pi"] = list(params.pi)
    return out


def _cmd_verify(args):
    return verify_sequence(_fhs_from(_read_json(args.input))).to_json_dict()


def _cmd_profile(args):
    first = _fhs_from(_read_json(args.input))
    if args.second:
        profile = cross_profile(first, _fhs_from(_read_json(args.second)))
        start = 0
    else:
        profile = auto_profile(first)
        start = 1
    lines = ["tau,H"]
    lines += [f"{tau},{profile.values[tau]}" for tau in range(start, profile.length)]
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args):
    if args.what == "pim":
        if args.m is None:
            raise ParameterError("enumerate pim needs --m")
        return oracle.enumerate_optimal_order_seqs(args.m).to_json_dict()
    if args.l is None:
        raise ParameterError("enumerate du needs --l")
    sets = oracle.enumerate_du_sets(args.l)
    return {"l": args.l, "sets": [list(d.elements) for d in sets]}


def _cmd_gapbound(args):
    case = gapbound.gap_upper_bound(args.n, args.l)
    out = {"n": case.n, "l": case.l, "case": case.case, "bound": case.bound}
    if args.build:
        out["fhs"] = gapbound.extremal_sequence(args.n, args.l).to_json_dict()
    return out


def _cmd_search(args):
    best = oracle.exhaustive_max_min_gap(args.n, args.l)
    out = {"n": args.n, "l": args.l, "max_min_gap": best}
    if args.l >= 3:
        case = gapbound.gap_upper_bound(args.n, args.l)
        out["bound"] = {"case": case.case, "bound": case.bound}
    return out


def _cmd_table2(args):
    rows = []
    for path in args.inputs:
        obj = _read_json(path)
        if not isinstance(obj, dict):
            raise ParameterError(f"{path}: expected a sequence, construction output, or row object")
        if "fhs" in obj or "seq" in obj:
            fhs = _fhs_from(obj)
            label = obj.get("construction", {}).get("kind", path)
            rows.append(table_row_for(fhs, obj.get("constraints"), label))
        else:
            rows.append(obj)
    return render_table2(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fhskit", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="compact machine-readable output")
    common.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("construct", help="build a sequence from one of the construction families")
    p.add_argument("family", choices=("pair", "triple", "recursive"))
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--d3", type=int)
    p.add_argument("--offsets", help="comma-separated per-block offsets")
    p.add_argument("--unchecked", action="store_true", default=None, help="allow offsets that void the guarantees")
    p.add_argument("--pi", help="comma-separated permutation image list")
    p.add_argument("--shift-k", dest="shift_k", type=int)
    p.set_defaults(func=_cmd_construct)

    def add_seed_flags(q):
        q.add_argument("--N", type=int)
        q.add_argument("--k", type=int, default=2)
        q.add_argument("--phi")
        q.add_argument("--epsilon")
        q.add_argument("--gamma")
        q.add_argument("--p", type=int)
        q.add_argument("--modulus", help="field modulus polynomial, ascending coefficients")
        q.add_argument("--e", type=int)
        q.add_argument("--b", help="binary block pattern, comma-separated")
        q.add_argument("--x", help="residue picks, comma-separated")
        q.add_argument("--alpha", type=int)

    p = add_parser("seed", help="generate a known optimal uniform seed sequence")
    p.add_argument("seed_kind", choices=("b1", "cyclotomic", "qr"))
    add_seed_flags(p)
    p.set_defaults(func=_cmd_seed)

    p = add_parser("pipeline", help="seed -> lift -> recursive construction")
    p.add_argument("--seed", dest="seed_kind", choices=("b1", "cyclotomic", "qr"), required=True)
    add_seed_flags(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--lift-index", dest="lift_index", type=int, default=0)
    p.set_defaults(func=_cmd_pipeline)

    p = add_parser("verify", help="measure all metrics of a sequence JSON")
    p.add_argument("input", nargs="?", default="-", help="path or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("profile", help="emit a correlation profile as CSV")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--second", help="second sequence for a cross profile")
    p.set_defaults(func=_cmd_profile)

    p = add_parser("enumerate", help="exhaustive enumerations")
    p.add_argument("what", choices=("pim", "du"))
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = add_parser("gapbound", help="gap upper bound and optional extremal sequence")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--build", action="store_true")
    p.set_defaults(func=_cmd_gapbound)

    p = add_parser("search", help="exhaustive searches")
    p.add_argument("what", choices=("gap",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = add_parser("table2", help="render a comparison table from outputs or row JSONs")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_table2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _dump(args.func(args), args)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCaseError as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return 3
    except SearchSpaceError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
