import json
import os
import subprocess
import sys
from pathlib import Path

import fhskit
from fhskit.cli import main

from vectors import B1_SEED_18, PAIR_50, PIPELINE_U50, QR_SEED_10, RECURSIVE_42


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestConstructCommands:
    def test_pair(self, capsys):
        out = run_json(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        assert tuple(out["fhs"]["seq"]) == PAIR_50
        assert out["claims"] == {"max_auto": 2, "min_gap": 6}
        assert out["verification"]["max_auto"] == 2
        assert out["verification"]["min_gap"] == 6
        assert out["verification"]["is_optimal"] is True

    def test_triple_counterexample_needs_flag(self, capsys):
        code, _, err = run(capsys, "construct", "triple", "--l", "13", "--d1", "4", "--d2", "5",
                           "--d3", "7", "--offsets", "1,3,4")
        assert code == 2
        assert "unchecked" in err
        out = run_json(capsys, "construct", "triple", "--l", "13", "--d1", "4", "--d2", "5",
                       "--d3", "7", "--offsets", "1,3,4", "--unchecked")
        assert out["verification"]["max_auto"] > 3
        assert out["claims"] == {"max_auto": None, "min_gap": None}
        assert out["constraints"] == "d1,d2,d3 in DU(Z_l)"

    def test_offsets_and_shift_void_only_the_gap_claim(self, capsys):
        out = run_json(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9",
                       "--offsets", "3,11")
        assert out["claims"] == {"max_auto": 2, "min_gap": None}
        out = run_json(capsys, "construct", "recursive", "--l", "21", "--d1", "6", "--d2", "9",
                       "--pi", "0,3,1,2,4,5", "--shift-k", "4")
        assert out["claims"] == {"max_auto": 2, "min_gap": None}
        assert out["constraints"].endswith(", d1+d2<l-m+2")

    def test_recursive(self, capsys):
        out = run_json(capsys, "construct", "recursive", "--l", "21", "--d1", "6", "--d2", "9",
                       "--pi", "0,3,1,2,4,5")
        assert tuple(out["fhs"]["seq"]) == RECURSIVE_42
        assert out["claims"] == {"max_auto": 2, "min_gap": 5}
        assert out["constraints"] == "gcd(l,d1)=gcd(l,d2)=gcd(l,d2-d1)=m, d1+d2<l-m+2"

    def test_recursive_without_gap_promise(self, capsys):
        out = run_json(capsys, "construct", "recursive", "--l", "15", "--d1", "6", "--d2", "9",
                       "--pi", "0,3,1,2,4,5")
        assert out["claims"]["min_gap"] is None
        assert out["constraints"] == "gcd(l,d1)=gcd(l,d2)=gcd(l,d2-d1)=m"
        assert out["verification"]["min_gap"] == 4

    def test_refusals_name_the_offender(self, capsys):
        for argv, named in (
            (("construct", "pair", "--l", "25", "--d1", "5", "--d2", "9"), "5 is not a unit"),
            (("construct", "pair", "--l", "25", "--d1", "7", "--d2", "7"), "7, 7 differ by 0"),
            (("seed", "b1", "--N", "25", "--epsilon", "1,6"), "1, 6 differ by 5"),
            (("construct", "recursive", "--l", "21", "--d1", "6", "--d2", "9", "--pi", "0,1,2,3,4,4"),
             "{0, ..., 5}"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    def test_stray_flags_are_refused(self, capsys):
        pair = ("construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        triple = ("construct", "triple", "--l", "25", "--d1", "6", "--d2", "7", "--d3", "9")
        recursive = ("construct", "recursive", "--l", "21", "--d1", "6", "--d2", "9", "--pi", "0,3,1,2,4,5")
        for argv, named in (
            (pair + ("--unchecked", "--shift-k", "3"), "--unchecked, --shift-k"),
            (pair + ("--d3", "4"), "--d3"),
            (pair + ("--pi", "1,2"), "--pi"),
            (triple + ("--shift-k", "0"), "--shift-k"),
            (triple + ("--pi", "0,1"), "--pi"),
            (recursive + ("--d3", "4"), "--d3"),
            (recursive + ("--offsets", "0,0"), "--offsets"),
            (recursive + ("--unchecked",), "--unchecked"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {named} not used by the {argv[1]} construction\n", err
        # an explicit zero shift is read, and is the same as no shift
        assert run(capsys, *recursive, "--shift-k", "0") == run(capsys, *recursive)

    def test_claims_match_verification(self, capsys):
        out = run_json(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        for key, claimed in out["claims"].items():
            if claimed is not None:
                assert out["verification"][key] == claimed

    def test_unit_step_constraints(self, capsys):
        out = run_json(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        assert out["constraints"] == "d1,d2 in DU(Z_l)"
        out = run_json(capsys, "construct", "triple", "--l", "25", "--d1", "6", "--d2", "7", "--d3", "9")
        assert out["claims"] == {"max_auto": 3, "min_gap": 5}
        assert out["constraints"] == "d1,d2,d3 in DU(Z_l)"


class TestSeedAndPipeline:
    def test_seed_b1(self, capsys):
        out = run_json(capsys, "seed", "b1", "--N", "9")
        assert tuple(out["fhs"]["seq"]) == B1_SEED_18

    def test_seed_qr(self, capsys):
        out = run_json(capsys, "seed", "qr", "--p", "5", "--b", "0,1", "--x", "1,3")
        assert tuple(out["fhs"]["seq"]) == QR_SEED_10

    def test_pipeline_qr(self, capsys):
        out = run_json(capsys, "pipeline", "--seed", "qr", "--p", "5", "--b", "0,1", "--x", "1,3",
                       "--l", "25", "--d1", "5", "--d2", "15")
        assert tuple(out["fhs"]["seq"]) == PIPELINE_U50
        assert tuple(out["seed_fhs"]["seq"]) == QR_SEED_10
        assert out["pi"] == [0, 3, 4, 2, 1, 5, 6, 7, 9, 8]
        assert out["verification"]["min_gap"] == 4

    def test_oversized_field_refused_before_primality(self):
        # a 19-digit characteristic: trial division would run for hours, the
        # 2^16 cap refuses it from p and the modulus degree alone
        src = str(Path(fhskit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["seed", "cyclotomic", "--p", "1000000000000000003", "--modulus", "1,1", "--e", "2"]
        proc = subprocess.run([sys.executable, "-m", "fhskit", *argv], env=env, capture_output=True,
                              text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "2^16" in proc.stderr

    def test_pipeline_cyclotomic(self, capsys):
        out = run_json(capsys, "pipeline", "--seed", "cyclotomic", "--p", "5", "--modulus",
                       "2,4,1", "--e", "12", "--l", "36", "--d1", "12", "--d2", "24")
        assert out["verification"]["max_auto"] == 2
        assert out["verification"]["min_gap"] == 2


class TestVerifyAndProfile:
    def test_verify_file(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"l": 25, "seq": list(PAIR_50)}))
        out = run_json(capsys, "verify", str(path))
        assert out["max_auto"] == 2
        assert out["min_gap"] == 6
        assert out["is_uniform"] is True

    def test_verify_bad_symbol_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"l": 3, "seq": [0, 1, 7]}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "index 2" in err

    def test_verify_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "malformed" in err

    def test_verify_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "nested too deeply" in err

    def test_verify_bad_input_gets_one_short_line(self, capsys, tmp_path):
        for name, text in (
            ("deep", '{"l": 3, "seq": [' + "[" * 900 + "0" + "]" * 900 + "]}"),
            ("long_l", '{"l": "' + "x" * 5000 + '", "seq": [0]}'),
            ("long_symbol", '{"l": 3, "seq": [0, "' + "y" * 5000 + '"]}'),
            ("huge_int", '{"l": 3, "seq": [1' + "0" * 5000 + "]}"),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code, out, err = run(capsys, "verify", str(path))
            assert (code, out) == (2, ""), name
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (name, err)

    def test_auto_profile_csv(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"l": 25, "seq": list(PAIR_50)}))
        code, out, _ = run(capsys, "profile", str(path))
        lines = out.strip().splitlines()
        assert lines[0] == "tau,H"
        assert len(lines) == 50  # header + taus 1..49
        values = [int(line.split(",")[1]) for line in lines[1:]]
        assert max(values) == 2
        assert values == values[::-1]  # H(tau) = H(n - tau)

    def test_cross_profile_csv(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"l": 25, "seq": [i * 7 % 25 for i in range(25)]}))
        b.write_text(json.dumps({"l": 25, "seq": [i * 9 % 25 for i in range(25)]}))
        code, out, _ = run(capsys, "profile", str(a), "--second", str(b))
        lines = out.strip().splitlines()
        assert lines[1] == "0,1"
        assert all(line.endswith(",1") for line in lines[1:])


class TestOtherCommands:
    def test_gapbound_build(self, capsys):
        out = run_json(capsys, "gapbound", "14", "10", "--build")
        assert out["bound"] == 4
        assert out["case"] == "even_even_nondiv"
        assert len(out["fhs"]["seq"]) == 14

    def test_gapbound_unsupported_exit_code(self, capsys):
        code, _, err = run(capsys, "gapbound", "4", "5", "--build")
        assert code == 3

    def test_enumerate_du(self, capsys):
        out = run_json(capsys, "enumerate", "du", "--l", "25")
        assert [1, 2, 3, 4] in out["sets"]
        assert [3, 6, 7, 9] in out["sets"]

    def test_enumerate_pim(self, capsys):
        out = run_json(capsys, "enumerate", "pim", "--m", "3")
        assert out["total_candidates"] == 90
        assert [0, 0, 1, 2, 1, 2] in out["survivors"]

    def test_enumerate_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "pim", "--m", "6")
        assert code == 4

    def test_search_gap(self, capsys):
        out = run_json(capsys, "search", "gap", "--n", "14", "--l", "10")
        assert out["max_min_gap"] == 4
        assert out["bound"]["bound"] == 4

    def test_table2(self, capsys, tmp_path):
        paths = []
        for name, args in (
            ("a", ["pipeline", "--seed", "b1", "--N", "9", "--l", "27", "--d1", "9", "--d2", "18"]),
            ("b", ["pipeline", "--seed", "cyclotomic", "--p", "5", "--modulus", "2,4,1", "--e", "12",
                   "--l", "36", "--d1", "12", "--d2", "24"]),
            ("c", ["pipeline", "--seed", "qr", "--p", "5", "--b", "0,1", "--x", "1,3",
                   "--l", "25", "--d1", "5", "--d2", "15"]),
        ):
            path = tmp_path / f"{name}.json"
            assert main(args + ["--out", str(path)]) == 0
            paths.append(str(path))
        meta = tmp_path / "prior.json"
        meta.write_text(json.dumps({"parameters": "(ef, e, f)", "label": "legacy"}))
        code, out, _ = run(capsys, "table2", *paths, str(meta))
        assert code == 0
        body = out.splitlines()[2:]
        assert [line.split()[-2] for line in body[:3]] == ["4", "2", "4"]
        assert "uncontrolled" in body[3]

    def test_out_flag_and_json_mode(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["construct", "pair", "--l", "25", "--d1", "7", "--d2", "9",
                     "--json", "--out", str(target)])
        assert code == 0
        text = target.read_text()
        assert "\n" not in text.strip()
        assert tuple(json.loads(text)["fhs"]["seq"]) == PAIR_50

    def test_out_to_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        _, second, _ = run(capsys, "construct", "pair", "--l", "25", "--d1", "7", "--d2", "9")
        assert first == second

    def test_construct_output_pipes_into_verify(self, capsys, tmp_path):
        path = tmp_path / "built.json"
        assert main(["construct", "recursive", "--l", "21", "--d1", "6", "--d2", "9",
                     "--pi", "0,3,1,2,4,5", "--out", str(path)]) == 0
        built = json.loads(path.read_text())
        report = run_json(capsys, "verify", str(path))
        for key, claimed in built["claims"].items():
            if claimed is not None:
                assert report[key] == claimed


class TestImportFootprint:
    def test_no_array_library_is_imported(self):
        # the kernels are standard-library only; an array library would add
        # megabytes of resident memory to every run
        src = str(Path(fhskit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, fhskit, fhskit.cli; print(fhskit.__file__); print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        where, loaded = proc.stdout.split()
        assert Path(where).resolve() == Path(fhskit.__file__).resolve()
        assert loaded == "False"
