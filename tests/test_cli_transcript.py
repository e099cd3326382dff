"""Golden CLI transcript: every README command and the claim-bearing variants.

Each command runs in-process through cli.main; its exit code and the sha256
of its stdout (for --out commands, of the file written) must match the
values recorded below, so CLI output stays byte-identical across refactors.
Each refusal must also print exactly one "error:" line on stderr, whose
wording is free to change.

To regenerate after an intended output change, run

    PYTHONPATH=src python tests/test_cli_transcript.py

and paste the printed table over GOLDEN.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fhskit.cli import main

# Each command reads the previous command's stdout as its stdin.
COMMANDS = (
    "construct pair --l 25 --d1 7 --d2 9",
    "verify -",
    "construct pair --l 25 --d1 7 --d2 9 --json",
    "verify - --json",
    "construct triple --l 25 --d1 6 --d2 7 --d3 9",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5",
    "seed b1 --N 9",
    "seed cyclotomic --p 5 --modulus 2,4,1 --e 12",
    "seed qr --p 5 --b 0,1 --x 1,3",
    "pipeline --seed qr --p 5 --b 0,1 --x 1,3 --l 25 --d1 5 --d2 15",
    "construct pair --l 25 --d1 7 --d2 9 --out {tmp}/sequence.json",
    "construct pair --l 25 --d1 11 --d2 13 --out {tmp}/b.json",
    "profile {tmp}/sequence.json",
    "profile {tmp}/sequence.json --second {tmp}/b.json",
    "gapbound 14 10 --build",
    "search gap --n 14 --l 10",
    "enumerate pim --m 3",
    "enumerate du --l 25",
    "pipeline --seed b1 --N 9 --l 27 --d1 9 --d2 18 --out {tmp}/a.json",
    "table2 {tmp}/a.json",
    # offsets and shifts that void some claims
    "construct pair --l 25 --d1 7 --d2 9 --offsets 3,11",
    "construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4 --unchecked",
    "construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,0,0 --unchecked",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 4",
    "construct recursive --l 15 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 2",
    "construct recursive --l 15 --d1 6 --d2 9 --pi 0,3,1,2,4,5",
    "construct pair --l 25 --d1 7 --d2 9 --unchecked --shift-k 3",  # refused: pair reads neither flag
    # compact variants
    "construct triple --l 25 --d1 6 --d2 7 --d3 9 --json",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --json",
    "seed b1 --N 9 --json",
    "seed cyclotomic --p 5 --modulus 2,4,1 --e 12 --json",
    "seed qr --p 5 --b 0,1 --x 1,3 --json",
    "pipeline --seed qr --p 5 --b 0,1 --x 1,3 --l 25 --d1 5 --d2 15 --json",
    "pipeline --seed cyclotomic --p 5 --modulus 2,4,1 --e 12 --l 36 --d1 12 --d2 24 --json",
    "gapbound 14 10 --build --json",
    "search gap --n 14 --l 10 --json",
    "enumerate pim --m 3 --json",
    "enumerate du --l 25 --json",
    "construct pair --l 25 --d1 7 --d2 9 --offsets 3,11 --json",
    "construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4 --unchecked --json",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 4 --json",
    # refusals
    "construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4",
    "construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,0",
    "construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,25,0 --unchecked",
    "construct pair --l 25 --d1 7 --d2 9 --offsets 25,0",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 21",
    "construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k -1",
    "seed cyclotomic --p 5 --modulus 4,0,1 --e 12",
)

GOLDEN = {
    'construct pair --l 25 --d1 7 --d2 9': (0, '8b797a0c23e04e624e5255c8b1c882e52f79df6adc480c0aec64e61b56482d9c'),
    'verify -': (0, '1ac51d756e3ee77a766b85c2cc3fb960bbf7e68035562d93c79f56cde0279d63'),
    'construct pair --l 25 --d1 7 --d2 9 --json': (0, 'ad19c74903223a978de95c4c45016bdb4aeb3acee63a833e43027fed26d3b5bc'),
    'verify - --json': (0, 'f1a7e35e4ac04131bb29671d9b7db50e31443c19e6b3042699194dda034f05c1'),
    'construct triple --l 25 --d1 6 --d2 7 --d3 9': (0, '258cf3fc5c7cac5459b7067b038d8b4679844f3605dceddc0875838bad35d7a7'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5': (0, '9c8dadc426c3b47053ec2f2cc0df82fe2527053ea82d0a175b771e68d190fe50'),
    'seed b1 --N 9': (0, '1d8dbdee4c2fde427130059a5dd0e3530f21c38fcf4c38d45c6b445b39d595ef'),
    'seed cyclotomic --p 5 --modulus 2,4,1 --e 12': (0, '5e3e21e5fdd606bd914eac80b1410823419462d2ad2e1a5b95df225d69d450ee'),
    'seed qr --p 5 --b 0,1 --x 1,3': (0, 'df928b3fa2e2004a820a44ba58f4b5310c954f69c56a50f3a19954442c95949b'),
    'pipeline --seed qr --p 5 --b 0,1 --x 1,3 --l 25 --d1 5 --d2 15': (0, 'ef09a83fc182985b136b17004fc0b5ab5ba4a07de6f4cb470c8fffd811281790'),
    'construct pair --l 25 --d1 7 --d2 9 --out {tmp}/sequence.json': (0, '8b797a0c23e04e624e5255c8b1c882e52f79df6adc480c0aec64e61b56482d9c'),
    'construct pair --l 25 --d1 11 --d2 13 --out {tmp}/b.json': (0, '40a38fdb7806fc4d4ebedc97b5b3f52cb1a80dae599601d9dc3aa3bcb4319389'),
    'profile {tmp}/sequence.json': (0, '42aca47e5628c02084a07b16dae1465dc8da5bf82e6fb3139d36f55b1471fc98'),
    'profile {tmp}/sequence.json --second {tmp}/b.json': (0, '17c52d492ea2dc911a4b77413f9ff5fd55f4996b4bc0912d8177316ef77d987b'),
    'gapbound 14 10 --build': (0, '530fdd93351bff86fc92415af40c2209c67989b634f7565aae631869aa1e71ef'),
    'search gap --n 14 --l 10': (0, '7b846c6baf15dd1db724118fb7f6ef16cc7da1e760ae52f41a23f0244becfacf'),
    'enumerate pim --m 3': (0, '49e7facd2624b47f30ae6370d8e1db2408a6e561771738c5bc0af8b5ad12f6bd'),
    'enumerate du --l 25': (0, '7c31459e550746246a4c9eea586654b3a235dd7c7c36b8ea246878692de86d35'),
    'pipeline --seed b1 --N 9 --l 27 --d1 9 --d2 18 --out {tmp}/a.json': (0, '847823008780a4f78bda97807481931576d7bd0a30e74761db7146812447e4a6'),
    'table2 {tmp}/a.json': (0, 'a79c9e7fd937f4ad48d8c3cbed284ecf570b422d0b5f49fa35694b979da2a579'),
    'construct pair --l 25 --d1 7 --d2 9 --offsets 3,11': (0, '2d6f2e3c695e9d417e4a3e382e927340458389b4682639313dad4c14b6ab1811'),
    'construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4 --unchecked': (0, 'bfeb292d9005935cf3191132d33d87b59f834b9e768180664d0efbdcd28a49df'),
    'construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,0,0 --unchecked': (0, '258cf3fc5c7cac5459b7067b038d8b4679844f3605dceddc0875838bad35d7a7'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 4': (0, '0e1b375c742ee9b3e8f4ca28fb560213d1b2f0456f5271f96e2e4689956003f2'),
    'construct recursive --l 15 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 2': (0, 'aff3eb80065b8ae223900ec826dcfb73a128f82f927a8a7338d2e58d4c6ffe1f'),
    'construct recursive --l 15 --d1 6 --d2 9 --pi 0,3,1,2,4,5': (0, '707b2f035b6f073d604ec09e8fdab656638d7376b2e82931e6b8af4eba646c75'),
    'construct pair --l 25 --d1 7 --d2 9 --unchecked --shift-k 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct triple --l 25 --d1 6 --d2 7 --d3 9 --json': (0, '731f9b84dbb535d138a00c2775242405bffd63af04bda5e26f1dfd38b928ffd0'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --json': (0, '86d38e53d03bcc11b3e89493de0306b6dba6b1f2a700c6aa6b1e1aca58c5496a'),
    'seed b1 --N 9 --json': (0, '24c7dd6d3fa67df624134ea00a37872a9365370dbc61fb523dcd26f64246722c'),
    'seed cyclotomic --p 5 --modulus 2,4,1 --e 12 --json': (0, 'a5e12c2b25f47a5314540a215fdfa1b1dd1c29501928ec6e3f18d65ebcb80413'),
    'seed qr --p 5 --b 0,1 --x 1,3 --json': (0, 'e890447fcfbb267bfe1d309eb744124738f3c3087c23ab2d8138f1c1a662b7a2'),
    'pipeline --seed qr --p 5 --b 0,1 --x 1,3 --l 25 --d1 5 --d2 15 --json': (0, '15c0f9ce33dc8845491a56b6b89930d72b928886475e026c904eddd73eb122ed'),
    'pipeline --seed cyclotomic --p 5 --modulus 2,4,1 --e 12 --l 36 --d1 12 --d2 24 --json': (0, 'f7d9c6edc6fdb6e5d23dc161bf6f89b8ce1326880c28930dd3c3fcdd984b17d4'),
    'gapbound 14 10 --build --json': (0, '7ab3a340c7bb1553d331f37210f24cd0368b3c84eff45a2afd70334146a1834f'),
    'search gap --n 14 --l 10 --json': (0, '8dbb0afea5651f8a478ba6656a82203750d456dd46c5c4698e43093a97ebb561'),
    'enumerate pim --m 3 --json': (0, 'a12935bd19b7b8321c4b60ed265e0ba484d09eb3e0c4d8495341083fdfcdf779'),
    'enumerate du --l 25 --json': (0, 'e76aa9a0eaf7e46310841c7de08edad2a49398161d0156a37ff82ebc03f1d5d1'),
    'construct pair --l 25 --d1 7 --d2 9 --offsets 3,11 --json': (0, 'fd78c29afffe655ef99dd92684412c3d08445fe9133edaec3d3b221bab485501'),
    'construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4 --unchecked --json': (0, '48409532d0f278b51f7ff3af81b25b6c6a05fdd8ae407d6bfc21f5b8a8f1a74d'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 4 --json': (0, '6790f9197f623cdd489ff5d14b16234e78d589fb28ad48bf3990adafaee7e9fc'),
    'construct triple --l 13 --d1 4 --d2 5 --d3 7 --offsets 1,3,4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct triple --l 25 --d1 6 --d2 7 --d3 9 --offsets 0,25,0 --unchecked': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct pair --l 25 --d1 7 --d2 9 --offsets 25,0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k 21': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'construct recursive --l 21 --d1 6 --d2 9 --pi 0,3,1,2,4,5 --shift-k -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'seed cyclotomic --p 5 --modulus 4,0,1 --e 12': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def transcript(workdir) -> dict:
    """Run COMMANDS in order under workdir; map each command to (exit code, sha256 of its output)."""
    out = {}
    feed = ""
    for command in COMMANDS:
        argv = [arg.replace("{tmp}", str(workdir)) for arg in command.split()]
        stdout, stderr = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(feed)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            sys.stdin = saved_stdin
        text = stdout.getvalue()
        if "--out" in argv:
            text += Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        err = stderr.getvalue()
        if code == 0:
            assert err == "", (command, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        out[command] = (code, hashlib.sha256(text.encode("utf-8")).hexdigest())
        feed = stdout.getvalue()
    return out


def test_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for command, (code, digest) in transcript(workdir).items():
            print(f"    {command!r}: ({code}, {digest!r}),")
