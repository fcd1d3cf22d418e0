"""Golden outputs of every CLI command on small fixed inputs.

Each case records the exit code, the exact stdout and stderr text and the
bytes of every file the command writes. The stored expectations live in
golden_cli.json next to this file; after an intended output change,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sumprod import cli
from sumprod.extremal import build_extremal

GOLDEN = Path(__file__).with_name("golden_cli.json")
WORKDIR = "$WORKDIR"

_PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
# The elements `construct --p 10007 --n 500` prints: a geometric progression
# cut by an additive window, so A+A and AA each fill an arc of under 2M.
_CONSTRUCTED = build_extremal(10007, 500).chosen.array.tolist()

# name -> (argv with {set} and {dir} placeholders, set-file text or None, written files)
CASES = {
    "verify-t1-zero-free": (
        ["verify-t1", "--p", "101", "--set", "{set}"],
        " ".join(map(str, _PRIMES_BELOW_50)) + "\n",
        [],
    ),
    "verify-t1-with-zero": (
        ["verify-t1", "--p", "101", "--set", "{set}"],
        "0 " + " ".join(map(str, _PRIMES_BELOW_50)) + "\n47 # repeated\n",
        [],
    ),
    "verify-t1-constructed": (
        ["verify-t1", "--p", "10007", "--set", "{set}"],
        " ".join(map(str, _CONSTRUCTED)) + "\n",
        [],
    ),
    "verify-t2-unit-reduced": (
        ["verify-t2", "--m", "101", "--set", "{set}"],
        " ".join(map(str, range(1, 51))) + "\n",
        [],
    ),
    "verify-t2-trivial-d0": (
        ["verify-t2", "--m", "36", "--set", "{set}"],
        "1 2 5 6 7 11 12 13 18 25 30 35\n",
        [],
    ),
    "verify-t2-no-units": (
        ["verify-t2", "--m", "36", "--set", "{set}"],
        "0 2 3 4 6 9 10 15 20 27\n",
        [],
    ),
    "spectral": (
        ["spectral", "--p", "499", "--set", "{set}"],
        " ".join(map(str, range(10, 400, 13))) + "\n",
        [],
    ),
    "construct": (
        ["construct", "--p", "101", "--n", "10", "--json", "{dir}/c.json"],
        None,
        ["c.json"],
    ),
    "zm-extremal": (["zm-extremal", "--p", "5"], None, []),
    "exhaustive": (["exhaustive", "--p", "7", "--k", "3"], None, []),
    "sweep-prime": (
        ["sweep", "--modulus", "101", "--kind", "prime", "--sizes", "5,17", "--trials", "3",
         "--seed", "42", "--out", "{dir}/prime.csv", "--threads", "2"],
        None,
        ["prime.csv"],
    ),
    "sweep-ring": (
        ["sweep", "--modulus", "36", "--kind", "ring", "--sizes", "4,12", "--trials", "3",
         "--seed", "7", "--out", "{dir}/ring.csv", "--threads", "2"],
        None,
        ["ring.csv"],
    ),
}


def run_case(name: str, workdir: Path) -> dict:
    argv, set_text, files = CASES[name]
    set_path = workdir / "set.txt"
    if set_text is not None:
        set_path.write_text(set_text, encoding="utf-8")
    argv = [arg.format(set=set_path, dir=workdir) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(workdir), WORKDIR),
        "stderr": err.getvalue().replace(str(workdir), WORKDIR),
        "files": {f: (workdir / f).read_bytes().decode("utf-8") for f in files},
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    results = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            results[case] = run_case(case, Path(tmp))
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
