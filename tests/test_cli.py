import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import sumprod
from sumprod import cli, estimates, spectra
from sumprod.residues import ResidueSet

from oracles import overlap_sets


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_command(capsys, tmp_path):
    out_json = tmp_path / "c.json"
    code, out, _ = _run(capsys, ["construct", "--p", "101", "--n", "10", "--json", str(out_json)])
    assert code == 0
    payload = json.loads(out)
    assert payload["window_len"] == 32
    assert len(payload["elements"]) == 10
    assert payload["max_size"] <= payload["structural_cap"] == 63
    assert json.loads(out_json.read_text()) == payload


def test_construct_infeasible_is_input_error(capsys):
    code, _, err = _run(capsys, ["construct", "--p", "7", "--n", "6"])
    assert code == 2
    assert "infeasible" in err


def test_verify_t1_command(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("1 2\n")
    code, out, _ = _run(capsys, ["verify-t1", "--p", "5", "--set", str(setfile)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == pytest.approx(2.8125)
    assert payload["quad_count"] == 9
    assert payload["stripped_zero"] is False


def test_verify_t1_counts_duplicates(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("1 2 2 # comment\n")
    code, out, err = _run(capsys, ["verify-t1", "--p", "5", "--set", str(setfile)])
    assert code == 0
    assert "1 duplicate value(s) ignored" in err


def test_verify_t1_rejects_composite(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("1\n")
    code, _, err = _run(capsys, ["verify-t1", "--p", "9", "--set", str(setfile)])
    assert code == 2
    assert "not prime" in err


def test_verify_t2_command(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("0 3 6\n")
    code, out, _ = _run(capsys, ["verify-t2", "--m", "9", "--set", str(setfile)])
    assert code == 0
    payload = json.loads(out)
    assert payload["d0"] == 3
    assert payload["branch"] == "trivial_d0"
    assert payload["ratio"] == pytest.approx(2.488033871712585)


def test_spectral_command(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("1 3 4 5 9\n")
    code, out, _ = _run(capsys, ["spectral", "--p", "11", "--set", str(setfile)])
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_error"] <= 1e-9
    assert payload["fourier_max"] <= payload["fourier_cap"] * (1 + 1e-9)
    assert payload["cs_lhs"] <= payload["cs_cap"] * (1 + 1e-9)


def test_spectral_rejects_zero(capsys, tmp_path):
    setfile = tmp_path / "s.txt"
    setfile.write_text("0 1\n")
    code, _, err = _run(capsys, ["spectral", "--p", "11", "--set", str(setfile)])
    assert code == 2
    assert "without 0" in err


def test_zm_extremal_command(capsys):
    code, out, _ = _run(capsys, ["zm-extremal", "--p", "5"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["size_a"], payload["size_sum"], payload["size_prod"]) == (5, 5, 1)
    assert payload["elements"] == [0, 5, 10, 15, 20]


def test_exhaustive_command(capsys):
    code, out, _ = _run(capsys, ["exhaustive", "--p", "5", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["min_ratio"] == pytest.approx(1.875)
    assert payload["witness"] == [1, 4]
    assert payload["violations"] == 0


def test_sweep_command_deterministic(capsys, tmp_path):
    args = [
        "sweep",
        "--modulus",
        "101",
        "--kind",
        "prime",
        "--sizes",
        "5,17",
        "--trials",
        "10",
        "--seed",
        "42",
    ]
    code1, out1, _ = _run(capsys, args + ["--out", str(tmp_path / "a.csv"), "--threads", "1"])
    code2, out2, _ = _run(capsys, args + ["--out", str(tmp_path / "b.csv"), "--threads", "8"])
    assert code1 == code2 == 0
    assert json.loads(out1)["violations"] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_usage_errors_exit_2(capsys, tmp_path):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["construct", "--p", "101"]) == 2
    capsys.readouterr()
    code, _, err = _run(capsys, ["verify-t1", "--p", "5", "--set", str(tmp_path / "nope.txt")])
    assert code == 2
    code, _, err = _run(
        capsys,
        ["sweep", "--modulus", "8", "--kind", "prime", "--sizes", "2", "--trials", "1", "--seed", "0", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 2


def _force_failure(monkeypatch, checks_attr, name):
    """Make the named check of one command fail, leaving every value as is."""
    real = getattr(cli, checks_attr)

    def forced(d):
        return [dataclasses.replace(c, holds=False) if c.name == name else c for c in real(d)]

    monkeypatch.setattr(cli, checks_attr, forced)


def _assert_forced_failure(capsys, tmp_path, monkeypatch, argv, elements, checks_attr, name):
    setfile = tmp_path / "s.txt"
    setfile.write_text(elements + "\n")
    argv = argv + ["--set", str(setfile)]
    code, expected_out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    _force_failure(monkeypatch, checks_attr, name)
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == expected_out
    assert err == f"check failed: {name}\n"


def test_bound_violation_exits_1(capsys, tmp_path, monkeypatch):
    _assert_forced_failure(
        capsys, tmp_path, monkeypatch, ["verify-t1", "--p", "5"], "1 2", "field_checks", "quarter_constant"
    )


def test_verify_t2_violation_exits_1(capsys, tmp_path, monkeypatch):
    _assert_forced_failure(
        capsys, tmp_path, monkeypatch, ["verify-t2", "--m", "36"], "1 2 5 6 7 12",
        "ring_checks", "sixtyfourth_constant",
    )


def test_spectral_violation_exits_1(capsys, tmp_path, monkeypatch):
    _assert_forced_failure(
        capsys, tmp_path, monkeypatch, ["spectral", "--p", "11"], "1 3 4 5 9", "spectral_checks", "fourier_cap"
    )


def test_sweep_rejects_threads_below_one(capsys, tmp_path):
    base = ["sweep", "--modulus", "101", "--kind", "prime", "--sizes", "5", "--trials", "2",
            "--seed", "1", "--out", str(tmp_path / "x.csv")]
    for threads in ("0", "-3"):
        code, out, err = _run(capsys, base + ["--threads", threads])
        assert code == 2
        assert out == ""
        assert err == f"error: threads must be at least 1, got {threads}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [["verify-t1", "--p", "13"], ["verify-t2", "--m", "36"]])
def test_out_of_memory_exits_2(capsys, tmp_path, monkeypatch, argv):
    setfile = tmp_path / "s.txt"
    setfile.write_text("1 2 5 6 7 12\n")

    def exhausted(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array")

    monkeypatch.setattr(estimates, "productset", exhausted)
    code, out, err = _run(capsys, argv + ["--set", str(setfile)])
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 16.0 GiB for an array\n"


@pytest.mark.parametrize("m", [65536, 720720])
def test_verify_t2_prints_the_same_on_one_and_two_cpus(capsys, tmp_path, monkeypatch, m):
    for i, elems in enumerate(overlap_sets(m, 11)):
        setfile = tmp_path / f"s{i}.txt"
        setfile.write_text(" ".join(map(str, elems.tolist())) + "\n")
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
            runs.append(_run(capsys, ["verify-t2", "--m", str(m), "--set", str(setfile)]))
        assert runs[0] == runs[1] and runs[0][0] in (0, 1)


@pytest.mark.parametrize("side", ["transform", "report"])
def test_out_of_memory_beside_the_transform_exits_2(capsys, tmp_path, monkeypatch, side):
    # A mixed set: the unit part's AA is built before the worker starts, the
    # full set's AA (the second product set) beside it.
    setfile = tmp_path / "s.txt"
    setfile.write_text("1 2 3 5 6 7 9 11 12 13\n")
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    failed_on = []

    def exhausted(*args):
        failed_on.append(threading.current_thread() is threading.main_thread())
        raise MemoryError("Unable to allocate 1.00 MiB for an array")

    if side == "transform":
        monkeypatch.setattr(spectra, "_fft_dft", exhausted)
    else:
        real, products = estimates.productset, []

        def second_fails(*args):
            products.append(args)
            return real(*args) if len(products) == 1 else exhausted()

        monkeypatch.setattr(estimates, "productset", second_fails)
    before = threading.active_count()
    code, out, err = _run(capsys, ["verify-t2", "--m", "65536", "--set", str(setfile)])
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 1.00 MiB for an array\n"
    assert threading.active_count() == before
    assert failed_on == [side == "report"]  # the transform failed on the worker


_SWEEP_ARGS = ["--kind", "prime", "--sizes", "3,8", "--trials", "2", "--seed", "1", "--out"]


_T1, _T2, _SPECTRAL = (["verify-t1", "--p"], ["verify-t2", "--m"], ["spectral", "--p"])


@pytest.mark.parametrize(
    "argv, size",
    [pytest.param(_T1 + ["2147483647", "--set"], 3, id="argv0"),
     pytest.param(_T2 + ["2147483647", "--set"], 3, id="argv1"),
     pytest.param(["sweep", "--modulus", "2147483647", *_SWEEP_ARGS], 3, id="argv2"),
     pytest.param(_SPECTRAL + ["2147483647", "--set"], 3, id="spectral"),
     *(pytest.param(cmd + ["2147483647", "--set"], 5000, id=f"{cmd[0]}-5000") for cmd in (_T1, _T2, _SPECTRAL))],
)
def test_over_budget_modulus_exits_2_before_allocating(capsys, tmp_path, argv, size):
    # Length-m counts at m = 2^31 - 1 cannot fit in memory: a report refuses
    # them before it enumerates A+A or AA (which for 5,000 elements take
    # tens of seconds), and a sweep before its first draw.
    elems = [1, 2, 3] if size == 3 else (np.random.default_rng(5).choice(2**31 - 2, size, replace=False) + 1).tolist()
    setfile = tmp_path / "s.txt"
    setfile.write_text(" ".join(map(str, elems)) + "\n")
    path = tmp_path / "out.csv" if argv[0] == "sweep" else setfile
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = _run(capsys, argv + [str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: counts over Z_2147483647 need") and err.count("\n") == 1
    assert elapsed < 1.0 and peak < 64 << 20
    assert path.exists() == (argv[0] != "sweep")


def _record_setops_calls(monkeypatch) -> list:
    """Wrap every binding of a sumprod.setops function in another sumprod
    module and record each call as (function name, argument values). Arrays
    are keyed by content, so a piece built twice from equal arrays shows."""
    calls = []

    def key(arg):
        if isinstance(arg, ResidueSet):
            return (arg.modulus.m, arg.elements)
        if isinstance(arg, np.ndarray):
            return ("array", arg.dtype.str, arg.shape, arg.tobytes())
        return arg if isinstance(arg, (int, str)) else ("object", id(arg))

    def recording(function):
        def wrapper(*args, **kwargs):
            named = tuple((name, key(value)) for name, value in sorted(kwargs.items()))
            calls.append((function.__name__, tuple(map(key, args)), named))
            return function(*args, **kwargs)

        return wrapper

    for info in pkgutil.iter_modules(sumprod.__path__):
        if info.name in ("__main__", "setops"):
            continue
        module = importlib.import_module(f"sumprod.{info.name}")
        for attr, value in list(vars(module).items()):
            from_setops = getattr(value, "__module__", None) == "sumprod.setops"
            if from_setops and callable(value) and not isinstance(value, type):
                monkeypatch.setattr(module, attr, recording(value))
    return calls


@pytest.mark.parametrize(
    "argv, elements",
    [
        (["verify-t1", "--p", "101"], "2 3 5 7 11 13 17 19 23 29 31"),
        (["verify-t1", "--p", "101"], "0 2 3 5 7 11 13 17 19 23 29 31"),
        (["verify-t2", "--m", "360"], "0 1 2 7 11 12 30 49 77 121 180 301"),
        (["spectral", "--p", "101"], "2 3 5 7 11 13 17 19 23 29 31"),
    ],
)
def test_each_derived_set_is_built_once(capsys, tmp_path, monkeypatch, argv, elements):
    setfile = tmp_path / "s.txt"
    setfile.write_text(elements + "\n")
    calls = _record_setops_calls(monkeypatch)
    code, _, _ = _run(capsys, argv + ["--set", str(setfile)])
    assert code == 0
    assert calls
    repeated = {call for call in calls if calls.count(call) > 1}
    assert sorted(name for name, *_ in repeated) == []


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sumprod", "zm-extremal", "--p", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size_prod"] == 1
