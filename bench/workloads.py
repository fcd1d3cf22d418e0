"""The benchmark's workloads: seeded inputs, the CLI calls that make up one
op, and the correctness gates on what those calls print and write.

Every input comes from `make_input(seed, index)`; index 0 is the warm-up op
and 1, 2, ... are the measured ops, so each op gets its own input and two
runs with one seed see the same inputs. The program receives only set files
and CLI arguments. The gates check the CLI's frozen interface: exit codes,
JSON keys, internal consistency of the JSON, and the sweep CSV bytes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np

# The CLI interface as documented, copied rather than imported so that a change
# in the program shows up as a failed gate.
FIELD_KEYS = (
    "p", "size_a", "size_sum", "size_prod", "lhs", "term_pa", "term_a4p", "bound",
    "ratio", "quad_count", "quad_lower", "fourier_max", "fourier_cap", "stripped_zero",
)
RING_KEYS = (
    "m", "d0", "size_a", "size_unit_a", "size_sum", "size_prod", "divisor_halfpower_sum",
    "lhs", "term_ma", "term_ring", "bound", "ratio", "nonunit_count", "nonunit_cap", "branch",
)
CONSTRUCT_KEYS = (
    "p", "n", "g", "window_len", "offset", "window_count", "sum_size", "prod_size",
    "max_size", "structural_cap", "elements",
)
SWEEP_KEYS = ("rows", "violations", "out")
CSV_HEADER = (
    "modulus,kind,size,trial,derived_seed,sum_size,prod_size,"
    "lhs,bound,ratio,J,fourier_max,fourier_cap,elapsed_micros"
)

_MASK64 = (1 << 64) - 1


def input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, index]))


def input_digest(inputs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def sweep_threads() -> int:
    """Two sweep threads, or fewer on a machine with fewer CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


class OpCaller:
    """Runs CLI calls in-process with stdout and stderr captured.

    Only the calls themselves are timed. Everything the op printed, and every
    CSV it wrote, goes into one digest so that runs compare byte for byte;
    the run's scratch directory, which a sweep echoes, is replaced by a fixed
    token first.
    """

    def __init__(self, main, workdir: Path):
        self.main = main
        self.workdir = str(workdir)
        self.seconds = 0.0
        self._digest = hashlib.sha256()

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.main(argv)
            self.seconds += time.perf_counter() - start
        text = out.getvalue()
        self.record(text.replace(self.workdir, "$WORKDIR").encode())
        return code, text

    def record(self, data: bytes) -> None:
        self._digest.update(len(data).to_bytes(8, "little"))
        self._digest.update(data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _write_set(path: Path, elements: list[int]) -> str:
    path.write_text("\n".join(map(str, elements)) + "\n", encoding="utf-8")
    return str(path)


def _json_report(code: int, text: str, keys: tuple[str, ...], errors: list[str], what: str):
    """Parse one report; None (with the reason in errors) if it is unusable."""
    if code != 0:
        errors.append(f"{what}: exit code {code}")
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.append(f"{what}: stdout is not JSON ({exc})")
        return None
    if not isinstance(report, dict) or tuple(report) != keys:
        errors.append(f"{what}: keys {list(report) if isinstance(report, dict) else report!r}")
        return None
    return report


def _check(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _field_gates(code: int, text: str, p: int, size: int, errors: list[str]):
    rep = _json_report(code, text, FIELD_KEYS, errors, "verify-t1")
    if rep is None:
        return None
    _check(errors, rep["p"] == p, f"verify-t1: p {rep['p']} != {p}")
    _check(errors, rep["size_a"] == size, f"verify-t1: size_a {rep['size_a']} != {size}")
    _check(errors, rep["lhs"] == rep["size_sum"] * rep["size_prod"], "verify-t1: lhs != size_sum*size_prod")
    _check(errors, rep["quad_count"] >= rep["quad_lower"], "verify-t1: quad_count < quad_lower")
    _check(errors, rep["quad_lower"] == size**3, "verify-t1: quad_lower != |A|^3 on a zero-free set")
    return rep


class FieldDense:
    """verify-t1 on a fresh zero-free 3000-subset of F_10007 per op."""

    name = "field-dense"
    P = 10007
    SIZE = 3000
    sets_per_op = 1

    def make_input(self, seed: int, index: int) -> dict:
        picks = input_rng(seed, index).choice(self.P - 1, self.SIZE, replace=False) + 1
        return {"elements": sorted(picks.tolist())}

    def run(self, call: OpCaller, inp: dict, workdir: Path) -> list[str]:
        errors: list[str] = []
        path = _write_set(workdir / "a.txt", inp["elements"])
        code, text = call(["verify-t1", "--p", str(self.P), "--set", path])
        _field_gates(code, text, self.P, len(inp["elements"]), errors)
        return errors


class FieldSparse:
    """construct at p = 1000003 with n near 300, then verify-t1 on the printed set."""

    name = "field-sparse"
    P = 1000003
    N_RANGE = (290, 311)
    sets_per_op = 1

    def make_input(self, seed: int, index: int) -> dict:
        return {"n": int(input_rng(seed, index).integers(*self.N_RANGE))}

    def run(self, call: OpCaller, inp: dict, workdir: Path) -> list[str]:
        errors: list[str] = []
        n = inp["n"]
        code, text = call(["construct", "--p", str(self.P), "--n", str(n)])
        built = _json_report(code, text, CONSTRUCT_KEYS, errors, "construct")
        if built is None:
            return errors
        elements = built["elements"]
        _check(errors, built["n"] == n and len(elements) == n, f"construct: {len(elements)} elements != {n}")
        _check(errors, all(0 < e < self.P for e in elements), "construct: element outside [1, p)")
        _check(errors, built["max_size"] == max(built["sum_size"], built["prod_size"]), "construct: max_size")
        _check(errors, built["max_size"] <= built["structural_cap"], "construct: max_size > structural_cap")
        path = _write_set(workdir / "a.txt", elements)
        code, text = call(["verify-t1", "--p", str(self.P), "--set", path])
        rep = _field_gates(code, text, self.P, len(elements), errors)
        if rep is not None:
            _check(
                errors,
                (rep["size_sum"], rep["size_prod"]) == (built["sum_size"], built["prod_size"]),
                "verify-t1 sizes differ from construct",
            )
        return errors


class RingComposite:
    """verify-t2 on a fresh 1000-subset of Z_720720 per op."""

    name = "ring-composite"
    M = 720720
    SIZE = 1000
    sets_per_op = 1

    @functools.cached_property
    def _is_unit(self) -> np.ndarray:
        return np.gcd(np.arange(self.M), self.M) == 1

    def make_input(self, seed: int, index: int) -> dict:
        """A random set holding the expected number of units, 192 of 1000.

        The unit part drives the time and memory of the quotient counts, so
        fixing its size keeps one op's cost from drifting with the draw.
        """
        rng = input_rng(seed, index)
        units = np.flatnonzero(self._is_unit)
        nonunits = np.flatnonzero(~self._is_unit)
        k = round(self.SIZE * units.size / self.M)
        picks = np.concatenate((
            rng.choice(units, k, replace=False),
            rng.choice(nonunits, self.SIZE - k, replace=False),
        ))
        return {"elements": sorted(picks.tolist())}

    def run(self, call: OpCaller, inp: dict, workdir: Path) -> list[str]:
        errors: list[str] = []
        path = _write_set(workdir / "a.txt", inp["elements"])
        code, text = call(["verify-t2", "--m", str(self.M), "--set", path])
        rep = _json_report(code, text, RING_KEYS, errors, "verify-t2")
        if rep is None:
            return errors
        size = len(inp["elements"])
        _check(errors, rep["m"] == self.M, f"verify-t2: m {rep['m']} != {self.M}")
        _check(errors, rep["size_a"] == size, f"verify-t2: size_a {rep['size_a']} != {size}")
        _check(errors, rep["lhs"] == rep["size_sum"] * rep["size_prod"], "verify-t2: lhs != size_sum*size_prod")
        _check(errors, rep["size_unit_a"] + rep["nonunit_count"] == size, "verify-t2: unit split")
        return errors


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derived_seed(seed: int, size: int, trial: int) -> int:
    """The documented per-trial seed sm64(sm64(sm64(seed) ^ size) ^ trial),
    written out here so the gate does not trust the code it checks."""
    return _splitmix64(_splitmix64(_splitmix64(seed) ^ size) ^ trial)


class SweepSmall:
    """A prime and a ring sweep of 175 tiny cells in all, with a fresh seed per op."""

    name = "sweep-small"
    GRIDS = (
        ("prime", 499, (8, 32, 128, 400)),
        ("ring", 3600, (8, 64, 512)),
    )
    TRIALS = 25
    sets_per_op = TRIALS * sum(len(sizes) for _, _, sizes in GRIDS)

    def make_input(self, seed: int, index: int) -> dict:
        return {"seed": int(input_rng(seed, index).integers(0, 1 << 63))}

    def run(self, call: OpCaller, inp: dict, workdir: Path) -> list[str]:
        errors: list[str] = []
        for kind, modulus, sizes in self.GRIDS:
            out = workdir / f"{kind}.csv"
            code, text = call([
                "sweep", "--modulus", str(modulus), "--kind", kind,
                "--sizes", ",".join(map(str, sizes)), "--trials", str(self.TRIALS),
                "--seed", str(inp["seed"]), "--out", str(out), "--threads", str(sweep_threads()),
            ])
            rep = _json_report(code, text, SWEEP_KEYS, errors, f"sweep {kind}")
            if rep is None:
                continue
            expected = len(sizes) * self.TRIALS
            _check(errors, rep["rows"] == expected, f"sweep {kind}: rows {rep['rows']} != {expected}")
            _check(errors, rep["violations"] == 0, f"sweep {kind}: {rep['violations']} violations")
            _check(errors, rep["out"] == str(out), f"sweep {kind}: out {rep['out']!r}")
            data = out.read_bytes()
            call.record(data)
            self._csv_gates(data.decode("utf-8"), kind, modulus, sizes, inp["seed"], errors)
        return errors

    def _csv_gates(self, text, kind, modulus, sizes, seed, errors) -> None:
        lines = text.split("\n")
        _check(errors, lines[0] == CSV_HEADER, f"sweep {kind}: CSV header {lines[0]!r}")
        _check(errors, lines[-1] == "", f"sweep {kind}: CSV does not end in a newline")
        rows = [line.split(",") for line in lines[1:-1]]
        cells = [(size, trial) for size in sizes for trial in range(self.TRIALS)]
        if len(rows) != len(cells):
            errors.append(f"sweep {kind}: {len(rows)} CSV rows != {len(cells)}")
            return
        for row, (size, trial) in zip(rows, cells):
            where = f"sweep {kind} size {size} trial {trial}"
            if len(row) != 14:
                errors.append(f"{where}: {len(row)} fields")
                continue
            _check(errors, row[:4] == [str(modulus), kind, str(size), str(trial)], f"{where}: key columns {row[:4]}")
            _check(errors, row[4] == str(derived_seed(seed, size, trial)), f"{where}: derived_seed")
            _check(errors, int(row[7]) == int(row[5]) * int(row[6]), f"{where}: lhs != sum_size*prod_size")
            _check(errors, (row[10] == "") == (kind == "ring"), f"{where}: J column")
            _check(errors, row[13] == "0", f"{where}: elapsed_micros")


WORKLOADS = {w.name: w for w in (FieldDense(), FieldSparse(), RingComposite(), SweepSmall())}
