"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
from tracer import LayerTotals, Span, Tracer, cross_module_bindings, self_times_ns
from workloads import WORKLOADS, FieldDense, OpCaller, SweepSmall, input_digest

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tail_is_the_sample_with_ten_above_it():
    samples = [float(x) for x in range(100, 0, -1)]
    assert run.tail(samples) == (90.0, 90.0)
    value, pct = run.tail([5.0] + [1.0] * 10)
    assert (value, pct) == (1.0, 100 / 11)
    assert run.tail([3.0, 1.0, 2.0], beyond=2) == (1.0, 100 / 3)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def _span(sid, parent, start, end, thread=1, layer="setops", name="f"):
    return Span(sid, parent, thread, layer, name, start, end, None, None)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0, 100, layer="cli", name="main"),
        _span(2, 1, 10, 40),
        _span(3, 2, 20, 30),
        _span(4, 1, 50, 60),
    ]
    assert self_times_ns(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_with_children_on_two_threads():
    spans = [
        _span(1, None, 0, 100, thread=1, name="run_sweep"),
        _span(2, 1, 10, 60, thread=2),
        _span(3, 1, 40, 90, thread=3),
        _span(4, 3, 45, 55, thread=3),
    ]
    assert self_times_ns(spans) == {1: 20, 2: 50, 3: 40, 4: 10}


def test_worker_spans_hang_under_the_open_op_span():
    package, _ = run.import_sumprod()
    tracer = Tracer(package)
    worker = tracer.wrap(lambda: threading.get_ident(), "setops", "work")

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(worker) for _ in range(6)]]

    root = tracer.wrap(sweep, "sweeps", "run_sweep")
    with tracer:
        root()
    spans = tracer.drain()
    top = [s for s in spans if s.name == "run_sweep"]
    assert len(top) == 1 and len(spans) == 7
    assert all(s.parent == top[0].sid and s.thread != top[0].thread for s in spans if s is not top[0])
    totals = LayerTotals()
    totals.add_op(spans)
    own = self_times_ns(spans)
    assert totals.self_ns["sweeps"] == own[top[0].sid] < top[0].duration_ns
    assert totals.calls["setops"] == 6


def _bindings_are_original(package) -> bool:
    return all(
        getattr(sys.modules[b.function.__module__], b.function.__name__) is b.function
        for b in cross_module_bindings(package)
    )


def test_runs_leave_every_binding_original(tmp_path):
    package, cli = run.import_sumprod()
    before = {(b.module.__name__, b.attribute): b.function for b in cross_module_bindings(package)}
    assert before and _bindings_are_original(package)
    workload = WORKLOADS["field-sparse"]
    plain = run.measure(workload, 1, 0, cli, tmp_path, min_ops=1)
    assert not plain["failures"]
    traced = run.measure_traced(workload, 1, 0, package, cli, tmp_path)
    assert not traced["failures"] and traced["metrics"]["extremal.calls"] > 0
    after = {(b.module.__name__, b.attribute): b.function for b in cross_module_bindings(package)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with Tracer(package):
        assert not _bindings_are_original(package)
    assert _bindings_are_original(package)


def test_same_seed_gives_the_same_output_digest(tmp_path):
    _, cli = run.import_sumprod()
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        digests.append(run.measure(WORKLOADS["sweep-small"], 3, 0, cli, tmp_path / sub, min_ops=1)["digests"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]

    def digest(seed):
        return input_digest([workload.make_input(seed, i) for i in range(3)])

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
    assert len({input_digest([workload.make_input(7, i)]) for i in range(3)}) == 3


def test_gates_reject_wrong_output(tmp_path):
    workload = FieldDense()
    inp = workload.make_input(1, 1)

    def fake(code, payload):
        def main(argv):
            print(json.dumps(payload))
            return code

        return OpCaller(main, tmp_path)

    good = {key: 0 for key in ("p", "size_a", "size_sum", "size_prod", "lhs", "term_pa", "term_a4p",
                               "bound", "ratio", "quad_count", "quad_lower", "fourier_max",
                               "fourier_cap", "stripped_zero")}
    good.update(p=10007, size_a=3000, size_sum=5, size_prod=7, lhs=35, quad_count=3000**3,
                quad_lower=3000**3)
    assert workload.run(fake(0, good), inp, tmp_path) == []
    assert workload.run(fake(1, good), inp, tmp_path)
    assert workload.run(fake(0, {**good, "lhs": 36}), inp, tmp_path)
    assert workload.run(fake(0, {**good, "quad_count": 1}), inp, tmp_path)
    assert workload.run(fake(0, {k: v for k, v in good.items() if k != "ratio"}), inp, tmp_path)
    errors: list[str] = []
    SweepSmall()._csv_gates("modulus,kind\n", "prime", 499, (8,), 1, errors)
    assert errors


def test_benchmark_json_matches_what_the_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [*LayerTotals().metrics(threads=1), "trace_overhead"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in BENCHMARK["per_layer"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
