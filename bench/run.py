"""Closed-loop benchmark of the sumprod command line, one client.

    python3 bench/run.py --workload field-dense --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory. Each op calls `sumprod.cli.main` in-process, waits for it, checks
its output (see workloads.py) and then starts the next op.

--trace 0 measures the end-to-end metrics with nothing installed in the
package. --trace 1 runs every input twice, once plain and once with the span
tracer of tracer.py installed, in alternating order; it reports the per-layer
metrics and the tracing overhead, and fails an op whose traced output
differs from its plain output.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Per-op times, digests
and the failure messages go to .bench_out/ in the checkout, and in a traced
run every span too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LayerTotals, Tracer
from workloads import WORKLOADS, OpCaller, input_digest, sweep_threads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUPS = 3  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
MIN_OPS = TAIL_BEYOND + 1  # so that op_tail_s always exists

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "sets_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it: the sample ranked `beyond + 1` from the top."""
    ordered = sorted(samples)
    rank = len(ordered) - beyond
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples cannot leave {beyond} above a percentile")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".pairs")):
        return "count"
    return "ratio"


def import_sumprod():
    """Import sumprod afresh from this checkout's src/, dropping any copy
    imported before, so every set-up pays for the import and cold caches."""
    for name in [n for n in sys.modules if n == "sumprod" or n.startswith("sumprod.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("sumprod")
    if Path(package.__file__).resolve().parent != src / "sumprod":
        raise ImportError(f"sumprod came from {package.__file__}, not {src}")
    return package, importlib.import_module("sumprod.cli")


def run_op(workload, call: OpCaller, inp: dict, workdir: Path) -> list[str]:
    """The op's gate failures; an op that raises is a failed op, not a crash."""
    try:
        return workload.run(call, inp, workdir)
    except Exception:
        return [traceback.format_exc()]


def set_up(workload, seed: int, workdir: Path):
    """Import, make the warm-up input and its files, run the warm-up op."""
    start = time.perf_counter()
    package, cli = import_sumprod()
    errors = run_op(workload, OpCaller(cli.main, workdir), workload.make_input(seed, 0), workdir)
    return time.perf_counter() - start, package, cli, errors


def measure(workload, seed: int, seconds: float, cli, workdir: Path, min_ops: int = MIN_OPS) -> dict:
    """Untraced ops, one after another, for `seconds` and at least `min_ops`."""
    times, digests, inputs, failures = [], [], [], []
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds or len(times) < min_ops:
        inp = workload.make_input(seed, index)
        call = OpCaller(cli.main, workdir)
        errors = run_op(workload, call, inp, workdir)
        times.append(call.seconds)
        digests.append(call.digest)
        inputs.append(inp)
        if errors:
            failures.append({"op": index, "errors": errors})
        index += 1
    return {"times": times, "digests": digests, "inputs": inputs, "failures": failures}


def measure_traced(workload, seed: int, seconds: float, package, cli, workdir: Path) -> dict:
    """Each input runs plain and traced, alternating which goes first."""
    tracer = Tracer(package)
    traced_main = tracer.wrap(cli.main, "cli", "main")
    totals = LayerTotals()
    plain_times, traced_times, failures, spans_out = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds or not totals.ops:
        inp = workload.make_input(seed, index)
        digests = {}
        for traced in (index % 2 == 0, index % 2 == 1):
            attempted += 1
            if traced:
                call = OpCaller(traced_main, workdir)
                with tracer:
                    errors = run_op(workload, call, inp, workdir)
                spans = tracer.drain()
                totals.add_op(spans)
                spans_out.extend((index, s) for s in spans)
                traced_times.append(call.seconds)
            else:
                call = OpCaller(cli.main, workdir)
                errors = run_op(workload, call, inp, workdir)
                plain_times.append(call.seconds)
            digests[traced] = call.digest
            if errors:
                failures.append({"op": index, "traced": traced, "errors": errors})
        if digests[True] != digests[False]:
            failures.append({"op": index, "traced": True, "errors": ["traced output differs from plain output"]})
        index += 1
    metrics = totals.metrics(sweep_threads())
    metrics["trace_overhead"] = statistics.median(traced_times) / statistics.median(plain_times) - 1
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "plain_times": plain_times,
        "traced_times": traced_times,
        "spans": spans_out,
        "bindings": len(tracer.bindings),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setup_times, setup_errors = [], []
        for _ in range(SETUPS):
            seconds, package, cli, errors = set_up(workload, args.seed, workdir)
            setup_times.append(seconds)
            setup_errors += errors
        if args.trace:
            run = measure_traced(workload, args.seed, args.seconds, package, cli, workdir)
        else:
            run = measure(workload, args.seed, args.seconds, cli, workdir)
    except ImportError as exc:
        print(f"error: cannot import sumprod from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    failures = run["failures"]
    detail = {"workload": workload.name, "seed": args.seed, "setup_times": setup_times,
              "setup_errors": setup_errors, "failures": failures}
    if args.trace:
        attempted = run["attempted"]
        metrics = {name: (value, layer_unit(name)) for name, value in run["metrics"].items()}
        detail.update({k: run[k] for k in ("plain_times", "traced_times", "bindings")})
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write('["op", "sid", "parent", "thread", "layer", "name", "start_ns", "end_ns", "mass"]\n')
            for op, s in run["spans"]:
                row = [op, s.sid, s.parent, s.thread, s.layer, s.name, s.start_ns, s.end_ns, s.mass]
                handle.write(json.dumps(row) + "\n")
        print(f"traced {len(run['traced_times'])} ops through {run['bindings']} bindings")
    else:
        times = run["times"]
        attempted = len(times)
        tail_value, tail_pct = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "sets_per_s": workload.sets_per_op * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        shown = min(len(times), MIN_OPS)
        detail.update({
            "times": times,
            "tail_percentile": tail_pct,
            "op_digests": run["digests"],
            "input_digests": [input_digest([inp]) for inp in run["inputs"]],
        })
        print(f"op_tail_s is p{tail_pct:.1f} of {len(times)} op samples ({TAIL_BEYOND} beyond it)")
        print(f"digest of the first {shown} ops' outputs: {input_digest(run['digests'][:shown])}")
        print(f"digest of the first {shown} ops' inputs: {input_digest(run['inputs'][:shown])}")
    failed = len({(f["op"], f.get("traced")) for f in failures})
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"op_fail_ratio = {failed}/{attempted} = {failed / attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}".rstrip())
    correct = failed == 0 and not setup_errors
    for message in (setup_errors + [e for f in failures for e in f["errors"]])[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
