"""Command-line front end.

Every report command prints a flat JSON object (lower_snake_case keys)
to stdout. Exit codes: 0 success, 1 a verified bound was violated,
2 usage or input error, including counts over the memory budget and
running out of memory. Diagnostics and failed-check names go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

from .estimates import (
    Check,
    Derivation,
    field_bound_report,
    field_checks,
    ring_bound_report,
    ring_checks,
    spectral_checks,
    zm_extremal,
)
from .extremal import build_extremal
from .residues import make_modulus
from .sweeps import (
    DuplicateResidueWarning,
    SweepConfig,
    parse_set_file,
    row_violates,
    run_exhaustive,
    run_sweep,
)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _report_failures(checks: list[Check]) -> int:
    """One stderr line per failed check, in list order; exit 1 if any failed."""
    failed = [c.name for c in checks if not c.holds]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if failed else 0


def _load_set(path: str, modulus):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DuplicateResidueWarning)
        loaded = parse_set_file(path, modulus)
    dups = sum(1 for w in caught if issubclass(w.category, DuplicateResidueWarning))
    if dups:
        print(f"note: {dups} duplicate value(s) ignored", file=sys.stderr)
    return loaded


def _cmd_construct(args: argparse.Namespace) -> int:
    built = build_extremal(args.p, args.n)
    needed = -(-built.window_len**2 // built.p)
    payload = {
        "p": built.p,
        "n": built.n,
        "g": built.g,
        "window_len": built.window_len,
        "offset": built.offset,
        "window_count": built.window_count,
        "sum_size": built.sum_size,
        "prod_size": built.prod_size,
        "max_size": built.max_size,
        "structural_cap": built.structural_cap,
        "elements": built.chosen.array.tolist(),
    }
    _emit(payload)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return _report_failures(
        [
            Check("size_equals_n", built.chosen.size, built.n, built.chosen.size == built.n),
            Check("pigeonhole_count", built.window_count, needed, built.window_count >= needed),
            Check(
                "structural_cap",
                built.max_size,
                built.structural_cap,
                built.max_size <= built.structural_cap,
            ),
        ]
    )


def _cmd_verify_t1(args: argparse.Namespace) -> int:
    mod = make_modulus(args.p)
    if not mod.is_prime:
        raise ValueError(f"{args.p} is not prime")
    d = Derivation(_load_set(args.set, mod))
    _emit(asdict(field_bound_report(d)))
    return _report_failures(field_checks(d))


def _cmd_verify_t2(args: argparse.Namespace) -> int:
    d = Derivation(_load_set(args.set, make_modulus(args.m)))
    checks = ring_checks(d)  # before the report: ring_checks orders the work for peak memory and overlap
    _emit(asdict(ring_bound_report(d)))
    return _report_failures(checks)


def _cmd_spectral(args: argparse.Namespace) -> int:
    mod = make_modulus(args.p)
    if not mod.is_prime:
        raise ValueError(f"{args.p} is not prime")
    a_set = _load_set(args.set, mod)
    if 0 in a_set:
        raise ValueError("spectral diagnostics require a set without 0")
    d = Derivation(a_set)
    checks = spectral_checks(d)
    identity, fourier, cs = checks
    _emit(
        {
            "p": mod.m,
            "size_a": d.size,
            "size_sum": d.sums.size,
            "size_prod": d.prods.size,
            "quad_count": d.quad_count,
            "spectral_value": d.spectral_quad_count,
            "rel_error": identity.lhs,
            "fourier_max": math.sqrt(fourier.lhs),
            "fourier_cap": math.sqrt(fourier.rhs),
            "cs_lhs": cs.lhs,
            "cs_cap": cs.rhs,
        }
    )
    return _report_failures(checks)


def _cmd_zm_extremal(args: argparse.Namespace) -> int:
    example = zm_extremal(args.p)
    _emit(
        {
            "p": example.p,
            "m": example.m,
            "size_a": example.size_a,
            "size_sum": example.size_sum,
            "size_prod": example.size_prod,
            "ratio": example.ratio,
            "elements": example.a.array.tolist(),
        }
    )
    sizes = (example.size_a, example.size_sum, example.size_prod)
    return _report_failures(
        [Check("exact_size_triple", example.size_prod, 1, sizes == (example.p, example.p, 1))]
    )


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    summary = run_exhaustive(args.p, args.k)
    _emit(asdict(summary))
    return _report_failures(
        [Check("quarter_constant", summary.violations, 0, summary.violations == 0)]
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok)
    cfg = SweepConfig(
        modulus=args.modulus,
        kind=args.kind,
        sizes=sizes,
        trials=args.trials,
        seed=args.seed,
        out_path=args.out,
    )
    rows = run_sweep(cfg, threads=args.threads)
    violations = sum(1 for row in rows if row_violates(row))
    _emit({"rows": len(rows), "violations": violations, "out": args.out})
    return _report_failures([Check("constant_bound", violations, 0, violations == 0)])


def _u64(text: str) -> int:
    value = int(text, 10)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprod",
        description="Sum/product set statistics, bound verification and constructions over Z_m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a set with small sum and product sets")
    p_construct.add_argument("--p", type=int, required=True)
    p_construct.add_argument("--n", type=int, required=True)
    p_construct.add_argument("--json", type=str, default=None)
    p_construct.set_defaults(func=_cmd_construct)

    p_t1 = sub.add_parser("verify-t1", help="prime-field bound report for a set file")
    p_t1.add_argument("--p", type=int, required=True)
    p_t1.add_argument("--set", type=str, required=True)
    p_t1.set_defaults(func=_cmd_verify_t1)

    p_t2 = sub.add_parser("verify-t2", help="residue-ring bound report for a set file")
    p_t2.add_argument("--m", type=int, required=True)
    p_t2.add_argument("--set", type=str, required=True)
    p_t2.set_defaults(func=_cmd_verify_t2)

    p_sweep = sub.add_parser("sweep", help="seeded random sweep with CSV output")
    p_sweep.add_argument("--modulus", type=int, required=True)
    p_sweep.add_argument("--kind", choices=["prime", "ring"], required=True)
    p_sweep.add_argument("--sizes", type=str, required=True)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=_u64, required=True)
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--threads", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ex = sub.add_parser("exhaustive", help="scan all k-subsets of the nonzero residues")
    p_ex.add_argument("--p", type=int, required=True)
    p_ex.add_argument("--k", type=int, required=True)
    p_ex.set_defaults(func=_cmd_exhaustive)

    p_spec = sub.add_parser("spectral", help="character-sum diagnostics for a set file")
    p_spec.add_argument("--p", type=int, required=True)
    p_spec.add_argument("--set", type=str, required=True)
    p_spec.set_defaults(func=_cmd_spectral)

    p_zm = sub.add_parser("zm-extremal", help="the multiples-of-p example in Z_{p^2}")
    p_zm.add_argument("--p", type=int, required=True)
    p_zm.set_defaults(func=_cmd_zm_extremal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
