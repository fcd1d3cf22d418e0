"""Seeded random sweeps (each size's trials as set families), exhaustive
small-case searches, set-file ingestion and CSV emission.

Determinism contract: every trial draws its subset from a generator
seeded by mix(seed, size, trial) where mix is three rounds of splitmix64
(see derive_seed), so a sweep's output is byte-identical across runs and
across worker-thread counts. The elapsed_micros CSV column is fixed at 0
to keep the file reproducible; it is retained for schema compatibility.
"""

from __future__ import annotations

import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import chain, combinations

import numpy as np

from .estimates import (
    Derivation,
    _Family,
    field_bound_report,
    field_constant,
    ring_bound_report,
    ring_constant,
)
from .residues import Modulus, ResidueSet, make_modulus, residue_set
from .setops import _family_step, _require_fits, _row_counts, _usable_cpus

CSV_HEADER = (
    "modulus,kind,size,trial,derived_seed,sum_size,prod_size,"
    "lhs,bound,ratio,J,fourier_max,fourier_cap,elapsed_micros"
)

KIND_PRIME = "prime"
KIND_RING = "ring"

_MASK64 = (1 << 64) - 1
# A leading minus is matched only so that a negative value is reported as
# out of range rather than as non-numeric.
_DECIMAL = re.compile(r"-?[0-9]+")


class DuplicateResidueWarning(UserWarning):
    """A set file listed the same residue more than once."""


def parse_set_file(path: str, modulus: Modulus) -> ResidueSet:
    """Read whitespace-separated decimal residues; '#' starts a comment.

    Tokens must be ASCII decimal digits and values must already lie in
    [0, m); anything else is an error. Duplicates are removed, one
    DuplicateResidueWarning per extra occurrence.
    """
    m = modulus.m
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0]
            for token in body.split():
                if not _DECIMAL.fullmatch(token):
                    raise ValueError(f"{path}:{line_no}: non-numeric token {token!r}")
                value = int(token)
                if token[0] == "-" or value >= m:
                    raise ValueError(f"{path}:{line_no}: residue {token} out of range [0, {m})")
                if value in seen:
                    warnings.warn(f"duplicate residue {value}", DuplicateResidueWarning, stacklevel=2)
                else:
                    seen.add(value)
    return residue_set(modulus, seen)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, size: int, trial: int) -> int:
    """Per-trial stream seed: sm64(sm64(sm64(seed) ^ size) ^ trial)."""
    acc = splitmix64(seed & _MASK64)
    acc = splitmix64(acc ^ (size & _MASK64))
    acc = splitmix64(acc ^ (trial & _MASK64))
    return acc


@dataclass(frozen=True)
class SweepConfig:
    modulus: int
    kind: str
    sizes: tuple[int, ...]
    trials: int
    seed: int
    out_path: str | None = None


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; the fields are CSV_HEADER's columns in order, with
    quad_count the J column."""

    modulus: int
    kind: str
    size: int
    trial: int
    derived_seed: int
    sum_size: int
    prod_size: int
    lhs: int
    bound: float
    ratio: float
    quad_count: int | None
    fourier_max: float
    fourier_cap: float
    elapsed_micros: int


def _validated_modulus(cfg: SweepConfig) -> Modulus:
    mod = make_modulus(cfg.modulus)
    if cfg.kind not in (KIND_PRIME, KIND_RING):
        raise ValueError(f"kind must be {KIND_PRIME!r} or {KIND_RING!r}, got {cfg.kind!r}")
    if cfg.kind == KIND_PRIME and not mod.is_prime:
        raise ValueError(f"kind {KIND_PRIME!r} requires a prime modulus, got {mod.m}")
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= cfg.seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    # Prime sweeps draw zero-free subsets.
    pool = mod.m - (1 if cfg.kind == KIND_PRIME else 0)
    if not cfg.sizes:
        raise ValueError("no sizes given")
    for s in cfg.sizes:
        if not 1 <= s <= pool:
            raise ValueError(f"size {s} exceeds the {pool} available residues")
    return mod


def _draw(m: int, size: int, derived: int, zero_free: bool) -> np.ndarray:
    """A trial's size distinct residues, in draw order, from the PCG64 stream seeded by derived."""
    rng = np.random.Generator(np.random.PCG64(derived))
    low = 1 if zero_free else 0
    return rng.choice(m - low, size=size, replace=False) + low


def _family_rows(cfg: SweepConfig, mod: Modulus, size: int, trials: range) -> list[SweepRow]:
    """Some trials of one size as one set family (estimates._Family), whose pieces (A+A, AA, A', the quotient
    counts and, for primes, J) are each built once for every trial; then each trial's report from its row's view."""
    seeds = [derive_seed(cfg.seed, size, trial) for trial in trials]
    rows = np.sort([_draw(mod.m, size, derived, cfg.kind == KIND_PRIME) for derived in seeds], axis=1)
    family = _Family(rows, mod)  # each row a set's stored form
    return [_report_row(cfg, trial, derived, family.view(r)) for r, (trial, derived) in enumerate(zip(trials, seeds))]


def _report_row(cfg: SweepConfig, trial: int, derived: int, d: Derivation) -> SweepRow:
    if cfg.kind == KIND_PRIME:
        rep = field_bound_report(d)
        quad, fmax, fcap = rep.quad_count, rep.fourier_max, rep.fourier_cap
    else:
        # Ring rows carry the unsquared divisor-1 row of the unit part.
        rep = ring_bound_report(d)
        quad, fmax, fcap = None, d.units.peak, math.sqrt(d.units.cap_sq)
    return SweepRow(
        modulus=cfg.modulus,
        kind=cfg.kind,
        size=d.size,
        trial=trial,
        derived_seed=derived,
        sum_size=rep.size_sum,
        prod_size=rep.size_prod,
        lhs=rep.lhs,
        bound=rep.bound,
        ratio=rep.ratio,
        quad_count=quad,
        fourier_max=fmax,
        fourier_cap=fcap,
        elapsed_micros=0,
    )


def row_violates(row: SweepRow) -> bool:
    """Exact re-check of the explicit-constant bound for one emitted row."""
    if row.kind == KIND_PRIME:
        return not field_constant(row.modulus, row.size, row.lhs).holds
    return not ring_constant(row.lhs, row.bound).holds


def _format_value(x: "int | float | None") -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def format_row(row: SweepRow) -> str:
    """One CSV line: SweepRow's fields in declared order, CSV_HEADER's."""
    return ",".join(_format_value(getattr(row, f.name)) for f in fields(row))


def write_csv(rows: list[SweepRow], path: str) -> None:
    """UTF-8, LF line endings, exact fixed header, shortest-round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for row in rows:
            handle.write(format_row(row) + "\n")


def _pool_pays(cfg: SweepConfig) -> bool:
    """Whether worker threads speed the sweep up, from its kind and sizes
    alone: a family holds the GIL between numpy kernels, so only long kernels
    pay. run_sweep speed-up on 2 threads (2 shared vCPUs, numpy 2.4), 25
    trials, the pool forced: ring 6000, 8/64/512: 0.95x; 8192: 0.71-1.21x;
    16384: 1.22-1.32x; 65536: 1.27-1.48x; primes, 8/32/128: 4099: 0.97-1.02x;
    4999: 0.98-1.0x; 5501: 0.97-0.99x; 5987: 0.67-1.30x; 6007: 1.10-1.39x;
    7001: 1.16-1.44x; 8191: 0.88-0.91x; 10007, 8/32: 1.32-1.59x, 1000/3000:
    1.38-1.58x; prime 499, 8/32/128/400 and ring 3600, 8/64/512: 0.85-1.0x;
    ring 3600, 725: 1.25-1.75x, 1000/2000: 1.6-1.85x; ring 4096, 800:
    1.55-1.8x; prime 4093, 1000/3000: 1.4-1.6x; prime 2003, 725/1500: 1.0x."""
    floor = 6000 if cfg.kind == KIND_PRIME else 1 << 13
    return cfg.modulus >= floor or max(cfg.sizes) ** 2 >= 1 << 19


def run_sweep(cfg: SweepConfig, threads: int | None = None) -> list[SweepRow]:
    """Run every (size, trial) cell of the sweep; rows come back ordered by
    config position then trial index regardless of scheduling.

    Each size runs as set families of _family_step trials, one where one transform
    fills the row budget: _family_rows builds each family's pieces once and reports
    each trial from its row's view (a Derivation). Worker threads: min(threads or CPUs,
    CPUs), a choice of speed only, never of output; families run on the calling
    thread unless _pool_pays.
    """
    mod, tasks = _validated_modulus(cfg), []
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _require_fits(mod.m)  # once, before any draw
    for size in cfg.sizes:
        step = _family_step(mod.m, size)
        tasks += [(size, range(lo, min(lo + step, cfg.trials))) for lo in range(0, cfg.trials, step)]
    cpu = _usable_cpus()
    workers = min(threads or cpu, cpu)
    if workers == 1 or len(tasks) == 1 or not _pool_pays(cfg):
        parts = [_family_rows(cfg, mod, *task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda task: _family_rows(cfg, mod, *task), tasks))
    rows = list(chain.from_iterable(parts))
    if cfg.out_path is not None:
        write_csv(rows, cfg.out_path)
    return rows


@dataclass(frozen=True)
class ExhaustiveSummary:
    p: int
    k: int
    subsets: int
    min_ratio: float
    witness: tuple[int, ...]
    violations: int


def run_exhaustive(p: int, k: int) -> ExhaustiveSummary:
    """Scan every k-subset of the nonzero residues mod p for a violation of
    the exact 1/4 bound; record the minimum ratio and its witness.

    Limits: p prime <= 19, so at most C(18, 9) = 48,620 subsets, one row
    each; the sizes of its sum and product sets are the supports of one set
    family (_row_counts), enumerated in blocks of rows.
    """
    if not make_modulus(p).is_prime or p > 19:
        raise ValueError(f"p must be a prime at most 19, got {p}")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in [1, {p - 1}], got {k}")
    combos = np.fromiter(chain.from_iterable(combinations(range(1, p), k)), np.int16).reshape(-1, k)
    lhs = np.ones(len(combos), np.int64)
    for op in (np.add, np.multiply):
        lhs *= (_row_counts(combos, combos, p, op, sets=True) >= 0).sum(axis=1)
    best = int(np.argmin(lhs))
    values, counts = np.unique(lhs, return_counts=True)
    fails = [not field_constant(p, k, int(v)).holds for v in values]
    return ExhaustiveSummary(
        p=p,
        k=k,
        subsets=len(combos),
        min_ratio=int(lhs[best]) / min(p * k, k**4 / p),
        witness=tuple(int(a) for a in combos[best]),
        violations=int(counts[fails].sum()),
    )
