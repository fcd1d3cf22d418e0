"""Complete exponential sums of sets and representation counts, and their
peaks by gcd class of the frequency.

A spectrum is a read-only complex array over Z_m with the character
convention e_m(x) = exp(2*pi*i*x/m). A small direct summation evaluator
serves as the reference path; larger transforms go through numpy's FFT
(conjugated to match the sign convention), which is validated against the
direct path in the test suite. The inequalities built on these spectra are
checked in estimates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .residues import ResidueSet
from .setops import _TABLES, _gcd_classes, _usable_cpus, indicator

# Direct summation is used when the period and the support are both small
# enough that the twiddle work stays trivial; everything else goes to the
# FFT path. The two paths agree to ~1e-12 relative error.
DIRECT_Q_LIMIT = 4096
DIRECT_WORK_LIMIT = 1 << 16


def _direct_dft(dense: np.ndarray) -> np.ndarray:
    """Reference transform: blocked direct summation over the support."""
    q = dense.shape[0]
    support = np.flatnonzero(dense)
    weights = dense[support].astype(np.float64)
    out = np.zeros(q, dtype=np.complex128)
    if support.size == 0:
        return out
    base = 2j * np.pi / q
    block = max(1, (1 << 20) // support.size)
    for lo in range(0, q, block):
        freqs = np.arange(lo, min(lo + block, q))
        out[freqs] = np.exp(base * np.outer(freqs, support)) @ weights
    return out


def _fft_dft(dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # numpy's fft uses exp(-2 pi i n t / q); the input is real, so the
    # conjugate, taken in place, is exactly the e_q(+nt) transform.
    amps = np.fft.fft(dense, out=out)
    return np.conjugate(amps, out=amps)


def _direct(counts: np.ndarray) -> bool:  # dft_counts' path
    return counts.size <= DIRECT_Q_LIMIT and counts.size * int(np.count_nonzero(counts)) <= DIRECT_WORK_LIMIT


def dft_counts(counts: np.ndarray) -> np.ndarray:
    """S(n) = sum_t counts[t] e_m(n t) for n in [0, m), m = counts.size,
    read-only."""
    amps = _direct_dft(counts) if _direct(counts) else _fft_dft(counts)
    amps.setflags(write=False)
    return amps


def dft_counts_beside(counts: np.ndarray, work):
    """(dft_counts(counts), work()): on its FFT path, with two CPUs usable, the transform runs on one worker
    thread while work runs on this one (pocketfft releases the GIL); else one after the other. The worker gets
    only arrays allocated here, as a thread's malloc arena keeps the pages it frees (bench ring-composite, two
    vCPUs: peak RSS 130 MiB, 121 so). It is joined before this returns or raises; either side's error propagates."""
    if _direct(counts) or _usable_cpus() < 2:
        return dft_counts(counts), work()
    amps = np.empty(counts.size, dtype=np.complex128)
    with ThreadPoolExecutor(max_workers=1) as pool:
        job = pool.submit(_fft_dft, counts.astype(np.complex128), amps)
        done = work()
        job.result()
    amps.setflags(write=False)
    return amps, done


def spectrum_of_set(a_set: ResidueSet) -> np.ndarray:
    """Spectrum of a set's indicator over Z_m."""
    return dft_counts(indicator(a_set))


def gcd_class_peaks(spectrum: np.ndarray) -> np.ndarray:
    """Per proper divisor d of m = spectrum.size, ascending, the peak of
    |S(k)| over the k in [1, m) with gcd(k, m) = d: the row at period m/d,
    since S_{m/d}(n) = S(d n). Within 1e-12 relative of the peak the
    smallest k wins, so rounding noise cannot reorder tied frequencies."""
    classes = _TABLES.read(spectrum.size, _gcd_classes)
    freqs, starts, lengths = classes["freqs"], classes["starts"], classes["lengths"]
    mags = np.abs(spectrum)[freqs]
    peaks = np.maximum.reduceat(mags, starts)
    # Each class holds its own peak, so its first hit lies inside it.
    hits = np.flatnonzero(mags >= np.repeat(peaks * (1 - 1e-12), lengths))
    return mags[hits[np.searchsorted(hits, starts)]]
