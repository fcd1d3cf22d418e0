"""Complete exponential sums of sets and multiplicity vectors.

The character convention is e_q(x) = exp(2*pi*i*x/q). A small direct
summation evaluator serves as the reference path; larger transforms go
through numpy's FFT (conjugated to match the sign convention), which is
validated against the direct path in the test suite.

The inequalities built on these spectra are checked in estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residues import ResidueSet, make_modulus
from .setops import MultiplicityVector, indicator

# Direct summation is used when the period and the support are both small
# enough that the twiddle work stays trivial; everything else goes to the
# FFT path. The two paths agree to ~1e-12 relative error.
DIRECT_Q_LIMIT = 4096
DIRECT_WORK_LIMIT = 1 << 16


@dataclass(frozen=True, eq=False)
class SpectrumVector:
    """Complex amplitudes S^(n) = sum_t counts[t] e_q(n t) for n in [0, q)."""

    period: int
    amplitudes: np.ndarray


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


def _fft_dft(dense: np.ndarray) -> np.ndarray:
    # numpy's fft uses exp(-2 pi i n t / q); the input is real, so the
    # conjugate is exactly the e_q(+nt) transform.
    return np.conj(np.fft.fft(dense.astype(np.float64)))


def dft_counts(v: MultiplicityVector, q: int) -> SpectrumVector:
    """Spectrum of the counts aggregated by residue mod q; q must divide m."""
    dense = v.dense_mod(q)
    nnz = int(np.count_nonzero(dense))
    if q <= DIRECT_Q_LIMIT and q * nnz <= DIRECT_WORK_LIMIT:
        amps = _direct_dft(dense)
    else:
        amps = _fft_dft(dense)
    amps.setflags(write=False)
    return SpectrumVector(period=q, amplitudes=amps)


def spectrum_of_set(a_set: ResidueSet, q: int | None = None) -> SpectrumVector:
    """Spectrum of a set's indicator, by default over the full modulus."""
    return dft_counts(indicator(a_set), a_set.modulus.m if q is None else q)


def _coprime_frequencies(q: int) -> np.ndarray:
    """The n in [1, q) coprime to q: a sieve clearing the multiples of each
    prime factor of q."""
    coprime = np.ones(q, dtype=bool)
    for prime, _ in make_modulus(q).factorization:
        coprime[::prime] = False
    return np.flatnonzero(coprime)


def max_nontrivial(spec: SpectrumVector) -> tuple[int, float]:
    """(frequency, magnitude) of the largest amplitude over n != 0 coprime to q.

    For a prime period that is every nonzero frequency. Ties go to the
    smallest frequency; magnitudes within 1e-12 relative of the peak
    count as tied so rounding noise cannot defeat that rule.
    """
    q = spec.period
    if q < 2:
        raise ValueError("period must be at least 2")
    freqs = _coprime_frequencies(q)
    mags = np.abs(spec.amplitudes[freqs])
    peak = float(mags.max())
    k = int(np.argmax(mags >= peak * (1 - 1e-12)))
    return int(freqs[k]), float(mags[k])
