"""Seeded GUE sampling and statistical validation against the exact formulas.

Sample s of a run is drawn from the counter-based Philox stream whose
128-bit key is the pair (seed, s), so every sample depends only on
(seed, s) and results do not depend on how samples are scheduled.
Samples are built in batches that share one generator, whose state is
reset to counter 0 and key (seed, s) before sample s draws; streams and
matrices therefore do not depend on the batch size either.
Uniform variates are turned into normals by Box-Muller.  Within a sample
the N^2 normals are consumed in a fixed layout: the N diagonal entries
first, then for each a < b in row-major order one (real, imaginary) pair
for H_ab.

Entry variances follow the weight exp(-(N/2) Tr H^2): diagonal entries
have variance 1/N and off-diagonal entries have <|H_ab|^2> = 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# A batch holds at most _EIG_BATCH matrices and _BATCH_ENTRIES entries.
_EIG_BATCH = 512
_BATCH_ENTRIES = 2**17


@dataclass(frozen=True)
class SampleStats:
    """Estimator summary: mean, standard error, and number of samples."""

    mean: float
    std_error: float
    sample_count: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")
        if self.sample_count < 1:
            raise ValueError("need at least one sample")


def _gue_batch(N: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Samples start .. stop-1 of the stream started by `seed`, as one
    (stop - start, N, N) array.

    (seed, s) fills the full 2x64-bit Philox key, so distinct samples get
    disjoint streams no matter how many blocks each one consumes.
    """
    B, count = stop - start, N * N
    m = (count + 1) // 2
    u = np.empty((B, 2 * m))
    # One generator for the batch.  Before each sample its state is set to
    # that of a fresh Philox(key=(seed, s)): counter 0, empty buffer.
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [seed % 2**64, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, index in zip(u, range(start, stop)):
        key[1] = index % 2**64
        bitgen.state = state
        gen.random(out=row)
    # Box-Muller: row i of z holds the normals of sample start + i
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :m]))  # 1 - u lies in (0, 1]
    angle = 2.0 * np.pi * u[:, m:]
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(angle)
    z[:, 1::2] = r * np.sin(angle)
    h = np.empty((B, N, N), dtype=complex)
    h.reshape(B, count)[:, ::N + 1] = z[:, :N] / math.sqrt(N)
    vals = (z[:, N:count:2] + 1j * z[:, N + 1:count:2]) / math.sqrt(2 * N)
    first = 0
    for a in range(N - 1):
        upper = vals[:, first:first + N - 1 - a]
        h[:, a, a + 1:] = upper
        h[:, a + 1:, a] = upper.conj()
        first += N - 1 - a
    return h


def sample_gue(N: int, seed: int, index: int = 0) -> np.ndarray:
    """Draw sample `index` of the stream started by `seed` as an N x N array."""
    if N < 1:
        raise ValueError(f"sample_gue requires N >= 1, got {N}")
    return _gue_batch(N, seed, index, index + 1)[0]


@lru_cache(maxsize=1)  # every caller reads one (N, samples, seed) per run
def _eigenvalue_samples(N: int, samples: int, seed: int) -> np.ndarray:
    """(samples, N) eigenvalue array; LAPACK eigvalsh batched over samples."""
    if N < 1:
        raise ValueError(f"GUE sampling requires N >= 1, got {N}")
    batch = max(1, min(_EIG_BATCH, _BATCH_ENTRIES // (N * N)))
    out = np.empty((samples, N))
    for start in range(0, samples, batch):
        stop = min(start + batch, samples)
        out[start:stop] = np.linalg.eigvalsh(_gue_batch(N, seed, start, stop))
    out.setflags(write=False)
    return out


def _stats(values: np.ndarray) -> SampleStats:
    n = len(values)
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return SampleStats(mean, sd / math.sqrt(n), n)


def estimate_wilson(N: int, t: float, samples: int, seed: int) -> SampleStats:
    """Mean and standard error of (1/N) sum_k exp(it lambda_k) over samples.

    The real part is reported; the imaginary part must vanish within five
    standard errors (it does in distribution, since -H and H are equally
    likely).
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    eigs = _eigenvalue_samples(N, samples, seed % 2**64)
    values = np.exp(1j * t * eigs).mean(axis=1)
    im = _stats(values.imag)
    if im.std_error > 0 and abs(im.mean) > 5 * im.std_error:
        raise RuntimeError(
            f"imaginary part {im.mean} inconsistent with zero at {im.std_error} std error"
        )
    return _stats(values.real)


def estimate_density_histogram(N: int, samples: int, bins: int,
                               lam_range: tuple[float, float],
                               seed: int) -> list[SampleStats]:
    """Per-bin normalized eigenvalue histogram with per-bin standard errors.

    Bin j of the result estimates the average of rho_N over the j-th of
    `bins` equal subdivisions of lam_range; counts are normalized by
    samples * N * bin_width.
    """
    lo, hi = lam_range
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    if not lo < hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if samples < 2:
        raise ValueError("need at least two samples")
    eigs = _eigenvalue_samples(N, samples, seed % 2**64)
    width = (hi - lo) / bins
    x = (eigs - lo) / width
    inside = (x >= 0) & (x < bins)
    rows = np.broadcast_to(np.arange(samples)[:, None], eigs.shape)
    counts = np.zeros((samples, bins))
    np.add.at(counts, (rows[inside], x[inside].astype(int)), 1.0)
    per_sample = counts / (N * width)
    means = per_sample.mean(axis=0)
    sds = per_sample.std(axis=0, ddof=1)
    root = math.sqrt(samples)
    return [
        SampleStats(float(m), float(sd) / root, samples)
        for m, sd in zip(means, sds)
    ]


def zscore(est: SampleStats, reference: float) -> float:
    """(mean - reference) / std_error."""
    if est.std_error == 0:
        raise ValueError("z-score undefined for zero standard error")
    return (est.mean - reference) / est.std_error
