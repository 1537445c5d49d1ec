"""Seeded GUE sampling and statistical validation against the exact formulas.

Sample s of a run is drawn from the counter-based Philox stream whose
128-bit key is the pair (seed, s), so every sample depends only on
(seed, s) and results do not depend on how samples are scheduled, nor on
which process draws them.
Samples are built in batches that share one generator, whose state is
reset to counter 0 and key (seed, s) before sample s draws; streams and
matrices therefore do not depend on the batch size either.
Uniform variates are turned into normals by Box-Muller.  Within a sample
the N^2 normals are consumed in a fixed layout: the N diagonal entries
first, then for each a < b in row-major order one (real, imaginary) pair
for H_ab.

Entry variances follow the weight exp(-(N/2) Tr H^2): diagonal entries
have variance 1/N and off-diagonal entries have <|H_ab|^2> = 1/N.

The estimators draw their samples in two index ranges, the tasks of
worker.run_beside with the second range last, and each range reduces its
own rows (a Wilson loop row mean per t, a histogram row of counts) before
it is handed back.  Each half is drawn, diagonalised and reduced batch
by batch, so no eigenvalue array outlives the batch that drew it.
run_beside splits only before numpy loads, so this module imports numpy
only inside the functions that build or reduce arrays, and the
estimators only after run_beside returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .verify import check_seed
from .worker import run_beside

# A batch holds at most _BATCH_ENTRIES matrix entries (at least one matrix),
# so that its matrices, eigenvalues and reduced rows stay small.
_BATCH_ENTRIES = 2**15


@dataclass(frozen=True)
class SampleStats:
    """Estimator summary: mean and standard error."""

    mean: float
    std_error: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


def _gue_batch(N: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Samples start .. stop-1 of the stream started by `seed`, as the lower
    triangles of one (stop - start, N, N) array, the triangles that
    eigvalsh reads; the strict upper triangles are zero.

    (seed, s) fills the full 2x64-bit Philox key, so distinct samples get
    disjoint streams no matter how many blocks each one consumes.  The
    array is the transpose of a buffer whose row a holds conj(H[a, a+1:]),
    so each off-diagonal value is written once, as a contiguous row.
    """
    import numpy as np

    B, count = stop - start, N * N
    m = (count + 1) // 2
    u = np.empty((B, 2 * m))
    # One generator for the batch.  Before each sample its state is set to
    # that of a fresh Philox(key=(seed, s)): counter 0, empty buffer.
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [seed, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, index in zip(u, range(start, stop)):
        key[1] = index
        bitgen.state = state
        gen.random(out=row)
    # Box-Muller: row i of z holds the normals of sample start + i
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :m]))  # 1 - u lies in (0, 1]
    angle = 2.0 * np.pi * u[:, m:]
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(angle)
    z[:, 1::2] = r * np.sin(angle)
    h = np.zeros((B, N, N), dtype=complex)
    h.reshape(B, count)[:, ::N + 1] = z[:, :N] / math.sqrt(N)
    vals = (z[:, N:count:2] + 1j * z[:, N + 1:count:2]) / math.sqrt(2 * N)
    first = 0
    for a in range(N - 1):
        np.conjugate(vals[:, first:first + N - 1 - a], out=h[:, a, a + 1:])
        first += N - 1 - a
    return h.transpose(0, 2, 1)


def eigenvalue_range(N: int, seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, N) eigenvalues of samples start .. stop-1 of the stream
    started by `seed`, from one LAPACK eigvalsh over the range, which reads
    the lower triangles that _gue_batch fills (numpy's default UPLO='L').

    No sample's bits depend on its batch, so the rows of any split of a
    range, put together in index order, are those of the whole range.
    """
    import numpy as np

    return np.linalg.eigvalsh(_gue_batch(N, seed, start, stop))


def _reduced_rows(N: int, samples: int, seed: int, reduce) -> np.ndarray:
    """reduce(eigs) for the (rows, N) eigenvalues of each batch of samples
    0 .. samples-1, the results put together along their first axis, in
    index order.  The halves [0, samples//2) and [samples//2, samples), the
    last, are the tasks of worker.run_beside, and each draws, diagonalises
    and reduces one batch of _BATCH_ENTRIES // N^2 samples (at least one)
    before the next.  A sample's bits depend only on (seed, index), and
    `reduce` reduces each row on its own, so the result is the one-process,
    one-batch result; no eigenvalue array outlives its batch."""
    if N < 1:
        raise ValueError(f"GUE sampling requires N >= 1, got {N}")
    check_seed(seed)
    batch = max(1, _BATCH_ENTRIES // (N * N))
    halves = {f"the eigenvalues of samples {start} .. {stop - 1}":
              lambda start=start, stop=stop: [
                  reduce(eigenvalue_range(N, seed, lo, min(lo + batch, stop)))
                  for lo in range(start, stop, batch)]
              for start, stop in ((0, samples // 2), (samples // 2, samples))}
    parts = run_beside(halves)
    import numpy as np  # only now: run_beside splits only before numpy loads

    return np.concatenate([rows for part in parts for rows in part])


def _stats(values: np.ndarray) -> SampleStats:
    n = len(values)
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    return SampleStats(mean, sd / math.sqrt(n))


def estimate_wilson(N: int, ts: Sequence[float], samples: int,
                   seed: int) -> list[SampleStats]:
    """Mean and standard error of (1/N) sum_k exp(it lambda_k) over samples.

    One SampleStats for each t of `ts`, in its order, from one draw: each
    half of the samples reduces its rows to their means at every t.  The
    real part is reported; the imaginary part must vanish within five
    standard errors (it does in distribution, since -H and H are equally
    likely).  A t whose product with a drawn eigenvalue is past float
    range gets a NaN mean.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one t")

    def row_means(eigs):
        import numpy as np

        # (t, sample, k) with k, the reduced axis, contiguous: the bits of a
        # mean over each row at each t in turn; a t lambda past float range
        # makes its row's mean NaN, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(np.multiply.outer(1j * np.array(ts), eigs)).mean(axis=2).T

    stats = []
    for values in _reduced_rows(N, samples, seed, row_means).T:
        im = _stats(values.imag)
        if im.std_error > 0 and abs(im.mean) > 5 * im.std_error:
            raise RuntimeError(
                f"imaginary part {im.mean} inconsistent with zero at {im.std_error} std error"
            )
        stats.append(_stats(values.real))
    return stats


def estimate_density_histogram(N: int, samples: int, bins: int,
                               lam_range: tuple[float, float],
                               seed: int) -> list[SampleStats]:
    """Per-bin normalized eigenvalue histogram with per-bin standard errors.

    Bin j of the result estimates the average of rho_N over the j-th of
    `bins` equal subdivisions of lam_range; counts are normalized by
    samples * N * bin_width.  Each half of the samples counts its own
    rows, a (rows, bins) array.
    """
    lo, hi = lam_range
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    if not lo < hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"range ends and their difference must be finite, got {lo} and {hi}")
    if samples < 2:
        raise ValueError("need at least two samples")
    width = (hi - lo) / bins

    def row_counts(eigs):
        import numpy as np

        x = (eigs - lo) / width
        inside = (x >= 0) & (x < bins)
        cells = np.nonzero(inside)[0] * bins + x[inside].astype(int)
        return np.bincount(cells, minlength=len(eigs) * bins).reshape(len(eigs), bins)

    per_sample = _reduced_rows(N, samples, seed, row_counts) / (N * width)
    means = per_sample.mean(axis=0)
    sds = per_sample.std(axis=0, ddof=1)
    root = math.sqrt(samples)
    return [
        SampleStats(float(m), float(sd) / root)
        for m, sd in zip(means, sds)
    ]


def zscore(est: SampleStats, reference: float) -> float:
    """(mean - reference) / std_error."""
    if est.std_error == 0:
        raise ValueError("z-score undefined for zero standard error")
    return (est.mean - reference) / est.std_error
