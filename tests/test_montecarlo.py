import math
import os

import numpy as np
import pytest

import guekit.montecarlo as montecarlo
from guekit.montecarlo import (
    SampleStats,
    _gue_batch,
    _reduced_rows,
    estimate_density_histogram,
    estimate_wilson,
    sample_gue,
    zscore,
)
from guekit.observables import density_eval, wilson_eval


def reference_gue(N, seed, index):
    """One sample built the unbatched way: a fresh Philox keyed (seed, index),
    Box-Muller on that sample alone, and a triu_indices scatter."""
    count = N * N
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    m = (count + 1) // 2
    u = gen.random(2 * m)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:m]))
    angle = 2.0 * np.pi * u[m:]
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(angle)
    z[1::2] = r * np.sin(angle)
    z = z[:count]
    h = np.zeros((N, N), dtype=complex)
    h[np.diag_indices(N)] = z[:N] / math.sqrt(N)
    if N > 1:
        iu, ju = np.triu_indices(N, k=1)
        vals = (z[N::2] + 1j * z[N + 1::2]) / math.sqrt(2 * N)
        h[iu, ju] = vals
        h[ju, iu] = vals.conj()
    return h


SEEDS = [0, 1, 20240901, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1]


@pytest.mark.parametrize("N", [1, 2, 3, 8, 33, 64])
def test_sample_matches_unbatched_reference_bit_for_bit(N):
    indices = [0, 1, 2, 511, 512, 2**32 + 7, 2**63, 2**64 - 1]
    for seed in SEEDS:
        for index in indices:
            got = sample_gue(N, seed, index)
            want = reference_gue(N, seed, index)
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), (N, seed, index)


@pytest.mark.parametrize("N, samples", [(1, 600), (8, 1000), (33, 130), (64, 70)])
def test_eigenvalue_batches_match_unbatched_reference(N, samples):
    # sample counts that are not a multiple of the batch size, so the last
    # batch is a short one; one batch of all samples must give the same bits
    seed = 2**64 - 1 - N
    stacked = np.stack([reference_gue(N, seed, s) for s in range(samples)])
    whole = _gue_batch(N, seed, 0, samples)
    assert np.array_equal(whole.view(np.float64), stacked.view(np.float64))
    assert np.array_equal(_reduced_rows(N, samples, seed, lambda eigs: eigs),
                          np.linalg.eigvalsh(stacked))


@pytest.mark.parametrize("entries", [1, 3 * 64**2 + 5, 2**15, 2**40])
def test_any_batch_size_gives_the_unbatched_bits(monkeypatch, entries):
    # one matrix per batch; 3 per batch, so each half ends on a short batch;
    # the default; one batch per half
    N, samples, seed = 64, 41, 2**63 + 5
    monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", entries)
    stacked = np.stack([reference_gue(N, seed, s) for s in range(samples)])
    assert np.array_equal(_reduced_rows(N, samples, seed, lambda eigs: eigs),
                          np.linalg.eigvalsh(stacked))


@pytest.mark.parametrize("N, samples", [(8, 1500), (33, 100), (64, 40), (200, 5)])
def test_no_array_past_the_batch_rule(monkeypatch, N, samples):
    # each half is drawn, diagonalised and reduced one batch at a time
    limit = max(1, montecarlo._BATCH_ENTRIES // N**2)
    diagonalised, reduced = [], []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        diagonalised.append(len(a))
        return eigvalsh(a)

    def reduce(eigs):
        reduced.append(len(eigs))
        return eigs[:, :1]

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    rows = _reduced_rows(N, samples, 11, reduce)
    assert len(rows) == sum(reduced) == sum(diagonalised) == samples
    assert max(diagonalised) <= limit and max(reduced) <= limit
    assert len(reduced) >= 4  # at least two batches a half


@pytest.mark.parametrize("N", [1, 7, 64])
def test_wilson_rows_are_the_per_t_row_means(monkeypatch, N):
    # all t in one ufunc pass give the bits of one row mean per t
    ts, samples, seed = [0.0, -2.0, 0.5, 0.5, -0.75, 3.0], 101, 17
    draws = []
    draw = montecarlo._reduced_rows

    def recorded(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(montecarlo, "_reduced_rows", recorded)
    estimate_wilson(N, ts, samples, seed)
    eigs = draw(N, samples, seed, lambda eigs: eigs)
    old = np.stack([np.exp(1j * t * eigs).mean(axis=1) for t in ts], axis=1)
    assert draws[0].shape == old.shape
    assert draws[0].tobytes() == old.tobytes()


def test_sample_is_exactly_hermitian():
    for idx in range(5):
        h = sample_gue(6, seed=123, index=idx)
        assert h.shape == (6, 6)
        assert (h == h.conj().T).all()
        assert (np.diag(h).imag == 0).all()


def test_sample_rejects_empty_matrix():
    with pytest.raises(ValueError):
        sample_gue(0, seed=1)
    for N in (0, -1):
        with pytest.raises(ValueError):
            estimate_wilson(N, 1.0, samples=200, seed=1)
        with pytest.raises(ValueError):
            estimate_density_histogram(N, 200, 10, (-3.0, 3.0), seed=1)


def test_sampling_is_reproducible_and_index_dependent():
    a = sample_gue(4, seed=42, index=3)
    b = sample_gue(4, seed=42, index=3)
    c = sample_gue(4, seed=42, index=4)
    d = sample_gue(4, seed=43, index=3)
    assert (a == b).all()
    assert (a != c).any()
    assert (a != d).any()


def test_sample_variances_match_measure():
    # <H_aa^2> = 1/N and <|H_ab|^2> = 1/N under exp(-(N/2) Tr H^2)
    N, count = 4, 4000
    diag = np.empty((count, N))
    off = np.empty(count)
    for s in range(count):
        h = sample_gue(N, seed=7, index=s)
        diag[s] = np.diag(h).real
        off[s] = abs(h[0, 1]) ** 2
    se_diag = diag.var() / math.sqrt(count * N)
    assert abs(diag.var() - 1 / N) < 10 * se_diag
    assert abs(off.mean() - 1 / N) < 5 * off.std() / math.sqrt(count)


def test_trace_moment_estimates():
    # Tr H^2 = sum lambda^2 and Tr H = sum lambda, so each half of the
    # eigenvalue draw gives the estimators' rows directly at the full 1e5
    # sample count.
    N, count = 4, 100000

    def traces(eigs):  # Tr H^2 / N and Tr H of each sample
        return np.stack([(eigs**2).sum(axis=1) / N, eigs.sum(axis=1)], axis=1)

    tr2, tr1 = _reduced_rows(N, count, 99, traces).T
    se2 = tr2.std(ddof=1) / math.sqrt(count)
    se1 = tr1.std(ddof=1) / math.sqrt(count)
    assert abs(tr2.mean() - 1.0) <= 5 * se2  # m_2 = 1
    assert abs(tr1.mean()) <= 5 * se1


def test_estimate_wilson_at_zero_time():
    st = estimate_wilson(8, 0.0, samples=200, seed=1)
    assert st.mean == 1.0
    assert st.std_error == 0.0
    assert st.sample_count == 200


def test_estimate_wilson_against_scalar_gaussian():
    st = estimate_wilson(1, 2.0, samples=20000, seed=2024)
    assert abs(st.mean - math.exp(-2.0)) <= 4 * st.std_error


def test_estimate_wilson_against_exact_formula():
    st = estimate_wilson(8, 1.5, samples=10000, seed=31)
    assert abs(st.mean - wilson_eval(8, 1.5).real) <= 4 * st.std_error


def test_estimate_wilson_reproducible():
    a = estimate_wilson(4, 0.8, samples=500, seed=77)
    b = estimate_wilson(4, 0.8, samples=500, seed=77)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)


TS = [0.0, -1.5, 0.5, 2.0, 4.0]


def test_estimate_wilson_over_many_t_is_the_per_t_calls():
    many = estimate_wilson(5, TS, samples=301, seed=13)
    assert isinstance(many, list)
    assert many == [estimate_wilson(5, t, samples=301, seed=13) for t in TS]
    assert many[0] == SampleStats(1.0, 0.0, 301)
    assert estimate_wilson(5, tuple(TS[1:2]), samples=301, seed=13) == [many[1]]
    assert isinstance(estimate_wilson(5, np.float64(0.5), samples=301, seed=13), SampleStats)


def _record_draws(monkeypatch):
    drawn = []
    draw = montecarlo.eigenvalue_range

    def recorded(N, seed, start, stop):
        drawn.append((start, stop))
        return draw(N, seed, start, stop)

    monkeypatch.setattr(montecarlo, "eigenvalue_range", recorded)
    return drawn


def test_estimate_wilson_refuses_an_empty_t_sequence_before_drawing(monkeypatch):
    drawn = _record_draws(monkeypatch)
    with pytest.raises(ValueError, match="need at least one t"):
        estimate_wilson(4, [], samples=200, seed=1)
    assert drawn == []


@pytest.mark.parametrize("ts", [1.0, [1.0], TS, [0.5 * k for k in range(1, 41)]])
def test_estimate_wilson_draws_each_half_once_per_call(monkeypatch, ts):
    # numpy has loaded here, so both halves are drawn in this process, in turn
    drawn = _record_draws(monkeypatch)
    estimate_wilson(3, ts, samples=101, seed=5)
    assert drawn == [(0, 50), (50, 101)]
    estimate_density_histogram(3, 101, 12, (-3.0, 3.0), seed=5)
    assert drawn == [(0, 50), (50, 101)] * 2


def _force_split(monkeypatch):
    """Make worker.run_beside fork although numpy has loaded here: both
    processes pinned to one CPU of this process's mask."""
    import guekit.worker as worker

    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(worker, "_split_cpus", lambda: [cpu, cpu])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="runs split only where CPU affinity can be set")
def test_split_and_one_process_estimates_agree(monkeypatch):
    def estimates():
        return (estimate_wilson(6, TS, samples=203, seed=2**64 - 3),
                estimate_density_histogram(6, 203, 24, (-2.5, 3.5), seed=2**64 - 3))

    mask = os.sched_getaffinity(0)
    one_process = estimates()
    drawn = _record_draws(monkeypatch)
    _force_split(monkeypatch)
    assert estimates() == one_process
    assert drawn == [(0, 101)] * 2  # the second half was drawn in the forked child
    with pytest.raises(ChildProcessError):  # every child has been waited for
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


def test_histogram_counts_each_row_of_its_half():
    # the rows of each half, counted apart, are the counts of the whole draw
    N, samples, bins, (lo, hi), seed = 5, 157, 16, (-2.0, 2.0), 3
    width = (hi - lo) / bins
    eigs = np.linalg.eigvalsh(_gue_batch(N, seed, 0, samples))
    want = np.zeros((samples, bins))
    for s, row in enumerate(eigs):
        for lam in row:
            j = math.floor((lam - lo) / width)
            if 0 <= j < bins:
                want[s, j] += 1
    per_sample = want / (N * width)
    stats = estimate_density_histogram(N, samples, bins, (lo, hi), seed)
    assert [st.mean for st in stats] == list(per_sample.mean(axis=0))
    assert [st.std_error for st in stats] == list(per_sample.std(axis=0, ddof=1)
                                                  / math.sqrt(samples))


def test_estimate_wilson_validates_sample_count():
    with pytest.raises(ValueError):
        estimate_wilson(4, 1.0, samples=50, seed=1)


def test_histogram_matches_gaussian_density():
    stats = estimate_density_histogram(1, samples=10000, bins=20,
                                       lam_range=(-3.0, 3.0), seed=5)
    centers = [-3.0 + (j + 0.5) * 0.3 for j in range(20)]
    bad = 0
    for st, x in zip(stats, centers):
        ref = density_eval(1, x)
        if st.std_error > 0 and abs(st.mean - ref) > 4 * st.std_error:
            bad += 1
    assert bad <= 1


def test_histogram_total_mass():
    stats = estimate_density_histogram(2, samples=8000, bins=40,
                                       lam_range=(-6.0, 6.0), seed=9)
    width = 12.0 / 40
    mass = sum(st.mean for st in stats) * width
    sigma = math.sqrt(sum((st.std_error * width) ** 2 for st in stats))
    assert abs(mass - 1.0) <= 3 * sigma


def test_histogram_validation():
    with pytest.raises(ValueError):
        estimate_density_histogram(2, 1000, 5, (-3, 3), 0)
    with pytest.raises(ValueError):
        estimate_density_histogram(2, 1000, 12, (3, -3), 0)


def test_zscore():
    assert zscore(SampleStats(1.0, 0.1, 10), 1.0) == 0.0
    assert zscore(SampleStats(1.2, 0.1, 10), 1.0) == pytest.approx(2.0)
    assert zscore(SampleStats(0.9, 0.05, 10), 1.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        zscore(SampleStats(1.0, 0.0, 10), 1.0)


def test_sample_stats_validation():
    with pytest.raises(ValueError):
        SampleStats(0.0, -1.0, 5)
    with pytest.raises(ValueError):
        SampleStats(0.0, 1.0, 0)
