"""Net sweep, certification algebra, and the bounds CSV format."""

import dataclasses
import itertools
import json
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from nerfcert import (
    FrameMatrix,
    GeneratorSpec,
    NetConfig,
    StepPoint,
    bounds,
    certify,
    condition_number_bound,
    epsnet,
    exact_bounds_all_K,
    min_spanning_K,
    orbit_signed_permutations,
    pruned_cardinality,
    sorted_squared_correlations,
    sweep_all_K,
)
from nerfcert.bounds import (
    chunk_rows,
    read_bounds_csv,
    require_sandwich,
    resolve_threads,
    write_bounds_csv,
)
from nerfcert.errors import InvalidInputError, InvariantViolationError


def net_points(config):
    """Every net point in rank order, rebuilt from the walker's rows."""
    rows = np.concatenate(list(epsnet._level_arrays(config))).tolist()
    return [StepPoint.from_ascending_levels(row, config) for row in rows]


def all_prefix_sums(frame, config):
    """Every net point's sorted prefix sums, one row per rank, computed
    directly in one product over all rows, so no row is multiplied alone."""
    rows = np.vstack([rows for rows, _ in bounds._net_psi_chunks(config, 7)])
    c2 = (rows @ frame.matrix) ** 2
    return np.cumsum(np.sort(c2, axis=1), axis=1)


def first_ranks(prefix):
    """First attaining ranks of alpha_eps and, by duality, of beta_eps."""
    return (
        prefix.argmin(axis=0),
        np.append(prefix[:, -2::-1].argmin(axis=0), 0),
    )


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def swept_counts(err):
    """Point counts printed by the progress lines, in order."""
    return [int(m) for m in re.findall(r"swept (\d+) net points", err)]


@pytest.fixture(scope="module")
def frame_4_12():
    return orbit_signed_permutations(GeneratorSpec(4, 2))


@pytest.fixture(scope="module")
def table_4_12(frame_4_12):
    return sweep_all_K(frame_4_12, NetConfig.create(4, 0.5))


class TestSortedCorrelations:
    def test_standard_basis_vector(self, frame_4_12):
        # e_1 hits exactly the six columns supported on coordinate 1,
        # each with squared correlation 1/2.
        vals = sorted_squared_correlations(frame_4_12, np.eye(4)[0])
        assert np.allclose(vals[:6], 0.0, atol=1e-15)
        assert np.allclose(vals[6:], 0.5)

    def test_sums_to_tight_constant(self, frame_4_12):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            vals = sorted_squared_correlations(frame_4_12, x)
            assert math.isclose(vals.sum(), 3.0, rel_tol=1e-12)

    def test_shape_mismatch(self, frame_4_12):
        with pytest.raises(InvalidInputError):
            sorted_squared_correlations(frame_4_12, np.ones(3))


class TestSweep:
    def test_bounds_are_monotone_in_K(self, table_4_12):
        assert np.all(np.diff(table_4_12.alpha_eps) >= -1e-15)
        assert np.all(np.diff(table_4_12.beta_eps) >= -1e-15)

    def test_full_K_equals_tight_constant(self, table_4_12):
        # Summing all N squared correlations of a unit vector against a
        # tight frame always gives N/M, for every net point alike.
        assert math.isclose(table_4_12.alpha_eps[-1], 3.0, rel_tol=1e-12)
        assert math.isclose(table_4_12.beta_eps[-1], 3.0, rel_tol=1e-12)

    def test_alpha_below_beta(self, table_4_12):
        assert np.all(table_4_12.alpha_eps <= table_4_12.beta_eps + 1e-15)

    def test_thread_count_does_not_change_results(self, frame_4_12):
        config = NetConfig.create(4, 0.5)
        one = sweep_all_K(frame_4_12, config, threads=1)
        many = sweep_all_K(frame_4_12, config, threads=8)
        assert np.array_equal(one.alpha_eps, many.alpha_eps)
        assert np.array_equal(one.beta_eps, many.beta_eps)
        assert np.array_equal(one.argmin_r, many.argmin_r)
        assert np.array_equal(one.argmax_r, many.argmax_r)

    def test_progress_reported_with_threads(self, frame_4_12, capsys):
        config = NetConfig.create(4, 0.25)
        sweep_all_K(frame_4_12, config, threads=2, progress=True)
        err = capsys.readouterr().err
        assert "swept 1106 net points" in err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_lines_independent_of_chunk_rows(
        self, frame_4_12, monkeypatch, capsys, threads
    ):
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 100)
        monkeypatch.setattr(bounds, "_PROGRESS_EVERY", 250)
        table = sweep_all_K(
            frame_4_12, NetConfig.create(4, 0.25), threads=threads,
            progress=True,
        )
        # One line per chunk that passes a multiple of 250, then the total.
        assert swept_counts(capsys.readouterr().err) == [
            300, 500, 800, 1000, 1106,
        ]
        assert table.net_points_used == 1106

    def test_progress_total_printed_once(self, frame_4_12, monkeypatch, capsys):
        # 1106 = 2 * 553 points in chunks of 7: the last chunk lands on a
        # multiple, and the total is still printed once.
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        monkeypatch.setattr(bounds, "_PROGRESS_EVERY", 553)
        sweep_all_K(frame_4_12, NetConfig.create(4, 0.25), progress=True)
        assert swept_counts(capsys.readouterr().err) == [553, 1106]

    @pytest.mark.parametrize("batch", [2, 3, 7])
    def test_many_chunks_match_one_pass(self, frame_4_12, monkeypatch, batch):
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: batch)
        config = NetConfig.create(4, 0.25)
        one = sweep_all_K(frame_4_12, config, threads=1)
        many = sweep_all_K(frame_4_12, config, threads=3)
        for name in ("alpha_eps", "beta_eps", "argmin_r", "argmax_r"):
            assert np.array_equal(getattr(one, name), getattr(many, name))
        for table in (one, many):
            assert not np.any(table.argmin_r == bounds._NO_RANK)
        # The same per-point sums for all 1106 points in one array: the
        # chunked sweep must give their minima and first attaining ranks.
        prefix = all_prefix_sums(frame_4_12, config)
        assert np.array_equal(one.alpha_eps, prefix.min(axis=0))
        # Column K-1: the K largest as N/M minus the N-K smallest; the
        # N largest are N/M exactly, first attained at rank 0.
        largest = np.hstack([3.0 - prefix[:, -2::-1], np.full((1106, 1), 3.0)])
        assert np.array_equal(one.beta_eps, largest.max(axis=0))
        argmin, argmax = first_ranks(prefix)
        assert np.array_equal(one.argmin_r, argmin)
        assert np.array_equal(one.argmax_r, argmax)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_one_column_gathers_find_first_ranks(
        self, frame_4_12, monkeypatch, threads
    ):
        # A one-byte budget still gathers one column per block, so each
        # witness search walks the improved columns one at a time; a
        # one-byte sort budget sorts in 2-row blocks.
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        monkeypatch.setattr(bounds, "_GATHER_BYTES", 1)
        monkeypatch.setattr(bounds, "_SORT_BYTES", 1)
        config = NetConfig.create(4, 0.25)
        table = sweep_all_K(frame_4_12, config, threads=threads)
        argmin, argmax = first_ranks(all_prefix_sums(frame_4_12, config))
        assert np.array_equal(table.argmin_r, argmin)
        assert np.array_equal(table.argmax_r, argmax)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_two_row_sort_blocks_match_direct_sums(self, monkeypatch, threads):
        # 5-row batches, padded to 6, sorted in 2-row blocks: the last
        # block is a row and its copy, and the copy's lane never wins.
        frame = orbit_signed_permutations(GeneratorSpec(6, 3))
        config = NetConfig.create(6, 0.25)
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 5)
        monkeypatch.setattr(bounds, "_SORT_BYTES", 2 * 8 * frame.N)
        table = sweep_all_K(frame, config, threads=threads)
        prefix = all_prefix_sums(frame, config)
        nm = frame.N / frame.M
        largest = np.hstack([nm - prefix[:, -2::-1], np.full((len(prefix), 1), nm)])
        argmin, argmax = first_ranks(prefix)
        assert np.array_equal(table.alpha_eps, prefix.min(axis=0))
        assert np.array_equal(table.beta_eps, largest.max(axis=0))
        assert np.array_equal(table.argmin_r, argmin)
        assert np.array_equal(table.argmax_r, argmax)

    @pytest.mark.parametrize(
        "M, k, batches, sort_rows, slices, threads",
        [
            (4, 2, (1, 2, 3, 7), (2, None), (16, 2**13), (1, 3)),
            (5, 3, (1, 3), (None,), (2**13,), (1, 3)),
        ],
        ids=["4x12", "5x40"],
    )
    def test_batching_does_not_change_bits(
        self, monkeypatch, M, k, batches, sort_rows, slices, threads
    ):
        # Batch size, sort-block size (2 rows or the default), walker
        # slices and thread count cut the net differently; every cut must
        # give the default sweep's four arrays bit for bit.  Odd batch
        # sizes leave a lone last row in batches and sort blocks.
        frame = orbit_signed_permutations(GeneratorSpec(M, k))
        config = NetConfig.create(M, 0.25)
        default = sweep_all_K(frame, config)
        missed = []
        for combo in itertools.product(batches, sort_rows, slices, threads):
            rows, block, nodes, workers = combo
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "chunk_rows", lambda n: rows)
                if block:
                    patch.setattr(bounds, "_SORT_BYTES", block * 8 * frame.N)
                patch.setattr(epsnet, "_SLICE_NODES", nodes)
                table = sweep_all_K(frame, config, threads=workers)
            if not all(
                np.array_equal(getattr(table, name), getattr(default, name))
                for name in ("alpha_eps", "beta_eps", "argmin_r", "argmax_r")
            ):
                missed.append(combo)
        assert missed == []

    @pytest.mark.parametrize("M, k", [(4, 2), (5, 3), (6, 3)],
                             ids=["4x12", "5x40", "6x80"])
    def test_witness_alone_reproduces_alpha_bitwise(self, M, k):
        # Each K's witness, rebuilt from its level tuple and scored on its
        # own in walker order, has alpha_eps[K] as its K-th prefix sum.
        frame = orbit_signed_permutations(GeneratorSpec(M, k))
        config = NetConfig.create(M, 0.25)
        table = sweep_all_K(frame, config)
        levels = np.concatenate(list(epsnet._level_arrays(config)))
        missed = []
        for K, r in enumerate(table.argmin_r, start=1):
            point = StepPoint.from_ascending_levels(levels[r].tolist(), config)
            prefix = np.cumsum(sorted_squared_correlations(frame, point.psi[::-1]))
            if prefix[K - 1] != table.alpha_eps[K - 1]:
                missed.append(K)
        assert missed == []

    def test_lane_scan_is_each_rows_scan(self):
        # Two sorted rows share one complex128 per column, lane 1 of the
        # last pair padded with +inf for an odd count.  A complex addition
        # is two independent float additions, so each lane's scan is
        # bitwise its own row's.
        rng = np.random.default_rng(5)
        rows = np.sort(rng.random((7, 560)) * 10.0 ** rng.integers(-8, 3, (7, 560)))
        lanes = np.full((4, 560, 2), np.inf)
        lanes[:, :, 0] = rows[0::2]
        lanes[:3, :, 1] = rows[1::2]
        scan = lanes.view(np.complex128)[..., 0]
        np.cumsum(scan, axis=1, out=scan)
        ranked = lanes.transpose(0, 2, 1).reshape(8, 560)
        assert np.array_equal(ranked[:7], np.cumsum(rows, axis=1))
        assert np.all(ranked[7] == np.inf)

    def test_two_workers_hold_one_buffer_each(self):
        # Above the walker's share, measured as a one-thread sweep of a
        # one-column frame, two workers may add their two lane buffers
        # (2048 pairs x 80 at N=80), their two sort scratches (at most
        # _SORT_BYTES each) and 2 MiB for witness gathers, batches in
        # flight and merges.  Batch-sized copies per batch exceed this.
        frame = orbit_signed_permutations(GeneratorSpec(6, 3))
        config = NetConfig.create(6, 0.25)
        unit = FrameMatrix(np.eye(6)[:, :1])
        walker = traced_peak(lambda: sweep_all_K(unit, config))
        swept = traced_peak(lambda: sweep_all_K(frame, config, threads=2))
        assert frame.N == 80
        lanes = chunk_rows(80) * 80 * 8
        scratches = 2 * bounds._SORT_BYTES
        assert swept - walker <= 2 * lanes + scratches + 2 * 2**20

    @pytest.mark.parametrize("M, N", [(8, 560), (10, 4032)])
    def test_witness_gathers_stay_under_the_mmap_threshold(self, M, N):
        # One batch in which every column improves, so every column is
        # gathered for its witness.  Above the worker's lanes and sort
        # scratch, the batch may allocate less than 256 KiB: gathers of
        # _GATHER_BYTES, their transposed copies and argmin's own copy,
        # each under glibc's 128 KiB mmap threshold.  With 256 KiB gathers
        # the peak was 515 KiB at N=560 and 579 KiB at N=4032.
        rng = np.random.default_rng(N)
        phi = rng.standard_normal((M, N))
        rows = chunk_rows(N)
        psi_rows = rng.standard_normal((rows, M))
        alpha = np.full(N, np.inf)
        argmin = np.full(N, bounds._NO_RANK, dtype=np.int64)
        buf = (
            np.empty((rows // 2, N, 2)),
            np.empty((bounds._sort_rows(N), N)),
        )
        peak = traced_peak(
            lambda: bounds._chunk_accumulate(phi, psi_rows, 0, alpha, argmin, buf)
        )
        assert np.all(argmin < rows) and np.all(alpha < np.inf)
        assert peak < 256 * 2**10

    def test_walk_stays_under_three_tenths_of_a_mib(self):
        # The walker's frontier is cut into slices of _SLICE_NODES
        # children, each carrying the counts its frontier computed; the
        # walk of these 503,486 points took 1.83 MiB with 8k-node slices
        # and 0.53 MiB with 2k-node slices that recounted their children.
        config = NetConfig.create(8, 0.25)
        assert traced_peak(lambda: pruned_cardinality(config)) < 0.3 * 2**20

    def test_rank_offsets_across_walker_blocks(self, frame_4_12, monkeypatch):
        # The 4x12 nets here fit in one walker block; with 16-node slices
        # the 1106 points arrive in 92 blocks, so a batch's first rank must
        # count the points of the blocks before it.
        config = NetConfig.create(4, 0.25)
        default = sweep_all_K(frame_4_12, config)
        monkeypatch.setattr(epsnet, "_SLICE_NODES", 16)
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        assert len(list(epsnet._level_arrays(config))) == 92
        # More workers than cores, switching threads often: workers take
        # batches from the walker while others fold theirs in.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tables = [sweep_all_K(frame_4_12, config, threads=t) for t in (1, 3)]
        finally:
            sys.setswitchinterval(interval)
        for table in tables:
            assert table.net_points_used == 1106
            for name in ("alpha_eps", "beta_eps", "argmin_r", "argmax_r"):
                assert np.array_equal(
                    getattr(table, name), getattr(default, name)
                )

    def test_batches_are_cut_from_the_walkers_stream(
        self, frame_4_12, monkeypatch
    ):
        # The 1106 points arrive in 92 walker blocks; 10-row batches are
        # cut from their stream across block boundaries, so every batch is
        # full but the sweep's last, and each holds the ranks it says.
        config = NetConfig.create(4, 0.25)
        default = sweep_all_K(frame_4_12, config)
        monkeypatch.setattr(epsnet, "_SLICE_NODES", 16)
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 10)
        blocks = list(epsnet._level_arrays(config))
        assert len(blocks) == 92
        levels = np.concatenate(blocks)
        kernel, seen = bounds._chunk_accumulate, []

        def record(phi, psi_rows, offset, alpha, argmin, buf):
            seen.append((len(psi_rows), offset))
            assert np.array_equal(
                psi_rows,
                epsnet._psi_from_levels(levels[offset : offset + len(psi_rows)], config),
            )
            kernel(phi, psi_rows, offset, alpha, argmin, buf)

        monkeypatch.setattr(bounds, "_chunk_accumulate", record)
        table = sweep_all_K(frame_4_12, config)
        assert seen == [(10, r) for r in range(0, 1100, 10)] + [(6, 1100)]
        for name in ("alpha_eps", "beta_eps", "argmin_r", "argmax_r"):
            assert np.array_equal(getattr(table, name), getattr(default, name))

    def test_frame_layout_does_not_change_results(
        self, frame_4_12, monkeypatch
    ):
        # With 16-node slices and 7-row batches, a C- and a Fortran-ordered
        # matmul round apart enough to move the K=1 witness (rank 1105 or
        # 130); a frame stored in one layout gives one table.
        monkeypatch.setattr(epsnet, "_SLICE_NODES", 16)
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        config = NetConfig.create(4, 0.25)
        phi = frame_4_12.matrix
        c_order = sweep_all_K(FrameMatrix(phi), config)
        f_order = sweep_all_K(FrameMatrix(np.asfortranarray(phi)), config)
        for name in ("alpha_eps", "beta_eps", "argmin_r", "argmax_r"):
            assert np.array_equal(getattr(c_order, name), getattr(f_order, name))

    def test_out_of_order_batches_keep_first_ranks(
        self, frame_4_12, monkeypatch
    ):
        # Batches of even index sleep, so three workers take the 158
        # batches far out of rank order.  Net rows rounded to halves score
        # alike, so the workers' minima tie at columns first attained in
        # batches 0, 13, 18, 72 and 73, and the merge must pick the first.
        kernel, chunks = bounds._chunk_accumulate, bounds._net_psi_chunks

        def slow_even(phi, psi_rows, offset, alpha, argmin, buf):
            if offset // 7 % 2 == 0:
                time.sleep(1e-3)
            kernel(phi, psi_rows, offset, alpha, argmin, buf)

        def rounded(config, rows):
            for psi_rows, offset in chunks(config, rows):
                yield np.round(2 * psi_rows) / 2, offset

        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        monkeypatch.setattr(bounds, "_chunk_accumulate", slow_even)
        monkeypatch.setattr(bounds, "_net_psi_chunks", rounded)
        config = NetConfig.create(4, 0.25)
        table = sweep_all_K(frame_4_12, config, threads=3)
        prefix = all_prefix_sums(frame_4_12, config)
        largest = np.hstack([3.0 - prefix[:, -2::-1], np.full((1106, 1), 3.0)])
        argmin, argmax = first_ranks(prefix)
        assert np.array_equal(table.alpha_eps, prefix.min(axis=0))
        assert np.array_equal(table.beta_eps, largest.max(axis=0))
        assert np.array_equal(table.argmin_r, argmin)
        assert np.array_equal(table.argmax_r, argmax)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_failing_batch_stops_every_worker(
        self, frame_4_12, monkeypatch, threads
    ):
        # The third batch raises; each other worker then finishes only the
        # batch it holds, and the sweep re-raises that exception.
        kernel = bounds._chunk_accumulate
        calls = itertools.count(1)
        boom = RuntimeError("kernel failed")

        def fail_third(*args):
            if next(calls) == 3:
                raise boom
            time.sleep(1e-3)
            kernel(*args)

        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        monkeypatch.setattr(bounds, "_chunk_accumulate", fail_third)
        with pytest.raises(RuntimeError) as err:
            sweep_all_K(frame_4_12, NetConfig.create(4, 0.25), threads=threads)
        assert err.value is boom
        assert next(calls) - 1 <= 3 + (threads - 1)

    def test_step_points_are_the_swept_rows(self):
        # One psi construction: a rebuilt point is bitwise the row scored.
        config = NetConfig.create(4, 0.25)
        swept = np.vstack([
            rows for rows, _ in bounds._net_psi_chunks(config, chunk_rows(12))
        ])
        rebuilt = np.vstack([p.psi[::-1] for p in net_points(config)])
        assert np.array_equal(swept, rebuilt)

    def test_missing_witness_rejected(self, frame_4_12, monkeypatch):
        kernel = bounds._chunk_accumulate

        def lose_witnesses(phi, psi_rows, offset, alpha, argmin, buf):
            kernel(phi, psi_rows, offset, alpha, argmin, buf)
            argmin[:] = bounds._NO_RANK

        monkeypatch.setattr(bounds, "_chunk_accumulate", lose_witnesses)
        with pytest.raises(InvariantViolationError):
            sweep_all_K(frame_4_12, NetConfig.create(4, 0.5))

    @pytest.mark.parametrize(
        "change, message",
        [({"M": 5}, "net is for M=5, frame has M=4"),
         ({"epsilon_sq": 0.0}, r"got 0\.0"),
         ({"epsilon_sq": 1.0}, r"got 1\.0"),
         ({"epsilon_sq": -0.5}, r"got -0\.5")],
    )
    def test_config_refused_before_the_walk(
        self, frame_4_12, monkeypatch, change, message
    ):
        # A net of another M would fail in a worker's matmul, so the sweep
        # refuses it before the net is walked.  An epsilon_sq outside
        # (0, 1) never reaches the sweep: no NetConfig holds one.
        def walk(*args):
            raise AssertionError("the net was walked")

        monkeypatch.setattr(bounds, "_net_psi_chunks", walk)
        with pytest.raises(InvalidInputError, match=message):
            if "M" in change:
                sweep_all_K(frame_4_12, NetConfig.create(5, 0.5), threads=2)
            else:
                NetConfig(4, change["epsilon_sq"], 6)

    def test_non_tight_frame_still_swept(self):
        # The library sweep does not check invariance or tightness: a
        # one-column frame times the net walk alone.
        config = NetConfig.create(4, 0.25)
        table = sweep_all_K(FrameMatrix(np.eye(4)[:, :1]), config)
        assert table.net_points_used == pruned_cardinality(config)

    def test_beta_witness_point_reproduces_bound(self, frame_4_12, table_4_12):
        config = NetConfig.create(4, 0.5)
        points = net_points(config)
        for k in (1, 6, 9, 12):
            r = int(table_4_12.argmax_r[k - 1])
            vals = sorted_squared_correlations(frame_4_12, points[r].psi[::-1])
            assert math.isclose(
                float(np.sum(vals[-k:])),
                float(table_4_12.beta_eps[k - 1]),
                rel_tol=1e-12,
            )

    def test_witness_point_reproduces_bound(self, frame_4_12, table_4_12):
        config = NetConfig.create(4, 0.5)
        points = net_points(config)
        for k in (7, 9, 12):
            r = int(table_4_12.argmin_r[k - 1])
            vals = sorted_squared_correlations(frame_4_12, points[r].psi[::-1])
            assert math.isclose(
                float(np.sum(vals[:k])),
                float(table_4_12.alpha_eps[k - 1]),
                rel_tol=1e-12,
            )


class TestCertify:
    def test_sandwich_shape(self, frame_4_12):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        assert np.all(table.alpha_lower <= table.alpha_eps + 1e-12)
        assert np.all(table.beta_eps <= table.beta_upper + 1e-12)

    def test_beta_upper_capped_by_redundancy(self, frame_4_12):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        assert np.all(table.beta_upper <= 3.0 + 1e-12)

    @pytest.mark.parametrize("M, k, eps_sq", [(4, 2, 0.5), (5, 2, 0.25)])
    def test_swept_table_is_certified(self, M, k, eps_sq, tmp_path):
        # The sweep returns the paper's endpoints, bitwise, without a call
        # to certify; every consumer takes the table, and certify
        # recomputes the same bits.
        frame = orbit_signed_permutations(GeneratorSpec(M, k))
        table = sweep_all_K(frame, NetConfig.create(M, eps_sq))
        nm, scale = table.N / M, 1.0 / (1.0 - eps_sq)
        lower = (table.alpha_eps - eps_sq * nm) * scale
        upper = np.minimum(nm, table.beta_eps * scale)
        assert table.alpha_lower.tobytes() == lower.tobytes()
        assert table.beta_upper.tobytes() == upper.tobytes()
        write_bounds_csv(table, tmp_path / "bounds.csv")
        k_span = min_spanning_K(table)
        assert condition_number_bound(table, k_span) > 1.0
        names = ("alpha_eps", "beta_eps", "argmin_r", "alpha_lower", "beta_upper")
        before = [getattr(table, name).tobytes() for name in names]
        assert certify(table) is table
        assert [getattr(table, name).tobytes() for name in names] == before


class DualityChecks:
    """beta_eps from alpha_eps by complement duality, against the oracle
    from k_min on; each Test subclass gives the frame."""

    @pytest.fixture(scope="class")
    def k_min(self):
        return 1

    @pytest.fixture(scope="class")
    def eps_sq(self):
        return 0.25

    @pytest.fixture(scope="class")
    def exact(self, frame, k_min):
        return exact_bounds_all_K(frame, k_min=k_min)

    def test_sandwich(self, frame, exact, k_min, eps_sq):
        table = certify(sweep_all_K(frame, NetConfig.create(frame.M, eps_sq)))
        assert [res.K for res in exact] == list(range(k_min, table.N + 1))
        for res in exact:
            i = res.K - 1
            assert table.alpha_lower[i] <= res.alpha + 1e-9
            assert res.alpha <= table.alpha_eps[i] + 1e-9
            assert table.beta_eps[i] <= res.beta + 1e-9
            assert res.beta <= table.beta_upper[i] + 1e-9

    def test_upper_side_mirrors_lower(self, frame, eps_sq):
        table = sweep_all_K(frame, NetConfig.create(frame.M, eps_sq))
        n, nm = table.N, table.N / table.config.M
        assert table.beta_eps[n - 1] == nm
        for k in range(1, n):
            assert table.beta_eps[k - 1] == nm - table.alpha_eps[n - k - 1]
            assert table.argmax_r[k - 1] == table.argmin_r[n - k - 1]
        assert table.argmax_r[n - 1] == 0


class TestDuality(DualityChecks):
    """GeneratorSpec(5, 2) has N=20; the oracle covers every K from k_min = 1
    (2^20 - 1 subsets), the session's result shared with test_oracle.
    Small K is where N/M - alpha_eps[N-K] cancels most.
    """

    @pytest.fixture(scope="class")
    def frame(self, oracle_5_20):
        return oracle_5_20[0]

    @pytest.fixture(scope="class")
    def exact(self, oracle_5_20):
        return oracle_5_20[1]


class TestDualityOrbitUnion(DualityChecks):
    """The same checks on the union of the (4, 1) and (4, 2) orbits: N=16,
    still invariant, unit norm and tight, but not a single orbit."""

    @pytest.fixture(scope="class")
    def frame(self):
        return FrameMatrix(
            np.hstack([
                orbit_signed_permutations(GeneratorSpec(4, k)).matrix
                for k in (1, 2)
            ])
        )


class TestDualityTail(DualityChecks):
    """The same checks on GeneratorSpec(5, 3), N=40, where the oracle
    reaches only the tail K = 36..40 (102,091 subsets)."""

    @pytest.fixture(scope="class")
    def frame(self):
        return orbit_signed_permutations(GeneratorSpec(5, 3))

    @pytest.fixture(scope="class")
    def k_min(self):
        return 36


class TestDualityM8Tail(DualityChecks):
    """The paper's 8x560 frame at K = 558..560 (156,521 subsets, about
    0.4 s, the oracle enumerating the complements of at most two
    columns), against the 1,276-point net of eps^2 1/2."""

    @pytest.fixture(scope="class")
    def frame(self):
        return orbit_signed_permutations(GeneratorSpec(8, 4))

    @pytest.fixture(scope="class")
    def k_min(self):
        return 558

    @pytest.fixture(scope="class")
    def eps_sq(self):
        return 0.5


class TestAdmissibleLevels:
    """Every L the level inequality admits gives a covering net, not only
    min_levels': the nets of L = min_levels .. min_levels + 5 certify, the
    oracle's exact bounds inside every interval at every K."""

    @pytest.mark.parametrize("extra", range(6))
    @pytest.mark.parametrize("M, eps_sq", [(4, 0.5), (5, 0.25)])
    def test_sandwich(self, frame_4_12, oracle_5_20, M, eps_sq, extra):
        if M == 5:
            frame, results = oracle_5_20
        else:
            frame, results = frame_4_12, exact_bounds_all_K(frame_4_12)
        assert [r.K for r in results] == list(range(1, frame.N + 1))
        L = epsnet.min_levels(M, eps_sq) + extra
        table = sweep_all_K(frame, NetConfig(M, eps_sq, L))
        assert table.config.delta == epsnet.delta_for(M, L)
        require_sandwich(table, {r.K: (r.alpha, r.beta) for r in results})


class TestRequireSandwich:
    """The one sandwich check, on the 5x20 frame against its eps^2 1/4
    table at every K."""

    @pytest.fixture(scope="class")
    def table(self, oracle_5_20):
        return certify(sweep_all_K(oracle_5_20[0], NetConfig.create(5, 0.25)))

    @pytest.fixture(scope="class")
    def exact(self, oracle_5_20):
        return {r.K: (r.alpha, r.beta) for r in oracle_5_20[1]}

    def test_exact_bounds_pass(self, table, exact):
        assert sorted(exact) == list(range(1, 21))
        require_sandwich(table, exact)
        require_sandwich(table, {})

    @pytest.mark.parametrize("K", [1, 13, 20])
    @pytest.mark.parametrize(
        "endpoint, side, sign",
        [("alpha_lower", 0, 1), ("alpha_eps", 0, -1),
         ("beta_eps", 1, 1), ("beta_upper", 1, -1)],
    )
    def test_slack_is_1e_9(self, table, exact, K, endpoint, side, sign):
        # One endpoint moved past the exact value at one K: 5e-10 lies in
        # the slack, 2e-9 does not.  beta_eps[K] is N/M - alpha_eps[N-K], so
        # it moves through alpha_eps[N-K], and alpha_eps[K] moves
        # beta_eps[N-K] with it: by the exact bounds' own duality the dual
        # endpoint leaves its interval too, and the violation may be
        # reported at N-K.  beta_eps[N] is N/M whatever alpha_eps holds, so
        # there the exact beta_N is moved below it instead.
        n, nm = table.N, table.N / table.config.M
        for shift, passes in ((5e-10, True), (2e-9, False)):
            target = exact[K][side] + sign * shift
            moved, moved_exact = table, exact
            if endpoint == "beta_eps" and K == n:
                moved_exact = {**exact, K: (exact[K][0], nm - sign * shift)}
            else:
                field, index = endpoint, K - 1
                if endpoint == "beta_eps":
                    field, index, target = "alpha_eps", n - K - 1, nm - target
                moved = dataclasses.replace(
                    table, **{field: getattr(table, field).copy()}
                )
                getattr(moved, field)[index] = target
                assert getattr(moved, endpoint)[K - 1] == pytest.approx(
                    exact[K][side] + sign * shift, abs=1e-14
                )
            if passes:
                require_sandwich(moved, moved_exact)
            else:
                with pytest.raises(
                    InvariantViolationError, match=f"at K=({K}|{n - K}):"
                ):
                    require_sandwich(moved, moved_exact)

    @pytest.mark.parametrize("K", [0, 21])
    def test_K_outside_1_to_N_refused(self, table, exact, K):
        # K=0 would read row N through index -1, and K=N+1 would index
        # past the end.
        with pytest.raises(InvalidInputError, match=f"K={K} out of range 1..20"):
            require_sandwich(table, {K: exact[20]})


class TestDerivedQuantities:
    def test_min_spanning_and_condition(self, frame_4_12):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        k = min_spanning_K(table)
        assert k == 10
        cond = condition_number_bound(table, k)
        assert cond > 1.0
        assert condition_number_bound(table, 1) is None


class TestChunkRows:
    @pytest.fixture(scope="class")
    def all_rows(self):
        """chunk_rows(N) at position N-1, for every N from 1 to 10^6."""
        return np.array([chunk_rows(n) for n in range(1, 10**6 + 1)])

    @pytest.mark.parametrize("n", [12, 560, 4032, 10**6])
    def test_bounded_by_budget(self, n, all_rows):
        # Every N up to n: a worker's lanes, (rows + 1) // 2 pairs of N
        # complex128 as allocated, fit _CHUNK_BYTES, except the 1002-row
        # raise (so the scan's 501 pairs release the GIL), within twice
        # that, and the one-pair floor where 2 rows exceed it.
        assert isinstance(chunk_rows(n), int) and chunk_rows(n) == all_rows[n - 1]
        ns, rows = np.arange(1, n + 1), all_rows[:n]
        assert np.all((2 <= rows) & (rows <= 4096))
        lane_bytes = (rows + 1) // 2 * 16 * ns
        over = lane_bytes > bounds._CHUNK_BYTES
        raised = over & (rows == 1002)
        assert np.all(lane_bytes[raised] <= 2 * bounds._CHUNK_BYTES)
        assert np.all((rows[over & ~raised] == 2) & (ns[over & ~raised] > 2**18))

    def test_no_batch_scans_under_the_gil_by_choice(self, all_rows):
        # Every N from 1 to 10^6: 501-1001 rows would make 251-501 pairs,
        # a scan that holds the GIL, so no N gets them.
        assert not np.any((all_rows > 500) & (all_rows < 1002))
        n = np.flatnonzero(all_rows == 1002) + 1
        assert 1002 * n.max() * 8 <= 2 * bounds._CHUNK_BYTES

    def test_batches_are_whole_pairs(self, all_rows):
        # Every N from 1 to 10^6: only the sweep's last batch can be odd,
        # so a lane buffer of (rows + 1) // 2 pairs holds no spare pair.
        assert np.all(all_rows % 2 == 0)

    def test_reference_sizes(self):
        assert chunk_rows(560) == 1002
        assert chunk_rows(4032) == 130


class TestThreads:
    def test_explicit_count_wins(self):
        assert resolve_threads(3) == 3

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.setattr(bounds.os, "cpu_count", lambda: 5)
        assert resolve_threads(0) == 5
        monkeypatch.setattr(bounds.os, "cpu_count", lambda: None)
        assert resolve_threads(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            resolve_threads(-1)

    def test_at_most_16_per_cpu(self, monkeypatch):
        monkeypatch.setattr(bounds.os, "cpu_count", lambda: 2)
        assert resolve_threads(32) == 32
        with pytest.raises(InvalidInputError, match=r"\[0, 32\], got 33"):
            resolve_threads(33)


class TestCsv:
    def test_round_trip(self, frame_4_12, tmp_path):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        path = tmp_path / "bounds.csv"
        write_bounds_csv(table, path)
        back = read_bounds_csv(path)
        assert back.config.M == 4 and back.N == 12
        assert np.array_equal(back.alpha_eps, table.alpha_eps)
        assert np.array_equal(back.alpha_lower, table.alpha_lower)
        assert back.net_points_used == table.net_points_used
        # The table read back names its own net.
        assert back.config == table.config
        assert pruned_cardinality(back.config) == back.net_points_used

    def test_each_fact_is_stored_once(self):
        # The net's parameters live in the table's NetConfig, N is the
        # arrays' length, and beta_eps and argmax_r are derived from
        # alpha_eps and argmin_r by duality.
        names = [f.name for f in dataclasses.fields(bounds.BoundsTable)]
        assert names == ["config", "alpha_eps", "argmin_r", "net_points_used",
                         "alpha_lower", "beta_upper"]
        for name in ("N", "beta_eps", "argmax_r"):
            assert isinstance(getattr(bounds.BoundsTable, name), property)

    def test_bytes_are_17_digit_rows(self, tmp_path):
        # A hand-built table, no sweep: the format alone sets the bytes.
        cells = np.array([-0.0, 5e-324, 1 / 3, 0.1, 1e300])
        N, M, ranks = 5, 2, np.zeros(5, int)
        table = bounds.BoundsTable(
            NetConfig(M, 0.25, 16), cells, ranks, 7,
            alpha_lower=-cells, beta_upper=3 * cells,
        )
        path = tmp_path / "bounds.csv"
        write_bounds_csv(table, path)
        header = {"M": 2, "N": 5, "epsilon_sq": 0.25, "L": 16,
                  "delta": 0.8991661742300971, "net_points_used": 7}
        nm = N / M
        rows = zip(range(1, N + 1), table.alpha_eps, table.beta_eps,
                   table.alpha_lower, table.beta_upper)
        expected = (
            "# " + json.dumps(header) + "\n"
            "K,alpha_eps,beta_eps,alpha_lower,beta_upper,"
            "trivial_lower,trivial_upper\n"
            + "".join(
                f"{k},{a:.17g},{b:.17g},{lo:.17g},{up:.17g},"
                f"{k - (N - nm):.17g},{nm:.17g}\n"
                for k, a, b, lo, up in rows
            )
        )
        assert path.read_text() == expected

    def test_header_keys_are_the_required_keys(self, frame_4_12, tmp_path):
        # Every key the writer emits is one the reader requires, and the
        # reader requires no other: the full header reads back.
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        path = tmp_path / "bounds.csv"
        write_bounds_csv(table, path)
        read_bounds_csv(path)
        first, *rest = path.read_text().splitlines(keepends=True)
        header = json.loads(first[2:])
        for key in header:
            short = {k: v for k, v in header.items() if k != key}
            path.write_text("# " + json.dumps(short) + "\n" + "".join(rest))
            with pytest.raises(InvalidInputError, match=f"KeyError: '{key}'"):
                read_bounds_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("K,alpha\n1,0\n")
        with pytest.raises(InvalidInputError):
            read_bounds_csv(path)
