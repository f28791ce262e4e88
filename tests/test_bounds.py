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
    trivial_untf_bounds,
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
    directly in 7-point batches."""
    c2 = np.vstack([
        rows @ frame.matrix for rows, _ in bounds._net_psi_chunks(config, 7)
    ]) ** 2
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

    def test_many_chunks_match_one_pass(self, frame_4_12, monkeypatch):
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
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
        # witness search walks the improved columns one at a time.
        monkeypatch.setattr(bounds, "chunk_rows", lambda n: 7)
        monkeypatch.setattr(bounds, "_GATHER_BYTES", 1)
        config = NetConfig.create(4, 0.25)
        table = sweep_all_K(frame_4_12, config, threads=threads)
        argmin, argmax = first_ranks(all_prefix_sums(frame_4_12, config))
        assert np.array_equal(table.argmin_r, argmin)
        assert np.array_equal(table.argmax_r, argmax)

    def test_two_workers_hold_one_buffer_each(self):
        # Above the walker's share, measured as a one-thread sweep of a
        # one-column frame, two workers may add their two chunk buffers
        # (4096 x 80 at N=80) and 2 MiB for witness gathers, batches in
        # flight and merges.  Batch-sized copies per batch exceed this.
        frame = orbit_signed_permutations(GeneratorSpec(6, 3))
        config = NetConfig.create(6, 0.25)
        unit = FrameMatrix(np.eye(6)[:, :1])
        walker = traced_peak(lambda: sweep_all_K(unit, config))
        swept = traced_peak(lambda: sweep_all_K(frame, config, threads=2))
        assert frame.N == 80
        assert swept - walker <= 2 * chunk_rows(80) * 80 * 8 + 2 * 2**20

    def test_rank_offsets_across_walker_blocks(self, frame_4_12, monkeypatch):
        # Every other net here fits in one walker block; with 16-node slices
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
            vals = sorted_squared_correlations(frame_4_12, points[r].psi)
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
            vals = sorted_squared_correlations(frame_4_12, points[r].psi)
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
        n, nm = table.N, table.N / table.M
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
        # the slack, 2e-9 does not.
        for shift, passes in ((5e-10, True), (2e-9, False)):
            moved = dataclasses.replace(
                table, **{endpoint: getattr(table, endpoint).copy()}
            )
            getattr(moved, endpoint)[K - 1] = exact[K][side] + sign * shift
            if passes:
                require_sandwich(moved, exact)
            else:
                with pytest.raises(InvariantViolationError, match=f"K={K}:"):
                    require_sandwich(moved, exact)


class TestDerivedQuantities:
    def test_trivial_bounds(self):
        lower, upper = trivial_untf_bounds(12, 4, 12)
        assert lower == 3.0 and upper == 3.0
        lower, upper = trivial_untf_bounds(12, 4, 10)
        assert lower == 1.0
        assert trivial_untf_bounds(560, 8, 490)[0] == 0.0

    def test_trivial_bounds_range(self):
        with pytest.raises(InvalidInputError):
            trivial_untf_bounds(12, 4, 3)

    def test_min_spanning_and_condition(self, frame_4_12):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        k = min_spanning_K(table)
        assert k == 10
        cond = condition_number_bound(table, k)
        assert cond > 1.0
        assert condition_number_bound(table, 1) is None

    def test_requires_certification(self, table_4_12):
        fresh = sweep_all_K(
            orbit_signed_permutations(GeneratorSpec(4, 2)),
            NetConfig.create(4, 0.5),
        )
        with pytest.raises(InvalidInputError):
            min_spanning_K(fresh)


class TestChunkRows:
    @pytest.mark.parametrize("n", [12, 560, 4032, 10**6])
    def test_bounded_by_budget(self, n):
        rows = chunk_rows(n)
        assert isinstance(rows, int)
        assert 64 <= rows <= 4096
        if rows > 64:
            assert rows * n * 8 <= bounds._CHUNK_BYTES
        assert chunk_rows(n) == rows

    def test_reference_sizes(self):
        assert chunk_rows(560) == 936
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


class TestCsv:
    def test_round_trip(self, frame_4_12, tmp_path):
        table = certify(sweep_all_K(frame_4_12, NetConfig.create(4, 0.5)))
        path = tmp_path / "bounds.csv"
        write_bounds_csv(table, path)
        back = read_bounds_csv(path)
        assert back.M == 4 and back.N == 12
        assert back.certified
        assert np.array_equal(back.alpha_eps, table.alpha_eps)
        assert np.array_equal(back.alpha_lower, table.alpha_lower)
        assert (back.L, back.delta, back.net_points_used) == (
            table.L, table.delta, table.net_points_used
        )

    def test_uncertified_table_refused(self, table_4_12, tmp_path):
        path = tmp_path / "bounds.csv"
        with pytest.raises(InvalidInputError, match="certified"):
            write_bounds_csv(table_4_12, path)
        assert not path.exists()

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
