"""Quantization levels, step-point enumeration, pruning, and covering."""

import dataclasses
import hashlib
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from nerfcert import (
    NetConfig,
    StepPoint,
    delta_for,
    epsnet,
    min_levels,
    net_cardinality,
    prune_check,
    pruned_cardinality,
    quantize_step,
    verify_covering,
)
from nerfcert.epsnet import _level_arrays, volumetric_bound_log
from nerfcert.errors import InvalidInputError


def _levels_sufficient(M, L, eps_sq):
    """The defining inequality for a sufficient level count, rechecked
    with fractions-free math: (L-1)(1-eps^2)^L <= (1/M)((L-1)/L)^L."""
    lhs = math.log(L - 1) + L * math.log1p(-eps_sq)
    rhs = -math.log(M) + L * (math.log(L - 1) - math.log(L))
    return lhs <= rhs


class TestMinLevels:
    def test_reference_values_m4(self):
        want = {0.5: 6, 0.25: 19, 0.125: 47, 0.0625: 110, 0.03125: 249}
        for eps_sq, L in want.items():
            assert min_levels(4, eps_sq) == L

    def test_reference_values_m6_m8(self):
        assert min_levels(6, 0.25) == 21
        assert min_levels(8, 0.25) == 22

    def test_minimality(self):
        # The returned L satisfies the sufficiency inequality and L-1
        # does not (unless L is the floor value 2).
        for M in (2, 3, 4, 6, 8, 10):
            for eps_sq in (0.5, 0.25, 0.1):
                L = min_levels(M, eps_sq)
                assert L >= 2
                assert _levels_sufficient(M, L, eps_sq)
                if L > 2:
                    assert not _levels_sufficient(M, L - 1, eps_sq)

    def test_monotone_in_m(self):
        values = [min_levels(M, 0.25) for M in range(2, 12)]
        assert values == sorted(values)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            min_levels(4, 0.0)
        with pytest.raises(InvalidInputError):
            min_levels(4, 1.0)


class TestDelta:
    def test_closed_form(self):
        for M, L in ((4, 6), (4, 19), (4, 47), (6, 21), (8, 22)):
            d = delta_for(M, L)
            # delta^(2L) * M * (L-1) == 1 is the defining identity.
            assert math.isclose(d ** (2 * L) * M * (L - 1), 1.0,
                                rel_tol=1e-12)

    def test_reference_value(self):
        assert math.isclose(delta_for(4, 6), 20.0 ** (-1.0 / 12.0),
                            rel_tol=1e-15)

    def test_degenerate_product_rejected(self):
        with pytest.raises(InvalidInputError):
            delta_for(1, 2)


class TestNetConfig:
    """A NetConfig is valid by construction: the one check on a net."""

    def test_three_fields_and_a_derived_delta(self):
        config = NetConfig.create(4, 0.5)
        assert [f.name for f in dataclasses.fields(NetConfig)] == [
            "M", "epsilon_sq", "L"]
        assert config == NetConfig(4, 0.5, 6)
        assert config.delta == delta_for(4, 6)

    @pytest.mark.parametrize("L", [2, 3, 4, 6])
    def test_too_few_levels_refused(self, L):
        # These nets do not cover at eps^2 0.05 (min_levels gives 144):
        # swept, they "certified" beta_upper[1] of 0.61-0.94 on 4x12,
        # whose exact beta_1 is 1.
        with pytest.raises(InvalidInputError, match="below min_levels"):
            NetConfig(4, 0.05, L)

    @pytest.mark.parametrize(
        "M, eps_sq, L",
        [(1, 0.5, 2), (0, 0.5, 6), (4.0, 0.5, 6), (True, 0.5, 6),
         (4, 0.5, 6.0), (4, 0.5, True), (4, 0.0, 6), (4, 1.0, 6),
         (4, -0.5, 6), (4, float("nan"), 6), (4, "0.5", 6)],
        ids=["M1_delta_1", "M0", "float_M", "bool_M", "float_L", "bool_L",
             "eps_0", "eps_1", "eps_negative", "eps_nan", "eps_text"],
    )
    def test_bad_fields_refused(self, M, eps_sq, L):
        with pytest.raises(InvalidInputError):
            NetConfig(M, eps_sq, L)

    @pytest.mark.parametrize("M", [2, 3, 4, 6, 10])
    @pytest.mark.parametrize("eps_sq", [0.5, 0.25, 0.05])
    def test_admissible_levels_are_a_ray(self, M, eps_sq):
        L = min_levels(M, eps_sq)
        if L > 2:
            with pytest.raises(InvalidInputError):
                NetConfig(M, eps_sq, L - 1)
        for extra in range(50):
            assert NetConfig(M, eps_sq, L + extra).L == L + extra


class TestCardinality:
    def test_stars_and_bars(self):
        assert net_cardinality(4, 6) == 126
        assert net_cardinality(4, 19) == 7315
        assert net_cardinality(4, 47) == 230300
        assert net_cardinality(4, 110) == 6438740
        assert net_cardinality(4, 249) == 164059875
        assert net_cardinality(6, 21) == 230230
        assert net_cardinality(8, 22) == 4292145

    @pytest.mark.parametrize("slice_nodes", [1, 16, None], ids=["1", "16", "default"])
    def test_pruned_enumeration_agrees_with_filter(self, slice_nodes, monkeypatch):
        # The branch-and-bound walk, cutting whole subtrees, must keep
        # exactly the ascending level tuples the per-point test keeps, in
        # lexicographic order.  A cut frontier's slices reach expansion
        # with the children counts the frontier computed.  The default
        # slices cut 5 of these nets' 18 frontiers, 16-node slices 172 of
        # 198 and 1-node slices 387 of 477.
        if slice_nodes is not None:
            monkeypatch.setattr(epsnet, "_SLICE_NODES", slice_nodes)
        for M, eps_sq in ((4, 0.25), (3, 0.1), (5, 0.25), (5, 0.5)):
            config = NetConfig.create(M, eps_sq)
            direct = [
                levels
                for levels in combinations_with_replacement(range(config.L), M)
                if prune_check(
                    StepPoint.from_ascending_levels(levels, config), config
                )
            ]
            walked = [
                tuple(row)
                for rows in _level_arrays(config)
                for row in rows.tolist()
            ]
            assert walked == direct
            assert pruned_cardinality(config) == len(direct)
            assert len(walked) < config.cardinality


class TestNetOrder:
    # Witness ranks index the net, so its order is part of the output:
    # the count and sha256 of the int16 level tuples must not move.
    PINNED = {
        (4, 2**-5): (
            2366921,
            "8a40daaf6ec1ae8f50228f90368cea5de2ec2fa9ba83e68eef68c32aa8a45d77",
        ),
        (8, 0.25): (
            503486,
            "b7c9118cdb0c86f4834d29102810f6588bea3bbcdad9508890ce4295a14cc23a",
        ),
        (10, 0.45): (
            12614,
            "73132bc832357ab01cc154982eee269b6e99be64ed647aa36b5db7ae12593d3d",
        ),
    }

    @pytest.mark.parametrize("key", list(PINNED))
    def test_level_tuples_pinned(self, key):
        M, eps_sq = key
        config = NetConfig.create(M, eps_sq)
        levels = np.concatenate(list(_level_arrays(config)))
        count, digest = self.PINNED[key]
        assert levels.dtype == np.int16
        assert levels.shape == (count, M)
        assert hashlib.sha256(levels.tobytes()).hexdigest() == digest


class TestStepPoint:
    def test_unit_norm(self):
        config = NetConfig.create(4, 0.5)
        for row in np.concatenate(list(_level_arrays(config))).tolist():
            point = StepPoint.from_ascending_levels(row, config)
            assert point.levels == tuple(row)
            assert math.isclose(np.dot(point.psi, point.psi), 1.0,
                                rel_tol=1e-12)
            assert np.all(np.diff(point.psi) >= 0)

    def test_constant_point(self):
        config = NetConfig.create(4, 0.5)
        point = StepPoint.from_ascending_levels((0, 0, 0, 0), config)
        assert np.allclose(point.psi, 0.5)

    @pytest.mark.parametrize(
        "levels",
        [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 99), (-1, 0, 1, 2),
         (0, 2, 1, 3), (3, 2, 1, 0), (0.0, 1.0, 2.0, 3.0), ()],
        ids=["short", "long", "above_L", "negative", "unsorted",
             "descending", "float", "empty"],
    )
    def test_bad_row_refused(self, levels):
        # L=6 at M=4, eps^2 1/2: a row must be 4 ascending integers in 0..5.
        config = NetConfig.create(4, 0.5)
        assert config.L == 6
        message = r"not 4 ascending integers in 0\.\.5"
        with pytest.raises(InvalidInputError, match=message):
            StepPoint.from_ascending_levels(levels, config)


class TestQuantize:
    def test_rounds_up_to_nearest_level(self):
        config = NetConfig.create(4, 0.5)
        d = config.delta
        x = np.sort(np.abs(np.array([d**4, d**3 * 1.01, d**2, 0.9])))
        x = x / np.linalg.norm(x)
        point = quantize_step(x, config)
        # Each entry is covered from above by its assigned level.
        psi_hat = config.level_powers[list(point.levels)][::-1]
        assert np.all(psi_hat >= x - 1e-12)

    def test_below_bottom_level_clamps(self):
        config = NetConfig.create(4, 0.5)
        x = np.array([1e-9, 1e-6, 0.5, 0.5])
        x = np.sort(x / np.linalg.norm(x))
        point = quantize_step(x, config)
        # The smallest entry, x(1), is the last of the ascending levels.
        assert point.levels[-1] == config.L - 1

    def test_rejects_unsorted(self):
        config = NetConfig.create(4, 0.5)
        with pytest.raises(InvalidInputError):
            quantize_step(np.array([0.9, 0.1, 0.3, 0.3]), config)

    def test_rejects_non_unit(self):
        config = NetConfig.create(4, 0.5)
        with pytest.raises(InvalidInputError):
            quantize_step(np.array([0.1, 0.2, 0.3, 0.4]), config)

    @pytest.mark.parametrize("x", [
        [np.nan, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, np.inf], [-np.inf, 0.5, 0.5, 0.5],
    ], ids=["nan", "inf", "neg_inf"])
    def test_rejects_non_finite(self, x):
        # A NaN fails every comparison, so it passes the order and norm
        # checks unless it is refused first, by name.
        config = NetConfig.create(4, 0.5)
        with pytest.raises(InvalidInputError, match="non-finite entries"):
            quantize_step(np.array(x), config)


class TestPruneCheck:
    def test_all_top_level_passes_norm(self):
        config = NetConfig.create(4, 0.5)
        point = StepPoint.from_ascending_levels((0, 0, 0, 0), config)
        # Norm condition holds trivially; the top-sum condition fails
        # here because delta^2 * M > 1 for this configuration.
        assert not prune_check(point, config)

    def test_all_bottom_level(self):
        config = NetConfig.create(4, 0.5)
        L = config.L
        point = StepPoint.from_ascending_levels((L - 1,) * 4, config)
        passes = 4 * config.delta ** (2 * (L - 1)) >= 1.0
        assert prune_check(point, config) == passes

    def test_quantized_unit_vectors_pass(self):
        rng = np.random.default_rng(5)
        config = NetConfig.create(4, 0.25)
        for _ in range(500):
            x = np.sort(np.abs(rng.normal(size=4)))
            x /= np.linalg.norm(x)
            assert prune_check(quantize_step(x, config), config)


class TestCovering:
    @pytest.mark.parametrize("M", [3, 4, 6])
    def test_random_sphere_points_are_covered(self, M):
        config = NetConfig.create(M, 0.25)
        report = verify_covering(config, trials=2000, rng_seed=42)
        assert report.ok
        assert report.min_inner_product >= math.sqrt(0.75)

    def test_covering_guarantee_is_tight_ish(self):
        # The worst observed inner product should not be wildly better
        # than the guarantee, otherwise the net is larger than needed.
        config = NetConfig.create(4, 0.5)
        report = verify_covering(config, trials=5000, rng_seed=9)
        assert report.min_inner_product < 1.0

    def test_prune_failures_counted(self, monkeypatch):
        # Every row at the bottom level has ||psi_hat||^2 = M delta^(2L-2)
        # < 1, so each quantization fails the prune test.
        config = NetConfig.create(4, 0.5)
        assert 4 * config.level_powers[-1] ** 2 < 1.0
        monkeypatch.setattr(
            epsnet,
            "_quantize_levels",
            lambda X, config: np.full(X.shape, config.L - 1),
        )
        report = verify_covering(config, trials=200, rng_seed=1)
        assert report.prune_failures == report.trials
        assert not report.ok

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        config = NetConfig.create(4, 0.5)
        with pytest.raises(InvalidInputError, match=f"got {trials}"):
            verify_covering(config, trials=trials, rng_seed=1)

    def test_one_trial_runs(self):
        report = verify_covering(NetConfig.create(4, 0.5), trials=1, rng_seed=1)
        assert report.trials == 1 and report.ok


class TestVolumetricBound:
    def test_net_beats_volumetric_growth(self):
        # Step nets grow subexponentially in M at fixed epsilon while
        # the volumetric bound grows exponentially; check the crossover
        # direction at a moderate size.
        M, eps_sq = 10, 0.5
        L = min_levels(M, eps_sq)
        assert math.log(net_cardinality(M, L)) < volumetric_bound_log(
            M, math.sqrt(eps_sq)
        )

    @pytest.mark.parametrize("M, epsilon", [(0, 0.5), (3, 0.0)])
    def test_bad_arguments_named(self, M, epsilon):
        with pytest.raises(
            InvalidInputError,
            match=rf"^need M >= 1 and epsilon > 0, got M={M}, epsilon={epsilon}$",
        ):
            volumetric_bound_log(M, epsilon)


class TestAgainstBruteForce:
    def test_pruned_count_small_cases(self):
        # Independent recount with a plain nested loop.
        for M, eps_sq in ((2, 0.5), (3, 0.5), (4, 0.5), (3, 0.25)):
            config = NetConfig.create(M, eps_sq)
            L, d = config.L, config.delta
            sq = [(d**l) ** 2 for l in range(L)]
            count = 0
            for t in combinations_with_replacement(range(L), M):
                norm_sq = math.fsum(sq[l] for l in t)
                top = math.fsum(sq[l] for l in t if l < L - 1)
                if norm_sq >= 1.0 and d * d * top <= 1.0:
                    count += 1
            assert pruned_cardinality(config) == count
