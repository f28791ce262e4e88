"""The exhaustive subset oracle: batched eigvalsh over every K-subset."""

import math
from itertools import combinations, islice

import numpy as np
import pytest

from nerfcert import (
    FrameMatrix,
    GeneratorSpec,
    exact_bounds,
    exact_bounds_all_K,
    oracle,
    orbit_signed_permutations,
    verify_untf,
)
from nerfcert.errors import InvalidInputError, OracleInfeasibleError
from nerfcert.oracle import read_oracle_csv, write_oracle_csv


@pytest.fixture(scope="module")
def frame_4_12():
    return orbit_signed_permutations(GeneratorSpec(4, 2))


def direct_bounds(frame, K):
    """(alpha, beta) over all K-subsets, each operator gathered from its
    own K columns, 20,000 subsets at a time."""
    cols = frame.matrix.T
    alpha, beta = math.inf, -math.inf
    subsets = combinations(range(frame.N), K)
    while chunk := list(islice(subsets, 20_000)):
        sub = cols[np.array(chunk)]
        lam = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)
        alpha = min(alpha, lam[:, 0].min())
        beta = max(beta, lam[:, -1].max())
    return alpha, beta


def random_unit_norm_4_12():
    """Twelve random unit vectors in R^4: neither invariant nor tight."""
    phi = np.random.default_rng(0).standard_normal((4, 12))
    return FrameMatrix(phi / np.linalg.norm(phi, axis=0))


FRAMES = {
    "orbit_4_12": lambda: orbit_signed_permutations(GeneratorSpec(4, 2)),
    "random_4_12": random_unit_norm_4_12,
}


@pytest.fixture(scope="module", params=sorted([*FRAMES, "orbit_5_20"]))
def every_K(request):
    """A frame, its oracle results at every K, and the direct bounds.  The
    5x20 oracle is the session's, shared with test_bounds.TestDuality."""
    if request.param == "orbit_5_20":
        frame, results = request.getfixturevalue("oracle_5_20")
    else:
        frame = FRAMES[request.param]()
        results = exact_bounds_all_K(frame)
    direct = [direct_bounds(frame, K) for K in range(1, frame.N + 1)]
    return frame, results, direct


class TestExactBounds:
    def test_full_frame_gives_tight_constant(self, frame_4_12):
        res = exact_bounds(frame_4_12, 12)
        assert math.isclose(res.alpha, 3.0, abs_tol=1e-12)
        assert math.isclose(res.beta, 3.0, abs_tol=1e-12)
        assert res.subsets_examined == 1

    def test_single_column(self, frame_4_12):
        # One unit vector: top eigenvalue 1, bottom 0 (rank one operator).
        res = exact_bounds(frame_4_12, 1)
        assert math.isclose(res.alpha, 0.0, abs_tol=1e-12)
        assert math.isclose(res.beta, 1.0, abs_tol=1e-12)
        assert res.subsets_examined == 12

    def test_witness_attains_bound(self, frame_4_12):
        res = exact_bounds(frame_4_12, 7)
        sub = frame_4_12.matrix[:, list(res.witness_alpha)]
        lam = np.linalg.eigvalsh(sub @ sub.T)
        assert math.isclose(lam[0], res.alpha, abs_tol=1e-10)

    def test_batches_match_one_batch(self, frame_4_12, monkeypatch):
        one = exact_bounds(frame_4_12, 6)
        # 1000 bytes hold 5 subsets of 6 columns in R^4: 185 batches of 924.
        monkeypatch.setattr(oracle, "_BATCH_BYTES", 1000)
        many = exact_bounds(frame_4_12, 6)
        assert many == one
        assert one.subsets_examined == 924

    def test_monotone_in_K(self, frame_4_12):
        results = exact_bounds_all_K(frame_4_12, k_min=5, k_max=9)
        alphas = np.array([r.alpha for r in results])
        betas = np.array([r.beta for r in results])
        assert np.all(np.diff(alphas) >= -1e-12)
        assert np.all(np.diff(betas) >= -1e-12)

    def test_budget_enforced(self, frame_4_12):
        cases = [
            (lambda: exact_bounds(frame_4_12, 6, budget=100),
             "C(12,6) = 924 subsets exceeds budget 100"),
            (lambda: exact_bounds_all_K(frame_4_12, budget=1000),
             "C(12,K) summed over K in [1, 12] = 4095 subsets exceeds budget 1000"),
            (lambda: exact_bounds_all_K(frame_4_12, k_min=6, k_max=6, budget=100),
             "C(12,6) = 924 subsets exceeds budget 100"),
        ]
        for call, message in cases:
            with pytest.raises(OracleInfeasibleError) as err:
                call()
            assert str(err.value) == message

    def test_bad_K(self, frame_4_12):
        with pytest.raises(InvalidInputError):
            exact_bounds(frame_4_12, 0)
        with pytest.raises(InvalidInputError):
            exact_bounds(frame_4_12, 13)


class TestComplementPath:
    """Above K = N/2 the oracle enumerates the N-K complements and
    subtracts their operators from the whole frame's, at every K of two
    orbit frames and of a frame that is not tight."""

    def test_random_frame_is_not_tight(self):
        assert not verify_untf(random_unit_norm_4_12()).is_tight

    def test_bounds_match_direct_gathering(self, every_K):
        frame, results, direct = every_K
        assert [res.K for res in results] == list(range(1, frame.N + 1))
        for res, (alpha, beta) in zip(results, direct):
            assert abs(res.alpha - alpha) <= 1e-12
            assert abs(res.beta - beta) <= 1e-12

    def test_every_subset_examined(self, every_K):
        frame, results, _ = every_K
        for res in results:
            assert res.subsets_examined == math.comb(frame.N, res.K)
        assert results[-1].subsets_examined == 1

    def test_witnesses_attain_bounds(self, every_K):
        frame, results, _ = every_K
        for res in results:
            for witness, bound, end in (
                (res.witness_alpha, res.alpha, 0),
                (res.witness_beta, res.beta, -1),
            ):
                assert list(witness) == sorted(set(witness))
                assert len(witness) == res.K
                assert 0 <= witness[0] and witness[-1] < frame.N
                sub = frame.matrix[:, list(witness)]
                lam = np.linalg.eigvalsh(sub @ sub.T)
                assert abs(lam[end] - bound) <= 1e-10

    def test_batches_match_one_batch(self, every_K, monkeypatch):
        frame, results, _ = every_K
        # Every K of the 4x12 frames; K = 1..4 and 16..20 of the 5x20.
        ks = [K for K in range(1, frame.N + 1) if math.comb(frame.N, K) <= 5000]
        monkeypatch.setattr(oracle, "_BATCH_BYTES", 1000)
        for K in ks:
            assert exact_bounds(frame, K) == results[K - 1]


class TestOracleCsv:
    def test_write(self, frame_4_12, tmp_path):
        results = exact_bounds_all_K(frame_4_12, k_min=11, k_max=12)
        path = tmp_path / "oracle.csv"
        write_oracle_csv(results, path, frame_4_12.M)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("K,alpha_exact,beta_exact")
        assert len(lines) == 3
        last = lines[-1].split(",")
        assert last[0] == "12"
        # Witness indices are written 1-based.
        assert last[3].split(";")[0] == "1"
        assert last[-1] == "4"
        exact = read_oracle_csv(path, 4, 12)
        assert exact == {res.K: (res.alpha, res.beta) for res in results}
