"""The exhaustive subset oracle: batched eigvalsh over every K-subset."""

import math

import numpy as np
import pytest

from nerfcert import (
    GeneratorSpec,
    exact_bounds,
    exact_bounds_all_K,
    oracle,
    orbit_signed_permutations,
)
from nerfcert.errors import InvalidInputError, OracleInfeasibleError
from nerfcert.oracle import write_oracle_csv


@pytest.fixture(scope="module")
def frame_4_12():
    return orbit_signed_permutations(GeneratorSpec(4, 2))


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
        with pytest.raises(OracleInfeasibleError):
            exact_bounds(frame_4_12, 6, budget=100)
        with pytest.raises(OracleInfeasibleError):
            exact_bounds_all_K(frame_4_12, budget=1000)

    def test_bad_K(self, frame_4_12):
        with pytest.raises(InvalidInputError):
            exact_bounds(frame_4_12, 0)
        with pytest.raises(InvalidInputError):
            exact_bounds(frame_4_12, 13)


class TestOracleCsv:
    def test_write(self, frame_4_12, tmp_path):
        results = exact_bounds_all_K(frame_4_12, k_min=11, k_max=12)
        path = tmp_path / "oracle.csv"
        write_oracle_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("K,alpha_exact,beta_exact")
        assert len(lines) == 3
        last = lines[-1].split(",")
        assert last[0] == "12"
        # Witness indices are written 1-based.
        assert last[3].split(";")[0] == "1"
