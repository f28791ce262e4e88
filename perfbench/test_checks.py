"""The benchmark's output checks must count a bad run as failed, not drop it.

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)

Feeds the real ``Context`` a fake runner that hands back chosen exit codes
and files, so each case goes through the same code path as a benchmark
run.  Needs numpy only, not the program under test.
"""

import json
import math
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

# A unit norm tight frame in R^2 with N/M = 2.
FRAME = np.array([[1.0, 0.0, math.sqrt(0.5), math.sqrt(0.5)],
                  [0.0, 1.0, math.sqrt(0.5), -math.sqrt(0.5)]])
POINTS = 7
SUBSETS = 15  # all K of N=4


def exact_bounds():
    """alpha_K, beta_K for K = 1..4 by eigvalsh over every K-subset."""
    alpha, beta = [], []
    for k in range(1, 5):
        lam = [np.linalg.eigvalsh(FRAME[:, s] @ FRAME[:, s].T)
               for s in map(list, combinations(range(4), k))]
        alpha.append(min(v[0] for v in lam))
        beta.append(max(v[-1] for v in lam))
    return np.array(alpha), np.array(beta)


def bounds_csv(points=POINTS, nudge_alpha_lower_at=None):
    alpha, beta = exact_bounds()
    lower, upper = alpha - 0.25, beta + 0.25
    if nudge_alpha_lower_at is not None:
        lower[nudge_alpha_lower_at - 1] = alpha[nudge_alpha_lower_at - 1] + 1e-6
    alpha = alpha + np.array([0.01, 0.01, 0.01, 0.0])  # alpha_eps above alpha_K
    header = {"M": 2, "N": 4, "epsilon_sq": 0.25, "net_points_used": points,
              "cap_mode": "untf"}
    lines = ["# " + json.dumps(header),
             "K,alpha_eps,beta_eps,alpha_lower,beta_upper,trivial_lower,trivial_upper"]
    for k in range(1, 5):
        lines.append(f"{k},{alpha[k - 1]:.17g},{beta[k - 1]:.17g},"
                     f"{lower[k - 1]:.17g},{upper[k - 1]:.17g},{k - 2},2")
    return "\n".join(lines) + "\n"


def oracle_csv(subsets=SUBSETS):
    alpha, beta = exact_bounds()
    lines = ["K,alpha_exact,beta_exact,witness_alpha,witness_beta,subsets_examined"]
    for k in range(1, 5):
        lines.append(f"{k},{alpha[k - 1]:.17g},{beta[k - 1]:.17g},1,1,"
                     f"{subsets if k == 4 else 0}")
    return "\n".join(lines) + "\n"


class FakeRunner:
    """Returns the queued (exit code, file text, stdout) per spawned call."""

    def __init__(self, work):
        self.work = work
        self.queue = []

    def spawn(self, label, mode, trace, *argv):
        rc, text, stdout = self.queue.pop(0)
        if text is not None:
            Path(argv[argv.index("-o") + 1]).write_text(text)
        return run.Call(label=label, rc=rc, setup_s=0.2, main_s=1.0,
                        peak_rss_mb=10.0, record={}, stdout=stdout,
                        stderr="" if rc == 0 else "error: boom")


class ChecksBite(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.runner = FakeRunner(Path(self.tmp.name))
        wl = run.Workload(2, 1, 0.25, POINTS, SUBSETS, 1, 1, 1, False)
        self.ctx = run.Context(
            wl=wl, frame_path=Path(self.tmp.name) / "frame.txt", N=4, t2=2,
            runner=self.runner, tally=checks.Tally(), pruned_cardinality=POINTS)

    def tearDown(self):
        self.tmp.cleanup()

    def estimate(self, rc, text, threads=1, reference=None):
        self.runner.queue.append((rc, text, ""))
        return self.ctx.estimate(threads, reference=reference)

    def oracle(self, text):
        self.runner.queue.append((0, text, "sandwich verified\n"))
        return self.ctx.oracle()

    def assert_counts(self, attempted, failed):
        self.assertEqual((self.ctx.tally.attempted, self.ctx.tally.failed),
                         (attempted, failed), self.ctx.tally.problems)

    def test_good_output_passes(self):
        _, text = self.estimate(0, bounds_csv())
        self.estimate(0, bounds_csv(), threads=2, reference=text)
        self.oracle(oracle_csv())
        self.assert_counts(3, 0)

    def test_alpha_lower_above_alpha_k_fails(self):
        self.estimate(0, bounds_csv(nudge_alpha_lower_at=3))
        self.oracle(oracle_csv())
        self.assert_counts(2, 1)
        self.assertEqual(len(self.ctx.tally.problems), 1)
        self.assertIn("alpha_lower <= alpha_K fails at K=3",
                      self.ctx.tally.problems[0])

    def test_csvs_differing_in_one_byte_fail(self):
        text = bounds_csv()
        i = text.rindex(",2\n")
        other = text[:i] + ",3\n" + text[i + 3:]
        self.assertEqual(sum(a != b for a, b in zip(text, other)), 1)
        self.estimate(0, text)
        self.estimate(0, other, threads=2, reference=text)
        self.assert_counts(2, 1)
        self.assertIn("CSVs differ", self.ctx.tally.problems[0])

    def test_nonzero_exit_fails(self):
        self.estimate(4, None)
        self.assert_counts(1, 1)
        self.assertIn("exit code 4", self.ctx.tally.problems[0])

    def test_moved_point_count_fails(self):
        self.estimate(0, bounds_csv(points=POINTS + 1))
        self.assert_counts(1, 1)
        self.assertIn("moved", self.ctx.tally.problems[0])

    def test_moved_oracle_subset_count_fails(self):
        self.estimate(0, bounds_csv())
        self.oracle(oracle_csv(subsets=SUBSETS - 1))
        self.assert_counts(2, 1)
        self.assertIn("oracle.subsets=14 moved from 15", self.ctx.tally.problems[0])

    def test_paper_m8_values_checked(self):
        n = 560
        cols = {"alpha_lower": np.linspace(-1.0, 30.0, n),
                "beta_upper": np.full(n, 70.0)}
        self.assertTrue(checks.check_paper_m8(cols))


if __name__ == "__main__":
    unittest.main()
