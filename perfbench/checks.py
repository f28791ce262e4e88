"""Output checks and run accounting for the nerfcert benchmark.

Every check returns a list of problems; an empty list means the output
passed.  :class:`Tally` counts each checked CLI call as one attempted run
and every run with a problem as failed, so a bad output is never dropped
from the denominator.  Nothing here imports ``nerfcert``: the checks parse
the program's files themselves, so a bug in its readers cannot hide one in
its writers.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9


class Tally:
    """Attempted and failed run counts, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def parse_bounds_csv(text):
    """(header dict, {column: array}) from a bounds CSV as ``estimate`` writes it."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("bounds CSV lacks its JSON header line")
    meta = json.loads(lines[0][2:])
    names = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:] if line]
    if len(rows) != meta["N"] or any(len(r) != len(names) for r in rows):
        raise ValueError(f"bounds CSV has {len(rows)} rows, header says N={meta['N']}")
    cols = np.array(rows).T
    return meta, dict(zip(names, cols))


def parse_oracle_csv(text):
    """(K, alpha_exact, beta_exact) arrays and the subsets examined, from ``oracle``."""
    lines = text.splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    col = {name: [row[names.index(name)] for row in rows] for name in names}
    return (np.array(col["K"], dtype=int), np.array(col["alpha_exact"], dtype=float),
            np.array(col["beta_exact"], dtype=float),
            sum(int(v) for v in col["subsets_examined"]))


def check_exit(rc, stderr=""):
    if rc == 0:
        return []
    tail = stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {rc}: {tail[0][:200]}"]


def check_certified(cols):
    """alpha_lower <= alpha_eps <= beta_eps <= beta_upper at every K."""
    problems = []
    for lo, hi in (("alpha_lower", "alpha_eps"), ("alpha_eps", "beta_eps"),
                   ("beta_eps", "beta_upper")):
        bad = np.flatnonzero(~(cols[lo] <= cols[hi] + TOL))
        if bad.size:
            problems.append(f"{lo} > {hi} at K={bad[0] + 1}")
    return problems


def check_sandwich(cols, ks, alpha, beta):
    """Certified sandwich around the exact bounds, within TOL, at each K given."""
    problems = []
    i = ks - 1
    for name, lo, hi in (
        ("alpha_lower <= alpha_K", cols["alpha_lower"][i], alpha),
        ("alpha_K <= alpha_eps", alpha, cols["alpha_eps"][i]),
        ("beta_eps <= beta_K", cols["beta_eps"][i], beta),
        ("beta_K <= beta_upper", beta, cols["beta_upper"][i]),
    ):
        bad = np.flatnonzero(~(lo <= hi + TOL))
        if bad.size:
            j = bad[0]
            problems.append(f"{name} fails at K={ks[j]}: {lo[j]!r} vs {hi[j]!r}")
    return problems


def check_paper_m8(cols):
    """The published M=8 values frozen in the acceptance test (criterion 6)."""
    problems = []
    positive = np.flatnonzero(cols["alpha_lower"] > 0)
    k_span = int(positive[0]) + 1 if positive.size else None
    if k_span != 399:
        problems.append(f"min_spanning_K={k_span}, expected 399")
    if cols["alpha_lower"].size < 404:
        return problems + ["fewer than 404 rows"]
    lower = cols["alpha_lower"][403]
    if not abs(lower - 1.17) <= 0.01:
        problems.append(f"alpha_lower[404]={lower!r}, expected 1.17 +- 0.01")
    cond = cols["beta_upper"][403] / lower if lower > 0 else math.inf
    if not cond <= 60.0:
        problems.append(f"condition_number_bound(404)={cond!r}, expected <= 60")
    return problems


def check_tight_identities(cols, M, N):
    """Identities every unit norm tight frame satisfies."""
    problems = check_certified(cols)
    nm = N / M
    for name in ("alpha_eps", "beta_eps"):
        if not abs(cols[name][-1] - nm) <= TOL * nm:
            problems.append(f"{name}[N]={cols[name][-1]!r}, expected N/M={nm!r}")
    drops = np.flatnonzero(np.diff(cols["alpha_eps"]) < 0)
    if drops.size:
        problems.append(f"alpha_eps decreases after K={drops[0] + 1}")
    k = np.arange(1, N + 1)
    low = np.flatnonzero(~(cols["alpha_eps"] >= k - (N - nm) - TOL))
    if low.size:
        problems.append(f"alpha_eps below K - (N - N/M) at K={low[0] + 1}")
    return problems


def check_identical(text_a, text_b, what="CSVs"):
    if text_a == text_b:
        return []
    pos = next((i for i, (a, b) in enumerate(zip(text_a, text_b)) if a != b),
               min(len(text_a), len(text_b)))
    return [f"{what} differ from byte {pos}"]


def check_count(name, value, expected):
    """Exact counts repeat exactly: a moved count means a different program."""
    if value == expected:
        return []
    return [f"count {name}={value!r} moved from {expected!r}"]
