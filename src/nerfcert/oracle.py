"""Exact optimal NERF bounds for small frames by exhaustive enumeration.

The K-element column subsets are visited in lexicographic order and
stacked in batches of M x M subframe operators; one ``np.linalg.eigvalsh``
call per batch gives every subset's extreme eigenvalues.  The global
minimum of the smallest and maximum of the largest eigenvalue over all
C(N,K) subsets are the optimal bounds.  Only feasible for small N, which
is exactly its job: ground truth to validate the net estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import List, Optional

import numpy as np

from .errors import InvalidInputError, OracleInfeasibleError
from .frames import FrameMatrix

DEFAULT_BUDGET = 10**7
_BATCH_BYTES = 4 * 2**20  # per B x K x M float64 stack of subset columns
_CSV_HEADER = (
    "K,alpha_exact,beta_exact,witness_alpha,witness_beta,subsets_examined"
)

__all__ = [
    "OracleResult",
    "exact_bounds",
    "exact_bounds_all_K",
    "write_oracle_csv",
    "read_oracle_csv",
]


@dataclass(frozen=True)
class OracleResult:
    K: int
    alpha: float
    beta: float
    witness_alpha: tuple  # 0-based column indices
    witness_beta: tuple
    subsets_examined: int


def exact_bounds(
    frame: FrameMatrix, K: int, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Extreme subframe-operator eigenvalues over all K-subsets.

    Subsets are visited in lexicographic order; the first subset attaining
    each extremum is kept as its witness (argmin/argmax pick the first in a
    batch, a strict comparison decides across batches), so results are
    deterministic.
    """
    N, M = frame.N, frame.M
    if not 1 <= K <= N:
        raise InvalidInputError(f"need 1 <= K <= N, got K={K}, N={N}")
    total = math.comb(N, K)
    if total > budget:
        raise OracleInfeasibleError(N, K, K, total, budget)
    cols = frame.matrix.T
    batch = max(1, _BATCH_BYTES // (8 * K * M))
    subsets = combinations(range(N), K)
    alpha = math.inf
    beta = -math.inf
    wit_a = wit_b = None
    count = 0
    while True:
        flat = chain.from_iterable(islice(subsets, batch))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, K)
        if not len(idx):
            break
        sub = cols[idx]  # (B, K, M)
        lam = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)
        lo, hi = lam[:, 0], lam[:, -1]
        i, j = int(lo.argmin()), int(hi.argmax())
        if lo[i] < alpha:
            alpha, wit_a = float(lo[i]), tuple(idx[i].tolist())
        if hi[j] > beta:
            beta, wit_b = float(hi[j]), tuple(idx[j].tolist())
        count += len(idx)
    return OracleResult(
        K=K,
        alpha=alpha,
        beta=beta,
        witness_alpha=wit_a,
        witness_beta=wit_b,
        subsets_examined=count,
    )


def exact_bounds_all_K(
    frame: FrameMatrix,
    k_min: int = 1,
    k_max: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> List[OracleResult]:
    """exact_bounds for every K in [k_min, k_max] (default 1..N)."""
    if k_max is None:
        k_max = frame.N
    if not 1 <= k_min <= k_max <= frame.N:
        raise InvalidInputError(
            f"bad K range [{k_min}, {k_max}] for N={frame.N}"
        )
    total = sum(math.comb(frame.N, k) for k in range(k_min, k_max + 1))
    if total > budget:
        raise OracleInfeasibleError(frame.N, k_min, k_max, total, budget)
    return [exact_bounds(frame, k, budget) for k in range(k_min, k_max + 1)]


def write_oracle_csv(results: List[OracleResult], path) -> None:
    """Oracle report CSV; witness indices are 1-based, semicolon-joined."""
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for res in results:
            wa = ";".join(str(i + 1) for i in res.witness_alpha)
            wb = ";".join(str(i + 1) for i in res.witness_beta)
            fh.write(
                f"{res.K},{res.alpha:.17g},{res.beta:.17g},"
                f"{wa},{wb},{res.subsets_examined}\n"
            )


def read_oracle_csv(path, N: int) -> dict:
    """Exact (alpha, beta) by K from a :func:`write_oracle_csv` file of an
    N-column frame.  Refuses another header, a row of another width, a K
    outside 1..N or repeated, and a bound that is not finite."""
    exact = {}
    try:
        with open(path) as fh:  # bytes not UTF-8 raise a ValueError too
            header, *rows = fh.read().splitlines() or [""]
        if header != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER!r}")
        for cells in (row.split(",") for row in rows):
            if len(cells) != 6:
                raise ValueError(f"row with {len(cells)} cells, expected 6")
            K = int(cells[0])
            if not 1 <= K <= N or K in exact:
                raise ValueError(f"K={K} repeated or outside 1..{N}")
            exact[K] = (float(cells[1]), float(cells[2]))
            if not all(map(math.isfinite, exact[K])):
                raise ValueError(f"non-finite bound at K={K}")
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed oracle CSV ({exc})") from None
    return exact
