"""Exact optimal NERF bounds for small frames by exhaustive enumeration.

Every K-element column subset is visited, through the smaller of itself
and its complement, and the subframe operators are stacked in batches of
M x M matrices; one ``np.linalg.eigvalsh`` call per batch gives every
subset's extreme eigenvalues.  The global minimum of the smallest and
maximum of the largest eigenvalue over all C(N,K) subsets are the
optimal bounds.  Only feasible for small N, which is exactly its job:
ground truth to validate the net estimator.
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
_BATCH_BYTES = 4 * 2**20  # per B x min(K, N-K) x M float64 column stack
_CSV_HEADER = (
    "K,alpha_exact,beta_exact,witness_alpha,witness_beta,subsets_examined,M"
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

    The smaller side is enumerated: the K-subsets themselves for
    K <= N/2, otherwise their (N-K)-column complements C, each subset's
    operator then being S - Phi_C Phi_C^T with S = Phi Phi^T computed
    once.  That identity holds for every frame, tight or not, so a
    subset costs O(min(K, N-K) * M^2) plus one M x M eigvalsh; K = N is
    the one empty complement.  Each witness is the first attaining
    subset in lexicographic order of the enumerated side (argmin/argmax
    pick the first in a batch, a strict comparison decides across
    batches), given as its K sorted column indices, so results are
    deterministic.
    """
    N, M = frame.N, frame.M
    if not 1 <= K <= N:
        raise InvalidInputError(f"need 1 <= K <= N, got K={K}, N={N}")
    total = math.comb(N, K)
    if total > budget:
        raise OracleInfeasibleError(
            f"C({N},{K}) = {total} subsets exceeds budget {budget}"
        )
    J = min(K, N - K)
    complement = J < K
    cols = frame.matrix.T
    full = cols.T @ cols if complement else None
    everyone = np.arange(N)

    def subset(row):  # the K sorted column indices of an enumerated row
        return tuple((np.delete(everyone, row) if complement else row).tolist())

    batch = max(1, _BATCH_BYTES // (8 * max(J, 1) * M))
    sides = combinations(range(N), J)
    alpha = math.inf
    beta = -math.inf
    wit_a = wit_b = None
    for start in range(0, total, batch):
        rows = min(batch, total - start)
        flat = chain.from_iterable(islice(sides, rows))
        idx = np.fromiter(flat, dtype=np.intp, count=rows * J)
        idx = idx.reshape(rows, J)
        sub = cols[idx]  # (B, J, M)
        ops = sub.transpose(0, 2, 1) @ sub
        lam = np.linalg.eigvalsh(full - ops if complement else ops)
        lo, hi = lam[:, 0], lam[:, -1]
        i, j = int(lo.argmin()), int(hi.argmax())
        if lo[i] < alpha:
            alpha, wit_a = float(lo[i]), subset(idx[i])
        if hi[j] > beta:
            beta, wit_b = float(hi[j]), subset(idx[j])
    return OracleResult(
        K=K,
        alpha=alpha,
        beta=beta,
        witness_alpha=wit_a,
        witness_beta=wit_b,
        subsets_examined=total,
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
    if total > budget and k_min < k_max:  # one K: exact_bounds refuses it
        raise OracleInfeasibleError(
            f"C({frame.N},K) summed over K in [{k_min}, {k_max}] = "
            f"{total} subsets exceeds budget {budget}"
        )
    return [exact_bounds(frame, k, budget) for k in range(k_min, k_max + 1)]


def write_oracle_csv(results: List[OracleResult], path, M: int) -> None:
    """Oracle report CSV of an M-row frame; witness indices are 1-based,
    semicolon-joined, and every row names M so that a reader can refuse
    the bounds of another frame."""
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for res in results:
            # join() turns a generator into a list first; a list is faster
            wa = ";".join([str(i + 1) for i in res.witness_alpha])
            wb = ";".join([str(i + 1) for i in res.witness_beta])
            fh.write(
                f"{res.K},{res.alpha:.17g},{res.beta:.17g},"
                f"{wa},{wb},{res.subsets_examined},{M}\n"
            )


def read_oracle_csv(path, M: int, N: int) -> dict:
    """Exact (alpha, beta) by K from a :func:`write_oracle_csv` file of an
    M x N frame.  Refuses another header, a row of another width or of
    another M, a K outside 1..N or repeated, a subset count other than
    C(N, K), which a frame of another N gives, and a bound that is not
    finite."""
    exact = {}
    try:
        with open(path) as fh:  # bytes not UTF-8 raise a ValueError too
            header, *rows = fh.read().splitlines() or [""]
        if header != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER!r}")
        for cells in (row.split(",") for row in rows):
            if len(cells) != 7:
                raise ValueError(f"row with {len(cells)} cells, expected 7")
            K = int(cells[0])
            if int(cells[6]) != M:
                raise ValueError(f"bounds of an M={cells[6]} frame, not M={M}")
            if not 1 <= K <= N or K in exact:
                raise ValueError(f"K={K} repeated or outside 1..{N}")
            if int(cells[5]) != math.comb(N, K):  # C(n, K) grows with n
                raise ValueError(f"K={K} examined {cells[5]} subsets, not C({N}, {K})")
            exact[K] = (float(cells[1]), float(cells[2]))
            if not all(map(math.isfinite, exact[K])):
                raise ValueError(f"non-finite bound at K={K}")
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed oracle CSV ({exc})") from None
    return exact
