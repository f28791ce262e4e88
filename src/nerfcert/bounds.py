"""Net-sweep estimates and certified intervals for optimal NERF bounds.

For every net point the squared correlations with the frame columns are
sorted, and their prefix sums are the candidate lower bounds (sum of the
K smallest).  A running elementwise min over all net points yields the
approximate lower bounds alpha_eps[K] for every K in one pass.  The upper
side needs no sweep of its own: for a unit norm tight frame every unit
psi has sum_n |<psi,phi_n>|^2 = N/M, so the sum of the K largest is N/M
minus the sum of the N-K smallest, and beta_eps[K] = N/M - alpha_eps[N-K]
(the exact bounds obey the same identity, since the complement of a
K-subset has frame operator (N/M)I - S).  Certification then converts
these into two-sided intervals around the true extremal eigenvalue
bounds.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .epsnet import NetConfig, _level_arrays, _psi_from_levels
from .errors import InvalidInputError, InvariantViolationError
from .frames import FrameMatrix

_CHUNK_BYTES = 4 * 2**20  # per worker's rows x N float64 buffer; chunk_rows
_GATHER_BYTES = 256 * 2**10  # per block of columns gathered for witness ranks
_NO_RANK = np.iinfo(np.int64).max  # rank of a column no batch has set
_PROGRESS_EVERY = 100_000  # net points between progress lines

__all__ = [
    "BoundsTable",
    "sorted_squared_correlations",
    "sweep_all_K",
    "certify",
    "trivial_untf_bounds",
    "min_spanning_K",
    "condition_number_bound",
    "require_sandwich",
    "write_bounds_csv",
    "read_bounds_csv",
]


@dataclass
class BoundsTable:
    """Per-K bound arrays, all indexed K = 1..N at position K-1."""

    M: int
    N: int
    epsilon_sq: float
    alpha_eps: np.ndarray
    beta_eps: np.ndarray
    argmin_r: np.ndarray  # net point rank attaining alpha_eps[K]
    argmax_r: np.ndarray
    net_points_used: int
    L: int
    delta: float
    alpha_lower: Optional[np.ndarray] = None
    beta_upper: Optional[np.ndarray] = None

    @property
    def certified(self) -> bool:
        return self.alpha_lower is not None


def sorted_squared_correlations(
    frame: FrameMatrix, psi: np.ndarray
) -> np.ndarray:
    """|<psi, phi_n>|^2 for all n, sorted nondecreasingly."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (frame.M,):
        raise InvalidInputError(
            f"psi has shape {psi.shape}, expected ({frame.M},)"
        )
    vals = (psi @ frame.matrix) ** 2
    vals.sort()
    return vals


def chunk_rows(N: int) -> int:
    """Net points per batch: each worker's one rows x N float64 buffer
    takes about _CHUNK_BYTES, rows clamped to [64, 4096].  A function of N
    alone, so results never depend on the thread count.

    Threads overlap a batch's prefix scan only if it keeps more than 500
    rows: numpy's accumulate, behind np.cumsum(axis=1), holds the GIL
    when its outer loop has 500 rows or fewer.  With numpy 2.4 on a
    2-vCPU VM, two threads ran np.cumsum(axis=1) 2.0x as fast as one on
    936 x 560 batches (N=560) but 1.0x on 130 x 4032 batches (N=4032),
    which is why the 10x4032 sweep gains only about 1.4x from a second
    thread."""
    return max(64, min(4096, _CHUNK_BYTES // (8 * N)))


def _chunk_accumulate(
    phi: np.ndarray,
    psi_rows: np.ndarray,
    offset: int,
    alpha: np.ndarray,
    argmin: np.ndarray,
    buf: np.ndarray,
) -> None:
    """Fold one batch of unit-norm net points, of first rank ``offset``,
    into a worker's prefix-sum minima ``alpha`` and first attaining ranks
    ``argmin``, in place: a column takes the batch's value only where it
    is strictly smaller, and a worker takes its batches in rank order.

    The batch's rows x N correlations are computed, sorted and scanned in
    the first len(psi_rows) rows of ``buf``, the worker's buffer.  Columns
    are gathered for witness ranks in blocks of at most _GATHER_BYTES, so
    a witness search never copies the whole batch.
    """
    prefix = np.matmul(psi_rows, phi, out=buf[: len(psi_rows)])
    np.square(prefix, out=prefix)
    prefix.sort(axis=1)
    np.cumsum(prefix, axis=1, out=prefix)
    part = prefix.min(axis=0)
    idx = np.flatnonzero(part < alpha)
    alpha[idx] = part[idx]
    width = max(1, _GATHER_BYTES // (8 * len(prefix)))
    for start in range(0, len(idx), width):
        block = idx[start : start + width]
        argmin[block] = prefix[:, block].argmin(axis=0) + offset


def _net_psi_chunks(config: NetConfig, rows: int):
    """Yield (psi_rows, first_rank) batches of at most ``rows`` points, cut
    from each walker block in turn."""
    offset = 0
    for levels in _level_arrays(config):
        for start in range(0, len(levels), rows):
            batch = levels[start : start + rows]
            yield _psi_from_levels(batch, config), offset + start
        offset += len(levels)


def resolve_threads(threads: int) -> int:
    """0 means auto: the CPU count."""
    if threads < 0:
        raise InvalidInputError(f"threads must be >= 0, got {threads}")
    return threads or os.cpu_count() or 1


def sweep_all_K(
    frame: FrameMatrix,
    config: NetConfig,
    threads: int = 1,
    progress: bool = False,
) -> BoundsTable:
    """One pass over the net filling alpha_eps, then beta_eps by duality.

    The caller is responsible for the frame being signed-permutation
    invariant and unit-norm (frames.require_certifiable checks); only then
    do sector net points certify anything about the whole sphere, and only
    then is the frame tight (Schur's lemma: the group is irreducible),
    which beta_eps[K] = N/M - alpha_eps[N-K] needs.  beta_eps[N] is N/M
    exactly, with witness rank 0: every point attains the empty complement.

    One loop at every thread count: ``threads`` workers (the calling
    thread and threads - 1 pool threads) each take the walker's next batch
    of chunk_rows(N) points under one lock and fold it into minima and
    witnesses of their own, in one chunk_rows(N) x N buffer of their own;
    so the working set is about ``threads`` buffers plus witness gathers
    of at most _GATHER_BYTES each.  The workers' results are merged once
    at the end by elementwise min, a tie going to the smaller rank.  So
    results are independent of chunking and thread count: per-point sums
    are computed identically everywhere, and each witness is the first
    attaining rank.  A worker that raises, the calling thread included
    when interrupted, closes the walker, so the others stop after their
    current batch, and the first exception is re-raised.  With
    ``progress`` a line goes to stderr each time the count of swept
    points passes a multiple of _PROGRESS_EVERY, and one final line gives
    the total.
    """
    threads = resolve_threads(threads)
    rows = chunk_rows(frame.N)
    chunks = _net_psi_chunks(config, rows)
    lock = threading.Lock()  # guards chunks, done, shown and errors
    errors = []
    done = shown = 0

    def work():
        nonlocal done, shown
        alpha = np.full(frame.N, np.inf)
        argmin = np.full(frame.N, _NO_RANK, dtype=np.int64)
        buf = np.empty((rows, frame.N))
        points = 0
        try:
            while True:
                with lock:
                    done += points
                    if progress and done // _PROGRESS_EVERY > shown // _PROGRESS_EVERY:
                        shown = done
                        print(f"  swept {done} net points", file=sys.stderr)
                    batch = next(chunks, None)
                if batch is None:
                    return alpha, argmin
                psi_rows, offset = batch
                points = len(psi_rows)
                _chunk_accumulate(frame.matrix, psi_rows, offset, alpha, argmin, buf)
        except BaseException as exc:  # re-raised by the calling thread
            with lock:
                chunks.close()
                errors.append(exc)

    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        jobs = [pool.submit(work) for _ in range(threads - 1)]
        parts = [work()] + [job.result() for job in jobs]
    if errors:
        raise errors[0]
    if progress and shown != done:
        print(f"  swept {done} net points", file=sys.stderr)

    alpha, argmin = parts[0]
    for part, rank in parts[1:]:
        take = (part < alpha) | ((part == alpha) & (rank < argmin))
        alpha = np.where(take, part, alpha)
        argmin = np.where(take, rank, argmin)
    if done == 0:
        raise InvariantViolationError("net is empty; nothing to sweep")
    if np.any(argmin == _NO_RANK):
        raise InvariantViolationError("sweep left a bound with no witness")
    beta = np.full(frame.N, frame.N / frame.M)
    beta[:-1] -= alpha[-2::-1]
    argmax = np.zeros(frame.N, dtype=np.int64)
    argmax[:-1] = argmin[-2::-1]
    return BoundsTable(
        M=frame.M,
        N=frame.N,
        epsilon_sq=config.epsilon_sq,
        alpha_eps=alpha,
        beta_eps=beta,
        argmin_r=argmin,
        argmax_r=argmax,
        net_points_used=done,
        L=config.L,
        delta=config.delta,
    )


def certify(table: BoundsTable) -> BoundsTable:
    """Fill the certified endpoints as the paper does, for a unit norm
    tight frame; its published tables come from these formulas:

        alpha_lower[K] = (alpha_eps[K] - eps^2 * N/M) / (1 - eps^2)
        beta_upper[K]  = min(N/M, beta_eps[K] / (1 - eps^2))

    Why they hold: x, a unit eigenvector of a K-subset's least eigenvalue
    alpha_K moved into the sector by the frame's symmetry, lies within eps
    of a net point psi = c*x + s*v (v a unit vector orthogonal to x,
    c^2 >= 1 - eps^2).  So alpha_eps[K] <= <psi, S psi> = c^2 * alpha_K +
    s^2 * <v, S v>, and <v, S v> <= N/M caps the rest.  beta_upper follows
    the same way from the largest eigenvalue.  A negative alpha_lower
    certifies nothing at that K.
    """
    if not 0.0 < table.epsilon_sq < 1.0:
        raise InvalidInputError(
            f"epsilon_sq must lie in (0,1), got {table.epsilon_sq}"
        )
    eps_sq = table.epsilon_sq
    scale = 1.0 / (1.0 - eps_sq)
    redundancy = table.N / table.M
    table.beta_upper = np.minimum(redundancy, table.beta_eps * scale)
    table.alpha_lower = (table.alpha_eps - eps_sq * redundancy) * scale
    return table


def trivial_untf_bounds(N: int, M: int, K: int) -> tuple:
    """Bounds K - (N - N/M) <= alpha_K <= beta_K <= N/M for any UNTF."""
    if not M <= K <= N:
        raise InvalidInputError(f"need M <= K <= N, got K={K}, M={M}, N={N}")
    return (K - (N - N / M), N / M)


def min_spanning_K(table: BoundsTable) -> Optional[int]:
    """Smallest K with a positive certified lower bound, if any.

    At that K every K-column submatrix is guaranteed to span R^M.
    """
    if not table.certified:
        raise InvalidInputError("table must be certified first")
    positive = np.flatnonzero(table.alpha_lower > 0)
    return int(positive[0]) + 1 if positive.size else None


def condition_number_bound(table: BoundsTable, K: int) -> Optional[float]:
    """beta_upper[K] / alpha_lower[K], or None without a lower certificate."""
    if not table.certified:
        raise InvalidInputError("table must be certified first")
    if not 1 <= K <= table.N:
        raise InvalidInputError(f"K={K} out of range 1..{table.N}")
    lower = table.alpha_lower[K - 1]
    if lower <= 0:
        return None
    return float(table.beta_upper[K - 1] / lower)


def require_sandwich(table: BoundsTable, exact: dict) -> None:
    """Raise InvariantViolationError at the first K whose exact bounds
    ``exact[K] = (alpha_K, beta_K)`` leave [alpha_lower, alpha_eps] or
    [beta_eps, beta_upper] by more than 1e-9, the eigensolver's noise."""
    tol = 1e-9
    for k, (a, b) in sorted(exact.items()):
        lo, ae = table.alpha_lower[k - 1], table.alpha_eps[k - 1]
        be, up = table.beta_eps[k - 1], table.beta_upper[k - 1]
        if not (lo <= a + tol and a <= ae + tol and be <= b + tol and b <= up + tol):
            raise InvariantViolationError(
                f"sandwich violated at K={k}: alpha in [{lo}, {ae}] vs {a}; "
                f"beta in [{be}, {up}] vs {b}"
            )


def write_bounds_csv(table: BoundsTable, path) -> None:
    """Certified bounds CSV: one JSON header line with exactly the keys
    :func:`read_bounds_csv` requires, then one row per K.  Refuses an
    uncertified table, so every bounds CSV carries its certificate.

    Timing is deliberately left to the JSON run report so identical
    configurations produce byte-identical CSVs.
    """
    if not table.certified:
        raise InvalidInputError("table must be certified first")
    header = {
        "M": table.M,
        "N": table.N,
        "epsilon_sq": table.epsilon_sq,
        "L": table.L,
        "delta": table.delta,
        "net_points_used": table.net_points_used,
    }
    nm = table.N / table.M
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write(
            "K,alpha_eps,beta_eps,alpha_lower,beta_upper,"
            "trivial_lower,trivial_upper\n"
        )
        for i in range(table.N):
            k = i + 1
            fh.write(
                f"{k},{table.alpha_eps[i]:.17g},{table.beta_eps[i]:.17g},"
                f"{table.alpha_lower[i]:.17g},{table.beta_upper[i]:.17g},"
                f"{k - (table.N - nm):.17g},{nm:.17g}\n"
            )


def read_bounds_csv(path) -> BoundsTable:
    """Read a CSV written by :func:`write_bounds_csv` into a certified
    table.  The header must give M and N, positive integers, and
    epsilon_sq, L, delta and net_points_used; other keys are ignored.  The
    K column must read 1..N in order, and every cell must be finite.
    Witness ranks are not in the CSV and read as 0."""
    try:
        with open(path) as fh:  # bytes not UTF-8 raise a ValueError too
            first = fh.readline()
            fh.readline()  # column header
            rows = [line for line in fh if line.strip()]
        if not first.startswith("# "):
            raise ValueError("missing JSON header line")
        meta = json.loads(first[2:])
        m, n, eps_sq = meta["M"], meta["N"], meta["epsilon_sq"]
        L, delta, points = meta["L"], meta["delta"], meta["net_points_used"]
        if not all(type(v) is int and v > 0 for v in (m, n)):
            raise ValueError(f"M and N must be positive integers, got {m}, {n}")
        cols = (
            np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
            if rows
            else np.empty((0, 7))
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(
            f"{path}: malformed bounds CSV ({type(exc).__name__}: {exc})"
        ) from None
    if cols.shape != (n, 7):
        raise InvalidInputError(
            f"{path}: expected {n} rows of 7 values, found shape {cols.shape}"
        )
    if not np.array_equal(cols[:, 0], np.arange(1, n + 1)):
        raise InvalidInputError(f"{path}: K column is not 1..{n} in order")
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{path}: non-finite cell at K={bad[0] + 1}")
    return BoundsTable(
        M=m,
        N=n,
        epsilon_sq=eps_sq,
        alpha_eps=cols[:, 1],
        beta_eps=cols[:, 2],
        argmin_r=np.zeros(n, dtype=np.int64),
        argmax_r=np.zeros(n, dtype=np.int64),
        net_points_used=points,
        L=L,
        delta=delta,
        alpha_lower=cols[:, 3],
        beta_upper=cols[:, 4],
    )
