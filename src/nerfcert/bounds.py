"""Net-sweep estimates and certified intervals for optimal NERF bounds.

For every net point the squared correlations with the frame columns are
sorted, and their prefix sums are the candidate lower bounds (sum of the
K smallest).  A running elementwise min over all net points yields the
approximate lower bounds alpha_eps[K] for every K in one pass.  The upper
side needs no sweep of its own: for a unit norm tight frame every unit
psi has sum_n |<psi,phi_n>|^2 = N/M, so the sum of the K largest is N/M
minus the sum of the N-K smallest, and beta_eps[K] = N/M - alpha_eps[N-K]
(the exact bounds obey the same identity, since the complement of a
K-subset has frame operator (N/M)I - S).  The sweep then certifies these
into intervals around the true extremal eigenvalue bounds (:func:`certify`).
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .epsnet import NetConfig, _level_arrays, _psi_from_levels
from .errors import InvalidInputError, InvariantViolationError
from .frames import FrameMatrix

_CHUNK_BYTES = 4 * 2**20  # per worker's rows x N float64 lanes; chunk_rows
_SORT_BYTES = 256 * 2**10  # per worker's sort scratch, sized for L2
# Per witness gather copy: under glibc's default 128 KiB mmap threshold, so
# each copy reuses resident heap pages instead of mapping fresh ones.
_GATHER_BYTES = 64 * 2**10
_NO_RANK = np.iinfo(np.int64).max  # rank of a column no batch has set
_PROGRESS_EVERY = 100_000  # net points between progress lines

__all__ = [
    "BoundsTable",
    "sorted_squared_correlations",
    "sweep_all_K",
    "certify",
    "min_spanning_K",
    "condition_number_bound",
    "require_sandwich",
    "write_bounds_csv",
    "read_bounds_csv",
]


@dataclass
class BoundsTable:
    """Per-K estimates and witnesses, indexed K = 1..N at position K-1, for
    the frame's N columns and the net ``config``: N, beta_eps and argmax_r
    are derived, and the certified endpoints are set by :func:`certify`."""

    config: NetConfig
    alpha_eps: np.ndarray
    argmin_r: np.ndarray  # net point rank attaining alpha_eps[K]
    net_points_used: int
    alpha_lower: np.ndarray = field(init=False)
    beta_upper: np.ndarray = field(init=False)

    def __post_init__(self):
        certify(self)

    @property
    def N(self) -> int:
        return len(self.alpha_eps)

    @property
    def beta_eps(self) -> np.ndarray:
        """N/M - alpha_eps[N-K], and N/M exactly at K = N."""
        beta = np.full(self.N, self.N / self.config.M)
        beta[:-1] -= self.alpha_eps[-2::-1]
        return beta

    @property
    def argmax_r(self) -> np.ndarray:
        """Net point rank attaining beta_eps[K]: by duality that of
        alpha_eps[N-K], and rank 0 at K = N, which every point attains."""
        return np.append(self.argmin_r[-2::-1], 0)


def sorted_squared_correlations(
    frame: FrameMatrix, psi: np.ndarray
) -> np.ndarray:
    """|<psi, phi_n>|^2 for all n, sorted nondecreasingly: the sweep's
    values for psi, as its product of a two-row block computes them, so a
    witness row given in walker order reproduces its bound bitwise."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (frame.M,):
        raise InvalidInputError(
            f"psi has shape {psi.shape}, expected ({frame.M},)"
        )
    vals = (np.stack((psi, psi)) @ frame.matrix)[0] ** 2
    vals.sort()
    return vals


def chunk_rows(N: int) -> int:
    """Net points per batch: each worker's lane buffer, two rows per
    complex128, takes about _CHUNK_BYTES, rows clamped to [2, 4096] and
    rounded down to whole pairs, so the buffer is the budget counted here.
    4096 rows keep a one-column witness gather (4096 values) under
    _GATHER_BYTES.  A function of N alone, so results never depend on the
    thread count.

    Threads overlap a batch's prefix scan only if it keeps more than 500
    pairs of rows: numpy's accumulate, behind np.cumsum(axis=1), holds the
    GIL when its outer loop has 500 rows or fewer, and the scan's rows are
    pairs.  So a budget of 501-1001 rows is raised to 1002 (501 pairs):
    N=560 gets 1002 rows (4.28 MiB) instead of 936, and the worst case,
    N=1046, 8.0 MiB.  With 936 rows (468 pairs) the 8x560 two-thread sweep
    lost 13 % on a 2-vCPU VM.  N=4032 keeps 130 rows; its scan still holds
    the GIL, but for half as long as a one-lane scan."""
    rows = max(2, min(4096, _CHUNK_BYTES // (8 * N)))
    return 1002 if 500 < rows < 1002 else rows // 2 * 2


def _sort_rows(N: int) -> int:
    """Rows per sort block: the most whose N float64 values fit in
    _SORT_BYTES, made even and at least 2."""
    return max(2, _SORT_BYTES // (8 * N) // 2 * 2)


def _chunk_accumulate(
    phi: np.ndarray,
    psi_rows: np.ndarray,
    offset: int,
    alpha: np.ndarray,
    argmin: np.ndarray,
    buf: tuple,
) -> None:
    """Fold one batch of unit-norm net points, of first rank ``offset``,
    into a worker's prefix-sum minima ``alpha`` and first attaining ranks
    ``argmin``, in place: a column takes the batch's value only where it
    is strictly smaller, and a worker takes its batches in rank order.

    ``buf`` is the worker's (lanes, scratch) pair.  An odd batch gets a
    copy of its last row, so the batch and its blocks of len(scratch) rows
    all have even counts and no row is multiplied alone: numpy multiplies
    a lone row by another routine, which may round differently.  Each
    block is multiplied, squared and sorted in the scratch while it sits
    in L2, then copied into the (pairs, N, 2) lanes: row 2p to lane 0 and
    row 2p+1 to lane 1 of pair p.  The copy's lane is then filled with
    +inf, never a minimum, so it is never a witness.  One np.cumsum(axis=1)
    on the lanes' complex128 view scans both lanes at once: a complex
    addition is two independent IEEE additions, so each lane is bitwise
    the float scan of its own row, and the two dependency chains overlap
    (1.83 instead of 3.55 ns per value with numpy 2.4 on a 2-vCPU VM).
    Columns are gathered for witness ranks (row 2p + lane) in blocks of at
    most _GATHER_BYTES; a column's first attaining rank does not depend on
    the blocking.
    """
    lanes, scratch = buf
    n, N = len(psi_rows), phi.shape[1]
    if n % 2:
        psi_rows = psi_rows[np.r_[:n, n - 1]]
    pairs = len(psi_rows) // 2
    step = len(scratch)
    for start in range(0, len(psi_rows), step):
        rows = psi_rows[start : start + step]
        block = np.matmul(rows, phi, out=scratch[: len(rows)])
        np.square(block, out=block)
        block.sort(axis=1)
        p = start // 2
        lanes[p : p + len(block) // 2, :, 0] = block[0::2]
        lanes[p : p + len(block) // 2, :, 1] = block[1::2]
    if n % 2:
        lanes[pairs - 1, :, 1] = np.inf
    scan = lanes[:pairs].view(np.complex128)[..., 0]
    np.cumsum(scan, axis=1, out=scan)
    part = np.minimum(*lanes[:pairs].min(axis=0).T)  # over pairs, then lanes
    idx = np.flatnonzero(part < alpha)
    alpha[idx] = part[idx]
    width = max(1, _GATHER_BYTES // (16 * pairs))
    for start in range(0, len(idx), width):
        cols = idx[start : start + width]
        ranked = lanes[:pairs, cols, :].transpose(0, 2, 1).reshape(2 * pairs, len(cols))
        argmin[cols] = ranked.argmin(axis=0) + offset


def _net_psi_chunks(config: NetConfig, rows: int):
    """Yield (psi_rows, first_rank) batches of exactly ``rows`` points cut
    from the walker's stream: a block's short tail is carried into the
    next block, so only the last batch may be shorter."""
    offset, tail = 0, None
    for levels in _level_arrays(config):
        if tail is not None:
            levels = np.concatenate((tail, levels))
        cut = len(levels) - len(levels) % rows
        for start in range(0, cut, rows):
            batch = levels[start : start + rows]
            yield _psi_from_levels(batch, config), offset + start
        offset, tail = offset + cut, levels[cut:]
    if tail is not None and len(tail):
        yield _psi_from_levels(tail, config), offset


def resolve_threads(threads: int) -> int:
    """0 means auto: the CPU count; over 16 workers per CPU are refused."""
    cpus = os.cpu_count() or 1
    if not 0 <= threads <= 16 * cpus:
        raise InvalidInputError(f"threads must be in [0, {16 * cpus}], got {threads}")
    return threads or cpus


def sweep_all_K(
    frame: FrameMatrix,
    config: NetConfig,
    threads: int = 1,
    progress: bool = False,
) -> BoundsTable:
    """One pass over the net filling alpha_eps and its witnesses, whose
    table derives beta_eps by duality and the endpoints (:func:`certify`).

    The caller is responsible for the frame being signed-permutation
    invariant and unit-norm (frames.require_certifiable checks); only then
    do sector net points certify anything about the whole sphere, and only
    then is the frame tight (Schur's lemma: the group is irreducible),
    which beta_eps[K] = N/M - alpha_eps[N-K] needs.  beta_eps[N] is N/M
    exactly, with witness rank 0: every point attains the empty complement.

    One loop at every thread count: ``threads`` workers (the calling
    thread and threads - 1 started threads) each take, under one lock, the
    next batch of chunk_rows(N) points cut from the walker's stream (only
    the sweep's last batch is short) and fold it into minima and
    witnesses of their own, in a lane buffer of chunk_rows(N) x N values
    and a sort scratch of about _SORT_BYTES of their own; so the working
    set is about ``threads`` such pairs plus witness gathers of at most
    _GATHER_BYTES each.  The workers' results are merged once at the end by
    elementwise min, a tie going to the smaller rank, in any order.  Every
    row is multiplied in a block of at least two and each witness is the
    first attaining rank, so the four arrays depend only on the frame and
    the net: not on the thread count, the batch size, the sort-block size
    or the walker's slicing.  A worker that raises, the calling thread
    included when interrupted, closes the walker, so the others stop after
    their current batch, and the first exception is re-raised.  With
    ``progress`` a line goes to stderr each time the count of swept
    points passes a multiple of _PROGRESS_EVERY, and one final line gives
    the total.  A net for another M is refused before the walk starts;
    the net itself was checked when ``config`` was built (NetConfig).
    """
    if config.M != frame.M:
        raise InvalidInputError(f"net is for M={config.M}, frame has M={frame.M}")
    threads = resolve_threads(threads)
    rows = chunk_rows(frame.N)
    chunks = _net_psi_chunks(config, rows)
    lock = threading.Lock()  # guards chunks, done, shown, parts and errors
    parts, errors = [], []
    done = shown = 0

    def work():
        nonlocal done, shown
        alpha = np.full(frame.N, np.inf)
        argmin = np.full(frame.N, _NO_RANK, dtype=np.int64)
        buf = (
            np.empty(((rows + 1) // 2, frame.N, 2)),
            np.empty((_sort_rows(frame.N), frame.N)),
        )
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
                        parts.append((alpha, argmin))
                        return
                psi_rows, offset = batch
                points = len(psi_rows)
                _chunk_accumulate(frame.matrix, psi_rows, offset, alpha, argmin, buf)
        except BaseException as exc:  # re-raised by the calling thread
            with lock:
                chunks.close()
                errors.append(exc)

    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
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
    return BoundsTable(config, alpha, argmin, done)


def certify(table: BoundsTable) -> BoundsTable:
    """Set the certified endpoints, as every BoundsTable does when it is
    built, by the paper's formulas for a unit norm tight frame (its tables
    use them); calling it again on a table changes nothing:

        alpha_lower[K] = (alpha_eps[K] - eps^2 * N/M) / (1 - eps^2)
        beta_upper[K]  = min(N/M, beta_eps[K] / (1 - eps^2))

    Why they hold: x, a unit eigenvector of a K-subset's least eigenvalue
    alpha_K moved into the sector by the frame's symmetry, lies within eps
    of a net point psi = c*x + s*v (v a unit vector orthogonal to x,
    c^2 >= 1 - eps^2).  So alpha_eps[K] <= <psi, S psi> = c^2 * alpha_K +
    s^2 * <v, S v>, and <v, S v> <= N/M caps the rest.  beta_upper follows
    the same way from the largest eigenvalue.  A negative alpha_lower
    certifies nothing at that K.  Every NetConfig's net covers at its eps.
    """
    eps_sq, redundancy = table.config.epsilon_sq, table.N / table.config.M
    scale = 1.0 / (1.0 - eps_sq)
    table.alpha_lower = (table.alpha_eps - eps_sq * redundancy) * scale
    table.beta_upper = np.minimum(redundancy, table.beta_eps * scale)
    return table


def min_spanning_K(table: BoundsTable) -> Optional[int]:
    """Smallest K with a positive certified lower bound, if any.

    At that K every K-column submatrix is guaranteed to span R^M.
    """
    positive = np.flatnonzero(table.alpha_lower > 0)
    return int(positive[0]) + 1 if positive.size else None


def condition_number_bound(table: BoundsTable, K: int) -> Optional[float]:
    """beta_upper[K] / alpha_lower[K], or None without a lower certificate."""
    if not 1 <= K <= table.N:
        raise InvalidInputError(f"K={K} out of range 1..{table.N}")
    lower = table.alpha_lower[K - 1]
    if lower <= 0:
        return None
    return float(table.beta_upper[K - 1] / lower)


def _first_outside(table: BoundsTable, K, alpha, beta) -> Optional[int]:
    """The first of the ascending ``K`` whose ``alpha`` leaves [alpha_lower,
    alpha_eps] or whose ``beta`` leaves [beta_eps, beta_upper] by more than
    1e-9, the eigensolver's noise, or None: what a certificate must hold."""
    i, tol = K - 1, 1e-9
    inside = ((table.alpha_lower[i] <= alpha + tol) & (alpha <= table.alpha_eps[i] + tol)
              & (table.beta_eps[i] <= beta + tol) & (beta <= table.beta_upper[i] + tol))
    out = np.flatnonzero(~inside)
    return int(K[out[0]]) if out.size else None


def require_sandwich(table: BoundsTable, exact: dict) -> None:
    """Raise InvariantViolationError at the first K whose exact bounds
    ``exact[K] = (alpha_K, beta_K)`` leave the table's certificate
    (:func:`_first_outside`).  A K outside 1..N is refused with
    InvalidInputError."""
    for k in exact:
        if not 1 <= k <= table.N:
            raise InvalidInputError(f"K={k} out of range 1..{table.N}")
    K = np.array(sorted(exact), dtype=np.int64)
    k = _first_outside(table, K, *np.reshape([exact[k] for k in K], (-1, 2)).T)
    if k is not None:
        (a, b), i = exact[k], k - 1
        raise InvariantViolationError(
            f"sandwich violated at K={k}: alpha in [{table.alpha_lower[i]}, "
            f"{table.alpha_eps[i]}] vs {a}; beta in [{table.beta_eps[i]}, "
            f"{table.beta_upper[i]}] vs {b}"
        )


def _csv_header(table: BoundsTable) -> str:
    """The JSON header line and the column line that the writer writes for
    ``table``, without the last newline."""
    config = table.config
    meta = dict(M=config.M, N=table.N, epsilon_sq=config.epsilon_sq, L=config.L,
                delta=config.delta, net_points_used=table.net_points_used)
    return ("# " + json.dumps(meta) + "\nK,alpha_eps,beta_eps,alpha_lower,"
            "beta_upper,trivial_lower,trivial_upper")


def _csv_body(table: BoundsTable) -> np.ndarray:
    """The N x 7 cells that the writer writes under :func:`_csv_header`."""
    N, nm = table.N, table.N / table.config.M
    k = np.arange(1, N + 1)
    return np.column_stack((k, table.alpha_eps, table.beta_eps, table.alpha_lower,
                            table.beta_upper, k - (N - nm), np.full(N, nm)))


def write_bounds_csv(table: BoundsTable, path) -> None:
    """Certified bounds CSV: the lines of :func:`_csv_header`, then one row
    of :func:`_csv_body` per K, each cell as %.17g: the lines that
    :func:`read_bounds_csv` holds a file to.

    Timing is deliberately left to the JSON run report so identical
    configurations produce byte-identical CSVs.
    """
    np.savetxt(path, _csv_body(table), fmt="%.17g", delimiter=",", comments="",
               header=_csv_header(table))


def read_bounds_csv(path) -> BoundsTable:
    """Read a CSV written by :func:`write_bounds_csv` into a certified
    table, held to that writer's rule.  The table is that of the NetConfig
    of the header's M, epsilon_sq and L, the header's net_points_used (an
    integer >= 1) and the file's alpha_eps, whose endpoints :func:`certify`
    sets; the body must be exactly the header's N lines, none blank, of 7
    finite cells.  Then the header and column lines must be _csv_header's
    byte for byte, every row _csv_body's cell for cell (endpoints too), and
    every K's endpoints must hold its estimates (:func:`_first_outside`),
    which an alpha_eps outside [0, N/M] breaks.  Witness ranks are not in
    the CSV and read as 0, argmax_r too."""
    try:
        with open(path) as fh:  # bytes not UTF-8 raise a ValueError too
            first, columns, *rows = fh.readlines()
        meta = json.loads(first[2:])
        for key in ("N", "net_points_used"):
            if type(meta[key]) is not int or meta[key] < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {meta[key]!r}")
        config = NetConfig(meta["M"], meta["epsilon_sq"], meta["L"])
        if len(rows) != meta["N"] or not all(map(str.strip, rows)):
            raise ValueError(f"the body must be N={meta['N']} lines, none blank")
        cols = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(
            f"{path}: malformed bounds CSV ({type(exc).__name__}: {exc})"
        ) from None
    n = len(rows)
    if cols.shape != (n, 7):
        raise InvalidInputError(
            f"{path}: expected {n} rows of 7 values, found shape {cols.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{path}: non-finite cell at K={bad[0] + 1}")
    table = BoundsTable(config, cols[:, 1], np.zeros(n, dtype=np.int64),
                        meta["net_points_used"])
    if first + columns != _csv_header(table) + "\n":
        raise InvalidInputError(f"{path}: header lines are not those its writer writes")
    bad = np.flatnonzero((cols != _csv_body(table)).any(axis=1))
    if bad.size:
        raise InvalidInputError(
            f"{path}: row {bad[0] + 1} of the body is not the row its writer writes"
        )
    k = _first_outside(table, np.arange(1, n + 1), table.alpha_eps, table.beta_eps)
    if k is not None:
        raise InvalidInputError(f"{path}: endpoints leave their estimates at K={k}")
    return table
