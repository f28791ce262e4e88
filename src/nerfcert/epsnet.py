"""Quantized step-function epsilon-nets for the nonnegative nondecreasing
sector of the unit sphere.

A net point is a nondecreasing step function on {1,..,M} with values in
{delta^l : l = 0..L-1}, normalized to unit length.  Exponentially spaced
levels make the rounded-up quantization of any sector point land within
chordal distance epsilon, once L satisfies the level-count inequality of
:func:`min_levels`.  The net is the compositions of M into L nonnegative
parts (stars and bars) that pass two necessary pruning conditions every
rounded-up quantization obeys.  Its one representation is the rows of
ascending level exponents that :func:`_level_arrays` walks; the sweep
scores them and :class:`StepPoint` wraps one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError

LEVEL_SEARCH_CAP = 10**6

# Conservative slack for branch-and-bound cuts; boundary-adjacent leaves
# are re-evaluated with exactly rounded sums (math.fsum).
_BB_MARGIN = 1e-12
# Children per frontier slice: bounds the walk's memory (0.25 MiB traced,
# under 0.3 MiB, for the 503,486 points of M=8 at eps^2 1/4).
_SLICE_NODES = 2**10

__all__ = [
    "NetConfig",
    "StepPoint",
    "CoveringReport",
    "min_levels",
    "delta_for",
    "net_cardinality",
    "pruned_cardinality",
    "quantize_step",
    "prune_check",
    "verify_covering",
]


def min_levels(M: int, epsilon_sq: float) -> int:
    """Smallest L >= 2 with (L-1)(1-eps^2)^L <= (1/M)((L-1)/L)^L.

    epsilon_sq is the squared net radius (the tables of interest are
    indexed by eps^2).  Scans linearly from L = 2; raises
    InvalidInputError past the hard cap.
    """
    if M < 1:
        raise InvalidInputError(f"M must be positive, got {M}")
    if not 0.0 < epsilon_sq < 1.0:
        raise InvalidInputError(f"epsilon_sq must lie in (0,1), got {epsilon_sq}")
    for L in range(2, LEVEL_SEARCH_CAP + 1):
        if _levels_cover(M, epsilon_sq, L):
            return L
    raise InvalidInputError(
        f"no admissible L <= {LEVEL_SEARCH_CAP} for M={M}, eps^2={epsilon_sq}"
    )


def _levels_cover(M: int, epsilon_sq: float, L: int) -> bool:
    """:func:`min_levels`' inequality at L; true from min_levels(M, eps^2) on."""
    return (L - 1) * (1.0 - epsilon_sq) ** L <= ((L - 1) / L) ** L / M


def delta_for(M: int, L: int) -> float:
    """Base level ratio delta = [M(L-1)]^(-1/(2L)).

    Computed as exp(-ln(M(L-1))/(2L)) for cross-platform reproducibility.
    """
    if M < 1 or L < 2 or M * (L - 1) < 2:
        raise InvalidInputError(
            f"need M >= 1, L >= 2 and M(L-1) >= 2 (else delta = 1), got M={M}, L={L}"
        )
    return math.exp(-math.log(M * (L - 1)) / (2 * L))


def net_cardinality(M: int, L: int) -> int:
    """Exact count C(M+L-1, L-1) of compositions of M into L parts."""
    if M < 1 or L < 2:
        raise InvalidInputError(f"need M >= 1 and L >= 2, got M={M}, L={L}")
    return math.comb(M + L - 1, L - 1)


@dataclass(frozen=True)
class NetConfig:
    """Step-function net parameters, valid by construction: InvalidInputError
    unless M >= 1 and L >= 2 are ints, 0 < epsilon_sq < 1, delta_for(M, L)
    < 1 and L passes :func:`min_levels`' inequality, so the net covers the
    sector at radius eps.  ``level_powers`` caches delta^l for l < L so the
    enumeration hot loop never calls transcendentals.
    """

    M: int
    epsilon_sq: float
    L: int

    def __post_init__(self):
        M, eps_sq, L = self.M, self.epsilon_sq, self.L
        if type(M) is not int or type(L) is not int or M < 1 or L < 2:
            raise InvalidInputError(f"need integers M >= 1 and L >= 2, got {self}")
        if not (isinstance(eps_sq, (int, float)) and 0 < eps_sq < 1):
            raise InvalidInputError(f"epsilon_sq must lie in (0,1), got {eps_sq!r}")
        delta_for(M, L)  # refuses M(L-1) = 1, where delta would be 1
        if not _levels_cover(M, eps_sq, L):
            raise InvalidInputError(f"{self}: L is below min_levels(M, epsilon_sq)")

    @classmethod
    def create(cls, M: int, epsilon_sq: float) -> "NetConfig":
        return cls(M, epsilon_sq, min_levels(M, epsilon_sq))

    @cached_property
    def delta(self) -> float:
        return delta_for(self.M, self.L)

    @cached_property
    def level_powers(self) -> np.ndarray:
        powers = self.delta ** np.arange(self.L)
        powers.flags.writeable = False
        return powers

    @property
    def cardinality(self) -> int:
        return net_cardinality(self.M, self.L)


@dataclass(frozen=True)
class StepPoint:
    """One net element.

    ``levels`` is a walker row: the level exponents in ascending order, so
    entry M comes first.  ``psi`` is that row's unit-norm point reversed
    into the sector's nondecreasing order.  The walker-order row
    ``psi[::-1]`` is the row the sweep scored, and the only order whose
    sorted_squared_correlations reproduce its bits: against an invariant
    frame ``psi`` has the same correlations, but each is summed over the
    entries in another order and may round differently.
    """

    levels: tuple
    psi: np.ndarray

    @classmethod
    def from_ascending_levels(
        cls, levels: Sequence[int], config: NetConfig
    ) -> "StepPoint":
        """Build from M integer level exponents in 0..L-1, sorted ascending
        (entry M first), as the walker yields them."""
        levels = tuple(levels)
        row = np.array([levels])
        if (row.dtype.kind not in "iu" or row.shape != (1, config.M)
                or row[0, 0] < 0 or row[0, -1] >= config.L
                or np.any(row[0, 1:] < row[0, :-1])):
            raise InvalidInputError(
                f"levels {levels} are not {config.M} ascending integers "
                f"in 0..{config.L - 1}"
            )
        psi = _psi_from_levels(row, config)[0, ::-1]
        return cls(levels, psi)


def _psi_from_levels(levels: np.ndarray, config: NetConfig) -> np.ndarray:
    """Unit-norm net points, one row per row of ascending level exponents.

    The one psi construction: the sweep and :func:`verify_covering` score
    these rows and StepPoint reverses one, so a rebuilt witness is bitwise
    the vector swept.  The norm is np.linalg.norm's arithmetic for real
    rows, without its conj() copy of the batch.
    """
    psi = config.level_powers[levels]
    psi /= np.sqrt(np.add.reduce(psi * psi, axis=1, keepdims=True))
    return psi


def quantize_step(x: np.ndarray, config: NetConfig) -> StepPoint:
    """Round a sector point up onto the step-function grid.

    Each entry maps to delta^l with delta^(l+1) < x(m) <= delta^l, entries
    at or below delta^(L-1) map to the bottom level.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input has non-finite entries")
    if x.shape != (config.M,):
        raise InvalidInputError(f"expected a vector of length {config.M}")
    if np.any(x < 0) or np.any(np.diff(x) < 0):
        raise InvalidInputError("input must be nonnegative and nondecreasing")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise InvalidInputError("input must have unit norm")
    levels = _quantize_levels(x[None, :], config)[0]
    return StepPoint.from_ascending_levels(levels.tolist(), config)


def _quantize_levels(X: np.ndarray, config: NetConfig) -> np.ndarray:
    """Walker rows (ascending level exponents) quantizing sector points."""
    ascending = config.level_powers[::-1]  # delta^(L-1) .. delta^0 = 1
    idx = np.searchsorted(ascending, X[:, ::-1], side="left")
    idx = np.minimum(idx, config.L - 1)  # x <= delta^(L-1) clamps to bottom
    return (config.L - 1) - idx


def prune_check(step: StepPoint, config: NetConfig) -> bool:
    """Necessary conditions on rounded-up quantizations.

    With psi_hat(m) = delta^level(m) before normalization:
    ||psi_hat||^2 >= 1 and delta^2 * sum of psi_hat(m)^2 over entries
    above the bottom level <= 1.  Comparisons use exactly rounded sums
    with no tolerance slack; boundary points are kept.
    """
    return _leaf_passes(step.levels, config)


def _leaf_passes(levels, config: NetConfig) -> bool:
    """Canonical prune test for one level tuple (any order)."""
    sq = config.level_powers**2
    norm_sq = fsum(sq[l] for l in levels)
    top_sq = fsum(sq[l] for l in levels if l < config.L - 1)
    return norm_sq >= 1.0 and config.delta * config.delta * top_sq <= 1.0


def _leaf_mask(levels: np.ndarray, s, top, config: NetConfig) -> np.ndarray:
    """:func:`_leaf_passes` on rows of levels with masses s and top masses
    summed in any order: rounding cannot decide, since rows within
    _BB_MARGIN of either boundary are re-checked with exact sums."""
    dsq = config.delta * config.delta
    keep = (s >= 1.0) & (dsq * top <= 1.0)
    near = np.abs(s - 1.0) <= _BB_MARGIN
    near |= np.abs(dsq * top - 1.0) <= _BB_MARGIN
    for i in np.flatnonzero(near).tolist():
        keep[i] = _leaf_passes(levels[i].tolist(), config)
    return keep


def _level_arrays(config: NetConfig) -> Iterator[np.ndarray]:
    """Yield the net's ascending level tuples, in lexicographic order, as
    rows of integer arrays.

    A frontier of prefixes grows one entry at a time, children in level
    order after their parent.  The walk is a branch-and-bound: a node
    dies once its top-level mass exceeds the cap, its children stop where
    even all t remaining entries at that level cannot reach unit mass, and
    leaves pass :func:`_leaf_mask`.
    Masses are summed in prefix order, the floats of a per-point walk.
    Frontiers are cut into slices of about _SLICE_NODES children, walked
    depth first from a stack, so memory stays bounded: under 0.3 MiB for
    the 503,486 points of M=8 at eps^2 1/4 (0.25 MiB traced).  A frontier
    is counted once: its slices carry their children counts to expansion.
    """
    M, L = config.M, config.L
    dtype = np.int16 if L <= np.iinfo(np.int16).max else np.int32
    sq = config.level_powers**2
    sq_top = np.append(sq[:-1], 0.0)  # the bottom level adds no top mass
    dsq = config.delta * config.delta
    # Each entry: prefixes, their last levels, masses s, top masses and,
    # for a slice of a frontier already counted, its children counts.
    # Levels and counts keep the level dtype: no count exceeds L.
    root = np.empty((1, 0), dtype), np.zeros(1, dtype), np.zeros(1), np.zeros(1)
    stack = [(*root, None)]
    while stack:
        prefix, lmin, s, top, counts = stack.pop()
        t = M - prefix.shape[1]
        if t == 0:
            prefix = prefix[_leaf_mask(prefix, s, top, config)]
            if len(prefix):
                yield prefix
            continue
        if counts is None:
            # Levels below k reach s + t*sq >= 1 - margin; -t*sq ascends as delta < 1.
            k = np.searchsorted(-t * sq, s - (1.0 - _BB_MARGIN), side="right")
            counts = np.maximum(k - lmin, 0, dtype=dtype)
            counts[top > 1.0 / dsq + _BB_MARGIN] = 0  # dead nodes have none
            first = np.cumsum(counts) - counts
            cuts = np.flatnonzero(np.diff(first // _SLICE_NODES)) + 1
            if len(cuts):  # push the slices so that the first is walked first
                edges = [0, *cuts.tolist(), len(counts)]
                for a, b in reversed(list(zip(edges, edges[1:]))):
                    stack.append(
                        (prefix[a:b], lmin[a:b], s[a:b], top[a:b], counts[a:b])
                    )
                continue
        else:
            first = np.cumsum(counts) - counts
        parent = np.repeat(np.arange(len(counts)), counts)
        level = np.arange(len(parent)) - first[parent]
        level += lmin[parent]
        child = np.empty((len(parent), M - t + 1), dtype)
        child[:, :-1], child[:, -1] = prefix[parent], level
        s, top = s[parent] + sq[level], top[parent] + sq_top[level]
        stack.append((child, child[:, -1], s, top, None))


def pruned_cardinality(config: NetConfig) -> int:
    """Exact number of net points passing :func:`prune_check`."""
    return sum(len(a) for a in _level_arrays(config))


def volumetric_bound_log(M: int, epsilon: float) -> float:
    """Natural log of the volumetric cover-size bound
    (1/M!)(M + sqrt(M)/eps)^M; diagnostic only, in logs to dodge overflow.
    """
    if M < 1 or epsilon <= 0:
        raise InvalidInputError(
            f"need M >= 1 and epsilon > 0, got M={M}, epsilon={epsilon}"
        )
    return M * math.log(M + math.sqrt(M) / epsilon) - math.lgamma(M + 1)


@dataclass(frozen=True)
class CoveringReport:
    trials: int
    min_inner_product: float
    failures: int
    prune_failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.prune_failures == 0


def verify_covering(
    config: NetConfig, trials: int, rng_seed: int
) -> CoveringReport:
    """Monte-Carlo check of the covering guarantee.

    Samples uniform sphere points, folds them into the sector, quantizes,
    and verifies <x, psi_x> >= sqrt(1 - eps^2) and that each quantization
    passes the prune conditions.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    X = rng.standard_normal((trials, config.M))
    X = np.abs(X)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X.sort(axis=1)  # canonical sector representatives
    levels = _quantize_levels(X, config)
    psi = _psi_from_levels(levels, config)[:, ::-1]
    inner = np.einsum("ij,ij->i", X, psi)
    threshold = math.sqrt(1.0 - config.epsilon_sq)
    failures = int(np.sum(inner < threshold))

    sq_rows = config.level_powers[levels] ** 2
    top = np.where(levels < config.L - 1, sq_rows, 0.0).sum(axis=1)
    keep = _leaf_mask(levels, sq_rows.sum(axis=1), top, config)
    prune_failures = int(np.sum(~keep))

    return CoveringReport(
        trials=trials,
        min_inner_product=float(inner.min()),
        failures=failures,
        prune_failures=prune_failures,
    )
