"""Signed-permutation-invariant unit-norm tight frames.

A frame here is an M x N real matrix whose columns are unit vectors.  The
frames built by :func:`orbit_signed_permutations` are orbits of a sparse
generator (k entries equal to 1/sqrt(k)) under the group of signed
permutation matrices, keeping one representative per +/- pair.  Such
orbits are unit norm tight frames because the signed permutation group is
irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import InvalidInputError

UNIT_NORM_TOL = 1e-12
TIGHT_TOL = 1e-9
INVARIANCE_TOL = 1e-9

__all__ = [
    "GeneratorSpec",
    "FrameMatrix",
    "UntfReport",
    "orbit_signed_permutations",
    "verify_untf",
    "verify_group_invariance",
    "require_certifiable",
    "canonicalize",
    "read_frame",
    "write_frame",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """Sparse orbit generator: k entries of 1/sqrt(k) in dimension M."""

    M: int
    k: int

    def __post_init__(self):
        if self.M < 1:
            raise InvalidInputError(f"dimension M must be positive, got {self.M}")
        if not 1 <= self.k <= self.M:
            raise InvalidInputError(
                f"support size k must satisfy 1 <= k <= M, got k={self.k}, M={self.M}"
            )

    def generator(self) -> np.ndarray:
        """Unit-norm generator vector: k leading entries 1/sqrt(k)."""
        g = np.zeros(self.M)
        g[: self.k] = 1.0 / math.sqrt(self.k)
        return g

    @property
    def orbit_size(self) -> int:
        """Number of signed permutations distinct modulo negation."""
        return 2 ** (self.k - 1) * math.comb(self.M, self.k)


@dataclass
class FrameMatrix:
    """An M x N matrix of unit-norm columns.

    ``tight_constant`` is N/M for tight frames and is only meaningful when
    :func:`verify_untf` reports tightness.
    """

    matrix: np.ndarray  # shape (M, N)

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.size == 0:
            raise InvalidInputError("frame must be a nonempty 2-D array")
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidInputError("frame has non-finite entries")

    @property
    def M(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]

    @property
    def tight_constant(self) -> float:
        return self.N / self.M


@dataclass(frozen=True)
class UntfReport:
    is_unit_norm: bool
    is_tight: bool
    frobenius_defect: float
    max_norm_defect: float


def orbit_signed_permutations(spec: GeneratorSpec) -> FrameMatrix:
    """All signed permutations of the generator, distinct modulo negation.

    Columns are emitted with support sets in lexicographic order; within a
    support, the entry at the smallest index is forced positive and the
    remaining k-1 signs run in binary order (0 bit = +).  The column count
    is spec.orbit_size = 2^(k-1) * C(M, k); an orbit numpy cannot hold is
    refused before its supports are listed.
    """
    # phi[m, c, s]: entry m of the column on support c with sign row s.
    try:
        phi = np.zeros((spec.M, math.comb(spec.M, spec.k), 2 ** (spec.k - 1)))
    except (MemoryError, ValueError):
        raise InvalidInputError(
            f"the orbit of {spec.orbit_size} columns is too large to allocate"
        ) from None
    supports = np.array(list(combinations(range(spec.M), spec.k)))
    signs = np.array([(1, *s) for s in product((1, -1), repeat=spec.k - 1)])
    phi[supports, np.arange(len(supports))[:, None]] = (
        signs * spec.generator()[: spec.k]
    ).T
    return FrameMatrix(phi.reshape(spec.M, spec.orbit_size))


def verify_untf(frame: FrameMatrix) -> UntfReport:
    """Check unit norms and tightness of the frame operator.

    Tight means ||Phi Phi* - (N/M) I||_F <= TIGHT_TOL.
    """
    phi = frame.matrix
    norms = np.linalg.norm(phi, axis=0)
    max_norm_defect = float(np.max(np.abs(norms - 1.0)))
    gram = phi @ phi.T
    defect = float(
        np.linalg.norm(gram - frame.tight_constant * np.eye(frame.M))
    )
    return UntfReport(
        is_unit_norm=max_norm_defect <= UNIT_NORM_TOL,
        is_tight=defect <= TIGHT_TOL,
        frobenius_defect=defect,
        max_norm_defect=max_norm_defect,
    )


def _sorted_columns(phi: np.ndarray) -> np.ndarray:
    """Columns as rows in canonical sign (first entry above INVARIANCE_TOL
    positive), sorted by their entries rounded to the INVARIANCE_TOL grid."""
    cols = phi.T.copy()
    lead = np.argmax(np.abs(cols) > INVARIANCE_TOL, axis=1)
    cols[cols[np.arange(len(cols)), lead] < 0] *= -1.0
    return cols[np.lexsort(np.round(cols / INVARIANCE_TOL).T[::-1])]


def verify_group_invariance(frame: FrameMatrix) -> bool:
    """Check invariance under signed permutations on a generating set.

    The transposition of rows 0 and 1, the M-cycle and the negation of
    row 0 generate the group, so it suffices that each maps the columns,
    modulo negation, onto themselves.  Both column sets are sorted the
    same way and paired in order; that pairing is a bijection, so a pass
    proves invariance within INVARIANCE_TOL.  Rounding the sort key can
    only refuse a noisy frame, never accept a bad one.
    """
    phi = frame.matrix
    base = _sorted_columns(phi)
    swap = [1, 0, *range(2, frame.M)] if frame.M > 1 else [0]
    flip = np.ones((frame.M, 1))
    flip[0] = -1.0
    for acted in (phi[swap], np.roll(phi, 1, axis=0), flip * phi):
        if np.max(np.abs(_sorted_columns(acted) - base)) > INVARIANCE_TOL:
            return False
    return True


def require_certifiable(frame: FrameMatrix) -> None:
    """Raise InvalidInputError unless the frame is invariant, unit norm
    and tight, the frames the sweep certifies.  Invariance within
    INVARIANCE_TOL does not bound the frame-operator defect; the tightness
    test does."""
    if not verify_group_invariance(frame):
        raise InvalidInputError(
            "frame is not invariant under signed permutations"
        )
    untf = verify_untf(frame)
    if not untf.is_unit_norm:
        raise InvalidInputError("frame columns are not unit norm")
    if not untf.is_tight:
        raise InvalidInputError(
            f"frame is not tight (defect {untf.frobenius_defect:.3g})"
        )


def canonicalize(x: np.ndarray) -> np.ndarray:
    """Map x to its signed-permutation-orbit representative.

    Returns |x| sorted nondecreasingly, the unique orbit point with
    nonnegative nondecreasing entries.  Norm is preserved.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input has non-finite entries")
    if not np.any(x):
        raise InvalidInputError("cannot canonicalize the zero vector")
    return np.sort(np.abs(x))


def write_frame(frame: FrameMatrix, path) -> None:
    """Write the plain-text frame format: 'M N' then one column per line."""
    np.savetxt(path, frame.matrix.T, fmt="%.17g", comments="",
               header=f"{frame.M} {frame.N}")


def read_frame(path) -> FrameMatrix:
    """Read the plain-text frame format, rejecting mismatched counts.

    The body is parsed by np.loadtxt with no comment character, so a
    line starting with '#' is refused rather than skipped."""
    try:
        with open(path) as fh:  # bytes not UTF-8 raise a ValueError too
            header = fh.readline().split()
            body = fh.read()
        if len(header) != 2:
            raise ValueError("expected header 'M N'")
        m, n = int(header[0]), int(header[1])
        rows = (
            np.loadtxt(body.splitlines(), ndmin=2, comments=None)
            if body.strip()
            else np.empty((0, m))
        )
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    if rows.shape[1] != m:
        raise InvalidInputError(
            f"{path}: column with {rows.shape[1]} entries, expected {m}"
        )
    if len(rows) != n:
        raise InvalidInputError(f"{path}: found {len(rows)} columns, expected {n}")
    return FrameMatrix(rows.T)
