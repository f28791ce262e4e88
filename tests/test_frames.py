"""Orbit construction, tightness checks, and the canonical sector map."""

import math
from itertools import permutations, product

import numpy as np
import pytest

from nerfcert import (
    FrameMatrix,
    GeneratorSpec,
    canonicalize,
    orbit_signed_permutations,
    read_frame,
    verify_group_invariance,
    verify_untf,
    write_frame,
)
from nerfcert.errors import InvalidInputError

# 4 x 12 reference frame: every signed permutation of (1,1,0,0)/sqrt(2)
# that is distinct modulo negation, written out longhand.
_REFERENCE_4_12 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
        [0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, -1, 0, 0, 1, -1, 1, -1],
    ],
    dtype=float,
) / math.sqrt(2.0)


def _column_set(phi, decimals=9):
    """Columns as a frozenset modulo negation, for order-free comparison."""
    keys = set()
    for col in phi.T:
        a = np.round(col, decimals)
        b = np.round(-col, decimals)
        keys.add(max(tuple(a), tuple(b)))
    return keys


class TestGeneratorSpec:
    def test_orbit_sizes(self):
        assert GeneratorSpec(4, 2).orbit_size == 12
        assert GeneratorSpec(6, 3).orbit_size == 80
        assert GeneratorSpec(8, 4).orbit_size == 560
        assert GeneratorSpec(10, 5).orbit_size == 4032

    def test_generator_vector(self):
        g = GeneratorSpec(4, 2).generator()
        assert np.allclose(g, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        assert math.isclose(np.dot(g, g), 1.0)

    def test_rejects_bad_support(self):
        with pytest.raises(InvalidInputError):
            GeneratorSpec(4, 0)
        with pytest.raises(InvalidInputError):
            GeneratorSpec(4, 5)


class TestOrbit:
    def test_matches_reference_4_12(self):
        frame = orbit_signed_permutations(GeneratorSpec(4, 2))
        assert frame.matrix.shape == (4, 12)
        assert _column_set(frame.matrix) == _column_set(_REFERENCE_4_12)

    def test_no_duplicate_columns_modulo_negation(self):
        for spec in (GeneratorSpec(4, 2), GeneratorSpec(6, 3)):
            frame = orbit_signed_permutations(spec)
            assert len(_column_set(frame.matrix)) == spec.orbit_size

    def test_untf_report(self):
        for M, k in ((4, 2), (6, 3), (8, 4)):
            frame = orbit_signed_permutations(GeneratorSpec(M, k))
            report = verify_untf(frame)
            assert report.is_unit_norm
            assert report.is_tight
            assert report.frobenius_defect < 1e-12

    def test_tight_constant(self):
        frame = orbit_signed_permutations(GeneratorSpec(4, 2))
        assert math.isclose(frame.tight_constant, 3.0)
        op = frame.matrix @ frame.matrix.T
        assert np.allclose(op, 3.0 * np.eye(4), atol=1e-12)

    def test_group_invariance(self):
        for M, k in ((4, 2), (6, 3)):
            frame = orbit_signed_permutations(GeneratorSpec(M, k))
            assert verify_group_invariance(frame)

    def test_invariance_modulo_relabelling_only(self):
        # Column order and signs do not matter; moving one column off the
        # orbit by more than the tolerance does.
        rng = np.random.default_rng(3)
        phi = orbit_signed_permutations(GeneratorSpec(6, 3)).matrix
        phi = phi[:, rng.permutation(80)] * rng.choice((-1.0, 1.0), size=80)
        assert verify_group_invariance(FrameMatrix(phi))
        phi[2, 5] += 1e-6
        assert not verify_group_invariance(FrameMatrix(phi))

    def test_each_generator_is_checked(self):
        # Each frame is invariant under two of the three generators only.
        pairs = [np.eye(4)[:, i] + np.eye(4)[:, j]
                 for i in range(4) for j in range(i + 1, 4)]  # no sign flips
        first_two = np.eye(3)[:, :2]  # not invariant under the 3-cycle
        shifts = [np.roll([3.0, s, 0.0], r) for r in range(3)
                  for s in (1.0, -1.0)]  # cyclic, but not under the swap
        for cols in (np.column_stack(pairs), first_two,
                     np.column_stack(shifts)):
            cols = cols / np.linalg.norm(cols, axis=0)
            assert not verify_group_invariance(FrameMatrix(cols))

    def test_non_invariant_frame_detected(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(3, 7))
        phi /= np.linalg.norm(phi, axis=0)
        frame = FrameMatrix(phi)
        assert not verify_group_invariance(frame)


class TestFrameMatrix:
    def test_stored_c_contiguous(self, tmp_path):
        # One layout whatever the source: read_frame transposes its rows.
        phi = orbit_signed_permutations(GeneratorSpec(4, 2)).matrix
        frame = FrameMatrix(np.asfortranarray(phi))
        assert frame.matrix.flags.c_contiguous
        assert np.array_equal(frame.matrix, phi)
        write_frame(frame, tmp_path / "frame.txt")
        assert read_frame(tmp_path / "frame.txt").matrix.flags.c_contiguous


class TestCanonicalize:
    def test_sorted_absolute_values(self):
        x = np.array([0.3, -0.9, 0.1, -0.2])
        out = canonicalize(x)
        assert np.allclose(out, [0.1, 0.2, 0.3, 0.9])
        assert np.all(np.diff(out) >= 0)

    def test_exhaustive_orbit_maximum_m3(self):
        # The canonical point must be the lexicographic greatest image of x
        # under the full signed permutation group read right to left, which
        # for M=3 can be checked against all 48 group elements directly.
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            want = canonicalize(x)
            images = []
            for perm in permutations(range(3)):
                for signs in product((1.0, -1.0), repeat=3):
                    images.append(tuple(x[list(perm)] * signs))
            best = np.array(
                max(images, key=lambda im: tuple(reversed(im)))
            )
            assert np.allclose(want, best)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        once = canonicalize(x)
        assert np.allclose(once, canonicalize(once))

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            canonicalize(np.zeros(4))

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [np.inf, 1.0], [0.0, -np.inf]],
                             ids=["nan", "inf", "neg_inf"])
    def test_rejects_non_finite(self, x):
        # Sorting would put a NaN last and return it as an orbit point.
        with pytest.raises(InvalidInputError, match="non-finite entries"):
            canonicalize(np.array(x))


class TestFrameIO:
    def test_round_trip(self, tmp_path):
        frame = orbit_signed_permutations(GeneratorSpec(4, 2))
        path = tmp_path / "frame.txt"
        write_frame(frame, path)
        back = read_frame(path)
        assert back.M == 4 and back.N == 12
        assert np.array_equal(back.matrix, frame.matrix)

    def test_header(self, tmp_path):
        frame = orbit_signed_permutations(GeneratorSpec(4, 2))
        path = tmp_path / "frame.txt"
        write_frame(frame, path)
        assert path.read_text().splitlines()[0] == "4 12"

    def test_bytes_are_17_digit_columns(self, tmp_path):
        # Signed zero, 1e-300 and the smallest subnormal must print as
        # f-string ".17g" does, one column per line.
        matrix = np.array([[-0.0, 1e-300, 1 / 3], [5e-324, 0.1, -1e300]])
        path = tmp_path / "frame.txt"
        write_frame(FrameMatrix(matrix), path)
        expected = "2 3\n" + "".join(
            " ".join(f"{v:.17g}" for v in col) + "\n" for col in matrix.T
        )
        assert path.read_text() == expected

    def test_parse_is_bitwise_float(self, tmp_path):
        # The 10x4032 orbit relabelled: columns permuted and signed, so
        # the file holds "-0" entries as well as "0".
        phi = orbit_signed_permutations(GeneratorSpec(10, 5)).matrix
        rng = np.random.default_rng(0)
        signs = rng.choice((-1.0, 1.0), size=phi.shape[1])
        path = tmp_path / "frame.txt"
        write_frame(FrameMatrix(phi[:, rng.permutation(phi.shape[1])] * signs),
                    path)
        lines = path.read_text().splitlines()[1:]
        ref = np.array([[float(v) for v in line.split()] for line in lines]).T
        assert np.signbit(ref[ref == 0]).any() and not np.signbit(ref[ref == 0]).all()
        back = read_frame(path).matrix
        assert back.shape == (10, 4032)
        assert np.array_equal(back.view(np.int64), ref.view(np.int64))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 0\n0 1\n")
        with pytest.raises(InvalidInputError):
            read_frame(path)
