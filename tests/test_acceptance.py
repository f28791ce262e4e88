"""Acceptance gate: reference-value reproductions at pinned tolerances.

Each test prints one ``ACCEPTANCE CRITERION n: PASS`` line on success, so
a verbose run doubles as a checklist.  Reference values are frozen here
on purpose; they must never be regenerated from the code under test.

Known discrepancy: the reference pruned-net counts (criteria 1, 5 and 6)
are each exactly one larger than the number of step points that satisfy
the two pruning conditions.  An exact-arithmetic recount confirms the
smaller numbers, and the swept bounds still match every reference table,
so the extra reference point can never attain an extremum.  See the
"Known discrepancy" section of the README.  Those count assertions are
kept faithful to the reference data and fail honestly.
"""

import math
from itertools import permutations, product

import numpy as np
import pytest

from nerfcert import (
    GeneratorSpec,
    NetConfig,
    canonicalize,
    condition_number_bound,
    exact_bounds_all_K,
    min_levels,
    min_spanning_K,
    net_cardinality,
    orbit_signed_permutations,
    prune_check,
    pruned_cardinality,
    quantize_step,
    sweep_all_K,
    verify_covering,
    verify_group_invariance,
    verify_untf,
)
from nerfcert.cli import EXIT_OK, main

# ---------------------------------------------------------------------------
# Frozen reference data.

# (epsilon_sq, L, full cardinality, pruned cardinality) for M=4.
LEVEL_TABLE_M4 = [
    (2.0**-1, 6, 126, 45),
    (2.0**-2, 19, 7315, 1107),
    (2.0**-3, 47, 230300, 15916),
    (2.0**-4, 110, 6438740, 202628),
    (2.0**-5, 249, 164059875, 2366922),
]

# alpha_eps for the (4,12) frame, K = 1..12, rows by epsilon_sq.
ALPHA_EPS_4_12 = {
    2.0**-1: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              0.3821, 0.7275, 1.0039, 1.5811, 2.1068, 3.0000],
    2.0**-2: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              0.3824, 0.7193, 1.0003, 1.5213, 2.0325, 3.0000],
    2.0**-3: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              0.3821, 0.7192, 1.0000, 1.5085, 2.0117, 3.0000],
}

# Certified lower bounds for the same frame (redundancy cap N/M).
ALPHA_LOWER_4_12 = {
    2.0**-1: [-3.0000, -3.0000, -3.0000, -3.0000, -3.0000, -3.0000,
              -2.2358, -1.5451, -0.9921, 0.1621, 1.2135, 3.0000],
    2.0**-2: [-1.0000, -1.0000, -1.0000, -1.0000, -1.0000, -1.0000,
              -0.4901, -0.0409, 0.3337, 1.0284, 1.7100, 3.0000],
    2.0**-3: [-0.4286, -0.4286, -0.4286, -0.4286, -0.4286, -0.4286,
              0.0081, 0.3934, 0.7143, 1.2955, 1.8705, 3.0000],
}

MIN_SPANNING_4_12 = {2.0**-1: 10, 2.0**-2: 9, 2.0**-3: 7}

# Exact optimal lower bounds alpha_K for the (4,12) frame.
ALPHA_EXACT_4_12 = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                    0.3820, 0.7192, 1.0000, 1.5000, 2.0000, 3.0000]

# Certified lower bounds for the (6,80) frame at eps=1/2, K = 61..80.
ALPHA_LOWER_6_80_TAIL = [
    0.62, 1.22, 1.78, 2.30, 2.89, 3.38, 3.95, 4.46, 4.92, 5.33,
    6.06, 6.46, 7.20, 7.93, 8.64, 9.33, 10.25, 11.14, 12.03, 13.33,
]


@pytest.fixture(scope="module")
def frame_4_12():
    return orbit_signed_permutations(GeneratorSpec(4, 2))


def _certified_table(frame, eps_sq, threads=4):
    return sweep_all_K(frame, NetConfig.create(frame.M, eps_sq), threads=threads)


# ---------------------------------------------------------------------------
# Criterion 1: level counts and net cardinalities for M=4.


def test_criterion_1a_levels_and_full_cardinalities():
    for eps_sq, L, full, _ in LEVEL_TABLE_M4:
        assert min_levels(4, eps_sq) == L
        assert net_cardinality(4, L) == full
    print("ACCEPTANCE CRITERION 1a (levels, full counts): PASS")


def test_criterion_1b_pruned_cardinalities():
    mismatches = []
    for eps_sq, _, _, pruned in LEVEL_TABLE_M4:
        got = pruned_cardinality(NetConfig.create(4, eps_sq))
        if got != pruned:
            mismatches.append((eps_sq, pruned, got))
    if mismatches:
        print("ACCEPTANCE CRITERION 1b (pruned counts): FAIL")
        lines = [
            f"  eps_sq={e:g}: reference {want}, exact recount {got}"
            for e, want, got in mismatches
        ]
        pytest.fail(
            "pruned counts differ from the reference table by one; "
            "see the Known discrepancy section of the README\n"
            + "\n".join(lines)
        )
    print("ACCEPTANCE CRITERION 1b (pruned counts): PASS")


# ---------------------------------------------------------------------------
# Criterion 2: approximate lower bounds for the (4,12) frame.


def test_criterion_2_alpha_eps_rows(frame_4_12):
    for eps_sq, row in ALPHA_EPS_4_12.items():
        table = sweep_all_K(frame_4_12, NetConfig.create(4, eps_sq),
                            threads=4)
        got = table.alpha_eps
        assert np.max(np.abs(got - np.array(row))) <= 5e-5, eps_sq
    print("ACCEPTANCE CRITERION 2 (alpha_eps rows): PASS")


# ---------------------------------------------------------------------------
# Criterion 3: certified lower bounds and minimum spanning K.


def test_criterion_3_certified_rows(frame_4_12):
    for eps_sq, row in ALPHA_LOWER_4_12.items():
        table = _certified_table(frame_4_12, eps_sq)
        assert np.max(np.abs(table.alpha_lower - np.array(row))) <= 1e-4
        assert min_spanning_K(table) == MIN_SPANNING_4_12[eps_sq]
    print("ACCEPTANCE CRITERION 3 (certified rows): PASS")


# ---------------------------------------------------------------------------
# Criterion 4: exhaustive oracle ground truth.


def test_criterion_4_oracle_ground_truth(frame_4_12):
    results = exact_bounds_all_K(frame_4_12)
    assert len(results) == 12
    assert sum(r.subsets_examined for r in results) == 4095
    got = np.array([r.alpha for r in results])
    assert np.max(np.abs(got - np.array(ALPHA_EXACT_4_12))) <= 5e-5
    print("ACCEPTANCE CRITERION 4 (oracle alpha row): PASS")


# ---------------------------------------------------------------------------
# Criterion 5: the (6,80) frame at eps = 1/2.


def test_criterion_5_m6_run():
    frame = orbit_signed_permutations(GeneratorSpec(6, 3))
    config = NetConfig.create(6, 0.25)
    assert config.L == 21
    assert config.cardinality == 230230
    table = sweep_all_K(frame, config, threads=4)
    assert min_spanning_K(table) == 61
    tail = table.alpha_lower[60:80]
    assert np.max(np.abs(tail - np.array(ALPHA_LOWER_6_80_TAIL))) <= 1e-2
    cond = condition_number_bound(table, 61)
    assert abs(cond - 21.50) <= 0.5
    if table.net_points_used != 32372:
        print("ACCEPTANCE CRITERION 5 (M=6 run): FAIL on pruned count only")
        pytest.fail(
            f"pruned count {table.net_points_used} differs from the "
            "reference value 32372 by one; all swept bounds above match. "
            "See the Known discrepancy section of the README"
        )
    print("ACCEPTANCE CRITERION 5 (M=6 run): PASS")


# ---------------------------------------------------------------------------
# Criterion 6: the (8,560) frame at eps = 1/2 (slow).


@pytest.mark.slow
def test_criterion_6_m8_run():
    frame = orbit_signed_permutations(GeneratorSpec(8, 4))
    config = NetConfig.create(8, 0.25)
    assert config.L == 22
    assert config.cardinality == 4292145
    table = sweep_all_K(frame, config, threads=8)
    assert min_spanning_K(table) == 399
    # The reference value 1.17 is the certified lower bound at K=404,
    # which caps the frame operator condition number there by 60.
    assert abs(table.alpha_lower[403] - 1.17) <= 0.01
    assert condition_number_bound(table, 404) <= 60.0
    if table.net_points_used != 503487:
        print("ACCEPTANCE CRITERION 6 (M=8 run): FAIL on pruned count only")
        pytest.fail(
            f"pruned count {table.net_points_used} differs from the "
            "reference value 503487 by one; all swept bounds above match. "
            "See the Known discrepancy section of the README"
        )
    print("ACCEPTANCE CRITERION 6 (M=8 run): PASS")


# ---------------------------------------------------------------------------
# Criterion 7: property suite.


def test_criterion_7a_covering():
    for M in (3, 4, 6):
        config = NetConfig.create(M, 0.25)
        report = verify_covering(config, trials=10_000, rng_seed=1234)
        assert report.failures == 0
        assert report.prune_failures == 0
        assert report.min_inner_product >= math.sqrt(0.75)
    print("ACCEPTANCE CRITERION 7a (covering): PASS")


def test_criterion_7b_rearrangement():
    # Over the 48 signed permutations U in dimension 3, the correlation
    # <x, U psi> of two canonicalized vectors peaks at U = identity.
    rng = np.random.default_rng(99)
    config = NetConfig.create(3, 0.25)
    group = []
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            U = np.zeros((3, 3))
            for i, j in enumerate(perm):
                U[i, j] = signs[i]
            group.append(U)
    assert len(group) == 48
    for _ in range(100):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        x = canonicalize(x)
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        psi = quantize_step(canonicalize(y), config).psi
        at_identity = float(np.dot(x, psi))
        best = max(float(np.dot(x, U @ psi)) for U in group)
        assert at_identity >= best - 1e-12
    print("ACCEPTANCE CRITERION 7b (rearrangement): PASS")


def test_criterion_7c_sandwich(frame_4_12):
    oracle = exact_bounds_all_K(frame_4_12)
    for eps_sq in ALPHA_EPS_4_12:
        table = _certified_table(frame_4_12, eps_sq)
        for res in oracle:
            i = res.K - 1
            assert table.alpha_lower[i] <= res.alpha + 1e-9
            assert res.alpha <= table.alpha_eps[i] + 1e-9
            assert table.beta_eps[i] <= res.beta + 1e-9
            assert res.beta <= table.beta_upper[i] + 1e-9
    print("ACCEPTANCE CRITERION 7c (sandwich): PASS")


def test_criterion_7d_determinism(tmp_path):
    frame_path = tmp_path / "frame.txt"
    assert main(
        ["gen-frame", "-M", "4", "-k", "2", "-o", str(frame_path)]
    ) == EXIT_OK
    outputs = []
    for threads in ("1", "8"):
        csv = tmp_path / f"bounds{threads}.csv"
        assert main(
            [
                "estimate", "-f", str(frame_path), "--eps-sq", "0.25",
                "--threads", threads, "-o", str(csv),
            ]
        ) == EXIT_OK
        outputs.append(csv.read_bytes())
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE CRITERION 7d (determinism): PASS")


def test_criterion_7e_untf_identities():
    for M, k in ((4, 2), (6, 3), (8, 4)):
        frame = orbit_signed_permutations(GeneratorSpec(M, k))
        report = verify_untf(frame)
        assert report.is_unit_norm and report.is_tight
        assert verify_group_invariance(frame)
    print("ACCEPTANCE CRITERION 7e (UNTF identities): PASS")


# ---------------------------------------------------------------------------
# Criterion 8: the M=10 reproduction stays an optional script.


def test_criterion_8_m10_script_documented():
    import pathlib

    demo = (
        pathlib.Path(__file__).resolve().parent.parent
        / "demos"
        / "reproduce_m10_slow.py"
    )
    assert demo.is_file()
    text = demo.read_text()
    assert "4032" in text
    print("ACCEPTANCE CRITERION 8 (M=10 script documented): PASS")
