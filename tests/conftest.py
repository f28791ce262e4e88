import pytest

from nerfcert import (
    GeneratorSpec,
    exact_bounds_all_K,
    orbit_signed_permutations,
)


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="run long reproductions (several minutes)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="needs --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def oracle_5_20():
    """The GeneratorSpec(5, 2) frame (N=20) and its oracle results at
    every K: 2^20 - 1 subsets, about 2 s, computed once for the session."""
    frame = orbit_signed_permutations(GeneratorSpec(5, 2))
    return frame, exact_bounds_all_K(frame)
