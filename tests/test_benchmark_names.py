"""The names perfbench/child.py looks up must keep resolving.

child.py skips a name that has gone and reports its metrics as absent,
so a rename would silently blind the benchmark.  This list mirrors the
names it wraps in ``nerfcert.cli`` (CLI_NAMES) and the ones its probes
call in the layer modules.
"""

import importlib

import pytest

NAMES = [
    ("nerfcert.cli", "read_frame"),
    ("nerfcert.cli", "NetConfig.create"),
    ("nerfcert.cli", "sweep_all_K"),
    ("nerfcert.cli", "certify"),
    ("nerfcert.cli", "write_bounds_csv"),
    ("nerfcert.cli", "exact_bounds_all_K"),
    ("nerfcert.cli", "read_bounds_csv"),
    ("nerfcert.frames", "verify_group_invariance"),
    ("nerfcert.frames", "verify_untf"),
    ("nerfcert.epsnet", "pruned_cardinality"),
    ("nerfcert.bounds", "sweep_all_K"),
]


@pytest.mark.parametrize("module, name", NAMES)
def test_benchmark_name_resolves(module, name):
    obj = importlib.import_module(module)
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
