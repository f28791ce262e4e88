"""Certify the 560-vector frame in R^8 (a few minutes of compute).

The frame is the signed-permutation orbit of the vector with eight
entries, four of them 1/2.  With eps = 1/2 the net has 4292145 step
points of which about half a million survive pruning; sweeping them
proves that any 399 of the 560 vectors span R^8 and that every
404-subset has frame operator condition number at most 60.  The direct
route would be examining C(560,404) ~ 2.8e142 submatrices.

Run:  python demos/reproduce_m8_slow.py
"""

import time

from nerfcert import (
    GeneratorSpec,
    NetConfig,
    condition_number_bound,
    min_spanning_K,
    orbit_signed_permutations,
    require_certifiable,
    sweep_all_K,
)


def main():
    frame = orbit_signed_permutations(GeneratorSpec(8, 4))
    require_certifiable(frame)
    config = NetConfig.create(8, 0.25)
    print(f"frame: 8 x {frame.N}; net: L = {config.L}, "
          f"{config.cardinality} step points before pruning")

    t0 = time.perf_counter()
    table = sweep_all_K(frame, config, threads=0, progress=True)
    print(f"sweep of {table.net_points_used} pruned points took "
          f"{time.perf_counter() - t0:.1f} s")

    k = min_spanning_K(table)
    print(f"\nany {k} of the {frame.N} vectors span R^8")
    print(f"certified lower bound at K = 404: {table.alpha_lower[403]:.4f}")
    print(f"condition number of any 404-subset frame operator is at most "
          f"{condition_number_bound(table, 404):.1f}")


if __name__ == "__main__":
    main()
