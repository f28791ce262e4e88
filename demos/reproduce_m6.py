"""Certify erasure robustness of the 80-vector frame in R^6.

The frame is the signed-permutation orbit of (1,1,1,0,0,0)/sqrt(3).
With eps = 1/2 the sweep proves that any 61 of the 80 vectors span R^6,
and bounds the frame operator condition number of every 61-subset by
roughly 21.5.  Checking the spanning claim by brute force would mean
rank-testing C(80,61) ~ 1.2e18 submatrices.

Run:  python demos/reproduce_m6.py
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
    frame = orbit_signed_permutations(GeneratorSpec(6, 3))
    require_certifiable(frame)
    config = NetConfig.create(6, 0.25)
    print(f"frame: 6 x {frame.N}; net: L = {config.L}, "
          f"{config.cardinality} step points before pruning")

    t0 = time.perf_counter()
    table = sweep_all_K(frame, config, threads=0)
    print(f"sweep of {table.net_points_used} pruned points took "
          f"{time.perf_counter() - t0:.2f} s")

    k = min_spanning_K(table)
    print(f"\nany {k} of the {frame.N} vectors span R^6")
    print(f"condition number of any {k}-subset frame operator is at most "
          f"{condition_number_bound(table, k):.2f}")

    print("\ncertified lower bounds for K = 61..80:")
    print("  " + " ".join(f"{table.alpha_lower[i]:.2f}"
                          for i in range(60, 80)))


if __name__ == "__main__":
    main()
