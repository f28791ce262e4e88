"""Certify the 4032-vector frame in R^10 (several minutes, projected).

This is the largest documented reproduction and is deliberately not part
of the test suite.  The frame is the signed-permutation orbit of the
vector with ten entries, five of them 1/sqrt(5), giving N = 4032 unit
vectors in R^10.  With eps = 1/2 the level search settles on L = 23,
a 64512240-point step net, and 5868677 points after pruning.
Sweeping them certifies that any K = 2883 of the 4032 vectors form a
frame for R^10.  For scale, the number of such subsets is C(4032,2883),
on the order of 10^1044, so exhaustive checking is out of the question.

Run:  python demos/reproduce_m10_slow.py
The runtime is a projection, not a timed full run.  `nerf-cert estimate
--report` on the same frame at eps^2 = 0.45 (12614 points) gives
rates.sweep_points_per_s of about 15100 on one thread and 20900 on two,
on a 2-vCPU VM with one BLAS thread.  At those rates the 5868677 points
here take about 6.5 minutes on one thread and 4.7 on two; walking the
net itself adds under two seconds.
Progress is printed every hundred thousand net points, and the sweep
runs on one thread per CPU.
"""

import time

from nerfcert import (
    GeneratorSpec,
    NetConfig,
    min_spanning_K,
    orbit_signed_permutations,
    require_certifiable,
    sweep_all_K,
)


def main():
    frame = orbit_signed_permutations(GeneratorSpec(10, 5))
    require_certifiable(frame)
    config = NetConfig.create(10, 0.25)
    print(f"frame: 10 x {frame.N}; net: L = {config.L}, "
          f"{config.cardinality} step points before pruning")

    t0 = time.perf_counter()
    table = sweep_all_K(frame, config, threads=0, progress=True)
    print(f"sweep of {table.net_points_used} pruned points took "
          f"{time.perf_counter() - t0:.0f} s")

    k = min_spanning_K(table)
    print(f"\nany {k} of the {frame.N} vectors span R^10")
    print(f"certified lower bound at K = 2883: "
          f"{table.alpha_lower[2882]:.4f}")


if __name__ == "__main__":
    main()
