"""Walk through the full certification pipeline on the smallest frame.

The frame is the orbit of (1,1,0,0)/sqrt(2) under signed permutations:
12 unit vectors in R^4 forming a tight frame with redundancy 3.  Because
N is tiny we can afford the exhaustive oracle, so this demo shows the
certified intervals actually containing the exact optimal bounds.

Run:  python demos/certify_4_12.py
"""

from nerfcert import (
    GeneratorSpec,
    NetConfig,
    exact_bounds_all_K,
    min_spanning_K,
    orbit_signed_permutations,
    pruned_cardinality,
    require_certifiable,
    sweep_all_K,
    verify_untf,
)
from nerfcert.bounds import require_sandwich


def main():
    spec = GeneratorSpec(4, 2)
    frame = orbit_signed_permutations(spec)
    require_certifiable(frame)
    report = verify_untf(frame)
    print(f"frame: {frame.M} x {frame.N}, redundancy {frame.N / frame.M}")
    print(f"tightness defect: {report.frobenius_defect:.2e}")

    eps_sq = 2.0**-3
    config = NetConfig.create(4, eps_sq)
    print(f"\nnet: eps^2 = {eps_sq}, L = {config.L}, "
          f"{pruned_cardinality(config)} of {config.cardinality} "
          "step points survive pruning")

    table = sweep_all_K(frame, config)
    exact = exact_bounds_all_K(frame)

    print(f"\nmin spanning K: {min_spanning_K(table)} "
          "(every that many columns span R^4)")
    print("\n  K  lower     alpha_K   alpha_eps   beta_eps  beta_K    upper")
    for res in exact:
        i = res.K - 1
        print(
            f" {res.K:3d}  {table.alpha_lower[i]: .4f}  {res.alpha: .4f}"
            f"   {table.alpha_eps[i]: .4f}    {table.beta_eps[i]:.4f}"
            f"   {res.beta:.4f}   {table.beta_upper[i]:.4f}"
        )

    # Raises InvariantViolationError at the first K outside its interval.
    require_sandwich(table, {r.K: (r.alpha, r.beta) for r in exact})
    print("\ncertified intervals contain the exact bounds at every K")


if __name__ == "__main__":
    main()
