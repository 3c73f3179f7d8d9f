"""Tour of the two jump tests on synthetic paths.

Shows, for a continuous day and a day with one large jump:
  * the moment-level statistics (pre-averaged returns, chi, xi) and where
    they cross the Gumbel threshold,
  * the day-level ratio statistic against its two limits (1 under jumps,
    gamma'' on continuous paths) and its critical value.

Run:  python demos/detector_tour.py
"""
import numpy as np

from hfjumps.ajl import AjlParams, ajl_test
from hfjumps.lee_mykland import LmParams, dedup_consecutive, lm_scan, select_k
from hfjumps.simulate import SimConfig, simulate_day

N = 86_400
SIGMA, Q = 0.04, 0.0005


def s_j_ratio(log_prices, p=4, k=2):
    """Non-robust power-variation ratio B(p, k*Delta)/B(p, Delta).

    It tends to 1 under jumps and k^{p/2-1} on a continuous path, but
    microstructure noise breaks it, which is why the pipeline uses S_RJ
    instead.
    """
    num = np.sum(np.abs((log_prices[k:] - log_prices[:-k])[::k]) ** p)
    den = np.sum(np.abs(np.diff(log_prices)) ** p)
    return float(num / den)


def main():
    continuous = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=N, seed=1))
    jumpy = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=N, seed=1,
                                   jump_times=(0.5,), jump_sizes=(0.4,)))

    for label, sim in (("continuous", continuous), ("one 10-sigma jump", jumpy)):
        prices = sim.observed
        print(f"=== {label} day, n={N} ===")

        # ---- moment-level test -------------------------------------------------
        k = select_k(prices)
        params = LmParams.for_series(N, k)
        scan = lm_scan(prices, params)
        noise = scan.noise
        print(f"k={k} (autocorrelation rule), M={params.M}, "
              f"q_hat={np.sqrt(noise.q_hat_sq):.6f}, "
              f"sigma_hat={np.sqrt(noise.sigma_hat_sq):.4f}, V_n={scan.v_n:.3e}")
        print(f"blocks={scan.n_blocks}, max xi={scan.xi.max():.2f}, "
              f"threshold={scan.threshold:.2f} (Bonferroni within day)")
        accepted = dedup_consecutive(scan.moments)
        for j in accepted:
            frac = j * params.k * params.M / N
            print(f"  jump flag: block {j} (~{24 * frac:.2f}h UTC), "
                  f"size {scan.pbar[j]:+.4f}, xi {scan.xi[j]:.1f}")
        if not accepted:
            print("  no moment-level flags")

        # ---- day-level test ----------------------------------------------------
        ap = AjlParams()
        r = ajl_test(prices, ap)
        print(f"S_RJ={r.s_rj:.4f}  (jump limit 1, continuous limit "
              f"gamma''={r.gamma_dprime:.4f}); critical={r.critical_value:.4f} "
              f"-> reject no-jump null: {r.reject_null}")

        # ---- the non-robust diagnostic ratio ----------------------------------
        raw = s_j_ratio(sim.latent, p=4, k=2)
        noisy = s_j_ratio(prices, p=4, k=2)
        print(f"non-robust ratio S_J: latent path {raw:.3f} vs noisy {noisy:.3f} "
              f"(noise wrecks it; expected ~2 continuous, ~1 jumpy)\n")


if __name__ == "__main__":
    main()
