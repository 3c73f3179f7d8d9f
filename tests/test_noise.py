"""The day's noise and volatility estimate, and the two tests that read it."""
import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from hfjumps.errors import DayRejected
from hfjumps.lee_mykland import LmParams, lm_scan
from hfjumps.noise import estimate_noise
from hfjumps.simulate import SimConfig, simulate_day

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# estimate_noise
# ---------------------------------------------------------------------------

def test_estimate_noise_constant_series_zero():
    p = np.full(5000, 4.6)
    est = estimate_noise(p, k=3)
    assert est.q_hat_sq == 0.0
    assert est.sigma_hat_sq == 0.0
    # so V_n is zero, and the scan refuses the day as flat
    with pytest.raises(DayRejected) as exc:
        lm_scan(p, LmParams.for_series(len(p), 3))
    assert exc.value.reason == "lm_flat"


def test_estimate_noise_formula_exact_small_case():
    # q_hat^2 = (1/(2(n-k))) sum (P_m - P_{m+k})^2, verified term by term
    p = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0])
    k = 2
    want = ((1 - 4) ** 2 + (2 - 7) ** 2 + (4 - 11) ** 2 + (7 - 16) ** 2) / (2 * 4)
    est = estimate_noise(p, k=k)
    assert est.q_hat_sq == pytest.approx(want, rel=1e-15)


def test_estimate_noise_pure_noise_recovers_q():
    rng = np.random.default_rng(4)
    q = 0.001
    qs = [sqrt(estimate_noise(q * rng.standard_normal(86_400), k=3).q_hat_sq)
          for _ in range(5)]
    assert abs(np.mean(qs) / q - 1) < 0.05


def test_estimate_noise_requires_enough_points():
    with pytest.raises(ValueError):
        estimate_noise(np.array([1.0, 2.0]), k=2)


# ---------------------------------------------------------------------------
# the LM scan's V_n, and one estimator module under both tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("C", [0.05, 0.2])
def test_lm_scan_forms_v_n_from_the_noise_estimate(C):
    p = simulate_day(SimConfig(sigma=0.04, q=0.0005, n=17_280, seed=5)).observed
    params = LmParams.for_series(len(p), 3, C=C)
    scan = lm_scan(p, params)
    est = estimate_noise(p, params.k)
    assert scan.noise == est
    # (2/3) sigma_hat^2 C^2 + 2 q_hat^2, bit for bit
    assert scan.v_n == (2.0 / 3.0) * est.sigma_hat_sq * C * C + 2.0 * est.q_hat_sq


# in a fresh process: run one test on a simulated day, then list the package
# modules that are loaded
RUN_ONE_TEST = """
import json, sys
from hfjumps.simulate import SimConfig, simulate_day
p = simulate_day(SimConfig(sigma=0.04, q=0.0005, n=17_280, seed=2)).observed
if sys.argv[1] == "ajl":
    from hfjumps.ajl import AjlParams, ajl_test
    ajl_test(p, AjlParams())
else:
    from hfjumps.lee_mykland import LmParams, lm_scan
    lm_scan(p, LmParams.for_series(len(p), 3))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("hfjumps."))))
"""


@pytest.mark.parametrize("test, other", [("ajl", "lee_mykland"), ("lee_mykland", "ajl")])
def test_neither_jump_test_loads_the_other(test, other):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", RUN_ONE_TEST, test], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(out.stdout)
    assert f"hfjumps.{test}" in loaded and "hfjumps.noise" in loaded
    assert f"hfjumps.{other}" not in loaded
