"""Direct, loop-by-loop forms of AJL quantities that the package computes
faster; the tests compare ``hfjumps.ajl`` against them."""
from math import comb

import numpy as np

from hfjumps.ajl import WeightFunction, absolute_normal_moment, solve_rho
from hfjumps.errors import DayRejected


def rho_residuals(p: int, rho: np.ndarray) -> np.ndarray:
    """Residuals of the p/2 system equations at the given coefficients."""
    res = []
    for j in range(1, p // 2 + 1):
        acc = 0.0
        for l in range(j + 1):
            acc += (2 ** l) * absolute_normal_moment(2 * j - 2 * l) \
                   * comb(p - 2 * l, p - 2 * j) * rho[l]
        res.append(acc)
    return np.array(res)


def vbar_reference(returns: np.ndarray, w: WeightFunction, p: int = 4,
                   k_n: int = 100) -> float:
    """Direct O(N k_n) window-by-window summation of ``ajl.vbar``."""
    d = np.asarray(returns, dtype=float)
    N = len(d)
    if N < k_n:
        raise DayRejected("ajl_short", f"{N} returns < k_n={k_n}")
    rho = solve_rho(p)
    wj, wp = w.grid_weights(k_n)
    wp2 = wp * wp
    total = 0.0
    for i in range(N - k_n + 1):
        ybar = float(np.dot(wj, d[i:i + k_n - 1]))
        yhat = float(np.dot(wp2, d[i:i + k_n] * d[i:i + k_n]))
        for l in range(p // 2 + 1):
            total += rho[l] * abs(ybar) ** (p - 2 * l) * yhat ** l
    return total
