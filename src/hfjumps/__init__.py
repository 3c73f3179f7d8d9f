"""High-frequency jump detection toolkit.

Ingests tick data, aggregates across exchanges, runs the noise-robust
moment-level (Lee & Mykland) and day-level (Ait-Sahalia-Jacod-Li) jump
tests, combines them into a jump catalog, and reproduces the standard
descriptive and panel-regression analyses, all verifiable against a
built-in jump-diffusion simulator.
"""

from .ajl import (AjlDayResult, AjlParams, PARABOLA, TRIANGLE, WeightFunction,
                  ajl_constants, ajl_test, s_j_ratio, solve_rho, vbar,
                  vbar_reference)
from .analytics import (ExtremeCount, PanelRow, RegressionResult, SummaryStats,
                        build_panel, count_extremes, fe_regression, seasonality,
                        summarize_returns)
from .config import RunConfig
from .errors import ConfigError, DayRejected, HfJumpsError, NoVariationError
from .lee_mykland import (LmDayResult, LmMomentResult, LmParams, NoiseEstimate,
                          dedup_consecutive, estimate_noise, gumbel_quantile,
                          lm_scan, select_k)
from .pipeline import (DayVerdict, detect_day, load_catalog, render_symbol_summary,
                       run_range)
from .preprocess import (AggregatedSeries, EquispacedSeries, RemovalRecord,
                         aggregate_cross_exchange, filter_returns,
                         make_equispaced, select_frequency)
from .simulate import SimConfig, SimDay, make_corpus, simulate_day, write_tick_csv
from .tickstore import CsvSchema, IngestReport, SymbolDaySlice, TickStore

__version__ = "0.1.0"

__all__ = [
    "AggregatedSeries", "AjlDayResult", "AjlParams", "ConfigError", "CsvSchema",
    "DayRejected", "DayVerdict", "EquispacedSeries", "ExtremeCount",
    "HfJumpsError", "IngestReport", "LmDayResult", "LmMomentResult",
    "LmParams", "NoVariationError", "NoiseEstimate", "PARABOLA", "PanelRow",
    "RegressionResult", "RemovalRecord", "RunConfig", "SimConfig",
    "SimDay", "SummaryStats", "SymbolDaySlice", "TRIANGLE", "TickStore",
    "WeightFunction", "aggregate_cross_exchange", "ajl_constants", "ajl_test",
    "build_panel", "count_extremes", "dedup_consecutive", "detect_day",
    "estimate_noise", "fe_regression", "filter_returns", "gumbel_quantile",
    "lm_scan", "load_catalog", "make_corpus", "make_equispaced",
    "render_symbol_summary", "run_range", "s_j_ratio", "seasonality",
    "select_frequency", "select_k", "simulate_day", "solve_rho",
    "summarize_returns", "vbar", "vbar_reference", "write_tick_csv",
]
