"""High-frequency jump detection toolkit.

Ingests tick data, aggregates across exchanges, runs the noise-robust
moment-level (Lee & Mykland) and day-level (Ait-Sahalia-Jacod-Li) jump
tests, combines them into a jump catalog, and reproduces the standard
descriptive and panel-regression analyses, all verifiable against a
built-in jump-diffusion simulator.

The public names below load their submodule on first use (PEP 562), so
``import hfjumps`` and ``import hfjumps.tickstore`` do not import the
statistics modules.
"""
from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys(("AjlDayResult", "AjlParams", "PARABOLA", "TRIANGLE",
                     "WeightFunction", "ajl_constants", "ajl_test", "solve_rho",
                     "vbar"), "ajl"),
    **dict.fromkeys(("ExtremeCount", "PanelRow", "RegressionResult", "SummaryStats",
                     "build_panel", "count_extremes", "fe_regression", "seasonality",
                     "summarize_returns"), "analytics"),
    "RunConfig": "config",
    **dict.fromkeys(("ConfigError", "DayRejected", "HfJumpsError",
                     "NoVariationError"), "errors"),
    **dict.fromkeys(("LmDayResult", "LmParams", "NoiseEstimate", "dedup_consecutive",
                     "estimate_noise", "gumbel_quantile", "lm_scan", "select_k"),
                    "lee_mykland"),
    **dict.fromkeys(("DayVerdict", "detect_day", "load_catalog",
                     "render_symbol_summary", "run_range"), "pipeline"),
    **dict.fromkeys(("AggregatedSeries", "EquispacedSeries", "RemovalRecord",
                     "aggregate_cross_exchange", "filter_returns", "make_equispaced",
                     "select_frequency"), "preprocess"),
    **dict.fromkeys(("SimConfig", "SimDay", "make_corpus", "simulate_day",
                     "write_tick_csv"), "simulate"),
    **dict.fromkeys(("CsvSchema", "IngestReport", "SymbolDaySlice", "TickStore"),
                    "tickstore"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
