"""Exception types shared across the toolkit."""

# Why a symbol-day went untested, one tag per stage that can refuse a day
# (README, "Catalog"); run_range's "error:<type>" is the only other reason.
UNTESTED_REASONS = ("no_data", "frequency", "lm_short", "lm_blocks", "lm_flat",
                    "ajl_short", "ajl_flat")


class HfJumpsError(Exception):
    """Base class for all toolkit errors."""


class DayRejected(HfJumpsError):
    """A symbol-day cannot be tested; the caller should skip it, not abort.

    ``reason`` is one of ``UNTESTED_REASONS`` and is recorded in the day
    verdict; ``detail`` says what the stage measured, for the log.
    """

    def __init__(self, reason: str, detail: str = ""):
        if reason not in UNTESTED_REASONS:
            raise ValueError(f"unknown untested reason {reason!r}")
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class ConfigError(HfJumpsError):
    """Invalid run configuration (bad key, bad value, bad weight pair)."""


class NoVariationError(HfJumpsError):
    """A regressor has no within-group variation; the slope is unidentified."""
