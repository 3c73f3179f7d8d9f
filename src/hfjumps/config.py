"""Run configuration: one flat key-value document, hashed for provenance."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import ajl
from .errors import ConfigError

# the values each annotation accepts; bool is an int subclass and is refused
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    """All pipeline tunables.  Defaults are the production settings."""

    alpha: float = 0.999
    coverage: float = 0.95
    sd_cutoff: float = 10.0
    dedup_window: int = 10
    lm_C: float = 0.05
    ajl_p: int = 4
    ajl_kn: int = 100
    bonferroni: str = "within-day"      # "within-day" | "off"
    # sigma_rj_paths and seed configure only the AJL Monte-Carlo fallback,
    # used where the committed null-std table does not cover a day
    sigma_rj_paths: int = 200
    bounceback_reversal: float = 0.75
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, not {value!r}")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0 < self.coverage <= 1:
            raise ConfigError("coverage must be in (0, 1]")
        for name in ("sd_cutoff", "lm_C"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.dedup_window < 0:
            raise ConfigError("dedup_window must be >= 0")
        if self.bonferroni not in ("within-day", "off"):
            raise ConfigError("bonferroni must be within-day or off")
        self.ajl_params()       # AjlParams checks the AJL settings, once per run

    # -- construction ---------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        unknown = set(mapping) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**mapping)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold one flat JSON object")
        return cls.from_mapping(raw)

    def with_overrides(self, **kwargs) -> "RunConfig":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return RunConfig.from_mapping({**self.to_dict(), **clean})

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def weight_names(self) -> tuple[str, str]:
        """The AJL weight pair (numerator, denominator); it is fixed."""
        return ajl.WEIGHTS

    def ajl_params(self) -> ajl.AjlParams:
        return ajl.AjlParams(p=self.ajl_p, k_n=self.ajl_kn,
                             alpha=self.alpha, sigma_rj_paths=self.sigma_rj_paths,
                             base_seed=self.seed)
