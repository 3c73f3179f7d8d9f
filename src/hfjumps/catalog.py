"""The jump catalog's record, manifest and removal log, and the UTC day clock.

What the catalog, the tick store and ``report`` must agree on, written
with the standard library alone, so that reading a catalog loads no
numpy.  Instants are integer epoch nanoseconds.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import RunConfig
    from .preprocess import RemovalRecord

SCHEMA_VERSION = 3
DAY_NS = 86_400 * 10 ** 9
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# DayVerdict fields a record leaves out: utc_date is written as its ISO "date",
# and each of the removals is a row of the removal log, under REMOVALS_HEADER
_NOT_RECORDED = ("utc_date", "removals")
REMOVALS_HEADER = ("symbol", "date", "timestamp_ns", "rule", "value")

# ASCII digits only: int() also reads other scripts' digits
_ISO_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:\.(\d+))?"
                     r"(Z|z|[+-]\d{2}:?\d{2})?$", re.ASCII)
_EPOCH_RE = re.compile(r"^\d{10,19}$", re.ASCII)


def parse_iso_ns(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp to epoch nanoseconds.

    Fractional digits beyond nanosecond precision are truncated, not
    rounded, so re-ingesting a file can never shift a tick across a
    bin or day boundary.
    """
    m = _ISO_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable timestamp {text!r}")
    *ymdhms, frac, offset = m.groups()
    epoch_s = int(datetime(*map(int, ymdhms), tzinfo=timezone.utc).timestamp())
    if offset and offset not in ("Z", "z"):
        sign = 1 if offset[0] == "+" else -1
        off = offset[1:].replace(":", "")
        epoch_s -= sign * (int(off[:2]) * 3600 + int(off[2:]) * 60)
    return epoch_s * 10 ** 9 + int((frac or "")[:9].ljust(9, "0"))


def parse_epoch_ns(text: str) -> int:
    if not _EPOCH_RE.match(text.strip()):
        raise ValueError(f"not an epoch-ns timestamp: {text!r}")
    return int(text.strip())


def utc_date(ts_ns: int) -> date:
    """UTC calendar day of an epoch-ns timestamp, in exact integer arithmetic."""
    return date.fromordinal(EPOCH_ORDINAL + ts_ns // DAY_NS)


def day_start_ns(day: date) -> int:
    """Epoch-ns of a UTC day's midnight, the inverse of ``utc_date``."""
    return (day.toordinal() - EPOCH_ORDINAL) * DAY_NS


@dataclass
class DayVerdict:
    symbol: str
    utc_date: date
    tested: bool
    reason: str = ""
    frequency_s: int | None = None
    lm_jump_count_raw: int = 0
    accepted_jumps: list[dict] = field(default_factory=list)
    lm: dict | None = None
    ajl: dict | None = None
    n_points: int = 0
    n_removed: int = 0
    close_log_price: float | None = None
    filter: dict | None = None          # filter_returns' keyword arguments
    removals: list[RemovalRecord] = field(default_factory=list)
    config_hash: str = ""

    def to_dict(self) -> dict:
        """The record: ``schema_version``, ISO ``date``, the other fields but ``removals``."""
        rec = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _NOT_RECORDED}
        return {"schema_version": SCHEMA_VERSION, "date": self.utc_date.isoformat(), **rec}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def removal_rows(self) -> list[tuple]:
        """The day's rows of the removal log, under ``REMOVALS_HEADER``."""
        return [(self.symbol, self.utc_date.isoformat(), r.timestamp_ns, r.rule, repr(r.value))
                for r in self.removals]


# the keys of every record to_dict writes
RECORD_KEYS = frozenset({"schema_version", "date"}
                        | {f.name for f in fields(DayVerdict) if f.name not in _NOT_RECORDED})


def manifest_path(catalog_path) -> Path:
    """The completion manifest beside a catalog: ``<catalog>.manifest.json``."""
    p = Path(catalog_path)
    return p.with_name(p.name + ".manifest.json")


def removals_path(catalog_path) -> Path:
    """The removal log beside a catalog: ``<catalog>.removals.csv``, one row
    per point the outlier filter removed, in catalog order."""
    p = Path(catalog_path)
    return p.with_name(p.name + ".removals.csv")


def write_manifest(catalog_path, cfg: RunConfig, completed: int, total: int) -> None:
    manifest = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
                "config_hash": cfg.hash(), "completed_days": completed,
                "total_days": total, "complete": completed == total}
    manifest_path(catalog_path).write_text(json.dumps(manifest, indent=1, sort_keys=True))


def load_catalog(path) -> list[dict]:
    """Read a verdict JSONL catalog back into dictionaries.

    A line that is not a JSON object with a ``schema_version`` key, as
    every verdict has, raises OSError: the file is not a catalog.  So
    does a record of another schema than ``SCHEMA_VERSION``, one that
    lacks any of the ``RECORD_KEYS``, and a second record of a symbol-day.
    """
    out, seen = [], {}
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise OSError(f"{path} line {n}: not a JSON record: {exc}") from None
            if not isinstance(rec, dict) or "schema_version" not in rec:
                raise OSError(f"{path} line {n}: not a catalog record (no schema_version)")
            if rec["schema_version"] != SCHEMA_VERSION:
                raise OSError(f"{path} line {n}: a schema {rec['schema_version']!r} record, "
                              f"this version reads schema {SCHEMA_VERSION}; rerun detect")
            missing = RECORD_KEYS.difference(rec)
            if missing:
                raise OSError(f"{path} line {n}: a schema {SCHEMA_VERSION} record "
                              f"missing {sorted(missing)}")
            first = seen.setdefault((rec["symbol"], rec["date"]), n)
            if first != n:
                raise OSError(f"{path} lines {first} and {n}: two records of "
                              f"{rec['symbol']} {rec['date']}; a catalog holds one per symbol-day")
            out.append(rec)
    return out
