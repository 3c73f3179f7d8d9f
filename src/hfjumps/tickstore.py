"""Tick ingestion and partitioned storage.

Raw trades arrive as CSV (one row per tick: timestamp, exchange, symbol,
price) and are persisted into per-(symbol, UTC day) partitions, one flat
CSV file each.  Partitions are append-only and immutable once written;
day slices can be read concurrently.  Timestamps are stored as integer
epoch nanoseconds; input may be ISO-8601 UTC or epoch nanoseconds
(auto-detected per file, the detection is logged).
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

DAY_NS = 86_400 * 10 ** 9

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d+))?"
    r"(Z|z|[+-]\d{2}:?\d{2})?$"
)
_EPOCH_RE = re.compile(r"^\d{10,19}$")


def parse_iso_ns(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp to epoch nanoseconds.

    Fractional digits beyond nanosecond precision are truncated, not
    rounded, so re-ingesting a file can never shift a tick across a
    bin or day boundary.
    """
    m = _ISO_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable timestamp {text!r}")
    y, mo, d, hh, mm, ss = (int(m.group(i)) for i in range(1, 7))
    frac = m.group(7) or ""
    offset = m.group(8)
    ns = int(frac[:9].ljust(9, "0")) if frac else 0
    dt = datetime(y, mo, d, hh, mm, ss, tzinfo=timezone.utc)
    epoch_s = int(dt.timestamp())
    if offset and offset not in ("Z", "z"):
        sign = 1 if offset[0] == "+" else -1
        off = offset[1:].replace(":", "")
        epoch_s -= sign * (int(off[:2]) * 3600 + int(off[2:]) * 60)
    return epoch_s * 10 ** 9 + ns


def parse_epoch_ns(text: str) -> int:
    t = text.strip()
    if not _EPOCH_RE.match(t):
        raise ValueError(f"not an epoch-ns timestamp: {text!r}")
    return int(t)


@dataclass
class SymbolDaySlice:
    """All ticks of one symbol on one UTC day, time-sorted, all exchanges."""

    symbol: str
    utc_date: date
    timestamps_ns: np.ndarray
    exchanges: list[str]
    prices: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    @property
    def empty(self) -> bool:
        return len(self) == 0


@dataclass(frozen=True)
class CsvSchema:
    """Maps the four tick fields to CSV column names."""

    time: str = "time"
    exchange: str = "exchange"
    symbol: str = "symbol"
    price: str = "price"


@dataclass
class IngestReport:
    source: str
    accepted: int = 0
    rejected: int = 0
    timestamp_format: str = ""
    reject_log: list[tuple[int, str]] = field(default_factory=list)
    already_ingested: bool = False


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def utc_date(ts_ns: int) -> date:
    """UTC calendar day of an epoch-ns timestamp, in exact integer arithmetic."""
    return date.fromordinal(_EPOCH_ORDINAL + ts_ns // DAY_NS)


class TickStore:
    """Partitioned flat-file tick store.

    Layout::

        root/
          manifest.json                 source-file hashes and counts
          ticks/<SYMBOL>/<YYYY-MM-DD>.csv   ts_ns,exchange,price

    Duplicate rows are kept (simultaneity is resolved at aggregation
    time), but re-ingesting a file whose content was already ingested
    is a no-op returning the recorded counts.  Ingestion is the single
    writer per partition; slices are immutable afterwards.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "ticks").mkdir(exist_ok=True)
        self._manifest_path = self.root / "manifest.json"

    # -- manifest -----------------------------------------------------
    def _load_manifest(self) -> dict:
        if self._manifest_path.exists():
            return json.loads(self._manifest_path.read_text())
        return {"version": 1, "sources": {}}

    def _save_manifest(self, manifest: dict) -> None:
        self._manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))

    # -- ingestion ----------------------------------------------------
    def ingest_csv(self, path: str | Path, schema: CsvSchema = CsvSchema()) -> IngestReport:
        """Ingest one CSV file; row-level failures reject the row, not the file."""
        path = Path(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest = self._load_manifest()
        prior = manifest["sources"].get(digest)
        if prior is not None:
            log.info("ingest %s: already ingested (hash match), skipping", path)
            return IngestReport(source=str(path), accepted=prior["accepted"],
                                rejected=prior["rejected"],
                                timestamp_format=prior["timestamp_format"],
                                already_ingested=True)

        report = IngestReport(source=str(path))
        parse_ts = None
        buckets: dict[tuple[str, date], list[tuple[int, str, float]]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for col in (schema.time, schema.exchange, schema.symbol, schema.price):
                if reader.fieldnames is None or col not in reader.fieldnames:
                    raise ValueError(f"column {col!r} not found in {path}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    raw_ts = row[schema.time]
                    if parse_ts is None:
                        # detect once per file from the first parseable row
                        if _EPOCH_RE.match(raw_ts.strip()):
                            parse_ts = parse_epoch_ns
                            report.timestamp_format = "epoch_ns"
                        else:
                            parse_iso_ns(raw_ts)
                            parse_ts = parse_iso_ns
                            report.timestamp_format = "iso8601"
                        log.info("ingest %s: detected %s timestamps",
                                 path, report.timestamp_format)
                    ts = parse_ts(raw_ts)
                except (ValueError, KeyError, TypeError):
                    report.rejected += 1
                    report.reject_log.append((lineno, "bad timestamp"))
                    continue
                try:
                    price = float(row[schema.price])
                except (ValueError, TypeError, KeyError):
                    report.rejected += 1
                    report.reject_log.append((lineno, "bad price"))
                    continue
                if not np.isfinite(price) or price <= 0:
                    report.rejected += 1
                    report.reject_log.append((lineno, "non-positive price"))
                    continue
                sym = (row.get(schema.symbol) or "").strip()
                exch = (row.get(schema.exchange) or "").strip()
                if not sym or not exch:
                    report.rejected += 1
                    report.reject_log.append((lineno, "missing field"))
                    continue
                buckets.setdefault((sym, utc_date(ts)), []).append((ts, exch, price))
                report.accepted += 1

        for (sym, day), rows in sorted(buckets.items()):
            part = self._partition_path(sym, day)
            part.parent.mkdir(parents=True, exist_ok=True)
            new = not part.exists()
            with open(part, "a", newline="") as fh:
                w = csv.writer(fh)
                if new:
                    w.writerow(["ts_ns", "exchange", "price"])
                for ts, exch, price in rows:
                    w.writerow([ts, exch, repr(price)])

        manifest["sources"][digest] = {
            "path": str(path),
            "accepted": report.accepted,
            "rejected": report.rejected,
            "timestamp_format": report.timestamp_format,
        }
        self._save_manifest(manifest)
        if report.rejected:
            log.warning("ingest %s: rejected %d rows", path, report.rejected)
        return report

    # -- reads --------------------------------------------------------
    def _partition_path(self, symbol: str, day: date) -> Path:
        return self.root / "ticks" / symbol / f"{day.isoformat()}.csv"

    def slice(self, symbol: str, utc_date: date) -> SymbolDaySlice:
        """Return the time-sorted symbol-day slice; empty if never ingested.

        A missing partition is a normal empty day, distinct from an
        unreadable store (which raises OSError).
        """
        part = self._partition_path(symbol, utc_date)
        if not part.exists():
            return SymbolDaySlice(symbol, utc_date, np.empty(0, dtype=np.int64),
                                  [], np.empty(0))
        ts, exch, price = [], [], []
        with open(part, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                ts.append(int(row[0]))
                exch.append(row[1])
                price.append(float(row[2]))
        order = np.lexsort((np.array(exch), np.array(ts, dtype=np.int64)))
        return SymbolDaySlice(
            symbol, utc_date,
            np.array(ts, dtype=np.int64)[order],
            [exch[i] for i in order],
            np.array(price)[order],
        )

    def symbols(self) -> list[str]:
        base = self.root / "ticks"
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    def days(self, symbol: str) -> list[date]:
        base = self.root / "ticks" / symbol
        if not base.exists():
            return []
        return sorted(date.fromisoformat(p.stem) for p in base.glob("*.csv"))
