"""Command line entry point: ingest, simulate, detect, analyze, report.

Only ``detect`` resolves a config; its catalog records the hash and each
day's filter settings, and its manifest the whole config, so ``analyze``
and ``report`` read the catalog instead.  Identical inputs and seeds
reproduce identical bytes.  Exit codes: 0 success, 1 usage,
2 I/O error (also a ``detect`` that tested no day and failed one),
3 config error.

Each command imports only the modules it uses, and ``main`` asks for one
BLAS/OpenMP thread before numpy loads (see ``_one_blas_thread``).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import shutil
import sys
from datetime import date
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# every command uses the catalog module, which loads no numpy
from .catalog import (SCHEMA_VERSION, load_catalog, manifest_path, parse_iso_ns,
                      removals_path, utc_date)
from .errors import ConfigError

if TYPE_CHECKING:
    from .analytics import Table
    from .config import RunConfig

log = logging.getLogger("hfjumps")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONFIG = 3

# numpy's BLAS reads these once, when numpy loads.  No command gains from a
# thread pool (the detect path's long reductions avoid BLAS, and analyze's
# matrices are small), yet starting one costs every process CPU time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _date(text: str) -> date:
    return date.fromisoformat(text)


def build_parser() -> _Parser:
    p = _Parser(prog="hfjumps",
                description="High-frequency jump detection pipeline")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="load tick CSVs into the store")
    pi.add_argument("--store", required=True)
    pi.add_argument("--csv", required=True, nargs="+")
    pi.add_argument("--col-time", default="time")
    pi.add_argument("--col-exchange", default="exchange")
    pi.add_argument("--col-symbol", default="symbol")
    pi.add_argument("--col-price", default="price")

    ps = sub.add_parser("simulate", help="emit a synthetic tick corpus")
    ps.add_argument("--out", required=True)
    ps.add_argument("--days", type=int, default=10)
    ps.add_argument("--symbol", default="SIM")
    ps.add_argument("--start-date", type=_date, default=date(2021, 1, 1))
    ps.add_argument("--ticks-per-day", type=int, default=17_280)
    ps.add_argument("--sigma", type=float, default=0.04)
    ps.add_argument("--noise-q", type=float, default=0.0005)
    ps.add_argument("--jumps", type=float, default=0.0,
                    help="expected jumps per day (Poisson intensity)")
    ps.add_argument("--jump-size", type=float, default=None,
                    help="fixed jump magnitude; default draws from a "
                         "two-sided heavy-tailed mixture")
    ps.add_argument("--jump-spread", type=int, default=40,
                    help="ticks over which each jump is spread")
    ps.add_argument("--exchanges", default="SIM",
                    help="comma-separated exchange ids")
    ps.add_argument("--exchange-noise-q", type=float, default=0.0)
    ps.add_argument("--seed", type=int, default=0)

    pd = sub.add_parser("detect", help="run jump detection over the store")
    pd.add_argument("--store", required=True)
    pd.add_argument("--out", required=True, help="catalog JSONL path")
    pd.add_argument("--symbols", help="comma separated; default: all in store")
    pd.add_argument("--from", dest="date_from", type=_date)
    pd.add_argument("--to", dest="date_to", type=_date)
    pd.add_argument("--config", help="JSON config file (flags override it)")
    for flag, typ in (("--alpha", float), ("--coverage", float),
                      ("--sd-cutoff", float), ("--dedup-window", int),
                      ("--lm-C", float), ("--ajl-p", int), ("--ajl-kn", int),
                      ("--sigma-rj-paths", int), ("--seed", int)):
        pd.add_argument(flag, type=typ, default=None)
    pd.add_argument("--bonferroni", choices=("within-day", "off"), default=None)

    pa = sub.add_parser("analyze", help="tables from a catalog + store")
    pa.add_argument("--store", required=True)
    pa.add_argument("--catalog", required=True)
    pa.add_argument("--out", required=True, help="output directory")

    pr = sub.add_parser("report", help="bundle catalog, tables, timeline")
    pr.add_argument("--catalog", required=True)
    pr.add_argument("--tables", help="directory produced by analyze")
    pr.add_argument("--out", required=True)
    pr.add_argument("--events", help="events CSV (utc_instant,label); "
                                     "defaults to the packaged sample")
    return p


def _resolve_config(args) -> RunConfig:
    """The config file (or the defaults) with every detect flag that was set."""
    from .config import RunConfig

    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return cfg.with_overrides(**{name: getattr(args, name, None)
                                 for name in RunConfig.field_names()})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _open_store(path: str):
    """The tick store at ``path``, which must exist: only ``ingest`` creates one."""
    from .tickstore import TickStore

    if not Path(path).is_dir():
        raise FileNotFoundError(f"no tick store at {path}")
    return TickStore(path)


def cmd_ingest(args) -> int:
    from .tickstore import CsvSchema, TickStore

    store = TickStore(args.store)
    schema = CsvSchema(time=args.col_time, exchange=args.col_exchange,
                       symbol=args.col_symbol, price=args.col_price)
    total_acc = total_rej = 0
    for path in args.csv:
        try:
            rep = store.ingest_csv(path, schema)
        except (UnicodeDecodeError, csv.Error) as exc:     # no flag fixes the file's bytes
            raise OSError(f"{path}: not a readable UTF-8 CSV: {exc}") from None
        except ValueError as exc:             # a column missing: a --col-* flag fixes it
            return _usage_error(str(exc))
        for line, reason in rep.reject_log:
            log.debug("%s line %d: %s", path, line, reason)
        total_acc += rep.accepted
        total_rej += rep.rejected
        print(f"{path}: accepted={rep.accepted} rejected={rep.rejected}"
              f"{' (already ingested)' if rep.already_ingested else ''}")
    print(f"total: accepted={total_acc} rejected={total_rej}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import SimConfig, make_corpus

    try:
        base = SimConfig(sigma=args.sigma, q=args.noise_q, n=args.ticks_per_day,
                         seed=args.seed, jump_intensity=args.jumps,
                         jump_fixed_size=args.jump_size,
                         jump_spread_ticks=args.jump_spread)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.days < 1:
        return _usage_error(f"--days {args.days}: need at least one day")
    if not (args.exchange_noise_q >= 0):
        return _usage_error(f"--exchange-noise-q {args.exchange_noise_q}: need >= 0")
    exchanges = tuple(x.strip() for x in args.exchanges.split(",") if x.strip())
    if not exchanges or len(set(exchanges)) < len(exchanges):
        # each exchange is one price column: a repeated one would overwrite another
        return _usage_error(f"--exchanges {args.exchanges!r}: "
                            + ("repeats an exchange" if exchanges else "names no exchange"))
    records = make_corpus(args.out, args.symbol, args.start_date, args.days,
                          base, exchanges, args.exchange_noise_q)
    truth_path = Path(args.out) / "truth.jsonl"
    with open(truth_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(records)} days to {args.out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    from . import pipeline

    if None not in (args.date_from, args.date_to) and args.date_from > args.date_to:
        return _usage_error(f"--from {args.date_from} is after --to {args.date_to}")
    cfg = _resolve_config(args)
    store = _open_store(args.store)
    symbols = store.symbols()
    if args.symbols is not None:
        # a typo must not pass as a finished run, and a repeated symbol must
        # not test its days twice
        requested = list(dict.fromkeys(s.strip() for s in args.symbols.split(",")
                                       if s.strip()))
        unknown = [s for s in requested if s not in symbols]
        if unknown or not requested:
            return _usage_error(f"--symbols {args.symbols!r}: "
                                + (f"not in the store: {', '.join(unknown)}" if unknown
                                   else "names no symbol"))
        symbols = requested
    days = [d for d in sorted({d for s in symbols for d in store.days(s)})
            if (args.date_from is None or d >= args.date_from)
            and (args.date_to is None or d <= args.date_to)]
    if not days:
        log.warning("no stored days to detect; writing an empty catalog")
    verdicts = pipeline.run_range(store, symbols, days, cfg, args.out)
    print(pipeline.render_symbol_summary(verdicts), end="")
    failed = [v for v in verdicts if v.reason.startswith("error:")]
    if failed and not any(v.tested for v in verdicts):
        # a broken install or store must not pass as a run of untestable days
        first = failed[0]
        print(f"error: no day was tested; {len(failed)} of {len(verdicts)} failed, the "
              f"first {first.symbol} {first.utc_date}: {first.reason}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analytics, pipeline

    store = _open_store(args.store)
    records = load_catalog(args.catalog)
    hf_returns = pipeline.tested_returns(store, records)
    tables, dropped = analytics.build_tables(records, hf_returns)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for table in tables:
        _write_table(out, table)
    (out / "panel_dropped.log").write_text("".join(line + "\n" for line in dropped))
    meta = {"config_hashes": sorted({rec["config_hash"] for rec in records}),
            "n_records": len(records), "schema_version": SCHEMA_VERSION}
    (out / "tables_manifest.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    print(f"tables written to {out}")
    return EXIT_OK


def _write_table(out: Path, table: Table) -> None:
    if table.rows is not None:
        with open(out / f"{table.name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([table.header, *table.rows])
    if table.text is not None:
        (out / f"{table.name}.txt").write_text(table.text)


def _load_events(path: str | None) -> list[tuple[int, str]]:
    source = Path(path) if path else resources.files("hfjumps") / "data" / "events_sample.csv"
    reader = csv.DictReader(source.read_text().splitlines(), restval="")
    missing = {"utc_instant", "label"} - set(reader.fieldnames or ())
    if missing:
        raise OSError(f"{source} line 1: no column {sorted(missing)}")
    events = []
    for row in reader:
        try:
            events.append((parse_iso_ns(row["utc_instant"]), row["label"]))
        except ValueError as exc:
            raise OSError(f"{source} line {reader.line_num}: {exc}") from None
    return sorted(events)


def cmd_report(args) -> int:
    # every input is read before --out is created: a bad one leaves nothing behind
    records = load_catalog(args.catalog)
    tables = sorted(f for f in Path(args.tables).iterdir() if f.is_file()) if args.tables else []
    events = _load_events(args.events)
    out = Path(args.out)
    bundled = out / "catalog.jsonl"
    # a concatenated catalog has neither sidecar file
    sidecars = [s for s in (manifest_path, removals_path) if s(args.catalog).exists()]
    # a bundle must not pair this catalog with an earlier one's files
    stale = [s(bundled).name for s in (manifest_path, removals_path)
             if s not in sidecars and s(bundled).exists()]
    if (out / "tables").is_dir():
        written = {f.name for f in tables}
        stale += sorted(f"tables/{f.name}" for f in (out / "tables").iterdir()
                        if f.name not in written)
    if args.tables and Path(args.tables).resolve() == (out / "tables").resolve():
        raise OSError(f"--tables {args.tables} is the bundle's own tables/; choose another --out")
    if stale:
        raise OSError(f"{out} holds {len(stale)} file(s) this report would not write, "
                      f"the first {stale[0]}; remove them or choose another --out")

    # timeline: each date's jump count over all symbols, with its event labels
    per_day: dict[str, int] = {}
    for rec in records:
        per_day[rec["date"]] = per_day.get(rec["date"], 0) + len(rec.get("accepted_jumps") or [])
    event_days: dict[str, list[str]] = {}
    for ts, label in events:
        event_days.setdefault(utc_date(ts).isoformat(), []).append(label)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.catalog, bundled)
    for sidecar in sidecars:
        shutil.copyfile(sidecar(args.catalog), sidecar(bundled))
    if args.tables:
        (out / "tables").mkdir(exist_ok=True)
        for f in tables:
            shutil.copyfile(f, out / "tables" / f.name)
    with open(out / "timeline.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "n_jumps", "event"])
        for day in sorted(set(per_day) | set(event_days)):
            w.writerow([day, per_day.get(day, 0),
                        "; ".join(event_days.get(day, []))])
    print(f"report bundle at {out}")
    return EXIT_OK


def _one_blas_thread() -> None:
    """Default the BLAS/OpenMP thread counts to 1 unless the user set them.

    Only before numpy is imported: afterwards the setting has no effect,
    so an in-process caller that already loaded numpy sees no change.
    """
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    _one_blas_thread()
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    commands = {"ingest": cmd_ingest, "simulate": cmd_simulate, "detect": cmd_detect,
                "analyze": cmd_analyze, "report": cmd_report}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
