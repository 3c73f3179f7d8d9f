"""Quickstart: simulate a small tick corpus, detect jumps, print verdicts.

Run:  python demos/quickstart.py
"""
import tempfile
from datetime import date
from pathlib import Path

from hfjumps import RunConfig, TickStore, run_range
from hfjumps.pipeline import render_symbol_summary
from hfjumps.simulate import SimConfig, make_corpus

workdir = Path(tempfile.mkdtemp(prefix="hfjumps_demo_"))
print(f"working in {workdir}\n")

# --- 1. a five-day corpus: ~one 3% jump per day, spread over 20 ticks ------
base = SimConfig(sigma=0.04, q=0.0005, n=17_280, seed=42,
                 jump_intensity=1.0, jump_fixed_size=0.03,
                 jump_spread_ticks=20)
records = make_corpus(workdir / "corpus", "BTC", date(2021, 3, 1), 5, base)
for rec in records:
    marks = ", ".join(f"{t:.3f}:{s:+0.3f}" for t, s in rec["true_jumps"]) or "none"
    print(f"{rec['date']}  true jumps: {marks}")

# --- 2. ingest into the partitioned store ----------------------------------
store = TickStore(workdir / "store")
for rec in records:
    store.ingest_csv(workdir / "corpus" / rec["csv"])

# --- 3. detect: moment-level scan gated by the day-level test --------------
cfg = RunConfig()
days = [date.fromisoformat(r["date"]) for r in records]
verdicts = run_range(store, ["BTC"], days, cfg,
                     catalog_path=workdir / "catalog.jsonl")

print()
for v in verdicts:
    events = ", ".join(f"{e['direction'][:3]} {e['size']:+.4f}" for e in v.accepted_jumps)
    lm_flags = len(v.lm["jumps"]) if v.tested else 0
    ajl_reject = v.tested and v.ajl["reject_null"]
    print(f"{v.utc_date}  tested={v.tested} freq={v.frequency_s}s "
          f"lm={lm_flags} ajl_reject={ajl_reject}  [{events}]")

print()
print(render_symbol_summary(verdicts))
print(f"catalog at {workdir / 'catalog.jsonl'}")
