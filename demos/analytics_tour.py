"""Tour of the downstream analytics on a synthetic two-symbol catalog.

Builds a 120-day, two-symbol corpus of daily records with jumps whose
signs push returns, plus heavy-tailed intraday returns, then prints
every table the analyze step produces: return summaries, extreme
counts, seasonality histograms, and the four-column fixed-effects
regression of returns on jump dummies (White HC0 errors).

Run:  python demos/analytics_tour.py
"""
from datetime import date, datetime, timedelta, timezone

import numpy as np

from hfjumps import analytics

rng = np.random.default_rng(7)
start = date(2021, 1, 1)

records = []
for symbol, level in (("BTC", 10.6), ("ETH", 7.2)):
    close = level
    for i in range(120):
        d = start + timedelta(days=i)
        jumps = []
        if rng.random() < 0.35:
            sign = -1.0 if rng.random() < 2 / 3 else 1.0
            size = float(sign * rng.lognormal(np.log(0.012), 0.6))
            hour = int(rng.integers(0, 24))
            ts = int(datetime(d.year, d.month, d.day, hour,
                              tzinfo=timezone.utc).timestamp() * 1e9)
            jumps.append({"size": size, "utc_timestamp_ns": ts, "xi": 25.0,
                          "direction": "positive" if size > 0 else "negative"})
        drift = 0.6 * sum(j["size"] for j in jumps)
        close += drift + 0.02 * rng.standard_normal()
        records.append({"symbol": symbol, "date": d.isoformat(), "tested": True,
                        "close_log_price": close, "accepted_jumps": jumps})

# intraday returns per symbol, one array per day, as analyze re-derives them
hf_returns = {symbol: [0.002 * rng.standard_t(3, 1_440) for _ in range(120)]
              for symbol in ("BTC", "ETH")}

# --- every table, as analyze writes it ---------------------------------------
tables, dropped = analytics.build_tables(records, hf_returns)
for table in tables:
    print(f"== {table.name}")
    if table.text is not None:
        print(table.text)
    elif len(table.rows) <= 5:
        for row in (table.header, *table.rows):
            print(", ".join(str(v) for v in row))
        print()
    else:
        print(f"({len(table.rows)} rows; CSV only)\n")
print(f"(dropped for missing previous day: {len(dropped)})")
