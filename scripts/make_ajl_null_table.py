"""Generate or check the AJL null-std table, src/hfjumps/data/ajl_null_std.csv.

For each grid length n and noise-to-volatility node q/sigma, the script
simulates PATHS continuous noisy null paths with the kernel of the AJL
test's Monte-Carlo fallback (``ajl.null_draws``) and stores the sample
std (ddof = 1) of S_RJ and the share of paths with Vbar(h) <= 0.  S_RJ
is scale invariant, so these depend on (sigma, q) only through q/sigma.
The header holds the generator parameters and a sha256 of the body.

    python scripts/make_ajl_null_table.py           # regenerate (~10 CPU-min)
    python scripts/make_ajl_null_table.py --check   # exit 1 unless the digest matches

Needs numpy and the hfjumps sources only.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from hfjumps import ajl  # noqa: E402
from hfjumps.preprocess import DAY_SECONDS, FREQUENCIES  # noqa: E402

TABLE = SRC / "hfjumps" / "data" / ajl.NULL_TABLE
LENGTHS = tuple(sorted(DAY_SECONDS // f for f in FREQUENCIES))   # one day's grids, shortest first
RATIOS = (0.0, *(10.0 ** (j / 4) for j in range(-12, 1)))
K_N, P, G, H = 100, 4, "parabola", "triangle"
PATHS, BASE_SEED = 2_000, 0
COLUMNS = "n,q_over_sigma,std,vh_nonpos_share\n"


def node(n: int, ratio: float) -> tuple[float, float]:
    """(null std of S_RJ, share of paths with Vbar(h) <= 0) at one node.

    All nodes of one length share a seed, so their paths share the
    diffusive draws and the std is smooth across the q/sigma nodes.
    """
    seed = ajl._mc_seed(("null-table", n, K_N, P, G, H, PATHS, BASE_SEED))
    s_rj, v_h = ajl.null_draws(n, K_N, P, ajl.get_weight(G), ajl.get_weight(H),
                               ratio, PATHS, seed)
    return ajl.null_std(s_rj), float(np.mean(v_h <= 0))


def render(body: str) -> str:
    header = {"table": "AJL S_RJ null std, written by scripts/make_ajl_null_table.py",
              "k_n": K_N, "p": P, "weights": f"{G}/{H}", "paths": PATHS,
              "base_seed": BASE_SEED, "sha256": ajl.table_digest(body)}
    return "".join(f"# {k}: {v}\n" for k, v in header.items()) + body


def check(path: Path) -> bool:
    header, body = ajl.split_null_table(path.read_text())
    return header.get("sha256") == ajl.table_digest(body)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table", type=Path, default=TABLE)
    ap.add_argument("--check", action="store_true",
                    help="only check the body digest against the header")
    args = ap.parse_args(argv)
    if args.check:
        ok = check(args.table)
        print(f"{args.table}: {'digest ok' if ok else 'digest MISMATCH'}")
        return 0 if ok else 1
    rows = []
    for n in LENGTHS:
        for ratio in RATIOS:
            std, share = node(n, ratio)
            rows.append(f"{n},{ratio!r},{std!r},{share!r}\n")
            print(rows[-1], end="", flush=True)
    args.table.write_text(render(COLUMNS + "".join(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
