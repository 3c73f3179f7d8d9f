"""hfjumps benchmark: the CLI as its users run it, on seeded tick corpora.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_1s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1

Each repetition runs the workload's chain of ``hfjumps`` commands, one
fresh process per command, in a fresh directory whose HOME,
XDG_CACHE_HOME and TMPDIR the commands inherit.  Repetitions continue
until ``--seconds`` have passed, and there are at least two, so that
the artifacts of two repetitions can be compared byte for byte.
End-to-end metrics are medians over repetitions, and their times are CPU
seconds of the command processes.  With ``--trace 1``
one untraced repetition is followed by a traced in-process run, which
gives the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when
every correctness check passed, 1 when one failed, 2 when the package
sources are missing or do not compile (then no result is printed).
See ``perfbench/README.md`` for the metrics.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
MIN_REPS = 2
DEADLINE_S = 170.0     # every command is killed past this point of the run
DAY_NS = 86_400 * 10 ** 9
REDETECT_ALPHA = "0.9999"

# times are CPU seconds (user + system) of the command processes: on a
# shared VM the wall time of the same command swings with the host's load
# (steal), its CPU time much less
E2E_UNITS = {
    "total_cpu_s": "s", "detect_cpu_s": "s", "append_cpu_s": "s",
    "rows_per_cpu_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s",
}
# reported by name, but not in the result's metrics: wall times move with
# the host's load, one ingest or analyze process is too short to bound, and
# the rest are zero or undefined on some workloads or seeds
EXTRA_UNITS = {
    "total_s": "s", "detect_s": "s", "append_latency_s": "s", "rows_per_s": "rows/s",
    "ingest_s": "s", "analyze_s": "s", "redetect_s": "s",
    "failed_day_frac": "ratio", "untested_day_frac": "ratio",
    "jump_recall": "ratio", "spurious_jumps_per_day": "1/day",
}
LAYER_UNITS = {
    "ajl.calibration_s": "s", "ajl.test_cold_s": "s", "ajl.test_warm_s": "s",
    "ajl.statistic_s": "s", "ajl.calibrations": "count",
    "ajl.calibration_reuse": "ratio",
    "tickstore.ingest_s": "s", "tickstore.ingest_us_per_row": "us/row",
    "tickstore.rows_accepted": "count", "tickstore.rows_rejected": "count",
    "tickstore.slice_s": "s", "tickstore.slice_us_per_row": "us/row",
    "tickstore.reingest_s": "s", "tickstore.store_bytes": "bytes",
    "preprocess.aggregate_s": "s", "preprocess.filter_s": "s",
    "preprocess.points_removed": "count", "preprocess.select_frequency_s": "s",
    "preprocess.equispaced_s": "s",
    "lee_mykland.select_k_s": "s", "lee_mykland.scan_s": "s",
    "lee_mykland.blocks": "count", "lee_mykland.flags_raw": "count",
    "lee_mykland.flags_dedup": "count",
    "pipeline.detect_day_s": "s", "pipeline.days_tested": "count",
    "pipeline.days_untested": "count", "pipeline.days_failed": "count",
    "pipeline.true_jumps": "count", "pipeline.jumps_matched": "count",
    "pipeline.jumps_spurious": "count",
    "analytics.tables_s": "s", "cli.import_s": "s", "cli.startup_share": "ratio",
    "simulate.corpus_s": "s", "trace.wall_s": "s", "trace.untraced_total_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Cmd:
    kind: str            # ingest | detect | redetect | analyze
    wall: float
    cpu: float           # user + system seconds of the process
    rss_mb: float
    rc: int
    output: str


@dataclass
class Detect:
    """One detect command: the symbol-days it was asked for and what it wrote."""

    cmd: Cmd
    expected: set
    records: list
    manifest: dict | None


@dataclass
class Rep:
    total_s: float = 0.0
    cmds: list = field(default_factory=list)
    detects: list = field(default_factory=list)   # main detects, then the redetect
    latencies: list = field(default_factory=list)      # wall, ingest + detect
    append_cpu: list = field(default_factory=list)     # CPU, ingest + detect
    accepted: int = 0
    rejected: int = 0
    artifacts: dict = field(default_factory=dict)
    catalog: list = field(default_factory=list)   # verdicts of the main detects

    def seconds(self, *kinds: str) -> float:
        return sum(c.wall for c in self.cmds if c.kind in kinds)

    def cpu(self, *kinds: str) -> float:
        """CPU seconds of the commands of these kinds, or of every command."""
        return sum(c.cpu for c in self.cmds if not kinds or c.kind in kinds)


def _child_env(home: Path) -> dict:
    env = dict(os.environ)
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        (home / sub).mkdir(parents=True, exist_ok=True)
        env[var] = str(home / sub)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_cli(kind: str, args: list[str], cwd: Path, env: dict, deadline: float) -> Cmd:
    """One ``hfjumps`` command in a fresh process, timed and with its peak RSS."""
    log_path = cwd / f"{kind}-{time.monotonic_ns()}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hfjumps.cli", *args],
                                cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Cmd(kind, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, proc.returncode,
               log_path.read_text(errors="replace"))


def _ingest_totals(cmd: Cmd) -> tuple[int, int]:
    for line in reversed(cmd.output.splitlines()):
        if line.startswith("total: accepted="):
            acc, rej = line.split()[1:3]
            return int(acc.split("=")[1]), int(rej.split("=")[1])
    return 0, 0


def _read_detect(cmd: Cmd, catalog: Path, expected: set) -> Detect:
    from hfjumps.pipeline import load_catalog

    records = load_catalog(catalog) if catalog.exists() else []
    manifest_path = catalog.with_name(catalog.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    return Detect(cmd, expected, records, manifest)


def _hash_tree(base: Path, subdirs) -> dict:
    out = {}
    for sub in subdirs:
        for p in sorted((base / sub).rglob("*")):
            if p.is_file():
                out[str(p.relative_to(base))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_chain(w, corpus, rep_dir: Path, deadline: float) -> Rep:
    """The workload's closed loop: one command at a time from this process."""
    env = _child_env(rep_dir)
    rep = Rep()
    days = corpus.symbol_days()
    start = time.perf_counter()

    def cli(kind, *args):
        cmd = _run_cli(kind, list(args), rep_dir, env, deadline)
        rep.cmds.append(cmd)
        return cmd

    def ingest(files):
        cmd = cli("ingest", "ingest", "--store", "store", "--csv", *[str(f.path) for f in files])
        acc, rej = _ingest_totals(cmd)
        rep.accepted += acc
        rep.rejected += rej
        return cmd

    def detect(kind, out: str, expected, *extra):
        (rep_dir / out).mkdir(parents=True, exist_ok=True)
        cmd = cli(kind, "detect", "--store", "store", "--out", f"{out}/catalog.jsonl",
                  *extra)
        rep.detects.append(_read_detect(cmd, rep_dir / out / "catalog.jsonl", set(expected)))
        return cmd

    outputs = ["tables"]
    if w.daily:
        parts = []
        for day in sorted({d for _, d in days}):
            d = day.isoformat()
            ing = ingest([f for f in corpus.files if f.day == day])
            det = detect("detect", f"days/{d}", [sd for sd in days if sd[1] == day],
                         "--from", d, "--to", d)
            rep.latencies.append(ing.wall + det.wall)
            rep.append_cpu.append(ing.cpu + det.cpu)
            parts.append((rep_dir / f"days/{d}/catalog.jsonl").read_bytes()
                         if (rep_dir / f"days/{d}/catalog.jsonl").exists() else b"")
        (rep_dir / "all").mkdir()
        (rep_dir / "all/catalog.jsonl").write_bytes(b"".join(parts))
        catalog = "all/catalog.jsonl"
        outputs += ["days", "all"]
    else:
        ing = ingest(corpus.files)
        det = detect("detect", "detect", days)
        rep.latencies.append(ing.wall + det.wall)
        rep.append_cpu.append(ing.cpu + det.cpu)
        if w.redetect:
            detect("redetect", "redetect", days, "--alpha", REDETECT_ALPHA)
            outputs.append("redetect")
        catalog = "detect/catalog.jsonl"
        outputs.append("detect")
    cli("analyze", "analyze", "--store", "store", "--catalog", catalog, "--out", "tables")
    rep.total_s = time.perf_counter() - start
    rep.artifacts = _hash_tree(rep_dir, outputs)
    rep.catalog = [r for d in rep.detects if d.cmd.kind == "detect" for r in d.records]
    return rep


def check_rep(rep: Rep, corpus, first: Rep | None) -> list[str]:
    """Correctness failures of one repetition (empty when all checks pass)."""
    bad = [f"{c.kind} exited with {c.rc}: {c.output.strip().splitlines()[-1:]}"
           for c in rep.cmds if c.rc != 0]
    for d in rep.detects:
        got = [(r["symbol"], r["date"]) for r in d.records]
        want = {(s, day.isoformat()) for s, day in d.expected}
        if len(got) != len(set(got)) or set(got) != want:
            bad.append(f"{d.cmd.kind}: verdicts for {sorted(got)}, expected {sorted(want)}")
        if not (d.manifest or {}).get("complete"):
            bad.append(f"{d.cmd.kind}: manifest not complete: {d.manifest}")
    if rep.rejected != corpus.malformed:
        bad.append(f"rows_rejected={rep.rejected}, injected {corpus.malformed}")
    if rep.accepted != corpus.rows:
        bad.append(f"rows_accepted={rep.accepted}, generated {corpus.rows}")
    if first is not None and rep.artifacts != first.artifacts:
        differ = sorted(k for k in set(rep.artifacts) | set(first.artifacts)
                        if rep.artifacts.get(k) != first.artifacts.get(k))
        bad.append(f"artifacts differ between repetitions: {differ}")
    return bad


def day_counts(rep: Rep) -> tuple[int, int, int]:
    """(attempted, failed, untested) symbol-days over every detect command."""
    attempted = failed = untested = 0
    for d in rep.detects:
        attempted += len(d.expected)
        if d.cmd.rc != 0:
            failed += len(d.expected)
            continue
        for r in d.records:
            if r["reason"].startswith("error:"):
                failed += 1
            elif not r["tested"]:
                untested += 1
    return attempted, failed, untested


def match_jumps(catalog: list[dict], corpus, ticks_per_day: int) -> tuple[int, int, int]:
    """(true jumps, true jumps found, accepted events matching no true jump).

    An event is the LM block that starts at its timestamp and spans k*M
    ticks; it matches a true jump when it lies within one such block of
    the ticks the jump is spread over.
    """
    from corpus import JUMP_SPREAD_TICKS

    step = DAY_NS // ticks_per_day
    n_true = found = spurious = 0
    for rec in catalog:
        d = date.fromisoformat(rec["date"])
        day0 = int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp()) * 10 ** 9
        spans = []
        for t, _size in corpus.truth.get((rec["symbol"], rec["date"]), []):
            # as in simulate_day: the level moves between ticks idx-1 and hi-1
            idx = min(max(int(t * ticks_per_day), 1), ticks_per_day - 1)
            hi = min(idx + JUMP_SPREAD_TICKS, ticks_per_day)
            spans.append((day0 + (idx - 1) * step, day0 + (hi - 1) * step))
        n_true += len(spans)
        events = rec.get("accepted_jumps") or []
        if not events:
            continue
        block = rec["lm"]["k"] * rec["lm"]["M"] * step
        hits = [[lo - 2 * block <= ev["utc_timestamp_ns"] <= hi + block for lo, hi in spans]
                for ev in events]
        found += sum(any(h[j] for h in hits) for j in range(len(spans)))
        spurious += sum(not any(h) for h in hits)
    return n_true, found, spurious


@contextmanager
def _environ(env: dict):
    saved = dict(os.environ)
    os.environ.update({k: env[k] for k in ("HOME", "XDG_CACHE_HOME", "TMPDIR")})
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def run_workload(w, seed: int, seconds: int, trace: bool) -> dict:
    from corpus import make_inputs
    import tracing

    environment = _environment()
    began = time.monotonic()
    deadline = began + DEADLINE_S
    work = WORK / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # build: byte-compile the package once, so no timed command pays for it
        if not compileall.compile_dir(SRC, quiet=1):
            raise BenchError(f"cannot byte-compile {SRC}")
        tr = tracing.Tracer()
        # set-up runs in this process; like the commands, it is timed in CPU
        # seconds
        setup_s, digests = [], []
        for i in range(SETUPS):
            cpu0 = time.process_time()
            with tr.span("simulate.corpus"):
                corpus = make_inputs(w, seed, work / f"setup{i}")
            setup_s.append(time.process_time() - cpu0)
            digests.append(corpus.digest())
        checks = [] if len(set(digests)) == 1 else ["corpus differs between set-ups"]

        # traced, one untraced repetition is the reference for the traced run;
        # work directories are removed only at the end, so that no deletion
        # overlaps a timed command
        reps: list[Rep] = []
        t0 = time.monotonic()
        while len(reps) < (1 if trace else MIN_REPS) or (
                not trace and time.monotonic() - t0 < seconds):
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir()
            rep = run_chain(w, corpus, rep_dir, deadline)
            checks += check_rep(rep, corpus, reps[0] if reps else None)
            reps.append(rep)

        first = reps[0]
        counts = [day_counts(r) for r in reps]
        attempted = sum(c[0] for c in counts)
        failed = sum(c[1] for c in counts)
        untested = sum(c[2] for c in counts)
        n_true, found, spurious = match_jumps(first.catalog, corpus, w.ticks_per_day)
        tested_days = sum(r["tested"] for r in first.catalog)
        def med(of_rep):
            return statistics.median(of_rep(r) for r in reps)

        e2e = {
            "total_cpu_s": med(lambda r: r.cpu()),
            "detect_cpu_s": med(lambda r: r.cpu("detect", "redetect")),
            "append_cpu_s": med(lambda r: statistics.median(r.append_cpu)),
            "rows_per_cpu_s": med(lambda r: r.accepted / r.cpu()),
            "peak_rss_mb": med(lambda r: max(c.rss_mb for c in r.cmds)),
            "setup_s": statistics.median(setup_s),
        }
        extra = {
            "total_s": med(lambda r: r.total_s),
            "detect_s": med(lambda r: r.seconds("detect", "redetect")),
            "append_latency_s": med(lambda r: statistics.median(r.latencies)),
            "rows_per_s": med(lambda r: r.accepted / r.total_s),
            "ingest_s": med(lambda r: r.seconds("ingest")),
            "analyze_s": med(lambda r: r.seconds("analyze")),
            "redetect_s": med(lambda r: r.seconds("redetect")) if w.redetect else None,
            "failed_day_frac": failed / attempted if attempted else None,
            "untested_day_frac": untested / attempted if attempted else None,
            "jump_recall": found / n_true if n_true else None,
            "spurious_jumps_per_day": spurious / tested_days if tested_days else None,
        }

        layer = {}
        if trace:
            trace_dir = work / "trace"
            env = _child_env(trace_dir)
            with _environ(env):
                layer, mismatches = tracing.traced_run(tr, corpus, first.catalog,
                                                       trace_dir, env)
            checks += mismatches
            seeds = [len({r["ajl"]["mc_seed"] for r in d.records if r["tested"]})
                     for d in first.detects]
            tested_all = sum(r["tested"] for d in first.detects for r in d.records)
            layer.update({
                "ajl.calibrations": sum(seeds),
                "ajl.calibration_reuse": 1 - sum(seeds) / tested_all if tested_all else 0.0,
                "pipeline.days_failed": day_counts(first)[1],
                "pipeline.true_jumps": n_true,
                "pipeline.jumps_matched": found,
                "pipeline.jumps_spurious": spurious,
                "cli.startup_share": layer["cli.import_s"] * len(first.cmds) / extra["total_s"],
                "simulate.corpus_s": statistics.median(setup_s),
                "trace.untraced_total_s": extra["total_s"],
            })

        record = {
            "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment,
            "inputs": {"files": len(corpus.files), "rows": corpus.rows,
                       "malformed_rows": corpus.malformed, "bytes": corpus.bytes},
            "correct": not checks, "checks_failed": checks,
            "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "extra": extra, "per_layer": layer,
            "setup_samples_s": setup_s,
            "repetitions": [{"total_s": r.total_s,
                             "commands": [{"kind": c.kind, "wall_s": c.wall,
                                           "cpu_s": c.cpu, "rss_mb": c.rss_mb,
                                           "rc": c.rc}
                                          for c in r.cmds]} for r in reps],
            "spans": tr.spans if trace else [],
            "elapsed_s": time.monotonic() - began,
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, default=str))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg": os.getloadavg()}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_lines(rec: dict) -> list[str]:
    w = rec["workload"]
    lines = [f"[{w}] seed={rec['seed']} correct={rec['correct']} "
             f"repetitions={len(rec['repetitions'])} inputs={rec['inputs']}",
             f"[{w}] env {json.dumps(rec['env'])}"]
    lines += [f"[{w}] check failed: {c}" for c in rec["checks_failed"]]
    for table, units in (("end_to_end", E2E_UNITS), ("extra", EXTRA_UNITS),
                         ("per_layer", LAYER_UNITS)):
        for name, value in rec[table].items():
            lines.append(f"[{w}] {name} = {_fmt(value)} {units[name]}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "hfjumps" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from corpus import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    try:
        records = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print("\n".join(report_lines(rec)))

    table, units = ("per_layer", LAYER_UNITS) if args.trace else ("end_to_end", E2E_UNITS)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + name: {"value": rec[table][name], "unit": units[name]}
                        for name in units})
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
