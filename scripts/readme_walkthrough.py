"""Run the README's "Command line" walkthrough through the ``hfjumps`` on PATH.

Each command line of the README's first ``bash`` block under
"## Command line" runs in a shell, in a new temporary directory outside
the checkout, so the commands use the installed package: its console
script and the data files it ships.  Exits 1 unless every command exits
0, the catalog holds at least one tested day and the report bundle
holds ``timeline.csv`` and the catalog's manifest and removal log.  Then
it concatenates the catalog with itself, and exits 1 unless ``hfjumps
analyze`` refuses that catalog, which holds each symbol-day twice: exit
2 and no output directory.

    python -m venv venv && venv/bin/pip install .
    PATH="$PWD/venv/bin:$PATH" python scripts/readme_walkthrough.py

Needs the standard library only.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def commands() -> list[str]:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    script = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in script.splitlines() if line and not line.startswith("#")]


def main() -> int:
    hfjumps = shutil.which("hfjumps")
    if hfjumps is None:
        print("no hfjumps on PATH: install the package first", file=sys.stderr)
        return 1
    print(f"hfjumps: {hfjumps}")
    with tempfile.TemporaryDirectory(prefix="hfjumps_walkthrough_") as tmp:
        work = Path(tmp)
        for line in commands():
            print(f"$ {line}", flush=True)
            if subprocess.run(line, shell=True, cwd=work).returncode != 0:
                print(f"failed: {line}", file=sys.stderr)
                return 1
        records = [json.loads(line) for line in
                   (work / "catalog.jsonl").read_text().splitlines()]
        tested = sum(rec["tested"] for rec in records)
        print(f"catalog: {len(records)} days, {tested} tested")
        if not tested:
            print("the catalog holds no tested day", file=sys.stderr)
            return 1
        for name in ("timeline.csv", "catalog.jsonl.manifest.json",
                     "catalog.jsonl.removals.csv"):
            if not (work / "report" / name).is_file():
                print(f"the report bundle holds no {name}", file=sys.stderr)
                return 1
        (work / "twice.jsonl").write_bytes((work / "catalog.jsonl").read_bytes() * 2)
        line = "hfjumps analyze --store store/ --catalog twice.jsonl --out twice/"
        print(f"$ {line}", flush=True)
        code = subprocess.run(line, shell=True, cwd=work).returncode
        if code != 2 or (work / "twice").exists():
            print(f"a catalog holding each day twice: exit {code}, want 2 and no twice/",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
