"""Every demo script, and the README's Library and Command line examples, run to completion."""
import glob
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library", "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    from hfjumps.cli import main

    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    script = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in script.splitlines()
                if line and not line.startswith("#")]
    assert [c[:2] for c in commands] == [["hfjumps", name] for name in
                                         ("simulate", "ingest", "detect", "analyze", "report")]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = []
        for word in command[1:]:          # the shell's glob expansion
            matches = sorted(glob.glob(word)) if glob.escape(word) != word else [word]
            assert matches, word
            argv += matches
        assert main(argv) == 0, command
    assert (tmp_path / "report" / "timeline.csv").exists()
