"""bench_point.py reads the output of ``cmbench/run.py --workload all``.

The script keeps the final JSON line of each run and the ``env`` and ``run``
lines of each workload; these tests feed it the shape run.py prints, so a
change to that shape fails here rather than in a half-written BENCH file.
They also check that a point is refused, before any bench runs, when its
checkout has uncommitted changes or its file already exists.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench_point.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_point", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_run_keeps_the_final_line_and_each_workloads_environment():
    rows = {w: {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
            for w in ("grid", "build")}
    lines = []
    for w in rows:
        lines += [f"== {w}", "env " + json.dumps({"python": "3.11", "nproc": 2}),
                  "pass 1: wall 0.050 s, cpu 0.050 s, 39 items, 0 failed",
                  "run " + json.dumps({"passes": 3}), "wall_s = 0.05 s",
                  json.dumps(rows[w])]
    lines += ["metric  grid  build", json.dumps(rows)]
    got, env, run = _load().parse_run("\n".join(lines) + "\n")
    assert got == rows
    assert env == {w: {"python": "3.11", "nproc": 2} for w in rows}
    assert run == {w: {"passes": 3} for w in rows}


def _checkout(tmp_path):
    repo = tmp_path / "checkout"
    repo.mkdir()
    (repo / "run.py").write_text("")
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "run.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "seed"], check=True)
    return repo


def test_a_modified_checkout_is_refused(tmp_path):
    repo = _checkout(tmp_path)
    (repo / "run.py").write_text("changed = True\n")
    out = tmp_path / "point.json"
    with pytest.raises(SystemExit, match="changes not in"):
        _load().main(["--checkout", str(repo), "--out", str(out)])
    assert not out.exists()


def test_an_existing_point_is_not_overwritten(tmp_path):
    repo = _checkout(tmp_path)
    out = tmp_path / "point.json"
    out.write_text("kept")
    with pytest.raises(SystemExit, match="exists"):
        _load().main(["--checkout", str(repo), "--out", str(out)])
    assert out.read_text() == "kept"
