"""Self-tests of the benchmark; run with ``python3 -m pytest cmbench`` from the root.

They check the committed inputs against the code that made them, that counts
repeat exactly between traced runs, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402
import normclock  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def cm():
    return run.import_cmreg()


@pytest.fixture(scope="module")
def expected():
    return json.loads((HERE / "expected.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", ["aci_3_3", "aci_3_2p"])
def test_resolve_input_is_what_cmreg_family_writes(cm, expected, name):
    """(4,2) is left out: it takes about half a minute to build."""
    entry = next(e for e in expected["resolve"] if e["name"] == name)
    flags = dict(make_expected.ACIS)[name]
    cm["families"]._FAMILY_CACHE.clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cm["cli"].main(["family"] + flags)
    text = buf.getvalue()
    raw = (HERE / entry["file"]).read_bytes()
    assert text.encode() == raw
    assert hashlib.sha256(raw).hexdigest() == entry["sha256"]
    assert entry["command"].startswith("cmreg family " + " ".join(flags))


def test_expected_regularities(expected):
    regs = {e["name"]: e["regularity_ideal"] for e in expected["resolve"]}
    assert regs == {"aci_3_3": 36, "aci_3_2p": 17, "aci_4_2": 26}


def test_seed_changes_the_input_but_not_the_work(cm, expected):
    entry = next(e for e in expected["resolve"] if e["name"] == "aci_3_3")
    runs = [run.Resolve(cm, expected, seed) for seed in (1, 2)]
    scales = [next(s for e, _, s in r.inputs if e is entry) for r in runs]
    assert scales[0] != scales[1]
    ideal = runs[0].inputs[0][1]
    for order in entry["orders"]:
        for scale in scales:
            I = run.transformed(cm, ideal, order["perm"], scale)
            res = cm["resolution"].minimal_resolution(I)
            assert res.stats["nonminimal_ranks"] == order["nonminimal_ranks"]
            assert res.stats["cancelled"] == order["cancelled"]
            table = sorted([i, j, b] for (i, j), b in res.betti.entries.items())
            assert table == entry["betti"]


def test_normalized_report_drops_only_seed_labels():
    obj = {"claim": "lemma12", "params": {"m": 2, "seed": 7},
           "subchecks": [{"name": "round-1-seed-9980", "status": "pass",
                          "values": {"q": 1, "section_seed": 7, "attempted_seeds": [7, 9]}}]}
    assert json.loads(run.normalize_report(obj)) == {
        "claim": "lemma12", "params": {"m": 2},
        "subchecks": [{"name": "round-1", "status": "pass", "values": {"q": 1}}]}


def test_known_defect_only_when_every_failure_is_it():
    def report(*subchecks):
        return SimpleNamespace(subchecks=[SimpleNamespace(name=n, status=st, note=note)
                                          for n, st, note in subchecks])

    defect = ("unexpected-error", "fail", run.KNOWN_DEFECT)
    assert run.known_defect(report(("round-0", "pass", ""), defect))
    assert not run.known_defect(report(("round-0", "fail", ""), defect))
    assert not run.known_defect(report(("unexpected-error", "fail", "ValueError: x")))
    assert not run.known_defect(report(("round-0", "pass", "")))


@pytest.mark.parametrize("workload", ["resolve", "grid"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {name for name, _, _ in run.METRICS}
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"
               and k != "trace.overhead_frac"} for res in results]
    assert counts[0] == counts[1]


def test_clock_counts_time_at_the_speed_the_probe_saw(monkeypatch):
    """A probe twice as slow as on the reference core halves the clock's rate."""
    monkeypatch.setattr(normclock, "probe", lambda: 2 * normclock.PROBE_S)
    normclock.start()
    normclock.stop()  # the probes are taken by hand below
    t0 = time.perf_counter()
    time.sleep(0.05)
    normclock._tick()
    elapsed = time.perf_counter() - t0
    assert normclock.wall() == pytest.approx(elapsed / 2, rel=0.05)
    assert normclock.speed() == pytest.approx(0.5, rel=0.05)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
