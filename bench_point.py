#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<date>_<commit>.json.

Runs ``cmbench/run.py --workload all`` twice, each as a subprocess: once
with ``--trace 0`` (the end-to-end metrics: wall, cpu, setup, item times,
peak RSS) and once with ``--trace 1`` (the per-layer spans and the
deterministic work counters).  Each workload runs passes for at least
``SECONDS`` seconds, the same for every point, so points compare.  The file
keeps each run's final JSON line, which holds every workload's verdict and
metrics, and the ``env`` and ``run`` lines each workload printed: Python,
CPU model, load, passes and core speed.

    python3 bench_point.py                      # BENCH_<today>_<HEAD>.json here
    python3 bench_point.py --checkout ../other  # another checkout's bench
    python3 bench_point.py --out BENCH_x.json

A point belongs to one commit: the checkout must be a git checkout whose
tracked files match its HEAD, and an existing file is never overwritten.
``--checkout`` runs the bench of another checkout of this repository, such
as a parent commit, so that a before and after pair is measured on one
machine; the file is still written here unless ``--out`` says otherwise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = 3


def parse_run(stdout):
    """(rows, env, run) of one ``run.py --workload all`` output: the final
    JSON line, and each workload's ``env`` and ``run`` lines by name."""
    lines = stdout.strip().splitlines()
    env, run, name = {}, {}, None
    for line in lines:
        if line.startswith("== "):
            name = line[3:].strip()
        elif line.startswith("env ") and name is not None:
            env[name] = json.loads(line[4:])
        elif line.startswith("run ") and name is not None:
            run[name] = json.loads(line[4:])
    return json.loads(lines[-1]), env, run


def git(checkout, *args):
    """The stripped output of a git command in checkout, or None."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(checkout, trace):
    """One ``--workload all`` run of checkout's bench, parsed."""
    cmd = [sys.executable, "cmbench/run.py", "--workload", "all", "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_point: {' '.join(cmd[1:])} exited with {proc.returncode}")
    rows, env, run = parse_run(proc.stdout)
    return {"command": cmd[1:], "workloads": rows, "env": env, "run": run}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=HERE,
                    help="checkout whose cmbench/run.py is run (default: this one)")
    ap.add_argument("--out", type=Path, default=None,
                    help="output file (default: BENCH_<date>_<commit>.json beside this script)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    commit = git(checkout, "rev-parse", "HEAD")
    if commit is None:
        raise SystemExit(f"bench_point: {checkout} is not a git checkout with a commit")
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"bench_point: {checkout} has changes not in {commit[:7]}; commit them first")
    date = datetime.date.today().isoformat()
    out = args.out or HERE / f"BENCH_{date}_{commit[:7]}.json"
    if out.exists():
        raise SystemExit(f"bench_point: {out} exists; pass another --out")
    point = {
        "date": date,
        "commit": commit,
        "untraced": measure(checkout, 0),
        "traced": measure(checkout, 1),
    }
    with out.open("x") as f:
        f.write(json.dumps(point, indent=1, sort_keys=True) + "\n")
    correct = {f"{kind}/{w}": row["correct"] for kind in ("untraced", "traced")
               for w, row in point[kind]["workloads"].items()}
    print(f"wrote {out.name}: " + ", ".join(f"{k} {'ok' if v else 'FAILED'}"
                                            for k, v in correct.items()))
    return 0 if all(correct.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
