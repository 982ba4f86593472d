#!/usr/bin/env python3
"""Recompute cmbench/expected.json, the values every benchmark run checks against.

    python3 cmbench/make_expected.py

Run from the root of a source checkout, on code whose outputs are trusted.
It records:

* grid: per char (32003 and 0), the digest of each claim report with its
  seed labels taken out (the same for every seed), and the sha256 of the
  whole ``verify all --format json`` text for each seed in SEEDS;
* build: the digest of the reduced bases of each build item;
* resolve: for each ACI file in inputs/, its sha256, the command that made
  it, its Betti table and regularity, and the work (Groebner basis size,
  pairs, zero reductions, non-minimal ranks, cancellations) of its two
  variable orders: the file's own and the reversed one.

The ACI files themselves are written by the ``command`` recorded for each.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

# The grid seeds whose whole JSON digest is recorded.
SEEDS = tuple(range(21)) + (2026,)
ACIS = (
    ("aci_3_3", ["--m", "3", "--n", "3"]),
    ("aci_3_2p", ["--m", "3", "--n", "2", "--primed"]),
    ("aci_4_2", ["--m", "4", "--n", "2"]),
)


def orders(cm, ideal):
    """The file's own variable order and the reversed one, with their work."""
    n = ideal.ring.nvars
    out = []
    for perm in (list(range(n)), list(range(n - 1, -1, -1))):
        I = run.transformed(cm, ideal, perm, [1] * n)
        res = cm["resolution"].minimal_resolution(I)
        gb = I.groebner()
        out.append({"perm": perm, "nonminimal_ranks": res.stats["nonminimal_ranks"],
                    "cancelled": res.stats["cancelled"],
                    "groebner": {"basis_size": len(gb), "pairs": gb.stats["pairs_processed"],
                                 "zero_reductions": gb.stats["zero_reductions"]}})
    return out


def main():
    cm = run.import_cmreg()
    families, verify = cm["families"], cm["verify"]
    out = {"grid": {}, "build": {}, "resolve": []}

    for name, flags in ACIS:
        raw = (run.HERE / "inputs" / f"{name}.txt").read_bytes()
        ideal = cm["cli"].parse_ideal_file(raw.decode())
        res = cm["resolution"].minimal_resolution(ideal)
        out["resolve"].append({
            "name": name, "file": f"inputs/{name}.txt",
            "sha256": hashlib.sha256(raw).hexdigest(),
            "command": " ".join(["cmreg", "family"] + flags + ["--out", f"{name}.txt"]),
            "regularity_ideal": cm["resolution"].regularity_ideal(ideal),
            "betti": sorted([i, j, b] for (i, j), b in res.betti.entries.items()),
            "orders": orders(cm, ideal),
        })
        print(name, "done", file=sys.stderr, flush=True)

    for m, n, primed in run.BUILD_ITEMS:
        families._FAMILY_CACHE.clear()
        inst = families.build_family(m, n, primed=primed)
        out["build"][f"build({m},{n}{'p' if primed else ''})"] = run.sha256(run.instance_text(inst))

    for char in (32003, 0):
        entry = {"reports": None, "sha256_by_seed": {}}
        for seed in SEEDS:
            families._FAMILY_CACHE.clear()
            reports = verify.grid_reports(char=char, seed=seed)
            if verify.overall_verdict(reports) != "pass":
                raise SystemExit(f"grid char={char} seed={seed} does not pass")
            digests = [run.sha256(run.normalize_report(r.to_obj()))[:16] for r in reports]
            if entry["reports"] not in (None, digests):
                raise SystemExit(f"grid char={char} seed={seed}: reports depend on the seed")
            entry["reports"] = digests
            text = verify.render_json(reports, char=char, seed=seed)
            entry["sha256_by_seed"][str(seed)] = run.sha256(text)
            print("grid", char, seed, file=sys.stderr, flush=True)
        out["grid"][str(char)] = entry

    (run.HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
