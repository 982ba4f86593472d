#!/usr/bin/env python3
"""Benchmark of the cmreg engine: four closed-loop workloads with checked outputs.

    python3 cmbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 cmbench/run.py                       # every workload in turn

Run from the root of a source checkout; cmreg is imported from ``src/``.
One run loads its inputs, then repeats passes of its workload in one thread
until ``--seconds`` have gone by, and finishes the pass in progress.  Every
pass starts with an empty family cache and fresh Ideal objects, as a CLI
call would.  Workloads (see README.md in this directory):

    grid     verify.grid_reports at char 32003 plus render_json; item = claim report
    build    cold build_family for (3,3) and primed (3,2); item = build
    resolve  minimal_resolution of three committed ACIs, each in its own and
             in the reversed variable order, variables scaled by the seed;
             item = resolution
    grid-qq  grid at char 0 (exact rationals)

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics of cmbench/layers.py.  Earlier lines describe the run.
Times are read from normclock: seconds at a fixed reference speed of the
core, so that other tenants of a shared host do not move them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import normclock
from layers import COVERAGE, METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "build", "resolve", "grid-qq")
SETUP_PROBES = 11
# Medians need a few passes, however long a pass takes.
MIN_PASSES = 3
# The (m, n, primed) instances of the build workload.
BUILD_ITEMS = ((3, 3, False), (3, 2, True))
# Degree of the (4,3) curve: the certified residual of the known-defect
# item has degree deg(A/I) - 192.
DEFECT_CURVE_DEGREE = 192
# ROADMAP item 2: _kernel._spair keeps coefficients that are 0 mod p, and
# inverting one of them later raises this.
KNOWN_DEFECT = "ZeroDivisionError: inverse of zero in prime field"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("item_p50_s", "s"),
              ("item_max_s", "s"), ("peak_rss_mb", "MB"))


def import_cmreg():
    """The cmreg modules, imported from this checkout's src/ and nowhere else."""
    if not (SRC / "cmreg" / "__init__.py").is_file():
        raise SystemExit(f"cmbench: no cmreg sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cmreg
    from cmreg import (_linalg, cli, families, groebner, hilbert, idealops, resolution,
                       ring, sections, verify)
    if Path(cmreg.__file__).resolve().parent != SRC / "cmreg":
        raise SystemExit(f"cmbench: imported cmreg from {cmreg.__file__}, not from {SRC}")
    return {m.__name__.split(".")[-1]: m for m in (
        _linalg, cli, families, groebner, hilbert, idealops, resolution, ring, sections,
        verify)}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


_ROUND = re.compile(r"^(round-\d+)-seed-\d+$")


def normalize_report(obj):
    """A claim report with the seed labels taken out: which seeds were drawn
    differs by seed, the checked values do not."""
    obj = json.loads(json.dumps(obj))
    obj["params"].pop("seed", None)
    for sub in obj["subchecks"]:
        sub["name"] = _ROUND.sub(r"\1", sub["name"])
        sub["values"].pop("section_seed", None)
        sub["values"].pop("attempted_seeds", None)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_text(inst):
    """The reduced bases a family build produces, as text."""
    parts = [("curve", inst.curve.groebner().polys),
             ("residual", inst.residual.groebner().polys),
             ("aci", inst.almost_complete_intersection.gens)]
    return "".join(f"{name}:\n" + "".join(f"{p}\n" for p in polys) for name, polys in parts)


def transformed(cm, ideal, perm, scale):
    """A fresh Ideal: variable i of ``ideal`` becomes scale[i] times variable perm[i]."""
    R, F = ideal.ring, ideal.ring.field
    gens = []
    for g in ideal.gens:
        data = {}
        for e, c in g.terms:
            out = [0] * R.nvars
            for i, x in enumerate(e):
                out[perm[i]] = x
                c = F.mul(c, F(scale[i] ** x))
            data[tuple(out)] = c
        gens.append(cm["ring"].Polynomial(R, data))
    return cm["groebner"].Ideal(R, gens)


class Pass:
    """One pass of a workload: timings, items, and what it produced."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.raw = []          # results of the timed part, checked afterwards
        self.extra = None      # a workload's other result of the timed part
        self.cold = True       # whether the pass started with cold caches
        self.items = []        # (key, wall s, cpu s, failure note or None)
        self.errors = []       # pass-level check failures
        self.output = []       # text whose digest must repeat on every pass
        self.known_defect = 0
        self.tracer = None     # the Tracer, on a traced pass
        self.layers = None

    def timed(self, body):
        t0 = clock()
        try:
            return body()
        finally:
            self.wall, self.cpu = since(t0)


clock = normclock.now


def since(t0):
    """(wall, cpu) seconds since clock() returned t0."""
    t1 = clock()
    return t1[0] - t0[0], t1[1] - t0[1]


def cold_family_cache(cm, p):
    """The guard every pass starts with; a pass that fails it is invalid."""
    if cm["families"]._FAMILY_CACHE:
        p.cold = False
        p.errors.append("family cache not empty at the start of the pass")


def known_defect(report):
    """Whether a claim report failed by the known defect and nothing else."""
    failed = [s for s in report.subchecks if s.status == "fail"]
    return bool(failed) and all(s.name == "unexpected-error" and s.note == KNOWN_DEFECT
                                for s in failed)


def timed_item(key, fn, *args, **kwargs):
    """(key, (wall, cpu) seconds, result, error text or None) of one item."""
    t0 = clock()
    try:
        out, err = fn(*args, **kwargs), None
    except Exception as exc:
        out, err = None, f"{type(exc).__name__}: {exc}"
    return key, since(t0), out, err


class Grid:
    """verify.grid_reports + render_json; one item per claim report."""

    def __init__(self, cm, expected, seed, char):
        self.cm, self.seed, self.char = cm, seed, char
        self.ref = expected["grid"][str(char)]

    def run_pass(self, p):
        verify = self.cm["verify"]
        cold_family_cache(self.cm, p)
        inner = verify.run_claim
        tracer = p.tracer

        def timed_claim(claim, m, n, primed, **kwargs):
            builds = tracer.build_total if tracer else 0.0
            t0 = clock()
            rep = inner(claim, m, n, primed, **kwargs)
            dt = since(t0)
            p.raw.append((f"{claim}({m},{n}{'p' if primed else ''})", dt, rep))
            if tracer:
                tracer.claim(claim, dt[0], builds)
            return rep

        def body():
            reports = verify.grid_reports(char=self.char, seed=self.seed)
            p.extra = verify.render_json(reports, char=self.char, seed=self.seed)

        verify.run_claim = timed_claim
        try:
            p.timed(body)
        finally:
            verify.run_claim = inner

    def check(self, p):
        ref = self.ref["reports"]
        if len(p.raw) != len(ref):
            p.errors.append(f"{len(p.raw)} claim reports, expected {len(ref)}")
        for k, (key, dt, rep) in enumerate(p.raw):
            if known_defect(rep):
                p.known_defect += 1
                p.output.append(f"{key}: known defect")
                continue
            note = None
            if rep.verdict == "fail":
                note = "verdict fail"
            elif k >= len(ref) or sha256(normalize_report(rep.to_obj()))[:16] != ref[k]:
                note = "report differs from the expected one"
            p.items.append((key, *dt, note))
        if json.loads(p.extra)["verdict"] != "pass" and not p.known_defect:
            p.errors.append("grid verdict is not pass")
        digest = sha256(p.extra)
        exact = self.ref["sha256_by_seed"].get(str(self.seed))
        if exact is not None and digest != exact:
            p.errors.append(f"report JSON sha256 {digest[:12]}, expected {exact[:12]}")
        p.output.append(digest)
        self.cm["families"]._FAMILY_CACHE.clear()


class Build:
    """Cold family builds plus the known-defect colon at (4,3)."""

    def __init__(self, cm, expected, seed):
        self.cm = cm
        self.ref = expected["build"]

    def run_pass(self, p):
        cm = self.cm
        families, ring = cm["families"], cm["ring"]
        cold_family_cache(cm, p)

        def body():
            for m, n, primed in BUILD_ITEMS:
                key = f"build({m},{n}{'p' if primed else ''})"
                p.raw.append(timed_item(key, families.build_family, m, n, primed=primed))
            R = ring.PolyRing(tuple(f"X{i}" for i in range(6)),
                              ring.field_of_characteristic(32003))
            I = cm["groebner"].Ideal(R, families.ci_forms(4, 3, R))
            pivot = families.residual_pivot(R, 4, 3)
            p.extra = (I, pivot) + timed_item("colon(4,3)", cm["idealops"].colon, I, pivot)

        p.timed(body)

    def check(self, p):
        for key, dt, inst, err in p.raw:
            if err is None and sha256(instance_text(inst)) != self.ref.get(key):
                err = "reduced bases differ from the expected ones"
            p.items.append((key, *dt, err))
            p.output.append(f"{key}:{err}")
        I, pivot, key, dt, J, err = p.extra
        if err == KNOWN_DEFECT:
            p.known_defect += 1
            p.output.append(f"{key}: known defect")
        else:
            note = err or self._certify_colon(I, pivot, J)
            p.items.append((key, *dt, note))
            p.output.append(f"{key}:{note}")
        self.cm["families"]._FAMILY_CACHE.clear()

    def _certify_colon(self, I, pivot, J):
        """I in J, pivot * J in I, and deg(A/J) = deg(A/I) - deg(curve)."""
        hilbert, Ideal = self.cm["hilbert"], self.cm["groebner"].Ideal
        if not J.contains_ideal(I):
            return "I is not contained in I : pivot"
        if not I.contains_ideal(Ideal(I.ring, [pivot * g for g in J.gens])):
            return "pivot * (I : pivot) escapes I"
        dim_i, deg_i = hilbert.dim_deg(I)
        if hilbert.dim_deg(J) != (dim_i, deg_i - DEFECT_CURVE_DEGREE):
            return f"(dim, deg) of A/J is {hilbert.dim_deg(J)}, expected deg {deg_i - DEFECT_CURVE_DEGREE}"
        return None


class Resolve:
    """Minimal resolutions of committed ACIs in their own variable order
    (the one ``cmreg betti`` resolves) and in the reversed order, with the
    variables scaled by factors drawn from the seed.

    Scaling leaves the Betti table and the Groebner and Schreyer work as they
    are, so the seed changes the input but not the work of a pass.  Orders
    that do equal work (equal non-minimal ranks) still differ in time by up
    to 1.8x, so the orders are fixed rather than drawn.
    """

    def __init__(self, cm, expected, seed):
        self.cm = cm
        rng = random.Random(seed)
        self.inputs = []
        for entry in expected["resolve"]:
            raw = (HERE / entry["file"]).read_bytes()
            if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
                raise SystemExit(f"cmbench: {entry['file']} does not match its sha256")
            ideal = cm["cli"].parse_ideal_file(raw.decode())
            scale = [rng.randrange(1, ideal.ring.field.p) for _ in range(ideal.ring.nvars)]
            self.inputs.append((entry, ideal, scale))

    def run_pass(self, p):
        minimal_resolution = self.cm["resolution"].minimal_resolution
        cold_family_cache(self.cm, p)
        jobs = []
        for entry, ideal, scale in self.inputs:
            for perm in (order["perm"] for order in entry["orders"]):
                I = transformed(self.cm, ideal, perm, scale)
                if I._gb or I._cache:
                    p.cold = False
                    p.errors.append("input ideal carries a cached basis or resolution")
                jobs.append((f"{entry['name']}{perm}", I, entry))

        def body():
            for key, I, entry in jobs:
                p.raw.append((I, entry) + timed_item(key, minimal_resolution, I))

        p.timed(body)

    def check(self, p):
        resolution = self.cm["resolution"]
        for I, entry, key, dt, res, err in p.raw:
            if err is None:
                table = sorted([i, j, b] for (i, j), b in res.betti.entries.items())
                if table != entry["betti"]:
                    err = "Betti table differs from the expected one"
                elif resolution.regularity_ideal(I) != entry["regularity_ideal"]:
                    err = "regularity differs from the expected one"
            p.items.append((key, *dt, err))
            p.output.append(f"{key}:{err}")


def make_workload(name, cm, expected, seed):
    if name == "grid":
        return Grid(cm, expected, seed, 32003)
    if name == "grid-qq":
        return Grid(cm, expected, seed, 0)
    if name == "build":
        return Build(cm, expected, seed)
    return Resolve(cm, expected, seed)


def cpu_steal_s():
    """Steal time of the whole machine so far, in seconds (None if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg": os.getloadavg()}


def setup_seconds(args):
    """Median time of fresh interpreters that import cmreg and load the inputs.

    Each interpreter reports the speed normclock saw while it loaded; its
    wall time, interpreter start included, is taken at that speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        times.append((time.perf_counter() - t0) * float(out.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(passes, setup_s):
    """Medians over the passes of the pass times, the median of all item
    latencies, and the slowest item by its median latency."""
    latencies = {}
    for p in passes:
        for key, wall, _, _ in p.items:
            latencies.setdefault(key, []).append(wall)
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": setup_s,
        "item_p50_s": statistics.median(w for v in latencies.values() for w in v),
        "item_max_s": max(statistics.median(v) for v in latencies.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes, parse_s, errors):
    """Per-layer metrics: counts from one traced pass (they must repeat on
    every traced pass), times as the median over the traced passes."""
    traced = [p for p in passes if p.layers]
    untraced = [p for p in passes if not p.layers]  # the first is the warm-up
    units = {name: unit for name, unit, _ in METRICS}
    out = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        if units[name] == "s":
            out[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                errors.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
    out["ring.parse_s"] = parse_s
    out["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                  / statistics.median(p.wall for p in untraced[1:]) - 1)
    out["known_defect.failures"] = traced[0].known_defect
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in METRICS}


def run(args):
    normclock.start()
    try:
        return measure(args)
    finally:
        normclock.stop()


def measure(args):
    cm = import_cmreg()
    expected = json.loads((HERE / "expected.json").read_text())
    if args.setup_probe:
        make_workload(args.workload, cm, expected, args.seed)
        print(normclock.speed())
        return 0
    tracer = None
    seen = None
    parse_s = 0.0
    if args.trace:
        tracer = Tracer(cm)
        tracer.install()
    try:
        workload = make_workload(args.workload, cm, expected, args.seed)
    finally:
        if tracer:
            tracer.uninstall()
            parse_s = tracer.incl["ring.parse_ideal_file"]
            seen = set(n for n, c in tracer.calls.items() if c)
    setup_s = None if args.trace else setup_seconds(args)

    env = environment()
    steal0 = cpu_steal_s()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    passes = []
    start, clock_start = time.perf_counter(), normclock.wall()
    while True:
        # With tracing, pass 1 is an untraced warm-up, then traced and
        # untraced passes alternate.
        traced = tracer is not None and len(passes) % 2 == 1
        p = Pass()
        gc.collect()  # every pass starts from the same heap, outside the timing
        if traced:
            p.tracer = tracer
            tracer.reset()
            tracer.install()
        try:
            workload.run_pass(p)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p.layers = tracer.metrics()
            seen.update(n for n, c in tracer.calls.items() if c)
        workload.check(p)
        p.raw, p.extra = [], None  # keep no results alive into the next pass
        passes.append(p)
        failed = sum(1 for *_, note in p.items if note)
        print(f"pass {len(passes)}{' traced' if traced else ''}: wall {p.wall:.3f} s, "
              f"cpu {p.cpu:.3f} s, {len(p.items)} items, {failed} failed"
              + (f", known defect {p.known_defect}" if p.known_defect else "")
              + "".join(f"\n  error: {e}" for e in p.errors)
              + "".join(f"\n  failed item {k}: {n}" for k, *_, n in p.items if n), flush=True)
        if time.perf_counter() - start >= args.seconds and len(passes) >= MIN_PASSES:
            break
    steal1 = cpu_steal_s()
    raw = time.perf_counter() - start
    env.update(loadavg_end=os.getloadavg(), passes=len(passes),
               steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
               cold_caches=all(p.cold for p in passes), wall_s_unscaled=raw,
               core_speed=(normclock.wall() - clock_start) / raw)
    print("run " + json.dumps(env, sort_keys=True), flush=True)

    errors = [e for p in passes for e in p.errors]
    digests = {sha256("\n".join(p.output)) for p in passes}
    if len(digests) != 1:
        errors.append("outputs differ between passes (traced and untraced passes included)")
    if tracer:
        missing = [n for n in COVERAGE[args.workload] if n not in seen]
        if missing:
            errors.append(f"wrapped functions never called: {missing}")
        metrics = per_layer(passes, parse_s, errors)
    else:
        values = end_to_end(passes, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for e in errors:
        print(f"error: {e}", flush=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", flush=True)
    attempted = sum(len(p.items) for p in passes)
    failed = sum(1 for p in passes for *_, note in p.items if note)
    print(json.dumps({"correct": not errors and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, then one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(rows["grid"]["metrics"])
    print(f"{'metric':44}" + "".join(f"{w:>12}" for w in WORKLOADS))
    for n in names:
        unit = rows["grid"]["metrics"][n]["unit"]
        print(f"{n + ' [' + unit + ']':44}"
              + "".join(f"{rows[w]['metrics'][n]['value']:12.4g}" for w in WORKLOADS))
    print(json.dumps(rows))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
