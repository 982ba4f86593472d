"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps the public functions of each cmreg module for the length
of one traced pass and restores the originals afterwards.  Each wrapped call
is a span: its inclusive time, and its self time (inclusive minus the time
of wrapped calls made inside it), in seconds of normclock.  Counters are
read from what the calls return (Groebner basis stats, resolution stats,
section seeds).  The grid workload's own wrapper of ``verify.run_claim``,
which times its items, charges each claim's time through ``claim()``.

A function that another module imported by name (``families.colon`` is
``idealops.colon``) is patched in every cmreg module that holds it, so the
call is seen wherever it is looked up.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

from normclock import wall as clock

# Each wrapped function has a workload on which it must record a call; a
# zero there means the patch missed a binding.
COVERAGE = {
    "grid": ("groebner.buchberger", "groebner.Ideal.groebner", "groebner.reduces_to_zero",
             "idealops.saturate_irrelevant", "idealops.intersect",
             "idealops.colon", "idealops.colon_by_variable_power",
             "idealops.saturation_exponent_bound_check", "hilbert.hilbert_series",
             "hilbert.finite_length", "resolution.minimal_resolution",
             "families.build_family", "families.curve_ideal", "families.residual_ideal",
             "families.graded_piece_basis", "families.extra_form", "families.rref",
             "sections.general_section", "verify.render_json"),
    "build": ("families.build_family", "families.curve_ideal", "families.residual_ideal",
              "families.graded_piece_basis", "families.extra_form", "families.rref",
              "idealops.colon", "idealops.colon_by_variable_power", "idealops.intersect",
              "groebner.buchberger"),
    "resolve": ("resolution.minimal_resolution", "groebner.buchberger",
                "hilbert.hilbert_series", "ring.parse_ideal_file"),
}
COVERAGE["grid-qq"] = COVERAGE["grid"]

CLAIMS = ("thm11", "lemma12", "lemma21", "lemma31", "prop22", "prop32", "remark33", "cor13")

# (name, unit, better) of every per-layer metric, in print order.
METRICS = (
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.buchberger_self_s", "s", "lower"),
    ("groebner.pairs", "count", "lower"),
    ("groebner.zero_reductions", "count", "lower"),
    ("groebner.useful_pair_ratio", "ratio", "higher"),
    ("groebner.basis_size_max", "count", "lower"),
    ("groebner.cache_hit_ratio", "ratio", "higher"),
    ("groebner.reduce_calls", "count", "lower"),
    ("groebner.reduce_self_s", "s", "lower"),
    ("idealops.saturate_irrelevant_calls", "count", "lower"),
    ("idealops.saturate_irrelevant_self_s", "s", "lower"),
    ("idealops.intersect_calls", "count", "lower"),
    ("idealops.intersect_self_s", "s", "lower"),
    ("idealops.colon_calls", "count", "lower"),
    ("idealops.colon_self_s", "s", "lower"),
    ("idealops.colon_by_variable_power_calls", "count", "lower"),
    ("idealops.colon_by_variable_power_self_s", "s", "lower"),
    ("idealops.saturation_exponent_bound_check_s", "s", "lower"),
    ("hilbert.hilbert_series_calls", "count", "lower"),
    ("hilbert.hilbert_series_self_s", "s", "lower"),
    ("hilbert.finite_length_s", "s", "lower"),
    ("resolution.minimal_resolution_calls", "count", "lower"),
    ("resolution.minimal_resolution_self_s", "s", "lower"),
    ("resolution.nonminimal_rank_sum", "count", "lower"),
    ("resolution.cancelled", "count", "lower"),
    ("resolution.minimal_ratio", "ratio", "higher"),
    ("resolution.levels_max", "count", "lower"),
    ("families.build_family_s", "s", "lower"),
    ("families.curve_ideal_self_s", "s", "lower"),
    ("families.residual_ideal_self_s", "s", "lower"),
    ("families.graded_piece_basis_self_s", "s", "lower"),
    ("families.extra_form_self_s", "s", "lower"),
    ("families.echelon_rows", "count", "lower"),
    ("sections.general_section_s", "s", "lower"),
    ("sections.general_section_self_s", "s", "lower"),
    ("sections.seeds_attempted", "count", "lower"),
    ("sections.seed_yield", "ratio", "higher"),
) + tuple((f"verify.{c}_s", "s", "lower") for c in CLAIMS) + (
    ("verify.render_json_s", "s", "lower"),
    ("ring.parse_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("known_defect.failures", "count", "lower"),
)


class Tracer:
    """Spans and counters for the cmreg modules while installed."""

    def __init__(self, cm):
        self.cm = cm
        self._saved = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.build_total = 0.0
        self._stack = []

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after:
                after(out, dt, state, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        cm = self.cm
        g, ops, fam = cm["groebner"], cm["idealops"], cm["families"]
        funcs = [
            (g, "buchberger", "groebner.buchberger", None, self._after_buchberger),
            (g, "member", "groebner.member", None, None),
            (ops, "saturate_irrelevant", "idealops.saturate_irrelevant", None, None),
            (ops, "intersect", "idealops.intersect", None, None),
            (ops, "colon", "idealops.colon", None, None),
            (ops, "colon_by_variable_power", "idealops.colon_by_variable_power", None, None),
            (ops, "saturation_exponent_bound_check",
             "idealops.saturation_exponent_bound_check", None, None),
            (cm["hilbert"], "hilbert_series", "hilbert.hilbert_series", None, None),
            (cm["hilbert"], "finite_length", "hilbert.finite_length", None, None),
            (cm["resolution"], "minimal_resolution", "resolution.minimal_resolution",
             lambda I: "resolution" in I._cache, self._after_resolution),
            (fam, "build_family", "families.build_family", None, self._after_build),
            (fam, "curve_ideal", "families.curve_ideal", None, None),
            (fam, "residual_ideal", "families.residual_ideal", None, None),
            (fam, "graded_piece_basis", "families.graded_piece_basis", None, None),
            (fam, "extra_form", "families.extra_form", None, None),
            (cm["_linalg"], "rref", "families.rref", None, self._after_rref),
            (cm["sections"], "general_section", "sections.general_section", None,
             self._after_section),
            (cm["verify"], "render_json", "verify.render_json", None, None),
            (cm["cli"], "parse_ideal_file", "ring.parse_ideal_file", None, None),
        ]
        for mod, attr, name, before, after in funcs:
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, before, after)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("cmreg") and \
                        getattr(m, attr, None) is orig:
                    self._saved.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        methods = [
            (g.Ideal, "groebner", "groebner.Ideal.groebner"),
            (g.GroebnerBasis, "normal_form", "groebner.normal_form"),
            (g.GroebnerBasis, "reduces_to_zero", "groebner.reduces_to_zero"),
        ]
        for cls, attr, name in methods:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- counters read from results ---------------------------------------

    def _after_buchberger(self, gb, dt, state, *args, **kwargs):
        c = self.counts
        c["pairs"] += gb.stats.get("pairs_processed", 0)
        c["zero_reductions"] += gb.stats.get("zero_reductions", 0)
        c["basis_size_max"] = max(c["basis_size_max"], len(gb))

    def _after_resolution(self, res, dt, was_cached, I):
        if was_cached:
            return
        c = self.counts
        ranks = res.stats.get("nonminimal_ranks", [])
        c["nonminimal_rank_sum"] += sum(ranks)
        c["cancelled"] += res.stats.get("cancelled", 0)
        c["betti_total"] += sum(b for (i, _), b in res.betti.entries.items() if i > 0)
        c["levels_max"] = max(c["levels_max"], res.stats.get("levels", 0))

    def _after_build(self, inst, dt, state, *args, **kwargs):
        self.build_total += dt

    def _after_rref(self, out, dt, state, rows, field):
        self.counts["echelon_rows"] += len(rows)

    def _after_section(self, sd, dt, state, *args, **kwargs):
        self.counts["sections"] += 1
        self.counts["seeds_attempted"] += len(sd.attempted_seeds)

    def claim(self, claim, dt, build_before):
        """Charge a claim its time without the family builds it happened to
        trigger; build_before is build_total when the claim started."""
        self.incl[f"verify.{claim}.own"] += dt - (self.build_total - build_before)

    # -- the per-layer metrics of one pass --------------------------------

    def metrics(self):
        """{name: value} of every per-layer metric except the run-level ones
        (ring.parse_s, trace.overhead_frac, known_defect.failures)."""
        calls, incl, own, c = self.calls, self.incl, self.self_s, self.counts
        pairs = c["pairs"]
        nonmin = c["nonminimal_rank_sum"]
        seeds = c["seeds_attempted"]
        gb_calls = calls["groebner.Ideal.groebner"]
        reduce_names = ("groebner.normal_form", "groebner.reduces_to_zero", "groebner.member")
        out = {
            "groebner.buchberger_calls": calls["groebner.buchberger"],
            "groebner.buchberger_self_s": own["groebner.buchberger"],
            "groebner.pairs": pairs,
            "groebner.zero_reductions": c["zero_reductions"],
            "groebner.useful_pair_ratio": (pairs - c["zero_reductions"]) / pairs if pairs else 0.0,
            "groebner.basis_size_max": c["basis_size_max"],
            "groebner.cache_hit_ratio":
                1 - calls["groebner.buchberger"] / gb_calls if gb_calls else 0.0,
            "groebner.reduce_calls": sum(calls[n] for n in reduce_names),
            "groebner.reduce_self_s": sum(own[n] for n in reduce_names),
        }
        for fn in ("saturate_irrelevant", "intersect", "colon", "colon_by_variable_power"):
            out[f"idealops.{fn}_calls"] = calls[f"idealops.{fn}"]
            out[f"idealops.{fn}_self_s"] = own[f"idealops.{fn}"]
        out.update({
            "idealops.saturation_exponent_bound_check_s":
                incl["idealops.saturation_exponent_bound_check"],
            "hilbert.hilbert_series_calls": calls["hilbert.hilbert_series"],
            "hilbert.hilbert_series_self_s": own["hilbert.hilbert_series"],
            "hilbert.finite_length_s": incl["hilbert.finite_length"],
            "resolution.minimal_resolution_calls": calls["resolution.minimal_resolution"],
            "resolution.minimal_resolution_self_s": own["resolution.minimal_resolution"],
            "resolution.nonminimal_rank_sum": nonmin,
            "resolution.cancelled": c["cancelled"],
            "resolution.minimal_ratio": c["betti_total"] / nonmin if nonmin else 0.0,
            "resolution.levels_max": c["levels_max"],
            "families.build_family_s": incl["families.build_family"],
        })
        for fn in ("curve_ideal", "residual_ideal", "graded_piece_basis", "extra_form"):
            out[f"families.{fn}_self_s"] = own[f"families.{fn}"]
        out.update({
            "families.echelon_rows": c["echelon_rows"],
            "sections.general_section_s": incl["sections.general_section"],
            "sections.general_section_self_s": own["sections.general_section"],
            "sections.seeds_attempted": seeds,
            "sections.seed_yield": 2 * c["sections"] / seeds if seeds else 0.0,
        })
        for claim in CLAIMS:
            out[f"verify.{claim}_s"] = incl[f"verify.{claim}.own"]
        out["verify.render_json_s"] = incl["verify.render_json"]
        return out
