"""Traced mode: spans around the public functions of each equizeta layer.

``Tracer.install`` replaces each target with a wrapper at every equizeta
module that holds a reference to it (``zeta`` imports ``beta_value``,
``validate`` and ``pgcd`` by name, ``cli`` imports ``oracle_series``), and on
the class for methods.  ``uninstall`` puts the originals back.  Only the
traced run calls ``install``.

A span is (id, parent id, name, job id, start ns, end ns); spans stay in
memory until ``write_spans``.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# (span name, module, class or None, attribute)
TARGETS = (
    ("cli.main", "cli", None, "main"),
    ("resolution.parse", "resolution", None, "parse"),
    ("resolution.validate", "resolution", None, "validate"),
    ("catalog.get", "catalog", None, "get"),
    ("gspace.beta_value", "gspace", None, "beta_value"),
    ("zeta.denef_loeser", "zeta", None, "denef_loeser"),
    ("zeta.distinguish", "zeta", None, "distinguish"),
    ("zeta.display", "zeta", None, "display"),
    ("zeta.zeta_json", "zeta", None, "zeta_json"),
    ("ratpoly.BiPoly.mul", "ratpoly", "BiPoly", "__mul__"),
    ("ratpoly.ZetaRational.eq", "ratpoly", "ZetaRational", "__eq__"),
    ("ratpoly.ZetaRational.t_series", "ratpoly", "ZetaRational", "t_series"),
    ("ratpoly.RatFunc.init", "ratpoly", "RatFunc", "__init__"),
    ("ratpoly.pgcd", "ratpoly", None, "pgcd"),
    ("arcs.oracle_series", "arcs", None, "oracle_series"),
    ("arcs.arc_beta_naive", "arcs", None, "arc_beta_naive"),
    ("arcs.arc_beta_signed", "arcs", None, "arc_beta_signed"),
    ("cohomology.run_pipeline", "cohomology", None, "run_pipeline"),
    ("cohomology.hs_e2_page", "cohomology", None, "hs_e2_page"),
    ("cohomology.apply_differentials", "cohomology", None, "apply_differentials"),
    ("cohomology.betti_series", "cohomology", None, "betti_series"),
    ("cohomology.cohomology_dim", "cohomology", None, "cohomology_dim"),
    ("cohomology.F2Matrix.rank", "cohomology", "F2Matrix", "rank"),
)

# (metric name, unit) in the order they are reported.
LAYER_METRICS = (
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("resolution.parse.ms", "ms"),
    ("resolution.validate.calls", "count"),
    ("resolution.validate.ms", "ms"),
    ("resolution.validate.per_job", "ratio"),
    ("catalog.get.calls", "count"),
    ("catalog.get.ms", "ms"),
    ("gspace.beta_value.calls", "count"),
    ("gspace.beta_value.self_ms", "ms"),
    ("zeta.denef_loeser.calls", "count"),
    ("zeta.denef_loeser.self_ms", "ms"),
    ("zeta.distinguish.self_ms", "ms"),
    ("zeta.display.ms", "ms"),
    ("zeta.zeta_json.ms", "ms"),
    ("zeta.out_num_terms", "count"),
    ("zeta.out_den_terms", "count"),
    ("zeta.out_max_coeff_bits", "bits"),
    ("ratpoly.BiPoly.mul.calls", "count"),
    ("ratpoly.BiPoly.mul.ms", "ms"),
    ("ratpoly.BiPoly.mul.term_products", "count"),
    ("ratpoly.ZetaRational.eq.calls", "count"),
    ("ratpoly.ZetaRational.eq.ms", "ms"),
    ("ratpoly.ZetaRational.t_series.calls", "count"),
    ("ratpoly.ZetaRational.t_series.self_ms", "ms"),
    ("ratpoly.t_series.coeffs", "count"),
    ("ratpoly.RatFunc.init.calls", "count"),
    ("ratpoly.RatFunc.init.ms", "ms"),
    ("ratpoly.pgcd.calls", "count"),
    ("ratpoly.pgcd.ms", "ms"),
    ("ratpoly.pgcd.nontrivial_frac", "ratio"),
    ("ratpoly.RatFunc.max_deg", "degree"),
    ("arcs.oracle_series.calls", "count"),
    ("arcs.oracle_series.self_ms", "ms"),
    ("arcs.arc_beta.calls", "count"),
    ("cohomology.run_pipeline.calls", "count"),
    ("cohomology.hs_e2_page.ms", "ms"),
    ("cohomology.apply_differentials.ms", "ms"),
    ("cohomology.betti_series.ms", "ms"),
    ("cohomology.cohomology_dim.calls", "count"),
    ("cohomology.F2Matrix.rank.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_frac", "ratio"),
)


def _coeff_bits(poly):
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


class Tracer:
    """Spans and counters of one traced run; ``job`` is the current job id."""

    def __init__(self):
        self.job = -1
        self.spans = []
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- per-target observations, taken after the span has closed -----------

    def _observe(self, name, args, result):
        if name == "zeta.denef_loeser":
            self.counts["out_num_terms"] += len(result.num.terms)
            self.counts["out_den_terms"] += len(result.den.terms)
            bits = max(_coeff_bits(result.num), _coeff_bits(result.den))
            self.maxima["out_max_coeff_bits"] = max(self.maxima["out_max_coeff_bits"], bits)
        elif name == "ratpoly.BiPoly.mul":
            self.counts["term_products"] += len(args[0].terms) * len(args[1].terms)
        elif name == "ratpoly.ZetaRational.t_series":
            self.counts["t_series_coeffs"] += len(result.coeffs)
        elif name == "ratpoly.RatFunc.init":
            deg = max(len(args[0].num), len(args[0].den)) - 1
            self.maxima["ratfunc_max_deg"] = max(self.maxima["ratfunc_max_deg"], deg)
        elif name == "ratpoly.pgcd":
            self.counts["pgcd_nontrivial"] += result != (1,)

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        observed = name in (
            "zeta.denef_loeser", "ratpoly.BiPoly.mul", "ratpoly.ZetaRational.t_series",
            "ratpoly.RatFunc.init", "ratpoly.pgcd",
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                spans.append((sid, parent, name, self.job, start, end))
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "equizeta" or n.startswith("equizeta.")]
        for name, module_name, class_name, attr in TARGETS:
            module = sys.modules[f"equizeta.{module_name}"]
            if class_name is not None:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _validations_per_input(self):
        """validate calls per loaded resolution, over jobs that validate."""
        validate, loads = Counter(), Counter()
        for _, _, name, job, _, _ in self.spans:
            if name == "resolution.validate":
                validate[job] += 1
            elif name in ("resolution.parse", "catalog.get"):
                loads[job] += 1
        base = sum(loads[job] for job in validate)
        return sum(validate.values()) / base if base else 0.0

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass values of every traced layer metric."""
        per = lambda value: value / passes  # noqa: E731
        ms = lambda ns: per(ns) / 1e6  # noqa: E731
        out = {}
        for name, _, _, _ in TARGETS:
            out[f"{name}.calls"] = per(self.calls[name])
            out[f"{name}.ms"] = ms(self.total_ns[name])
            out[f"{name}.self_ms"] = ms(self.self_ns[name])
        out["arcs.arc_beta.calls"] = (
            out["arcs.arc_beta_naive.calls"] + out["arcs.arc_beta_signed.calls"]
        )
        out["resolution.validate.per_job"] = self._validations_per_input()
        out["zeta.out_num_terms"] = per(self.counts["out_num_terms"])
        out["zeta.out_den_terms"] = per(self.counts["out_den_terms"])
        out["zeta.out_max_coeff_bits"] = self.maxima["out_max_coeff_bits"]
        out["ratpoly.BiPoly.mul.term_products"] = per(self.counts["term_products"])
        out["ratpoly.t_series.coeffs"] = per(self.counts["t_series_coeffs"])
        gcds = self.calls["ratpoly.pgcd"]
        out["ratpoly.pgcd.nontrivial_frac"] = self.counts["pgcd_nontrivial"] / gcds if gcds else 0.0
        out["ratpoly.RatFunc.max_deg"] = self.maxima["ratfunc_max_deg"]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,job,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")
