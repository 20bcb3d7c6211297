"""The benchmark's fixed names: workloads, metrics, bounds and traced spans.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/report.py` rewrites it), so a name lives in one place.
Later changes are judged by these names; renaming one breaks comparison
with every earlier measurement.
"""

from __future__ import annotations

# Two workloads make 4 + 22 x 2 = 48 runs in a full comparison; 55 s each
# leaves about a fifth of the 3420-s limit for spawning and checking.
RUN_SECONDS = 55

WORKLOADS = {
    "replicate": "all seven built-ins, jobs 1, CSV: the headline user action "
                 "and behaviour oracle; mixes exact CCR products with "
                 "strong*/uniform seminorm suites",
    "closure_sweep": "31-scenario config, jobs 2, JSON tables: all four "
                     "topologies, form probes, matrix replays, GNS and "
                     "serialization; no CCR; the --jobs evidence",
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen.  The host's single-thread speed switches
# between levels up to 60% apart for minutes at a time (README.md,
# Steadiness), so the timings carry the widest bound allowed; setup_s must
# carry the largest one.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("pass_s_tail", "s", "lower", 0.25),
    ("verdicts_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Traced functions per module, with the workloads on which each must record
# at least one call (the tracer self-check).  Spans are recorded for every
# public function of the package; only these are reported by name.
ALL = ("replicate", "closure_sweep")
REPLICATE = ("replicate",)
SWEEP = ("closure_sweep",)
SPANS = {
    "ccr": {
        "ccr_mul": REPLICATE,
        "ccr_star": REPLICATE,
        "TrigPoly.__mul__": REPLICATE,
        "ccr_represent": REPLICATE,
    },
    "topologies": {
        "seminorm": ALL,
        "BoundedSet.stack": ALL,
        "extend_by_closure": ALL,
        "closability_check": REPLICATE,
    },
    "matrix_lab": {
        "trace_form": ALL,
        "weighted_norm": ALL,
        "matrix_closability_replay": ALL,
        "d_omega_identification": REPLICATE,
    },
    "function_lab": {
        "mult_operator": ALL,
        "lp_norm": ALL,
        "simpson_grid": ALL,
        "a_omega_membership": REPLICATE,
        "ls_membership": REPLICATE,
    },
    "rates": {
        "fit_trend": ALL,
        "tends_to_zero": ALL,
        "geometric_ladder": ALL,
    },
    "forms": {
        "closability_probe": SWEEP,
        "check_lemma24": SWEEP,
    },
    "gns": {
        "gns_construct": SWEEP,
        "verify_gns": SWEEP,
    },
    "algebra": {
        "multiply": SWEEP,
    },
    "serialize": {
        "gnsrep_to_dict": SWEEP,
    },
    "scenarios": {
        "run_scenario": ALL,
        "write_outcome": ALL,
        "parse_config": SWEEP,
    },
    "cli": {
        "main": ALL,
    },
}

# Counters derived from span results, beyond calls and self time.
EXTRA_PER_LAYER = [
    ("ccr.ccr_represent.bytes", "B"),
    ("topologies.BoundedSet.stack.per_seminorm", "ratio"),
    ("topologies.extend_by_closure.zero_residual_share", "ratio"),
    ("function_lab.mult_operator.bytes", "B"),
    ("rates.fit_trend.floor_share", "ratio"),
    ("scenarios.write_outcome.bytes", "B"),
    ("cli.cpu_s", "s"),
    ("cli.cores_used", "ratio"),
    ("trace.overhead_s", "s"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    metrics = []
    for module, functions in SPANS.items():
        for function in functions:
            metrics.append((f"{module}.{function}.calls", "count"))
            metrics.append((f"{module}.{function}.self_s", "s"))
        metrics.append((f"{module}.self_s", "s"))
        metrics.append((f"{module}.share", "ratio"))
    return metrics + EXTRA_PER_LAYER


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": "higher" if name == "cli.cores_used"
                       else "lower"}
                      for name, unit in per_layer_metrics()],
    }
