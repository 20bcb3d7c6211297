"""Built-in replication scenarios and the config-driven experiment runner.

Each scenario packages one of the worked examples end to end: it runs the
relevant probes, renders their tables, and judges a pass/fail verdict
against the documented expectations.  Everything is deterministic for a
fixed seed; randomized probes draw from a local generator only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import ccr, function_lab as flab, matrix_lab as mlab
from .algebra import (State, corner_state, cyclic_group_algebra,
                      group_character_state, group_trace_state,
                      matrix_unit_algebra, normalized_trace_state,
                      scalar_algebra)
from .forms import ProbeFamily, check_lemma24, closability_probe
from .gns import gns_construct, verify_gns
from .matrix_lab import NON_CAUCHY_FAMILIES, NULL_FAMILIES
from .rates import LadderProbe, geometric_ladder
from .serialize import atomic_write, dump_json, gnsrep_to_dict
from .topologies import (TOPOLOGIES, closability_check, extend_by_closure,
                         suite_from_bounded_sets)


class ConfigError(ValueError):
    """Raised for config files that fail validation; maps to exit code 2."""


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    module: str
    operation: str
    description: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None  # stem under the output dir; default: id

    @property
    def output_stem(self) -> str:
        return self.output_path or self.scenario_id


@dataclass
class ScenarioOutcome:
    scenario_id: str
    passed: bool
    details: dict
    tables: dict  # name -> (header, rows)
    output_stem: str = ""


# ---------------------------------------------------------------------------
# Extension experiments shared by the catalog and the acceptance suite

EXTENSION_GRID_NODES = 257
# The multiplication operators act on L^p with this p; the closure ladder
# has this many points.
MULTIPLICATION_P = 4.0
EXTENSION_POINTS = 14
CLIP_VARIANTS = ("height", "plateau")
EXTENSION_TARGETS = ("power", "step")


def clipped_power_family(grid: flab.Grid, beta: float,
                         variant: str = "height") -> ProbeFamily:
    """Continuous approximations of x^(-beta) from below.

    "height" clips the value at n; "plateau" freezes the function left of
    1/n.  Both agree with the target at every node once the clip parameter
    passes the grid resolution, so they realise two distinct approximating
    sequences with the same limit.
    """
    if variant not in CLIP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{CLIP_VARIANTS}")
    target = flab.power_function(grid, beta)

    def generate(n: int) -> flab.GridFunction:
        cap = float(n) if variant == "height" else float(n) ** beta
        return flab.GridFunction(np.minimum(target.values.real, cap)
                                 .astype(complex), grid)

    return ProbeFamily(name=f"clip-{variant}[beta={beta:g}]", generate=generate)


def ramp_family(grid: flab.Grid) -> ProbeFamily:
    """Continuous ramps converging in L^1 to the step 1_(x <= 1/2); the
    limit is discontinuous, so no uniform extension can exist."""

    def generate(n: int) -> flab.GridFunction:
        vals = np.clip(0.5 + n * (0.5 - grid.nodes), 0.0, 1.0)
        return flab.GridFunction(vals.astype(complex), grid)

    return ProbeFamily(name="ramp-to-step", generate=generate)


def multiplication_suite(grid: flab.Grid, topology: str, seed: int = 0):
    """Seminorm suite for multiplication operators on the grid: the node
    spikes witness the sup norm, the smooth ball the integral pairings."""
    spikes = flab.node_spike_set(grid)
    smooth = flab.smooth_ball_set(grid, 2.0, count=4, seed=seed)
    if topology == "uniform":
        return suite_from_bounded_sets("uniform", [spikes, smooth])
    p = MULTIPLICATION_P
    phis = [("one", flab.embed_vector(flab.GridFunction.from_callable(
        lambda x: np.ones_like(x), grid))),
        ("cos", flab.embed_vector(flab.GridFunction.from_callable(
            lambda x: np.cos(2 * np.pi * x).astype(complex), grid))),
        ("power", flab.embed_vector(
            (1.0 / flab.lp_norm(flab.power_function(grid, 1.0 / p - 0.02), p))
            * flab.power_function(grid, 1.0 / p - 0.02)))]
    if topology == "weak":
        mid_spike = np.eye(grid.n_nodes, dtype=complex)[grid.n_nodes // 2]
        pairs = [(f"{a}|{b}", phis[i][1], phis[j][1])
                 for i, (a, _) in enumerate(phis)
                 for j, (b, _) in enumerate(phis) if i <= j]
        pairs.append(("midspike", mid_spike, mid_spike))
        return suite_from_bounded_sets("weak", [], weak_pairs=pairs)
    return suite_from_bounded_sets(topology, [spikes, smooth], phis=phis)


def run_extension(grid: flab.Grid, family: ProbeFamily, topology: str,
                  n_max: int = 4096, seed: int = 0):
    """Drive one approximating family through the closure engine with the
    L^1 ambient norm of the multiplication example."""
    ns = geometric_ladder(n_max, points=EXTENSION_POINTS)
    elements = [family.generate(int(n)) for n in ns]
    reps = [flab.mult_operator(f) for f in elements]
    suite = multiplication_suite(grid, topology, seed=seed)
    return extend_by_closure(lambda f: flab.lp_norm(f, 1.0), elements, reps,
                             topology, suite=suite, space_complete=False,
                             steps=ns)


# ---------------------------------------------------------------------------
# Probe tables

def cauchy_limit(probe: LadderProbe) -> float | None:
    """The limit of a form probe's diagonal, reported only when Cauchy."""
    return probe.limits[0] if probe.cauchy else None


def convergence_table(probe: LadderProbe) -> tuple[list[str], list[list]]:
    """A form probe's series; the first member has step distance 0.0."""
    steps = np.concatenate([[0.0], probe.steps[:, 0]])
    return (["n", "tau_norm", "omega_diag", "omega_pairwise"],
            [[int(n), float(t), float(d), float(s)] for n, t, d, s
             in zip(probe.ns, probe.ambient, probe.values[:, 0], steps)])


def replay_table(probe: LadderProbe) -> tuple[list[str], list[list]]:
    """A matrix replay's series: the Hilbert-Schmidt norm is the square
    root of the form diagonal, and the recentered residual its distance
    to the limit (to the last value when not Cauchy)."""
    header, rows = convergence_table(probe)
    diag = probe.values[:, 0]
    limit = cauchy_limit(probe)
    recentered = np.abs(diag - (diag[-1] if limit is None else limit))
    return (["k", "weighted_norm", "hs_norm", "pairwise_residual",
             "recentered_residual"],
            [[k, w, float(np.sqrt(d)), s, float(e)]
             for (k, w, d, s), e in zip(rows, recentered)])


# ---------------------------------------------------------------------------
# Scenario implementations

WITNESS_UNBOUNDED_MIN = 0.2
WITNESS_BOUNDED_MAX = 0.05


def _dichotomy_suite(params: dict, seed: int) -> ScenarioOutcome:
    n_max = int(params.get("n_max", 256))
    grid = flab.simpson_grid()
    tables = {}
    exps = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        report = flab.unboundedness_witness(p, n_max=n_max, grid=grid)
        exps[p] = report.exponent
        header, rows = report.table()
        tables[f"witness_p{p:g}"] = (header, rows)
    witness_ok = (exps[1.0] >= WITNESS_UNBOUNDED_MIN
                  and exps[1.5] >= WITNESS_UNBOUNDED_MIN
                  and exps[2.0] <= WITNESS_BOUNDED_MAX
                  and exps[3.0] <= WITNESS_BOUNDED_MAX)
    mem_rows = []
    mem_ok = True
    for beta in (0.25, 0.45, 0.55, 0.75):
        verdict = flab.a_omega_membership(flab.power_builder(beta), 1.5)
        oracle = beta < 0.5
        mem_ok = mem_ok and verdict.member == oracle
        mem_rows.append([beta, int(verdict.member), int(oracle),
                         verdict.growth_ratio])
    tables["a_omega_membership"] = (["beta", "member", "oracle", "growth_ratio"],
                                    mem_rows)
    return ScenarioOutcome(
        scenario_id="", passed=witness_ok and mem_ok,
        details={"exponents": {f"{p:g}": e for p, e in exps.items()},
                 "witness_ok": witness_ok, "membership_ok": mem_ok},
        tables=tables)


def _weighted_form_suite(params: dict, seed: int) -> ScenarioOutcome:
    grid = flab.simpson_grid()
    rows = []
    for p, r in ((1.0, None), (2.0, None), (3.0, None), (2.0, 2.0),
                 (4.0, 2.0), (1.0, 1.0), (4.0, 4.0)):
        cls = flab.boundedness_classifier(p, r)
        rows.append([p, 0.0 if r is None else r, cls.effective_exponent,
                     cls.tag])
    spec_ok = (flab.boundedness_classifier(2.0).tag == "bounded"
               and flab.boundedness_classifier(1.0).tag == "closable-unbounded"
               and abs(flab.boundedness_classifier(2.0, 2.0).effective_exponent
                       - 4.0 / 3.0) < 1e-12
               and flab.boundedness_classifier(2.0, 2.0).tag
               == "closable-unbounded")
    weight = flab.power_function(grid, 0.5)
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    mass = complex(flab.omega_form(one, one, weight)).real
    rng = np.random.default_rng(seed)
    herm = 0.0
    pos_ok = True
    for _ in range(50):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        f = flab.GridFunction((a[0] + a[1] * grid.nodes
                               + a[2] * np.cos(2 * np.pi * grid.nodes)
                               + 1j * a[3] * grid.nodes).astype(complex), grid)
        g = flab.GridFunction((b[0] + b[1] * grid.nodes
                               + 1j * b[2] * np.sin(2 * np.pi * grid.nodes)
                               + b[3]).astype(complex), grid)
        herm = max(herm, abs(flab.omega_form(f, g, weight)
                             - np.conj(flab.omega_form(g, f, weight))))
        pos_ok = pos_ok and flab.omega_form(f, f, weight).real >= -1e-10
    mass_ok = abs(mass - 2.0) < 0.05
    return ScenarioOutcome(
        scenario_id="",
        passed=spec_ok and mass_ok and herm < 1e-10 and pos_ok,
        details={"classifier_ok": spec_ok, "weighted_mass": mass,
                 "hermiticity_residual": herm, "positive": pos_ok},
        tables={"classification": (["p", "r", "s", "tag"], rows)})


def _matrix_replay_suite(params: dict, seed: int) -> ScenarioOutcome:
    n = int(params.get("truncation", 256))
    tables = {}
    null_ok = True
    rows = []
    for name in sorted(NULL_FAMILIES) + sorted(NON_CAUCHY_FAMILIES):
        probe = mlab.matrix_closability_replay(name, n)
        if name in NULL_FAMILIES:
            tables[f"replay_{name}"] = replay_table(probe)
        # Null families must be Cauchy (so, with no counterexample, their
        # limit is 0); the others must not be.
        null_ok = (null_ok and probe.null
                   and probe.cauchy == (name in NULL_FAMILIES)
                   and not probe.counterexample)
        rows.append([name, int(probe.null), int(probe.cauchy),
                     probe.limits[0] if probe.cauchy else -1.0,
                     int(probe.counterexample)])
    tables["replay_summary"] = (
        ["family", "weighted_null", "hs_cauchy", "a", "counterexample"], rows)

    domain = mlab.d_omega_identification()
    dom_ok = all(v.agrees for v in domain)
    tables["domain_identification"] = (
        ["rule", "member", "oracle", "growth_ratio"],
        [[v.rule, int(v.member), int(v.oracle_member), v.growth_ratio]
         for v in domain])
    m_value, m_bound = mlab.m_constant(n)
    return ScenarioOutcome(
        scenario_id="", passed=null_ok and dom_ok,
        details={"replay_ok": null_ok, "domain_ok": dom_ok,
                 "m_constant": m_value, "m_tail_bound": m_bound},
        tables=tables)


def _periodic_multiplication_suite(params: dict, seed: int) -> ScenarioOutcome:
    target = 1.0 + 4.0 * np.pi ** 2
    e1 = ccr.TrigPoly.mode(1).to_vector(4)
    seminorm_err = abs(ccr.graph_seminorm(e1, 1) - target)
    mono_ok = all(ccr.graph_seminorm(e1, k) <= ccr.graph_seminorm(e1, k + 1)
                  for k in range(3))

    sub_rows = []
    sub_ok = True
    for k in (0, 1, 2):
        report = ccr.submultiplicativity_probe(k, n_pairs=40, seed=seed)
        sub_ok = sub_ok and np.isfinite(report.max_ratio) and report.stable
        sub_rows.append([k, report.max_ratio, report.half_sample_ratio,
                         report.n_pairs])

    tests = [ccr.TrigPoly.one(), ccr.TrigPoly.mode(1),
             ccr.TrigPoly({1: 0.5, -1: 0.5}), ccr.TrigPoly.mode(2, 1j)]
    ident_rows = []
    ident_ok = True
    samples = {
        "trig": ccr.TrigPoly({0: 1.0, 3: 2.0, -2: 0.5j}).to_vector(16),
        "dual_poly_growth": (ccr.freqs(16) ** 2).astype(complex),
    }
    for label, vec in samples.items():
        lhs, rhs = ccr.uniform_seminorm_identity(vec, tests, 16)
        ident_ok = ident_ok and abs(lhs - rhs) < 1e-10
        ident_rows.append([label, lhs, rhs, abs(lhs - rhs)])

    return ScenarioOutcome(
        scenario_id="",
        passed=seminorm_err < 1e-10 and mono_ok and sub_ok and ident_ok,
        details={"graph_seminorm_error": seminorm_err,
                 "monotone": mono_ok, "submultiplicative": sub_ok,
                 "seminorm_identity_ok": ident_ok},
        tables={"submultiplicativity": (["k", "max_ratio", "half_sample_ratio",
                                         "n_pairs"], sub_rows),
                "seminorm_identity": (["sample", "operator_side",
                                       "coefficient_side", "difference"],
                                      ident_rows)})


def _ccr_symbolic_suite(params: dict, seed: int) -> ScenarioOutcome:
    n_samples = int(params.get("samples", 25))
    rng = np.random.default_rng(seed)
    exact_ok = True
    for _ in range(n_samples):
        q1 = ccr.random_ccr_polynomial(rng, 3, 3)
        q2 = ccr.random_ccr_polynomial(rng, 3, 3)
        q3 = ccr.random_ccr_polynomial(rng, 3, 3)
        exact_ok = exact_ok and ccr.ccr_star(ccr.ccr_star(q1)) == q1
        exact_ok = exact_ok and (ccr.ccr_star(ccr.ccr_mul(q1, q2))
                                 == ccr.ccr_mul(ccr.ccr_star(q2),
                                                ccr.ccr_star(q1)))
        exact_ok = exact_ok and (ccr.ccr_mul(ccr.ccr_mul(q1, q2), q3)
                                 == ccr.ccr_mul(q1, ccr.ccr_mul(q2, q3)))

    phi = ccr.TrigPoly({0: 1.0, 1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 2: -0.125j})
    p_mat = ccr.ccr_represent(ccr.CCRPolynomial.momentum(), 64).matrix
    f_mat = ccr.ccr_represent(ccr.CCRPolynomial.multiplication(phi), 64).matrix
    comm = p_mat @ f_mat - f_mat @ p_mat
    target = ccr.ccr_represent(
        ccr.CCRPolynomial.multiplication(phi.derivative().scale(-1j)),
        64).matrix
    comm_res = float(np.max(np.abs(comm - target)))

    hom = ccr.homomorphism_check(ccr.random_ccr_polynomial(rng, 2, 2),
                                 ccr.random_ccr_polynomial(rng, 2, 2), 64)
    adj = ccr.adjoint_check(ccr.random_ccr_polynomial(rng, 2, 2), 32)
    faith_zero = ccr.faithfulness_defect(ccr.CCRPolynomial(), 16)
    faith_pos = ccr.faithfulness_defect(
        ccr.random_ccr_polynomial(rng, 2, 2) + ccr.CCRPolynomial.one(), 32)
    return ScenarioOutcome(
        scenario_id="",
        passed=bool(exact_ok and comm_res < 1e-10
                    and hom.relative_residual < 1e-12 and adj < 1e-8
                    and faith_zero == 0.0 and faith_pos > 1e-8),
        details={"symbolic_exact": exact_ok, "commutator_residual": comm_res,
                 "homomorphism_relative_residual": hom.relative_residual,
                 "adjoint_residual": adj,
                 "faithfulness_zero": faith_zero,
                 "faithfulness_nonzero": faith_pos},
        tables={"residuals": (["check", "value"],
                              [["commutator", comm_res],
                               ["homomorphism_rel", hom.relative_residual],
                               ["adjoint", adj]])})


def _gaussian_suite(params: dict, seed: int) -> ScenarioOutcome:
    grid = flab.gauss_hermite_grid()
    families = flab.make_gaussian_families(grid)
    verdicts = flab.gaussian_poly_probe(families, n_max=int(params.get("n_max", 24)),
                                        grid=grid)
    by_name = {v.family: v for v in verdicts}
    # applicable: the family is L^1-null; consistent: no counterexample
    ok = (by_name["scaled_linear"].null
          and not by_name["scaled_linear"].counterexample
          and by_name["hermite_tail"].null
          and not by_name["hermite_tail"].counterexample
          and not by_name["constant_one"].null)
    rows = [[v.family, int(v.null), int(v.cauchy), max(v.limits),
             int(not v.counterexample)] for v in verdicts]
    return ScenarioOutcome(
        scenario_id="", passed=bool(ok),
        details={name: {"applicable": v.null,
                        "consistent": not v.counterexample}
                 for name, v in by_name.items()},
        tables={"gaussian_probe": (["family", "applicable", "convergent",
                                    "worst_limit", "consistent"], rows)})


def _multiplication_extension_suite(params: dict, seed: int) -> ScenarioOutcome:
    grid = flab.simpson_grid(EXTENSION_GRID_NODES)
    tables = {}

    mem_ok = True
    mem_rows = []
    for beta in (0.1, 0.2, 0.3, 0.4):
        verdict = flab.ls_membership(flab.power_builder(beta), 4.0)
        oracle = beta * verdict.s < 1.0
        mem_ok = mem_ok and verdict.member == oracle and verdict.agrees
        mem_rows.append([beta, verdict.s, int(verdict.member), int(oracle),
                         verdict.growth_ratio])
    tables["ls_membership"] = (["beta", "s", "member", "oracle",
                                "growth_ratio"], mem_rows)

    strong = run_extension(grid, clipped_power_family(grid, 0.2, "height"),
                           "strongstar", seed=seed)
    header, rows = strong.trace_table()
    tables["strongstar_trace"] = (header, rows)
    strong_ok = strong.converged and strong.membership.domain == "Atilde"

    uniform = run_extension(grid, ramp_family(grid), "uniform",
                            n_max=128, seed=seed)
    header, rows = uniform.trace_table()
    tables["uniform_trace"] = (header, rows)
    uniform_ok = (not uniform.converged) and uniform.membership.ambient_limit

    alt = run_extension(grid, clipped_power_family(grid, 0.2, "plateau"),
                        "strongstar", seed=seed)
    suite = multiplication_suite(grid, "strongstar", seed=seed)
    gap = max(fn(strong.limit - alt.limit) for _, fn in suite) \
        if (strong.limit and alt.limit) else float("inf")
    well_defined = gap < 1e-6

    null = closability_check(
        [ProbeFamily(name="vanishing-tent",
                     generate=lambda n: flab.tent_function(grid, min(int(n), 128),
                                                           -0.25))],
        rep_map=lambda f: flab.mult_operator(f),
        suite=multiplication_suite(grid, "strongstar", seed=seed),
        ambient_norm=lambda f: flab.lp_norm(f, 1.0), n_max=128)
    null_ok = all(not v.counterexample for v in null)

    return ScenarioOutcome(
        scenario_id="",
        passed=bool(mem_ok and strong_ok and uniform_ok and well_defined
                    and null_ok),
        details={"ls_membership_ok": mem_ok,
                 "strongstar_converged": strong.converged,
                 "strongstar_domain": strong.membership.domain,
                 "uniform_converged": uniform.converged,
                 "two_sequence_gap": gap,
                 "closability_ok": null_ok},
        tables=tables)


# gns_construct: each algebra's builder and the builders of its states.
GNS_ALGEBRAS = {
    "m2": (partial(matrix_unit_algebra, 2),
           {"trace": partial(normalized_trace_state, 2),
            "corner": partial(corner_state, 2)}),
    "m3": (partial(matrix_unit_algebra, 3),
           {"trace": partial(normalized_trace_state, 3),
            "corner": partial(corner_state, 3)}),
    "scalar": (scalar_algebra,
               {"trace": lambda: State(np.ones(1, dtype=complex), name="id")}),
    "z4": (partial(cyclic_group_algebra, 4),
           {"trace": partial(group_trace_state, 4),
            "character": partial(group_character_state, 4)}),
}


def _gns_construct_op(params: dict, seed: int) -> ScenarioOutcome:
    build_algebra, states = GNS_ALGEBRAS[params["algebra"]]
    rep = gns_construct(build_algebra(), states[params["state"]]())
    diag = verify_gns(rep)
    passed = diag.max_residual() < 1e-10 and diag.cyclicity_rank == rep.rank
    details = {"rank": rep.rank, "rep": gnsrep_to_dict(rep),
               "residuals": {
                   "homomorphism": diag.homomorphism_residual,
                   "adjoint": diag.adjoint_residual,
                   "inner_product": diag.inner_product_residual,
                   "state": diag.state_residual},
               "cyclicity_rank": diag.cyclicity_rank}
    return ScenarioOutcome(scenario_id="", passed=passed, details=details,
                           tables={})


def _lemma24_op(params: dict, seed: int) -> ScenarioOutcome:
    n = int(params.get("truncation", 64))
    ctx = mlab.trace_form_context(n)
    families = [mlab.matrix_family(name, n)
                for name in sorted({**NULL_FAMILIES, **NON_CAUCHY_FAMILIES})]
    shifts = _matrix_shift_suite(n)
    report = check_lemma24(ctx, families, shifts, n_max=n)
    rows = [[row["family"]] + [int(v) for v in row["flags"].values()]
            for row in report.rows]
    flag_names = list(report.rows[0]["flags"]) if report.rows else []
    return ScenarioOutcome(
        scenario_id="",
        passed=report.agree and not report.counterexamples,
        details={"agree": report.agree,
                 "counterexamples": report.counterexamples,
                 "unit_in_suite": report.unit_in_suite,
                 "notes": report.notes},
        tables={"verdicts": (["family"] + flag_names, rows)})


def _matrix_shift_suite(n: int) -> list:
    """The five right shifts of check_lemma24, as support blocks."""
    band = 1.0 / (np.arange(3)[:, None] + np.arange(3)[None, :] + 1.0)
    blocks = [("E11", [[1.0]]), ("swap12", [[0.0, 1.0], [1.0, 0.0]]),
              ("diag3", np.eye(3)), ("band3", band),
              ("corner_i", [[0.0, 0.0, 1.0j]])]
    return [(label, mlab.WeightedMatrix(b, n)) for label, b in blocks]


# closability_probe: the families each form context offers.
FORM_FAMILIES = {
    "matrix-trace": tuple(sorted({**NULL_FAMILIES, **NON_CAUCHY_FAMILIES})),
    "lp": ("tent", "scaled_one"),
}


def _closability_probe_op(params: dict, seed: int) -> ScenarioOutcome:
    context, name = params["context"], params["family"]
    n_max = int(params.get("n_max", 256))
    if context == "matrix-trace":
        truncation = max(int(params.get("truncation", 256)), n_max)
        ctx = mlab.trace_form_context(truncation)
        family = mlab.matrix_family(name, truncation)
    else:  # "lp"
        p = float(params.get("p", 1.0))
        grid = flab.simpson_grid()
        ctx = flab.lp_form_context(p, grid)
        if name == "tent":
            family = flab.tent_family(grid, float(params.get("height_exp", 0.5)), p)
        else:  # "scaled_one"
            family = flab.scaled_one_family(grid)
    probe = closability_probe(ctx, family, n_max)
    return ScenarioOutcome(
        scenario_id="", passed=not probe.counterexample,
        details={"family": probe.family, "tau_null": probe.null,
                 "omega_cauchy": probe.cauchy,
                 "omega_limit": cauchy_limit(probe),
                 "rates": {"tau_slope": probe.ambient_slope,
                           "omega_diag_slope": probe.value_slopes[0],
                           "omega_step_slope": probe.step_slopes[0]},
                 "counterexample": probe.counterexample},
        tables={"convergence": convergence_table(probe)})


def _matrix_replay_op(params: dict, seed: int) -> ScenarioOutcome:
    name = params.get("family", "scaled_corner")
    probe = mlab.matrix_closability_replay(name,
                                           int(params.get("truncation", 256)))
    return ScenarioOutcome(
        scenario_id="", passed=not probe.counterexample,
        details={"family": probe.family, "weighted_null": probe.null,
                 "hs_cauchy": probe.cauchy, "a": cauchy_limit(probe),
                 "counterexample": probe.counterexample},
        tables={"replay": replay_table(probe)})


def _witness_op(params: dict, seed: int) -> ScenarioOutcome:
    report = flab.unboundedness_witness(float(params.get("p", 1.0)),
                                        n_max=int(params.get("n_max", 256)))
    header, rows = report.table()
    return ScenarioOutcome(
        scenario_id="", passed=True,
        details={"p": report.p, "exponent": report.exponent},
        tables={"ratios": (header, rows)})


def _submult_op(params: dict, seed: int) -> ScenarioOutcome:
    report = ccr.submultiplicativity_probe(int(params.get("k", 1)),
                                           n_pairs=int(params.get("n_pairs", 40)),
                                           seed=seed)
    return ScenarioOutcome(
        scenario_id="", passed=bool(report.stable),
        details={"k": report.k, "max_ratio": report.max_ratio,
                 "half_sample_ratio": report.half_sample_ratio,
                 "n_pairs": report.n_pairs},
        tables={"ratios": (["k", "max_ratio", "half_sample_ratio"],
                           [[report.k, report.max_ratio,
                             report.half_sample_ratio]])})


def _extension_op(params: dict, seed: int) -> ScenarioOutcome:
    topology = params.get("topology", "strongstar")
    grid = flab.simpson_grid(EXTENSION_GRID_NODES)
    if params.get("target", "power") == "power":
        family = clipped_power_family(grid, float(params.get("beta", 0.2)),
                                      params.get("variant", "height"))
        n_max = int(params.get("n_max", 4096))
    else:
        family = ramp_family(grid)
        n_max = min(int(params.get("n_max", 128)), 128)
    result = run_extension(grid, family, topology, n_max=n_max, seed=seed)
    header, rows = result.trace_table()
    return ScenarioOutcome(
        scenario_id="", passed=True,
        details={"topology": result.topology, "converged": result.converged,
                 "membership": {"ambient_limit": result.membership.ambient_limit,
                                "operator_cauchy": result.membership.operator_cauchy,
                                "domain": result.membership.domain}},
        tables={"trace": (header, rows)})


# ---------------------------------------------------------------------------
# Registry and catalog

# Desk-scale caps on integer parameters: a config cannot ask for more.
N_MAX_CAP = 4096
TRUNCATION_CAP = 1024
SAMPLES_CAP = 10_000
K_CAP = 16
# Real parameters only have to be finite; L^p exponents start at 1.
ANY_REAL = (-math.inf, math.inf)
P_BOUNDS = (1.0, math.inf)


@dataclass(frozen=True)
class Operation:
    handler: Callable[[dict, int], ScenarioOutcome]
    allowed_params: frozenset
    choices: dict = field(default_factory=dict)  # parameter -> allowed values
    # numeric parameter -> (min, max); int bounds mark an integer
    # parameter, float bounds a real one
    bounds: dict = field(default_factory=dict)
    # parameter -> (the parameter it depends on, {that one's value: allowed
    # values}); both are resolved through `defaults` when absent
    pairs: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)  # handed to the handler

    def check(self, params: dict, where: str) -> None:
        """Raise ConfigError, located at `where`, for an unknown parameter,
        a value outside the parameter's choices or outside the choices its
        pair allows, or a numeric parameter that is not a finite number (an
        integer for int bounds) or lies outside its bounds."""
        unknown = set(params) - self.allowed_params
        if unknown:
            raise ConfigError(f"{where}: unknown parameters {sorted(unknown)}")
        for name, allowed in self.choices.items():
            if name in params and params[name] not in allowed:
                raise ConfigError(f"{where}: unknown {name} {params[name]!r}; "
                                  f"expected one of {allowed}")
        for name, (given, table) in self.pairs.items():
            key = params.get(given, self.defaults[given])
            if key not in tuple(table):
                raise ConfigError(f"{where}: unknown {given} {key!r}; "
                                  f"expected one of {tuple(table)}")
            value = params.get(name, self.defaults[name])
            if value not in table[key]:
                raise ConfigError(f"{where}: unknown {name} {value!r} for "
                                  f"{given} {key!r}; expected one of "
                                  f"{table[key]}")
        for name, (low, high) in self.bounds.items():
            if name not in params:
                continue
            value, real = params[name], isinstance(low, float)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or (isinstance(value, float) and not (
                        math.isfinite(value) if real else value.is_integer()))):
                kind = "a finite real number" if real else "an integer"
                raise ConfigError(f"{where}: {name} must be {kind}, "
                                  f"got {value!r}")
            if not low <= value <= high:
                raise ConfigError(f"{where}: {name} {value!r} outside "
                                  f"[{low}, {high}]")


OPERATIONS: dict[tuple[str, str], Operation] = {
    ("function-lab", "dichotomy_suite"):
        Operation(_dichotomy_suite, frozenset({"n_max"}),
                  bounds={"n_max": (4, N_MAX_CAP)}),
    ("function-lab", "weighted_form_suite"):
        Operation(_weighted_form_suite, frozenset()),
    ("function-lab", "gaussian_suite"):
        Operation(_gaussian_suite, frozenset({"n_max"}),
                  bounds={"n_max": (2, N_MAX_CAP)}),
    ("matrix-lab", "replay_suite"):
        Operation(_matrix_replay_suite, frozenset({"truncation"}),
                  bounds={"truncation": (2, TRUNCATION_CAP)}),
    ("op-topologies", "periodic_multiplication_suite"):
        Operation(_periodic_multiplication_suite, frozenset()),
    ("ccr-lab", "symbolic_suite"):
        Operation(_ccr_symbolic_suite, frozenset({"samples"}),
                  bounds={"samples": (1, SAMPLES_CAP)}),
    ("op-topologies", "multiplication_extension_suite"):
        Operation(_multiplication_extension_suite, frozenset()),
    ("gns", "gns_construct"):
        Operation(_gns_construct_op, frozenset({"algebra", "state"}),
                  pairs={"state": ("algebra", {
                      name: tuple(states)
                      for name, (_, states) in GNS_ALGEBRAS.items()})},
                  defaults={"algebra": "m2", "state": "trace"}),
    ("forms", "check_lemma24"):
        Operation(_lemma24_op, frozenset({"truncation"}),
                  bounds={"truncation": (3, TRUNCATION_CAP)}),
    ("forms", "closability_probe"):
        Operation(_closability_probe_op,
                  frozenset({"context", "family", "n_max", "truncation", "p",
                             "height_exp"}),
                  bounds={"n_max": (2, TRUNCATION_CAP),
                          "truncation": (1, TRUNCATION_CAP),
                          "p": P_BOUNDS, "height_exp": ANY_REAL},
                  pairs={"family": ("context", FORM_FAMILIES)},
                  defaults={"context": "matrix-trace",
                            "family": "scaled_corner"}),
    ("matrix-lab", "matrix_closability_replay"):
        Operation(_matrix_replay_op, frozenset({"family", "truncation"}),
                  choices={"family": FORM_FAMILIES["matrix-trace"]},
                  bounds={"truncation": (2, TRUNCATION_CAP)}),
    ("function-lab", "unboundedness_witness"):
        Operation(_witness_op, frozenset({"p", "n_max"}),
                  bounds={"n_max": (4, N_MAX_CAP), "p": P_BOUNDS}),
    ("ccr-lab", "submultiplicativity_probe"):
        Operation(_submult_op, frozenset({"k", "n_pairs"}),
                  bounds={"k": (0, K_CAP), "n_pairs": (1, SAMPLES_CAP)}),
    ("op-topologies", "extend_by_closure"):
        Operation(_extension_op,
                  frozenset({"topology", "target", "beta", "variant",
                             "n_max"}),
                  choices={"topology": TOPOLOGIES,
                           "target": EXTENSION_TARGETS,
                           "variant": CLIP_VARIANTS},
                  bounds={"n_max": (2, N_MAX_CAP), "beta": ANY_REAL}),
}


SCENARIOS: dict[str, Scenario] = {
    "ex-2.6-1": Scenario(
        "ex-2.6-1", "function-lab", "dichotomy_suite",
        "Integral form on L^p[0,1]: bounded for p >= 2, closable-unbounded "
        "below, with the tent-family witness and the L^2 domain verdicts."),
    "ex-2.6-2": Scenario(
        "ex-2.6-2", "function-lab", "weighted_form_suite",
        "Weighted integral form: effective-exponent classification and "
        "quadrature checks for an integrable singular weight."),
    "ex-2.6-3": Scenario(
        "ex-2.6-3", "matrix-lab", "replay_suite",
        "Weighted infinite matrices: trace-form closability replay at "
        "truncation 256 and Hilbert-Schmidt domain identification."),
    "ex-3.2-1": Scenario(
        "ex-3.2-1", "op-topologies", "periodic_multiplication_suite",
        "Periodic momentum: graph seminorms, submultiplicativity constants "
        "and the uniform seminorm identity for multiplication operators."),
    "ex-3.2-2": Scenario(
        "ex-3.2-2", "ccr-lab", "symbolic_suite",
        "CCR polynomial algebra: exact *-algebra identities, spectral "
        "representation, commutation relation and faithfulness probes."),
    "ex-3.8-1": Scenario(
        "ex-3.8-1", "function-lab", "gaussian_suite",
        "Polynomials under the Gaussian state: sandwich seminorms force "
        "null limits on integrable-null families."),
    "ex-3.8-2": Scenario(
        "ex-3.8-2", "op-topologies", "multiplication_extension_suite",
        "Multiplication operators on L^p: the strong* closure reaches L^s, "
        "the uniform closure refuses discontinuous targets."),
}


def list_catalog(module: str | None = None) -> list[Scenario]:
    items = [s for s in SCENARIOS.values()
             if module is None or s.module == module]
    return sorted(items, key=lambda s: s.scenario_id)


def run_scenario(scenario: Scenario, seed: int = 0) -> ScenarioOutcome:
    key = (scenario.module, scenario.operation)
    if key not in OPERATIONS:
        raise ConfigError(f"unknown operation {key[0]}/{key[1]}")
    op = OPERATIONS[key]
    op.check(scenario.parameters, f"scenario {scenario.scenario_id}")
    outcome = op.handler({**op.defaults, **scenario.parameters}, seed)
    outcome.scenario_id = scenario.scenario_id
    outcome.output_stem = scenario.output_stem
    return outcome


def parse_config(data: dict) -> list[Scenario]:
    if not isinstance(data, dict) or "scenarios" not in data:
        raise ConfigError("config must be an object with a 'scenarios' list")
    if not isinstance(data["scenarios"], list):
        raise ConfigError("'scenarios' must be a list")
    scenarios = []
    stems: dict[str, int] = {}  # normalised output stem -> scenario index
    for i, entry in enumerate(data["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        for key in ("module", "operation"):
            if key not in entry:
                raise ConfigError(f"{where}: missing '{key}'")
        params = entry.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{where}: 'parameters' must be an object")
        key = (entry["module"], entry["operation"])
        if key not in OPERATIONS:
            raise ConfigError(
                f"{where}: unknown operation {key[0]}/{key[1]}")
        OPERATIONS[key].check(params, where)
        output_path = entry.get("output_path")
        if output_path is not None and (not isinstance(output_path, str)
                                        or os.path.isabs(output_path)):
            raise ConfigError(f"{where}: 'output_path' must be a relative path")
        scenario = Scenario(
            scenario_id=entry.get("id", f"scenario-{i}"),
            module=entry["module"], operation=entry["operation"],
            description=entry.get("description", ""), parameters=params,
            output_path=output_path)
        stem = os.path.normpath(str(scenario.output_stem))
        if stem in stems:
            raise ConfigError(f"{where}: output stem {stem!r} clashes with "
                              f"scenarios[{stems[stem]}]")
        stems[stem] = i
        scenarios.append(scenario)
    return scenarios


# ---------------------------------------------------------------------------
# Deterministic output writing

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_outcome(outcome: ScenarioOutcome, out_dir: str,
                  fmt: str = "csv") -> list[str]:
    """Write the verdict JSON plus one CSV per table (or embed them)."""
    written = []
    payload = {"id": outcome.scenario_id, "passed": bool(outcome.passed),
               "details": outcome.details}
    if fmt == "json":
        payload["tables"] = {name: {"header": header, "rows": rows}
                             for name, (header, rows) in outcome.tables.items()}
    stem = outcome.output_stem or outcome.scenario_id
    verdict_path = os.path.join(out_dir, f"{stem}.json")
    dump_json(payload, verdict_path)
    written.append(verdict_path)
    if fmt == "csv":
        for name, (header, rows) in sorted(outcome.tables.items()):
            path = os.path.join(out_dir, f"{stem}__{name}.csv")

            def writer(fh, header=header, rows=rows):
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(header)
                for row in rows:
                    out.writerow([_format_cell(cell) for cell in row])

            atomic_write(path, writer)
            written.append(path)
    return written
