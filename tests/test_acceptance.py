"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import filecmp
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qstarlab
from qstarlab import ccr
from qstarlab import function_lab as flab
from qstarlab import matrix_lab as mlab
from qstarlab.algebra import (corner_state, matrix_unit_algebra,
                              normalized_trace_state)
from qstarlab.forms import (cauchy_schwarz_residual, check_lemma24,
                            form_from_state, hermiticity_residual)
from qstarlab.gns import gns_construct, verify_gns
from qstarlab.matrix_lab import NON_CAUCHY_FAMILIES, NULL_FAMILIES
from qstarlab.scenarios import (clipped_power_family, multiplication_suite,
                                ramp_family, run_extension)
from qstarlab.topologies import BoundedSet, TruncatedOperator, seminorm


def _report(number: int, name: str, conditions: dict) -> None:
    ok = all(bool(v) for v in conditions.values())
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    failed = [key for key, v in conditions.items() if not v]
    assert ok, f"criterion {number} failed: {failed}"


def test_criterion_1_gns_suite():
    start = time.perf_counter()
    m2 = matrix_unit_algebra(2)
    rep_trace = gns_construct(m2, normalized_trace_state(2))
    diag_trace = verify_gns(rep_trace)
    rep_pure = gns_construct(m2, corner_state(2))
    diag_pure = verify_gns(rep_pure)
    elapsed = time.perf_counter() - start
    _report(1, "GNS suite", {
        "trace rank 4": rep_trace.rank == 4,
        "pure rank 2": rep_pure.rank == 2,
        "trace residuals": diag_trace.max_residual() < 1e-10,
        "pure residuals": diag_pure.max_residual() < 1e-10,
        "trace cyclic": diag_trace.cyclicity_rank == rep_trace.rank,
        "pure cyclic": diag_pure.cyclicity_rank == rep_pure.rank,
        "runtime < 1 s": elapsed < 1.0,
    })


def _random_grid_function(rng, grid):
    a = rng.standard_normal(5)
    vals = (a[0] + a[1] * grid.nodes
            + a[2] * np.cos(2 * np.pi * grid.nodes)
            + 1j * (a[3] * np.sin(2 * np.pi * grid.nodes) + a[4]))
    return flab.GridFunction(vals.astype(complex), grid)


def test_criterion_2_form_axioms():
    rng = np.random.default_rng(0)
    conditions = {}

    grid = flab.simpson_grid(257)
    lp_ctx = flab.lp_form_context(1.5, grid)
    pairs = [( _random_grid_function(rng, grid),
               _random_grid_function(rng, grid)) for _ in range(1000)]
    conditions["L^p hermitian"] = hermiticity_residual(lp_ctx, pairs) <= 1e-10
    conditions["L^p positive"] = all(lp_ctx.diag(f) >= -1e-10 for f, _ in pairs)
    conditions["L^p cauchy-schwarz"] = cauchy_schwarz_residual(
        lp_ctx, pairs) <= 1e-10

    mat_ctx = mlab.trace_form_context(24)
    mpairs = [(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)),
               rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
              for _ in range(1000)]
    mpairs = [(a / 24.0, b / 24.0) for a, b in mpairs]
    conditions["matrix hermitian"] = hermiticity_residual(
        mat_ctx, mpairs) <= 1e-10
    conditions["matrix positive"] = all(mat_ctx.diag(a) >= -1e-10
                                        for a, _ in mpairs)
    conditions["matrix cauchy-schwarz"] = cauchy_schwarz_residual(
        mat_ctx, mpairs) <= 1e-10

    alg_ctx = form_from_state(matrix_unit_algebra(2), normalized_trace_state(2))
    apairs = [(rng.standard_normal(4) + 1j * rng.standard_normal(4),
               rng.standard_normal(4) + 1j * rng.standard_normal(4))
              for _ in range(1000)]
    conditions["algebra hermitian"] = hermiticity_residual(
        alg_ctx, apairs) <= 1e-10
    conditions["algebra positive"] = all(alg_ctx.diag(a) >= -1e-10
                                         for a, _ in apairs)
    conditions["algebra cauchy-schwarz"] = cauchy_schwarz_residual(
        alg_ctx, apairs) <= 1e-10
    _report(2, "form axioms (1000 pairs x 3 contexts)", conditions)


def test_criterion_3_lemma_equivalence():
    from qstarlab.scenarios import _matrix_shift_suite

    n = 128
    ctx = mlab.trace_form_context(n)
    families = [mlab.matrix_family(name, n)
                for name in sorted({**NULL_FAMILIES, **NON_CAUCHY_FAMILIES})]
    shifts = _matrix_shift_suite(n)
    report = check_lemma24(ctx, families, shifts, n_max=n)
    _report(3, "Lemma-style closability equivalence", {
        "five shifts": len(shifts) == 5,
        "unit flagged absent": not report.unit_in_suite and report.notes,
        "verdicts agree": report.agree,
        "no counterexamples": not report.counterexamples,
    })


def test_criterion_4_dichotomy():
    start = time.perf_counter()
    grid = flab.simpson_grid()
    exps = {p: flab.unboundedness_witness(p, grid=grid).exponent
            for p in (1.0, 1.5, 2.0, 3.0)}
    members = {beta: flab.a_omega_membership(flab.power_builder(beta), 1.5)
               for beta in (0.25, 0.45, 0.55, 0.75)}
    elapsed = time.perf_counter() - start
    _report(4, "L^p dichotomy", {
        "exponent p=1": exps[1.0] >= 0.2,
        "exponent p=1.5": exps[1.5] >= 0.2,
        "exponent p=2": exps[2.0] <= 0.05,
        "exponent p=3": exps[3.0] <= 0.05,
        "beta 0.25 member": members[0.25].member,
        "beta 0.45 member": members[0.45].member,
        "beta 0.55 non-member": not members[0.55].member,
        "beta 0.75 non-member": not members[0.75].member,
        "runtime < 10 s": elapsed < 10.0,
    })


def test_criterion_5_ls_identification():
    conditions = {}
    for beta in (0.1, 0.2, 0.3, 0.4):
        verdict = flab.ls_membership(flab.power_builder(beta), 4.0)
        oracle = beta * verdict.s < 1.0
        conditions[f"beta {beta}"] = (verdict.member == oracle
                                      and verdict.s == pytest.approx(4.0))
    grid = flab.simpson_grid(257)
    strong = run_extension(grid, clipped_power_family(grid, 0.2, "height"),
                           "strongstar")
    conditions["strong* converges"] = strong.converged
    conditions["strong* reaches Cauchy domain"] = \
        strong.membership.domain == "Atilde"
    uniform = run_extension(grid, ramp_family(grid), "uniform", n_max=128)
    conditions["uniform refuses discontinuous"] = not uniform.converged
    conditions["uniform target is ambient limit"] = \
        uniform.membership.ambient_limit
    _report(5, "L^s identification and extension", conditions)


def test_criterion_6_matrix_replay():
    conditions = {}
    for name in sorted(NULL_FAMILIES):
        verdict = mlab.matrix_closability_replay(name, 256)
        conditions[f"{name} a=0"] = (verdict.null and verdict.cauchy
                                     and verdict.limits[0] == 0.0
                                     and not verdict.counterexample)
    for name in sorted(NON_CAUCHY_FAMILIES):
        verdict = mlab.matrix_closability_replay(name, 256)
        conditions[f"{name} consistent"] = (verdict.null
                                            and not verdict.cauchy
                                            and not verdict.counterexample)
    domain = mlab.d_omega_identification()
    conditions["six entry rules"] = len(domain) == 6
    conditions["oracle agreement"] = all(v.agrees for v in domain)
    _report(6, "matrix closability replay", conditions)


def test_criterion_7_ccr_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    exact = True
    for _ in range(100):
        q1 = ccr.random_ccr_polynomial(rng, 3, 3)
        q2 = ccr.random_ccr_polynomial(rng, 3, 3)
        q3 = ccr.random_ccr_polynomial(rng, 3, 3)
        exact = exact and (ccr.ccr_mul(ccr.ccr_mul(q1, q2), q3)
                           == ccr.ccr_mul(q1, ccr.ccr_mul(q2, q3)))
        exact = exact and (ccr.ccr_star(ccr.ccr_mul(q1, q2))
                           == ccr.ccr_mul(ccr.ccr_star(q2), ccr.ccr_star(q1)))

    phi = ccr.TrigPoly({0: 1.0, 1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 2: -0.125j,
                        -2: 0.125j, 3: 0.25})
    p_mat = ccr.momentum_matrix(64)
    f_mat = ccr.ccr_represent(ccr.CCRPolynomial.multiplication(phi), 64).matrix
    comm = p_mat @ f_mat - f_mat @ p_mat
    target = ccr.ccr_represent(
        ccr.CCRPolynomial.multiplication(phi.derivative().scale(-1j)),
        64).matrix
    safe = ccr.safe_indices(64, phi.max_freq)
    comm_res = float(np.max(np.abs((comm - target)[:, safe])))

    grad = abs(ccr.graph_seminorm(ccr.TrigPoly.mode(1).to_vector(4), 1)
               - (1.0 + 4.0 * math.pi ** 2))
    elapsed = time.perf_counter() - start
    _report(7, "CCR suite", {
        "100 triples coefficient-exact": exact,
        "commutation residual < 1e-10": comm_res < 1e-10,
        "graph seminorm 1+4pi^2": grad < 1e-10,
        "runtime < 5 s": elapsed < 5.0,
    })


def test_criterion_8_topology_ordering():
    rng = np.random.default_rng(1)
    dim = 7
    chain_ok = True
    invol_ok = True
    for _ in range(200):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = TruncatedOperator(mat / np.linalg.norm(mat))
        vecs = tuple(v / np.linalg.norm(v) for v in
                     (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                      for _ in range(4)))
        m = BoundedSet(vecs, name="M")
        phi, psi = vecs[0], vecs[1]
        weak = seminorm(op, "weak", phi=phi, psi=psi)
        strong = seminorm(op, "strong", m, phi=phi)
        sstar = seminorm(op, "strongstar", m, phi=phi)
        uniform = seminorm(op, "uniform", m)
        chain_ok = chain_ok and (weak <= strong + 1e-12
                                 and strong <= sstar + 1e-12
                                 and strong <= uniform + 1e-12)
        adj = op.adjoint()
        invol_ok = invol_ok and abs(
            seminorm(adj, "uniform", m) - uniform) <= 1e-12
        invol_ok = invol_ok and abs(
            seminorm(adj, "strongstar", m, phi=phi) - sstar) <= 1e-12
        sym = max(weak, seminorm(op, "weak", phi=psi, psi=phi))
        sym_adj = max(seminorm(adj, "weak", phi=phi, psi=psi),
                      seminorm(adj, "weak", phi=psi, psi=phi))
        invol_ok = invol_ok and abs(sym_adj - sym) <= 1e-12
    _report(8, "topology ordering (200 samples)", {
        "weak <= strong <= strong* <= uniform": chain_ok,
        "involution invariance 1e-12": invol_ok,
    })


def test_criterion_9_extension_well_defined():
    grid = flab.simpson_grid(257)
    suite = multiplication_suite(grid, "strongstar", seed=0)
    conditions = {}
    for beta in (0.15, 0.2, 0.3):
        a = run_extension(grid, clipped_power_family(grid, beta, "height"),
                          "strongstar")
        b = run_extension(grid, clipped_power_family(grid, beta, "plateau"),
                          "strongstar")
        both = a.converged and b.converged
        gap = max(fn(a.limit - b.limit) for _, fn in suite) if both else \
            float("inf")
        conditions[f"beta {beta} gap < 1e-6"] = both and gap < 1e-6
    _report(9, "extension well-definedness", conditions)


def test_criterion_10_cli_replication(tmp_path):
    start = time.perf_counter()
    # The child must import the same qstarlab as this process; a relative
    # PYTHONPATH (e.g. PYTHONPATH=src) does not resolve from tmp_path.
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(qstarlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_parent + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    runs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlab.cli", "--out-dir", str(out_dir),
             "replicate"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path))
        runs.append((proc, out_dir))
    elapsed = time.perf_counter() - start

    for proc, out_dir in runs:
        assert proc.returncode == 0, (
            f"replicate into {out_dir} exited {proc.returncode}:\n{proc.stderr}")
    (proc_a, dir_a), (proc_b, dir_b) = runs
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    identical = names_a == names_b and all(
        filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
        for name in names_a)
    _report(10, "CLI replication", {
        "exit 0 (run a)": proc_a.returncode == 0,
        "exit 0 (run b)": proc_b.returncode == 0,
        "all seven scenarios": sum(1 for line in proc_a.stdout.splitlines()
                                   if ": pass" in line) == 7,
        "outputs written": len(names_a) >= 8,
        "byte-deterministic": identical,
        "runtime < 60 s": elapsed < 60.0,
    })
