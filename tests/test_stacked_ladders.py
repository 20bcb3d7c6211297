"""Ladders of grid functions evaluated as stacks (`forms.ladder_series`).

A ladder of grid functions of at most `STACK_VALUES` values is evaluated
as two (L, N) stacks, its members and their differences, and a ladder of
real multiplication operators as one `TruncatedOperator` with a 2-D
diagonal.  Every series must equal, bit for bit, the one the same
evaluators give one member at a time: the reference below is the
per-member seminorm written out plainly, one product per test vector.
Every member of a ladder is held, so the peak memory of a large ladder is
bounded here too.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import pairing
from qstarlab import function_lab as flab
from qstarlab.forms import (FormContext, ProbeFamily, closability_probe,
                            ladder_series, star_form)
from qstarlab.matrix_lab import matrix_family, trace_form_context
from qstarlab.rates import geometric_ladder
from qstarlab.scenarios import (CLIP_VARIANTS, EXTENSION_GRID_NODES,
                                EXTENSION_POINTS, EXTENSION_TARGETS,
                                clipped_power_family, multiplication_suite,
                                ramp_family, run_extension)
from qstarlab.topologies import (TOPOLOGIES, Suite, TruncatedOperator,
                                 seminorm)


@pytest.fixture(scope="module")
def grid():
    return flab.simpson_grid(EXTENSION_GRID_NODES)


def member_seminorm(d: np.ndarray, suite) -> list:
    """The suite on one real diagonal d, one vector and one set at a time."""
    if suite.topology == "uniform":
        return [np.max(np.abs(d)) if m.is_basis
                else np.max(np.abs((m.conj_rows * d) @ m.rows.T))
                for m in suite.bounded_sets]
    if suite.topology == "weak":
        return [abs(pairing(d * np.asarray(phi, dtype=complex), psi))
                for _, phi, psi in suite.weak_pairs]
    return [np.max(np.abs(img if m.is_basis else m.conj_rows @ img))
            for m in suite.bounded_sets for img in
            (d * np.asarray(phi, dtype=complex) for _, phi in suite.phis)]


CASES = ([(topology, target, "height") for topology in TOPOLOGIES
          for target in EXTENSION_TARGETS]
         + [("strongstar", "power", variant) for variant in CLIP_VARIANTS
            if variant != "height"])


@pytest.mark.parametrize("topology, target, variant", CASES)
def test_stacked_series_equal_member_by_member(grid, topology, target,
                                               variant):
    n_max = 4096
    if target == "power":
        family = clipped_power_family(grid, 0.2, variant)
    else:
        family, n_max = ramp_family(grid), 128
    ns = geometric_ladder(n_max, points=EXTENSION_POINTS)
    suite = multiplication_suite(grid, topology)
    members = [family.generate(int(n)) for n in ns]
    diags = [m.values.astype(complex) for m in members]
    steps = [b - a for a, b in zip(diags, diags[1:])]
    want_values = np.array([member_seminorm(d, suite) for d in diags])
    want_steps = np.array([member_seminorm(d, suite) for d in steps])
    want_ambient = np.array([flab.lp_norm(m, 1.0) for m in members])
    want_ambient_steps = np.array([flab.lp_norm(b - a, 1.0)
                                   for a, b in zip(members, members[1:])])

    def l1(f):
        return flab.lp_norm(f, 1.0)

    _, (ambient, values), (ambient_steps, steps_got), _ = ladder_series(
        family, ns, None, [(None, l1, 1), (flab.mult_operator,
                                           partial(seminorm, suite=suite), 1)])
    assert np.array_equal(values, want_values)
    assert np.array_equal(steps_got, want_steps)
    assert np.array_equal(ambient[:, 0], want_ambient)
    assert np.array_equal(ambient_steps[:, 0], want_ambient_steps)
    result = run_extension(grid, family, topology, n_max=n_max)
    assert np.array_equal(result.residual_trace, want_steps)
    assert np.array_equal(result.ambient_residuals, want_ambient_steps)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_single_operator_is_a_stack_of_one(grid, topology):
    suite = multiplication_suite(grid, topology)
    f = clipped_power_family(grid, 0.2).generate(37)
    got = seminorm(flab.mult_operator(f), suite)
    assert np.array_equal(got, member_seminorm(f.values.astype(complex),
                                               suite))


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_empty_stack_gives_no_rows(grid, topology):
    suite = multiplication_suite(grid, topology)
    d = np.ones((0, grid.n_nodes), dtype=complex)
    assert np.array_equal(seminorm(TruncatedOperator(diag=d), suite),
                          np.empty((0, len(suite.names))))


def test_complex_diagonals_are_not_stacked(grid):
    rng = np.random.default_rng(4)
    d = rng.standard_normal((3, grid.n_nodes)).astype(complex)
    d[1] += 1j * rng.standard_normal(grid.n_nodes)
    ops = [TruncatedOperator(diag=row) for row in d]
    assert TruncatedOperator.stack_ladder(ops) is None
    stack, steps = TruncatedOperator.stack_ladder(ops[::2])
    assert np.array_equal(stack.diag, d[::2])
    assert np.array_equal(steps.diag, d[2:3] - d[:1])


def test_weak_pairings_take_pythons_complex_abs(grid):
    # complex test vectors give complex pairings, whose np.abs rounds
    # differently from abs(complex)
    rng = np.random.default_rng(7)
    vecs = [rng.standard_normal(grid.n_nodes)
            + 1j * rng.standard_normal(grid.n_nodes) for _ in range(4)]
    suite = Suite("weak", weak_pairs=[("a", vecs[0], vecs[1]),
                                      ("b", vecs[2], vecs[3])])
    d = rng.standard_normal((5, grid.n_nodes)).astype(complex)
    assert np.array_equal(seminorm(TruncatedOperator(diag=d), suite),
                          [member_seminorm(row, suite) for row in d])


def test_dense_representatives_are_not_stacked():
    ops = [TruncatedOperator(diag=np.ones(3)), TruncatedOperator(np.eye(3))]
    assert TruncatedOperator.stack_ladder(ops) is None
    assert TruncatedOperator.stack_ladder(
        [TruncatedOperator(diag=np.ones(3)),
         TruncatedOperator(diag=np.ones(4))]) is None


def test_lp_probe_stacks_the_form_diagonal(grid):
    ctx = flab.lp_form_context(1.0, grid)
    family = flab.tent_family(grid, 0.25, 1.0)
    ns = geometric_ladder(256)
    members = [family.generate(int(n)) for n in ns]
    assert flab.GridFunction.stack_ladder(members) is not None
    probe = closability_probe(ctx, family, 256)
    want = [float(np.real(flab.omega_form(m, m))) for m in members]
    assert np.array_equal(probe.values[:, 0], want)
    want_steps = [float(np.real(flab.omega_form(b - a, b - a)))
                  for a, b in zip(members, members[1:])]
    assert np.array_equal(probe.steps[:, 0], want_steps)
    # a derived form's diagonal takes the stack too
    star_probe = closability_probe(star_form(ctx), family, 256)
    assert np.array_equal(star_probe.values, probe.values)
    assert np.array_equal(star_probe.steps, probe.steps)


def plain_lp_norm(f, p: float) -> float:
    """lp_norm of one function as one np.dot."""
    with np.errstate(over="ignore"):
        return float(np.dot(f.grid.weights, np.abs(f.values) ** p)
                     ** (1.0 / p))


def plain_omega_form(f, g, w=None) -> complex:
    """omega_form of one pair as one complex np.dot."""
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = f.values * g.values.conj()
        if w is not None:
            integrand = integrand * w.values
        return complex(np.dot(f.grid.weights, integrand.astype(complex)))


def bits(x) -> bytes:
    return np.array(x).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "weighted", "overflow"])
@pytest.mark.parametrize("n_nodes", [33, 257, 4097])
def test_one_grid_function_is_a_stack_of_one(kind, n_nodes):
    grid = flab.simpson_grid(n_nodes)
    rng = np.random.default_rng(n_nodes)
    f, g, w = (rng.standard_normal(n_nodes) for _ in range(3))
    if kind == "complex":
        f = f + 1j * rng.standard_normal(n_nodes)
        g = g - 1j * rng.standard_normal(n_nodes)
    if kind == "overflow":  # |f|^p and f conj(g) overflow to inf
        f[n_nodes // 2] = 1e200
        g[n_nodes // 2] = -1e200
    f, g = flab.GridFunction(f, grid), flab.GridFunction(g, grid)
    w = flab.GridFunction(np.abs(w), grid) if kind == "weighted" else None
    for p in (1.0, 1.5, 2.0, 3.0):
        got = flab.lp_norm(f, p)
        assert type(got) is float
        assert bits(got) == bits(plain_lp_norm(f, p))
    for a, b in ((f, g), (f, f), (g, f)):
        got = flab.omega_form(a, b, w)
        assert type(got) is complex
        assert bits(got) == bits(plain_omega_form(a, b, w))
    if kind == "overflow":
        assert flab.lp_norm(f, 2.0) == np.inf
        assert not np.isfinite(flab.omega_form(f, g))


def test_an_evaluator_must_give_one_row_per_member(grid):
    family = flab.tent_family(grid, 0.25, 1.0)
    ns = geometric_ladder(256)

    def total_norm(f):  # reduces over the whole stack
        return float(np.sum(np.abs(f.values)))

    with pytest.raises(ValueError, match="total_norm.*one value or one row"):
        ladder_series(family, ns, None, [(None, total_norm, 1)])
    ctx = flab.lp_form_context(1.0, grid)
    untabled = ProbeFamily("tents", family.generate)  # no closed-form norm
    with pytest.raises(ValueError, match="total_norm"):
        closability_probe(FormContext("custom", form=ctx.form,
                                      ambient_norm=total_norm), untabled, 256)


def test_stack_ladder_declines_above_stack_values(grid):
    tents = [flab.tent_function(grid, n, 0.25) for n in range(1, 25)]
    assert len(tents) * grid.n_nodes <= flab.STACK_VALUES  # 257 nodes
    stack, _ = flab.GridFunction.stack_ladder(tents)
    assert np.array_equal(stack.values, [f.values for f in tents])
    grid = flab.simpson_grid()  # 4097 nodes: 24 tents exceed STACK_VALUES
    tents = [flab.tent_function(grid, n, 0.25) for n in range(1, 25)]
    assert len(tents) * grid.n_nodes > flab.STACK_VALUES
    assert flab.GridFunction.stack_ladder(tents) is None
    # a declined ladder is evaluated one member at a time, the same bits
    family = flab.tent_family(grid, 0.25, 1.0)
    members = [family.generate(int(n)) for n in geometric_ladder(256)]
    assert flab.GridFunction.stack_ladder(members) is None
    probe = closability_probe(flab.lp_form_context(1.0, grid), family, 256)
    assert np.array_equal(probe.values[:, 0],
                          [float(np.real(flab.omega_form(m, m)))
                           for m in members])


def test_stack_rejects_a_second_grid(grid):
    other = flab.simpson_grid(129)
    f = flab.GridFunction.from_callable(lambda x: x, grid)
    g = flab.GridFunction.from_callable(lambda x: x, other)
    with pytest.raises(flab.GridMismatchError):
        flab.GridFunction.stack_ladder([f, g])
    with pytest.raises(flab.GridMismatchError):
        flab.GridFunction(np.ones((2, 3, grid.n_nodes)), grid)


def test_a_held_matrix_ladder_has_a_bounded_peak():
    # every member of a ladder is held: the 20 spreading blocks of the
    # N = 256 probe peak at 2.0 MB under tracemalloc; the bound is about
    # twice that, so a costlier way of holding them shows
    def probe():
        return closability_probe(trace_form_context(256),
                                 matrix_family("spreading_block", 256), 256)

    probe()  # fills the shared caches, which are not the ladder's cost
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
