"""No output depends on the BLAS thread count.

OpenBLAS splits a dot product of more than 10,000 terms across its threads,
and the split moves the last bits of the sum.  Two CLI processes, one with
OPENBLAS_NUM_THREADS=1 and one with 2, each run `replicate` (CSV, seed 0)
and the 13 matrix-trace scenarios of test_matrix_oracle's config
(`--format json`); every file must be equal byte for byte between them.
The longest sums are the trace form on blocks of 101 x 101 and more and
the quadrature sums on the 16,385-node grid.

OpenBLAS may cap the thread count at the number of cores, so on a one-core
machine both processes run one thread and the test cannot fail.
"""

import json
import os
import subprocess
import sys

import numpy as np

import qstarlab
from qstarlab import function_lab as flab
from qstarlab.forms import DOT_TERMS, chunked_dot
from test_matrix_oracle import _config

CHILD = ("import sys; from qstarlab.cli import main; "
         "out, config = sys.argv[1:]; "
         "sys.exit(main(['--seed', '0', '--out-dir', out + '/replicate', "
         "'replicate']) or main(['--seed', '0', '--format', 'json', "
         "'--out-dir', out + '/matrix', 'run', config]))")


def _files(root: str) -> dict:
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "matrix.json"
    config.write_text(json.dumps(_config()), encoding="utf-8")
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(qstarlab.__file__)))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = package_parent + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = tmp_path / f"threads{threads}"
        runs[threads] = (out, subprocess.Popen(
            [sys.executable, "-c", CHILD, str(out), str(config)], env=env,
            cwd=str(tmp_path), stdout=subprocess.DEVNULL))
    try:
        assert [proc.wait(timeout=60) for _, proc in runs.values()] == [0, 0]
    finally:
        for _, proc in runs.values():
            proc.kill()
    one, two = (_files(str(out)) for out, _ in runs.values())
    assert len(one) == 26 + 13
    assert sorted(one) == sorted(two)
    differ = [name for name in sorted(one) if one[name] != two[name]]
    assert not differ, f"differ in bytes between 1 and 2 threads: {differ}"


def test_chunked_dot_adds_the_chunk_dots_in_order():
    rng = np.random.default_rng(7)
    n = 2 * DOT_TERMS + 5
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = rng.standard_normal((3, n))
    chunks = [slice(k, k + DOT_TERMS) for k in range(0, n, DOT_TERMS)]
    want = np.vdot(x[chunks[0]], rows[0, chunks[0]])
    for c in chunks[1:]:
        want = want + np.vdot(x[c], rows[0, c])
    assert chunked_dot(x, rows[0]) == want
    stacked = chunked_dot(rows, rows[0])
    assert stacked.shape == (3,)
    assert [chunked_dot(r, rows[0]) for r in rows] == list(stacked)
    block = rng.standard_normal((40, 30))
    assert chunked_dot(block, block[::-1]) == np.vdot(block, block[::-1])


def test_long_quadrature_sums_overflow_without_a_warning():
    grid = flab.simpson_grid(16385)
    values = np.ones(grid.n_nodes)
    values[-1] = 1e200  # in the last chunk
    f = flab.GridFunction(values, grid)
    assert flab.lp_norm(f, 2.0) == np.inf
    assert not np.isfinite(flab.omega_form(f, f))
