"""Benchmark runner: cold `qstarlab` CLI passes, one fresh process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs passes back to back until S seconds are used.
Each pass spawns a fresh interpreter (`child.py`) that imports the package
from this checkout's `src/`, runs the CLI on the workload's argv and exits.
Every scenario of every pass is checked: exit code, presence and parse of
`<id>.json`, its verdict against `oracle.json`, and byte-identity of all
output files with the run's first pass.  The last stdout line is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics from
alternating traced and untraced passes with `--trace 1`.  The exit code is
1 when any check failed, after the result line is printed.

BLAS and OpenMP thread variables are recorded, never set: users run with
the defaults, and the benchmark reaches its bounds through run length.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spec
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# A pass still running this long after the run started is killed, so a run
# always ends within 180 s, the longest one may take.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10
# A fixed pure-Python loop timed between passes.  The host's single-thread
# speed switches between levels for minutes at a time; the probe's median
# marks the level a run was taken at, so two runs can be compared knowing
# whether they saw the same host.
PROBE_ITERATIONS = 20000


def host_probe_ms() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


class Pass:
    """Timings and check results of one CLI process.  `timed` is false when
    the process failed and left no timing, which then counts nowhere."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.timed = False
        self.failed_ids: set[str] = set()
        self.record: dict = {}
        self.spawn = self.exit = 0.0
        self.rss_mb = 0.0
        self.digests: dict[str, str] = {}

    @property
    def setup_s(self) -> float:
        return self.record["imported"] - self.spawn

    @property
    def run_s(self) -> float:
        return self.record["main_end"] - self.record["main_start"]

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn


def _digests(out_dir: str) -> dict[str, str]:
    out = {}
    if not os.path.isdir(out_dir):
        return out
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _scenario_of(filename: str) -> str:
    stem = filename.rsplit(".", 1)[0]
    return stem.split("__", 1)[0]


def run_pass(index: int, traced: bool, argv: list[str], work: str,
             oracle: dict, deadline: float) -> Pass:
    """Spawn one CLI process and check everything it wrote."""
    result = Pass(index, traced)
    pass_dir = os.path.join(work, f"pass-{index}")
    out_dir = os.path.join(pass_dir, "out")
    os.makedirs(pass_dir)
    timing_path = os.path.join(pass_dir, "timing.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), timing_path,
           "1" if traced else "0", "--out-dir", out_dir, *argv]
    with open(os.path.join(pass_dir, "stdout"), "wb") as out, \
            open(os.path.join(pass_dir, "stderr"), "wb") as err:
        result.spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=pass_dir, env=env, stdout=out,
                                stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        result.exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result.rss_mb = usage.ru_maxrss / 1024.0

    expected_code = 0 if all(v["passed"] for v in oracle.values()) else 1
    problems = []
    if proc.returncode != expected_code:
        problems.append(f"exit code {proc.returncode}, expected {expected_code}")
    elif not os.path.exists(timing_path):
        problems.append("no timing record")
    if problems:
        with open(os.path.join(pass_dir, "stderr"), encoding="utf-8",
                  errors="replace") as fh:
            problems.append("stderr:\n" + fh.read())
        _report_failure(index, problems)
        result.failed_ids = set(oracle)
        return result

    with open(timing_path, encoding="utf-8") as fh:
        result.record = json.load(fh)
    package = os.path.realpath(result.record["package"])
    if not package.startswith(os.path.realpath(SRC) + os.sep):
        _report_failure(index, [f"imported {package}, not this checkout"])
        result.failed_ids = set(oracle)
        return result

    for sid, expected in oracle.items():
        path = os.path.join(out_dir, f"{sid}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                got = workloads.verdict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{sid}: unreadable verdict ({exc})")
            result.failed_ids.add(sid)
            continue
        if got != expected:
            problems.append(f"{sid}: verdict {got} differs from oracle {expected}")
            result.failed_ids.add(sid)
    result.digests = _digests(out_dir)
    if problems:
        _report_failure(index, problems)
    result.timed = True
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _report_failure(index: int, problems: list[str]) -> None:
    print(f"pass {index} failed:", file=sys.stderr)
    for line in problems:
        print(f"  {line}", file=sys.stderr)


def _check_determinism(passes: list[Pass]) -> None:
    """Fail every scenario whose output bytes differ from the first good
    pass of the run (all passes of a run share the seed)."""
    good = [p for p in passes if p.timed]
    if not good:
        return
    reference = good[0].digests
    for p in good[1:]:
        names = set(reference) | set(p.digests)
        differing = {_scenario_of(n) for n in names
                     if reference.get(n) != p.digests.get(n)}
        if differing:
            _report_failure(p.index, [f"output bytes differ from pass "
                                      f"{good[0].index}: {sorted(differing)}"])
            p.failed_ids |= differing


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values beyond it,
    as (value, percentile); the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list[Pass], n_scenarios: int) -> tuple[dict, list[str]]:
    good = [p for p in passes if p.timed]
    run_s = [p.run_s for p in good]
    tail_value, tail_pct = tail(run_s)
    n = len(good)
    values = {
        "setup_s": statistics.median(p.setup_s for p in good),
        "pass_s": statistics.median(run_s),
        "pass_s_tail": tail_value,
        "verdicts_per_s": statistics.median(
            (n_scenarios - len(p.failed_ids)) / p.wall_s for p in good),
        "peak_rss_mb": statistics.median(p.rss_mb for p in good),
    }
    lines = [f"{name:16s} {values[name]:12.6f} {unit:5s} n={n}"
             for name, unit, _, _ in spec.END_TO_END]
    lines.append(f"pass_s_tail is p{tail_pct:.1f} of {n} passes, "
                 f"{TAIL_BEYOND} beyond it" if n > TAIL_BEYOND else
                 f"pass_s_tail is the maximum: {n} passes are too few for "
                 f"{TAIL_BEYOND} beyond")
    return values, lines


def _union_length(intervals: list) -> float:
    """Length of the union of (start, end) intervals; child spans on two
    worker threads overlap, and time covered twice is covered once."""
    total, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


def _pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass: calls and self time per span
    name, self time per module, and the counters."""
    trace = p.record["trace"]
    names = trace["names"]
    spans = trace["spans"]
    children: dict[int, list] = {}
    for _, _, t0, t1, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    covered = {sid: _union_length(intervals)
               for sid, intervals in children.items()}
    out: dict[str, float] = {}
    for sid, index, t0, t1, _ in spans:
        name = names[index]
        own = (t1 - t0) - covered.get(sid, 0.0)
        module = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own
    counters = trace["counters"]
    for module in spec.SPANS:
        out[f"{module}.share"] = out.get(f"{module}.self_s", 0.0) / p.run_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["topologies.BoundedSet.stack.per_seminorm"] = ratio(
        out.get("topologies.BoundedSet.stack.calls", 0),
        out.get("topologies.seminorm.calls", 0))
    out["topologies.extend_by_closure.zero_residual_share"] = ratio(
        counters.get("topologies.extend_by_closure.zero_cells", 0.0),
        counters.get("topologies.extend_by_closure.cells", 0.0))
    out["rates.fit_trend.floor_share"] = ratio(
        counters.get("rates.fit_trend.floor", 0.0),
        out.get("rates.fit_trend.calls", 0))
    for key in ("ccr.ccr_represent.bytes", "function_lab.mult_operator.bytes",
                "scenarios.write_outcome.bytes"):
        out[key] = counters.get(key, 0.0)
    return out


def per_layer(workload: str, passes: list[Pass]) -> tuple[dict, list[str], list[str]]:
    good = [p for p in passes if p.timed]
    traced = [p for p in good if p.traced]
    plain = [p for p in good if not p.traced]
    rows = [_pass_layers(p) for p in traced]
    values = {}
    for name, _ in spec.per_layer_metrics():
        values[name] = statistics.median(row.get(name, 0.0) for row in rows)
    values["cli.cpu_s"] = statistics.median(p.record["cpu_s"] for p in plain)
    values["cli.cores_used"] = statistics.median(
        p.record["cpu_s"] / p.run_s for p in plain)
    values["trace.overhead_s"] = (statistics.median(p.run_s for p in traced)
                                  - statistics.median(p.run_s for p in plain))

    problems = []
    for module, functions in spec.SPANS.items():
        for function, exercised_on in functions.items():
            name = f"{module}.{function}"
            if workload in exercised_on and any(
                    row.get(f"{name}.calls", 0) < 1 for row in rows):
                problems.append(f"span {name} recorded no call on {workload}")
    units = dict(spec.per_layer_metrics())
    lines = [f"{name:52s} {values[name]:16.6f} {units[name]}"
             for name, _ in spec.per_layer_metrics()]
    lines.append(f"traced passes n={len(traced)}, untraced n={len(plain)}")
    return values, lines, problems


def provenance(workload: str, seed: int, argv: list[str]) -> list[str]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the config layout differs across numpy versions
        blas_desc = f"unknown ({type(exc).__name__})"
    git = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, capture_output=True,
                               text=True).stdout.strip()
        git = f"{sha}{' (src dirty)' if dirty else ''}"
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return [f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"blas {blas_desc}",
            f"threads: {threads}",
            f"nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}",
            f"git {git}",
            f"workload {workload}, seed {seed}, argv qstarlab {' '.join(argv)}"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds`; return the result line's content plus
    human-readable lines."""
    if workload not in spec.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"known: {', '.join(spec.WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "qstarlab", "cli.py")):
        raise SystemExit(f"error: no package source at {SRC}/qstarlab")
    with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as fh:
        oracle_all = json.load(fh)
    compileall.compile_dir(os.path.join(SRC, "qstarlab"), quiet=1)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    passes: list[Pass] = []
    probe_ms: list[float] = []
    try:
        argv, ids = workloads.build(workload, seed, work)
        oracle = {sid: oracle_all[workload][sid] for sid in ids}
        while True:
            elapsed = time.monotonic() - start
            typical = statistics.median(p.wall_s for p in passes) if passes else 0
            # Two passes at least: the byte-identity check needs a pair, and a
            # traced run needs an untraced pass to compare with.
            if len(passes) >= 2 and elapsed + typical > seconds:
                break
            probe_ms.append(host_probe_ms())
            passes.append(run_pass(len(passes), trace and len(passes) % 2 == 1,
                                   argv, work, oracle, deadline))
            if deadline - time.monotonic() < 2 * passes[-1].wall_s:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    _check_determinism(passes)

    attempted = len(ids) * len(passes)
    failed = sum(len(p.failed_ids) for p in passes)
    lines = provenance(workload, seed, argv)
    lines.append(f"host level: probe loop median {statistics.median(probe_ms):.4f} "
                 f"ms over {len(probe_ms)} samples between passes")
    good = [p for p in passes if p.timed]
    if not good or (trace and not all(any(p.traced == t for p in good)
                                      for t in (True, False))):
        raise SystemExit(f"error: {workload}: too few successful passes "
                         f"({len(good)} of {len(passes)})")
    problems = []
    if trace:
        metrics, more, problems = per_layer(workload, passes)
        units = dict(spec.per_layer_metrics())
    else:
        metrics, more = end_to_end(passes, len(ids))
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    for line in problems:
        print(f"self-check failed: {line}", file=sys.stderr)
    lines += more
    lines.append(f"scenarios attempted {attempted}, failed {failed}, "
                 f"failed_ratio {failed / attempted:.6f}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
