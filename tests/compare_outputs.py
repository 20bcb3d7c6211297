"""Byte-identity check of this tree's CLI outputs against another tree's.

    python tests/compare_outputs.py OTHER_ROOT

runs `qstarlab` from this tree and from OTHER_ROOT (for example a checkout
of the parent commit), each with its own `src` first on PYTHONPATH, on
three runs at seeds 0 and 3:

- replicate-csv: `replicate`, CSV tables;
- replicate-json: `replicate --format json`;
- closure_sweep: the closure_sweep config of this tree's
  `perfbench/workloads.py`, loaded by path and only read, with
  `--jobs 2 --format json`.

Every run is expected to pass.  It prints the number of files each run
compared, each output file that differs or exists on one side only, and
each run that exits non-zero on either side or writes no file, and exits
1 on any such difference, 0 when all are byte-identical.  Its name keeps it out of pytest's collection;
tests/test_compare_outputs.py runs it on one run.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 3)
RUNS = ("replicate-csv", "replicate-json", "closure_sweep")
CLI = "import sys; from qstarlab.cli import main; sys.exit(main(sys.argv[1:]))"


def run_argv(name: str, seed: int, work_dir: str) -> list[str]:
    """The CLI argv (without --out-dir) of one run; closure_sweep writes
    its config under work_dir."""
    if name == "closure_sweep":
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        return workloads.build("closure_sweep", seed, work_dir)[0]
    fmt = {"replicate-csv": "csv", "replicate-json": "json"}[name]
    return ["--seed", str(seed), "--format", fmt, "replicate"]


def run_cli(root: str, argv: list[str], out_dir: str) -> int:
    """Run the CLI of the tree at root into out_dir; its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", CLI, "--out-dir", out_dir,
                           *argv], env=env, cwd=out_dir,
                          stdout=subprocess.DEVNULL).returncode


def diff_dirs(mine: str, other: str) -> tuple[list[str], int]:
    """The relative paths of the files that differ or exist under one
    directory only, and the number of files compared."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names}

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    ours, theirs = files(mine), files(other)
    differ = sorted(
        [f"{p} (only in this tree)" for p in ours - theirs]
        + [f"{p} (only in the other tree)" for p in theirs - ours]
        + [p for p in ours & theirs
           if read(os.path.join(mine, p)) != read(os.path.join(other, p))])
    return differ, len(ours | theirs)


def compare(other_root: str, seeds=SEEDS, runs=RUNS) -> tuple[list[str], int]:
    """Every difference between the two trees' outputs, as printable
    lines, and the number of files compared; prints each run's count."""
    differences, compared = [], 0
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for name in runs:
                label = f"{name}/seed{seed}"
                os.makedirs(os.path.join(work, label))
                argv = run_argv(name, seed, os.path.join(work, label))
                outs = []
                for side, root in (("mine", ROOT), ("other", other_root)):
                    out = os.path.join(work, label, side)
                    os.makedirs(out)
                    outs.append((out, run_cli(root, argv, out)))
                (mine, code), (other, other_code) = outs
                if code or other_code:
                    differences.append(f"{label}: exit code {code} here, "
                                       f"{other_code} in the other tree")
                differ, count = diff_dirs(mine, other)
                print(f"{label}: {count} files compared")
                if not count:
                    differences.append(f"{label}: no file written")
                differences += [f"{label}/{path}" for path in differ]
                compared += count
    return differences, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root")
    differences, compared = compare(
        os.path.abspath(parser.parse_args(argv).other_root))
    for line in differences:
        print(f"differs: {line}")
    print(f"{compared} files compared, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
