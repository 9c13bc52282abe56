"""The repository benchmark: one command, every workload, both clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-gat --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload runs in a fresh interpreter started from this process, with
BLAS and OpenMP pinned to one thread, so its set-up time, peak memory and
import state belong to it alone.  The child's human-readable lines are
passed through; the last line printed is the JSON result (for ``all``, the
results of every workload merged under ``<workload>.<metric>`` names).

Exits non-zero without a result if the repository sources are missing or
a workload fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a single workload must finish well inside three minutes
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    """The environment of a workload process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, args) -> dict | None:
    """Run one workload in a fresh process; its parsed result, or None."""
    cmd = [
        sys.executable, str(HERE / "harness.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{name}: timed out after {CHILD_TIMEOUT_S:.0f} s",
                  file=sys.stderr)
            return None
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{name}: no result line", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
