"""Regenerate ``pinned_losses.json``: the warm-up loss per workload and seed.

Usage (from the repository root)::

    python3 perfbench/pin_losses.py

Each workload at seeds 0 .. ``PINNED_SEEDS - 1`` runs ``harness.py --pin``
in a fresh process under the benchmark's environment.  Re-pin only when a
change is meant to alter the training arithmetic beyond the stated
tolerance, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, child_env
from workloads import WORKLOADS

PINNED = HERE / "pinned_losses.json"
PINNED_SEEDS = 32


def pin(workload: str, seed: int) -> float:
    """The warm-up loss of one workload at one seed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--pin"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        check=True, timeout=300,
    ).stdout
    return json.loads(out.splitlines()[-1])["loss"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        w: {str(s): pin(w, s) for s in range(PINNED_SEEDS)} for w in WORKLOADS
    }, indent=1) + "\n")
