"""BENCHMARK.json follows the catalogue and the benchmark contract."""

from __future__ import annotations

import json
import re
from pathlib import Path

import catalogue
import harness
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_catalogue():
    assert (ROOT / "BENCHMARK.json").read_text() == catalogue.render()


def test_benchmark_json_meets_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert all((ROOT / p).is_dir() for p in spec["paths"])
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")


def test_every_layer_metric_names_what_it_moves():
    for _, _, e2e, wls in catalogue.per_layer().values():
        assert e2e in catalogue.END_TO_END
        assert wls and set(wls) <= set(workloads.WORKLOADS)


def test_result_line_has_exactly_the_contract_keys():
    ledger = harness.Ledger()
    ledger.ops(3, True, "")
    line = harness.result_line(ledger, {"setup_s": 0.5}, {"setup_s": "s"})
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 3, 0)


def test_every_workload_has_pinned_losses():
    pinned = json.loads(harness.PINNED.read_text())
    assert set(pinned) == set(workloads.WORKLOADS)
    assert all(len(seeds) >= 10 for seeds in pinned.values())
