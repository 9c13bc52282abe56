"""Smoke runs of the examples that read the DSM library's public objects."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name, expected",
    [
        # reads WholeTensor.memory.setup_time and .pointer_tables
        ("dsm_playground.py", "pointer table = 64 B/GPU"),
        ("papers100m_showdown.py", "speedups:"),
    ],
)
def test_example_runs(name, expected, monkeypatch, capsys):
    path = EXAMPLES / name
    monkeypatch.setattr("sys.argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert expected in capsys.readouterr().out
