"""Phase profiler and checkpointing."""

import numpy as np
import pytest

from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.nn import Adam, SGD, build_model
from repro.telemetry.profiler import PhaseProfiler
from repro.train import WholeGraphTrainer
from repro.train.checkpoint import load_checkpoint, save_checkpoint


# -- profiler -------------------------------------------------------------------------

def test_profiler_captures_only_its_region(small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    tr = WholeGraphTrainer(store, "gcn", seed=0, batch_size=32,
                           fanouts=[5], hidden=8, dropout=0.0)
    tr.train_epoch(max_iterations=1)  # outside the profiled region
    with PhaseProfiler(node) as prof:
        tr.train_epoch(max_iterations=2)
    totals = prof.phase_totals(node.gpu_memory[0].device)
    assert totals["sample"] > 0 and totals["train"] > 0
    assert prof.elapsed() > 0
    # region total matches the clock delta of gpu0
    dev = node.gpu_memory[0].device
    assert sum(totals.values()) == pytest.approx(prof.elapsed(dev), rel=0.01)


def test_profiler_report_sorted_by_time(small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    tr = WholeGraphTrainer(store, "gcn", seed=0, batch_size=32,
                           fanouts=[5], hidden=8, dropout=0.0)
    with PhaseProfiler(node) as prof:
        tr.train_epoch(max_iterations=1)
    text = prof.report(node.gpu_memory[0].device)
    assert "Phase profile" in text
    assert "sample" in text and "train" in text


def test_profiler_empty_region():
    node = SimNode()
    with PhaseProfiler(node) as prof:
        pass
    assert prof.summaries == []
    assert prof.elapsed() == 0.0


def test_profiler_never_advanced_device_elapsed_zero():
    node = SimNode()
    with PhaseProfiler(node) as prof:
        node.gpu_clock[0].advance(1e-3, phase="train")
    assert prof.elapsed(node.gpu_clock[0].device) == pytest.approx(1e-3)
    # devices that recorded nothing report zero, not KeyError
    assert prof.elapsed(node.gpu_clock[3].device) == 0.0
    assert prof.elapsed(node.host_clock.device) == 0.0
    assert prof.phase_totals(node.gpu_clock[3].device) == {}


def test_nested_profilers_on_same_node():
    node = SimNode()
    clk = node.gpu_clock[0]
    dev = clk.device
    with PhaseProfiler(node) as outer:
        clk.advance(1e-3, phase="sample")
        with PhaseProfiler(node) as inner:
            clk.advance(2e-3, phase="train")
        clk.advance(4e-3, phase="gather")
    # the inner region sees only its own span ...
    assert inner.phase_totals(dev) == pytest.approx({"train": 2e-3})
    assert inner.elapsed(dev) == pytest.approx(2e-3)
    # ... while the outer region sees all three
    assert outer.phase_totals(dev) == pytest.approx(
        {"sample": 1e-3, "train": 2e-3, "gather": 4e-3}
    )
    assert outer.elapsed(dev) == pytest.approx(7e-3)


# -- checkpointing -------------------------------------------------------------------------

def test_checkpoint_roundtrip_adam(tmp_path, rng):
    model = build_model("gcn", 8, 3, rng, hidden=8, num_layers=2)
    opt = Adam(model.parameters(), lr=0.01)
    # take a step so optimizer state is non-trivial
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt, epoch=7, extra={"best_acc": 0.9})

    model2 = build_model("gcn", 8, 3, np.random.default_rng(99), hidden=8,
                         num_layers=2)
    opt2 = Adam(model2.parameters(), lr=0.01)
    meta = load_checkpoint(path, model2, opt2)
    assert meta["epoch"] == 7
    assert float(meta["extra"]["best_acc"]) == pytest.approx(0.9)
    for a, b in zip(model.parameters(), model2.parameters()):
        assert np.array_equal(a.data, b.data)
    assert opt2.t == opt.t
    for m1, m2 in zip(opt._m, opt2._m):
        assert np.array_equal(m1, m2)


def test_checkpoint_resume_training_identical(tmp_path, rng):
    """Save -> load -> continue must equal uninterrupted training."""
    def make():
        m = build_model("gcn", 4, 2, np.random.default_rng(0), hidden=4,
                        num_layers=1, dropout=0.0)
        return m, Adam(m.parameters(), lr=0.05)

    def fake_step(model, opt, value):
        for p in model.parameters():
            p.grad = np.full_like(p.data, value)
        opt.step()

    m1, o1 = make()
    fake_step(m1, o1, 0.5)
    path = tmp_path / "mid.npz"
    save_checkpoint(path, m1, o1)
    fake_step(m1, o1, -0.25)
    uninterrupted = m1.state_dict()

    m2, o2 = make()
    load_checkpoint(path, m2, o2)
    fake_step(m2, o2, -0.25)
    for a, b in zip(uninterrupted, m2.state_dict()):
        assert np.allclose(a, b, atol=1e-7)


def test_checkpoint_optimizer_kind_mismatch(tmp_path, rng):
    model = build_model("gcn", 4, 2, rng, hidden=4, num_layers=1)
    opt = Adam(model.parameters())
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt)
    with pytest.raises(ValueError, match="Adam"):
        load_checkpoint(path, model, SGD(model.parameters()))


def test_checkpoint_shape_mismatch(tmp_path, rng):
    model = build_model("gcn", 4, 2, rng, hidden=4, num_layers=1)
    opt = Adam(model.parameters())
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, opt)
    other = build_model("gcn", 6, 2, rng, hidden=4, num_layers=1)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path, other, Adam(other.parameters()))
