"""The tracer observes without perturbing.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from time import perf_counter

import pytest
from harness import (
    build,
    build_engine,
    generate,
    request_stream,
    run_epoch,
    same_epoch,
    serve_once,
)
from tracer import BOUNDARIES, Boundary, Tracer, _resolve
from workloads import WORKLOADS


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


@pytest.fixture
def fake_module():
    """A module whose functions call each other through module globals."""
    mod = types.ModuleType("perfbench_fake_layers")

    def outer():
        _spin(0.01)
        mod.inner()
        mod.inner()

    def inner():
        _spin(0.005)

    def recurse(n):
        _spin(0.002)
        if n:
            mod.recurse(n - 1)

    mod.outer, mod.inner, mod.recurse = outer, inner, recurse
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


FAKE = tuple(
    Boundary(f"fake.{fn}", "train_samples_per_s", ("recsys",),
             (("perfbench_fake_layers", fn),))
    for fn in ("outer", "inner", "recurse")
)


def _attributes():
    out = []
    for b in BOUNDARIES:
        for module, path in b.targets:
            owner, attr = _resolve(module, path)
            own = vars(owner)
            out.append((owner, attr, attr in own, own.get(attr)))
    return out


def test_install_restores_every_attribute():
    before = _attributes()
    tracer = Tracer()
    with tracer.install():
        for owner, attr, _, original in before:
            assert vars(owner)[attr] is not original
    assert _attributes() == before
    # also when the traced block raises
    with pytest.raises(RuntimeError), tracer.install():
        raise RuntimeError("boom")
    after = _attributes()
    assert [a[3] for a in after] == [b[3] for b in before]
    assert [a[2] for a in after] == [b[2] for b in before]


def test_inherited_attribute_is_deleted_not_shadowed():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        pass

    mod = types.ModuleType("perfbench_fake_classes")
    mod.Child = Child
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer((Boundary("x.step", "train_samples_per_s",
                                  ("recsys",),
                                  ((mod.__name__, "Child.step"),)),))
        with tracer.install():
            assert "step" in vars(Child)
            assert Child().step() == 1
        assert "step" not in vars(Child)
        assert tracer.stats["x.step"][0] == 1
    finally:
        del sys.modules[mod.__name__]


def test_self_time_excludes_children(fake_module):
    tracer = Tracer(FAKE)
    with tracer.install():
        t0 = perf_counter()
        fake_module.outer()
        wall = perf_counter() - t0
    (oc, outer_ns), (ic, inner_ns) = (tracer.stats["fake.outer"],
                                      tracer.stats["fake.inner"])
    assert (oc, ic) == (1, 2)
    assert 0.009 <= outer_ns / 1e9 < 0.0195
    assert 0.0095 <= inner_ns / 1e9
    assert (outer_ns + inner_ns) / 1e9 <= wall


def test_nested_same_boundary_counted_once(fake_module):
    tracer = Tracer(FAKE)
    with tracer.install():
        t0 = perf_counter()
        fake_module.recurse(4)
        wall = perf_counter() - t0
    calls, ns = tracer.stats["fake.recurse"]
    assert calls == 1
    assert 0.0095 <= ns / 1e9 <= wall


def _small(name: str):
    """The workload at a size a unit test can afford."""
    wl = WORKLOADS[name]
    if wl.linkpred:
        dataset = {"num_users": 300, "num_items": 120}
    else:
        dataset = {**wl.dataset, "num_nodes": 4000}
    trainer = {**wl.trainer, "batch_size": 64} if not wl.linkpred else dict(
        wl.trainer, batch_size=16, num_pairs=32
    )
    return dataclasses.replace(wl, dataset=dataset, trainer=trainer)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_bit_identical(name):
    wl = _small(name)
    ds_a, ds_b = generate(wl, 3), generate(wl, 3)
    a, b = build(wl, ds_a), build(wl, ds_b)
    tracer = Tracer()
    traced_wall = 0.0
    for max_iterations in (None, 2):
        ea, _, _, pa = run_epoch(a, max_iterations)
        with tracer.install():
            eb, host_b, _, pb = run_epoch(b, max_iterations)
        traced_wall += host_b
        assert same_epoch(ea, eb, pa, pb)
    requests = request_stream(wl, ds_a, a, seed=3)[:200]
    sa, _ = serve_once(build_engine(wl, ds_a, a), requests, analysis=True)
    eng_b = build_engine(wl, ds_b, b)
    with tracer.install():
        sb, serve_host = serve_once(eng_b, requests, analysis=True)
    assert (sa.latencies == sb.latencies).all()
    assert sa.report.latency == sb.report.latency
    assert sa.report.latency_blame == sb.report.latency_blame

    stats = tracer.stats
    assert all(calls >= 0 and ns >= 0 for calls, ns in stats.values())
    assert stats["train.loop"][0] == 2
    assert stats["serve.serve"][0] == 1
    assert stats["ops.sample_layer"][0] > 0
    assert stats["nn.backward"][0] > 0
    # everything timed lies inside the traced train_epoch and serve calls
    self_total = sum(ns for _, ns in stats.values()) / 1e9
    assert self_total <= traced_wall + serve_host
