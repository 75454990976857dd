"""The outside-in tracer: self-time arithmetic, counters, install/restore."""

import sys
import types

import pytest

from conftest import ROOT
from tracer import Target, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tr.call("leaf", leaf, (2.0,), {})
        clock.now += 0.5
        tr.call("leaf", leaf, (3.0,), {})

    def outer():
        clock.now += 4.0
        tr.call("middle", middle, (), {})
        clock.now += 0.25

    tr.op = 7
    tr.call("outer", outer, (), {})
    spans = {(s.name, s.duration): s for s in tr.spans}
    outer_s = spans[("outer", 10.75)]
    middle_s = spans[("middle", 6.5)]
    assert outer_s.self_s == pytest.approx(4.25)
    assert middle_s.self_s == pytest.approx(1.5)
    assert spans[("leaf", 2.0)].self_s == pytest.approx(2.0)
    assert spans[("leaf", 3.0)].parent == middle_s.id
    assert middle_s.parent == outer_s.id and outer_s.parent is None
    assert {s.op for s in tr.spans} == {7}
    assert sum(s.self_s for s in tr.spans) == pytest.approx(outer_s.duration)


def test_counter_cost_is_not_charged_to_the_parent():
    clock = FakeClock()
    tr = Tracer(clock)

    def slow_counters(args, kwargs, result):
        clock.now += 100.0  # the cost of computing the counters
        return {"n": result}

    def child():
        clock.now += 1.0
        return 3

    def parent():
        clock.now += 2.0
        return tr.call("child", child, (), {}, slow_counters)

    tr.call("parent", parent, (), {})
    by_name = {s.name: s for s in tr.spans}
    assert by_name["child"].counters == {"n": 3}
    assert by_name["child"].self_s == pytest.approx(1.0)
    assert by_name["parent"].self_s == pytest.approx(2.0)


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.call("boom", boom, (), {})
    assert [s.name for s in tr.spans] == ["boom"]
    assert tr.call("ok", lambda: 1, (), {}) == 1
    assert tr.spans[-1].parent is None


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def helper(x):\n"
         "    return x + 1\n"
         "class Thing:\n"
         "    def method(self):\n"
         "        return helper(1)\n", vars(core))
    helper, Thing = core.helper, core.Thing
    user.helper = helper  # a ``from .core import helper`` alias
    pkg.helper = helper  # a re-export
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield mods, helper, Thing.__dict__["method"]
    for name in mods:
        del sys.modules[name]


def test_install_wraps_every_binding_and_restore_puts_originals_back(fake_package):
    mods, helper, method = fake_package
    tr = Tracer()
    tr.install([Target("core.helper", "fakepkg.core", "helper"),
                Target("core.method", "fakepkg.core", "Thing.method"),
                Target("core.gone", "fakepkg.core", "nothing")], package="fakepkg")
    assert tr.missing == ["fakepkg.core.nothing"]
    for mod in mods.values():
        assert mod.helper is not helper
    assert mods["fakepkg.user"].helper(1) == 2
    assert mods["fakepkg.core"].Thing().method() == 2
    assert [s.name for s in tr.spans] == ["core.helper", "core.helper", "core.method"]
    assert tr.spans[1].parent == tr.spans[2].id  # the call inside method()
    assert tr.restore(package="fakepkg") == []
    for mod in mods.values():
        assert mod.helper is helper
    assert mods["fakepkg.core"].Thing.__dict__["method"] is method


def test_restore_reports_a_binding_left_wrapped(fake_package):
    mods, helper, _ = fake_package
    tr = Tracer()
    tr.install([Target("core.helper", "fakepkg.core", "helper")], package="fakepkg")
    stray = mods["fakepkg.user"].helper
    assert tr.restore(package="fakepkg") == []
    mods["fakepkg.user"].other = stray  # a wrapper copied somewhere unrestored
    assert tr.restore(package="fakepkg") == ["fakepkg.user.other"]


def test_branecalc_targets_install_and_restore():
    import branecalc
    from branecalc import cli
    from layers import TARGETS, pass_metrics
    from run import run_op

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("branecalc")}
    tr = Tracer()
    tr.install(TARGETS)
    assert tr.missing == []
    assert branecalc.main is cli.main  # the re-export is wrapped too
    rc, _ = run_op(cli.main, ["brane-product", str(ROOT / "models/s4.model"),
                              "--max-degree", "6"])
    assert rc == 0
    assert tr.restore() == []
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("branecalc")}
    assert all(after[n][k] is v for n, d in before.items() for k, v in d.items())
    assert "__branebench_traced__" not in vars(branecalc.gca_core.Element.__mul__)
    m = pass_metrics(tr.spans, wall_s=sum(s.duration for s in tr.spans if s.parent is None))
    assert m["cli.main.calls"] == 1 and m["brane_ops.pipeline.calls"] == 1
    assert m["shriek.delta.calls"] == 1 and m["shriek.delta.equations"] > 0
    assert m["linalg.rref.calls"] > 0 and 0 < m["linalg.rref.density"] <= 1
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_speed_probe_samples_inside_a_long_call_and_restores_the_handler():
    import signal
    import time

    from run import PROBE_PERIOD_S, SpeedProbe

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4.5 * PROBE_PERIOD_S:
            pass  # one long call, as a branecalc operation would be
    assert len(probe.samples) >= 3 and all(s > 0 for s in probe.samples)
    assert 0 < probe.spent < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
