"""Engine dispatch profiler: bucketing, wiring, and reporting."""

import pytest

from repro.analytic import ModelParameters
from repro.exceptions import ConfigurationError
from repro.harness import ExperimentConfig, build_system
from repro.obs.profiler import Profiler, bucket_name
from repro.sim.engine import Engine
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile


def test_bucket_name_strips_id_suffixes():
    engine = Engine()

    def job():
        yield engine.timeout(1.0)

    proc = engine.process(job(), name="handler-replica-update-123")
    assert bucket_name(engine._step, (proc, None, None)) == \
        "handler-replica-update"
    proc2 = engine.process(job(), name="workload@3")
    assert bucket_name(engine._step, (proc2, None, None)) == "workload"
    engine.run()


def test_bucket_name_plain_callback():
    def tick():
        pass

    assert "tick" in bucket_name(tick, ())


def test_install_uninstall():
    engine = Engine()
    profiler = Profiler().install(engine)
    assert engine.profiler is profiler
    with pytest.raises(ConfigurationError):
        Profiler().install(engine)
    profiler.uninstall()
    assert engine.profiler is None
    # idempotent
    profiler.uninstall()


def test_profile_of_a_real_run():
    config = ExperimentConfig(
        strategy="lazy-group",
        params=ModelParameters(
            db_size=60, nodes=3, tps=5, actions=3, action_time=0.002
        ),
        duration=10.0,
        seed=0,
    )
    system = build_system(config)
    profiler = Profiler().install(system.engine)
    profile = uniform_update_profile(actions=3, db_size=60)
    WorkloadGenerator(system, profile, tps=5).start(10.0)
    system.run()

    assert profiler.total_dispatches > 0
    assert profiler.total_seconds >= 0
    assert sum(b.calls for b in profiler.buckets.values()) == \
        profiler.total_dispatches
    # id-suffixed handler processes collapsed into stable buckets
    assert not any(name[-1].isdigit() and "-" in name
                   for name in profiler.buckets)

    table = profiler.table()
    assert "engine hot spots" in table
    assert "bucket" in table

    doc = profiler.to_dict()
    assert doc["total_dispatches"] == profiler.total_dispatches
    assert doc["buckets"][0]["seconds"] == max(
        b["seconds"] for b in doc["buckets"]
    )


def test_dispatch_times_even_when_callback_raises():
    profiler = Profiler()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        profiler.dispatch(boom, ())
    assert profiler.total_dispatches == 1
    assert "boom" in next(iter(profiler.buckets))


def test_hot_spots_ranking():
    slow_clock = iter(range(100)).__next__

    profiler = Profiler(clock=lambda: float(slow_clock()))
    profiler.dispatch(lambda: None, ())  # 1 tick
    assert profiler.hot_spots()[0].calls == 1
