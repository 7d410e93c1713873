"""What an import loads, read from ``sys.modules`` in a fresh interpreter.

The package exports are lazy tables and each CLI verb imports its own
layers, so a served start compiles the gateway's layers and nothing else:
no simulator harness, no analytic model beyond the preset table, no
campaign pool and no strategy the gateway does not run.  Neither a
simulation nor a served start loads OpenSSL: stream seeds come from
``_blake2``, not ``hashlib``.
"""

import textwrap

from tests.fresh_python import run_python

#: modules ``repro serve`` has no use for
NOT_SERVED = (
    "repro.harness.experiment",
    "repro.harness.campaign",
    "repro.analytic.markov",
    "repro.analytic.markov_strategies",
    "repro.service.loadtest",
    "repro.obs.report",
    "repro.obs.chrome_trace",
    "repro.replication.eager_group",
    "repro.replication.eager_master",
    "repro.replication.lazy_group",
    "repro.replication.deferred_update",
    "repro.replication.scar",
    "multiprocessing",
)


def loaded_after(*modules: str) -> set:
    """``sys.modules`` of a fresh interpreter that imported ``modules``."""
    return set(run_python(
        f"import sys\nimport {', '.join(modules)}\n"
        "print('\\n'.join(sys.modules))"
    ).split())


def test_a_served_start_loads_only_the_gateway_layers():
    loaded = loaded_after("repro.cli", "repro.service.gateway")
    assert sorted(loaded.intersection(NOT_SERVED)) == []
    ours = sorted(name for name in loaded
                  if name == "repro" or name.startswith("repro."))
    assert len(ours) <= 70, ours


def test_the_experiment_harness_loads_no_campaign_and_no_markov_chain():
    loaded = loaded_after("repro.harness.experiment")
    assert "repro.harness.campaign" not in loaded
    assert sorted(name for name in loaded
                  if name.startswith("repro.analytic.markov")) == []


def test_a_simulation_and_a_served_start_load_no_openssl():
    # pytest's own plugins may import hashlib, so only a fresh interpreter
    # shows whether the package maps OpenSSL's libcrypto through _hashlib
    loaded = set(run_python(textwrap.dedent("""
        import sys
        from repro.analytic.parameters import ModelParameters
        from repro.harness.experiment import ExperimentConfig, run_experiment
        from repro.placement import Placement
        params = ModelParameters(db_size=100, nodes=3, tps=10, actions=4,
                                 action_time=0.002, message_delay=0.001)
        run_experiment(ExperimentConfig("eager-group", params, duration=1.0))
        run_experiment(ExperimentConfig(
            "deferred-update", params, duration=1.0,
            placement=Placement.from_spec("hash:k=3"),
        ))
        import repro.cli, repro.service.gateway
        print("\\n".join(sys.modules))
    """)).split())
    assert "repro.replication.deferred_update" in loaded
    assert "_hashlib" not in loaded
