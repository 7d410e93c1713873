"""What an import loads, read from ``sys.modules`` in a fresh interpreter.

The package exports are lazy tables and each CLI verb imports its own
layers, so a served start compiles the gateway's layers and nothing else:
no simulator harness, no analytic model beyond the preset table, no
campaign pool and no strategy the gateway does not run.
"""

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
