"""The README's code snippets, executed.

Documentation that drifts from the code is worse than none; these tests run
the README quickstart claims verbatim so the docs stay honest.
"""

import textwrap

import pytest
from repro.replication import SystemSpec

from tests.fresh_python import run_python


def test_headline_three_liner():
    from repro import ModelParameters, eager

    p = ModelParameters(db_size=10_000, nodes=1, tps=10, actions=5,
                        action_time=0.01)
    ratio = (
        eager.total_deadlock_rate(p.with_(nodes=10))
        / eager.total_deadlock_rate(p)
    )
    assert ratio == pytest.approx(1000.0)


def test_checkbook_quickstart_snippet():
    from repro import TwoTierSystem, IncrementOp, NonNegativeOutputs

    system = TwoTierSystem(
        SystemSpec(num_nodes=3, db_size=1, initial_value=1000),
        num_base=1,
    )
    you, spouse = system.mobile(1), system.mobile(2)
    system.disconnect_mobile(1)
    system.disconnect_mobile(2)

    you.submit_tentative([IncrementOp(0, -800)], NonNegativeOutputs())
    spouse.submit_tentative([IncrementOp(0, -700)], NonNegativeOutputs())
    system.run()

    system.reconnect_mobile(1)
    system.run()
    assert system.nodes[0].store.value(0) == 200  # check clears
    system.reconnect_mobile(2)
    system.run()
    # the second check bounced (would be -500)
    assert system.nodes[0].store.value(0) == 200
    assert system.metrics.tentative_rejected == 1
    assert system.base_divergence() == 0  # no system delusion, ever


def test_package_init_quickstart_snippet():
    from repro import (
        IncrementOp,
        ModelParameters,
        NonNegativeOutputs,
        TwoTierSystem,
        eager,
    )

    p = ModelParameters(db_size=10_000, nodes=1, tps=10, actions=5,
                        action_time=0.01)
    assert eager.total_deadlock_rate(p.with_(nodes=10)) / (
        eager.total_deadlock_rate(p)
    ) == pytest.approx(1000.0)

    system = TwoTierSystem(SystemSpec(num_nodes=3, db_size=100), num_base=2)
    mobile = system.mobile(2)
    system.disconnect_mobile(2)
    mobile.submit_tentative([IncrementOp(7, -50)], NonNegativeOutputs())
    system.run()
    system.reconnect_mobile(2)
    system.run()
    assert system.metrics.tentative_rejected == 1  # initial value is 0


def test_all_public_names_importable():
    """Every package that keeps an ``__all__``, in a fresh interpreter:
    each name resolves through ``getattr`` and is listed by ``dir()``, so a
    typo in a lazy export table fails here and not at its first use."""
    checked = run_python(textwrap.dedent("""
        import importlib
        import pkgutil

        import repro

        names = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        for name in names:
            package = importlib.import_module(name)
            if "__all__" not in vars(package):
                continue
            listed = dir(package)
            for attr in package.__all__:
                assert attr in listed, f"{name}.{attr} missing from dir()"
                getattr(package, attr)
            print(name)
    """)).split()
    assert {"repro", "repro.analytic", "repro.faults", "repro.harness",
            "repro.obs", "repro.placement", "repro.replication",
            "repro.service"} <= set(checked)
