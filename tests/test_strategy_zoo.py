"""Strategy-zoo smoke: the registry is the single source of truth, and
every member — the certification newcomers in particular — survives a
faulted run with a green oracle.

`test_faults_chaos.py` grills the 1996 strategies; this file extends the
same contract to everything `STRATEGY_CLASSES` registers, so adding a
strategy without wiring it into the CLI, the reference table, and the chaos
oracle fails here rather than in a user's sweep.
"""

import pytest

from repro.analytic import ModelParameters
from repro.analytic.reference import REFERENCE, danger_curves
from repro.cli import main
from repro.core import TwoTierSystem
from repro.faults import FaultPlan
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES, STRATEGY_CLASSES
from repro.replication import SystemSpec
from repro.replication.base import MasterOwnership
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.replication.pipeline import PHASE_ORDER
from repro.replication.propagation import Eager, Lazy

NEW_STRATEGIES = ("deferred-update", "scar")

PARAMS = ModelParameters(
    db_size=50, nodes=3, tps=5, actions=3, action_time=0.005,
    message_delay=0.002,
)
DURATION = 20.0


def run(strategy, spec, *, seed=1, **overrides):
    plan = FaultPlan.from_spec(
        spec, num_nodes=PARAMS.nodes, duration=DURATION
    )
    config = ExperimentConfig(
        strategy=strategy,
        params=PARAMS,
        duration=DURATION,
        seed=seed,
        faults=plan,
        **overrides,
    )
    return run_experiment(config)


# --------------------------------------------------------------------- #
# registry is the single source of truth
# --------------------------------------------------------------------- #


def test_every_registered_strategy_names_itself():
    for name, cls in STRATEGY_CLASSES.items():
        assert cls.name == name


def test_every_registered_strategy_declares_a_pipeline():
    for name, cls in STRATEGY_CLASSES.items():
        phases = cls.PHASES
        assert phases, f"{name} declares no PHASES"
        assert set(phases) <= set(PHASE_ORDER)
        # declared in canonical lifecycle order
        indices = [PHASE_ORDER.index(p) for p in phases]
        assert indices == sorted(indices), f"{name} phases out of order"


def test_every_declared_phase_resolves_and_handlers_are_per_class():
    """Two fixed points later deletion passes must not break silently: the
    driver looks phases up as ``_phase_<name>``, and the layer ladder wraps
    ``handle_message`` on the class that defines it."""
    for name, cls in STRATEGY_CLASSES.items():
        for phase in cls.PHASES:
            assert callable(getattr(cls, f"_phase_{phase}", None)), (
                f"{name} declares phase {phase!r} but has no _phase_{phase}"
            )
        ships_messages = {"certify", "propagate"} & set(cls.PHASES)
        if ships_messages:
            assert "handle_message" in vars(cls), (
                f"{name} ships messages but inherits handle_message"
            )


#: Table 1: each cell is its row's mixin × its column
TABLE_1 = (
    (EagerGroupSystem, Eager, False),
    (EagerMasterSystem, Eager, True),
    (LazyGroupSystem, Lazy, False),
    (LazyMasterSystem, Lazy, True),
)


@pytest.mark.parametrize(
    "cls, row, master", TABLE_1, ids=[cls.name for cls, _, _ in TABLE_1]
)
def test_table_1_cells_are_declarations_not_phase_bodies(cls, row, master):
    """The cut must not fork back: a Table-1 class takes its execute body
    from its row mixin and its ownership from its column."""
    assert issubclass(cls, row)
    assert not issubclass(cls, Lazy if row is Eager else Eager)
    assert issubclass(cls, MasterOwnership) is master
    assert "_phase_execute" not in vars(cls)
    if cls is EagerMasterSystem:
        assert "_phase_admission" not in vars(cls)
        assert "__init__" not in vars(cls)
    if cls is LazyGroupSystem:
        assert "_phase_propagate" not in vars(cls)


def test_two_tier_reexecutes_through_lazy_masters_execute():
    assert "_phase_execute" not in vars(TwoTierSystem)


@pytest.mark.parametrize("name", STRATEGIES)
def test_no_strategy_takes_an_ownership_map(name):
    """A master cell's owner is the placement's master; there is no
    second map to pass in."""
    with pytest.raises(TypeError):
        STRATEGY_CLASSES[name](
            SystemSpec(num_nodes=2, db_size=4), ownership={0: 0}
        )


@pytest.mark.parametrize("model, k", [
    ("closed-form", None), ("markov", None),
    ("closed-form", 3), ("markov", 3),
])
def test_reference_table_covers_the_registry(capsys, model, k):
    """One row per strategy, and ``repro danger`` prints exactly the
    table's curves: no curve list of its own beside the table."""
    assert tuple(REFERENCE) == STRATEGIES
    argv = ["danger", "--model", model]
    if k is not None:
        argv += ["--placement", f"hash:k={k}"]
    assert main(argv) == 0
    printed = [line[:-len(" vs nodes")]
               for line in capsys.readouterr().out.splitlines()
               if line.endswith(" vs nodes")]
    assert printed == [label for label, _ in danger_curves(model, k)]


def test_cli_choices_derive_from_the_registry():
    import argparse

    from repro.cli import build_parser

    def strategy_choices(p):
        found = []
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    found.extend(strategy_choices(sub))
            elif action.dest == "strategy" and action.choices:
                found.append(tuple(sorted(set(action.choices) - {"all"})))
        return found

    per_command = strategy_choices(build_parser())
    assert per_command, "no --strategy options found on the CLI"
    for choices in per_command:
        assert choices == STRATEGIES


def test_comparison_default_derives_from_the_registry(capsys):
    assert main(["compare", "--nodes", "2", "--db-size", "50", "--tps", "2",
                 "--actions", "2", "--action-time", "0.001",
                 "--duration", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split("|")[0].strip() for row in rows] == list(STRATEGIES)


# --------------------------------------------------------------------- #
# chaos oracle over the newcomers
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("strategy", NEW_STRATEGIES)
def test_lossless_link_faults_leave_certification_strategies_convergent(strategy):
    result = run(strategy, "dup=0.3,reorder=0.3,jitter=0.02")
    assert result.divergence == 0
    assert result.extra["oracle_ok"] is True
    assert result.extra["oracle_expected_convergence"] is True


@pytest.mark.parametrize("strategy", NEW_STRATEGIES)
def test_healing_partition_converges_after_flush(strategy):
    result = run(strategy, "partition=3")
    assert result.divergence == 0
    assert result.extra["oracle_ok"] is True


@pytest.mark.parametrize("strategy", NEW_STRATEGIES)
def test_crash_with_recovery_ends_consistent(strategy):
    result = run(strategy, "crash=4")
    assert result.divergence == 0
    assert result.extra["oracle_ok"] is True
    assert not result.system.crashed


@pytest.mark.parametrize("strategy", NEW_STRATEGIES)
def test_drops_excuse_divergence_but_not_accounting(strategy):
    result = run(strategy, "drop=0.1")
    assert result.extra["oracle_ok"] is True
    assert result.extra["oracle_expected_convergence"] is False


@pytest.mark.parametrize("strategy", NEW_STRATEGIES)
def test_certification_work_shows_up_under_contention(strategy):
    # fault-free, contended: certification must actually adjudicate
    config = ExperimentConfig(
        strategy=strategy,
        params=ModelParameters(
            db_size=20, nodes=3, tps=20, actions=4, action_time=0.005,
            message_delay=0.002,
        ),
        duration=DURATION,
        seed=1,
    )
    result = run_experiment(config)
    assert result.extra["oracle_ok"] is True
    assert result.metrics.commits > 0
    extras = result.metrics.as_dict()
    assert extras.get("cert_aborts", 0) > 0, (
        f"{strategy} never cert-aborted under heavy contention"
    )
