"""Tests for the time-dilation correction."""

import pytest

from repro.analytic import ModelParameters, eager
from repro.analytic import dilation
from repro.exceptions import ConfigurationError


@pytest.fixture()
def p():
    # the calibrated eager simulation regime
    return ModelParameters(db_size=80, nodes=1, tps=4, actions=3,
                           action_time=0.01)


class TestUtilization:
    def test_utilization_linear_in_nodes(self, p):
        assert dilation.node_utilization(p.with_(nodes=2)) == pytest.approx(0.24)
        assert dilation.node_utilization(p.with_(nodes=6)) == pytest.approx(0.72)

    def test_saturation_point(self, p):
        # rho = 0.12 N -> saturation at N = 1/0.12
        assert dilation.saturation_nodes(p) == pytest.approx(1 / 0.12)
        at = dilation.node_utilization(
            p.with_(nodes=8)
        )
        assert at < 1.0
        assert dilation.node_utilization(p.with_(nodes=9)) > 1.0

    def test_saturation_requires_workload(self, p):
        with pytest.raises(ConfigurationError):
            dilation.saturation_nodes(p.with_(tps=0))


class TestDilatedTime:
    def test_dilation_stretches_actions(self, p):
        q = p.with_(nodes=6)  # rho = 0.72
        assert dilation.dilated_action_time(q) == pytest.approx(0.01 / 0.28)

    def test_infinite_at_saturation(self, p):
        q = p.with_(nodes=10)  # rho = 1.2
        assert dilation.dilated_action_time(q) == float("inf")
        assert dilation.dilated_parameters(q) is None
        assert dilation.dilated_eager_deadlock_rate(q) == float("inf")

    def test_dilated_parameters_substitution(self, p):
        q = p.with_(nodes=4)
        stretched = dilation.dilated_parameters(q)
        assert stretched.action_time > q.action_time
        assert stretched.nodes == q.nodes


class TestDilatedRates:
    def test_always_above_the_paper_curve(self, p):
        for nodes in [2, 3, 4, 6, 8]:
            q = p.with_(nodes=nodes)
            assert dilation.node_utilization(q) < 1.0
            assert dilation.dilated_eager_deadlock_rate(q) > (
                eager.total_deadlock_rate(q)
            )

    def test_equals_equation_12_with_substituted_action_time(self, p):
        q = p.with_(nodes=4)
        stretched = dilation.dilated_parameters(q)
        assert dilation.dilated_eager_deadlock_rate(q) == pytest.approx(
            eager.total_deadlock_rate(stretched)
        )

    def test_negligible_in_the_dilute_open_regime(self):
        """'In a scaleable server system, this time-dilation is a
        second-order effect': at tiny utilization the correction vanishes."""
        p = ModelParameters(db_size=10_000, nodes=2, tps=1, actions=2,
                            action_time=0.001)
        ratio = dilation.dilated_eager_deadlock_rate(p) / (
            eager.total_deadlock_rate(p)
        )
        assert ratio == pytest.approx(1.0, abs=0.01)


class TestEffectiveExponent:
    def test_paper_curve_is_exactly_cubic(self, p):
        exponent = dilation.effective_exponent(
            eager.total_deadlock_rate, p, 2, 6
        )
        assert exponent == pytest.approx(3.0)

    def test_dilated_curve_is_super_cubic(self, p):
        """The closed-system prediction sits above 3 — matching what the
        simulator measures (~3.3-3.9 in this regime)."""
        exponent = dilation.effective_exponent(
            dilation.dilated_eager_deadlock_rate, p, 2, 6
        )
        assert 3.3 < exponent < 4.5

    def test_exponent_grows_toward_saturation(self, p):
        near = dilation.effective_exponent(
            dilation.dilated_eager_deadlock_rate, p, 2, 8
        )
        far = dilation.effective_exponent(
            dilation.dilated_eager_deadlock_rate, p, 2, 4
        )
        assert near > far

    def test_undefined_past_saturation(self, p):
        with pytest.raises(ConfigurationError):
            dilation.effective_exponent(
                dilation.dilated_eager_deadlock_rate, p, 2, 12
            )
