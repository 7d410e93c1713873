"""Tests for equations 14-19 (lazy group, mobile, lazy master)."""

import pytest

from repro.analytic import ModelParameters, eager, lazy_group, lazy_master
from repro.analytic.scaling import amplification, fit_exponent, sweep
from repro.exceptions import ConfigurationError


@pytest.fixture()
def p():
    return ModelParameters(db_size=10_000, nodes=4, tps=10, actions=5,
                           action_time=0.01)


@pytest.fixture()
def mobile_p():
    return ModelParameters(db_size=10_000, nodes=4, tps=1, actions=5,
                           action_time=0.01, disconnect_time=8.0)


class TestEquation14:
    def test_reconciliation_rate_equals_eager_wait_rate(self, p):
        """'the system-wide lazy-group reconciliation rate follows the
        transaction wait rate equation (Equation 10)'"""
        for q in (p, p.with_(nodes=1)):
            assert lazy_group.reconciliation_rate(q) == pytest.approx(
                eager.total_wait_rate(q)
            )

    def test_cubic_in_nodes(self, p):
        r = sweep(lazy_group.reconciliation_rate, p, "nodes", [1, 2, 4, 8])
        assert fit_exponent(r.xs, r.ys) == pytest.approx(3.0)

    def test_thousandfold_at_ten_nodes(self, p):
        assert amplification(
            lazy_group.reconciliation_rate, p.with_(nodes=1), "nodes", 10
        ) == pytest.approx(1000.0)


class TestEquations15To17:
    def test_outbound_updates(self, mobile_p):
        # Disconnect * TPS * Actions = 8 * 1 * 5 = 40
        assert lazy_group.outbound_updates(mobile_p) == pytest.approx(40.0)

    def test_inbound_updates(self, mobile_p):
        # (N-1) * 40 = 120
        assert lazy_group.inbound_updates(mobile_p) == pytest.approx(120.0)

    def test_collision_probability_paper_approximation(self, mobile_p):
        # N * (D*TPS*A)^2 / DB = 4 * 1600 / 10000
        assert lazy_group.collision_probability(mobile_p) == pytest.approx(0.64)

    def test_collision_probability_exact_nodes(self, mobile_p):
        exact = lazy_group.collision_probability(mobile_p, exact_nodes=True)
        approx = lazy_group.collision_probability(mobile_p)
        assert exact == pytest.approx(approx * 3 / 4)

    def test_collision_grows_with_disconnect_time_squared(self, mobile_p):
        p2 = mobile_p.with_(disconnect_time=16.0)
        assert lazy_group.collision_probability(p2) == pytest.approx(
            4 * lazy_group.collision_probability(mobile_p)
        )


class TestEquation18:
    def test_rate_formula(self, mobile_p):
        # Disconnect * (TPS*A*N)^2 / DB = 8 * (1*5*4)^2 / 10000 = 0.32
        assert lazy_group.mobile_reconciliation_rate(mobile_p) == pytest.approx(
            0.32
        )

    def test_quadratic_in_nodes(self, mobile_p):
        r = sweep(
            lazy_group.mobile_reconciliation_rate, mobile_p, "nodes",
            [2, 4, 8, 16],
        )
        assert fit_exponent(r.xs, r.ys) == pytest.approx(2.0)

    def test_quadratic_in_tps(self, mobile_p):
        assert amplification(
            lazy_group.mobile_reconciliation_rate, mobile_p, "tps", 3
        ) == pytest.approx(9.0)

    def test_requires_disconnect_time(self, p):
        with pytest.raises(ConfigurationError):
            lazy_group.mobile_reconciliation_rate(p)

    def test_consistency_with_collision_probability(self, mobile_p):
        expected = (
            lazy_group.collision_probability(mobile_p)
            * mobile_p.nodes
            / mobile_p.disconnect_time
        )
        assert lazy_group.mobile_reconciliation_rate(mobile_p) == pytest.approx(
            expected
        )


class TestEquation19:
    def test_formula(self, p):
        expected = (10 * 4) ** 2 * 0.01 * 5**5 / (4 * 10_000**2)
        assert lazy_master.deadlock_rate(p) == pytest.approx(expected)

    def test_quadratic_in_nodes(self, p):
        r = sweep(lazy_master.deadlock_rate, p, "nodes", [1, 2, 4, 8, 16])
        assert fit_exponent(r.xs, r.ys) == pytest.approx(2.0)

    def test_single_node_equals_equation_5(self, p):
        from repro.analytic import single_node

        q = p.with_(nodes=1)
        assert lazy_master.deadlock_rate(q) == pytest.approx(
            single_node.node_deadlock_rate(q)
        )

    def test_better_than_eager_for_many_nodes(self, p):
        """Lazy master (N^2) must beat eager group (N^3) as N grows."""
        for nodes in [2, 5, 10, 50]:
            q = p.with_(nodes=nodes)
            assert lazy_master.deadlock_rate(q) < eager.total_deadlock_rate(q)

    def test_wait_rate_quadratic(self, p):
        r = sweep(lazy_master.wait_rate, p, "nodes", [1, 2, 4, 8])
        assert fit_exponent(r.xs, r.ys) == pytest.approx(2.0)

    def test_replica_update_transactions_nearly_quadratic(self, p):
        # TPS*N*(N-1)
        assert lazy_master.replica_update_transactions(p) == pytest.approx(
            10 * 4 * 3
        )
