"""The travelling-salesman scenario (paper section 7).

"If the price of an item has increased by a large amount, if the item is out
of stock, or if aisle seats are no longer available, then the salesman's
price or delivery quote must be reconciled with the customer."

The database splits into three regions: item prices, item stock levels, and
seat assignments.  A disconnected salesman quotes prices (tentative reads +
order writes), reserves stock (commutative decrements, acceptance: stock not
negative), and books seats (acceptance: the assigned seat is an aisle seat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.acceptance import (
    NonNegativeOutputs,
    OnOutputs,
    PredicateCriterion,
    PriceNotAbove,
    combine,
)
from repro.core.protocol import TwoTierSystem
from repro.exceptions import ConfigurationError
from repro.replication.base import SystemSpec
from repro.txn.ops import IncrementOp, WriteOp

AISLE_LETTERS = ("C", "D")


def is_aisle(seat: object) -> bool:
    """Seat values are ``(row, letter)`` tuples; C and D are aisle seats.

    Unassigned seats (the initial integer 0) are not aisle seats.
    """
    return (
        isinstance(seat, tuple)
        and len(seat) == 3
        and seat[1] in AISLE_LETTERS
    )


def aisle_seats_only() -> PredicateCriterion:
    """"The seats must be aisle seats." """
    return PredicateCriterion(
        is_aisle, name="aisle-seats", describe="seat is not an aisle seat"
    )


@dataclass
class SalesScenario:
    """A home office (base) plus travelling salesmen (mobiles).

    Object layout (``db_size = 3 * items + seats``):

    * ``[0, items)`` — unit prices,
    * ``[items, 2*items)`` — stock levels,
    * ``[2*items, 3*items)`` — order tallies (commutative counters),
    * ``[3*items, 3*items + seats)`` — seat assignments.
    """

    items: int = 20
    seats: int = 12
    salesmen: int = 2
    initial_price: float = 100.0
    initial_stock: int = 50
    seed: int = 0
    system: TwoTierSystem = field(init=False)

    def __post_init__(self) -> None:
        if self.items <= 0 or self.seats <= 0 or self.salesmen <= 0:
            raise ConfigurationError("items, seats and salesmen must be positive")
        self.system = TwoTierSystem(
            SystemSpec(
                num_nodes=1 + self.salesmen,
                db_size=3 * self.items + self.seats,
                action_time=0.001,
                seed=self.seed,
            ),
            num_base=1,
        )
        bank = self.system.nodes[0]
        for node in self.system.nodes:
            for item in range(self.items):
                node.store.write(
                    self.price_oid(item), self.initial_price, node.store.timestamp(0)
                )
                node.store.write(
                    self.stock_oid(item), self.initial_stock, node.store.timestamp(0)
                )
        del bank

    # object-id helpers ---------------------------------------------------- #

    def price_oid(self, item: int) -> int:
        return item

    def stock_oid(self, item: int) -> int:
        return self.items + item

    def orders_oid(self, item: int) -> int:
        return 2 * self.items + item

    def seat_oid(self, seat: int) -> int:
        return 3 * self.items + seat

    def salesman_node(self, index: int) -> int:
        return 1 + index

    # scenario actions ----------------------------------------------------- #

    def quote_and_order(self, salesman: int, item: int, quantity: int):
        """Tentatively sell ``quantity`` of ``item`` at the cached price.

        Acceptance: the base-time price must not exceed the quote, and stock
        must not go negative.
        """
        if quantity <= 0:
            raise ConfigurationError("quantity must be positive")
        mobile = self.system.mobile(self.salesman_node(salesman))
        ops = [
            # "re-quote" the price: a zero increment surfaces the *current*
            # committed price as this op's output without changing it — at
            # base-execution time the output is the head office's price,
            # tentatively it is the salesman's cached quote
            IncrementOp(self.price_oid(item), 0),
            IncrementOp(self.stock_oid(item), -quantity),
            IncrementOp(self.orders_oid(item), quantity),
        ]
        criterion = combine(
            OnOutputs(PriceNotAbove(), [0]),       # the quote holds
            OnOutputs(NonNegativeOutputs(), [1]),  # stock not oversold
        )
        return mobile.submit_tentative(
            ops, criterion, label=f"order[{salesman}] item={item} qty={quantity}"
        )

    def book_seat(self, salesman: int, seat: int, row: int, letter: str):
        """Tentatively assign a seat to a customer; acceptance demands an
        aisle seat."""
        mobile = self.system.mobile(self.salesman_node(salesman))
        ops = [WriteOp(self.seat_oid(seat), (row, letter, "customer"))]
        return mobile.submit_tentative(
            ops, aisle_seats_only(), label=f"seat[{salesman}] {row}{letter}"
        )

    def reprice_at_base(self, item: int, new_price: float):
        """Head office changes a price (a base transaction at node 0)."""
        return self.system.submit(
            0, [WriteOp(self.price_oid(item), new_price)], label="reprice"
        )

    def restock_at_base(self, item: int, amount: int):
        return self.system.submit(
            0, [IncrementOp(self.stock_oid(item), amount)], label="restock"
        )

    # lifecycle ------------------------------------------------------------ #

    def send_salesmen_out(self) -> None:
        for index in range(self.salesmen):
            self.system.disconnect_mobile(self.salesman_node(index))

    def salesmen_return(self) -> List:
        processes = [
            self.system.reconnect_mobile(self.salesman_node(index))
            for index in range(self.salesmen)
        ]
        self.system.run()
        return processes

    # inspection ------------------------------------------------------------ #

    def stock_at_base(self, item: int) -> float:
        return self.system.nodes[0].store.value(self.stock_oid(item))

    def orders_at_base(self, item: int) -> float:
        return self.system.nodes[0].store.value(self.orders_oid(item))

    def rejections(self, salesman: int) -> List[Tuple[str, str]]:
        mobile = self.system.mobile(self.salesman_node(salesman))
        return [(t.label, t.diagnostic) for t in mobile.rejected_transactions]
