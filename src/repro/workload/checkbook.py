"""The joint checking account — the paper's running example.

"Consider a joint checking account you share with your spouse. Suppose it
has $1,000 in it. This account is replicated in three places: your
checkbook, your spouse's checkbook, and the bank's ledger."

In two-tier terms: the bank is the base node mastering every account; each
spouse is a mobile node writing checks as tentative ``IncrementOp`` debits
guarded by the non-negative-balance acceptance criterion ("The bank does
that by rejecting updates that cause an overdraft").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.acceptance import NonNegativeOutputs
from repro.core.protocol import TwoTierSystem
from repro.exceptions import ConfigurationError
from repro.replication.base import SystemSpec
from repro.txn.ops import IncrementOp


@dataclass
class CheckbookScenario:
    """A bank with ``accounts`` accounts and ``holders`` mobile checkbooks.

    Attributes:
        system: the two-tier system (1 base node = the bank).
        initial_balance: opening balance of every account.
    """

    accounts: int = 10
    holders: int = 2
    initial_balance: float = 1000.0
    system: TwoTierSystem = field(init=False)

    def __post_init__(self) -> None:
        if self.accounts <= 0 or self.holders <= 0:
            raise ConfigurationError("accounts and holders must be positive")
        self.system = TwoTierSystem(
            SystemSpec(
                num_nodes=1 + self.holders,
                db_size=self.accounts,
                action_time=0.001,
                initial_value=self.initial_balance,
            ),
            num_base=1,
        )

    # ------------------------------------------------------------------ #
    # scenario actions
    # ------------------------------------------------------------------ #

    def holder_id(self, index: int) -> int:
        """Node id of the ``index``-th checkbook holder."""
        return 1 + index

    def write_check(self, holder: int, account: int, amount: float):
        """A tentative debit: returns the mobile-node process.

        The check "is in fact a tentative update being sent to the bank. The
        bank either honors the check or rejects it."
        """
        if amount <= 0:
            raise ConfigurationError("check amount must be positive")
        mobile = self.system.mobile(self.holder_id(holder))
        return mobile.submit_tentative(
            [IncrementOp(account, -amount)],
            NonNegativeOutputs(),
            label=f"check[{holder}]-{amount}",
        )

    def deposit(self, holder: int, account: int, amount: float):
        """A tentative credit (always acceptable)."""
        if amount <= 0:
            raise ConfigurationError("deposit amount must be positive")
        mobile = self.system.mobile(self.holder_id(holder))
        return mobile.submit_tentative(
            [IncrementOp(account, amount)],
            NonNegativeOutputs(),
            label=f"deposit[{holder}]+{amount}",
        )

    def disconnect_all(self) -> None:
        for index in range(self.holders):
            self.system.disconnect_mobile(self.holder_id(index))

    def clear_checks(self) -> List:
        """Everyone reconnects; the bank clears (or bounces) the checks."""
        processes = [
            self.system.reconnect_mobile(self.holder_id(index))
            for index in range(self.holders)
        ]
        self.system.run()
        return processes

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def bank_balance(self, account: int) -> float:
        """The master version at the bank."""
        return self.system.nodes[0].store.value(account)

    def book_balance(self, holder: int, account: int) -> float:
        """What the holder's checkbook shows (tentative view)."""
        return self.system.mobile(self.holder_id(holder)).read(account)

    def bounced_checks(self) -> Dict[int, List[str]]:
        """Rejected tentative transactions per holder, with diagnostics."""
        out: Dict[int, List[str]] = {}
        for index in range(self.holders):
            mobile = self.system.mobile(self.holder_id(index))
            rejected = [
                f"{t.label}: {t.diagnostic}" for t in mobile.rejected_transactions
            ]
            if rejected:
                out[index] = rejected
        return out
