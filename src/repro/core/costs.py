"""Cost model and cost ledger.

The paper's cost model (Section 2): storing one copy costs ``mu(s)`` per
unit time (``mu = 1`` everywhere in the main setting) and transferring the
object between any two servers costs ``lam``.  The ledger accumulates both
categories and supports per-server breakdowns, which the analysis module
uses to cross-check the Proposition 2 cost allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CostModel", "CostLedger"]


@dataclass(frozen=True)
class CostModel:
    """Parameters of the storage/transfer cost trade-off.

    Parameters
    ----------
    lam:
        Transfer cost ``lambda > 0`` between any two servers.
    n:
        Number of servers.
    storage_rates:
        Per-server storage cost rates ``mu(s_i)``.  Defaults to 1 for all
        servers (the paper's main setting).  Distinct rates are used only
        by the Wang et al. [17] baseline (Section 11).
    """

    lam: float
    n: int
    storage_rates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.lam < math.inf:
            raise ValueError(
                f"transfer cost lambda must be finite and > 0, got {self.lam}"
            )
        if self.n <= 0:
            raise ValueError(f"need at least one server, got n={self.n}")
        rates = self.storage_rates or tuple([1.0] * self.n)
        if len(rates) != self.n:
            raise ValueError(
                f"storage_rates must have length n={self.n}, got {len(rates)}"
            )
        if not all(0 < r < math.inf for r in rates):
            raise ValueError("storage rates must be finite and strictly positive")
        object.__setattr__(self, "storage_rates", tuple(float(r) for r in rates))

    @property
    def uniform_storage(self) -> bool:
        """True when all servers share the same storage rate."""
        return len(set(self.storage_rates)) == 1

    def rate(self, server: int) -> float:
        """Storage cost rate of ``server``."""
        return self.storage_rates[server]

    def ski_rental_horizon(self, server: int) -> float:
        """Break-even holding duration ``lam / mu(s)`` for ``server``.

        Holding a copy this long costs exactly one transfer; it is the
        natural copy lifetime used by prediction-free strategies.
        """
        return self.lam / self.storage_rates[server]


@dataclass
class CostLedger:
    """Accumulates storage and transfer costs during a simulation.

    All mutation happens through :meth:`add_storage` and
    :meth:`add_transfer` so that totals and per-server breakdowns can
    never diverge.
    """

    model: CostModel
    storage: float = 0.0
    transfer: float = 0.0
    n_transfers: int = 0
    storage_by_server: np.ndarray = field(default=None)  # type: ignore[assignment]
    transfers_by_dest: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.storage_by_server is None:
            self.storage_by_server = np.zeros(self.model.n)
        if self.transfers_by_dest is None:
            self.transfers_by_dest = np.zeros(self.model.n, dtype=np.int64)

    def add_storage(self, server: int, duration: float) -> float:
        """Charge storage for holding a copy at ``server`` for ``duration``.

        Returns the cost charged.  Negative durations are rejected; zero
        durations are allowed (no-ops) to simplify caller logic.
        """
        if duration < 0:
            raise ValueError(f"storage duration must be >= 0, got {duration}")
        cost = duration * self.model.rate(server)
        self.storage += cost
        self.storage_by_server[server] += cost
        return cost

    def add_transfer(self, dest: int) -> float:
        """Charge one object transfer terminating at ``dest``."""
        self.transfer += self.model.lam
        self.n_transfers += 1
        self.transfers_by_dest[dest] += 1
        return self.model.lam

    @property
    def total(self) -> float:
        """Total cost accumulated so far."""
        return self.storage + self.transfer

    def snapshot(self) -> dict[str, float]:
        """Immutable summary of the ledger, for reports and assertions."""
        return {
            "storage": self.storage,
            "transfer": self.transfer,
            "n_transfers": float(self.n_transfers),
            "total": self.total,
        }

    def check_consistency(self, atol: float = 1e-9) -> None:
        """Assert internal invariants (breakdowns sum to totals)."""
        if not np.isclose(self.storage_by_server.sum(), self.storage, atol=atol):
            raise AssertionError(
                "per-server storage breakdown diverged from total: "
                f"{self.storage_by_server.sum()} != {self.storage}"
            )
        if int(self.transfers_by_dest.sum()) != self.n_transfers:
            raise AssertionError(
                "per-destination transfer counts diverged from total"
            )
        if not np.isclose(
            self.n_transfers * self.model.lam, self.transfer, atol=atol
        ):
            raise AssertionError("transfer cost != n_transfers * lambda")
