"""Warp schedulers: LRR (baseline), GTO, two-level, and the paper's OWF.

Each SM has ``num_schedulers`` scheduler partitions (Table I: two);
warps are statically partitioned by ``dynamic_id % num_schedulers``,
mirroring GPGPU-Sim.  Every policy is defined over the partition's
READY warps in ``dynamic_id`` (launch age) order:

* **LRR** (loose round robin, the paper's baseline) resumes just after
  the last issued warp, wrapping;
* **GTO** (greedy-then-oldest) keeps issuing from the last warp until it
  stalls, then takes the oldest;
* **two-level** (Narasiman et al., MICRO-44) round-robins inside the
  active *fetch group* of ``fetch_group_size`` consecutive ids and moves
  to the oldest other group only when the active one cannot issue;
* **OWF** (Owner Warp First, Sec. IV-A) ranks shared owner (0) >
  unshared (1) > shared non-owner (2) and is greedy-then-oldest within
  a class, so with no shared blocks it is exactly GTO.

The fast core evaluates these inline in ``SMCore.step``; the reference
core keeps the original sorted-ready-list ``pick`` implementations
(``repro.sim.refcore``), and the differential golden suite pins the two
pick-for-pick.  This module holds only the data both share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["SCHEDULERS", "SchedulerPartition", "policy_id"]

#: Scheduling policy name → figure-legend tag (``Unshared-LRR``, ...).
#: The order fixes the policy id the cores branch on (:func:`policy_id`).
SCHEDULERS: dict[str, str] = {
    "lrr": "LRR",
    "gto": "GTO",
    "two_level": "2LV",
    "owf": "OWF",
}


def policy_id(name: str) -> int:
    """Position of ``name`` in :data:`SCHEDULERS`; ValueError if unknown."""
    try:
        return tuple(SCHEDULERS).index(name)
    except ValueError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None


class SchedulerPartition:
    """One scheduler's static warp partition and its policy state."""

    __slots__ = ("sched_id", "warps", "n_ready", "last", "_after",
                 "_active_group", "group_size")

    def __init__(self, sched_id: int, group_size: int) -> None:
        self.sched_id = sched_id
        #: Every resident warp of the partition, ascending dynamic_id.
        self.warps: list["WarpContext"] = []
        #: Number of READY warps in the partition.
        self.n_ready = 0
        #: Last issued warp (GTO/OWF stickiness).
        self.last: Optional["WarpContext"] = None
        #: Dynamic id of the last issued warp (LRR / two-level rotation).
        self._after = -1
        #: Fetch group the two-level policy is issuing from.
        self._active_group = 0
        self.group_size = group_size
