"""Fixed-size lease planning for parallel exploration sweeps.

With ``jobs>1`` the executor does not partition the pending points up
front: :func:`plan_leases` cuts them into many small single-kernel
:class:`Lease` units, in query order, and idle workers pull the next
one on demand.  :meth:`~repro.explore.space.ExplorationSpace.expand`
is kernel-major, so consecutive leases share a kernel and a worker's
per-process :class:`~repro.explore.context.EvalContext` builds each
kernel's artifacts once, without any affinity logic.

Planning is deterministic and shapes dispatch only: records are keyed
by point index, so lease composition never reaches the assembled
ResultSet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ReproError

__all__ = ["Lease", "plan_leases"]

T = TypeVar("T")

#: Hard ceiling on points per lease: even a tiny grid on one worker
#: never claims more than this many points at once.
LEASE_MAX_POINTS = 8


@dataclass(frozen=True)
class Lease:
    """One pull unit of the dispatcher: a short run of one kernel's
    points, claimed by one worker as one batch (one IPC round trip).

    ``key`` is the kernel identity the lease's points share.
    """

    key: object
    items: tuple


def plan_leases(
    items: Sequence[T], jobs: int, key: Callable[[T], object]
) -> "list[Lease]":
    """Cut ``items`` into single-kernel leases of fixed size, in order.

    Every lease holds ``min(8, ceil(n / (jobs * 16)))`` consecutive
    points of one kernel (the last lease of a kernel may hold fewer), so
    each worker gets about 16 pull opportunities.  The queue keeps the
    input order: leases follow the items, and points keep their order
    inside a lease.
    """
    if jobs < 1:
        raise ReproError(f"job count must be >= 1, got {jobs}")
    size = min(LEASE_MAX_POINTS, max(1, -(-len(items) // (jobs * 16))))
    leases: "list[Lease]" = []
    for item in items:
        item_key = key(item)
        last = leases[-1] if leases else None
        if last is not None and last.key == item_key and len(last.items) < size:
            leases[-1] = Lease(key=item_key, items=last.items + (item,))
        else:
            leases.append(Lease(key=item_key, items=(item,)))
    return leases
