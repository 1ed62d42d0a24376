"""Cost-model-driven lease scheduling for exploration sweeps.

Design-point cost varies wildly across a space: an exact-knapsack
allocation of a deep nest costs orders of magnitude more than a NO-SR
pass over a toy kernel (cf. the tile-size-dependent costs in the tiling
literature).  The executor's old fixed ``len(pending) // (jobs * 4)``
split therefore routinely packed several expensive points into one chunk
while other workers idled.

This module provides two pieces:

* a :class:`CostModel` that predicts per-point evaluation seconds —
  fitted from the timings the cache persists with every
  :class:`~repro.explore.query.DesignRecord` (``seconds``), absorbed
  from the cache's *persisted* cross-run model (see
  :func:`persist_cost_model`), falling back to static kernel-size ×
  allocator priors for cold starts;
* :func:`plan_leases`, the work-stealing planner: instead of
  irrevocably partitioning the queue, it cuts the pending set into many
  small single-kernel :class:`Lease` units that workers pull on demand.
  The cost model only *orders* the queue (longest first) and isolates
  predicted-expensive points into singleton leases — a misprediction
  costs one worker one lease, not a whole chunk.

Everything here is deterministic: ties break on original query order, so
two runs over the same pending set build the same leases.
Estimates only shape *scheduling* — results are unaffected by
construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.errors import ReproError
from repro.explore.query import DesignQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.cache import ResultCache

__all__ = [
    "CostModel",
    "Lease",
    "plan_leases",
    "persist_cost_model",
    "static_cost",
    "ALLOCATOR_WEIGHT",
    "COST_MODEL_META_KEY",
]

T = TypeVar("T")

#: Static relative cost of one allocation pass, used until measured
#: timings exist.  The exact knapsack (KS-RA) dominates; NO-SR does no
#: scalar-replacement analysis at all.  Unknown allocators get 1.0.
ALLOCATOR_WEIGHT = {
    "NO-SR": 0.3,
    "FR-RA": 1.0,
    "PR-RA": 1.2,
    "CPA-RA": 1.6,
    "KS-RA": 3.0,
}


@lru_cache(maxsize=256)
def _kernel_weight(kernel: str, kernel_json: "str | None") -> float:
    """Static size proxy of one sweep subject: iterations x references.

    Building the kernel is cheap (pure IR construction, no analysis) and
    memoized per process.  A subject that cannot even be built — unknown
    name, malformed embedded JSON, a crashing factory — weighs 1.0: the
    scheduler must never die on a point the evaluator is about to turn
    into an error record anyway.
    """
    try:
        subject = DesignQuery(
            kernel=kernel, allocator="NO-SR", budget=1, kernel_json=kernel_json
        ).build_kernel()
        return float(
            subject.iteration_count * max(1, len(subject.reference_sites()))
        )
    except Exception:  # noqa: BLE001 — scheduling must survive bad points
        return 1.0


def static_cost(query: DesignQuery) -> float:
    """Prior cost estimate (arbitrary units) for a never-measured point."""
    weight = ALLOCATOR_WEIGHT.get(query.allocator, 1.0)
    # Larger budgets mean more candidate groups survive the knapsack /
    # pattern passes; a gentle sublinear bump keeps the prior stable.
    budget_factor = 1.0 + min(query.budget, 1024) / 128.0
    return _kernel_weight(query.kernel, query.kernel_json) * weight * budget_factor


@lru_cache(maxsize=1024)
def _kj_digest(kernel_json: "str | None") -> "str | None":
    """Short stable digest of an embedded kernel JSON (None stays None).

    Persisted cost-model rows key on this instead of the raw JSON so the
    meta document stays small and key-comparable across runs.
    """
    if kernel_json is None:
        return None
    return hashlib.sha256(kernel_json.encode()).hexdigest()[:16]


#: Meta key the fitted cost model persists under in the cache backend.
COST_MODEL_META_KEY = "cost_model"

#: Cross-run decay: each persisted observation's weight halves per run,
#: so drifting hardware / code overwrites stale timings within a few
#: sweeps while cold-start predictions still benefit from history.
COST_MODEL_DECAY = 0.5

#: Persisted rows whose decayed weight falls below this are dropped.
COST_MODEL_FLOOR = 0.05


class CostModel:
    """Predicts per-point evaluation seconds from observed timings.

    Observations are aggregated at two granularities and fall back
    gracefully:

    1. mean of timings for the exact ``(kernel, allocator)`` pair;
    2. the kernel's mean across allocators, rescaled by the allocator's
       static weight ratio;
    3. the global mean, rescaled by the point's static-prior ratio;
    4. the bare static prior (cold start: nothing measured yet).

    Rescaling by prior *ratios* keeps the fallbacks ordered the same way
    the priors are, so the lease order stays sensible even from sparse
    data.

    Internally every tier keeps ``(sum, weight)`` accumulators rather
    than raw timing lists: a live ``observe`` adds weight 1.0, while
    rows absorbed from a persisted model (:meth:`absorb_doc`) carry the
    decayed fractional weight they were stored with — one mean per
    pair, pre-discounted by age.
    """

    def __init__(self) -> None:
        #: (kernel, kj_digest, allocator) -> [sum, weight]
        self._pair: dict[tuple[str, "str | None", str], list[float]] = {}
        self._kernel: dict[tuple[str, "str | None"], list[float]] = {}
        self._all = [0.0, 0.0]
        self._observed = 0

    def _add(
        self,
        kernel: str,
        kj_digest: "str | None",
        allocator: str,
        total: float,
        weight: float,
    ) -> None:
        if weight <= 0:
            return
        acc = self._pair.setdefault((kernel, kj_digest, allocator), [0.0, 0.0])
        acc[0] += total
        acc[1] += weight
        kernel_acc = self._kernel.setdefault((kernel, kj_digest), [0.0, 0.0])
        kernel_acc[0] += total
        kernel_acc[1] += weight
        self._all[0] += total
        self._all[1] += weight

    def observe(self, query: DesignQuery, seconds: float) -> None:
        """Record one measured evaluation time."""
        if seconds is None or seconds < 0:
            return
        self._add(
            query.kernel,
            _kj_digest(query.kernel_json),
            query.allocator,
            float(seconds),
            1.0,
        )
        self._observed += 1

    @property
    def observations(self) -> int:
        """How many timings this run measured or scanned (``observe``
        calls); rows absorbed from a persisted model do not count."""
        return self._observed

    @property
    def fitted(self) -> bool:
        """Whether *any* evidence (observed or absorbed) backs estimates.

        A fitted model predicts real seconds; an unfitted one returns
        relative static-prior units — callers that need wall-clock
        (deadlines, dry-run display) gate on this.
        """
        return self._all[1] > 0

    def explain(self, query: DesignQuery) -> "tuple[float, str]":
        """``(estimate, tier)`` with tier in pair/kernel/global/prior.

        The tier names which fallback answered — ``--dry-run`` marks
        ``prior`` points as cold so mispredictions are attributable.
        """
        kernel_key = (query.kernel, _kj_digest(query.kernel_json))
        pair = self._pair.get(kernel_key + (query.allocator,))
        if pair and pair[1] > 0:
            return pair[0] / pair[1], "pair"
        weight = ALLOCATOR_WEIGHT.get(query.allocator, 1.0)
        kernel_acc = self._kernel.get(kernel_key)
        if kernel_acc and kernel_acc[1] > 0:
            return (kernel_acc[0] / kernel_acc[1]) * weight, "kernel"
        if self._all[1] > 0:
            mean = self._all[0] / self._all[1]
            return mean * static_cost(query) / _mean_static_prior(), "global"
        return static_cost(query), "prior"

    def estimate(self, query: DesignQuery) -> float:
        """Predicted evaluation seconds (relative units when unfitted)."""
        return self.explain(query)[0]

    def to_doc(self) -> dict:
        """The model as a persistable JSON document (pair-tier rows).

        Only the finest tier is stored; kernel and global accumulators
        are rebuilt on :meth:`absorb_doc` since they are plain sums of
        the pair rows.
        """
        rows = []
        for key in sorted(
            self._pair, key=lambda k: (k[0], k[1] or "", k[2])
        ):
            kernel, kj_digest, allocator = key
            total, weight = self._pair[key]
            if weight <= 0:
                continue
            rows.append({
                "kernel": kernel,
                "kernel_json_digest": kj_digest,
                "allocator": allocator,
                "mean": total / weight,
                "weight": weight,
            })
        return {"version": 1, "rows": rows}

    def absorb_doc(
        self, doc: "dict | None", decay: float = 1.0, floor: float = 0.0
    ) -> int:
        """Fold a persisted model document into this one.

        Each row's weight is multiplied by ``decay`` first; rows landing
        at or below ``floor`` are dropped.  Malformed rows (or a
        document from an unknown version) are skipped — persistence is
        advisory, never load-bearing.  Rows written with a per-engine
        ``engine`` field by earlier versions merge into their pair by
        weight.  Returns how many rows were absorbed.
        """
        if not isinstance(doc, dict) or doc.get("version") != 1:
            return 0
        rows = doc.get("rows")
        if not isinstance(rows, list):
            return 0
        absorbed = 0
        for row in rows:
            if not isinstance(row, dict):
                continue
            try:
                kernel = row["kernel"]
                allocator = row["allocator"]
                mean = float(row["mean"])
                weight = float(row["weight"]) * decay
            except (KeyError, TypeError, ValueError):
                continue
            if not isinstance(kernel, str) or not isinstance(allocator, str):
                continue
            if mean < 0 or weight <= floor:
                continue
            kj_digest = row.get("kernel_json_digest")
            self._add(
                kernel,
                kj_digest if isinstance(kj_digest, str) else None,
                allocator,
                mean * weight,
                weight,
            )
            absorbed += 1
        return absorbed

    @staticmethod
    def from_cache(cache: "ResultCache | None") -> "CostModel":
        """Fit a model from every readable timing in a result cache.

        Stale entries count too — a timing stays informative even after
        the code it measured changed — and unreadable entries are simply
        skipped (the cache already warns about corruption on lookup).
        """
        model = CostModel()
        if cache is None:
            return model
        for doc in cache.iter_docs():
            try:
                seconds = doc["seconds"]
                query = DesignQuery.from_key(doc["query"])
            except Exception:  # noqa: BLE001 — fitting is best-effort
                continue
            if isinstance(seconds, (int, float)):
                model.observe(query, float(seconds))
        return model


def persist_cost_model(cache: "ResultCache", run_model: CostModel) -> None:
    """Fold this run's measured timings into the cache's persisted model.

    ``run_model`` must contain *only* timings evaluated in this run —
    cache-hit timings are already represented in the persisted document,
    and folding them back in would double-count every resume.  Existing
    rows decay by :data:`COST_MODEL_DECAY` (dropping below
    :data:`COST_MODEL_FLOOR`), then the fresh rows merge in at full
    weight.  May raise ``OSError`` (disk full / read-only); callers
    treat that as a skipped nicety, not a failed sweep.
    """
    if cache is None or not run_model.fitted:
        return
    merged = CostModel()
    merged.absorb_doc(
        cache.read_meta(COST_MODEL_META_KEY),
        decay=COST_MODEL_DECAY,
        floor=COST_MODEL_FLOOR,
    )
    merged.absorb_doc(run_model.to_doc())
    cache.write_meta(COST_MODEL_META_KEY, merged.to_doc())


def _mean_static_prior() -> float:
    """Normalizer for the global-mean fallback: an 'average' prior."""
    # The registered paper kernels at the paper budget are the natural
    # reference population; the value only scales a ratio, so precision
    # is irrelevant — determinism and positivity are what matter.
    from repro.kernels.registry import KERNEL_FACTORIES, PAPER_REGISTER_BUDGET

    priors = [
        static_cost(DesignQuery(name, "FR-RA", PAPER_REGISTER_BUDGET))
        for name in sorted(KERNEL_FACTORIES)
    ]
    return sum(priors) / len(priors) if priors else 1.0


@dataclass(frozen=True)
class Lease:
    """One pull unit of the work-stealing dispatcher.

    A lease is a short single-kernel run of points a worker claims as
    one batch: small enough that a misprediction strands at most a few
    points on one worker, single-kernel so the worker's per-process
    context builds the kernel's artifacts once per lease.  ``key`` is
    the kernel-identity affinity key — the dispatcher *prefers* handing
    a worker a lease whose key matches artifacts already resident in
    that worker (PR 4's kernel-major locality as a soft preference
    instead of a hard partition).

    ``seq`` is the lease's creation rank, the deterministic tiebreaker
    for equal costs.
    """

    seq: int
    key: object
    items: tuple
    costs: "tuple[float, ...]"

    @property
    def cost(self) -> float:
        return sum(self.costs)

    def split(self, next_seq: int) -> "list[Lease]":
        """This lease as singleton leases (the steal operation).

        Only *queued* leases are ever split — an in-flight lease belongs
        to its worker.  Splitting changes nothing about results: records
        are keyed by point index, so lease composition is invisible to
        the assembled ResultSet.
        """
        return [
            Lease(seq=next_seq + i, key=self.key, items=(item,), costs=(c,))
            for i, (item, c) in enumerate(zip(self.items, self.costs))
        ]


#: Hard ceiling on points per lease: even a tiny grid on one worker
#: never claims more than this many points at once.
LEASE_MAX_POINTS = 8

#: A point predicted to cost at least ``total / (jobs * this)`` is
#: isolated into its own lease at plan time (OPT-RA points, big
#: kernels): it is expected to dominate a worker anyway, and singleton
#: leases cannot strand cheap siblings behind it.
LEASE_SINGLETON_SHARE = 8


def plan_leases(
    items: Sequence[T],
    cost: Callable[[T], float],
    jobs: int,
    key: Callable[[T], object],
    max_points: "int | None" = None,
) -> "list[Lease]":
    """Cut ``items`` into a longest-first queue of single-kernel leases.

    Lease size is capped by *point count*, not predicted cost:
    ``min(8, ceil(n / (jobs * 16)))`` points per lease, so every worker
    has ~16 pull opportunities even under a uniformly wrong cost model —
    the model orders the queue, it never gets to concentrate hidden work
    into one unsplittable unit.  Points whose predicted cost exceeds a
    ``1 / (jobs * 8)`` share of the total are isolated into singleton
    leases immediately.

    Deterministic: kernels are taken in first-appearance order, points
    keep their input order within a kernel, and the final queue sorts by
    ``(-cost, seq)``.
    """
    if jobs < 1:
        raise ReproError(f"job count must be >= 1, got {jobs}")
    if not items:
        return []
    if max_points is None:
        max_points = min(
            LEASE_MAX_POINTS,
            max(1, -(-len(items) // (jobs * 16))),
        )
    if max_points < 1:
        raise ReproError(f"lease size must be >= 1, got {max_points}")
    costs = [float(cost(item)) for item in items]
    total = sum(costs)
    singleton_floor = total / (jobs * LEASE_SINGLETON_SHARE)
    groups: "dict[object, list[int]]" = {}
    for position, item in enumerate(items):
        groups.setdefault(key(item), []).append(position)
    leases: "list[Lease]" = []

    def emit(group_key: object, member_positions: "list[int]") -> None:
        leases.append(Lease(
            seq=len(leases),
            key=group_key,
            items=tuple(items[i] for i in member_positions),
            costs=tuple(costs[i] for i in member_positions),
        ))

    for group_key, positions in groups.items():
        buffer: "list[int]" = []
        for position in positions:
            if total > 0 and costs[position] >= singleton_floor:
                if buffer:
                    emit(group_key, buffer)
                    buffer = []
                emit(group_key, [position])
                continue
            buffer.append(position)
            if len(buffer) >= max_points:
                emit(group_key, buffer)
                buffer = []
        if buffer:
            emit(group_key, buffer)
    leases.sort(key=lambda lease: (-lease.cost, lease.seq))
    return leases
