"""Register-residency simulators: ground truth for coverage policies.

A scalar-replaced reference with ``r`` registers behaves like a tiny
per-reference cache of capacity ``r`` in front of its RAM block.  Which
elements are resident is a *policy* choice made by the compiler:

* ``pinned`` — dedicate registers to a fixed prefix of the footprint
  (what the paper's partial allocations do: ``beta_d = 12`` keeps
  ``d[i][0..11]`` in registers).  Optimal for cyclic sweeps, where LRU
  degenerates.
* ``lru`` — keep the most recently used elements (what a rotating-register
  window does for sliding references like FIR's ``x[i+j]``).
* ``opt`` — Belady's clairvoyant policy with bypass: what a
  compiler-managed rotating register file does, since the whole access
  stream is known at compile time.

The LRU and pinned simulators are NumPy array kernels:
:func:`lru_misses` computes stack distances from ``next_uses``-style
links (a vectorized count-smaller-to-the-left merge), and
:func:`pinned_misses` reduces to a first-touch mask over
:func:`prev_uses` links.  :func:`lru_miss_counts` answers a whole
budget axis from one stack-distance histogram.

Belady with bypass has exactly one simulator, the OPT stack walk
(:class:`_StackWalk`).  Belady with bypass is a stack algorithm
(Mattson et al.), so a priority stack truncated at ``depth`` slots
holds the register file of every capacity up to ``depth`` at once.  One
walk at depth ``beta`` gives :func:`opt_stack_distances` — each
access's smallest hitting capacity, the miss mask of the whole budget
axis — and one walk at depth ``c`` gives :func:`opt_trace`, the full
placement trace at capacity ``c``.  :class:`OptTraceLadder` shares the
use links and the period-ladder row classification (:class:`_LadderLevel`)
between all walks over one stream.

The walk replays steady-state rows: a row whose *normalized* signature —
stack state, address pattern and next-use structure relative to the
row's base — was seen before replays the recorded outputs instead of
being re-walked; the walk's decisions depend only on that signature, so
the replayed walk is bit-identical to the plain one.  The memo works on
a **period ladder** (``periods``, row → tile → inner tile): a boundary
row at one level is re-examined at the next finer period before any
per-access step runs, so inner-tile steady states replay even when the
outer row never repeats (the tiling perspective of Domagała et al.),
and runs of consecutive fixpoint rows are stamped out with one
vectorized copy.

The straightforward dict and ``max``-scan simulators all of this is
differenced against live with the tests (``tests/residency_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "lru_misses",
    "lru_stack_distances",
    "lru_miss_counts",
    "pinned_misses",
    "opt_trace",
    "opt_stack_distances",
    "OptTraceLadder",
    "next_uses",
    "prev_uses",
]

#: Normalized stand-ins with no valid absolute counterpart: a next use
#: beyond the end of the stream, and an eviction that did not happen.
_NO_NEXT_USE = np.int64(2**62)
_NO_EVICTION = np.int64(-(2**62))


# -- use-distance links --------------------------------------------------------


def _use_links(addresses: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(next, prev)`` same-address links from one stable argsort."""
    n = len(addresses)
    nxt = np.full(n, n, dtype=np.int64)
    prv = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return nxt, prv
    order = np.argsort(addresses, kind="stable")
    same = addresses[order][1:] == addresses[order][:-1]
    nxt[order[:-1][same]] = order[1:][same]
    prv[order[1:][same]] = order[:-1][same]
    return nxt, prv


def next_uses(stream: np.ndarray) -> np.ndarray:
    """Per position, the next position accessing the same address.

    Vectorized (stable argsort groups equal addresses; consecutive group
    members chain into next-use links).  Positions with no later access
    carry the sentinel ``len(stream)``.
    """
    return _use_links(np.asarray(stream).reshape(-1))[0]


def prev_uses(stream: np.ndarray) -> np.ndarray:
    """Per position, the previous position accessing the same address.

    The mirror of :func:`next_uses`; positions whose address was never
    accessed before carry the sentinel ``-1``.
    """
    return _use_links(np.asarray(stream).reshape(-1))[1]


# -- LRU -----------------------------------------------------------------------


def lru_misses(stream: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean miss flags of an LRU register file over an address stream.

    An access hits iff its LRU stack distance is at most the capacity.
    With ``p`` the previous use of the access at ``i``, the distance is
    one plus the number of distinct addresses touched in ``(p, i)`` —
    and a position ``j`` contributes one distinct address to that window
    exactly when it is the *latest* use of its address before ``i``
    (``next_use[j] >= i``).  Counting those positions reduces to

    ``distance(i) = distinct_before(i) - p + smaller_left(p)``

    where ``distinct_before(i)`` counts distinct addresses in ``[0, i)``
    (a cumulative sum of first touches) and ``smaller_left(p)`` counts
    positions ``j < p`` with ``next_use[j] < next_use[p]`` — a pure
    count-smaller-to-the-left over the ``next_uses`` array, computed by
    the vectorized merge in :func:`_count_smaller_left`.
    """
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity}")
    addresses = np.asarray(stream).reshape(-1)
    misses = np.ones(len(addresses), dtype=bool)
    if capacity == 0 or not len(addresses):
        return misses
    distances = lru_stack_distances(addresses)
    repeat = distances != _NO_NEXT_USE
    misses[repeat] = distances[repeat] > capacity
    return misses


def lru_stack_distances(stream: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distance; cold (first) touches carry a sentinel.

    An access at stack distance ``d`` hits every LRU capacity ``>= d``
    and misses every capacity below — the one array that answers the
    *whole* budget axis (see :func:`lru_miss_counts`).  First touches,
    which miss at any capacity, carry the ``_NO_NEXT_USE`` sentinel.
    The computation is the vectorized count-smaller-to-the-left merge
    documented on :func:`lru_misses`.
    """
    addresses = np.asarray(stream).reshape(-1)
    n = len(addresses)
    distances = np.full(n, _NO_NEXT_USE, dtype=np.int64)
    if n == 0:
        return distances
    nxt, prv = _use_links(addresses)
    repeat = prv >= 0
    if not repeat.any():
        return distances
    first = ~repeat
    distinct_before = np.concatenate(
        ([0], np.cumsum(first, dtype=np.int64)[:-1])
    )
    smaller_left = _count_smaller_left(nxt)
    prev_pos = prv[repeat]
    distances[repeat] = distinct_before[repeat] - prev_pos + smaller_left[prev_pos]
    return distances


def lru_miss_counts(
    stream: np.ndarray, capacities: "tuple[int, ...] | list[int]"
) -> "dict[int, int]":
    """Total LRU misses at every requested capacity from ONE trace pass.

    The budget-ladder reduction: one stack-distance computation, one
    histogram over the distances, one cumulative sum — then every
    capacity's miss count is ``cold + (repeats at distance > c)``, a
    single lookup.  Bit-identical to ``lru_misses(stream, c).sum()`` per
    capacity (pinned by the fuzz suite) at O(n log n + #capacities)
    instead of O(n log n × #capacities).
    """
    caps = [int(c) for c in capacities]
    for c in caps:
        if c < 0:
            raise SimulationError(f"capacity must be >= 0, got {c}")
    distances = lru_stack_distances(stream)
    n = len(distances)
    finite = distances[distances != _NO_NEXT_USE]
    cold = n - len(finite)
    if not len(finite):
        return {c: n for c in caps}
    histogram = np.bincount(finite)
    at_most = np.cumsum(histogram, dtype=np.int64)
    top = len(at_most) - 1
    return {
        c: cold + len(finite) - int(at_most[min(c, top)]) if c else n
        for c in caps
    }


def _count_smaller_left(values: np.ndarray) -> np.ndarray:
    """Per position, how many strictly smaller values lie to its left.

    A bottom-up vectorized mergesort: values are rank-compressed (so
    the merge keys below cannot overflow whatever the input range),
    padded to a power of two, and at each doubling level the (sorted)
    left half of every block is merged into its right half with one
    stable row-wise argsort whose key orders right-block elements
    *before* equal left-block elements — so the number of left elements
    preceding a right element in the merged order counts exactly the
    strictly smaller ones.
    """
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    # Strictly-smaller counts are rank-order invariant: replace values
    # by their dense ranks in [0, u) so keys stay bounded by ~2n.
    ranks = np.unique(np.asarray(values), return_inverse=True)[1]
    ranks = ranks.reshape(-1).astype(np.int64, copy=False)
    size = 1 << (n - 1).bit_length()
    vals = np.concatenate(
        [ranks, np.full(size - n, np.int64(n), dtype=np.int64)]
    )
    idx = np.arange(size, dtype=np.int64)
    padded_counts = np.zeros(size, dtype=np.int64)
    width = 1
    while width < size:
        span = 2 * width
        v = vals.reshape(-1, span)
        ix = idx.reshape(-1, span)
        col = np.arange(span, dtype=np.int64)
        # Right-block elements get the smaller key at equal values, so
        # only strictly smaller left elements sort before them.
        key = v * 2 + (col < width)
        order = np.argsort(key, axis=1, kind="stable")
        v = np.take_along_axis(v, order, axis=1)
        ix = np.take_along_axis(ix, order, axis=1)
        from_right = order >= width
        rights_inclusive = np.cumsum(from_right, axis=1)
        lefts_before = col[None, :] - (rights_inclusive - 1)
        targets = ix[from_right]
        # Each original index appears exactly once per level, so plain
        # fancy assignment (no np.add.at) is collision-free.
        padded_counts[targets] += lefts_before[from_right]
        vals = v.reshape(-1)
        idx = ix.reshape(-1)
        width = span
    return padded_counts[:n]


# -- pinned --------------------------------------------------------------------


def pinned_misses(
    stream: np.ndarray, pinned: "set[int] | frozenset[int]"
) -> np.ndarray:
    """Miss flags when a fixed set of addresses is register-resident.

    The first access to a pinned address is still a miss (the value must be
    fetched once); later accesses hit.  Unpinned addresses always miss.
    """
    addresses = np.asarray(stream).reshape(-1)
    misses = np.ones(len(addresses), dtype=bool)
    if not pinned or not len(addresses):
        return misses
    # Pin membership is fixed over the stream, so "touched before" is
    # simply "has an earlier use": a first-touch mask over the prev_uses
    # links, intersected with the pin membership.
    table = np.fromiter(pinned, count=len(pinned), dtype=np.int64)
    in_pinned = np.isin(addresses, table)
    seen_before = prev_uses(addresses) >= 0
    return ~(in_pinned & seen_before)


# -- Belady with bypass: the OPT stack walk ------------------------------------


def opt_trace(
    stream: np.ndarray,
    capacity: int,
    periods: "tuple[int, ...] | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Belady with bypass, returning the full placement trace.

    This is the policy a *compiler-managed* rotating register file
    implements: the access stream is fully known at compile time, so on a
    miss the compiler only installs the value if its next use comes sooner
    than some resident value's (otherwise it bypasses the register file —
    crucial for strided windows, where LRU would evict the whole reusable
    window with dead values).

    Returns ``(misses, inserted, evicted, freed)`` per access position:
    ``misses[i]`` — RAM access needed; ``inserted[i]`` — the fetched value
    is placed in a register; ``evicted[i]`` — address evicted to make room
    (-1 if none); ``freed[i]`` — this hit was the value's last use and its
    register is released.  The trace lets the functional interpreter
    replay the exact placement decisions.

    ``periods`` (a descending divisor chain of the stream length,
    typically the suffix products of the loop trip counts: row → tile →
    inner tile) enables steady-state row replay.  Entries that do not
    divide their predecessor (or the stream length) are dropped.
    Results are bit-identical with and without it.

    A one-capacity call builds (and discards) a one-stream
    :class:`OptTraceLadder`; callers evaluating a whole budget axis
    should hold the plane themselves so the stream-level work is shared.
    """
    return OptTraceLadder(stream, periods=periods).trace(capacity)


def opt_stack_distances(
    stream: np.ndarray,
    max_capacity: int,
    periods: "tuple[int, ...] | None" = None,
) -> np.ndarray:
    """Per access, the smallest capacity at which Belady-with-bypass hits.

    One pass answers the whole budget axis of :func:`opt_trace`: the
    access at position ``i`` misses at capacity ``c <= max_capacity``
    exactly when ``distances[i] > c``.  Accesses that hit at no capacity
    up to ``max_capacity`` carry ``max_capacity + 1``.

    Belady with bypass is a stack algorithm here (Mattson et al. 1970):
    next-use positions are unique and a value is freed at its last use,
    so the policy never faces a tie, and one priority stack holds every
    capacity's register file at once — capacity ``c`` keeps the values
    in its top ``c`` slots.  An access found in slot ``d`` hits every
    capacity above ``d``; the stack then moves its value up, carrying
    the value with the farther next use down through slots ``0..d-1``
    (at each capacity the farthest one is exactly Belady's victim, or
    the bypassed newcomer).  A value freed at its last use leaves a
    *hole* that stays in place: a capacity whose file has a free
    register installs the next miss without evicting, so the carry
    drops into the first hole and deeper values never float up into
    it.  The stack is truncated at ``max_capacity`` slots; what falls
    off the end is resident at no tracked capacity.

    ``periods`` enables the period-ladder row replay (the stack state
    normalizes like the register file does); non-divisor entries are
    dropped as in :func:`opt_trace`.  Callers that also trace
    placements should hold an :class:`OptTraceLadder` and call
    :meth:`~OptTraceLadder.stack_distances` on it, so both share one
    stream analysis.
    """
    return OptTraceLadder(stream, periods=periods).stack_distances(
        max_capacity
    )


class OptTraceLadder:
    """Capacity-shared evaluation plane for the OPT stack walk.

    Everything about a walk that does *not* depend on its depth — the
    flattened address stream, the use links (the dominant cost), and
    the per-period row classification (:class:`_LadderLevel`: bases,
    shift-normalized patterns, adjacent-row equality, base deltas) — is
    computed lazily once and shared by every :meth:`trace` and
    :meth:`stack_distances` call.  Each call runs one fresh walk
    (:class:`_StackWalk`) from an empty stack, so a plane result is
    bit-identical to a standalone :func:`opt_trace` or
    :func:`opt_stack_distances` call by construction.
    """

    def __init__(
        self,
        stream: np.ndarray,
        periods: "tuple[int, ...] | None" = None,
    ) -> None:
        self.addresses = np.asarray(stream).reshape(-1)
        self.n = len(self.addresses)
        self.ladder = _period_ladder(self.n, periods)
        self._links: "tuple[np.ndarray, np.ndarray] | None" = None
        # Shared depth-independent level structures, built lazily by the
        # first walk that needs each ladder level.
        self._levels: "list[_LadderLevel | None]" = [None] * len(self.ladder)

    def _use_links(self) -> "tuple[np.ndarray, np.ndarray]":
        """The stream's ``(next, prev)`` same-address links."""
        if self._links is None:
            self._links = _use_links(self.addresses)
        return self._links

    def _level(self, index: int) -> "_LadderLevel":
        """The row classification of ladder level ``index``."""
        level = self._levels[index]
        if level is None:
            level = _LadderLevel(
                self.addresses, self._use_links()[0], self.ladder[index]
            )
            self._levels[index] = level
        return level

    def trace(
        self, capacity: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The :func:`opt_trace` result at ``capacity``: one walk at
        depth ``capacity``."""
        walk = self._walk(capacity)
        return (
            walk.distances > capacity, walk.inserted, walk.evicted, walk.freed
        )

    def stack_distances(self, max_capacity: int) -> np.ndarray:
        """The :func:`opt_stack_distances` result: one walk at depth
        ``max_capacity``."""
        return self._walk(max_capacity).distances

    def _walk(self, depth: int) -> "_StackWalk":
        if depth < 0:
            raise SimulationError(f"capacity must be >= 0, got {depth}")
        walk = _StackWalk(self, depth)
        if depth and self.n:
            walk.run()
        return walk


def _period_ladder(
    n: int, periods: "tuple[int, ...] | None"
) -> tuple[int, ...]:
    """The valid descending divisor chain among the requested periods."""
    ladder: list[int] = []
    previous = n
    for period in periods or ():
        period = int(period)
        if 0 < period < previous and previous % period == 0:
            ladder.append(period)
            previous = period
    return tuple(ladder)


class _LadderLevel:
    """Vectorized per-period structures the stack walk classifies rows with.

    Everything here is a whole-stream array computation done once per
    ladder level: row bases, the shift-normalized (address, next-use)
    pattern per row, adjacent-row pattern equality (for steady-state run
    stamping) and base deltas.  A row's signature is the shift-normalized
    pattern plus the normalized pre-row state, so the memo equivalence
    classes are exactly the rows the walk treats alike.

    Deliberately depth-independent: replay memos (which record the
    walk's decisions) live on the walk (:class:`_StackWalk`), so one
    level is shared by every walk over a plane (:class:`OptTraceLadder`).
    """

    __slots__ = (
        "period", "rows", "bases", "pattern", "same", "base_delta",
    )

    def __init__(self, addresses: np.ndarray, nxt: np.ndarray, period: int):
        n = len(addresses)
        self.period = period
        self.rows = n // period
        by_row = addresses.reshape(self.rows, period).astype(np.int64)
        self.bases = by_row[:, 0].copy()
        next_by_row = nxt.reshape(self.rows, period)
        row_starts = (
            np.arange(self.rows, dtype=np.int64)[:, None] * period
        )
        next_rel = np.where(
            next_by_row >= n, _NO_NEXT_USE, next_by_row - row_starts
        )
        self.pattern = np.concatenate(
            [by_row - self.bases[:, None], next_rel], axis=1
        )
        self.same = (
            np.all(self.pattern[1:] == self.pattern[:-1], axis=1)
            if self.rows > 1
            else np.zeros(0, dtype=bool)
        )
        self.base_delta = np.diff(self.bases)

    def row_key(self, row: int) -> bytes:
        return self.pattern[row].tobytes()

    def run_length(self, row: int, last_row: int, delta: int) -> int:
        """Rows from ``row`` replaying one fixpoint signature in a run.

        Counts how far the pattern stays identical to ``row``'s and the
        base keeps advancing by ``delta`` — the two conditions under
        which a fixpoint state keeps reproducing the same signature.
        """
        same = self.same[row : last_row - 1]
        deltas = self.base_delta[row : last_row - 1]
        bad = np.flatnonzero(~(same & (deltas == delta)))
        return 1 + (int(bad[0]) if len(bad) else len(same))


class _StackWalk:
    """One OPT stack walk at ``depth``: the Belady-with-bypass simulator.

    The state is a priority stack truncated at ``depth`` slots: a list of
    addresses or ``None`` (a hole), plus each stacked address's next
    use.  Its first ``c`` slots are exactly the residents of a
    Belady-with-bypass register file of capacity ``c``, for every
    ``c <= depth`` at once (the inclusion property; see
    :func:`opt_stack_distances`).  So the walk records, per access:

    * ``distances`` — the smallest capacity that hits, or ``depth + 1``;
    * the placement trace at capacity ``depth`` itself.  A found access
      with no next use is ``freed``.  On a miss, the carry decides: if
      it drops into a hole the newcomer is ``inserted`` and nothing is
      evicted; if it falls off the stack carrying another value, the
      newcomer is ``inserted`` and that value ``evicted``; if it falls
      off carrying the newcomer, the access is a bypass.

    Row replay: each step compares addresses and next-use positions but
    never measures them, so a row's outputs and post-state are a pure
    function of its normalized signature — the stack state (slot tuple
    relative to the row's base address and start position, trailing
    holes trimmed) and the row pattern.  Three array-at-a-time
    accelerations follow:

    * per-level row patterns, adjacent equality and base deltas are
      vectorized whole-stream computations (:class:`_LadderLevel`,
      shared through the plane),
    * a replayed row whose post-state re-normalizes to its own input
      signature is a *fixpoint*: the maximal run of following rows with
      the same pattern and base delta replays identically and is
      stamped with one vectorized copy instead of one per row,
    * a row (or tile) that misses its level's memo recurses to the next
      finer period before any per-access work; the finest level walks
      the span with compulsory bypasses — first-ever touches of
      never-reused addresses, which change no state — filtered out in
      bulk.

    A replay normalizes up to ``depth`` slots, which costs more than
    walking a row shorter than that, so the walk descends only the
    ladder levels whose period is at least ``depth`` (a prefix of the
    descending ladder, so the plane's levels are shared as they are).
    """

    #: Which outputs hold addresses, recorded relative to the row base.
    _RELATIVE = (False, False, True, False)

    def __init__(self, plane: OptTraceLadder, depth: int):
        n = plane.n
        self.plane = plane
        self.n = n
        self.depth = depth
        self.distances = np.full(n, depth + 1, dtype=np.int64)
        self.inserted = np.zeros(n, dtype=bool)
        self.evicted = np.full(n, -1, dtype=np.int64)
        self.freed = np.zeros(n, dtype=bool)
        self.out = (self.distances, self.inserted, self.evicted, self.freed)
        self.ladder = tuple(p for p in plane.ladder if p >= depth)
        self.slots: "list[int | None]" = [None] * depth
        self.uses: "dict[int, int]" = {}  # stacked address -> next use
        # The replay memos record this walk's decisions, so unlike the
        # levels they are never shared.
        self._memos: "list[dict[tuple, tuple]]" = [{} for _ in self.ladder]

    def run(self) -> None:
        self.nxt, self.prev = self.plane._use_links()
        self._replay(0, 0, self.n)

    # -- the stack state -------------------------------------------------------

    def _normalize(self, base: int, start: int) -> tuple:
        """The live stack relative to ``(base, start)``, hashable."""
        uses = self.uses
        state = [
            None if a is None else (a - base, uses[a] - start)
            for a in self.slots
        ]
        while state and state[-1] is None:
            state.pop()
        return tuple(state)

    def _load(self, state_rel: tuple, base: int, start: int) -> None:
        """Make ``state_rel`` (framed at ``(base, start)``) the live stack."""
        slots: "list[int | None]" = [None] * self.depth
        uses: "dict[int, int]" = {}
        for slot, entry in enumerate(state_rel):
            if entry is not None:
                address = entry[0] + base
                slots[slot] = address
                uses[address] = entry[1] + start
        self.slots = slots
        self.uses = uses

    @staticmethod
    def _shift(state_rel: tuple, shift_a: int, shift_u: int) -> tuple:
        """Re-frame a normalized stack (uniform shifts keep its order)."""
        return tuple(
            None if entry is None else (entry[0] + shift_a, entry[1] + shift_u)
            for entry in state_rel
        )

    # -- the per-access step ---------------------------------------------------

    def _step(
        self, positions: "list[int]", addresses: "list[int]", nexts: "list[int]"
    ) -> None:
        """Walk the stack through the listed accesses."""
        n = self.n
        depth = self.depth
        slots = self.slots
        uses = self.uses
        hits: "list[int]" = []
        found_at: "list[int]" = []
        freed: "list[int]" = []
        inserted: "list[int]" = []
        evicted_at: "list[int]" = []
        victims: "list[int]" = []
        for position, address, mine in zip(positions, addresses, nexts):
            found = address in uses
            if found:
                slot = slots.index(address)
                hits.append(position)
                found_at.append(slot + 1)
                if mine >= n:
                    slots[slot] = None  # last use: the freed slot is a hole
                    del uses[address]
                    freed.append(position)
                    continue
            elif mine >= n:
                continue  # never used again: bypassed at every capacity
            else:
                slot = depth
            uses[address] = mine
            # Carry down: each slot above the accessed one keeps the
            # sooner next use of (itself, the carried value) and passes
            # the farther one on.  A hole takes the carried value and
            # ends the carry; a found value's old slot becomes the hole.
            carried, carried_use = address, mine
            for above in range(slot):
                held = slots[above]
                if held is None:
                    slots[above] = carried
                    if found:
                        slots[slot] = None
                    else:
                        inserted.append(position)  # into a free register
                    break
                held_use = uses[held]
                if held_use > carried_use:
                    slots[above] = carried
                    carried, carried_use = held, held_use
            else:
                if found:
                    slots[slot] = carried
                else:
                    del uses[carried]  # fell off the truncated stack
                    if carried != address:
                        inserted.append(position)
                        evicted_at.append(position)
                        victims.append(carried)
        if hits:
            self.distances[hits] = found_at
        if freed:
            self.freed[freed] = True
        if inserted:
            self.inserted[inserted] = True
        if evicted_at:
            self.evicted[evicted_at] = victims

    def _span(self, start: int, stop: int) -> None:
        """Finest level: the per-access walk minus compulsory bypasses.

        A position whose address was never accessed before cannot be
        stacked, and if it is also never accessed again the access is a
        plain bypass miss — exactly the outputs' initial values — with
        no state change.  Those segments are skipped wholesale.
        """
        span_prev = self.prev[start:stop]
        span_next = self.nxt[start:stop]
        active = ~((span_prev < 0) & (span_next >= self.n))
        if not active.any():
            return
        offsets = np.flatnonzero(active)
        self._step(
            (start + offsets).tolist(),
            self.plane.addresses[start:stop][offsets].tolist(),
            span_next[offsets].tolist(),
        )

    # -- the period-ladder row replay ------------------------------------------

    def _replay(self, rung: int, start: int, stop: int) -> None:
        """Walk ``[start, stop)`` from ladder level ``rung`` down."""
        if rung >= len(self.ladder):
            self._span(start, stop)
            return
        level = self.plane._level(rung)
        memo = self._memos[rung]
        period = level.period
        first_row = start // period
        last_row = stop // period
        state_rel: "tuple | None" = None
        frame: tuple[int, int] = (0, 0)
        row = first_row
        while row < last_row:
            row_start = row * period
            base = int(level.bases[row])
            if state_rel is None:
                normalized = self._normalize(base, row_start)
            else:
                normalized = self._shift(
                    state_rel, frame[0] - base, frame[1] - row_start
                )
            signature = (normalized, level.row_key(row))
            replay = memo.get(signature)
            if replay is None:
                if state_rel is not None:
                    self._load(state_rel, *frame)
                    state_rel = None
                row_stop = row_start + period
                self._replay(rung + 1, row_start, row_stop)
                memo[signature] = (
                    tuple(
                        np.where(segment >= 0, segment - base, _NO_EVICTION)
                        if relative
                        else segment.copy()
                        for segment, relative in zip(
                            (array[row_start:row_stop] for array in self.out),
                            self._RELATIVE,
                        )
                    ),
                    self._normalize(base, row_start),
                )
                row += 1
                continue
            recorded, post_state = replay
            run_rows = 1
            if row + 1 < last_row and level.same[row]:
                delta = int(level.base_delta[row])
                if self._shift(post_state, -delta, -period) == normalized:
                    run_rows = level.run_length(row, last_row, delta)
            segment = slice(row_start, (row + run_rows) * period)
            for array, values, relative in zip(
                self.out, recorded, self._RELATIVE
            ):
                if relative:
                    run_bases = level.bases[row : row + run_rows, None]
                    array[segment] = np.where(
                        values[None, :] != _NO_EVICTION,
                        values[None, :] + run_bases,
                        -1,
                    ).reshape(-1)
                elif run_rows == 1:
                    array[segment] = values
                else:
                    array[segment] = np.tile(values, run_rows)
            last = row + run_rows - 1
            state_rel = post_state
            frame = (int(level.bases[last]), last * period)
            row += run_rows
        if state_rel is not None:
            self._load(state_rel, *frame)
