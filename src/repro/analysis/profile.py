"""Access profiles: memory accesses as a function of allocated registers.

The paper's allocators need, per reference, (a) the register count for
*full* scalar replacement (``beta``), (b) the memory accesses eliminated at
full replacement, and — for PR-RA and CPA-RA's equal-split step — (c) what a
*partial* allocation of ``r < beta`` registers buys.

:class:`AccessProfile` packages all three as a piecewise-linear,
non-increasing integer curve ``accesses(r)`` through the Pareto frontier of
``(beta(level), accesses_after(level))`` points computed by
:mod:`repro.analysis.reuse`.  Linear interpolation between adjacent level
points is operationally exact for uniformly accessed footprints (all the
paper's kernels): each extra register permanently pins one more footprint
element at the better reuse level while the rest stay at the worse level.
The LRU residency simulator in :mod:`repro.sim.residency` cross-checks this
curve empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import AnalysisError

__all__ = ["ProfilePoint", "AccessProfile"]


@dataclass(frozen=True, order=True)
class ProfilePoint:
    """One achievable operating point: ``registers`` buys ``accesses``.

    ``level`` records which reuse-carrying loop level the point exploits
    (``depth + 1`` means no reuse — the one-register operand buffer).
    """

    registers: int
    accesses: int
    level: int

    def __post_init__(self) -> None:
        if self.registers < 1:
            raise AnalysisError("a reference always needs at least one register")
        if self.accesses < 0:
            raise AnalysisError("negative access count")


@dataclass(frozen=True)
class AccessProfile:
    """Piecewise-linear accesses-vs-registers curve for one reference group.

    ``points`` is the Pareto frontier sorted by ascending register count:
    strictly increasing ``registers``, strictly decreasing ``accesses``
    (except a single point).  ``points[0].registers == 1`` always — one
    register is the feasibility baseline the paper assigns to every
    reference.
    """

    points: tuple[ProfilePoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise AnalysisError("profile needs at least one point")
        if self.points[0].registers != 1:
            raise AnalysisError("profile must start at the 1-register baseline")
        for prev, nxt in zip(self.points, self.points[1:]):
            if nxt.registers <= prev.registers or nxt.accesses >= prev.accesses:
                raise AnalysisError(
                    f"profile points not a Pareto frontier: {prev} -> {nxt}"
                )

    # -- canonical quantities the paper names --------------------------------

    @property
    def baseline_accesses(self) -> int:
        """Accesses with the mandatory single register (no reuse beyond any
        free innermost invariance)."""
        return self.points[0].accesses

    @property
    def full_registers(self) -> int:
        """``beta``: registers for full scalar replacement (best point)."""
        return self.points[-1].registers

    @property
    def full_accesses(self) -> int:
        """Accesses remaining at full scalar replacement."""
        return self.points[-1].accesses

    @property
    def full_saved(self) -> int:
        """Accesses eliminated by going from the baseline to full replacement.

        This is the knapsack *value* of the reference; its *size* is
        :attr:`full_registers`.
        """
        return self.baseline_accesses - self.full_accesses

    @property
    def has_reuse(self) -> bool:
        """Whether any allocation beyond one register helps (paper: whether
        the reference is a candidate at all)."""
        return self.full_saved > 0

    def benefit_cost(self) -> Fraction:
        """The paper's ``B/C`` metric: saved accesses per required register."""
        return Fraction(self.full_saved, self.full_registers)

    # -- evaluation -----------------------------------------------------------

    def accesses(self, registers: int) -> int:
        """Memory accesses with ``registers`` allocated (>= 1).

        Exact at profile points; linear (floor-rounded toward the pessimistic
        side) between them; flat beyond full replacement.
        """
        if registers < 1:
            raise AnalysisError(f"need at least 1 register, got {registers}")
        points = self.points
        if registers >= points[-1].registers:
            return points[-1].accesses
        for left, right in zip(points, points[1:]):
            if left.registers <= registers < right.registers:
                span = right.registers - left.registers
                drop = left.accesses - right.accesses
                gained = drop * (registers - left.registers)
                # Floor the savings: a fractional element pinned saves nothing.
                return left.accesses - gained // span
        raise AnalysisError("unreachable: profile evaluation fell through")

    def saved(self, registers: int) -> int:
        """Accesses eliminated relative to the 1-register baseline."""
        return self.baseline_accesses - self.accesses(registers)

    def __str__(self) -> str:
        pts = ", ".join(f"({p.registers}r -> {p.accesses})" for p in self.points)
        return f"AccessProfile[{pts}]"


def pareto_points(raw: list[ProfilePoint]) -> tuple[ProfilePoint, ...]:
    """Reduce candidate level points to the Pareto frontier AccessProfile wants.

    Keeps, in ascending register order, only points that strictly improve
    accesses; among equal register counts the best accesses wins.  The
    1-register baseline must be present in ``raw``.
    """
    if not raw:
        raise AnalysisError("no profile points")
    best_at: dict[int, ProfilePoint] = {}
    for point in raw:
        cur = best_at.get(point.registers)
        if cur is None or point.accesses < cur.accesses:
            best_at[point.registers] = point
    frontier: list[ProfilePoint] = []
    for registers in sorted(best_at):
        point = best_at[registers]
        if frontier and point.accesses >= frontier[-1].accesses:
            continue
        frontier.append(point)
    return tuple(frontier)
