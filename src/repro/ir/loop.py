"""Loop and loop-nest structures.

The paper restricts itself to *perfectly nested* loops with compile-time
known, rectangular bounds — all six evaluation kernels satisfy this.  The
:class:`LoopNest` type enforces perfection structurally: it is a list of
loops plus a single body, with no intermediate statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import IRError
from repro.ir.stmt import Assign

__all__ = ["Loop", "LoopNest"]


@dataclass(frozen=True)
class Loop:
    """A counted loop ``for (var = lower; var < upper; var += step)``.

    Bounds are compile-time integers; ``step`` supports the decimation
    kernels (Dec-FIR iterates its output loop with the decimation stride
    folded into the subscript, but strided loops come up in variants).
    """

    var: str
    upper: int
    lower: int = 0
    step: int = 1

    def __post_init__(self) -> None:
        if not self.var.isidentifier():
            raise IRError(f"loop variable must be an identifier, got {self.var!r}")
        if self.step <= 0:
            raise IRError(f"loop {self.var}: step must be positive, got {self.step}")
        if self.upper <= self.lower:
            raise IRError(
                f"loop {self.var}: empty iteration range [{self.lower}, {self.upper})"
            )

    @property
    def trip_count(self) -> int:
        return (self.upper - self.lower + self.step - 1) // self.step

    def values(self) -> np.ndarray:
        """All values the loop variable takes, in execution order."""
        return np.arange(self.lower, self.upper, self.step, dtype=np.int64)

    def __str__(self) -> str:
        head = f"for ({self.var} = {self.lower}; {self.var} < {self.upper}; "
        head += f"{self.var}++" if self.step == 1 else f"{self.var} += {self.step}"
        return head + ")"


@dataclass(frozen=True)
class LoopNest:
    """A perfect nest: ``loops[0]`` outermost, ``loops[-1]`` innermost."""

    loops: tuple[Loop, ...]
    body: tuple[Assign, ...]

    def __post_init__(self) -> None:
        if not self.loops:
            raise IRError("a loop nest needs at least one loop")
        if not self.body:
            raise IRError("a loop nest needs at least one statement")
        names = [loop.var for loop in self.loops]
        if len(set(names)) != len(names):
            raise IRError(f"duplicate loop variables in nest: {names}")

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)

    @property
    def iteration_count(self) -> int:
        return int(np.prod([loop.trip_count for loop in self.loops]))

    def level_of(self, var: str) -> int:
        """1-based level of ``var`` (1 = outermost), as the paper counts."""
        for level, loop in enumerate(self.loops, start=1):
            if loop.var == var:
                return level
        raise IRError(f"no loop with variable {var!r} in nest {self.loop_vars}")

    def iteration_points(self) -> Iterator[dict[str, int]]:
        """Yield every iteration point in lexicographic execution order.

        Intended for the functional interpreter and for tests on small
        kernels; the cycle counter uses vectorized grids instead.
        """
        def recurse(level: int, point: dict[str, int]) -> Iterator[dict[str, int]]:
            if level == self.depth:
                yield dict(point)
                return
            loop = self.loops[level]
            for value in range(loop.lower, loop.upper, loop.step):
                point[loop.var] = value
                yield from recurse(level + 1, point)

        yield from recurse(0, {})

    def meshgrids(self) -> dict[str, np.ndarray]:
        """Per-variable ``ndarray`` grids spanning the full iteration space.

        The returned arrays broadcast against each other with one axis per
        loop (outermost first), so any affine index can be evaluated over
        the whole space with :meth:`AffineIndex.evaluate_grid`.
        """
        axes = [loop.values() for loop in self.loops]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        return {loop.var: grid for loop, grid in zip(self.loops, grids)}

    def trip_counts(self) -> tuple[int, ...]:
        return tuple(loop.trip_count for loop in self.loops)

    def __str__(self) -> str:
        lines = [str(loop) for loop in self.loops]
        lines += [f"  {stmt}" for stmt in self.body]
        return "\n".join(lines)
