"""Declarative exploration spaces.

An :class:`ExplorationSpace` is the cross-product of kernels, allocators,
register budgets, latency models, devices and RAM-port counts; it expands
to a deterministic list of :class:`~repro.explore.query.DesignQuery`
points (kernel-major, allocator innermost, mirroring how the serial
harnesses walked the same grids).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.hw.device import DEVICES, XCV1000
from repro.explore.query import DesignQuery, LatencySpec, kernel_identity
from repro.plugins import ALLOCATOR_MODULES, KERNEL_MODULES, PAPER_REGISTER_BUDGET

__all__ = ["ExplorationSpace"]


def _tupled(value) -> tuple:
    """One axis value (a name, number, kernel or spec) or an iterable of them."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


def _check_kernel(name: str) -> None:
    """Reject an unknown kernel name; the live registry is consulted
    only for names registered at run time."""
    if name in KERNEL_MODULES:
        return
    from repro.kernels.registry import KERNEL_FACTORIES

    if name not in KERNEL_FACTORIES:
        raise ReproError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_FACTORIES)}"
        )


def _latency_axis(value) -> tuple[LatencySpec, ...]:
    """Normalize the latencies axis; a bare ``(kind, N)`` pair is ONE spec."""
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], int)
    ):
        return (LatencySpec.coerce(tuple(value)),)
    return tuple(LatencySpec.coerce(spec) for spec in _tupled(value))


@dataclass(frozen=True)
class ExplorationSpace:
    """A cross-product of design-space axes.

    Axes accept single values or iterables; kernels may be registry names
    or in-memory :class:`~repro.ir.kernel.Kernel` objects; latencies may
    be :class:`LatencySpec` instances, ``(kind, ram_latency)`` pairs or
    bare kind strings.  A ``ram_ports`` of 0 means the device default.
    """

    kernels: tuple = tuple(KERNEL_MODULES)
    allocators: tuple[str, ...] = tuple(ALLOCATOR_MODULES)
    budgets: tuple[int, ...] = (PAPER_REGISTER_BUDGET,)
    latencies: tuple[LatencySpec, ...] = field(
        default_factory=lambda: (LatencySpec(),)
    )
    devices: tuple[str, ...] = (XCV1000.name,)
    ram_ports: tuple[int, ...] = (0,)
    overhead: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", _tupled(self.kernels))
        object.__setattr__(self, "allocators", _tupled(self.allocators))
        object.__setattr__(self, "budgets", _tupled(self.budgets))
        object.__setattr__(self, "latencies", _latency_axis(self.latencies))
        object.__setattr__(self, "devices", _tupled(self.devices))
        object.__setattr__(self, "ram_ports", _tupled(self.ram_ports))
        for axis in ("kernels", "allocators", "budgets", "latencies",
                     "devices", "ram_ports"):
            if not getattr(self, axis):
                raise ReproError(f"exploration axis {axis!r} is empty")
        for kernel in self.kernels:
            if isinstance(kernel, str):
                _check_kernel(kernel)
        for allocator in self.allocators:
            if allocator not in ALLOCATOR_MODULES:
                raise ReproError(
                    f"unknown allocator {allocator!r}; "
                    f"available: {sorted(ALLOCATOR_MODULES)}"
                )
        for budget in self.budgets:
            if budget < 1:
                raise ReproError(f"register budget must be >= 1, got {budget}")
        for device in self.devices:
            if device not in DEVICES:
                raise ReproError(
                    f"unknown device {device!r}; available: {sorted(DEVICES)}"
                )
        for ports in self.ram_ports:
            if ports not in (0, 1, 2):
                raise ReproError(
                    f"ram_ports must be 0 (device default), 1 or 2; got {ports}"
                )

    @property
    def size(self) -> int:
        """Number of design points the space expands to."""
        return (
            len(self.kernels) * len(self.allocators) * len(self.budgets)
            * len(self.latencies) * len(self.devices) * len(self.ram_ports)
        )

    def expand(self) -> list[DesignQuery]:
        """All design points, in deterministic nesting order."""
        queries: list[DesignQuery] = []
        for kernel in self.kernels:
            # Registry lookup / kernel serialization once per kernel, not
            # once per grid point.
            name, kernel_json = kernel_identity(kernel)
            for budget in self.budgets:
                for latency in self.latencies:
                    for device in self.devices:
                        for ports in self.ram_ports:
                            for allocator in self.allocators:
                                queries.append(
                                    DesignQuery(
                                        kernel=name,
                                        allocator=allocator,
                                        budget=budget,
                                        latency=latency,
                                        device=device,
                                        ram_ports=ports,
                                        overhead=self.overhead,
                                        kernel_json=kernel_json,
                                    )
                                )
        return queries

    def __len__(self) -> int:
        return self.size
