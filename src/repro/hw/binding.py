"""Array-to-storage binding.

Decides, for a kernel plus a register allocation, which arrays occupy RAM
blocks and how many block primitives each needs.  The rules follow the
paper's execution model:

* every *input* array that has any RAM access (i.e. is not fully register-
  resident for the whole computation) occupies its own logical RAM;
* every *output* array occupies a RAM — final values must land in
  addressable storage regardless of scalar replacement;
* *temp* arrays occupy a RAM only if some access actually reaches RAM
  (a fully covered temp lives entirely in registers);
* distinct arrays never share a logical RAM, so accesses to different
  arrays can be issued concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindingError
from repro.hw.device import Device
from repro.hw.ram import RamSpec, blocks_needed
from repro.ir.expr import Array
from repro.ir.kernel import Kernel

__all__ = ["StorageBinding", "bind_arrays"]


@dataclass(frozen=True)
class StorageBinding:
    """Result of binding: which arrays sit in RAM and the block budget.

    Attributes
    ----------
    ram_arrays:
        Names of arrays bound to logical RAMs.
    blocks_by_array:
        Physical BlockRAM primitives consumed per bound array.
    """

    ram_arrays: frozenset[str]
    blocks_by_array: dict[str, int]

    @property
    def total_blocks(self) -> int:
        return sum(self.blocks_by_array.values())


def bind_arrays(
    kernel: Kernel,
    ram_resident: "frozenset[str] | set[str]",
    device: Device,
    spec: RamSpec | None = None,
) -> StorageBinding:
    """Bind arrays to RAM blocks on ``device``.

    Parameters
    ----------
    kernel:
        The kernel whose arrays are being placed.
    ram_resident:
        Names of arrays with at least one RAM access under the chosen
        allocation (computed from coverage results by the pipeline).
    device:
        Target device; binding fails if the block budget is exceeded.
    spec:
        RAM block parameters; defaults to the device's block size with
        its port count.
    """
    spec = spec or RamSpec(kbits=device.bram_kbits, ports=device.bram_ports)
    bound: dict[str, int] = {}
    for array in kernel.arrays.values():
        needs_ram = array.name in ram_resident or array.role == "output"
        if array.role == "input" and array.name in ram_resident:
            needs_ram = True
        if needs_ram:
            bound[array.name] = blocks_needed(array, spec)
    total = sum(bound.values())
    if total > device.bram_blocks:
        raise BindingError(
            f"kernel {kernel.name} needs {total} BlockRAMs but "
            f"{device.name} has {device.bram_blocks}"
        )
    return StorageBinding(frozenset(bound), bound)
