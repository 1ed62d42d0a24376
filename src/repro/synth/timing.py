"""Clock-period estimation.

Stands in for the paper's Monet -> Synplify Pro -> Xilinx ISE flow, which
is proprietary and not reproducible here.  The model captures the *mechanisms* the paper
uses to explain its clock-rate observations:

* the base period covers the slowest single-cycle datapath stage (widest
  operator or a BlockRAM access) plus FSM overhead;
* register files add operand-select multiplexers whose depth grows with
  the register count (LUT-based 4:1 mux trees) — this is why the paper's
  v3 designs, which use almost the whole register budget, lose ~8% clock
  rate on average;
* *partial* coverage adds an index comparator in the operand path (is the
  accessed element in registers?) — extra decode logic that the paper
  blames for v2's degradations;
* operations whose two inputs arrive from *different storage types* (one
  register, one RAM) need steering/alignment logic; the paper singles
  this out for Dec-FIR and PAT v2 ("inputs to the same operations are
  located in distinct types of storage").

Constants are calibrated so the Table 1 *trends* hold (a few percent per
mechanism); absolute nanoseconds are representative of 2000-era Virtex
designs, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

from repro.dfg.graph import DataFlowGraph
from repro.dfg.nodes import OpNode
from repro.hw.device import Device
from repro.hw.ops import op_spec

__all__ = ["TimingEstimate", "estimate_clock"]


@dataclass(frozen=True)
class TimingEstimate:
    """Clock-period breakdown in nanoseconds."""

    base_ns: float
    mux_ns: float
    partial_control_ns: float
    mixed_operand_ns: float

    @property
    def period_ns(self) -> float:
        return self.base_ns + self.mux_ns + self.partial_control_ns + self.mixed_operand_ns

    @property
    def frequency_mhz(self) -> float:
        return 1000.0 / self.period_ns


def _mux_levels(inputs: int) -> float:
    """Depth of a LUT-based 4:1 multiplexer tree selecting one of ``inputs``.

    Continuous (fractional levels) so the penalty grows smoothly with the
    register count rather than jumping at power-of-four boundaries.
    """
    if inputs <= 1:
        return 0.0
    return log(inputs, 4)


# Penalty calibration (fractions of a LUT+net level per structure).  These
# put v3's typical degradation in the high-single-digit percent range the
# paper reports, with v2's mixed-operand designs a few percent behind.
_MUX_LEVEL_FACTOR = 0.35
_PARTIAL_FACTOR = 0.55
_MIXED_FACTOR = 0.40
# Fraction of the datapath/RAM combinational delay that shows up on the
# critical register-to-register path of the sequential FSM design.
_STAGE_FACTOR = 0.25


def estimate_clock(
    dfg: DataFlowGraph,
    device: Device,
    total_registers: int,
    partial_groups: int,
    mixed_operand_ops: int,
) -> TimingEstimate:
    """Estimate the achievable clock period of one design point.

    Parameters
    ----------
    dfg:
        Loop-body DFG (provides operator widths).
    device:
        Target device timing characteristics.
    total_registers:
        Registers allocated across all reference groups.
    partial_groups:
        Reference groups with partial coverage (1 < r < beta).
    mixed_operand_ops:
        Operations with one register-resident and one RAM-resident input
        under the steady-state allocation.
    """
    op_delay = max(
        (op_spec(n.op).delay_ns(n.bits) for n in dfg.ops()),
        default=0.0,
    )
    stage = device.min_clock_ns + _STAGE_FACTOR * (
        op_delay + device.bram_access_ns + device.net_delay_ns
    )
    level_ns = device.lut_delay_ns + device.net_delay_ns
    mux = _mux_levels(total_registers) * _MUX_LEVEL_FACTOR * level_ns
    partial = partial_groups * _PARTIAL_FACTOR * level_ns
    mixed = mixed_operand_ops * _MIXED_FACTOR * level_ns
    return TimingEstimate(
        base_ns=stage,
        mux_ns=mux,
        partial_control_ns=partial,
        mixed_operand_ns=mixed,
    )
