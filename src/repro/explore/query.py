"""Design-space points: queries in, records out.

A :class:`DesignQuery` is one hashable, picklable, JSON-serializable
coordinate in the exploration space — everything
:func:`repro.core.pipeline.evaluate_kernel` needs to reproduce one design
point from scratch in another process.  Kernels and devices outside the
built-in registries travel embedded as JSON so arbitrary sweep subjects
(e.g. the down-sized test kernels) remain cacheable and remotable.

A :class:`DesignRecord` is the flat, JSON-safe result: the Table 1
metrics plus the allocation itself.  Infeasible points (e.g. a budget
below the mandatory one-register-per-reference floor) are captured as
failed records instead of aborting a sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.hw.device import DEVICES, XCV1000, Device

if TYPE_CHECKING:
    from repro.dfg.latency import LatencyModel
    from repro.ir.kernel import Kernel
    from repro.synth.design import HardwareDesign

__all__ = [
    "LatencySpec",
    "DesignQuery",
    "DesignRecord",
    "METRIC_FIELDS",
    "kernel_identity",
    "device_identity",
]


def kernel_identity(kernel: "Kernel | str") -> "tuple[str, str | None]":
    """``(name, embedded_json)`` for a sweep subject.

    Registry kernels travel by name alone; anything else embeds its full
    JSON.  Call once per kernel when building many queries — the registry
    comparison and serialization are not free.  A name needs no IR, so
    only an in-memory kernel loads the IR and the kernel registry.
    """
    if isinstance(kernel, str):
        return kernel, None
    from repro.ir.kernel import Kernel
    from repro.ir.serialize import kernel_to_json
    from repro.kernels.registry import KERNEL_FACTORIES

    if not isinstance(kernel, Kernel):
        return kernel, None
    name = kernel.name
    if name in KERNEL_FACTORIES and KERNEL_FACTORIES[name]() == kernel:
        return name, None
    return name, kernel_to_json(kernel, indent=None)


def device_identity(device: "Device | str") -> "tuple[str, str | None]":
    """``(name, embedded_json)`` for a target device (catalog or custom)."""
    if not isinstance(device, Device):
        return device, None
    if DEVICES.get(device.name) == device:
        return device.name, None
    return device.name, json.dumps(dataclasses.asdict(device), sort_keys=True)


@dataclass(frozen=True)
class LatencySpec:
    """A JSON-safe, hashable stand-in for a LatencyModel.

    ``kind`` is ``"default"`` (the pipeline's realistic model with its
    two-cycle RAM access), ``"realistic"``, ``"tmem"`` or ``"custom"``
    (arbitrary per-operator latencies, captured verbatim so custom
    models stay cacheable).  A ``ram_latency`` of 0 normalizes to the
    kind's default: 2 for ``realistic`` (matching the pipeline default,
    so a bare ``realistic`` evaluates like ``default``), 1 for ``tmem``.
    """

    kind: str = "default"
    ram_latency: int = 0
    reg_latency: int = 0
    op_latency: "tuple[tuple[str, int], ...] | None" = None

    _KINDS = ("default", "realistic", "tmem", "custom")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ReproError(
                f"unknown latency kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )
        if self.ram_latency < 0 or self.reg_latency < 0:
            raise ReproError("latencies must be non-negative")
        if self.kind == "default":
            if self.ram_latency or self.reg_latency or self.op_latency:
                raise ReproError(
                    "the default latency model takes no parameters; use "
                    "kind='realistic' or kind='custom'"
                )
            return
        if self.kind == "custom":
            if self.op_latency is None:
                raise ReproError(
                    "kind='custom' requires explicit op_latency entries"
                )
            if self.ram_latency < 1:
                raise ReproError("custom latency needs ram_latency >= 1")
            object.__setattr__(
                self, "op_latency", tuple(sorted(tuple(self.op_latency)))
            )
            return
        # realistic / tmem: parameterized only by RAM latency.
        if self.reg_latency or self.op_latency is not None:
            raise ReproError(
                f"kind={self.kind!r} takes only a ram_latency; use "
                f"kind='custom' for anything else"
            )
        if self.ram_latency == 0:
            object.__setattr__(
                self, "ram_latency", 2 if self.kind == "realistic" else 1
            )

    def to_model(self) -> "LatencyModel | None":
        """The LatencyModel to hand to the pipeline (None = its default)."""
        if self.kind == "default":
            return None
        from repro.dfg.latency import LatencyModel
        from repro.ir.expr import Op

        if self.kind == "tmem":
            return LatencyModel.tmem(ram_latency=self.ram_latency)
        if self.kind == "realistic":
            return LatencyModel.realistic(ram_latency=self.ram_latency)
        return LatencyModel(
            op_latency={Op[name]: value for name, value in self.op_latency},
            ram_latency=self.ram_latency,
            reg_latency=self.reg_latency,
        )

    @staticmethod
    def from_model(model: "LatencyModel | None") -> "LatencySpec":
        """The spec of any LatencyModel (named where possible)."""
        if model is None:
            return LatencySpec()
        from repro.hw.ops import default_op_latencies

        if model.reg_latency == 0:
            if all(lat == 0 for lat in model.op_latency.values()):
                return LatencySpec("tmem", model.ram_latency)
            if dict(model.op_latency) == default_op_latencies():
                return LatencySpec("realistic", model.ram_latency)
        return LatencySpec(
            "custom",
            ram_latency=model.ram_latency,
            reg_latency=model.reg_latency,
            op_latency=tuple(
                (op.name, value) for op, value in model.op_latency.items()
            ),
        )

    @property
    def label(self) -> str:
        if self.kind == "default":
            return "default"
        if self.kind == "custom" and self.reg_latency:
            return f"custom(L={self.ram_latency},R={self.reg_latency})"
        return f"{self.kind}(L={self.ram_latency})"

    def key(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind, "ram_latency": self.ram_latency
        }
        if self.kind == "custom":
            doc["reg_latency"] = self.reg_latency
            doc["op_latency"] = [list(item) for item in self.op_latency]
        return doc

    @staticmethod
    def from_key(doc: dict[str, Any]) -> "LatencySpec":
        op_latency = doc.get("op_latency")
        return LatencySpec(
            doc["kind"],
            ram_latency=int(doc["ram_latency"]),
            reg_latency=int(doc.get("reg_latency", 0)),
            op_latency=(
                tuple((name, int(value)) for name, value in op_latency)
                if op_latency is not None
                else None
            ),
        )

    @staticmethod
    def coerce(value: "LatencySpec | tuple | str") -> "LatencySpec":
        """Accept a spec, a ``(kind, ram_latency)`` pair or a bare kind."""
        if isinstance(value, LatencySpec):
            return value
        if isinstance(value, str):
            return LatencySpec(value)
        kind, ram_latency = value
        return LatencySpec(kind, int(ram_latency))


@dataclass(frozen=True)
class DesignQuery:
    """One point of the design space, self-contained and hashable.

    ``kernel`` / ``device`` are registry names; when the subject is not a
    registry entry, ``kernel_json`` / ``device_json`` embed the full
    definition and the name is display-only.  ``ram_ports`` of 0 means
    the device default.
    """

    kernel: str
    allocator: str
    budget: int
    latency: LatencySpec = field(default_factory=LatencySpec)
    device: str = XCV1000.name
    ram_ports: int = 0
    overhead: int = 1
    kernel_json: "str | None" = None
    device_json: "str | None" = None

    @staticmethod
    def from_kernel(
        kernel: "Kernel | str",
        allocator: str,
        budget: int,
        latency: "LatencySpec | None" = None,
        device: "Device | str" = XCV1000,
        ram_ports: int = 0,
        overhead: int = 1,
    ) -> "DesignQuery":
        """Build a query from in-memory kernel/device objects."""
        name, kernel_json = kernel_identity(kernel)
        device_name, device_json = device_identity(device)
        return DesignQuery(
            kernel=name,
            allocator=allocator,
            budget=budget,
            latency=latency or LatencySpec(),
            device=device_name,
            ram_ports=ram_ports,
            overhead=overhead,
            kernel_json=kernel_json,
            device_json=device_json,
        )

    def build_kernel(self) -> "Kernel":
        if self.kernel_json is not None:
            from repro.ir.serialize import kernel_from_json

            return kernel_from_json(self.kernel_json)
        from repro.kernels.registry import KERNEL_FACTORIES

        try:
            return KERNEL_FACTORIES[self.kernel]()
        except KeyError:
            raise ReproError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {sorted(KERNEL_FACTORIES)}"
            )

    def build_device(self) -> Device:
        if self.device_json is not None:
            return Device(**json.loads(self.device_json))
        try:
            return DEVICES[self.device]
        except KeyError:
            raise ReproError(
                f"unknown device {self.device!r}; available: {sorted(DEVICES)}"
            )

    def key(self) -> dict[str, Any]:
        """The canonical JSON-safe identity of this query."""
        return {
            "kernel": self.kernel,
            "allocator": self.allocator,
            "budget": self.budget,
            "latency": self.latency.key(),
            "device": self.device,
            "ram_ports": self.ram_ports,
            "overhead": self.overhead,
            "kernel_json": self.kernel_json,
            "device_json": self.device_json,
        }

    def digest(self) -> str:
        """Content hash of the query (the cache key's config half)."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Computed once per query: cache lookup and put both key on it.
        canonical = json.dumps(self.key(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

    @staticmethod
    def from_key(doc: dict[str, Any]) -> "DesignQuery":
        return DesignQuery(
            kernel=doc["kernel"],
            allocator=doc["allocator"],
            budget=int(doc["budget"]),
            latency=LatencySpec.from_key(doc["latency"]),
            device=doc["device"],
            ram_ports=int(doc["ram_ports"]),
            overhead=int(doc["overhead"]),
            kernel_json=doc.get("kernel_json"),
            device_json=doc.get("device_json"),
        )

    def describe(self) -> str:
        return (
            f"{self.kernel}/{self.allocator} budget={self.budget} "
            f"latency={self.latency.label} device={self.device}"
        )


#: Scalar metric columns of a record, in export order.
METRIC_FIELDS = (
    "cycles",
    "total_ram_accesses",
    "memory_cycles",
    "clock_ns",
    "wall_clock_us",
    "slices",
    "occupancy_pct",
    "ram_arrays",
    "ram_blocks",
    "total_registers",
)


@dataclass(frozen=True)
class DesignRecord:
    """The evaluated outcome of one :class:`DesignQuery`.

    Failed (infeasible) points carry ``error``/``error_type`` and ``None``
    metrics; successful points carry every Table 1 column plus the
    allocation's register distribution.  *Crashed* points — unexpected
    non-:class:`~repro.errors.ReproError` exceptions in a worker — carry
    the worker ``traceback`` as well, so one bad point never aborts a
    sweep (see :class:`~repro.explore.executor.Executor`).

    ``seconds`` is the evaluation wall time of this point; it is
    bookkeeping, not identity — excluded from equality and from
    :meth:`to_dict`, persisted only in the cache entry envelope.
    ``stages`` is the per-span self-time breakdown of the same
    evaluation (kernel / alloc / dfg_schedule / trace / cycles / other,
    see :mod:`repro.spans`), equally bookkeeping: excluded from equality, never serialized, aggregated by
    :class:`~repro.explore.executor.ExploreStats` for ``--profile``.
    """

    query: DesignQuery
    error: "str | None" = None
    error_type: "str | None" = None
    traceback: "str | None" = None
    seconds: "float | None" = field(default=None, compare=False)
    stages: "dict[str, float] | None" = field(default=None, compare=False)
    cycles: "int | None" = None
    total_ram_accesses: "int | None" = None
    memory_cycles: "int | None" = None
    clock_ns: "float | None" = None
    wall_clock_us: "float | None" = None
    slices: "int | None" = None
    occupancy_pct: "float | None" = None
    ram_arrays: "int | None" = None
    ram_blocks: "int | None" = None
    total_registers: "int | None" = None
    betas: dict[str, int] = field(default_factory=dict)
    registers: dict[str, int] = field(default_factory=dict)
    distribution: str = ""
    #: Exactness provenance (see :class:`~repro.core.allocation.
    #: Allocation`): ``None`` for heuristic allocators, ``True`` for a
    #: certified OPT-RA optimum, ``False`` when its node/time box
    #: truncated the search (then ``opt_lower_bound < cycles`` brackets
    #: the true optimum).  Truncated records are never cached.
    certified: "bool | None" = None
    opt_lower_bound: "int | None" = None
    #: True for a poison point: it kept failing (crash, lost worker,
    #: expired deadline) past the retry budget and the supervisor gave
    #: up on it.  Quarantined records are never cached, so a resume
    #: retries the point.
    quarantined: bool = False
    #: How many evaluation attempts this record took (None = the first
    #: attempt succeeded, or the record came from the cache).
    #: Bookkeeping like ``seconds``:
    #: excluded from equality and from :meth:`to_dict`.
    attempts: "int | None" = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def truncated(self) -> bool:
        """True when an exact-search allocator ran out of its box."""
        return self.certified is False

    @property
    def crash(self) -> bool:
        """True for an unexpected-exception record (vs a domain failure)."""
        return self.traceback is not None

    @staticmethod
    def from_design(
        query: DesignQuery, design: HardwareDesign, device: Device
    ) -> "DesignRecord":
        allocation = design.allocation
        return DesignRecord(
            query=query,
            cycles=design.total_cycles,
            total_ram_accesses=design.cycles.total_ram_accesses,
            memory_cycles=design.cycles.memory_cycles,
            clock_ns=design.clock_ns,
            wall_clock_us=design.wall_clock_us,
            slices=design.slices,
            occupancy_pct=device.occupancy(design.slices) * 100,
            ram_arrays=len(design.binding.ram_arrays),
            ram_blocks=design.ram_blocks,
            total_registers=allocation.total_registers,
            betas=dict(allocation.betas),
            registers=dict(allocation.registers),
            distribution=allocation.distribution(),
            certified=(
                None if allocation.lower_bound is None
                else allocation.certified
            ),
            opt_lower_bound=allocation.lower_bound,
        )

    @staticmethod
    def failed(query: DesignQuery, exc: BaseException) -> "DesignRecord":
        return DesignRecord(
            query=query, error=str(exc), error_type=type(exc).__name__
        )

    @staticmethod
    def crashed(query: DesignQuery, exc: BaseException) -> "DesignRecord":
        """A record for an *unexpected* worker exception, traceback and all."""
        import traceback as tb_mod

        return DesignRecord(
            query=query,
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
            traceback="".join(
                tb_mod.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def raise_error(self) -> None:
        """Re-raise a failed record as its original exception type.

        Types are resolved from :mod:`repro.errors`, then builtins;
        anything else (third-party exceptions, multi-argument builtin
        constructors like ``UnicodeDecodeError``) falls back to
        :class:`ReproError` — the message always carries the original
        type name and, for crash records, the worker traceback.
        """
        if self.ok:
            return
        import builtins

        import repro.errors as errors_mod

        exc_type: Any = ReproError
        for namespace in (errors_mod, builtins):
            candidate = getattr(namespace, self.error_type or "", None)
            if isinstance(candidate, type) and issubclass(candidate, Exception):
                exc_type = candidate
                break
        message = self.error
        if self.traceback:
            message = f"{self.error}\n--- worker traceback ---\n{self.traceback}"
        try:
            exc = exc_type(message)
        except TypeError:
            # Constructors with mandatory extra arguments cannot be
            # rebuilt from a message alone.
            exc = ReproError(f"{self.error_type}: {message}")
        raise exc

    def value_of(self, name: str) -> Any:
        """Look a field up on the record, then the query (for filtering)."""
        if name == "latency":
            return self.query.latency.label
        for obj in (self, self.query):
            if hasattr(obj, name):
                return getattr(obj, name)
        raise ReproError(
            f"no such field {name!r} on DesignRecord/DesignQuery"
        )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"query": self.key_dict()}
        if not self.ok:
            doc["error"] = self.error
            doc["error_type"] = self.error_type
            if self.traceback is not None:
                doc["traceback"] = self.traceback
            if self.quarantined:
                doc["quarantined"] = True
            return doc
        for name in METRIC_FIELDS:
            doc[name] = getattr(self, name)
        doc["betas"] = dict(self.betas)
        doc["registers"] = dict(self.registers)
        doc["distribution"] = self.distribution
        if self.certified is not None:
            # Exact-search provenance; heuristic records omit the keys
            # so their serialized form is unchanged.
            doc["certified"] = self.certified
            doc["opt_lower_bound"] = self.opt_lower_bound
        return doc

    def key_dict(self) -> dict[str, Any]:
        return self.query.key()

    @staticmethod
    def from_dict(
        doc: dict[str, Any],
        seconds: "float | None" = None,
        query: "DesignQuery | None" = None,
    ) -> "DesignRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``seconds`` is envelope bookkeeping (see the class docstring),
        passed separately because ``doc`` never carries it.  ``query``,
        when given, is the query the caller already holds and knows
        ``doc["query"]`` to describe; it spares re-parsing the key.
        """
        if query is None:
            query = DesignQuery.from_key(doc["query"])
        if doc.get("error") is not None:
            return DesignRecord(
                query=query,
                seconds=seconds,
                error=doc["error"],
                error_type=doc.get("error_type"),
                traceback=doc.get("traceback"),
                quarantined=bool(doc.get("quarantined", False)),
            )
        return DesignRecord(
            query=query,
            seconds=seconds,
            betas={k: int(v) for k, v in doc.get("betas", {}).items()},
            registers={k: int(v) for k, v in doc.get("registers", {}).items()},
            distribution=doc.get("distribution", ""),
            certified=doc.get("certified"),
            opt_lower_bound=doc.get("opt_lower_bound"),
            **{name: doc.get(name) for name in METRIC_FIELDS},
        )
