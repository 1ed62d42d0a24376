"""Hardware models: devices, RAM blocks, registers and operator costs."""

__all__ = [
    "DEVICES",
    "Device",
    "OP_LIBRARY",
    "OpSpec",
    "RamSpec",
    "RegisterFile",
    "StorageBinding",
    "VIRTEX2_XC2V1000",
    "XCV300",
    "XCV1000",
    "bind_arrays",
    "blocks_needed",
    "default_op_latencies",
    "op_spec",
]


def __getattr__(name: str):
    # PEP 562 lazy re-export; plain imports keep the AST import graph whole.
    if name in ("StorageBinding", "bind_arrays"):
        from repro.hw import binding as module
    elif name in ("DEVICES", "VIRTEX2_XC2V1000", "XCV300", "XCV1000",
                  "Device"):
        from repro.hw import device as module
    elif name in ("OP_LIBRARY", "OpSpec", "default_op_latencies", "op_spec"):
        from repro.hw import ops as module
    elif name in ("RamSpec", "blocks_needed"):
        from repro.hw import ram as module
    elif name == "RegisterFile":
        from repro.hw import regfile as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
