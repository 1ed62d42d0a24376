"""Kernel registry: the paper's six-benchmark suite at its parameters.

The available paper text garbles several size constants (OCR damage); the
values here follow the legible prose — 2-deep nests everywhere except
3-deep MAT and 4-deep BIC, an 8-character pattern over a 1024-character
string, a 4x4 template over a 16x16 image — and pick conventional sizes
where the text is unreadable.  EXPERIMENTS.md records each choice.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ReproError, ValidationError
from repro.ir.kernel import Kernel
from repro.ir.validate import validate_kernel
from repro.kernels.bic import build_bic
from repro.kernels.decfir import build_decfir
from repro.kernels.fir import build_fir
from repro.kernels.imi import build_imi
from repro.kernels.mat import build_mat
from repro.kernels.pat import build_pat
from repro.plugins import PAPER_REGISTER_BUDGET

__all__ = ["KERNEL_FACTORIES", "paper_kernels", "get_kernel", "PAPER_REGISTER_BUDGET"]

KERNEL_FACTORIES: dict[str, Callable[[], Kernel]] = {
    "fir": build_fir,
    "decfir": build_decfir,
    "mat": build_mat,
    "imi": build_imi,
    "pat": build_pat,
    "bic": build_bic,
}


def _validate_registry(
    factories: "dict[str, Callable[[], Kernel]] | None" = None,
) -> None:
    """Build every registered kernel once and run the IR validator.

    Runs at import time so a malformed registration fails loudly at the
    registry, naming the kernel — not deep inside the first analysis
    pass that happens to touch it.  The six paper kernels build in a few
    milliseconds, so the import-time cost is negligible next to the
    analyses that follow.
    """
    for name, factory in (factories or KERNEL_FACTORIES).items():
        try:
            validate_kernel(factory())
        except ValidationError as exc:
            raise ReproError(
                f"kernel registry entry {name!r} failed IR validation "
                f"at import: {exc}"
            ) from exc


_validate_registry()


def paper_kernels() -> list[Kernel]:
    """All six evaluation kernels at their paper parameters."""
    return [factory() for factory in KERNEL_FACTORIES.values()]


def get_kernel(name: str) -> Kernel:
    """Build one paper kernel by name (``fir``, ``decfir``, ``mat``,
    ``imi``, ``pat``, ``bic``)."""
    try:
        return KERNEL_FACTORIES[name]()
    except KeyError:
        raise ReproError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_FACTORIES)}"
        )
