"""Shared fixtures: the paper's running example, small test kernels and
an editable copy of the source tree."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.bench.example import build_example_kernel
from repro.ir import INT16, INT32, KernelBuilder


@pytest.fixture(scope="session")
def example_kernel():
    """The Figure 1 kernel at the reconstructed bounds (4, 20, 30)."""
    return build_example_kernel()


@pytest.fixture(scope="session")
def tiny_example_kernel():
    """The Figure 1 kernel at tiny bounds for fast functional tests."""
    return build_example_kernel(ni=2, nj=4, nk=5)


@pytest.fixture()
def small_fir():
    """An 8-output, 4-tap FIR — fast enough for exhaustive simulation."""
    from repro.kernels import build_fir

    return build_fir(n=8, taps=4)


@pytest.fixture()
def small_mat():
    """A 4x4 matrix multiply."""
    from repro.kernels import build_mat

    return build_mat(n=4)


def make_copy_kernel(n: int = 6, m: int = 5):
    """out[i][j] = src[j]: one invariant read, one plain write."""
    b = KernelBuilder("copyk")
    i = b.loop("i", n)
    j = b.loop("j", m)
    src = b.array("src", (m,), INT16)
    out = b.array("out", (n, m), INT32, role="output")
    b.assign(out[i, j], src[j] + 0)
    return b.build()


@pytest.fixture()
def copy_kernel():
    return make_copy_kernel()


@pytest.fixture()
def copied_tree(tmp_path):
    """A private copy of the installed repro sources to edit freely."""
    source = Path(repro.__file__).resolve().parent
    target = tmp_path / "repro"
    shutil.copytree(
        source, target, ignore=shutil.ignore_patterns("__pycache__")
    )
    return target
