"""Tests for the six paper kernels: structure and functional correctness."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.kernels import (
    KERNEL_FACTORIES,
    PAPER_REGISTER_BUDGET,
    bic_reference,
    build_bic,
    build_decfir,
    build_fir,
    build_imi,
    build_mat,
    build_pat,
    decfir_reference,
    fir_reference,
    get_kernel,
    imi_reference,
    mat_reference,
    paper_kernels,
    pat_reference,
)
from repro.sim.interp import random_inputs, run_kernel


class TestRegistry:
    def test_six_kernels(self):
        kernels = paper_kernels()
        assert [k.name for k in kernels] == [
            "fir", "decfir", "mat", "imi", "pat", "bic",
        ]

    def test_budget_constant(self):
        assert PAPER_REGISTER_BUDGET == 64

    def test_get_kernel(self):
        assert get_kernel("fir").name == "fir"
        with pytest.raises(ReproError):
            get_kernel("nope")

    def test_depths_match_paper(self):
        depths = {k.name: k.depth for k in paper_kernels()}
        # "all kernels are 2-deep except 3-deep MAT and 4-deep BIC"
        assert depths == {
            "fir": 2, "decfir": 2, "mat": 3, "imi": 2, "pat": 2, "bic": 4,
        }

    def test_all_validate(self):
        from repro.ir import validate_kernel

        for kernel in paper_kernels():
            validate_kernel(kernel)


class TestFunctionalCorrectness:
    """Each kernel's IR must compute what its numpy reference computes."""

    def test_fir(self):
        kern = build_fir(n=16, taps=4)
        inputs = random_inputs(kern, seed=0)
        mem = run_kernel(kern, inputs)
        assert np.array_equal(mem["y"], fir_reference(inputs["x"], inputs["c"]))

    def test_decfir(self):
        kern = build_decfir(n=8, taps=4, decimation=2)
        inputs = random_inputs(kern, seed=1)
        mem = run_kernel(kern, inputs)
        expected = decfir_reference(inputs["x"], inputs["c"], decimation=2)
        assert np.array_equal(mem["y"], expected)

    def test_mat(self):
        kern = build_mat(n=5)
        inputs = random_inputs(kern, seed=2)
        mem = run_kernel(kern, inputs)
        assert np.array_equal(mem["C"], mat_reference(inputs["A"], inputs["B"]))

    def test_imi(self):
        kern = build_imi(pixels=16, frames=4)
        inputs = random_inputs(kern, seed=3)
        mem = run_kernel(kern, inputs)
        expected = imi_reference(
            inputs["imgA"], inputs["imgB"], inputs["w1"], inputs["w2"]
        )
        assert np.array_equal(mem["out"], expected)

    def test_pat(self):
        kern = build_pat(text_len=64, pattern_len=8)
        inputs = random_inputs(kern, seed=4)
        mem = run_kernel(kern, inputs)
        expected = pat_reference(inputs["s"], inputs["p"])
        assert np.array_equal(mem["match"], expected)

    def test_pat_finds_planted_pattern(self):
        kern = build_pat(text_len=32, pattern_len=4)
        s = np.zeros(32, dtype=np.int64)
        p = np.array([1, 2, 3, 4], dtype=np.int64)
        s[10:14] = p
        mem = run_kernel(kern, {"s": s, "p": p})
        assert mem["match"][10] == 4
        # Elsewhere at most 3 characters can match.
        others = np.delete(mem["match"], 10)
        assert others.max() < 4

    def test_bic(self):
        kern = build_bic(image=8, template=3)
        inputs = random_inputs(kern, seed=5)
        img = inputs["I"] & 1
        tpl = inputs["T"] & 1
        mem = run_kernel(kern, {"I": img, "T": tpl})
        assert np.array_equal(mem["corr"], bic_reference(img, tpl))

    def test_bic_perfect_match_site(self):
        kern = build_bic(image=8, template=3)
        rng = np.random.default_rng(0)
        img = rng.integers(0, 2, size=(8, 8))
        tpl = img[2:5, 3:6].copy()
        mem = run_kernel(kern, {"I": img, "T": tpl})
        # Zero mismatches exactly where the template was cut out.
        assert mem["corr"][2, 3] == 0


class TestReuseStructure:
    """The reuse analysis must see the structures the paper describes."""

    def test_fir_betas(self):
        from repro.analysis import build_groups

        groups = {g.name: g for g in build_groups(build_fir())}
        assert groups["c[j]"].full_registers == 32
        assert groups["x[i + j]"].full_registers == 32
        assert groups["y[i]"].full_registers == 1

    def test_mat_betas(self):
        from repro.analysis import build_groups

        groups = {g.name: g for g in build_groups(build_mat())}
        assert groups["A[i][k]"].full_registers == 16
        assert groups["B[k][j]"].full_registers == 256
        assert groups["C[i][j]"].full_registers == 1

    def test_bic_betas(self):
        from repro.analysis import build_groups

        groups = {g.name: g for g in build_groups(build_bic())}
        assert groups["T[u][v]"].full_registers == 16
        assert groups["I[r + u][c + v]"].full_registers == 64

    def test_factories_are_parameterizable(self):
        assert build_fir(n=10, taps=3).iteration_count == 30
        assert build_mat(n=3).iteration_count == 27


class TestRegistryValidation:
    """The registry IR-validates every factory when it is constructed."""

    def test_shipped_registry_passes(self):
        from repro.kernels.registry import _validate_registry

        _validate_registry()

    def test_broken_factory_fails_loudly_naming_the_kernel(self):
        from repro.ir import INT16, INT32, KernelBuilder
        from repro.kernels.registry import _validate_registry

        def build_broken():
            b = KernelBuilder("broken")
            i = b.loop("i", 4)
            x = b.array("x", (2,), INT16)
            y = b.array("y", (4,), INT32, role="output")
            b.assign(y[i], x[i])
            return b.build()

        with pytest.raises(ReproError, match="'broken' failed IR validation"):
            _validate_registry({"broken": build_broken})
