import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsim.psd import (
    CouplingTriple,
    CPReport,
    Verdict,
    is_psd,
    pseudo_inverse,
    require_hermitian,
    schur_cp_check,
    tradeoff_verdict,
)

from conftest import random_psd


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(2))

    def test_indefinite(self):
        # eigenvalues 3 and -1
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cone_boundary(self):
        assert is_psd(np.diag([5.0, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_cone_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        b = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        assert is_psd(a) and is_psd(b)
        assert is_psd(a + b)


class TestPseudoInverse:
    def test_rank_deficient_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_penrose_identities(self):
        # all four identities over 100 random B^dag B samples, ranks 0..dim
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 7))
            m = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            p = pseudo_inverse(m)
            scale = 1.0 + np.abs(m).max()
            assert np.abs(m @ p @ m - m).max() < 1e-10 * scale
            assert np.abs(p @ m @ p - p).max() < 1e-10 * (1.0 + np.abs(p).max())
            assert np.abs((m @ p).conj().T - m @ p).max() < 1e-10
            assert np.abs((p @ m).conj().T - p @ m).max() < 1e-10


def measurement_triple(k):
    return CouplingTriple(d2=[[1.0 / (8.0 * k)]], d1=[[0.5]], d0=[[2.0 * k]])


class TestSchurCpCheck:
    def test_measurement_triple_saturated(self):
        report = schur_cp_check(measurement_triple(1.0))
        assert report.verdict is Verdict.SATURATED
        assert report.block_psd and report.d0_psd and report.schur_ok and report.support_ok
        # D2 - D1 D0^{-1} D1^dag = 0.125 - 0.5 * 0.5 * 0.5 = 0
        assert abs(report.tradeoff_margin) < 1e-15

    def test_backreaction_without_diffusion_violated(self):
        report = schur_cp_check(CouplingTriple(d2=[[0.0]], d1=[[1.0]], d0=[[1.0]]))
        assert report.verdict is Verdict.VIOLATED
        assert report.tradeoff_margin == pytest.approx(-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="conformable"):
            CouplingTriple(d2=np.eye(2), d1=np.ones((3, 2)), d0=np.eye(2))

    def test_routes_agree_on_random_blocks(self):
        # Schur route vs direct block eigenvalues, mixed PSD and non-PSD
        rng = np.random.default_rng(2024)
        for trial in range(200):
            block = random_psd(rng, 6, rank=int(rng.integers(2, 7)))
            if trial % 2 == 1:
                scale = np.abs(np.linalg.eigvalsh(block)).max()
                block = block - 0.3 * scale * np.eye(6)
            triple = CouplingTriple(d2=block[:3, :3], d1=block[:3, 3:], d0=block[3:, 3:])
            report = schur_cp_check(triple)
            schur_route = report.d0_psd and report.schur_ok and report.support_ok
            assert schur_route == report.block_psd, f"trial {trial}"


class TestTradeoffVerdict:
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_measurement_saturates(self, k):
        assert tradeoff_verdict(measurement_triple(k)) is Verdict.SATURATED

    def test_doubled_diffusion_satisfied(self):
        t = CouplingTriple(d2=[[0.25]], d1=[[0.5]], d0=[[2.0]])
        assert tradeoff_verdict(t) is Verdict.SATISFIED
        assert schur_cp_check(t).tradeoff_margin == pytest.approx(0.125)

    def test_halved_diffusion_violated(self):
        t = CouplingTriple(d2=[[1.0 / 16.0]], d1=[[0.5]], d0=[[2.0]])
        assert tradeoff_verdict(t) is Verdict.VIOLATED

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_verdict_ordering(self, seed):
        # Saturated implies Satisfied implies not Violated: the report's
        # saturated/satisfied cases must all be block-PSD.
        rng = np.random.default_rng(seed)
        block = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
        if seed % 3 == 0:
            block = block - 0.2 * np.eye(4) * np.abs(np.linalg.eigvalsh(block)).max()
        triple = CouplingTriple(d2=block[:2, :2], d1=block[:2, 2:], d0=block[2:, 2:])
        report = schur_cp_check(triple)
        verdict = tradeoff_verdict(triple)
        if verdict is Verdict.VIOLATED:
            assert report.verdict is Verdict.VIOLATED
        else:
            assert report.block_psd


# ROADMAP item 13's draws: dimension 2-6, a split, a rank and a shift of
# eps times the spectral radius, which puts blocks on either side of the cone
# boundary; on 62 of the first 3000 the block and Schur routes disagree
EPSILONS = (1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12, 0.0)


def boundary_blocks(n_draws):
    """Seeded blocks near the PSD cone's boundary, grouped by (dimension, split)."""
    groups = {}
    for seed in range(n_draws):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        split = int(rng.integers(1, n))
        rank = int(rng.integers(1, n + 1))
        eps = EPSILONS[int(rng.integers(len(EPSILONS)))]
        block = random_psd(rng, n, rank=rank)
        block = block + eps * np.abs(np.linalg.eigvalsh(block)).max() * np.eye(n)
        groups.setdefault((n, split), []).append(block)
    return groups


def split_triple(block, k):
    return CouplingTriple(d2=block[..., :k, :k], d1=block[..., :k, k:], d0=block[..., k:, k:])


class TestStacks:
    def test_stacked_results_equal_single_calls_bitwise(self):
        # batching moves no bit of any field, on the draws where the two
        # routes disagree too
        disagreements = 0
        for (n, k), blocks in boundary_blocks(3000).items():
            stack = np.stack(blocks)
            report = schur_cp_check(split_triple(stack, k))
            verdicts = tradeoff_verdict(split_triple(stack, k))
            psd, pinv = is_psd(stack), pseudo_inverse(stack[:, k:, k:])
            for i, block in enumerate(blocks):
                one = schur_cp_check(split_triple(block, k))
                for field in dataclasses.fields(CPReport):
                    single, stacked = getattr(one, field.name), getattr(report, field.name)[i]
                    if field.name == "verdict":
                        assert stacked is single
                    else:
                        assert np.asarray(stacked).tobytes() == np.asarray(single).tobytes()
                assert verdicts[i] is tradeoff_verdict(split_triple(block, k))
                assert psd[i] == is_psd(block)
                assert pinv[i].tobytes() == pseudo_inverse(block[k:, k:]).tobytes()
                disagreements += one.block_psd != (one.d0_psd and one.schur_ok and one.support_ok)
        assert disagreements > 0

    def test_single_report_is_plain_json(self):
        report = schur_cp_check(CouplingTriple(d2=[[0.25]], d1=[[0.5]], d0=[[2.0]]))
        assert isinstance(report.verdict, Verdict)
        out = report.to_dict()
        assert [type(v) for v in out.values()] == [bool] * 5 + [float, str]
        assert json.loads(json.dumps(out)) == out

    def test_each_matrix_is_judged_on_its_own_scale(self):
        # beside a matrix of size 5e6, a defect of 1e-5 in a small one is refused
        stack = np.stack([5e6 * np.diag([1.0, -1.0]), np.array([[0.0, 1e-5], [0.0, 0.0]])])
        with pytest.raises(ValueError, match=r"^matrix\[1\] is not Hermitian: defect 1\.000e-05 "):
            require_hermitian(stack)
        with pytest.raises(ValueError, match=r"^point\[1\] is not Hermitian"):
            require_hermitian(stack, name="point")
        assert is_psd(stack[:1, None]).shape == (1, 1)  # any number of leading axes

    def test_stacked_triples_must_share_their_leading_axes(self):
        with pytest.raises(ValueError, match="conformable"):
            CouplingTriple(d2=np.ones((3, 1, 1)), d1=np.ones((3, 1, 1)), d0=np.ones((2, 1, 1)))
