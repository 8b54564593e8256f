import copy
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from genneg import gmn, sdp, states
from genneg.channels import ChannelKind, apply_local_channel
from genneg.linalg import partial_transpose, real_embedding
from genneg.sdp import SdpOptions, SdpStatus


def random_pure_density(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z /= np.linalg.norm(z)
    return np.outer(z, z.conj())


def random_mixed_density(rng, d, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_biseparable(rng, nqubits=3):
    """Mixture of pure product states across randomly chosen bipartitions."""
    d = 2**nqubits
    parts = gmn.bipartitions(nqubits)
    weights = rng.dirichlet(np.ones(4))
    rho = np.zeros((d, d), dtype=complex)
    for w in weights:
        part = parts[rng.integers(len(parts))]
        dim_m = 2 ** len(part.members)
        dim_rest = d // dim_m
        za = rng.standard_normal(dim_m) + 1j * rng.standard_normal(dim_m)
        zb = rng.standard_normal(dim_rest) + 1j * rng.standard_normal(dim_rest)
        za /= np.linalg.norm(za)
        zb /= np.linalg.norm(zb)
        # interleave the factors back into qubit order
        psi = np.zeros(d, dtype=complex)
        rest = part.complement
        for ia in range(dim_m):
            for ib in range(dim_rest):
                idx = 0
                for pos, q in enumerate(part.members):
                    if ia & (1 << (len(part.members) - 1 - pos)):
                        idx |= 1 << (nqubits - 1 - q)
                for pos, q in enumerate(rest):
                    if ib & (1 << (len(rest) - 1 - pos)):
                        idx |= 1 << (nqubits - 1 - q)
                psi[idx] = za[ia] * zb[ib]
        rho += w * np.outer(psi, psi.conj())
    return rho


class TestBipartitions:
    def test_counts(self):
        assert len(gmn.bipartitions(2)) == 1
        assert len(gmn.bipartitions(3)) == 3
        assert len(gmn.bipartitions(4)) == 7

    def test_three_qubit_splits(self):
        got = {bp.members for bp in gmn.bipartitions(3)}
        assert got == {(0,), (0, 1), (0, 2)}  # A|BC, AB|C, AC|B

    def test_canonical_form_contains_qubit_zero(self):
        for n in (2, 3, 4):
            for bp in gmn.bipartitions(n):
                assert 0 in bp.members
                assert 1 <= len(bp.members) <= n - 1

    def test_rejects_small_systems(self):
        with pytest.raises(ValueError, match="at least 2"):
            gmn.bipartitions(1)

    def test_validation(self):
        with pytest.raises(ValueError, match="qubit 0"):
            gmn.Bipartition(3, (1,))
        with pytest.raises(ValueError, match="1..2"):
            gmn.Bipartition(3, (0, 1, 2))


class TestBuildProgram:
    def test_structure_counts(self):
        rho = states.to_density(states.named_state("ghz3"))
        problem = gmn.build_program(rho, 3)
        d = 8
        n_parts = 3
        assert len(problem.block_dims) == 4 * n_parts
        assert all(dim == 2 * d for dim in problem.block_dims)
        # one Hermitian witness variable plus one Q per bipartition
        assert problem.num_constraints == d * d * (1 + n_parts)

    def test_two_qubits_single_decomposition(self):
        rho = states.to_density(states.named_state("ghz2"))
        problem = gmn.build_program(rho, 2)
        assert len(problem.block_dims) == 4
        assert problem.num_constraints == 16 * 2

    def test_strictly_feasible_point(self):
        # W = I/2 with P_M = Q_M = I/4 satisfies every cone constraint strictly
        rho = states.to_density(states.named_state("ghz3"))
        problem = gmn.build_program(rho, 3)
        structure = gmn._program_structure(3)
        d = structure["dim"]
        n_basis = structure["n_basis"]
        y = np.zeros(problem.num_constraints)
        y[:d] = 0.5        # diagonal coefficients of W = I/2
        for mi in range(len(structure["parts"])):
            y[n_basis * (1 + mi):n_basis * (1 + mi) + d] = 0.25  # Q_M = I/4
        svec_s = np.concatenate([problem._geom[k].svec(problem.c_blocks[k])
                                 for k in range(len(problem.block_dims))])
        svec_s = svec_s - problem.a_csc @ y
        for k, sl in enumerate(problem.block_slices()):
            block = problem._geom[k].smat(svec_s[sl])
            assert np.linalg.eigvalsh(block)[0] > 0.2

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError, match="trace"):
            gmn.build_program(np.eye(8, dtype=complex), 3)


class TestGenuineNegativity:
    def test_ghz2_and_ghz3(self):
        for name in ("ghz2", "ghz3"):
            rho = states.to_density(states.named_state(name))
            res = gmn.genuine_negativity(rho)
            assert res.solved and res.certificate_ok
            assert abs(res.value - 0.5) < 1e-6
            assert abs(res.objective + 0.5) < 1e-6
            assert res.detected

    def test_w3(self):
        rho = states.to_density(states.named_state("w3"))
        res = gmn.genuine_negativity(rho)
        assert abs(res.value - 0.443) < 5e-3

    def test_product_state_scores_zero(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        res = gmn.genuine_negativity(rho, 3)
        assert res.solved
        assert res.value == 0.0
        assert not res.detected

    def test_value_formula_and_bound(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            rho = random_pure_density(rng, 8)
            res = gmn.genuine_negativity(rho, 3)
            assert res.solved
            assert res.value == max(0.0, -res.objective) or res.value == 0.0
            assert res.value <= 0.5 + 1e-7

    def test_failed_solve_is_explicit(self):
        rho = states.to_density(states.named_state("ghz3"))
        res = gmn.genuine_negativity(rho, 3, SdpOptions(max_iterations=1, stall_iterations=0))
        assert not res.solved
        assert math.isnan(res.value)
        assert not res.certificate_ok
        assert res.solver.status is SdpStatus.MAX_ITERATIONS


class TestNegativityOracle:
    def test_bell_state(self):
        rho = states.to_density(states.named_state("ghz2"))
        assert abs(gmn.bipartite_negativity(rho, (0,), 2) - 0.5) < 1e-12

    def test_two_qubit_equivalence(self):
        rng = np.random.default_rng(41)
        for k in range(30):
            rho = (random_pure_density(rng, 4) if k % 2 == 0
                   else random_mixed_density(rng, 4))
            res = gmn.genuine_negativity(rho, 2)
            assert res.solved and res.certificate_ok
            neg = gmn.bipartite_negativity(rho, (0,), 2)
            assert abs(res.value - neg) < 1e-6


class TestBiseparable:
    def test_mixtures_score_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            rho = random_biseparable(rng)
            res = gmn.genuine_negativity(rho, 3)
            assert res.solved
            assert res.value <= 1e-6


class TestConvexity:
    def test_mixing_cannot_increase(self):
        rng = np.random.default_rng(43)
        for _ in range(4):
            rho1 = random_pure_density(rng, 8)
            rho2 = random_mixed_density(rng, 8, rank=2)
            lam = float(rng.random())
            mix = lam * rho1 + (1 - lam) * rho2
            e_mix = gmn.genuine_negativity(mix, 3).value
            e1 = gmn.genuine_negativity(rho1, 3).value
            e2 = gmn.genuine_negativity(rho2, 3).value
            assert e_mix <= lam * e1 + (1 - lam) * e2 + 1e-6


class TestMonotonicity:
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_ghz3_under_noise(self, kind):
        rho = states.to_density(states.named_state("ghz3"))
        values = []
        for s in (0.0, 0.2, 0.5, 0.9):
            evolved = apply_local_channel(rho, kind, s, 3)
            res = gmn.genuine_negativity(evolved, 3)
            assert res.solved and res.certificate_ok
            values.append(res.value)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6


class TestCertificate:
    def test_ghz3_certificate(self):
        rho = states.to_density(states.named_state("ghz3"))
        res = gmn.genuine_negativity(rho)
        assert gmn.verify_certificate(res, rho)
        assert gmn.certificate_diagnostics(res, rho) == []

    def test_perturbed_witness_rejected(self):
        rho = states.to_density(states.named_state("ghz3"))
        res = gmn.genuine_negativity(rho)
        res.witness[0, 1] += 0.01
        diagnostics = gmn.certificate_diagnostics(res, rho)
        assert diagnostics
        assert any("decomposition residual" in d for d in diagnostics)

    def test_hand_checkable_feasible_point(self):
        # W = I, P_M = I, Q_M = 0 for a product state: objective Tr(W rho) = 1
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        eye = np.eye(8, dtype=complex)
        zero = np.zeros((8, 8), dtype=complex)
        decomp = {part: (eye.copy(), zero.copy()) for part in gmn.bipartitions(3)}
        res = gmn.GmnResult(nqubits=3, value=0.0, objective=1.0, witness=eye.copy(),
                            decompositions=decomp, certificate_ok=False, solver=None)
        assert gmn.verify_certificate(res, rho)


class TestTransposeBookkeeping:
    def test_basis_action_matches_partial_transpose(self):
        # the signed basis permutation must agree with the matrix operation
        d = 8
        n = 3
        a_idx, b_idx, kind, pair_base = gmn._basis_enumeration(d)
        for part in gmn.bipartitions(n):
            mask = part.mask
            for alpha in range(0, d * d, 7):
                a, b, k = int(a_idx[alpha]), int(b_idx[alpha]), int(kind[alpha])
                if k == gmn._DIAG:
                    f = np.zeros((d, d), dtype=complex)
                    f[a, a] = 1.0
                elif k == gmn._RE:
                    f = np.zeros((d, d), dtype=complex)
                    f[a, b] = f[b, a] = 1 / np.sqrt(2)
                else:
                    f = np.zeros((d, d), dtype=complex)
                    f[a, b] = 1j / np.sqrt(2)
                    f[b, a] = -1j / np.sqrt(2)
                ta, tb, tk, sign = gmn._transpose_action(a, b, k, mask)
                if tk == gmn._DIAG:
                    g = np.zeros((d, d), dtype=complex)
                    g[ta, ta] = 1.0
                elif tk == gmn._RE:
                    g = np.zeros((d, d), dtype=complex)
                    g[ta, tb] = g[tb, ta] = 1 / np.sqrt(2)
                else:
                    g = np.zeros((d, d), dtype=complex)
                    g[ta, tb] = 1j / np.sqrt(2)
                    g[tb, ta] = -1j / np.sqrt(2)
                assert np.allclose(partial_transpose(f, part.members, n), sign * g)


def random_embedded_iterates(rng, problem):
    """Embedded S^-1 and X blocks of random Hermitian positive definite iterates."""
    d = problem.block_dims[0] // 2

    def hermitian_pd():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g @ g.conj().T / d + 0.1 * np.eye(d)

    sinv = [real_embedding(np.linalg.inv(hermitian_pd())) for _ in problem.block_dims]
    x = [real_embedding(hermitian_pd()) for _ in problem.block_dims]
    return sinv, x


@pytest.fixture(scope="module", params=[2, 3, 4])
def schur_pair(request):
    """Dense and arrowhead Schur systems assembled from the same random iterate."""
    n = request.param
    rng = np.random.default_rng(100 + n)
    problem = gmn.build_program(np.eye(2**n) / 2**n, n)
    sinv, x = random_embedded_iterates(rng, problem)
    dense = sdp.DenseSchur(problem)
    dense.assemble(sinv, x)
    arrow = problem.schur_factory(problem)
    arrow.assemble(sinv, x)
    return n, problem, dense, arrow


class TestArrowheadSchur:
    def test_program_uses_arrowhead(self, schur_pair):
        _, _, _, arrow = schur_pair
        assert isinstance(arrow, gmn.ArrowheadSchur)

    def test_expands_to_dense_assembly(self, schur_pair):
        _, problem, dense, arrow = schur_pair
        expanded = arrow.matvec(np.eye(problem.num_constraints))
        scale = np.max(np.abs(dense.matrix))
        assert np.max(np.abs(expanded - dense.matrix)) <= 1e-12 * scale
        assert arrow.max_diagonal() == pytest.approx(dense.max_diagonal(), rel=1e-12)

    def test_q_blocks_do_not_couple(self, schur_pair):
        n, problem, dense, _ = schur_pair
        nb = 4**n
        nparts = len(gmn.bipartitions(n))
        for i in range(nparts):
            for j in range(nparts):
                block = dense.matrix[nb * (1 + i):nb * (2 + i), nb * (1 + j):nb * (2 + j)]
                if i != j:
                    assert not np.any(block)
                else:
                    assert np.any(block)

    def test_solve_matches_dense_cholesky(self, schur_pair):
        _, problem, dense, arrow = schur_pair
        rng = np.random.default_rng(7)
        shift = 1e-9 * dense.max_diagonal()
        arrow.factor(shift)
        shifted = dense.matrix + shift * np.eye(problem.num_constraints)
        factor = sla.cho_factor(shifted, lower=True)
        rhs = rng.standard_normal(problem.num_constraints)
        ref = sla.cho_solve(factor, rhs)
        assert np.linalg.norm(arrow.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)
        rhs2 = rng.standard_normal((problem.num_constraints, 3))
        ref2 = sla.cho_solve(factor, rhs2)
        assert np.linalg.norm(arrow.solve(rhs2) - ref2) <= 1e-10 * np.linalg.norm(ref2)

    def test_indefinite_shift_raises(self, schur_pair):
        _, _, _, arrow = schur_pair
        with pytest.raises(np.linalg.LinAlgError):
            arrow.factor(-2 * arrow.max_diagonal())

    def test_indefinite_q_block_raises(self, schur_pair):
        _, _, _, arrow = schur_pair
        broken = copy.copy(arrow)
        w, v = np.linalg.eigh(arrow.qq[-1])
        w[0] = -w[-1]
        broken.qq = arrow.qq.copy()
        broken.qq[-1] = (v * w) @ v.T
        broken.qq[-1] = (broken.qq[-1] + broken.qq[-1].T) / 2
        with pytest.raises(np.linalg.LinAlgError, match="q_M block"):
            broken.factor(0.0)

    def test_indefinite_w_schur_complement_raises(self, schur_pair):
        # every q-block stays positive definite; only the Schur complement
        # of the w-block gets a negative eigenvalue
        _, _, _, arrow = schur_pair
        for q in arrow.qq:
            np.linalg.cholesky(q)
        sc = arrow.ww - sum(qw.T @ np.linalg.solve(q, qw) for q, qw in zip(arrow.qq, arrow.qw))
        w, v = np.linalg.eigh((sc + sc.T) / 2)
        broken = copy.copy(arrow)
        broken.ww = arrow.ww - (w[0] + 1.0) * np.outer(v[:, 0], v[:, 0])
        with pytest.raises(np.linalg.LinAlgError, match="w Schur complement"):
            broken.factor(0.0)

    def test_assembly_does_not_depend_on_chunk_size(self, schur_pair, monkeypatch):
        # the default budget, one bipartition per chunk, and all in one chunk
        n, problem, _, _ = schur_pair
        sinv, x = random_embedded_iterates(np.random.default_rng(200 + n), problem)
        chunks, outputs = [], []
        for budget in (gmn.ASSEMBLY_CHUNK_BYTES, 1, 2**40):
            monkeypatch.setattr(gmn, "ASSEMBLY_CHUNK_BYTES", budget)
            schur = problem.schur_factory(problem)
            schur.assemble(sinv, x)
            chunks.append(schur._chunk)
            outputs.append((schur.ww, schur.qw, schur.qq))
        assert chunks[1] == 1 and chunks[2] >= len(gmn.bipartitions(n))
        for other in outputs[1:]:
            for a, b in zip(outputs[0], other):
                assert np.array_equal(a, b)


def test_n4_assembly_memory_stays_near_its_output():
    """One N=4 assembly allocates at most three times the bytes of its output."""
    problem = gmn.build_program(np.eye(16) / 16, 4)
    sinv, x = random_embedded_iterates(np.random.default_rng(404), problem)
    schur = problem.schur_factory(problem)
    tracemalloc.start()
    try:
        schur.assemble(sinv, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = schur.ww.nbytes + schur.qw.nbytes + schur.qq.nbytes
    assert peak <= 3 * output


ORACLE_STATES = [
    ("ghz3", ChannelKind.PHASE_DAMPING),
    ("w3", ChannelKind.AMPLITUDE_DAMPING),
    ("haar", ChannelKind.DEPOLARIZING),
]


class TestDenseSchurOracle:
    @pytest.mark.parametrize("name,kind", ORACLE_STATES)
    def test_same_solve_with_dense_schur(self, name, kind, monkeypatch):
        psi = states.haar_random_state(3, 5) if name == "haar" else states.named_state(name)
        rho = apply_local_channel(states.to_density(psi), kind, 0.2, 3)
        arrow = gmn.genuine_negativity(rho, 3)
        skeleton = gmn._program_structure(3)["skeleton"]
        monkeypatch.setattr(skeleton, "schur_factory", sdp.DenseSchur)
        dense = gmn.genuine_negativity(rho, 3)
        assert arrow.solved and dense.solved
        assert arrow.value > 0
        assert abs(arrow.value - dense.value) <= 1e-8
        assert arrow.solver.status is dense.solver.status
        assert abs(arrow.solver.iterations - dense.solver.iterations) <= 1


class TestFourQubits:
    @pytest.mark.parametrize("name", ["ghz4", "cluster4"])
    def test_pure_state_gives_one_half(self, name):
        res = gmn.genuine_negativity(states.to_density(states.named_state(name)), 4)
        assert res.solved and res.certificate_ok
        assert abs(res.value - 0.5) <= 1e-6

    def test_ghz4_dephasing_law(self):
        rho = apply_local_channel(states.to_density(states.named_state("ghz4")),
                                  ChannelKind.PHASE_DAMPING, 0.2, 4)
        res = gmn.genuine_negativity(rho, 4)
        assert res.solved and res.certificate_ok
        assert abs(res.value - 0.5 * math.exp(-0.4)) <= 1e-6

    def test_w4_below_bipartite_negativities(self):
        rho = apply_local_channel(states.to_density(states.named_state("w4")),
                                  ChannelKind.AMPLITUDE_DAMPING, 0.2, 4)
        res = gmn.genuine_negativity(rho, 4)
        assert res.solved and res.value > 0
        bound = min(gmn.bipartite_negativity(rho, part.members, 4)
                    for part in gmn.bipartitions(4))
        assert res.value <= bound + 1e-7
