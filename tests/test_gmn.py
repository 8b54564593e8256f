import copy
import math
import multiprocessing
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla

from genneg import analysis, gmn, sdp, states
from genneg.channels import ChannelKind, apply_local_channel
from genneg.linalg import hermitian_part, partial_transpose
from genneg.sdp import SdpStatus


ROUNDING = 1e-12  # slack for bounds that hold exactly in exact arithmetic


def contains(res, value) -> bool:
    """True when the certified bracket of ``res`` contains ``value``."""
    return res.e_lo - ROUNDING <= value <= res.e_hi + ROUNDING


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
        assert all(dim == d for dim in problem.block_dims)
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
        svec_s = np.concatenate([problem._geom.svec(problem.c_blocks[k])
                                 for k in range(len(problem.block_dims))])
        svec_s = svec_s - problem.a_csc @ y
        for k, sl in enumerate(problem.block_slices()):
            block = problem._geom.smat(svec_s[sl])
            assert np.linalg.eigvalsh(block)[0] > 0.2

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError, match="trace"):
            gmn.build_program(np.eye(8, dtype=complex), 3)

    @pytest.mark.parametrize("build", [gmn.build_program, gmn.genuine_negativity])
    def test_five_qubits_are_refused_before_anything_is_built(self, build):
        # at N = 5 the program has 16384 constraints and a solve would hold
        # ~250 MB of Schur blocks
        built = gmn._program_structure.cache_info().currsize
        with pytest.raises(ValueError, match="^genuine multiparticle negativity is computed "
                                             "for 2 to 4 qubits, got 5$"):
            build(np.eye(32) / 32, 5)
        assert gmn._program_structure.cache_info().currsize == built


class TestGenuineNegativity:
    def test_ghz2_and_ghz3(self):
        for name in ("ghz2", "ghz3"):
            rho = states.to_density(states.named_state(name))
            res = gmn.genuine_negativity(rho)
            assert res.solved and res.certificate_ok
            assert abs(res.value - 0.5) < 1e-6
            assert abs(res.objective + 0.5) < 1e-6
            assert res.detected
            assert contains(res, 0.5)

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
        assert res.e_hi <= gmn.BRACKET_TOL

    def test_value_formula_and_bound(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            rho = random_pure_density(rng, 8)
            res = gmn.genuine_negativity(rho, 3)
            assert res.solved
            assert res.value == max(0.0, -res.objective) or res.value == 0.0
            assert res.value <= 0.5 + 1e-7

    def test_failed_solve_is_explicit(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        rho = states.to_density(states.named_state("ghz3"))
        res = gmn.genuine_negativity(rho, 3)
        assert not res.solved
        assert math.isnan(res.value)
        assert not res.certificate_ok
        assert res.solver.status is SdpStatus.MAX_ITERATIONS
        # the failure still carries its (wide, but certified) bracket
        assert res.e_hi - res.e_lo > gmn.BRACKET_TOL
        assert contains(res, 0.5)
        assert gmn.certificate_diagnostics(res, rho) == []

    @pytest.mark.parametrize("status", list(SdpStatus))
    def test_solved_is_the_bracket_width_alone(self, status):
        solver = sdp.SdpSolution(status, [], np.zeros(1), [], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
        narrow = gmn.GmnResult(nqubits=3, value=0.3, objective=-0.3, witness=None,
                               decompositions={}, certificate_ok=False, solver=solver,
                               e_hi=0.3 + gmn.BRACKET_TOL / 2)
        wide = copy.copy(narrow)
        wide.e_hi = 0.3 + 2 * gmn.BRACKET_TOL
        assert narrow.solved and not wide.solved


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
            assert contains(res, neg)


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
        # the signed basis permutation must agree with the matrix operation:
        # F_alpha^{T_M} = sigma[M, alpha] F_{tau[M, alpha]} for every basis element
        for n in (2, 3, 4):
            structure = gmn._program_structure(n)
            d = structure["dim"]
            tau, sigma = structure["tau"], structure["sigma"]
            basis = sdp._geometry(d).smat(np.eye(d * d))
            for mi, part in enumerate(structure["parts"]):
                assert sorted(tau[mi]) == list(range(d * d))
                assert set(np.unique(sigma[mi])) <= {-1.0, 1.0}
                for alpha, f in enumerate(basis):
                    image = sigma[mi, alpha] * basis[tau[mi, alpha]]
                    assert np.allclose(partial_transpose(f, part.members, n), image,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_pair_kernel_matches_transposed_basis_traces(self, n):
        # the (Q_M, 1-Q_M) pair's kernel through the table of bipartition M is
        # sum_r Re Tr(F^_alpha^{T_M} s_r F^_beta^{T_M} x_r) over the unnormalised
        # basis F^ = {E_aa, E_ab + E_ba, i (E_ba - E_ab)}, every partial
        # transpose and every trace taken directly
        structure = gmn._program_structure(n)
        d = structure["dim"]
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        basis = np.array([units[a * d + a] for a in range(d)]
                         + [units[a * d + b] + units[b * d + a] for a, b in pairs]
                         + [1j * (units[b * d + a] - units[a * d + b]) for a, b in pairs])
        rng = np.random.default_rng(70 + n)
        geom = sdp._geometry(d)
        for part, table in zip(structure["parts"], structure["kernel_tables"]):
            s, x = (hermitian_part(rng.standard_normal((1, 2, d, d))
                                   + 1j * rng.standard_normal((1, 2, d, d))) for _ in range(2))
            transposed = np.array([partial_transpose(f, part.members, n) for f in basis])
            want = np.einsum("aij,rjk,bkl,rli->ab", transposed, s[0], transposed, x[0],
                             optimize=True).real
            got = geom.schur_kernel(s, x, (table,))[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_arrowhead_gets_the_structure_tables(self):
        structure = gmn._program_structure(3)
        tables, = structure["skeleton"].schur_factory.args
        assert tables is structure["kernel_tables"]
        assert len(tables) == len(structure["parts"])
        assert all(t.dtype == np.intp for t in tables)


def start_density(kind, n):
    """The densities the start point is tested on, one per kind of state."""
    d = 2**n
    rng = np.random.default_rng(50 + n)
    if kind == "pure":
        return random_pure_density(rng, d)
    if kind == "mixed":
        return random_mixed_density(rng, d, rank=2)
    if kind == "maximally-mixed":
        return np.eye(d, dtype=complex) / d
    return states.to_density(states.haar_random_state(n, 60 + n))


class TestStartPoint:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["pure", "mixed", "maximally-mixed", "haar"])
    def test_strictly_feasible_on_both_sides(self, n, kind):
        rho = start_density(kind, n)
        structure = gmn._program_structure(n)
        problem = gmn.build_program(rho, n)
        x_blocks, y, s_blocks = gmn._start_point(rho, structure)
        def svec(blocks):
            return np.concatenate([problem._geom.svec(blk) for blk in blocks])

        # primal: A(X) = b
        assert np.max(np.abs(problem.a_t @ svec(x_blocks) - problem.b)) <= 1e-12
        # dual: S = C - A^T y, every slack 1/2
        slack = svec(problem.c_blocks) - problem.a_csc @ y
        assert np.max(np.abs(svec(s_blocks) - slack)) <= 1e-15
        d, k = structure["dim"], len(structure["parts"])
        for s_blk in s_blocks:
            assert np.array_equal(s_blk, np.eye(d) / 2)
        # X > 0: every block is at least 1/(Kd)
        for x_blk in x_blocks:
            assert np.max(np.abs(x_blk - x_blk.conj().T)) <= 1e-15
            assert np.linalg.eigvalsh(x_blk)[0] >= 1 / (k * d) - 1e-14

    def test_the_solve_starts_there(self, monkeypatch):
        rho = start_density("haar", 3)
        structure = gmn._program_structure(3)
        x_start, y_start, _ = gmn._start_point(rho, structure)
        first = []
        closed = gmn._Bracket.closed

        def recording(self, x_blocks, y, s_blocks):
            if not first:
                first.append(([b.copy() for b in x_blocks], y.copy()))
            return closed(self, x_blocks, y, s_blocks)

        monkeypatch.setattr(gmn._Bracket, "closed", recording)
        assert gmn.genuine_negativity(rho, 3).solved
        x_first, y_first = first[0]
        assert np.array_equal(y_first, y_start)
        for got, want in zip(x_first, x_start):
            assert np.allclose(got, want, rtol=0, atol=1e-15)


def random_iterates(rng, problem):
    """S^-1 and X stacks of random Hermitian positive definite iterates."""
    d = problem.block_dims[0]

    def hermitian_pd():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g @ g.conj().T / d + 0.1 * np.eye(d)

    sinv = [hermitian_part(np.linalg.inv(hermitian_pd())) for _ in problem.block_dims]
    x = [hermitian_pd() for _ in problem.block_dims]
    return np.array(sinv), np.array(x)


@pytest.fixture(scope="module", params=[2, 3, 4])
def schur_pair(request):
    """Dense and arrowhead Schur systems assembled from the same random iterate."""
    n = request.param
    rng = np.random.default_rng(100 + n)
    problem = gmn.build_program(np.eye(2**n) / 2**n, n)
    sinv, x = random_iterates(rng, problem)
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
        # the first r-block is factored on the calling thread and, at N = 4,
        # the last on the helper thread; after either fails, the system
        # factors and solves as a fresh one does
        n, problem, _, _ = schur_pair
        sinv, x = random_iterates(np.random.default_rng(600 + n), problem)
        system, fresh = problem.schur_factory(problem), problem.schur_factory(problem)
        system.assemble(sinv, x)
        fresh.assemble(sinv, x)
        shift = 1e-9 * fresh.max_diagonal()
        fresh.factor(shift)
        rhs = np.random.default_rng(4).standard_normal(problem.num_constraints)
        for part in (0, -1):
            valid = system.qq[part].copy()
            w, v = np.linalg.eigh(valid)
            w[0] = -w[-1]
            broken = (v * w) @ v.T
            system.qq[part] = (broken + broken.T) / 2
            with pytest.raises(np.linalg.LinAlgError, match="r_M block"):
                system.factor(0.0)
            system.qq[part] = valid
            system.factor(shift)
            assert np.array_equal(system.solve(rhs), fresh.solve(rhs))

    def test_indefinite_w_schur_complement_raises(self, schur_pair):
        # every q-block stays positive definite; only the Schur complement
        # of the w-block gets a negative eigenvalue
        _, _, _, arrow = schur_pair
        for q in arrow.qq:
            np.linalg.cholesky(q)
        sc = arrow.ww - sum(h.T @ np.linalg.solve(q, h) for q, h in zip(arrow.qq, arrow.h01))
        w, v = np.linalg.eigh((sc + sc.T) / 2)
        broken = copy.copy(arrow)
        broken.ww = arrow.ww - (w[0] + 1.0) * np.outer(v[:, 0], v[:, 0])
        with pytest.raises(np.linalg.LinAlgError, match="w Schur complement"):
            broken.factor(0.0)

    def test_factor_leaves_blocks_untouched(self, schur_pair):
        # a regularization ladder retry factors the same blocks again at a
        # larger shift; the in-place triangular solve must not write into h01
        n, problem, _, _ = schur_pair
        sinv, x = random_iterates(np.random.default_rng(300 + n), problem)
        retried, fresh = problem.schur_factory(problem), problem.schur_factory(problem)
        retried.assemble(sinv, x)
        fresh.assemble(sinv, x)
        blocks = [b.copy() for b in (retried.ww, retried.h01, retried.qq)]
        shift = 1e-9 * retried.max_diagonal()
        with pytest.raises(np.linalg.LinAlgError, match="r_M block"):
            retried.factor(-2 * retried.max_diagonal())     # fails in every lane
        retried.factor(shift)
        retried.factor(10 * shift)
        for before, after in zip(blocks, (retried.ww, retried.h01, retried.qq)):
            assert np.array_equal(before, after)
        fresh.factor(10 * shift)
        rhs = np.random.default_rng(1).standard_normal(problem.num_constraints)
        assert np.array_equal(retried.solve(rhs), fresh.solve(rhs))

    def test_assembly_does_not_depend_on_chunk_size(self, schur_pair, monkeypatch):
        # the default budget, one bipartition per chunk, and all in one chunk
        n, problem, _, _ = schur_pair
        sinv, x = random_iterates(np.random.default_rng(200 + n), problem)
        chunks, outputs = [], []
        for budget in (gmn.ASSEMBLY_CHUNK_BYTES, 1, 2**40):
            monkeypatch.setattr(gmn, "ASSEMBLY_CHUNK_BYTES", budget)
            schur = problem.schur_factory(problem)
            schur.assemble(sinv, x)
            chunks.append(schur._chunk)
            outputs.append((schur.ww, schur.h01, schur.qq))
        assert chunks[1] == 1 and chunks[2] >= len(gmn.bipartitions(n))
        for other in outputs[1:]:
            for a, b in zip(outputs[0], other):
                assert np.array_equal(a, b)


def test_two_lanes_solve_as_one_lane(monkeypatch):
    """At N = 4 the two-lane system agrees with a one-lane one and repeats itself exactly."""
    problem = gmn.build_program(np.eye(16) / 16, 4)
    sinv, x = random_iterates(np.random.default_rng(406), problem)
    rhs = np.random.default_rng(5).standard_normal(problem.num_constraints)
    two = problem.schur_factory(problem)
    monkeypatch.setattr(gmn, "ASSEMBLY_CHUNK_BYTES", 2**40)     # one chunk, so one lane
    one = problem.schur_factory(problem)
    assert (len(two._lanes), len(one._lanes)) == (2, 1)
    solutions = []
    for schur in (two, one, two):
        schur.assemble(sinv, x)
        schur.factor(1e-9 * schur.max_diagonal())
        solutions.append(schur.solve(rhs))
    # only the Schur complement of the w-block is summed in another order
    assert np.linalg.norm(solutions[0] - solutions[1]) <= 1e-12 * np.linalg.norm(solutions[1])
    assert np.array_equal(solutions[0], solutions[2])


def test_n4_assembly_memory_stays_near_its_output():
    """One N=4 assembly allocates at most twice the bytes of its output."""
    problem = gmn.build_program(np.eye(16) / 16, 4)
    sinv, x = random_iterates(np.random.default_rng(404), problem)
    tracemalloc.start()
    try:
        # the system allocates its blocks when it is built, so both count
        schur = problem.schur_factory(problem)
        schur.assemble(sinv, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = schur.ww.nbytes + schur.h01.nbytes + schur.qq.nbytes
    assert peak <= 2 * output



def test_n4_solve_memory_stays_near_its_rhs():
    """One N=4 solve allocates at most eight times the bytes of its right-hand side."""
    problem = gmn.build_program(np.eye(16) / 16, 4)
    sinv, x = random_iterates(np.random.default_rng(405), problem)
    schur = problem.schur_factory(problem)
    schur.assemble(sinv, x)
    schur.factor(1e-9 * schur.max_diagonal())
    rhs = np.random.default_rng(2).standard_normal(problem.num_constraints)
    schur.solve(rhs)    # warm call
    tracemalloc.start()
    try:
        schur.solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * rhs.nbytes


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
        structure = gmn._program_structure(3)
        system = sdp.DenseSchur(structure["skeleton"])
        monkeypatch.setitem(structure, "systems", [system])
        dense = gmn.genuine_negativity(rho, 3)
        # the solve borrowed the dense system, assembled it and gave it back
        assert structure["systems"] == [system] and np.any(system.matrix)
        assert arrow.solved and dense.solved
        assert arrow.value > 0
        assert abs(arrow.value - dense.value) <= 1e-8
        assert arrow.solver.status is dense.solver.status
        assert abs(arrow.solver.iterations - dense.solver.iterations) <= 1


def n4_density(state, kind=None, s=0.0):
    psi = states.haar_random_state(4, 1310) if state == "haar" else states.named_state(state)
    rho = states.to_density(psi)
    return rho if kind is None else apply_local_channel(rho, kind, s, 4)


@pytest.fixture(scope="module")
def n4_solve():
    """N=4 solves shared by this module's tests: (state, kind, s) -> (rho, result)."""
    cache = {}

    def solve(state, kind=None, s=0.0):
        key = (state, kind, s)
        if key not in cache:
            rho = n4_density(state, kind, s)
            cache[key] = rho, gmn.genuine_negativity(rho, 4)
        return cache[key]

    return solve


# the four states of the benchmark's solve-n4 workload and at most how many
# iterations each may take; they take 3/8/7/10 from the feasible start (the
# cold start takes 6/10/10/13)
SOLVE_N4 = [
    ("ghz4", ChannelKind.PHASE_DAMPING, 0.2, 5),
    ("w4", ChannelKind.AMPLITUDE_DAMPING, 0.2, 9),
    ("cluster4", ChannelKind.DEPOLARIZING, 0.1, 8),
    ("haar", ChannelKind.AMPLITUDE_DAMPING, 0.2, 11),
]


class TestFourQubits:
    @pytest.mark.parametrize("name", ["ghz4", "cluster4"])
    def test_pure_state_gives_one_half(self, name, n4_solve):
        _, res = n4_solve(name)
        assert res.solved and res.certificate_ok
        assert abs(res.value - 0.5) <= 1e-6
        assert contains(res, 0.5)

    def test_ghz4_dephasing_law(self, n4_solve):
        _, res = n4_solve("ghz4", ChannelKind.PHASE_DAMPING, 0.2)
        assert res.solved and res.certificate_ok
        assert abs(res.value - 0.5 * math.exp(-0.4)) <= 1e-6
        assert contains(res, 0.5 * math.exp(-0.4))

    def test_w4_below_bipartite_negativities(self, n4_solve):
        rho, res = n4_solve("w4", ChannelKind.AMPLITUDE_DAMPING, 0.2)
        assert res.solved and res.value > 0
        bound = min(gmn.bipartite_negativity(rho, part.members, 4)
                    for part in gmn.bipartitions(4))
        assert res.value <= bound + 1e-7
        assert res.e_hi <= bound + 1e-7

    @pytest.mark.parametrize("state,kind,s,most", SOLVE_N4)
    def test_solve_n4_states(self, state, kind, s, most, n4_solve):
        rho, res = n4_solve(state, kind, s)
        assert res.solved and res.certificate_ok
        assert res.solver.status is SdpStatus.OPTIMAL
        assert "_Bracket.closed" in res.solver.message
        assert res.solver.iterations <= most
        assert gmn.certificate_diagnostics(res, rho) == []

    def test_near_pure_ghz4_closes(self, n4_solve):
        # the bracket of this near-pure point is about 4.7e-7 wide when it
        # closes; it stays open when every Schur solve goes unrefined
        rho, res = n4_solve("ghz4", ChannelKind.AMPLITUDE_DAMPING, 0.01)
        assert res.solved and res.certificate_ok
        assert gmn.certificate_diagnostics(res, rho) == []


def solve_record(result):
    """What a solve reports: E, both ends of the bracket, iterations and the stop message."""
    return (result.value, result.e_lo, result.e_hi, result.solver.iterations,
            result.solver.message)


def test_borrowed_system_is_invisible(monkeypatch):
    """Solves that reuse one Schur system report what solves in fresh systems do."""
    structure = gmn._program_structure(4)
    a = n4_density("w4", ChannelKind.AMPLITUDE_DAMPING, 0.2)
    b = n4_density("ghz4", ChannelKind.PHASE_DAMPING, 0.2)
    monkeypatch.setitem(structure, "systems", [])
    borrowed = [solve_record(gmn.genuine_negativity(rho, 4)) for rho in (a, b, a)]
    assert len(structure["systems"]) == 1    # the three solves shared one
    fresh = []
    for rho in (a, b, a):
        monkeypatch.setitem(structure, "systems", [])
        fresh.append(solve_record(gmn.genuine_negativity(rho, 4)))
    assert borrowed == fresh


def system_arrays(schur) -> list:
    """Every array an arrowhead system holds."""
    lane_work = [array for _, _, work in schur._lanes for array in work]
    return [schur.ww, schur._ww_sum, schur._blocks, *lane_work, schur._shifted,
            schur._wq, schur._sc, schur._lw, *schur._lq]


def test_systems_of_one_problem_share_no_arrays(schur_pair):
    n, problem, _, _ = schur_pair
    rhs = np.random.default_rng(3).standard_normal(problem.num_constraints)
    first, second = problem.schur_factory(problem), problem.schur_factory(problem)
    for seed, schur in enumerate((first, second)):
        schur.assemble(*random_iterates(np.random.default_rng(500 + 10 * n + seed), problem))
        schur.factor(1e-9 * schur.max_diagonal())
        if schur is first:
            before = first.solve(rhs)
    for a in system_arrays(first):
        for b in system_arrays(second):
            assert not np.shares_memory(a, b)
    assert np.array_equal(first.solve(rhs), before)


def assert_threads_solve_as_serial(rhos, nqubits):
    """Solves of ``rhos`` in one thread each report what serial solves do."""
    serial = [solve_record(gmn.genuine_negativity(rho, nqubits)) for rho in rhos]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often, inside the solves too
    pool = ThreadPoolExecutor(len(rhos))
    try:
        futures = [pool.submit(gmn.genuine_negativity, rho, nqubits) for rho in rhos]
        threaded = [solve_record(future.result(timeout=120)) for future in futures]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_concurrent_solves_give_the_serial_results():
    """Four threads solving at once each borrow a Schur system of their own."""
    cases = [("ghz3", ChannelKind.PHASE_DAMPING, 0.2), ("w3", ChannelKind.AMPLITUDE_DAMPING, 0.2),
             ("w3b", ChannelKind.DEPOLARIZING, 0.1), ("haar", ChannelKind.PHASE_DAMPING, 0.3)]
    rhos = []
    for name, kind, s in cases:
        psi = states.haar_random_state(3, 5) if name == "haar" else states.named_state(name)
        rhos.append(apply_local_channel(states.to_density(psi), kind, s, 3))
    assert_threads_solve_as_serial(rhos, 3)


def test_concurrent_n4_solves_give_the_serial_results():
    """Two N = 4 solves at once share the process's one lane helper thread."""
    assert_threads_solve_as_serial([n4_density("ghz4", ChannelKind.PHASE_DAMPING, 0.2),
                                    n4_density("w4", ChannelKind.AMPLITUDE_DAMPING, 0.2)], 4)


def solve_in_child(rho):
    return solve_record(gmn.genuine_negativity(rho, 4))


# Python 3.12 warns on every fork of a process with threads, which this test makes on purpose
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_solves_after_its_parent():
    """A child forked after an N = 4 solve does not wait on the parent's helper thread."""
    rho = n4_density("ghz4", ChannelKind.PHASE_DAMPING, 0.2)
    parent = solve_record(gmn.genuine_negativity(rho, 4))      # starts the helper thread
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(solve_in_child, (rho,)).get(timeout=60)
    assert child == parent


def test_blocked_solve_matches_one_triangular_solve(monkeypatch):
    """wq = -L^-1 H01 by blocked forward substitution, against one dtrsm per factor.

    The r-blocks come from the end game of an N = 4 solve, where the
    condition number of the worst is about 1e10-1e11.
    """
    assembled = []
    factor = gmn.ArrowheadSchur.factor

    def keep_last_two(self, shift):
        assembled[:] = assembled[-1:] + [(self.qq.copy(), self.h01.copy())]
        factor(self, shift)

    monkeypatch.setattr(gmn.ArrowheadSchur, "factor", keep_last_two)
    assert gmn.genuine_negativity(n4_density("w4", ChannelKind.AMPLITUDE_DAMPING, 0.2), 4).solved
    qq, h01 = assembled[0]      # the second-to-last factorization
    assert 1e10 <= max(np.linalg.cond(q) for q in qq) <= 1e12
    lt = qq.copy()
    for q in lt:
        sla.lapack.dpotrf(q.T, lower=1, clean=0, overwrite_a=1)
    blocked = np.empty_like(h01)
    gmn._lower_solve(lt, h01, blocked)
    whole = h01.copy()
    for low, w in zip(lt, whole):
        sla.blas.dtrsm(-1.0, low.T, w.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    assert gmn.SOLVE_BLOCK_ROWS < len(h01[0])   # at N = 4 the blocks are smaller
    assert np.linalg.norm(blocked - whole) <= 1e-12 * np.linalg.norm(whole)


class CountingSchur:
    """A Schur system that counts the solve and matvec calls of each assembly."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []  # [solves, matvecs] per assembled system

    def assemble(self, sinv_blocks, x_blocks):
        self.calls.append([0, 0])
        self._inner.assemble(sinv_blocks, x_blocks)

    def max_diagonal(self):
        return self._inner.max_diagonal()

    def factor(self, shift):
        self._inner.factor(shift)

    def solve(self, rhs):
        self.calls[-1][0] += 1
        return self._inner.solve(rhs)

    def matvec(self, v):
        self.calls[-1][1] += 1
        return self._inner.matvec(v)


def test_solves_are_refined_only_in_the_end_game():
    """Before the relative gap falls below 1e-3 each direction takes one Schur solve.

    An iteration there makes 2 solves (predictor and corrector) and no
    matvec; one below it refines both solves of each direction and corrects
    each direction's primal residual: 8 solves and 4 matvecs.
    """
    rho = apply_local_channel(states.to_density(states.named_state("w3")),
                              ChannelKind.AMPLITUDE_DAMPING, 0.2, 3)
    structure = gmn._program_structure(3)
    problem = gmn.build_program(rho, 3)
    counting = CountingSchur(problem.schur_factory(problem))
    problem.schur_factory = lambda prob: counting
    gaps = []  # relative gap at each point stop sees: iterate, Newton point, iterate, ...

    def record_gap(x_blocks, y, s_blocks):
        pobj = sum(np.vdot(c, x).real for c, x in zip(problem.c_blocks, x_blocks))
        gaps.append(abs(pobj - problem.b @ y) / (1 + abs(pobj)))
        return False

    sol = sdp.solve(problem, stop=record_gap, start=gmn._start_point(rho, structure))
    assert sol.status is SdpStatus.OPTIMAL
    assert len(counting.calls) == sol.iterations
    at_iterates = gaps[0::2][:sol.iterations]
    assert counting.calls == [[2, 0] if gap >= 1e-3 else [8, 4] for gap in at_iterates]
    assert [2, 0] in counting.calls and [8, 4] in counting.calls


START_CASES = [
    ("w3", ChannelKind.AMPLITUDE_DAMPING),
    ("ghz3", ChannelKind.PHASE_DAMPING),
    ("w3b", ChannelKind.DEPOLARIZING),
    ("haar", ChannelKind.PHASE_DAMPING),
]


def test_feasible_start_saves_iterations(monkeypatch):
    """The feasible start and the solver's cold start agree on E; the first is faster."""
    rhos = []
    for state, kind in START_CASES:
        psi = states.haar_random_state(3, 7) if state == "haar" else states.named_state(state)
        rhos.append(apply_local_channel(states.to_density(psi), kind, 0.26, 3))
    started = [gmn.genuine_negativity(rho, 3) for rho in rhos]
    monkeypatch.setattr(gmn, "_start_point", lambda rho, structure: None)
    cold = [gmn.genuine_negativity(rho, 3) for rho in rhos]
    for a, b in zip(started, cold):
        assert a.solved and b.solved and a.certificate_ok and b.certificate_ok
        assert abs(a.value - b.value) <= gmn.BRACKET_TOL
    assert (sum(r.solver.iterations for r in started)
            < sum(r.solver.iterations for r in cold))


SWEEP_N3 = [
    ("ghz3", ChannelKind.PHASE_DAMPING),
    ("w3", ChannelKind.AMPLITUDE_DAMPING),
    ("w3b", ChannelKind.DEPOLARIZING),
]


def test_newton_points_close_brackets_sooner():
    """The bench's N=3 sweeps on 5-point default grids factor at most 77 Schur systems.

    The bracket is tested at every full Newton point as well as at every
    iterate; with the iterates alone these 15 solves took 91 iterations.
    """
    total = at_newton_point = 0
    for state, kind in SWEEP_N3:
        rho0 = states.to_density(states.named_state(state))
        for s in analysis.default_grid(kind, steps=5):
            res = gmn.genuine_negativity(apply_local_channel(rho0, kind, s, 3), 3)
            assert res.solved and res.certificate_ok
            total += res.solver.iterations
            at_newton_point += "Newton point" in res.solver.message
    assert total <= 77
    assert at_newton_point > 0


def independent_bracket(res, rho):
    """(E_lo, E_hi) recomputed from the result's certificate with numpy alone."""
    n = res.nqubits
    for part, (p_m, q_m) in res.decompositions.items():
        assert np.allclose(res.witness, p_m + partial_transpose(q_m, part.members, n),
                           rtol=0, atol=1e-9)
        for block in (p_m, q_m):
            eigs = np.linalg.eigvalsh(block)
            assert eigs[0] >= -1e-9 and eigs[-1] <= 1 + 1e-9
    assert np.allclose(sum(res.split.values()), rho, rtol=0, atol=1e-9)

    def neg(mat):
        eigs = np.linalg.eigvalsh(mat)
        return -eigs[eigs < 0].sum()

    e_hi = sum(neg(rho_m) + neg(partial_transpose(rho_m, part.members, n))
               for part, rho_m in res.split.items())
    return max(0.0, -np.trace(res.witness @ rho).real), e_hi


BRACKET_CASES = [
    ("ghz3", None, 0.0, 0.5),
    ("ghz3", ChannelKind.PHASE_DAMPING, 0.3, 0.5 * math.exp(-1.5 * 0.3)),
    ("w3", ChannelKind.AMPLITUDE_DAMPING, 0.2, None),
    ("haar", ChannelKind.PHASE_DAMPING, 0.26, None),
]


@pytest.fixture(scope="module", params=BRACKET_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
def n3_case(request):
    state, kind, s, exact = request.param
    psi = states.haar_random_state(3, 7) if state == "haar" else states.named_state(state)
    rho = states.to_density(psi)
    if kind is not None:
        rho = apply_local_channel(rho, kind, s, 3)
    return rho, gmn.genuine_negativity(rho, 3), exact


class TestBracket:
    def test_closes_and_contains_the_closed_form(self, n3_case):
        _, res, exact = n3_case
        assert res.solved and res.certificate_ok
        assert res.e_hi - res.e_lo <= gmn.BRACKET_TOL
        assert res.value == res.e_lo > 0
        if exact is not None:
            assert contains(res, exact)

    def test_independent_recomputation(self, n3_case):
        rho, res, _ = n3_case
        e_lo, e_hi = independent_bracket(res, rho)
        assert abs(e_lo - res.e_lo) <= 1e-9
        assert abs(e_hi - res.e_hi) <= 1e-9

    def test_n4_independent_recomputation(self, n4_solve):
        rho, res = n4_solve("haar", ChannelKind.AMPLITUDE_DAMPING, 0.2)
        e_lo, e_hi = independent_bracket(res, rho)
        assert abs(e_lo - res.e_lo) <= 1e-9
        assert abs(e_hi - res.e_hi) <= 1e-9

    def test_split_moved_between_parts_is_rejected(self, n3_case):
        # the parts still sum to rho, but the first one is now negative definite
        rho, res, _ = n3_case
        first, second = list(res.split)[:2]
        moved = copy.copy(res)
        moved.split = dict(res.split)
        shift = 2 * np.eye(len(rho))
        moved.split[first] = res.split[first] - shift
        moved.split[second] = res.split[second] + shift
        issues = gmn.certificate_diagnostics(moved, rho)
        assert any("the split gives E_hi" in issue for issue in issues)

    def test_split_not_summing_to_rho_is_rejected(self, n3_case):
        rho, res, _ = n3_case
        first = next(iter(res.split))
        broken = copy.copy(res)
        broken.split = dict(res.split)
        broken.split[first] = res.split[first] + 1e-6 * np.eye(len(rho))
        issues = gmn.certificate_diagnostics(broken, rho)
        assert any("split residual" in issue for issue in issues)

    def test_non_hermitian_split_is_rejected(self, n3_case):
        rho, res, _ = n3_case
        first = next(iter(res.split))
        broken = copy.copy(res)
        broken.split = dict(res.split)
        broken.split[first] = res.split[first].copy()
        broken.split[first][0, 1] += 1e-6
        issues = gmn.certificate_diagnostics(broken, rho)
        assert any("is not Hermitian" in issue for issue in issues)

    def test_perturbed_p_is_rejected(self, n3_case):
        rho, res, _ = n3_case
        part = next(iter(res.decompositions))
        p_m, q_m = res.decompositions[part]
        broken = copy.copy(res)
        broken.decompositions = dict(res.decompositions)
        broken.decompositions[part] = (p_m + 1e-6 * np.eye(len(rho)), q_m)
        issues = gmn.certificate_diagnostics(broken, rho)
        assert any("decomposition residual" in issue for issue in issues)

    def test_upper_bound_without_a_split_is_rejected(self, n3_case):
        rho, res, _ = n3_case
        broken = copy.copy(res)
        broken.split = None
        issues = gmn.certificate_diagnostics(broken, rho)
        assert issues == [f"E_hi = {res.e_hi:.12f} is claimed without a split"]


def ghz3_bracket():
    """A fresh bracket for GHZ3 and the primal start point (X = I)."""
    rho = states.to_density(states.named_state("ghz3"))
    structure = gmn._program_structure(3)
    return rho, gmn._Bracket(rho, structure), np.array([np.eye(8, dtype=complex)] * 12)


def multiples_of_identity(w, q):
    """y with W = w 1 and every Q_M = q 1 (diagonal coefficients come first)."""
    y = np.zeros(64 * 4)
    for block, value in enumerate([w] + [q] * 3):
        y[64 * block:64 * block + 8] = value
    return y


class TestWitnessRepair:
    def test_infeasible_witness_is_repaired(self):
        # W = 2.5, Q_M = 2, so P_M = 0.5 is feasible but Q_M exceeds 1 by
        # eps = 1: W' = (2.5 + 2)/3 = 1.5, P'_M = 0.5, Q'_M = 1
        rho, bracket, start = ghz3_bracket()
        bracket.closed(start, multiples_of_identity(2.5, 2.0), start)
        res = bracket.result(None)
        assert res.objective == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(res.witness, 1.5 * np.eye(8), rtol=0, atol=1e-12)
        for p_m, q_m in res.decompositions.values():
            assert np.allclose(p_m, 0.5 * np.eye(8), rtol=0, atol=1e-12)
            assert np.allclose(q_m, np.eye(8), rtol=0, atol=1e-12)
        assert gmn.certificate_diagnostics(res, rho) == []

    def test_lower_bound_is_the_best_over_iterates(self):
        # W = -5 has the lowest Tr(W rho) but repairs to W' = 5/11; the
        # feasible W = 0 of a later iterate is the better witness
        rho, bracket, start = ghz3_bracket()
        bracket.closed(start, multiples_of_identity(-5.0, 0.0), start)
        bracket.closed(start, multiples_of_identity(0.0, 0.0), start)
        res = bracket.result(None)
        assert res.objective == 0.0
        assert not res.witness.any()
        # the start point puts rho into the first part: E_hi = neg(rho^{T_A}) = 1/2
        assert res.e_hi == pytest.approx(0.5, abs=1e-12)
        assert gmn.certificate_diagnostics(res, rho) == []

    def test_witness_outside_its_diagonal_box_is_not_repaired(self, monkeypatch):
        # W = -5 has Tr(W rho) = -5, yet diag P_M = -5 puts eps >= 5, so its
        # repaired objective is at least (-5 + 10)/11 > 0 and cannot close
        # the bracket [0, 1/2]: no eigendecomposition is spent on it
        rho, bracket, start = ghz3_bracket()
        repaired = []
        monkeypatch.setattr(bracket, "_repair", repaired.append)
        assert not bracket.closed(start, multiples_of_identity(-5.0, 0.0), start)
        assert repaired == []
        assert bracket._pending[0][0] == pytest.approx(5 / 11, abs=1e-11)

    def test_heap_key_bounds_every_repaired_objective(self):
        # every iterate and Newton point of two solves: the key never exceeds
        # the repaired objective, and it is tighter than Tr(W rho) somewhere
        structure = gmn._program_structure(3)
        tighter = 0
        for state, kind in (("w3", ChannelKind.AMPLITUDE_DAMPING),
                            ("w3b", ChannelKind.DEPOLARIZING)):
            rho = apply_local_channel(states.to_density(states.named_state(state)), kind, 0.3, 3)
            points = []
            sdp.solve(gmn.build_program(rho, 3),
                      stop=lambda x_blocks, y, s_blocks: points.append(y.copy()) or False,
                      start=gmn._start_point(rho, structure))
            for y in points:
                alone = gmn._Bracket(rho, structure)
                key = alone._objective_bound(y)
                alone._repair(y)
                assert key <= alone.objective
                tighter += key > float(y[:64] @ alone._rho_coeffs)
        assert tighter > 0
