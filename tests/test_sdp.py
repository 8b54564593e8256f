import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.linalg as sla

from genneg import sdp, states
from genneg.gmn import build_program
from genneg.sdp import (SdpProblem, SdpStatus, _boundary_step, _congruence, _geometry,
                        _inverse_factor, _inverse_from_factor, _smallest_eigenvalues, solve)


def scalar_bound_problem():
    # minimize x subject to x >= 1, written as x - u = 1 with x, u >= 0
    return SdpProblem(
        block_dims=[1, 1],
        objective_blocks=[np.array([[1.0]]), np.array([[0.0]])],
        constraints=[([np.array([[1.0]]), np.array([[-1.0]])], 1.0)],
    )


def solve_watching(problem, **kwargs):
    """``solve(problem)`` and a copy (X blocks, y, S blocks) of every point ``stop`` saw.

    The calls alternate: the start, the Newton point of iteration 0, iterate
    1, the Newton point of iteration 1, ...  The ``stop`` never fires, which
    leaves the solve unchanged bit for bit.
    """
    seen = []

    def record(x_blocks, y, s_blocks):
        seen.append(([x.copy() for x in x_blocks], y.copy(), [s.copy() for s in s_blocks]))
        return False

    return solve(problem, stop=record, **kwargs), seen


def solve_recording(problem, **kwargs):
    """``solve(problem)`` and a copy of every iterate (X blocks, y, S blocks), start first."""
    sol, seen = solve_watching(problem, **kwargs)
    return sol, seen[0::2]


class TestSmallProblems:
    def test_scalar_bound(self):
        sol = solve(scalar_bound_problem())
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 1.0) < 1e-7
        assert abs(sol.x_blocks[0][0, 0] - 1.0) < 1e-6

    def test_eigenvalue_extremum(self):
        # minimize Tr(diag(1,2) X) with Tr X = 1, X >= 0 -> 1 at X = diag(1,0)
        problem = SdpProblem(
            block_dims=[2],
            objective_blocks=[np.diag([1.0, 2.0])],
            constraints=[([np.eye(2)], 1.0)],
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 1.0) < 1e-7
        assert np.allclose(sol.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)

    def test_constraint_shared_by_two_of_three_blocks(self):
        # min Tr(C1 X1) + 3 Tr X2 + Tr(C3 X3) with Tr X1 = 1 and
        # Tr X2 + Tr X3 = 1 is lambda_min(C1) + lambda_min(C3) = 2, with X2 = 0
        sol = solve(three_block_problem())
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 2.0) < 1e-7
        assert np.allclose(sol.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)
        assert np.allclose(sol.x_blocks[1], 0.0, rtol=0, atol=1e-5)
        assert np.allclose(sol.x_blocks[2], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-5)

    def test_complex_hermitian_objective(self):
        # min Tr(C X) with Tr X = 1 is lambda_min(C) = 1 (the spectrum is {1, 4}),
        # attained at X = v v^dagger for the eigenvector v = (1 - i, -1)/sqrt(3)
        c = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        sol = solve(SdpProblem(block_dims=[2], objective_blocks=[c],
                               constraints=[([np.eye(2)], 1.0)]))
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 1.0) < 1e-7
        assert abs(sol.dual_objective - 1.0) < 1e-7
        v = np.array([1.0 - 1.0j, -1.0]) / math.sqrt(3)
        assert np.allclose(sol.x_blocks[0], np.outer(v, v.conj()), rtol=0, atol=1e-5)
        assert abs(sol.x_blocks[0][0, 1].imag - 1 / 3) < 1e-5

    def test_ghz3_instance_objective(self):
        rho = states.to_density(states.named_state("ghz3"))
        sol = solve(build_program(rho, 3))
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.dual_objective - 0.5) < 1e-6  # dual max = -min Tr(W rho) = 1/2


class TestStatuses:
    def test_max_iterations(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        sol = solve(scalar_bound_problem())
        assert sol.status is SdpStatus.MAX_ITERATIONS
        assert sol.iterations == 2

    def test_primal_infeasible(self):
        problem = SdpProblem(
            block_dims=[1],
            objective_blocks=[np.array([[1.0]])],
            constraints=[([np.array([[1.0]])], -1.0)],
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.INFEASIBLE
        assert "infeasible" in sol.message

    def test_unbounded_primal(self):
        problem = SdpProblem(
            block_dims=[1, 1],
            objective_blocks=[np.array([[-1.0]]), np.array([[0.0]])],
            constraints=[({1: np.array([[1.0]])}, 1.0)],
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_duplicate_consistent_constraint_still_solves(self):
        # dependent but consistent rows are absorbed by the regularization
        problem = SdpProblem(
            block_dims=[2],
            objective_blocks=[np.diag([1.0, 2.0])],
            constraints=[([np.eye(2)], 1.0), ([np.eye(2)], 1.0)],
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 1.0) < 1e-6

    def test_duplicate_inconsistent_constraint_detected(self):
        problem = SdpProblem(
            block_dims=[2],
            objective_blocks=[np.diag([1.0, 2.0])],
            constraints=[([np.eye(2)], 1.0), ([np.eye(2)], 2.0)],
        )
        sol = solve(problem)
        assert sol.status in (SdpStatus.INFEASIBLE, SdpStatus.NUMERICAL_FAILURE,
                              SdpStatus.MAX_ITERATIONS)
        assert sol.status is not SdpStatus.OPTIMAL


class TestLpOracle:
    @staticmethod
    def vertex_minimum(g, b, c):
        """Exhaustive vertex enumeration for min c'x, Gx = b, x >= 0."""
        m, n = g.shape
        best = np.inf
        for cols in itertools.combinations(range(n), m):
            sub = g[:, cols]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            x = np.linalg.solve(sub, b)
            if np.min(x) < -1e-9:
                continue
            best = min(best, float(c[list(cols)] @ x))
        return best

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for trial in range(50):
            n, m = 6, 3
            x0 = rng.random(n) + 0.1
            x0 /= x0.sum()
            g = np.vstack([np.ones(n), rng.standard_normal((m - 1, n))])
            b = g @ x0
            c = rng.standard_normal(n)
            oracle = self.vertex_minimum(g, b, c)
            problem = SdpProblem(
                block_dims=[1] * n,
                objective_blocks=[np.array([[ci]]) for ci in c],
                constraints=[([np.array([[gij]]) for gij in g[i]], b[i])
                             for i in range(m)],
            )
            sol = solve(problem)
            assert sol.status is SdpStatus.OPTIMAL, f"trial {trial}: {sol.message}"
            assert abs(sol.primal_objective - oracle) < 1e-7, f"trial {trial}"
            solved += 1
        assert solved == 50


@pytest.fixture(scope="module")
def solutions():
    problems = [scalar_bound_problem()]
    for name in ("ghz2", "ghz3", "w3"):
        problems.append(build_program(states.to_density(states.named_state(name))))
    psi = states.haar_random_state(2, 11)
    problems.append(build_program(states.to_density(psi), 2))
    return [(p, *solve_recording(p)) for p in problems]


class TestSolverInvariants:

    def test_weak_duality_along_iterates(self, solutions):
        for problem, sol, iterates in solutions:
            assert sol.status is SdpStatus.OPTIMAL
            assert len(iterates) == sol.iterations + 1
            for x_blocks, y, _ in iterates:
                pobj = sum(np.vdot(c, x).real for c, x in zip(problem.c_blocks, x_blocks))
                dobj = float(problem.b @ y)
                assert dobj <= pobj + 1e-7

    def test_complementarity_at_optimum(self, solutions):
        for problem, sol, _ in solutions:
            assert abs(sol.complementarity) <= 1e-7 * len(problem.block_dims)

    def test_solution_invariants(self, solutions):
        for problem, sol, _ in solutions:
            assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.primal_objective))
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            for x, s in zip(sol.x_blocks, sol.s_blocks):
                assert np.linalg.eigvalsh(x)[0] >= -1e-8
                assert np.linalg.eigvalsh(s)[0] >= -1e-8

    def test_determinism(self):
        rho = states.to_density(states.named_state("ghz3"))
        problem = build_program(rho, 3)
        s1 = solve(problem)
        s2 = solve(problem)
        assert s1.iterations == s2.iterations
        assert s1.primal_objective == s2.primal_objective
        assert s1.dual_objective == s2.dual_objective
        assert np.array_equal(s1.y, s2.y)


def random_hermitian(rng, n, count=None):
    shape = (n, n) if count is None else (count, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2


def basis_matrices(n):
    """The basis F_alpha of the n x n Hermitian matrices, written out by definition."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for a in range(n):
        f = np.zeros((n, n), dtype=complex)
        f[a, a] = 1.0
        out.append(f)
    for a, b in pairs:
        f = np.zeros((n, n), dtype=complex)
        f[a, b] = f[b, a] = 1 / math.sqrt(2)
        out.append(f)
    for a, b in pairs:
        f = np.zeros((n, n), dtype=complex)
        f[a, b], f[b, a] = 1j / math.sqrt(2), -1j / math.sqrt(2)
        out.append(f)
    return np.array(out)


def kernel_basis_matrices(n):
    """The unnormalised basis F^_alpha = F_alpha / delta_alpha of the Schur kernel.

    delta is 1 on the diagonal units, 1/sqrt(2) on E_ab + E_ba and -1/sqrt(2)
    on i (E_ba - E_ab), a < b.
    """
    npairs = n * (n - 1) // 2
    delta = np.repeat([1.0, 1 / math.sqrt(2), -1 / math.sqrt(2)], [n, npairs, npairs])
    return basis_matrices(n) / delta[:, None, None]


class TestGeometry:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_svec_smat_roundtrip(self, n):
        rng = np.random.default_rng(n)
        g = _geometry(n)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        v = g.svec(m)
        assert np.allclose(g.smat(v), m)
        m2 = rng.standard_normal((n, n))
        m2 = (m2 + m2.T) / 2
        assert abs(v @ g.svec(m2) - np.vdot(m, m2)) < 1e-12
        # complex Hermitian input, one matrix and a stack
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        assert np.allclose(g.smat(g.svec(a)), a, rtol=0, atol=1e-15)
        assert abs(g.svec(a) @ g.svec(b) - np.trace(a @ b).real) < 1e-12
        stack = random_hermitian(rng, n, count=3)
        assert np.allclose(g.smat(g.svec(stack)), stack, rtol=0, atol=1e-15)
        # a stack copied from a broadcast keeps its stride-0 axis innermost
        repeated = np.asarray(np.broadcast_to(a.real, (3, n, n)), dtype=complex)
        assert np.array_equal(g.svec(repeated), np.broadcast_to(g.svec(a.real), (3, n * n)))
        # coordinate alpha is the coefficient Re Tr(F_alpha A) of the basis
        assert np.allclose(g.svec(a), np.einsum("kij,ji->k", basis_matrices(n), a).real,
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("group", [1, 2])
    def test_schur_kernel_matches_basis_traces(self, n, group):
        # H^[p, alpha, beta] = sum_r Re Tr(F^_alpha s[p, r] F^_beta x[p, r]),
        # with the basis matrices written out and every trace taken directly
        rng = np.random.default_rng(10 * n + group)
        f = kernel_basis_matrices(n)
        s = random_hermitian(rng, n, count=3 * group).reshape(3, group, n, n)
        x = random_hermitian(rng, n, count=3 * group).reshape(3, group, n, n)
        g = sdp._BlockGeometry(n)
        assert "_half_rows" not in vars(g)   # the kernel's table is built on first use
        got = g.schur_kernel(s, x)
        assert "_half_rows" in vars(g)
        want = np.einsum("aij,prjk,bkl,prli->pab", f, s, f, x).real
        assert got.shape == (3, n * n, n * n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("group", [1, 2])
    def test_schur_kernel_is_symmetric_in_its_arguments_and_indices(self, n, group):
        # the kernel gathers half the rows of W because, for Hermitian s and
        # x, H(s, x) = H(x, s) = H(s, x)^T
        rng = np.random.default_rng(20 * n + group)
        s = random_hermitian(rng, n, count=2 * group).reshape(2, group, n, n)
        x = random_hermitian(rng, n, count=2 * group).reshape(2, group, n, n)
        g = _geometry(n)
        h = g.schur_kernel(s, x)
        scale = np.max(np.abs(h))
        assert np.max(np.abs(g.schur_kernel(x, s) - h)) <= 1e-13 * scale
        assert np.max(np.abs(h.transpose(0, 2, 1) - h)) <= 1e-13 * scale

    def test_schur_kernel_tables_stay_small(self):
        # one n^2 (n + 1)/2 gather table, not n^4-sized ones: 4.4 MB at n = 32
        g = sdp._BlockGeometry(32)
        s = random_hermitian(np.random.default_rng(32), 32, count=2).reshape(1, 2, 32, 32)
        g.schur_kernel(s, s)
        tables = sum(a.nbytes for v in vars(g).values()
                     for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))
        assert tables <= 5e6

    def test_schur_kernel_working_memory(self):
        # one N = 4 bipartition: two pairs of 16 x 16 blocks
        rng = np.random.default_rng(16)
        s = random_hermitian(rng, 16, count=4).reshape(2, 2, 16, 16)
        x = random_hermitian(rng, 16, count=4).reshape(2, 2, 16, 16)
        g = sdp._BlockGeometry(16)
        g.schur_kernel(s, x)   # builds the gather table
        tracemalloc.start()
        try:
            h = g.schur_kernel(s, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * h.nbytes


class TestProblemApi:
    def test_rejects_asymmetric_block(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            SdpProblem([2], [np.array([[0.0, 1.0], [0.0, 0.0]])],
                       [([np.eye(2)], 1.0)])

    def test_rejects_non_hermitian_imaginary_part(self):
        # symmetric, but its imaginary part is not antisymmetric
        with pytest.raises(ValueError, match="not Hermitian"):
            SdpProblem([2], [np.array([[1.0, 1.0j], [1.0j, 1.0]])], [([np.eye(2)], 1.0)])

    def test_rejects_zero_constraint(self):
        with pytest.raises(ValueError, match="identically zero"):
            SdpProblem([2], [np.eye(2)], [([np.zeros((2, 2))], 1.0)])

    def test_with_rhs_shares_structure(self):
        p1 = scalar_bound_problem()
        p2 = p1.with_rhs(np.array([2.0]))
        assert p2.a_csc is p1.a_csc
        assert p2.a_t is p1.a_t
        sol = solve(p2)
        assert abs(sol.primal_objective - 2.0) < 1e-6


def random_pd_stack(rng, count, n):
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return g @ g.conj().transpose(0, 2, 1) / n + 0.1 * np.eye(n)


class TestFactorInverse:
    """The step rule and S^-1, both taken from the inverse Cholesky factor."""

    @pytest.mark.parametrize("n", [16, 32])
    def test_step_matches_generalized_eigenproblem(self, n):
        # one eigvalsh over parts of 4, 3 and 5 blocks gives each part's
        # smallest eigenvalue of the pencil (delta, X), as scipy's
        # generalized eigh does, and the same bits as a call per part
        rng = np.random.default_rng(50 + n)
        x = random_pd_stack(rng, 5, n)
        linv = _inverse_factor(np.linalg.cholesky(x))
        deltas = [random_hermitian(rng, n, count=4),
                  -random_pd_stack(rng, 3, n),
                  random_pd_stack(rng, 5, n)]
        parts = [_congruence(linv[:len(delta)], delta) for delta in deltas]
        lowest = _smallest_eigenvalues(parts)
        assert lowest.shape == (3,)
        for part, delta, lam in zip(parts, deltas, lowest):
            lam_min = min(sla.eigh(dd, xx, eigvals_only=True)[0] for dd, xx in zip(delta, x))
            assert lam == pytest.approx(lam_min, rel=1e-10)
            assert lam == _smallest_eigenvalues([part])[0]
            expected = math.inf if lam_min >= -1e-14 else -1.0 / lam_min
            assert _boundary_step(lam) == pytest.approx(expected, rel=1e-10)
        assert lowest[1] < 0 < lowest[2]
        assert _boundary_step(lowest[2]) == math.inf

    @pytest.mark.parametrize("n", [16, 32])
    def test_inverse_matches_numpy(self, n):
        rng = np.random.default_rng(70 + n)
        s = random_pd_stack(rng, 6, n)
        sinv = _inverse_from_factor(_inverse_factor(np.linalg.cholesky(s)))
        ref = np.linalg.inv(s)
        for got, want in zip(sinv, ref):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_factor_raises(self):
        chol = np.linalg.cholesky(random_pd_stack(np.random.default_rng(3), 3, 5))
        chol[1, 2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _inverse_factor(chol)


def bundled_openblas_expected() -> int:
    """How many distinct OpenBLAS libraries numpy and scipy should have loaded."""
    if not sys.platform.startswith("linux"):
        return 0  # the library lookup reads the Linux process map
    names = [module.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
             for module in (np, scipy)]
    if names == ["scipy-openblas", "scipy-openblas"]:
        return 2  # each wheel bundles its own copy (ILP64 for numpy)
    return int(any("openblas" in name for name in names))


def thread_counts(libs) -> list:
    return [lib.get_threads() for lib in libs]


@pytest.fixture
def blas_at_two_threads():
    """Every loaded OpenBLAS at 2 threads; the earlier counts come back afterwards."""
    libs = sdp._loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS library is loaded")
    saved = thread_counts(libs)
    for lib in libs:
        lib.set_threads(2)
    yield libs
    for lib, count in zip(libs, saved):
        lib.set_threads(count)


class FakeOpenBlas:
    def __init__(self, count):
        self.count = count
        self.sets = []

    def library(self, path):
        def set_threads(n):
            self.sets.append(n)
            self.count = n
        return sdp._OpenBlas(path, lambda: self.count, set_threads)


class TestOneBlasThread:
    """``solve`` runs on one BLAS thread and leaves the counts as it found them."""

    def test_finds_the_loaded_openblas_libraries(self):
        libs = sdp._loaded_openblas()
        assert len({lib.path for lib in libs}) == len(libs) >= bundled_openblas_expected()
        assert all("openblas" in lib.path.lower() for lib in libs)

    def test_one_thread_inside_and_counts_back_after(self, blas_at_two_threads):
        libs = blas_at_two_threads
        with sdp._ONE_BLAS_THREAD:
            assert thread_counts(libs) == [1] * len(libs)
        assert thread_counts(libs) == [2] * len(libs)

    def test_counts_back_after_an_exception(self, blas_at_two_threads):
        libs = blas_at_two_threads
        with pytest.raises(RuntimeError, match="inside"):
            with sdp._ONE_BLAS_THREAD:
                assert thread_counts(libs) == [1] * len(libs)
                raise RuntimeError("raised inside")
        assert thread_counts(libs) == [2] * len(libs)

    def test_nested_entry_restores_once(self, blas_at_two_threads):
        libs = blas_at_two_threads
        with sdp._ONE_BLAS_THREAD:
            with sdp._ONE_BLAS_THREAD:
                assert thread_counts(libs) == [1] * len(libs)
            assert thread_counts(libs) == [1] * len(libs)
        assert thread_counts(libs) == [2] * len(libs)

    def test_restores_exactly_the_counts_it_lowered(self, monkeypatch):
        single, multi = FakeOpenBlas(1), FakeOpenBlas(3)
        fakes = [single.library("single"), multi.library("multi")]
        monkeypatch.setattr(sdp, "_loaded_openblas", lambda: fakes)
        limiter = sdp._OneBlasThread()
        with limiter:
            assert (single.count, multi.count) == (1, 1)
        assert single.sets == [] and multi.sets == [1, 3]

    def test_concurrent_entries(self, blas_at_two_threads):
        libs = blas_at_two_threads
        errors = []

        def enter_repeatedly():
            for _ in range(300):
                with sdp._ONE_BLAS_THREAD:
                    counts = thread_counts(libs)
                    if counts != [1] * len(libs):
                        errors.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_repeatedly) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert thread_counts(libs) == [2] * len(libs)

    def test_solve_runs_on_one_thread(self, blas_at_two_threads, monkeypatch):
        libs = blas_at_two_threads
        seen = []
        factor = sdp.DenseSchur.factor

        def counting_factor(self, shift):
            seen.append(thread_counts(libs))
            return factor(self, shift)

        monkeypatch.setattr(sdp.DenseSchur, "factor", counting_factor)
        before = thread_counts(libs)
        sol = solve(scalar_bound_problem())
        assert sol.status is SdpStatus.OPTIMAL
        assert seen and all(counts == [1] * len(libs) for counts in seen)
        assert thread_counts(libs) == before == [2] * len(libs)


def ghz3_program():
    return build_program(states.to_density(states.named_state("ghz3")), 3)


def w3_program():
    return build_program(states.to_density(states.named_state("w3")), 3)


def three_block_problem():
    # min Tr(C1 X1) + 3 Tr X2 + Tr(C3 X3) with Tr X1 = 1 and Tr X2 + Tr X3 = 1
    return SdpProblem(
        block_dims=[2, 2, 2],
        objective_blocks=[np.diag([1.0, 2.0]), 3 * np.eye(2),
                          np.array([[2.0, 1.0], [1.0, 2.0]])],
        constraints=[([np.eye(2)], 1.0), ({1: np.eye(2), 2: np.eye(2)}, 1.0)])


def program_residuals(problem, x_blocks, y, s_blocks) -> tuple:
    """The scaled norms of b - A(X) and C - A^T y - S, written out block by block."""
    svec_x = np.concatenate([problem._geom.svec(x) for x in x_blocks])
    primal = problem.b - problem.a_t @ svec_x
    aty = problem.a_csc @ y
    dual = np.concatenate([problem._geom.svec(c - s) - aty[sl] for c, s, sl in
                           zip(problem.c_blocks, s_blocks, problem.block_slices())])
    c_norm = np.linalg.norm(np.concatenate([problem._geom.svec(c) for c in problem.c_blocks]))
    return (float(np.linalg.norm(primal)) / (1 + float(np.linalg.norm(problem.b))),
            float(np.linalg.norm(dual)) / (1 + float(c_norm)))


class TestStopCallback:
    """``solve(problem, stop)`` asks ``stop`` at every iterate and every Newton point."""

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_stop_at_iterate_k(self, k):
        problem = ghz3_program()
        seen = []

        def stop_at(x_blocks, y, s_blocks):
            assert [b.shape[0] for b in x_blocks] == list(problem.block_dims)
            assert [b.shape[0] for b in s_blocks] == list(problem.block_dims)
            seen.append(([b.copy() for b in x_blocks], y.copy()))
            return len(seen) > 2 * k  # call 2k is iterate k

        sol = solve(problem, stop=stop_at)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations == k and len(seen) == 2 * k + 1
        assert "stop_at" in sol.message and "Newton" not in sol.message
        # the solution is the iterate the callback stopped at
        x_last, y_last = seen[-1]
        assert np.array_equal(sol.y, y_last)
        assert all(np.array_equal(a, b) for a, b in zip(sol.x_blocks, x_last))

    @pytest.mark.parametrize("make", [three_block_problem, ghz3_program, w3_program])
    def test_newton_points_meet_both_equality_constraints(self, make):
        problem = make()
        sol, seen = solve_watching(problem)
        iterates, newton = seen[0::2], seen[1::2]
        assert sol.status is SdpStatus.OPTIMAL
        assert len(iterates) == sol.iterations + 1 and len(newton) == sol.iterations
        # from the infeasible cold start, every Newton point is feasible
        assert max(program_residuals(problem, *iterates[0])) > 0.1
        outside = 0
        for (x, y, _), (xn, yn, sn), (x1, y1, _) in zip(iterates, newton, iterates[1:]):
            primal, dual = program_residuals(problem, xn, yn, sn)
            assert primal <= 1e-10 and dual <= 1e-12
            outside += min(np.linalg.eigvalsh(blk)[0] for blk in xn + sn) < 0
            # the next iterate lies on the way from this one to its Newton point
            for now, full, after in ((x, xn, x1), ([y], [yn], [y1])):
                step = np.concatenate([(b - a).ravel() for a, b in zip(now, full)])
                taken = np.concatenate([(c - a).ravel() for a, c in zip(now, after)])
                alpha = np.vdot(step, taken).real / np.vdot(step, step).real
                assert 0 < alpha <= 1 + 1e-12
                scale = sum(np.linalg.norm(a) + np.linalg.norm(b) for a, b in zip(now, full))
                assert np.linalg.norm(taken - alpha * step) <= 1e-13 * scale
        assert outside > 0  # the cone is what the step length cuts for

    @pytest.mark.parametrize("k", [0, 2])
    def test_stop_at_newton_point_k(self, k):
        problem = ghz3_program()
        seen = []

        def stop_at_newton(x_blocks, y, s_blocks):
            seen.append(([b.copy() for b in x_blocks], y.copy(), [b.copy() for b in s_blocks]))
            return len(seen) == 2 * k + 2  # call 2k + 1 is the Newton point of iteration k

        sol = solve(problem, stop=stop_at_newton)
        assert sol.status is SdpStatus.OPTIMAL
        # iterate k is returned, and the k + 1 Schur systems factored are counted
        assert sol.iterations == k + 1 and len(seen) == 2 * k + 2
        assert "stop_at_newton" in sol.message and "Newton point" in sol.message
        x_k, y_k, s_k = seen[2 * k]
        assert np.array_equal(sol.y, y_k)
        assert all(np.array_equal(a, b) for a, b in zip([*sol.x_blocks, *sol.s_blocks], x_k + s_k))
        for blk in [*sol.x_blocks, *sol.s_blocks]:
            np.linalg.cholesky(blk)  # raises unless positive definite

    def test_a_stop_that_never_fires_changes_nothing(self):
        problem = ghz3_program()
        plain = solve(problem)
        watched = solve(problem, stop=lambda x_blocks, y, s_blocks: False)
        assert watched.iterations == plain.iterations
        assert watched.status is plain.status and watched.message == plain.message
        assert np.array_equal(watched.y, plain.y)
        assert all(np.array_equal(a, b) for a, b in zip(watched.x_blocks, plain.x_blocks))

    def test_raising_stop_propagates_and_restores_threads(self, blas_at_two_threads):
        libs = blas_at_two_threads

        def broken(x_blocks, y, s_blocks):
            assert thread_counts(libs) == [1] * len(libs)
            raise RuntimeError("stop callback failed")

        with pytest.raises(RuntimeError, match="stop callback failed"):
            solve(scalar_bound_problem(), stop=broken)
        assert thread_counts(libs) == [2] * len(libs)


class TestFactorReuse:
    def test_two_cholesky_stacks_per_iteration(self, monkeypatch):
        # the accepted trial's factors serve the next iteration, so each
        # iteration factors only its two trial iterates (when they are PD)
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        sol = solve(ghz3_program())
        assert sol.status is SdpStatus.OPTIMAL
        assert len(calls) == 2 + 2 * sol.iterations


class TestConstructors:
    def test_svec_columns_build_the_same_problem(self):
        p1 = three_block_problem()
        p2 = SdpProblem.from_svec_columns(p1.block_dims, p1.c_blocks, p1.a_csc, p1.b)
        assert p2.svec_length == p1.svec_length
        assert (p2.a_t != p1.a_t).nnz == 0
        s1, s2 = solve(p1), solve(p2)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.y, s2.y)

    def test_blocks_of_several_sizes_are_refused(self):
        match = r"same dimension, got block_dims \(2, 1, 2\)"
        with pytest.raises(ValueError, match=match):
            SdpProblem([2, 1, 2], [np.eye(2), np.eye(1), np.eye(2)], [([np.eye(2)], 1.0)])
        p = three_block_problem()
        with pytest.raises(ValueError, match=match):
            SdpProblem.from_svec_columns([2, 1, 2], p.c_blocks, p.a_csc[:9], p.b)

    def test_svec_columns_objective_count_is_checked(self):
        p = three_block_problem()
        with pytest.raises(ValueError,
                           match=r"objective has shape \(2, 2, 2\), expected \(3, 2, 2\)"):
            SdpProblem.from_svec_columns(p.block_dims, p.c_blocks[:2], p.a_csc, p.b)

    @pytest.mark.parametrize("blocks, got", [
        ([np.eye(3)] * 3, r"shape \(3, 3, 3\)"),
        ([np.eye(2), np.eye(3), np.eye(2)], "several shapes"),
    ])
    def test_svec_columns_objective_block_size_is_checked(self, blocks, got):
        p = three_block_problem()
        with pytest.raises(ValueError, match=rf"objective has {got}, expected \(3, 2, 2\)"):
            SdpProblem.from_svec_columns(p.block_dims, blocks, p.a_csc, p.b)

    def test_svec_columns_row_count_is_checked(self):
        p = scalar_bound_problem()
        with pytest.raises(ValueError, match="constraint matrix has 1 rows, expected 2"):
            SdpProblem.from_svec_columns(p.block_dims, p.c_blocks, p.a_csc[:1], p.b)


def cold_start(problem):
    """The solver's own cold start X = S = tau I, y = 0, written out."""
    a = problem.a_csc
    col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
    tau = 1.0 + float(np.max(np.abs(problem.b))) + float(np.max(col_norms))
    blocks = [tau * np.eye(d, dtype=complex) for d in problem.block_dims]
    return blocks, np.zeros(problem.num_constraints), [b.copy() for b in blocks]


class TestStart:
    """``solve(problem, start=(x_blocks, y, s_blocks))`` begins at the given point."""

    @pytest.mark.parametrize("make", [scalar_bound_problem, three_block_problem,
                                      ghz3_program])
    def test_no_start_is_the_cold_start(self, make):
        # start=None and the cold start passed explicitly run the same iterates
        problem = make()
        default, default_iterates = solve_recording(problem)
        for start in (None, cold_start(problem)):
            sol, iterates = solve_recording(problem, start=start)
            assert sol.iterations == default.iterations
            assert sol.status is default.status and sol.message == default.message
            assert len(iterates) == len(default_iterates)
            for (x, y, s), (x0, y0, s0) in zip(iterates, default_iterates):
                assert np.array_equal(y, y0)
                assert all(np.array_equal(a, b) for a, b in zip(x + s, x0 + s0))
            assert np.array_equal(sol.y, default.y)
            assert all(np.array_equal(a, b) for a, b in zip(sol.x_blocks, default.x_blocks))
            assert all(np.array_equal(a, b) for a, b in zip(sol.s_blocks, default.s_blocks))

    def test_the_first_iterate_is_the_start(self):
        problem = three_block_problem()
        x_blocks = [np.array([[0.6, 0.1j], [-0.1j, 0.4]]), 0.5 * np.eye(2), 0.25 * np.eye(2)]
        y = np.array([0.5, -0.25])
        s_blocks = [np.eye(2), 2.0 * np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])]
        seen = []
        sol = solve(problem, start=(x_blocks, y, s_blocks),
                    stop=lambda x, yy, s: seen.append((x, yy.copy(), s)) or True)
        assert sol.iterations == 0 and len(seen) == 1
        x_seen, y_seen, s_seen = seen[0]
        assert np.array_equal(y_seen, y)
        assert all(np.array_equal(a, b) for a, b in zip(x_seen, x_blocks))
        assert all(np.array_equal(a, b) for a, b in zip(s_seen, s_blocks))
        # from there the solve reaches the same optimum as from the cold start
        started = solve(problem, start=(x_blocks, y, s_blocks))
        assert started.status is SdpStatus.OPTIMAL
        assert started.primal_objective == pytest.approx(solve(problem).primal_objective,
                                                         abs=1e-7)

    @staticmethod
    def refused(problem, start, match):
        with pytest.raises(ValueError, match=match):
            solve(problem, start=start)

    def test_refuses_wrong_shapes(self):
        problem = three_block_problem()
        x, y, s = cold_start(problem)
        self.refused(problem, (x, y), "tuple")
        self.refused(problem, (x, np.zeros(3), s), r"y has shape \(3,\), expected \(2,\)")
        self.refused(problem, (x[:2], y, s), "2 X blocks, expected 3")
        self.refused(problem, (x, y, s + [np.eye(2)]), "4 S blocks, expected 3")
        self.refused(problem, (x[:1] + [np.eye(1)] + x[2:], y, s),
                     r"start X: block 1 has shape \(1, 1\), expected \(2, 2\)")

    def test_refuses_non_hermitian_blocks(self):
        problem = three_block_problem()
        x, y, s = cold_start(problem)
        skew = np.array([[1.0, 0.5j], [0.5j, 1.0]])
        self.refused(problem, (x[:2] + [skew], y, s), "start X: block 2 is not Hermitian")
        self.refused(problem, (x, y, [skew] + s[1:]), "start S: block 0 is not Hermitian")

    def test_refuses_blocks_that_are_not_positive_definite(self):
        problem = three_block_problem()
        x, y, s = cold_start(problem)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        self.refused(problem, ([singular] + x[1:], y, s),
                     "start X: block 0 is not positive definite")
        self.refused(problem, (x, y, s[:1] + [-np.eye(2)] + s[2:]),
                     "start S: block 1 is not positive definite")

    def test_refuses_non_finite_entries(self):
        problem = three_block_problem()
        x, y, s = cold_start(problem)
        self.refused(problem, (x, np.array([0.0, np.nan]), s), "y is not finite")
        self.refused(problem, (x, y, s[:2] + [np.full((2, 2), np.inf)]),
                     "start S: block 2 is not finite")
