import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy
import scipy.linalg as sla

from genneg import sdp, states
from genneg.gmn import build_program
from genneg.sdp import (SdpOptions, SdpProblem, SdpStatus, _geometry, _inverse_factor,
                        _inverse_from_factor, _step_to_boundary, solve)


def scalar_bound_problem():
    # minimize x subject to x >= 1, written as x - u = 1 with x, u >= 0
    return SdpProblem(
        block_dims=[1, 1],
        objective_blocks=[np.array([[1.0]]), np.array([[0.0]])],
        constraints=[([np.array([[1.0]]), np.array([[-1.0]])], 1.0)],
    )


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

    def test_interleaved_block_dimensions(self):
        # blocks of dimension 2, 1, 2: the two 2x2 blocks share a stack but are
        # not adjacent in svec order.  min Tr(C1 X1) + 3 x2 + Tr(C3 X3) with
        # Tr X1 = 1 and x2 + Tr X3 = 1 is lambda_min(C1) + lambda_min(C3) = 2
        c3 = np.array([[2.0, 1.0], [1.0, 2.0]])
        problem = SdpProblem(
            block_dims=[2, 1, 2],
            objective_blocks=[np.diag([1.0, 2.0]), np.array([[3.0]]), c3],
            constraints=[([np.eye(2)], 1.0),
                         ({1: np.array([[1.0]]), 2: np.eye(2)}, 1.0)],
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_objective - 2.0) < 1e-7
        assert np.allclose(sol.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)
        assert abs(sol.x_blocks[1][0, 0]) < 1e-5
        assert np.allclose(sol.x_blocks[2], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-5)

    def test_ghz3_instance_objective(self):
        rho = states.to_density(states.named_state("ghz3"))
        sol = solve(build_program(rho, 3))
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.dual_objective - 0.5) < 1e-6  # dual max = -min Tr(W rho) = 1/2


class TestStatuses:
    def test_max_iterations(self):
        opts = SdpOptions(max_iterations=2, stall_iterations=0)
        sol = solve(scalar_bound_problem(), opts)
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
    return [(p, solve(p)) for p in problems]


class TestSolverInvariants:

    def test_weak_duality_along_iterates(self, solutions):
        for _, sol in solutions:
            assert sol.status is SdpStatus.OPTIMAL
            for pobj, dobj, *_ in sol.history:
                assert dobj <= pobj + 1e-7

    def test_complementarity_at_optimum(self, solutions):
        for problem, sol in solutions:
            assert abs(sol.complementarity) <= 1e-7 * len(problem.block_dims)

    def test_solution_invariants(self, solutions):
        for problem, sol in solutions:
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

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_skron_definition(self, n):
        rng = np.random.default_rng(30 + n)
        g = _geometry(n)
        u = rng.standard_normal((n, n)); u = (u + u.T) / 2
        v = rng.standard_normal((n, n)); v = (v + v.T) / 2
        w = rng.standard_normal((n, n)); w = (w + w.T) / 2
        lhs = g.skron(u, v) @ g.svec(w)
        rhs = g.svec((u @ w @ v + v @ w @ u) / 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_skron_tables_are_built_on_first_use(self):
        tables = ("flat_ii", "flat_jj", "flat_ij", "cc")
        g = sdp._BlockGeometry(32)
        assert not any(name in vars(g) for name in tables)
        rng = np.random.default_rng(32)
        u, v, w = ((m + m.T) / 2 for m in rng.standard_normal((3, 32, 32)))
        lhs = g.skron(u, v) @ g.svec(w)
        assert all(name in vars(g) for name in tables)
        assert np.max(np.abs(lhs - g.svec((u @ w @ v + v @ w @ u) / 2))) < 1e-12


class TestProblemApi:
    def test_rejects_asymmetric_block(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SdpProblem([2], [np.array([[0.0, 1.0], [0.0, 0.0]])],
                       [([np.eye(2)], 1.0)])

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

    def test_trace_dump(self, tmp_path):
        path = tmp_path / "trace.csv"
        sol = solve(scalar_bound_problem(), SdpOptions(trace_path=str(path)))
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("iter,primal,dual,relgap")
        assert len(lines) == sol.iterations + 2  # header + iterates incl. start


def random_pd_stack(rng, count, n):
    g = rng.standard_normal((count, n, n))
    return g @ g.transpose(0, 2, 1) / n + 0.1 * np.eye(n)


def random_symmetric_stack(rng, count, n):
    g = rng.standard_normal((count, n, n))
    return (g + g.transpose(0, 2, 1)) / 2


class TestFactorInverse:
    """The step rule and S^-1, both taken from the inverse Cholesky factor."""

    @pytest.mark.parametrize("n", [16, 32])
    def test_step_matches_generalized_eigenproblem(self, n):
        rng = np.random.default_rng(50 + n)
        x = random_pd_stack(rng, 4, n)
        linv = _inverse_factor(np.linalg.cholesky(x))
        deltas = [random_symmetric_stack(rng, 4, n),
                  -random_pd_stack(rng, 4, n),
                  random_pd_stack(rng, 4, n)]
        for delta in deltas:
            lam_min = min(sla.eigh(dd, xx, eigvals_only=True)[0] for dd, xx in zip(delta, x))
            expected = math.inf if lam_min >= -1e-14 else -1.0 / lam_min
            assert _step_to_boundary(linv, delta) == pytest.approx(expected, rel=1e-10)
        assert _step_to_boundary(linv, deltas[2]) == math.inf

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
