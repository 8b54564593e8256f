import numpy as np
import pytest

from genneg import linalg


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def bell_density():
    psi = np.zeros(4, dtype=complex)
    psi[0b00] = psi[0b11] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


class TestTensorProduct:
    def test_identity_case(self):
        out = linalg.tensor_product(np.eye(2), np.eye(2))
        assert np.array_equal(out, np.eye(4))

    def test_dimension_product(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4))
        assert linalg.tensor_product(a, b).shape == (8, 8)

    def test_basis_projector_placement(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        out = linalg.tensor_product(p0, p1)
        assert np.allclose(out, np.diag([0, 1, 0, 0]))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 4)
            lhs = np.trace(linalg.tensor_product(a, b))
            assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        rng = np.random.default_rng(2)
        m = np.diag(rng.standard_normal(8)).astype(complex)
        for subset in [(0,), (1,), (2,), (0, 2)]:
            assert np.array_equal(linalg.partial_transpose(m, subset, 3), m)

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        for subset in [(0,), (1, 3), (0, 1, 2)]:
            twice = linalg.partial_transpose(
                linalg.partial_transpose(m, subset, 4), subset, 4)
            assert np.array_equal(twice, m)

    def test_bell_state_minimum_eigenvalue(self):
        # oracle: build the partially transposed matrix entry by entry and
        # eigendecompose it directly
        rho = bell_density()
        oracle = np.zeros((4, 4), dtype=complex)
        for r in range(4):
            for c in range(4):
                r2 = (r & 0b01) | (c & 0b10)
                c2 = (c & 0b01) | (r & 0b10)
                oracle[r2, c2] = rho[r, c]
        oracle_eigs = np.sort(np.linalg.eigvalsh(oracle))
        assert abs(oracle_eigs[0] - (-0.5)) < 1e-12

        pt = linalg.partial_transpose(rho, (0,), 2)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), oracle_eigs, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            pt = linalg.partial_transpose(m, (1,), 3)
            assert np.trace(pt) == np.trace(m)
            assert np.array_equal(pt, pt.conj().T)

    def test_complement_has_same_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_hermitian(rng, 8)
            e1 = linalg.eig_hermitian(linalg.partial_transpose(m, (0,), 3))
            e2 = linalg.eig_hermitian(linalg.partial_transpose(m, (1, 2), 3))
            assert np.max(np.abs(e1 - e2)) < 1e-9

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError, match="out of range"):
            linalg.partial_transpose(np.eye(4, dtype=complex), (2,), 2)


class TestEigHermitian:
    def test_diagonal_case(self):
        assert np.allclose(linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_y_spectrum(self):
        assert np.allclose(linalg.eig_hermitian(linalg.PAULI_Y), [-1, 1])

    def test_bell_partial_transpose_spectrum(self):
        pt = linalg.partial_transpose(bell_density(), (0,), 2)
        assert np.allclose(linalg.eig_hermitian(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.eig_hermitian(m)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_hermitian(rng, 16)
            eigs = linalg.eig_hermitian(m)
            assert np.all(np.diff(eigs) >= 0)
            assert abs(eigs.sum() - np.trace(m).real) < 1e-9


class TestDensityValidation:
    def test_accepts_valid(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert linalg.check_density_matrix(rho) == 2

    def test_names_trace_violation(self):
        with pytest.raises(ValueError, match="trace"):
            linalg.check_density_matrix(np.eye(4, dtype=complex))

    def test_names_positivity_violation(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            linalg.check_density_matrix(rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_names_non_finite_entries(self, bad):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            linalg.check_density_matrix(rho)

    def test_names_dimension_mismatch(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.check_density_matrix(rho, nqubits=2)
