import itertools
import math

import numpy as np
import pytest

from genneg import linalg
from genneg.channels import (ChannelKind, apply_local_channel,
                             evolved_single_qubit_oracle, single_qubit_kraus)

ALL_KINDS = list(ChannelKind)


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def global_kraus_evolution(rho, kind, s, nqubits):
    """Brute-force oracle: enumerate all tensor products of the Kraus set."""
    ops = single_qubit_kraus(kind, s).operators
    out = np.zeros_like(rho)
    for combo in itertools.product(ops, repeat=nqubits):
        k = combo[0]
        for w in combo[1:]:
            k = np.kron(k, w)
        out += k @ rho @ k.conj().T
    return out


def kronecker_evolution(rho, kind, s, nqubits):
    """The qubit-by-qubit Kronecker formula: (1 ⊗ w ⊗ 1) ρ (1 ⊗ w ⊗ 1)† summed over w."""
    out = rho
    for q in range(nqubits):
        left = np.eye(2**q, dtype=complex)
        right = np.eye(2 ** (nqubits - q - 1), dtype=complex)
        acc = np.zeros_like(out)
        for w in single_qubit_kraus(kind, s).operators:
            k = linalg.tensor_product(left, w, right)
            acc += k @ out @ k.conj().T
        out = acc
    return linalg.hermitian_part(out)


class TestKrausSets:
    def test_amplitude_damping_at_zero_noise(self):
        ks = single_qubit_kraus(ChannelKind.AMPLITUDE_DAMPING, 0.0)
        assert np.allclose(ks.operators[0], np.eye(2))
        assert np.allclose(ks.operators[1], np.zeros((2, 2)))

    def test_depolarizing_full_mixing_weights(self):
        # gamma -> 0 gives p = 1, q = 3/4: weights sqrt(1-q) = 1/2, sqrt(q/3) = 1/2
        ks = single_qubit_kraus(ChannelKind.DEPOLARIZING, 1e9)
        assert np.allclose(ks.operators[0], 0.5 * np.eye(2), atol=1e-12)
        for w, pauli in zip(ks.operators[1:], (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z)):
            assert np.allclose(w, 0.5 * pauli, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("s", [0.0, 0.05, 0.7, 3.0, 10.0])
    def test_completeness(self, kind, s):
        ks = single_qubit_kraus(kind, s)
        total = sum(w.conj().T @ w for w in ks.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_operator_counts(self):
        assert len(single_qubit_kraus(ChannelKind.AMPLITUDE_DAMPING, 0.5).operators) == 2
        assert len(single_qubit_kraus(ChannelKind.PHASE_DAMPING, 0.5).operators) == 2
        assert len(single_qubit_kraus(ChannelKind.DEPOLARIZING, 0.5).operators) == 4

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            single_qubit_kraus(ChannelKind.PHASE_DAMPING, -0.1)

    def test_parse(self):
        assert ChannelKind.parse("ad") is ChannelKind.AMPLITUDE_DAMPING
        assert ChannelKind.parse("PD") is ChannelKind.PHASE_DAMPING
        assert ChannelKind.parse("depolarizing") is ChannelKind.DEPOLARIZING
        with pytest.raises(ValueError, match="unknown channel"):
            ChannelKind.parse("xy")


class TestSingleQubitOracle:
    def test_amplitude_damping_population_decay(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 2)
        s = 0.37
        out = evolved_single_qubit_oracle(rho, ChannelKind.AMPLITUDE_DAMPING, s)
        assert abs(out[1, 1] - rho[1, 1] * math.exp(-s)) < 1e-15
        assert abs(out[0, 1] - rho[0, 1] * math.exp(-s / 2)) < 1e-15

    def test_phase_damping_on_plus_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        s = 0.8
        out = evolved_single_qubit_oracle(plus, ChannelKind.PHASE_DAMPING, s)
        assert abs(out[0, 0] - 0.5) < 1e-15
        assert abs(out[1, 1] - 0.5) < 1e-15
        assert abs(out[0, 1] - 0.5 * math.exp(-s / 2)) < 1e-15

    def test_full_relaxation(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        out = evolved_single_qubit_oracle(rho, ChannelKind.AMPLITUDE_DAMPING, 1e9)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_depolarizing_full_mixing(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 2)
        out = evolved_single_qubit_oracle(rho, ChannelKind.DEPOLARIZING, 1e9)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="2x2"):
            evolved_single_qubit_oracle(np.eye(4, dtype=complex) / 4,
                                        ChannelKind.PHASE_DAMPING, 0.1)


class TestApplyLocalChannel:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_single_qubit_oracle(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density(rng, 2)
            s = float(rng.random() * 3)
            got = apply_local_channel(rho, kind, s, 1)
            want = evolved_single_qubit_oracle(rho, kind, s)
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_matches_global_kraus_brute_force(self, kind, nqubits):
        rng = np.random.default_rng(14)
        for _ in range(5):
            rho = random_density(rng, 2**nqubits)
            s = float(rng.random() * 2)
            got = apply_local_channel(rho, kind, s, nqubits)
            want = global_kraus_evolution(rho, kind, s, nqubits)
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("nqubits", [2, 3, 4])
    def test_matches_kronecker_formula(self, kind, nqubits):
        rng = np.random.default_rng(18)
        for _ in range(5):
            rho = random_density(rng, 2**nqubits)
            s = float(rng.random() * 3)
            got = apply_local_channel(rho, kind, s, nqubits)
            assert np.max(np.abs(got - kronecker_evolution(rho, kind, s, nqubits))) < 1e-14

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("nqubits", [2, 3, 4])
    def test_product_states_match_single_qubit_oracle(self, kind, nqubits):
        # independent noise maps a product state to the product of the
        # closed-form single-qubit evolutions
        rng = np.random.default_rng(19)
        for _ in range(5):
            factors = [random_density(rng, 2) for _ in range(nqubits)]
            s = float(rng.random() * 3)
            got = apply_local_channel(linalg.tensor_product(*factors), kind, s, nqubits)
            want = linalg.tensor_product(*[evolved_single_qubit_oracle(f, kind, s)
                                           for f in factors])
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_at_zero(self, kind):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 8)
        assert np.max(np.abs(apply_local_channel(rho, kind, 0.0, 3) - rho)) < 1e-14

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trace_preserved_and_positive(self, kind):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 8, rank=2)
        for s in np.linspace(0, 10, 9):
            out = apply_local_channel(rho, kind, float(s), 3)
            assert abs(np.trace(out).real - 1) < 1e-10
            assert np.linalg.eigvalsh(out)[0] > -1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_semigroup_composition(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = random_density(rng, 4)
            s1, s2 = float(rng.random()), float(rng.random() * 2)
            oneshot = apply_local_channel(rho, kind, s1 + s2, 2)
            twostep = apply_local_channel(
                apply_local_channel(rho, kind, s1, 2), kind, s2, 2)
            assert np.max(np.abs(oneshot - twostep)) < 1e-9

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(ValueError, match="trace"):
            apply_local_channel(np.eye(4, dtype=complex), ChannelKind.PHASE_DAMPING, 0.1, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_local_channel(np.eye(4, dtype=complex) / 4, ChannelKind.PHASE_DAMPING, 0.1, 3)
