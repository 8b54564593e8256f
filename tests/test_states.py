import numpy as np
import pytest

from genneg import states
from genneg.states import StateFileError

SQ2 = 1 / np.sqrt(2)
SQ3 = 1 / np.sqrt(3)
SQ6 = 1 / np.sqrt(6)


class TestNamedStates:
    def test_ghz3_amplitudes(self):
        psi = states.named_state("ghz3")
        want = np.zeros(8)
        want[0] = want[7] = SQ2
        assert np.allclose(psi, want)

    def test_w_states(self):
        w3 = states.named_state("w3")
        assert np.allclose(sorted(np.flatnonzero(w3)), [1, 2, 4])
        assert np.allclose(w3[w3 != 0], SQ3)
        w4 = states.named_state("w4")
        assert np.allclose(sorted(np.flatnonzero(w4)), [1, 2, 4, 8])
        assert np.allclose(w4[w4 != 0], 0.5)

    def test_three_qubit_variants(self):
        b = states.named_state("ghz3b")
        assert np.allclose(b[0b001], SQ2) and np.allclose(b[0b110], SQ2)
        assert np.count_nonzero(b) == 2
        w = states.named_state("w3b")
        assert sorted(np.flatnonzero(w)) == [0b011, 0b101, 0b110]
        assert np.allclose(w[w != 0], SQ3)

    def test_dicke_24(self):
        psi = states.named_state("d24")
        support = sorted(np.flatnonzero(psi))
        assert support == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert np.allclose(psi[psi != 0], SQ6)

    def test_four_qubit_singlet(self):
        psi = states.named_state("singlet4")
        assert np.allclose(psi[0b0011], SQ3)
        assert np.allclose(psi[0b1100], SQ3)
        for idx in (0b0101, 0b0110, 0b1001, 0b1010):
            assert np.allclose(psi[idx], -SQ3 / 2)

    def test_cluster_state(self):
        psi = states.named_state("cluster4")
        assert np.allclose(psi[0b0000], 0.5)
        assert np.allclose(psi[0b0011], 0.5)
        assert np.allclose(psi[0b1100], 0.5)
        assert np.allclose(psi[0b1111], -0.5)

    def test_chi_state(self):
        psi = states.named_state("chi4")
        assert np.allclose(psi[0b1111], np.sqrt(2) * SQ6)
        for idx in (0b0001, 0b0010, 0b0100, 0b1000):
            assert np.allclose(psi[idx], SQ6)

    @pytest.mark.parametrize("name", states.NAMED_STATE_NAMES)
    def test_unit_norm(self, name):
        assert abs(np.linalg.norm(states.named_state(name)) - 1) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown named state"):
            states.named_state("ghz5")


class TestHaarRandom:
    def test_norm_and_determinism(self):
        a = states.haar_random_state(3, 12345)
        b = states.haar_random_state(3, 12345)
        assert abs(np.linalg.norm(a) - 1) < 1e-12
        assert np.array_equal(a, b)
        c = states.haar_random_state(3, 12346)
        assert not np.allclose(a, c)

    def test_component_mean_matches_haar(self):
        # Monte-Carlo oracle: E|amp_i|^2 = 1/2^N by Haar symmetry
        n, draws = 2, 10_000
        d = 2**n
        samples = np.empty((draws, d))
        for k in range(draws):
            samples[k] = np.abs(states.haar_random_state(n, k)) ** 2
        mean = samples.mean()
        stderr = samples.std() / np.sqrt(samples.size)
        assert abs(mean - 1 / d) < 3 * stderr

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError, match="nqubits"):
            states.haar_random_state(5, 0)

    @pytest.mark.parametrize("generator", list(states.GeneratorKind))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_state_dispatch(self, generator, n):
        psi = states.random_state(generator, n, 17)
        if generator is states.GeneratorKind.HAAR_RANDOM:
            expected = states.haar_random_state(n, 17)
        else:
            expected = states.weighted_graph_state(states.random_weighted_graph(n, 17))
        assert np.array_equal(psi, expected)
        assert np.array_equal(states.random_state(generator.value, n, 17), expected)

    @pytest.mark.parametrize("generator", ["haar", "wgs"])
    @pytest.mark.parametrize("n", [1, 5])
    def test_random_state_qubit_range(self, generator, n):
        with pytest.raises(ValueError, match=f"nqubits must be 2 to 4, got {n}"):
            states.random_state(generator, n, 0)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator 'gauss'"):
            states.random_state("gauss", 3, 0)

    def test_polar_normals_moments(self):
        rng = states.seeded_rng(7)
        z = states._standard_normals(rng, 20_000)
        assert abs(z.mean()) < 3 / np.sqrt(len(z))
        assert abs(z.var() - 1) < 5 / np.sqrt(len(z))


class TestWeightedGraphs:
    def test_phase_counts(self):
        assert len(states.random_weighted_graph(3, 0).phases) == 3
        assert len(states.random_weighted_graph(4, 0).phases) == 6

    def test_determinism(self):
        a = states.random_weighted_graph(4, 99)
        b = states.random_weighted_graph(4, 99)
        assert a == b

    def test_phase_mean(self):
        draws = []
        for seed in range(3000):
            draws.extend(states.random_weighted_graph(3, seed).phases.values())
        draws = np.array(draws)
        stderr = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - np.pi) < 3 * stderr
        assert draws.min() >= 0 and draws.max() < 2 * np.pi

    def test_all_zero_phases_gives_plus_state(self):
        g = states.WeightedGraph(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
        psi = states.weighted_graph_state(g)
        assert np.allclose(psi, np.full(8, 1 / np.sqrt(8)))

    def test_two_qubit_pi_phase(self):
        # hand evaluation: amplitudes 1/2 with a sign flip on |11>
        g = states.WeightedGraph(2, {(0, 1): np.pi})
        psi = states.weighted_graph_state(g)
        assert np.allclose(psi, [0.5, 0.5, 0.5, -0.5])

    def test_matches_explicit_unitary_application(self):
        # oracle: apply the commuting pair unitaries as explicit matrices, in
        # several different orders
        rng = np.random.default_rng(20)
        n = 3
        g = states.random_weighted_graph(n, 31)
        want = states.weighted_graph_state(g)
        pairs = list(g.phases.items())
        for perm_seed in range(4):
            order = rng.permutation(len(pairs))
            psi = np.full(2**n, 1 / np.sqrt(2**n), dtype=complex)
            for t in order:
                (k, l), phi = pairs[t]
                u = np.ones(2**n, dtype=complex)
                for idx in range(2**n):
                    bk = (idx >> (n - 1 - k)) & 1
                    bl = (idx >> (n - 1 - l)) & 1
                    if bk and bl:
                        u[idx] = np.exp(-1j * phi)
                psi = u * psi
            assert np.allclose(psi, want, atol=1e-14)

    def test_magnitudes_are_uniform(self):
        g = states.random_weighted_graph(4, 5)
        psi = states.weighted_graph_state(g)
        assert np.allclose(np.abs(psi), 0.25)

    def test_invalid_phase_table(self):
        with pytest.raises(ValueError, match="pairs"):
            states.WeightedGraph(3, {(0, 1): 0.5})


class TestToDensity:
    def test_basis_state(self):
        rho = states.to_density(np.array([1.0, 0.0]))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_purity(self):
        psi = states.haar_random_state(3, 3)
        rho = states.to_density(psi)
        assert abs(np.trace(rho @ rho).real - 1) < 1e-12
        assert abs(np.trace(rho).real - 1) < 1e-12

    def test_ghz3_density_entries(self):
        rho = states.to_density(states.named_state("ghz3"))
        assert np.count_nonzero(np.abs(rho) > 1e-15) == 4
        for r, c in ((0, 0), (0, 7), (7, 0), (7, 7)):
            assert np.allclose(rho[r, c], 0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            states.to_density(np.array([1.0, 1.0]))


class TestStateFiles:
    def test_pure_roundtrip(self, tmp_path):
        psi = states.haar_random_state(3, 8)
        path = tmp_path / "pure.state"
        path.write_text(states.format_pure_state(psi), encoding="ascii")
        rho = states.read_state_file(path)
        assert np.max(np.abs(rho - states.to_density(psi))) < 1e-15

    def test_mixed_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        path = tmp_path / "mixed.state"
        path.write_text(states.format_mixed_state(rho), encoding="ascii")
        back = states.read_state_file(path)
        assert np.max(np.abs(back - rho)) < 1e-15

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.state"
        path.write_text("# a comment\npure 1\n\n1 0  # the |0> amplitude\n0 0\n",
                        encoding="ascii")
        rho = states.read_state_file(path)
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text("pure 1\n1 0\noops nan\n", encoding="ascii")
        with pytest.raises(StateFileError, match=r"bad\.state:3"):
            states.read_state_file(path)

    def test_error_carries_column_for_mixed_pairs(self, tmp_path):
        path = tmp_path / "bad2.state"
        path.write_text("mixed 1\n1,0 0,0\n0,0 zz,0\n", encoding="ascii")
        with pytest.raises(StateFileError, match=r"bad2\.state:3:2"):
            states.read_state_file(path)

    def test_non_finite_amplitude_names_its_line(self, tmp_path):
        path = tmp_path / "nan.state"
        path.write_text("pure 2\n1 0\nnan 0\n0 0\n0 0\n", encoding="ascii")
        with pytest.raises(StateFileError, match=r"nan\.state:3: non-finite amplitude 'nan 0'"):
            states.read_state_file(path)

    def test_non_finite_pair_names_its_line_and_column(self, tmp_path):
        path = tmp_path / "inf.state"
        path.write_text("mixed 1\n1,0 0,inf\n0,0 0,0\n", encoding="ascii")
        with pytest.raises(StateFileError, match=r"inf\.state:2:2: non-finite pair '0,inf'"):
            states.read_state_file(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "short.state"
        path.write_text("pure 2\n1 0\n0 0\n", encoding="ascii")
        with pytest.raises(StateFileError, match="expected 4 data lines"):
            states.read_state_file(path)


class TestSeedDerivation:
    def test_distinct_and_deterministic(self):
        seeds = [states.derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [states.derive_seed(42, i) for i in range(100)]
