import numpy as np
import pytest

from qetkd.errors import ImaginaryResidueError
from qetkd.spinops import (
    PauliTerm,
    apply_on_site,
    assemble,
    commutator,
    eigendecompose,
    expectation,
    pauli_on_site,
    pure_density,
    require_density_matrix,
    require_hermitian,
    require_unitary,
    sandwich,
    site_operator,
    term,
    trace_distance,
)

import oracles


class TestPauliOnSite:
    def test_z_on_single_site(self):
        assert np.allclose(pauli_on_site("Z", 0, 1), np.diag([1, -1]))

    def test_x_on_second_of_two(self):
        # identity (x) X swaps |00>-|01> and |10>-|11>
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ], dtype=complex)
        assert np.allclose(pauli_on_site("X", 1, 2), expected)

    def test_y_squares_to_identity(self):
        y = pauli_on_site("Y", 0, 2)
        assert np.allclose(y @ y, np.eye(4))

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_involution_everywhere(self, axis):
        op = pauli_on_site(axis, 2, 4)
        assert np.allclose(op @ op, np.eye(16))

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_on_site("X", 2, 2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            pauli_on_site("X", 0, 13)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli_on_site("W", 0, 1)


class TestAssemble:
    def test_two_site_block(self):
        # k = h = 1: the {|00>, |11>} block is [[2, 2], [2, -2]]
        terms = [term(2.0, (0, "X"), (1, "X")), term(1.0, (0, "Z")), term(1.0, (1, "Z"))]
        h = assemble(terms, 2)
        assert np.allclose(h, oracles.two_site_matrix(1.0, 1.0))
        block = h[np.ix_([0, 3], [0, 3])]
        assert np.allclose(block, [[2, 2], [2, -2]])

    def test_single_z_term(self):
        assert np.allclose(assemble([term(1.0, (0, "Z"))], 1), np.diag([1, -1]))

    def test_field_only_chain_is_diagonal(self):
        h = assemble([term(1.0, (i, "Z")) for i in range(3)], 3)
        assert np.allclose(h, np.diag([3, 1, 1, -1, 1, -1, -1, -3]))
        assert h[7, 7].real == -3  # |111> is the ground configuration

    def test_empty_terms_give_zero(self):
        assert np.allclose(assemble([], 2), np.zeros((4, 4)))

    def test_malformed_term_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, "X"), (0, "Z")))  # repeated site
        with pytest.raises(ValueError):
            assemble([term(1.0, (3, "Z"))], 2)  # does not fit

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.normal(size=2)
            t1 = term(1.0, (0, "X"), (1, "X"))
            t2 = term(1.0, (1, "Z"))
            combined = assemble([term(a, (0, "X"), (1, "X")), term(b, (1, "Z"))], 2)
            separate = a * assemble([t1], 2) + b * assemble([t2], 2)
            assert np.allclose(combined, separate, atol=1e-12)


class TestPauliAlgebra:
    @pytest.mark.parametrize("site,n", [(0, 1), (1, 3), (2, 3)])
    def test_xy_cycle(self, site, n):
        x = pauli_on_site("X", site, n)
        y = pauli_on_site("Y", site, n)
        z = pauli_on_site("Z", site, n)
        assert np.allclose(x @ y, 1j * z)
        assert np.allclose(y @ z, 1j * x)
        assert np.allclose(z @ x, 1j * y)


class TestEigendecompose:
    def test_diagonal(self):
        evals, _ = eigendecompose(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(evals, [-1, 1])

    def test_two_site_spectrum_matches_block_formula(self):
        for k, h in [(1.0, 1.0), (0.5, 2.0), (2.3, 0.7)]:
            evals, _ = eigendecompose(oracles.two_site_matrix(k, h))
            assert np.allclose(evals, oracles.two_site_eigenvalues(k, h), atol=1e-12)

    def test_field_chain_spectrum(self):
        evals, _ = eigendecompose(oracles.chain3_matrix(0.0))
        assert np.allclose(evals, [-3, -1, -1, -1, 1, 1, 1, 3])

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 64, 256])
    def test_roundtrip_random_hermitian(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        evals, evecs = eigendecompose(h)
        recon = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
        assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(evals) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))


class TestExpectation:
    def test_ground_projector_z(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert expectation(rho, np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(1.0)

    def test_maximally_mixed_traceless(self):
        rho = np.eye(4, dtype=complex) / 4
        for op in [oracles.embed("X", 0, 2), oracles.embed("Y", 1, 2),
                   oracles.embed("X", 0, 2) @ oracles.embed("Z", 1, 2)]:
            assert expectation(rho, op) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_sender_part_has_zero_ground_expectation(self):
        h = oracles.two_site_matrix(1.0, 1.0)
        _, gs = oracles.ground(h)
        c1 = 1.0 / np.sqrt(2.0)
        shifted = oracles.embed("Z", 0, 2) + c1 * np.eye(4)
        assert expectation(gs, shifted) == pytest.approx(0.0, abs=1e-10)

    def test_imaginary_residue_raises(self):
        rho = pure_density(np.array([1.0, 1.0j]) / np.sqrt(2))
        non_hermitian = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ImaginaryResidueError):
            expectation(rho, non_hermitian)

    def test_vector_and_matrix_agree(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        a = oracles.embed("Z", 0, 2) + 0.3 * oracles.embed("X", 1, 2)
        assert expectation(v, a) == pytest.approx(expectation(pure_density(v), a))


class TestValidators:
    def test_density_matrix_accepts_valid(self):
        require_density_matrix(np.eye(4, dtype=complex) / 4)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            require_density_matrix(np.eye(4, dtype=complex))

    def test_density_matrix_rejects_negative(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            require_density_matrix(bad)

    def test_unitary_check(self):
        theta = 0.3
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        require_unitary(u)
        with pytest.raises(ValueError):
            require_unitary(2 * u)

    def test_hermitian_check(self):
        require_hermitian(oracles.SY)
        with pytest.raises(ValueError):
            require_hermitian(1j * oracles.SY + oracles.SX * 0.5 + 1j * np.eye(2))

    def test_trace_distance_basics(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert trace_distance(a, a) == pytest.approx(0.0)

    def test_commutator_of_commuting_is_zero(self):
        x0 = oracles.embed("X", 0, 2)
        z1 = oracles.embed("Z", 1, 2)
        assert np.allclose(commutator(x0, z1), 0)


class TestMaskKernelAgainstOracle:
    """Mask-built operators and site-local contractions against Kronecker products."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pauli_products_match_embed(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            k = int(rng.integers(1, n + 1))
            sites = rng.choice(n, size=k, replace=False)
            axes = rng.choice(["X", "Y", "Z"], size=k)
            factors = tuple((int(s), str(a)) for s, a in zip(sites, axes))
            expected = np.eye(2 ** n, dtype=complex)
            for site, axis in factors:
                expected = expected @ oracles.embed(axis, site, n)
            assert np.allclose(assemble([term(1.0, *factors)], n), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 6])
    def test_weighted_sum_matches_embed(self, n):
        rng = np.random.default_rng(n)
        terms, expected = [], np.zeros((2 ** n, 2 ** n), dtype=complex)
        for _ in range(8):
            sites = rng.choice(n, size=2, replace=False)
            axes = rng.choice(["X", "Y", "Z"], size=2)
            c = float(rng.normal())
            terms.append(term(c, *((int(s), str(a)) for s, a in zip(sites, axes))))
            expected += c * (oracles.embed(axes[0], sites[0], n)
                             @ oracles.embed(axes[1], sites[1], n))
        assert np.allclose(assemble(terms, n), expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_site_local_matches_dense(self, n):
        # random, non-Hermitian operators on random non-pure, non-Hermitian matrices
        rng = np.random.default_rng(40 + n)
        dim = 2 ** n
        for site in range(n):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            full = oracles.embed_op(op, site, n)
            assert np.allclose(site_operator(op, site, n), full, atol=1e-14)
            assert np.allclose(sandwich(op, site, m), full @ m @ full.conj().T,
                               atol=1e-12)
            assert np.allclose(apply_on_site(op, site, m), full @ m, atol=1e-12)
            assert np.allclose(apply_on_site(op, n + site, m), m @ full.T, atol=1e-12)
            assert np.allclose(apply_on_site(op, site, m[:, 0]), full @ m[:, 0],
                               atol=1e-12)

    def test_sandwich_rejects_site_outside_register(self):
        with pytest.raises(ValueError):
            sandwich(oracles.SX, 2, np.eye(4))

    def test_real_hamiltonian_solved_as_real(self):
        h = oracles.chain3_matrix(1.3)
        evals, evecs = eigendecompose(h)
        assert not np.iscomplexobj(evecs)
        assert np.allclose(evals, np.linalg.eigvalsh(h), atol=1e-12)
        assert np.allclose(h @ evecs, evecs * evals, atol=1e-12)
