import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from qetkd.errors import ImaginaryResidueError
from qetkd.models import chain3, star, two_site, two_site_partition_standard
from qetkd.protocol import MeasurementBasis, prepare
from qetkd.spinops import (
    AXES,
    PauliTerm,
    assemble,
    commutator,
    eigendecompose,
    on_support,
    pauli_on_site,
    pure_density,
    reduced_density,
    require_density_matrix,
    require_hermitian,
    site_operator,
    site_paulis,
    term,
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


def marginal_expectation(state, terms, sites):
    """Tr[rho_S A_S] of a sum of terms on sites S: how the library reads an expectation."""
    return complex(np.einsum("ab,ba->", reduced_density(state, sites), on_support(terms, sites)))


class TestExpectation:
    """Expectations are traces against a marginal (``reduced_density`` and
    ``on_support``); ``ReceiverForms.reference`` is one and checks the residue."""

    def test_ground_projector_z(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert marginal_expectation(rho, (term(1.0, (0, "Z")),), [0]) == pytest.approx(1.0)

    def test_maximally_mixed_traceless(self):
        rho = np.eye(4, dtype=complex) / 4
        for terms, sites in [((term(1.0, (0, "X")),), [0]), ((term(1.0, (1, "Y")),), [1]),
                             ((term(1.0, (0, "X"), (1, "Z")),), [0, 1])]:
            assert marginal_expectation(rho, terms, sites) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_sender_part_has_zero_ground_expectation(self):
        h = oracles.two_site_matrix(1.0, 1.0)
        _, gs = oracles.ground(h)
        c1 = 1.0 / np.sqrt(2.0)
        assert oracles.expectation(gs, oracles.embed("Z", 0, 2) + c1 * np.eye(4)) == \
            pytest.approx(0.0, abs=1e-10)
        assert marginal_expectation(gs, (term(1.0, (0, "Z")),), [0]) + c1 == \
            pytest.approx(0.0, abs=1e-10)

    def test_imaginary_residue_raises(self):
        # H_B = 2 X0 X1 + Z1, so Tr[H_B i|11><00|] = 2i
        ctx = prepare(two_site(1.0, 1.0), two_site_partition_standard(1.0, 1.0),
                      MeasurementBasis.x(0))
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 0] = 1j
        with pytest.raises(ImaginaryResidueError):
            ctx.forms.reference(rho)

    def test_vector_and_matrix_agree(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        terms = (term(1.0, (0, "Z")), term(0.3, (2, "X")), term(0.7, (0, "X"), (2, "Y")))
        want = oracles.expectation(v, oracles.terms_matrix(terms, 3))
        for state in (v, pure_density(v)):
            assert marginal_expectation(state, terms, [0, 2]) == pytest.approx(want, abs=1e-12)


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

    def test_hermitian_check(self):
        require_hermitian(oracles.SY)
        with pytest.raises(ValueError):
            require_hermitian(1j * oracles.SY + oracles.SX * 0.5 + 1j * np.eye(2))

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
        # random, non-Hermitian operators
        rng = np.random.default_rng(40 + n)
        for site in range(n):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            full = oracles.embed_op(op, site, n)
            assert np.allclose(site_operator(op, site, n), full, atol=1e-14)

    def test_site_operator_rejects_site_outside_register(self):
        with pytest.raises(ValueError):
            site_operator(oracles.SX, 2, 2)

    def test_real_hamiltonian_solved_as_real(self):
        h = oracles.chain3_matrix(1.3)
        evals, evecs = eigendecompose(h)
        assert not np.iscomplexobj(evecs)
        assert np.allclose(evals, np.linalg.eigvalsh(h), atol=1e-12)
        assert np.allclose(h @ evecs, evecs * evals, atol=1e-12)


def _random_terms(seed, n_sites=8, count=40):
    """A constant and ``count`` Pauli strings of 1 to 4 factors, random coefficients."""
    rng = np.random.default_rng(seed)
    terms = [term(float(rng.normal()))]
    for _ in range(count):
        sites = sorted(rng.choice(n_sites, size=int(rng.integers(1, 5)), replace=False).tolist())
        terms.append(term(float(rng.normal()),
                          *((int(s), AXES[int(rng.integers(3))]) for s in sites)))
    return terms


# name: (terms, sites, SHA-256 of the bytes of assemble(terms, sites)), pinned
# from the assembly that multiplied cached register-sized site Paulis
DENSE_H = {
    "chain3": (chain3(1.0)[0].terms, 3,
               "36e0835cd94c04700dbc76a4e60d8830e9e53a43bed04289aa30a6eae28a056f"),
    "two-site": (two_site(1.0, 1.0).terms, 2,
                 "beca304cbdb254290cfd29eefa85b1578e0af274ebc6509306db4a96990a7cf1"),
    "star1": (star(1, 0.7)[0].terms, 2,
              "77cb83261a591ae38488e84d3005e837cb95e71ab70941edb63fa8622150a522"),
    "star2": (star(2, 0.7)[0].terms, 3,
              "400074fa93ab1440d9122f9c90cbe06444e4e7b675275af1fbe12c668618a036"),
    "random8": (_random_terms(5), 8,
                "a4eccf946e76b1d25c276908af76e078084f3f108264f9dc4417473ab1ed741c"),
}


class TestDenseAssembly:
    """Each Pauli string is scattered as one signed permutation, with no
    cached register-sized site operators."""

    @pytest.mark.parametrize("name", list(DENSE_H))
    def test_keeps_its_bits(self, name):
        terms, n_sites, digest = DENSE_H[name]
        h = assemble(list(terms), n_sites)
        assert hashlib.sha256(h.tobytes()).hexdigest() == digest
        # the Kronecker oracle's entries are the same exact products, summed in order
        assert h.tobytes() == oracles.terms_matrix(terms, n_sites).tobytes()

    def test_dropped_assembly_keeps_nothing(self):
        # the cached site Paulis of one 8-site assembly kept 33.6 MB
        terms, n_sites, _ = DENSE_H["random8"]
        assemble([term(1.0, (0, "X"))], 1)  # warm what any call loads
        site_paulis.cache_clear()  # so that an earlier test's entries cannot hide new ones
        gc.collect()
        tracemalloc.start()
        try:
            h = assemble(list(terms), n_sites)
            del h
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 2e6
