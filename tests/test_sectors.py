"""The flip-sector spectrum against dense Kronecker-product oracles.

``HamiltonianSpec.spectrum`` solves H block by block in the cosets of the
span of its terms' flip masks.  These tests compare it with
``np.linalg.eigh`` on the oracle matrix of the same Hamiltonian: the
eigenvalues, each eigenvector's residual and orthonormality, and the
ground state up to a phase.
"""

import tracemalloc

import numpy as np
import pytest

from qetkd import models
from qetkd.models import HamiltonianSpec, chain3, star, two_site, \
    two_site_partition_alternative
from qetkd.noise import default_chain_coupling
from qetkd.spinops import assemble_sectors, eigendecompose, term

import oracles


def assert_spectrum_matches(spec, h):
    """spec.spectrum against the dense oracle matrix h of the same Hamiltonian."""
    evals, evecs = spec.spectrum
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(evals, want, rtol=0, atol=1e-12 * scale)
    residual = np.linalg.norm(h @ evecs - evecs * evals, axis=0)
    assert residual.max() <= 1e-10
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(len(h)), rtol=0, atol=1e-12)
    if want[1] - want[0] > 1e-8 * scale:
        overlap = abs(np.vdot(np.linalg.eigh(h)[1][:, 0], evecs[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def random_spec(n, rng, n_terms=8):
    """Random 1- and 2-site Pauli terms, Y factors included."""
    terms = []
    for _ in range(n_terms):
        k = int(rng.integers(1, min(n, 2) + 1))
        sites = rng.choice(n, size=k, replace=False)
        axes = rng.choice(["X", "Y", "Z"], size=k)
        terms.append(term(float(rng.normal()), *((int(s), str(a)) for s, a in zip(sites, axes))))
    return HamiltonianSpec(f"random-{n}", n, tuple(terms))


class TestModelSpectra:
    @pytest.mark.parametrize("j", [0.0, 0.7, None])
    def test_chain3(self, j):
        j = default_chain_coupling() if j is None else j
        spec, _ = chain3(j)
        assert_spectrum_matches(spec, oracles.chain3_matrix(j))

    @pytest.mark.parametrize("n_parties", range(1, 10))
    def test_star(self, n_parties):
        spec, _ = star(n_parties, 1.0)
        assert_spectrum_matches(spec, oracles.star_matrix(n_parties, 1.0))

    def test_two_site(self):
        assert_spectrum_matches(two_site(1.3, 0.4), oracles.two_site_matrix(1.3, 0.4))

    @pytest.mark.parametrize("make", [lambda: star(5, 1.0)[0], lambda: chain3(0.7)[0],
                                      lambda: two_site(1.0, 1.0)])
    def test_models_split_into_two_parity_blocks(self, make):
        spec = make()
        blocks, states = assemble_sectors(spec.terms, spec.n_sites)
        half = 2 ** (spec.n_sites - 1)
        assert blocks.shape == (2, half, half)
        assert not np.iscomplexobj(blocks)
        parity = np.array([bin(x).count("1") % 2 for x in range(2 ** spec.n_sites)])
        assert set(parity[states[0]]) == {0} and set(parity[states[1]]) == {1}


class TestSectorShapes:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_random_specs_with_y_factors(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(4):
            spec = random_spec(n, rng)
            assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    def test_random_pair_flips_give_many_complex_sectors(self):
        # X/Y products on the pairs (0,1), (2,3), (4,5) flip both sites of a
        # pair: a rank-3 span, so 8 sectors of 8 states each
        rng = np.random.default_rng(77)
        n = 6
        for _ in range(3):
            terms = [term(float(rng.normal()), (p, str(rng.choice(["X", "Y"]))),
                          (p + 1, str(rng.choice(["X", "Y"]))))
                     for p in (0, 2, 4) for _ in range(2)]
            terms += [term(float(rng.normal()), (k, "Z")) for k in range(n)]
            terms.append(term(1.0, (0, "X"), (1, "Y")))
            spec = HamiltonianSpec("pairs", n, tuple(terms))
            blocks, _ = assemble_sectors(spec.terms, n)
            assert blocks.shape == (8, 8, 8) and np.iscomplexobj(blocks)
            assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    def test_odd_y_count_gives_complex_blocks(self):
        spec = HamiltonianSpec("xy", 3, (term(0.8, (0, "X"), (1, "Y")), term(0.5, (1, "Z")),
                                         term(-0.3, (2, "Y"), (1, "X")), term(0.2, (0, "Z"))))
        blocks, _ = assemble_sectors(spec.terms, spec.n_sites)
        assert np.iscomplexobj(blocks) and np.any(blocks.imag)
        assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, 3))

    def test_flips_spanning_the_register_give_one_sector(self):
        n = 4
        terms = tuple(term(0.6 + 0.1 * k, (k, "X")) for k in range(n)) + tuple(
            term(1.0, (k, "Z"), (k + 1, "Z")) for k in range(n - 1))
        spec = HamiltonianSpec("transverse-ising", n, terms)
        blocks, states = assemble_sectors(spec.terms, n)
        assert blocks.shape == (1, 2 ** n, 2 ** n)
        assert sorted(states[0]) == list(range(2 ** n))
        assert_spectrum_matches(spec, oracles.terms_matrix(terms, n))

    def test_z_only_spec_gives_one_state_per_sector(self):
        n = 3
        terms = (term(1.0, (0, "Z")), term(0.5, (1, "Z")), term(-0.25, (2, "Z")),
                 term(0.3, (0, "Z"), (2, "Z")))
        spec = HamiltonianSpec("fields", n, terms)
        blocks, states = assemble_sectors(terms, n)
        assert blocks.shape == (2 ** n, 1, 1)
        assert sorted(states[:, 0]) == list(range(2 ** n))
        assert_spectrum_matches(spec, oracles.terms_matrix(terms, n))

    def test_blocks_are_the_submatrices_of_h(self):
        spec = random_spec(5, np.random.default_rng(5))
        h = oracles.terms_matrix(spec.terms, 5)
        blocks, states = assemble_sectors(spec.terms, 5)
        for block, sites in zip(blocks, states):
            np.testing.assert_allclose(block, h[np.ix_(sites, sites)], rtol=0, atol=1e-14)
        outside = np.ones(h.shape, dtype=bool)
        for sites in states:
            outside[np.ix_(sites, sites)] = False
        assert not np.any(h[outside])


class TestStackedSolve:
    def test_hermiticity_is_checked_per_block(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(stack)
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.zeros((2, 2, 3)))

    def test_blocks_solved_independently(self):
        stack = np.array([oracles.two_site_matrix(1.0, 0.5), oracles.chain3_matrix(0.0)[:4, :4]])
        evals, evecs = eigendecompose(stack)
        for block, values, vectors in zip(stack, evals, evecs):
            np.testing.assert_allclose(values, np.linalg.eigvalsh(block), rtol=0, atol=1e-12)
            np.testing.assert_allclose(block @ vectors, vectors * values, rtol=0, atol=1e-12)


class TestNoRegisterMatrix:
    def test_builders_assemble_no_register_matrix(self, monkeypatch):
        def refuse(terms, n_sites):
            raise AssertionError(f"d x d assemble of {n_sites} sites")

        monkeypatch.setattr(models, "assemble", refuse)
        star(4, 1.0)
        chain3(0.9)
        two_site_partition_alternative(1.0, 0.5)

    def test_star9_build_memory(self):
        # the full 1024 x 1024 complex solve and ten d x d shift assembles
        # peaked at 50.5 MB; the sector solve needs less than half of that
        tracemalloc.start()
        try:
            star(9, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25_250_000
