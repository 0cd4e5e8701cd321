"""The block spectrum against dense Kronecker-product oracles.

``HamiltonianSpec.spectrum`` has two solvers.  A hub with at least three
interchangeable leaves is solved in hub (x) total-leaf-spin blocks; any
other H, as one dense block of at most ``spinops.DENSE_MAX_SITES`` sites.
These tests compare it with ``np.linalg.eigh`` on the oracle matrix of the
same Hamiltonian: the eigenvalues and their multiplicities, each
eigenvector's residual and orthonormality, the ground state up to a phase
and the first excited level's projector.  Specs that site swaps leave
unchanged stay among the inputs.  The dense H and the collective hub parts
must be exactly Hermitian at any coefficient scale, a coefficient that is
not finite and real is refused where its term is made, and a larger
non-collective H is refused before any matrix is built.
"""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qetkd import cli, spinops
from qetkd.models import HamiltonianSpec, chain3, first_excited_levels, star, two_site, \
    two_site_partition_alternative
from qetkd.noise import default_chain_coupling
from qetkd.protocol import ground_state
from qetkd.spinops import PauliTerm, assemble, eigendecompose, reduced_density, term

import oracles


def register_values(spectrum):
    """H's eigenvalues, ascending, each once per copy: the levels, each
    repeated by its multiplicity."""
    levels = spectrum.levels
    return np.repeat(levels, [spectrum.multiplicity(i) for i in range(len(levels))])


def assert_spectrum_matches(spec, h):
    """spec.spectrum against the dense oracle matrix h of the same Hamiltonian:
    every eigenvalue with its multiplicity, and the residual and
    orthonormality of every level of one copy (on a dense spec, every level;
    a level with several copies has no canonical vector)."""
    spectrum = spec.spectrum
    want = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(register_values(spectrum), want, rtol=0,
                               atol=1e-12 * scale)
    single = [i for i in range(len(spectrum.levels)) if spectrum.multiplicity(i) == 1]
    evals, evecs = spectrum.levels[single], spectrum.vectors(single)
    residual = np.linalg.norm(h @ evecs - evecs * evals, axis=0)
    assert residual.max() <= 1e-10
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(len(single)), rtol=0, atol=1e-12)
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

    @pytest.mark.parametrize("make", [lambda: star(2, 1.0)[0], lambda: chain3(0.7)[0],
                                      lambda: two_site(1.0, 1.0)])
    def test_small_models_are_one_real_dense_block(self, make):
        spec = make()
        d = 2 ** spec.n_sites
        assert isinstance(spec.spectrum.plan, spinops._DensePlan)
        (vectors,) = spec.spectrum.block_vectors
        assert vectors.shape == (d, d) and not np.iscomplexobj(vectors)
        np.testing.assert_array_equal(assemble(spec.terms, spec.n_sites),
                                      oracles.terms_matrix(spec.terms, spec.n_sites))


class TestDenseBlock:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_random_specs_with_y_factors(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(4):
            spec = random_spec(n, rng)
            assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    def test_random_pair_flips_give_one_complex_block(self):
        # X/Y products on the pairs (0,1), (2,3), (4,5) flip both sites of a
        # pair, and an X Y term makes H complex: one 64-wide complex block
        rng = np.random.default_rng(77)
        n = 6
        for _ in range(3):
            terms = [term(float(rng.normal()), (p, str(rng.choice(["X", "Y"]))),
                          (p + 1, str(rng.choice(["X", "Y"]))))
                     for p in (0, 2, 4) for _ in range(2)]
            terms += [term(float(rng.normal()), (k, "Z")) for k in range(n)]
            terms.append(term(1.0, (0, "X"), (1, "Y")))
            spec = HamiltonianSpec("pairs", n, tuple(terms))
            (vectors,) = spec.spectrum.block_vectors
            assert vectors.shape == (64, 64) and np.iscomplexobj(vectors)
            assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    def test_odd_y_count_gives_a_complex_block(self):
        spec = HamiltonianSpec("xy", 3, (term(0.8, (0, "X"), (1, "Y")), term(0.5, (1, "Z")),
                                         term(-0.3, (2, "Y"), (1, "X")), term(0.2, (0, "Z"))))
        assert np.any(assemble(spec.terms, spec.n_sites).imag)
        assert np.iscomplexobj(spec.spectrum.block_vectors[0])
        assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, 3))

    def test_transverse_ising(self):
        n = 4
        terms = tuple(term(0.6 + 0.1 * k, (k, "X")) for k in range(n)) + tuple(
            term(1.0, (k, "Z"), (k + 1, "Z")) for k in range(n - 1))
        spec = HamiltonianSpec("transverse-ising", n, terms)
        assert_spectrum_matches(spec, oracles.terms_matrix(terms, n))

    def test_z_only_spec_gives_the_sorted_diagonal(self):
        n = 3
        terms = (term(1.0, (0, "Z")), term(0.5, (1, "Z")), term(-0.25, (2, "Z")),
                 term(0.3, (0, "Z"), (2, "Z")))
        spec = HamiltonianSpec("fields", n, terms)
        h = oracles.terms_matrix(terms, n)
        np.testing.assert_allclose(register_values(spec.spectrum), np.sort(np.diag(h).real),
                                   rtol=0, atol=1e-15)
        assert_spectrum_matches(spec, h)

    def test_dense_block_is_h(self):
        spec = random_spec(5, np.random.default_rng(5))
        h = oracles.terms_matrix(spec.terms, 5)
        np.testing.assert_allclose(assemble(spec.terms, 5), h, rtol=0, atol=1e-14)
        assert_spectrum_matches(spec, h)

    def test_nine_sites_are_refused_before_any_matrix(self):
        # a ring of 9 sites is no hub and leaves; its dense H would be 512 x 512
        n = 9
        terms = tuple(term(1.0, (k, "X"), ((k + 1) % n, "X")) for k in range(n)) + tuple(
            term(0.5, (k, "Z")) for k in range(n))
        spec = HamiltonianSpec("ring-9", n, terms)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {spinops.DENSE_MAX_SITES} sites"):
                spec.spectrum
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spinops.DENSE_MAX_SITES == 8
        assert peak < 1_000_000


class TestOneMatrixSolve:
    def test_non_hermitian_and_non_square_matrices_are_refused(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.zeros((2, 3)))

    def test_a_stack_of_matrices_is_refused(self):
        stack = np.array([oracles.two_site_matrix(1.0, 0.5), oracles.chain3_matrix(0.0)[:4, :4]])
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 4, 4\)"):
            eigendecompose(stack)


COEFFICIENT = st.builds(lambda sign, e: sign * 10.0 ** e,
                        st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0))


@st.composite
def y_specs(draw):
    """(n, terms): 1- and 2-site terms with coefficients from 1e-6 to 1e6 in
    magnitude, one of them a lone Y, so some blocks are complex."""
    n = draw(st.integers(2, 5))
    terms = [term(draw(COEFFICIENT), (draw(st.integers(0, n - 1)), "Y"))]
    for _ in range(draw(st.integers(1, 8))):
        sites = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        axes = draw(st.lists(st.sampled_from("XYZ"), min_size=len(sites), max_size=len(sites)))
        terms.append(term(draw(COEFFICIENT), *zip(sites, axes)))
    return n, terms


@st.composite
def real_hub_specs(draw):
    """A hub and 3 to 6 interchangeable leaves.  Each leaf carries the same
    (hub factor or none, leaf factor) terms, some repeated, and the hub its
    own fields, with coefficients from 1e-6 to 1e6 in magnitude; the hub
    has an X field and every leaf an X Y bond, so C is real and the hub
    parts are complex."""
    n = draw(st.integers(4, 7))
    hub = draw(st.integers(0, n - 1))
    forms = [("X", "Y", draw(COEFFICIENT))] + draw(st.lists(
        st.tuples(st.sampled_from([None, "X", "Y", "Z"]), st.sampled_from("XYZ"), COEFFICIENT),
        max_size=8))
    fields = ["X"] + draw(st.lists(st.sampled_from("XYZ"), max_size=3))
    hub_terms = [term(draw(COEFFICIENT), (hub, axis)) for axis in fields]

    def leaf(k):
        return [term(c, *([(hub, a)] if a else []), (k, b)) for a, b, c in forms]
    return hub_spec(n, hub, leaf, hub_terms)


def assert_exactly_hermitian(terms, n):
    h = assemble(terms, n)
    assert np.array_equal(h, h.conj().T)
    return h


class TestHermitianBlocks:
    """Every Pauli product has entries 0, +-1 and +-i, exactly, and an entry of
    the dense H and its mirror sum the same terms in the same order, so H is
    Hermitian exactly, not within a tolerance, at any coefficient scale."""

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(y_specs())
    def test_random_specs_with_y_factors(self, spec):
        n, terms = spec
        h = assert_exactly_hermitian(terms, n)
        assert np.any(h.imag)
        eigendecompose(h)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(real_hub_specs())
    def test_hub_parts_of_a_real_coupling_matrix(self, spec):
        # the collective solve checks no Hermiticity: a real C must give
        # Hermitian parts[0] and parts[1], and parts[3] = parts[2]†, exactly
        _, parts = spinops._hub_plan(spec.terms, spec.n_sites)
        assert np.iscomplexobj(parts)
        for part in parts[:2]:
            assert np.array_equal(part, part.conj().T)
        assert np.array_equal(parts[3], parts[2].conj().T)

    def test_chain3_at_a_large_coupling(self):
        spec, _ = chain3(2e6)
        assert_exactly_hermitian(spec.terms, spec.n_sites)
        h = oracles.chain3_matrix(2e6)
        want = np.linalg.eigvalsh(h)
        scale = float(np.abs(want).max())
        evals = register_values(spec.spectrum)
        evecs = spec.spectrum.vectors(range(len(evals)))
        np.testing.assert_allclose(evals, want, rtol=0, atol=1e-12 * scale)
        assert np.linalg.norm(h @ evecs - evecs * evals, axis=0).max() <= 1e-14 * scale


class TestCoefficients:
    """A term's coefficient is a finite real number, refused where the term is
    made, so neither solve path sees a complex, NaN or infinite one."""

    @pytest.mark.parametrize("n_parties", [2, 4, 9])
    @pytest.mark.parametrize("bad", [1j, np.complex128(1.0), math.nan, math.inf, -math.inf])
    def test_a_hand_built_bond_is_refused(self, n_parties, bad):
        # star(2) is solved as one dense block, star(4) and star(9) collectively
        spec, _ = star(n_parties, 1.0)
        assert isinstance(spec.spectrum.plan, spinops._DensePlan) == (n_parties == 2)
        bond = spec.terms[0]
        with pytest.raises(ValueError, match=r"^PauliTerm\(coefficient=.* finite real coefficient"):
            replace(bond, coefficient=bad)
        with pytest.raises(ValueError, match="finite real coefficient"):
            PauliTerm(bad, bond.factors)

    def test_term_refuses_nan_and_infinity(self):
        for bad in (math.nan, math.inf, np.float64(-math.inf)):
            with pytest.raises(ValueError, match="finite real coefficient"):
                term(bad, (0, "X"))

    @pytest.mark.parametrize("bad", [1j, "1.5"])
    def test_term_checks_the_coefficient_before_coercing_it(self, bad):
        # term hands its coefficient to PauliTerm unchanged, so a complex or a
        # string one meets the same check, with the ValueError naming the term
        with pytest.raises(ValueError, match=r"^PauliTerm\(coefficient=.* finite real coefficient"):
            term(bad, (0, "X"))

    def test_a_real_coefficient_is_stored_as_float(self):
        assert type(term(2, (0, "X")).coefficient) is float
        assert type(PauliTerm(np.float64(0.5), ((0, "Z"),)).coefficient) is float


class TestNoRegisterMatrix:
    def test_builders_assemble_only_the_dense_block(self, monkeypatch):
        # models imports no assemble; any d x d assembly goes through spinops.
        # A build is symbolic, so each spec is solved too: the star in its
        # collective blocks, chain3 and the two-site model as one dense H each.
        sizes = []
        original = spinops.assemble
        monkeypatch.setattr(spinops, "assemble",
                            lambda terms, n_sites: sizes.append(n_sites) or original(terms, n_sites))
        ground_state(star(4, 1.0)[0])
        two_site_partition_alternative(1.0, 0.5)
        assert sizes == []
        ground_state(chain3(0.9)[0])
        ground_state(two_site(1.0, 0.5))
        assert sizes == [3, 2]

    def test_star9_build_memory(self):
        # the full 1024 x 1024 complex solve and ten d x d shift assembles
        # peaked at 50.5 MB; the block solve needs less than half of that.
        # A build is symbolic, so the traced region runs to the ground state.
        tracemalloc.start()
        try:
            ground_state(star(9, 1.0)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25_250_000


def symmetrized(n, swaps, rng, n_terms=6):
    """Random 1- and 2-site terms, Y factors included, plus their images under
    the group of ``swaps``, each image with its source's coefficient.  An
    X_a X_b and an X_a Y_b + Y_a X_b term per swap put the pair's flip mask
    in the span, so every swap fixes the flip sectors."""
    base = list(random_spec(n, rng, n_terms).terms)
    for i, (a, b) in enumerate(swaps):
        base += [term(0.37 + 0.1 * i, (a, "X"), (b, "Y")), term(0.6 - 0.1 * i, (a, "X"), (b, "X"))]
    terms = []
    for t in base:
        images = {t.factors}
        for a, b in swaps:
            images |= {tuple((b if s == a else a if s == b else s, ax) for s, ax in f)
                       for f in images}
        terms += [term(t.coefficient, *f) for f in sorted(images)]
    return HamiltonianSpec("symmetrized", n, tuple(terms))


@functools.lru_cache(maxsize=None)
def star_oracle(n_parties):
    """(h, eigenvalues, eigenvectors) of the dense star matrix at J = 1."""
    h = oracles.star_matrix(n_parties, 1.0)
    return (h, *np.linalg.eigh(h))


def multiplicities(values, tol=1e-9):
    """Sizes of the runs of ascending eigenvalues closer than ``tol``."""
    cuts = np.flatnonzero(np.diff(values) > tol) + 1
    return np.diff(np.concatenate([[0], cuts, [len(values)]])).tolist()


class TestSwapSectors:
    """Specs that site swaps leave unchanged, solved without using the swaps."""

    @pytest.mark.parametrize("n, swaps", [(4, ((1, 2),)), (5, ((0, 3),)),
                                          (6, ((1, 4), (2, 5))), (5, ((0, 1), (2, 4)))])
    def test_symmetrized_random_specs(self, n, swaps):
        rng = np.random.default_rng(900 + n + len(swaps))
        for _ in range(3):
            spec = symmetrized(n, swaps, rng)
            assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    def test_swap_with_unequal_coefficients_is_not_used(self):
        # every leaf of the star has the same factors, but leaf 1's coupling
        # differs, so the leaves are not interchangeable
        spec, _ = star(4, 1.0)
        skew = HamiltonianSpec("star-4-skew", 5, (term(0.9, (0, "X"), (1, "X")),) + spec.terms[1:])
        assert skew.terms[0].coefficient == 0.9
        assert isinstance(skew.spectrum.plan, spinops._DensePlan)
        spectrum = star(4, 1.0)[0].spectrum
        widths = tuple(v.shape[-1] for v in spectrum.block_vectors)
        assert (widths, spectrum.plan.multiplicities) == ((10, 6, 2), (1, 3, 2))
        assert_spectrum_matches(skew, oracles.terms_matrix(skew.terms, 5))

    def test_swap_that_exchanges_flip_sectors_is_skipped(self):
        # Z0 + Z1 + 0.3 Z0 Z1 + 0.5 X2 is symmetric under 0 <-> 1, but no
        # term flips sites 0 and 1 together: the swap maps sector |01> onto |10>
        terms = (term(1.0, (0, "Z")), term(1.0, (1, "Z")), term(0.5, (2, "X")),
                 term(0.3, (0, "Z"), (1, "Z")))
        spec = HamiltonianSpec("exchanging", 3, terms)
        assert_spectrum_matches(spec, oracles.terms_matrix(terms, 3))

    def test_specs_that_differ_in_coefficients(self):
        # equal and unequal end fields, and any chain coupling, each solved
        # in either order
        factors = (((0, "X"), (1, "X")), ((1, "X"), (2, "X")),
                   ((0, "Z"),), ((1, "Z"),), ((2, "Z"),))
        fields = [(0.7, 0.7, 1.0, 1.0, 1.0), (0.7, 0.7, 1.3, 1.0, 1.0)]
        for order in (fields, fields[::-1]):
            for c in order:
                spec = HamiltonianSpec("fields", 3, tuple(term(v, *f) for v, f in zip(c, factors)))
                assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, 3))
        for order in ([1.0, 0.7], [0.7, 1.0]):
            for j in order:
                assert_spectrum_matches(chain3(j)[0], oracles.chain3_matrix(j))

    @pytest.mark.parametrize("n_parties", range(3, 10))
    def test_star_leaf_multiplets(self, n_parties):
        spec, _ = star(n_parties, 1.0)
        want = star_oracle(n_parties)[1]
        got = register_values(spec.spectrum)
        assert multiplicities(got) == multiplicities(want)
        assert n_parties - 1 in multiplicities(got)
        if n_parties == 9:
            assert np.sum(np.abs(got + 10.1078) < 1e-4) == 8

    @pytest.mark.parametrize("make, h", [
        (lambda: star(6, 1.0)[0], lambda: oracles.star_matrix(6, 1.0)),
        (lambda: chain3(0.7)[0], lambda: oracles.chain3_matrix(0.7)),
        (lambda: HamiltonianSpec("pairs", 6, tuple(
            t for a in (0, 2, 4) for t in (term(0.8, (a, "X"), (a + 1, "X")),
                                          term(0.3, (a, "Y"), (a + 1, "Y")),
                                          term(1.0, (a, "Z")), term(1.0, (a + 1, "Z"))))),
         None),
    ])
    def test_first_excited_mixture_is_the_cluster_projector(self, make, h):
        spec = make()
        h = oracles.terms_matrix(spec.terms, spec.n_sites) if h is None else h()
        w, v = np.linalg.eigh(h)
        cluster = np.abs(w - w[1]) <= 1e-9 * max(1.0, np.abs(w).max())
        level = spec.spectrum.vectors(first_excited_levels(spec))
        mixture, first = level @ level.conj().T / level.shape[1], level[:, 0]
        want = v[:, cluster] @ v[:, cluster].conj().T / cluster.sum()
        np.testing.assert_allclose(mixture, want, rtol=0, atol=1e-12)
        assert np.linalg.norm(h @ first - w[1] * first) <= 1e-10
        if spec.name == "pairs":
            assert cluster.sum() == 3  # one excited pair out of three

    @pytest.mark.parametrize("make, oracle", [
        *[(lambda n=n: star(n, 1.0)[0], lambda n=n: star_oracle(n)[1:]) for n in range(1, 10)],
        (lambda: chain3(1.0)[0], lambda: np.linalg.eigh(oracles.chain3_matrix(1.0))),
        (lambda: two_site(1.3, 0.4), lambda: np.linalg.eigh(oracles.two_site_matrix(1.3, 0.4))),
    ])
    def test_ground_state_against_the_oracle(self, make, oracle):
        gs, energy = ground_state(make())
        w, v = oracle()
        assert abs(np.vdot(v[:, 0], gs)) == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(w[0], abs=1e-12 * max(1.0, np.abs(w).max()))

    def test_spectrum_builds_no_register_matrix(self):
        # star N=9: one 1024 x 1024 float64 matrix would be 8.4 MB
        spec = HamiltonianSpec("star-9", 10, star(9, 1.0)[0].terms)
        tracemalloc.start()
        try:
            spec.spectrum.vectors([0, 1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    def test_solve_imports_no_scipy(self):
        # the blocks are solved by numpy's dense eigh; no sparse solver is loaded
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; from qetkd.models import star; star(9, 1.0)[0].spectrum; "
                "sys.exit('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_twelve_site_build_memory(self):
        # the d x d eigenvector scatter peaked at 269 MB; the symmetry blocks
        # of star N=11 need less than a quarter of that.  A build is
        # symbolic, so the traced region runs to the ground state.
        tracemalloc.start()
        try:
            ground_state(star(11, 1.0)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000_000


def hub_spec(n, hub, terms_per_leaf, hub_terms=(), name="hub"):
    """Hub terms plus, for every other site k, the leaf terms made by
    ``terms_per_leaf(k)``."""
    terms = list(hub_terms)
    for k in range(n):
        if k != hub:
            terms += terms_per_leaf(k)
    return HamiltonianSpec(name, n, tuple(terms))


class TestCollectiveBlocks:
    """A hub plus at least three interchangeable leaves: one block per total leaf spin."""

    @pytest.mark.parametrize("n_parties", range(3, 12))
    def test_star_blocks_and_multiplicities(self, n_parties):
        spectrum = star(n_parties, 1.0)[0].spectrum
        spins = range(n_parties, -1, -2)  # 2j
        want = [math.comb(n_parties, (n_parties - t) // 2)
                - (math.comb(n_parties, (n_parties - t) // 2 - 1) if t < n_parties else 0)
                for t in spins]
        widths = tuple(v.shape[-1] for v in spectrum.block_vectors)
        assert widths == tuple(2 * t + 2 for t in spins)
        assert spectrum.plan.multiplicities == tuple(want)
        assert sum(w * m for w, m in zip(widths, want)) == 2 ** (n_parties + 1)

    @pytest.mark.parametrize("n_parties", [1, 2])
    def test_one_or_two_leaves_are_one_dense_block(self, n_parties):
        # with one or two leaves H has at most 3 sites
        spectrum = star(n_parties, 1.0)[0].spectrum
        assert isinstance(spectrum.plan, spinops._DensePlan)
        assert spectrum.block_vectors[0].shape == (2 ** (n_parties + 1), 2 ** (n_parties + 1))

    def test_copy_of_a_star_is_solved_collectively(self):
        # the star's terms, listed in reverse in a spec built by hand
        spec, _ = star(5, 1.0)
        copy = HamiltonianSpec("star-5-copy", 6, spec.terms[::-1])
        assert tuple(v.shape[-1] for v in copy.spectrum.block_vectors) == (12, 8, 4)
        np.testing.assert_array_equal(register_values(copy.spectrum),
                                      register_values(spec.spectrum))
        assert_spectrum_matches(copy, oracles.star_matrix(5, 1.0))

    def test_relabelled_hub(self):
        # the star with its hub at site 2 and leaves listed out of order
        spec = hub_spec(5, 2, lambda k: [term(1.0, (k, "Z")), term(0.8, (k, "X"), (2, "X"))],
                        [term(1.0, (2, "Z"))])
        assert spec.spectrum.plan.hub == 2
        assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, 5))

    def test_skew_star_is_one_dense_block(self):
        # leaf 3's field differs from the others', so the leaves are not
        # interchangeable, though the swaps of the other leaves leave H unchanged
        spec, _ = star(4, 1.0)
        skew = HamiltonianSpec("star-4-skew-field", 5, tuple(
            term(1.1, (3, "Z")) if t.factors == ((3, "Z"),) else t for t in spec.terms))
        assert isinstance(skew.spectrum.plan, spinops._DensePlan)
        assert_spectrum_matches(skew, oracles.terms_matrix(skew.terms, 5))

    def test_leaf_leaf_term_is_one_dense_block(self):
        spec, _ = star(4, 1.0)
        ring = HamiltonianSpec("star-4-ring", 5, spec.terms + (term(0.3, (1, "Z"), (2, "Z")),))
        assert isinstance(ring.spectrum.plan, spinops._DensePlan)
        assert_spectrum_matches(ring, oracles.terms_matrix(ring.terms, 5))

    @pytest.mark.parametrize("n, hub", [(4, 0), (5, 2), (6, 5)])
    def test_y_factors_give_complex_collective_blocks(self, n, hub):
        # hub-leaf X Y, Y Z and Z Y couplings and leaf Y fields need 2 J_y,
        # which is imaginary: every block is complex Hermitian
        def leaf(k):
            return [term(0.8, (k, "Y"), (hub, "X")), term(0.4, (hub, "Z"), (k, "Y")),
                    term(0.35, (hub, "Y"), (k, "Z")), term(1.1, (hub, "Y"), (k, "X")),
                    term(0.5, (k, "X")), term(-0.6, (k, "Y")), term(0.9, (k, "Z"))]
        spec = hub_spec(n, hub, leaf, [term(0.3, (hub, "Z")), term(-0.7, (hub, "X")),
                                       term(0.2, (hub, "Y")), term(0.25)])
        assert spec.spectrum.plan.hub == hub
        assert np.iscomplexobj(spec.spectrum.vectors([0]))
        assert_spectrum_matches(spec, oracles.terms_matrix(spec.terms, n))

    @pytest.mark.parametrize("coupling", [0.0, 0.45, 2.0])
    def test_star_couplings(self, coupling):
        spec, _ = star(5, coupling)
        assert_spectrum_matches(spec, oracles.star_matrix(5, coupling))


class TestCollectiveOracle:
    """The hub (x) Dicke oracle, against the dense star and then against the library."""

    @pytest.mark.parametrize("n_parties", range(1, 10))
    def test_oracle_against_the_dense_star(self, n_parties):
        h, w, v = star_oracle(n_parties)
        e0, amplitudes = oracles.star_dicke_ground(n_parties, 1.0)
        assert e0 == pytest.approx(w[0], abs=1e-12 * max(1.0, np.abs(w).max()))
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-12)
        rho = oracles.partial_trace(np.outer(v[:, 0], v[:, 0].conj()), [0, 1])
        np.testing.assert_allclose(oracles.star_hub_leaf_marginal(n_parties, 1.0), rho,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_parties", [1, 3, 6])
    def test_oracle_energies_against_the_dense_star(self, n_parties):
        h, w, v = star_oracle(n_parties)
        n = n_parties + 1
        sigma_a, sigma_b = oracles.embed("X", 0, n), oracles.embed("Y", 1, n)
        h_b = sigma_a @ oracles.embed("X", 1, n) + oracles.embed("Z", 1, n)
        theta = oracles.theta_of(h, v[:, 0], w[0], sigma_a, sigma_b)[2]
        e_a, e_b, _ = oracles.protocol_energies(oracles.embed("Z", 0, n), h_b,
                                                np.outer(v[:, 0], v[:, 0].conj()),
                                                sigma_a, sigma_b, theta)
        np.testing.assert_allclose(oracles.star_marginal_energies(n_parties, 1.0), (e_a, e_b),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [
        *(lambda n=n: star(n, 2 / math.sqrt(n))[0] for n in (12, 20, 57, 100)),
        lambda: hub_spec(7, 3, lambda k: [term(0.8, (3, "X"), (k, "X")), term(1.0, (k, "Z")),
                                          term(0.4, (3, "Y"), (k, "Z"))],
                         [term(1.0, (3, "Z"))]),
        lambda: hub_spec(7, 0, lambda k: [term(0.6, (0, "X"), (k, "X")), term(1.0, (k, "Z"))],
                         [term(1.0, (0, "Z")), term(0.5, (0, "X"))]),
    ], ids=["star12", "star20", "star57", "star100", "y-hub6", "x-field-hub6"])
    def test_every_block_against_the_oracle(self, make):
        # each block's levels against the oracle block built from its own
        # J_z and J_+-, and each block's multiplicity against the path count
        spec = make()
        spectrum, hub = spec.spectrum, spec.spectrum.plan.hub
        leaf = 1 if hub == 0 else 0
        c = oracles.hub_coefficients([t for t in spec.terms
                                      if {s for s, _ in t.factors} <= {hub, leaf}], hub)
        n_leaves = spec.n_sites - 1
        want = [np.linalg.eigvalsh(oracles.collective_block(c, t)) for t in spectrum.plan.spins]
        scale = max(1.0, max(float(np.abs(w).max()) for w in want))
        for g, t in enumerate(spectrum.plan.spins):
            got = np.flatnonzero(spectrum.blocks[:, 0] == g)
            np.testing.assert_allclose(spectrum.levels[got], want[g], rtol=0, atol=1e-12 * scale)
            assert {spectrum.multiplicity(i) for i in got} == \
                {oracles.coupling_path_count(n_leaves, t)}
        assert len(spectrum.levels) == sum(len(w) for w in want)

    @pytest.mark.parametrize("n_parties", [10, 11])
    def test_library_beyond_the_dense_oracle(self, n_parties, tmp_path):
        spec, _ = star(n_parties, 1.0)
        e0, _ = oracles.star_dicke_ground(n_parties, 1.0)
        assert spec.spectrum.levels[0] == pytest.approx(e0, abs=1e-12)
        np.testing.assert_allclose(reduced_density(spec.spectrum.vectors([0])[:, 0], [0, 1]),
                                   oracles.star_hub_leaf_marginal(n_parties, 1.0),
                                   rtol=0, atol=1e-12)
        out = tmp_path / "qet.csv"
        assert cli.main(["qet", "--model", "star", "--N", str(n_parties), "--J", "1",
                         "--basis", "x", "--out", str(out)]) == 0
        row = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
        np.testing.assert_allclose(row[1:], oracles.star_marginal_energies(n_parties, 1.0),
                                   rtol=0, atol=1e-9)
