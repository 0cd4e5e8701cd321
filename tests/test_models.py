import numpy as np
import pytest

from qetkd.models import (
    ALICE,
    BOB,
    BUFFER,
    MODELS,
    HamiltonianSpec,
    build_model,
    chain3,
    check_model_parameters,
    energy_gap,
    model_sites,
    star,
    two_site,
    two_site_partition_alternative,
    two_site_partition_standard,
    two_site_shift_constants,
)
from qetkd import spinops
from qetkd.errors import ModelParameterError
from qetkd.spinops import commutator, pauli_on_site

import oracles


def ground_energy(spec):
    return float(np.linalg.eigvalsh(oracles.terms_matrix(spec.terms, spec.n_sites))[0])


def ground_vector(spec):
    _, evecs = np.linalg.eigh(oracles.terms_matrix(spec.terms, spec.n_sites))
    return evecs[:, 0]


def shifted_matrix(terms, shift, n_sites):
    """A partition part's terms plus a constant shift, built by the independent oracles."""
    return oracles.terms_matrix(terms, n_sites) + shift * np.eye(2 ** n_sites)


class TestTwoSite:
    def test_ground_energy_unit_couplings(self):
        assert ground_energy(two_site(1.0, 1.0)) == pytest.approx(-2 * np.sqrt(2), abs=1e-12)

    def test_ground_energy_asymmetric(self):
        assert ground_energy(two_site(0.5, 2.0)) == pytest.approx(-2 * np.sqrt(4.25), abs=1e-12)

    def test_term_count(self):
        assert len(two_site(1.0, 1.0).terms) == 3

    @pytest.mark.parametrize("k,h", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_non_positive_couplings_rejected(self, k, h):
        with pytest.raises(ValueError):
            two_site(k, h)

    def test_matrix_matches_oracle(self):
        assert np.allclose(oracles.terms_matrix(two_site(1.3, 0.4).terms, 2),
                           oracles.two_site_matrix(1.3, 0.4))


class TestStandardPartition:
    def test_shift_constants_unit_couplings(self):
        c1, c2 = two_site_shift_constants(1.0, 1.0)
        assert c1 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert c2 == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_shifts_cancel_ground_energy(self):
        # H_A takes C1 and H_B takes C1 + C2
        c1, c2 = two_site_shift_constants(1.0, 1.0)
        total_shift = c1 + (c1 + c2)
        assert -2 * np.sqrt(2) + total_shift == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_ground_expectation_random_couplings(self, seed):
        rng = np.random.default_rng(seed)
        k, h = rng.uniform(0.2, 3.0, size=2)
        spec = two_site(k, h)
        gs = ground_vector(spec)
        part = two_site_partition_standard(k, h)
        c1, c2 = two_site_shift_constants(k, h)
        for label, shift in ((ALICE, c1), (BOB, c1 + c2)):
            shifted = shifted_matrix(part.parts[label], shift, 2)
            assert oracles.expectation(gs, shifted) == pytest.approx(0.0, abs=1e-10)

    def test_partition_completeness(self):
        spec = two_site(1.7, 0.6)
        part = two_site_partition_standard(1.7, 0.6)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)


class TestAlternativePartition:
    def test_receiver_part_is_single_field_term(self):
        part = two_site_partition_alternative(1.0, 1.0)
        assert len(part.parts[BOB]) == 1
        assert part.parts[BOB][0].factors == ((1, "Z"),)

    def test_any_sender_axis_commutes_with_receiver_part(self):
        part = two_site_partition_alternative(1.0, 1.0)
        h_bob = oracles.terms_matrix(part.parts[BOB], 2)
        for axis in ("X", "Y", "Z"):
            assert np.linalg.norm(commutator(pauli_on_site(axis, 0, 2), h_bob)) < 1e-14

    @pytest.mark.parametrize("k,h", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_non_positive_couplings_rejected(self, k, h):
        with pytest.raises(ValueError, match="couplings must be positive"):
            two_site_partition_alternative(k, h)


class TestStar:
    def test_single_party_matches_two_site_up_to_field_scale(self):
        # J = 2k with unit fields reproduces two_site(k, 1)
        for k in (0.5, 1.0, 1.7):
            spec, _ = star(1, 2 * k)
            assert np.allclose(oracles.terms_matrix(spec.terms, spec.n_sites),
                               oracles.terms_matrix(two_site(k, 1.0).terms, 2))

    def test_decoupled_ground_state(self):
        spec, _ = star(2, 0.0)
        evals, evecs = np.linalg.eigh(oracles.terms_matrix(spec.terms, spec.n_sites))
        assert evals[0] == pytest.approx(-3.0)
        assert abs(evecs[7, 0]) == pytest.approx(1.0)  # |111>

    def test_partition_completeness(self):
        spec, part = star(3, 0.7)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)

    @pytest.mark.parametrize("n", [0, 101])  # MAX_PARTIES is 100
    def test_party_count_bounds(self, n):
        with pytest.raises(ValueError):
            star(n, 1.0)

    def test_matrix_matches_oracle(self):
        spec, _ = star(2, 1.3)
        assert np.allclose(oracles.terms_matrix(spec.terms, spec.n_sites),
                           oracles.star_matrix(2, 1.3))


class TestChain3:
    def test_decoupled_spectrum(self):
        spec, _ = chain3(0.0)
        assert np.allclose(np.linalg.eigvalsh(oracles.terms_matrix(spec.terms, spec.n_sites)),
                           [-3, -1, -1, -1, 1, 1, 1, 3])

    def test_gap_at_unit_coupling(self):
        # frozen from an independent 8x8 diagonalization
        gap = energy_gap(chain3(1.0)[0])
        assert gap > 0
        assert gap == pytest.approx(0.890083735825258, abs=1e-9)

    def test_buffer_part_holds_middle_terms(self):
        _, part = chain3(1.0)
        assert set(part.parts) == {ALICE, BUFFER, BOB}
        buffer_sites = {s for t in part.parts[BUFFER] for s, _ in t.factors}
        assert buffer_sites == {0, 1}

    def test_partition_completeness(self):
        spec, part = chain3(2.5)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)

    def test_matrix_matches_oracle(self):
        spec, _ = chain3(1.9)
        assert np.allclose(oracles.terms_matrix(spec.terms, spec.n_sites),
                           oracles.chain3_matrix(1.9))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            chain3(-0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_rejected(bad):
    builders = [lambda: chain3(bad), lambda: star(3, bad), lambda: two_site(bad, 1.0),
                lambda: two_site(1.0, bad), lambda: two_site_partition_alternative(1.0, bad),
                lambda: build_model("two-site", 1.0, k=bad)]
    builders += [lambda m=m: check_model_parameters(m, bad) for m in ("chain3", "star")]
    for build in builders:
        with pytest.raises(ModelParameterError, match="and finite"):
            build()


def test_builders_solve_nothing(monkeypatch):
    # a model is its terms: H is solved on the first read of spec.spectrum
    solves = []
    real = spinops.eigendecompose
    monkeypatch.setattr(spinops, "eigendecompose", lambda h: solves.append(h.shape) or real(h))
    specs = [chain3(1.0)[0], star(11, 1.0)[0], star(2, 1.0)[0]]
    two_site_partition_standard(1.3, 0.4)
    two_site_partition_alternative(1.3, 0.4)
    assert solves == []
    assert all("spectrum" not in spec.__dict__ for spec in specs)
    specs[0].spectrum
    assert solves and "spectrum" in specs[0].__dict__


class TestEnergyGap:
    def test_decoupled_chain(self):
        assert energy_gap(chain3(0.0)[0]) == pytest.approx(2.0)

    def test_two_site_closed_form(self):
        # gap = 2 sqrt(h^2 + k^2) - 2k from the block eigenvalues
        for k, h in [(1.0, 1.0), (0.4, 2.2)]:
            expected = 2 * np.hypot(h, k) - 2 * k
            assert energy_gap(two_site(k, h)) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing_in_coupling(self):
        gaps = [energy_gap(chain3(j)[0]) for j in np.arange(0.0, 5.01, 0.5)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_degeneracy_rule_scales_with_the_spectrum(self):
        # one scale-aware rule everywhere: at |E| ~ 1e6 the 2e-6 tunnel
        # splitting of this Ising doublet is below the solver's resolution,
        # so energy_gap reports 0 exactly when ground_state refuses the level
        from qetkd.errors import DegenerateGroundError
        from qetkd.protocol import ground_state
        from qetkd.spinops import term
        ising = HamiltonianSpec("ising-1e6", 2, (
            term(-1e6, (0, "Z"), (1, "Z")), term(1.0, (0, "X")), term(1.0, (1, "X"))))
        assert energy_gap(ising) == 0.0
        with pytest.raises(DegenerateGroundError):
            ground_state(ising)
        spec, _ = chain3(1.0)
        scaled = HamiltonianSpec("chain3-1e6", 3, tuple(
            term(1e6 * t.coefficient, *t.factors) for t in spec.terms))
        assert energy_gap(scaled) == pytest.approx(1e6 * 0.890083735825258, rel=1e-9)

    def test_spectrum_solved_once_per_spec(self, monkeypatch):
        # the partition shifts, energy_gap, ground_state and prepare all
        # read one solve of this spec object
        from qetkd.protocol import MeasurementBasis, ground_state, prepare
        solves = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda h, f=original: solves.append(h.shape) or f(h))
        spec, part = chain3(1.1)
        energy_gap(spec)
        ground_state(spec)
        prepare(spec, part, MeasurementBasis.x(0))
        assert solves == [(1, 8, 8)]  # one dense block

    def test_exactly_degenerate_returns_zero(self):
        from qetkd.spinops import term
        spec = HamiltonianSpec("flat", 2, (term(1.0, (0, "X"), (1, "X")),))
        assert energy_gap(spec) == 0.0


class TestSerialization:
    def test_two_site_golden_text(self):
        text = two_site(1.0, 1.0).to_text()
        assert text == "2 0:X 1:X\n1 0:Z\n1 1:Z\n"

    def test_roundtrip(self):
        spec, _ = chain3(1.25)
        again = HamiltonianSpec.from_text(spec.name, spec.n_sites, spec.to_text())
        assert again.terms == spec.terms
        assert np.allclose(oracles.terms_matrix(again.terms, again.n_sites),
                           oracles.terms_matrix(spec.terms, spec.n_sites))

    def test_roundtrip_star(self):
        spec, _ = star(3, 0.75)
        again = HamiltonianSpec.from_text(spec.name, spec.n_sites, spec.to_text())
        assert np.allclose(oracles.terms_matrix(again.terms, again.n_sites),
                           oracles.terms_matrix(spec.terms, spec.n_sites))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_parties", [1, 3])
def test_model_sites_match_the_built_register(model, n_parties):
    spec, _, _ = build_model(model, 1.0, n_parties=n_parties)
    assert model_sites(model, n_parties) == spec.n_sites
