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
    energy_gap,
    model_sites,
    star,
    two_site,
    two_site_partition_alternative,
    two_site_partition_standard,
    two_site_shift_constants,
)
from qetkd.spinops import commutator, expectation, pauli_on_site

import oracles


def ground_energy(spec):
    return float(np.linalg.eigvalsh(spec.matrix())[0])


def ground_vector(spec):
    _, evecs = np.linalg.eigh(spec.matrix())
    return evecs[:, 0]


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
        assert np.allclose(two_site(1.3, 0.4).matrix(), oracles.two_site_matrix(1.3, 0.4))


class TestStandardPartition:
    def test_shift_constants_unit_couplings(self):
        c1, c2 = two_site_shift_constants(1.0, 1.0)
        assert c1 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert c2 == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_shifts_cancel_ground_energy(self):
        part = two_site_partition_standard(1.0, 1.0)
        total_shift = sum(p.shift for p in part.parts.values())
        assert -2 * np.sqrt(2) + total_shift == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_ground_expectation_random_couplings(self, seed):
        rng = np.random.default_rng(seed)
        k, h = rng.uniform(0.2, 3.0, size=2)
        spec = two_site(k, h)
        gs = ground_vector(spec)
        part = two_site_partition_standard(k, h)
        for label in (ALICE, BOB):
            shifted = part.parts[label].matrix(2)
            assert expectation(gs, shifted) == pytest.approx(0.0, abs=1e-10)

    def test_partition_completeness(self):
        spec = two_site(1.7, 0.6)
        part = two_site_partition_standard(1.7, 0.6)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)


class TestAlternativePartition:
    def test_receiver_part_is_single_field_term(self):
        part = two_site_partition_alternative(1.0, 1.0)
        assert len(part.parts[BOB].terms) == 1
        assert part.parts[BOB].terms[0].factors == ((1, "Z"),)

    def test_any_sender_axis_commutes_with_receiver_part(self):
        part = two_site_partition_alternative(1.0, 1.0)
        h_bob = part.parts[BOB].bare_matrix(2)
        for axis in ("X", "Y", "Z"):
            assert np.linalg.norm(commutator(pauli_on_site(axis, 0, 2), h_bob)) < 1e-14

    def test_shifts_sum_to_ground_energy(self):
        part = two_site_partition_alternative(1.0, 1.0)
        assert sum(p.shift for p in part.parts.values()) == \
               pytest.approx(2 * np.sqrt(2), abs=1e-10)

    def test_zero_ground_expectations(self):
        spec = two_site(0.8, 1.4)
        gs = ground_vector(spec)
        part = two_site_partition_alternative(0.8, 1.4)
        for p in part.parts.values():
            assert expectation(gs, p.matrix(2)) == pytest.approx(0.0, abs=1e-10)


class TestStar:
    def test_single_party_matches_two_site_up_to_field_scale(self):
        # J = 2k with unit fields reproduces two_site(k, 1)
        for k in (0.5, 1.0, 1.7):
            spec, _ = star(1, 2 * k)
            assert np.allclose(spec.matrix(), two_site(k, 1.0).matrix())

    def test_decoupled_ground_state(self):
        spec, _ = star(2, 0.0)
        evals, evecs = np.linalg.eigh(spec.matrix())
        assert evals[0] == pytest.approx(-3.0)
        assert abs(evecs[7, 0]) == pytest.approx(1.0)  # |111>

    def test_all_parts_zeroed(self):
        spec, part = star(3, 1.0)
        gs = ground_vector(spec)
        for p in part.parts.values():
            assert expectation(gs, p.matrix(4)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n,j", [(1, 0.5), (2, 0.0), (2, 2.0), (4, 1.3)])
    def test_zeroed_parts_across_sizes_and_couplings(self, n, j):
        spec, part = star(n, j)
        gs = ground_vector(spec)
        for p in part.parts.values():
            assert expectation(gs, p.matrix(n + 1)) == pytest.approx(0.0, abs=1e-10)

    def test_partition_completeness(self):
        spec, part = star(3, 0.7)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)

    @pytest.mark.parametrize("n", [0, 12])
    def test_party_count_bounds(self, n):
        with pytest.raises(ValueError):
            star(n, 1.0)

    def test_matrix_matches_oracle(self):
        spec, _ = star(2, 1.3)
        assert np.allclose(spec.matrix(), oracles.star_matrix(2, 1.3))


class TestChain3:
    def test_decoupled_spectrum(self):
        spec, _ = chain3(0.0)
        assert np.allclose(np.linalg.eigvalsh(spec.matrix()), [-3, -1, -1, -1, 1, 1, 1, 3])

    def test_gap_at_unit_coupling(self):
        # frozen from an independent 8x8 diagonalization
        gap = energy_gap(chain3(1.0)[0])
        assert gap > 0
        assert gap == pytest.approx(0.890083735825258, abs=1e-9)

    def test_buffer_part_holds_middle_terms(self):
        _, part = chain3(1.0)
        assert set(part.parts) == {ALICE, BUFFER, BOB}
        buffer_sites = {s for t in part.parts[BUFFER].terms for s, _ in t.factors}
        assert buffer_sites == {0, 1}

    def test_all_parts_zeroed(self):
        spec, part = chain3(1.7)
        gs = ground_vector(spec)
        for p in part.parts.values():
            assert expectation(gs, p.matrix(3)) == pytest.approx(0.0, abs=1e-10)

    def test_partition_completeness(self):
        spec, part = chain3(2.5)
        assert sorted((t.coefficient, t.factors) for t in part.all_terms()) == \
               sorted((t.coefficient, t.factors) for t in spec.terms)

    def test_matrix_matches_oracle(self):
        spec, _ = chain3(1.9)
        assert np.allclose(spec.matrix(), oracles.chain3_matrix(1.9))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            chain3(-0.5)


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
        assert solves == [(8, 8)]

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
        assert np.allclose(again.matrix(), spec.matrix())

    def test_roundtrip_star(self):
        spec, _ = star(3, 0.75)
        again = HamiltonianSpec.from_text(spec.name, spec.n_sites, spec.to_text())
        assert np.allclose(again.matrix(), spec.matrix())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_parties", [1, 3])
def test_model_sites_match_the_built_register(model, n_parties):
    spec, _, _ = build_model(model, 1.0, n_parties=n_parties)
    assert model_sites(model, n_parties) == spec.n_sites
