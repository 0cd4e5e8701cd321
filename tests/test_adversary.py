import functools

import numpy as np
import pytest

from qetkd.adversary import (
    SPLIT_CASES,
    AttackScenario,
    _joint_counts,
    bob_reference_state,
    eve_independent,
    eve_postselect,
    mutual_information_bits,
    split_attack,
)
from qetkd.models import chain3
from qetkd.protocol import MeasurementBasis, prepare, run_ensemble
from qetkd.spinops import expectation, frobenius

import oracles


@pytest.fixture(scope="module")
def ctx():
    spec, part = chain3(1.0)
    return prepare(spec, part, MeasurementBasis.x(0))


class TestScenarioValidation:
    def test_split_needs_sub_case(self):
        with pytest.raises(ValueError):
            AttackScenario("split_entanglement")

    def test_sub_case_only_for_split(self):
        with pytest.raises(ValueError):
            AttackScenario("independent", "eve_waits")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackScenario("quantum_cloning")


class TestPostselect:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0])
    def test_state_identity_across_couplings(self, j):
        spec, part = chain3(j)
        c = prepare(spec, part, MeasurementBasis.x(0))
        report = eve_postselect(c, rounds=1000, seed=1)
        assert frobenius(report.eve_state - bob_reference_state(c)) <= 1e-12

    def test_state_identity_on_other_models(self):
        from qetkd.models import star, two_site, two_site_partition_standard
        cases = []
        spec = two_site(1.0, 1.0)
        cases.append((spec, two_site_partition_standard(1.0, 1.0), "B"))
        spec, part = star(2, 1.0)
        cases.append((spec, part, "B1"))
        for spec, part, label in cases:
            c = prepare(spec, part, MeasurementBasis.x(0), bob_label=label)
            report = eve_postselect(c, rounds=500, seed=2)
            assert frobenius(report.eve_state - bob_reference_state(c)) <= 1e-12

    def test_energies_reproduced(self, ctx):
        report = eve_postselect(ctx, rounds=1000, seed=1)
        clean = run_ensemble(ctx)
        h_bob = oracles.terms_matrix(ctx.partition.parts[ctx.bob_label].terms, ctx.n_sites)
        ref = expectation(ctx.rho_gs, h_bob)
        eve_energy = expectation(report.eve_state, h_bob) - ref
        assert eve_energy == pytest.approx(clean.e_bob, abs=1e-10)

    def test_keys_identical(self, ctx):
        report = eve_postselect(ctx, rounds=5000, seed=3)
        assert report.key_match_rate_eve_bob == 1.0
        assert report.key_match_rate_alice_bob == 1.0
        assert report.detection == "none"


class TestIndependentEve:
    def test_state_distinguishable(self, ctx):
        report = eve_independent(ctx, rounds=1000, seed=1)
        assert report.trace_distance_to_bob > 0.01

    def test_key_agreement_at_chance(self, ctx):
        report = eve_independent(ctx, rounds=10_000, seed=7)
        assert abs(report.key_match_rate_eve_bob - 0.5) <= 3 * report.se_eve_bob

    def test_honest_channel_still_works(self, ctx):
        report = eve_independent(ctx, rounds=10_000, seed=7)
        assert report.key_match_rate_alice_bob == 1.0

    def test_outcomes_statistically_independent(self, ctx):
        report = eve_independent(ctx, rounds=10_000, seed=11)
        assert mutual_information_bits(report.joint_counts) <= 0.01

    def test_zero_angle_reduces_to_measured_ensemble(self):
        # at J = 0 the optimal angle vanishes and Eve's state matches the
        # receiver's exactly: feedback carries no information at all
        spec, part = chain3(0.0)
        c = prepare(spec, part, MeasurementBasis.x(0))
        assert c.theta.theta == pytest.approx(0.0, abs=1e-12)
        report = eve_independent(c, rounds=1000, seed=2)
        assert frobenius(report.eve_state - bob_reference_state(c)) <= 1e-12
        assert report.trace_distance_to_bob <= 1e-12

    def test_custom_eve_basis(self, ctx):
        report = eve_independent(ctx, eve_basis=MeasurementBasis.y(0),
                                 rounds=5000, seed=5)
        assert abs(report.key_match_rate_eve_bob - 0.5) <= 3 * report.se_eve_bob

    def test_seeded_reproducibility(self, ctx):
        a = eve_independent(ctx, rounds=2000, seed=9)
        b = eve_independent(ctx, rounds=2000, seed=9)
        assert a.key_match_rate_eve_bob == b.key_match_rate_eve_bob
        assert np.array_equal(a.joint_counts, b.joint_counts)


class TestSplitAttack:
    def test_eve_waits_randomizes_receiver(self, ctx):
        report = split_attack(ctx, "eve_waits", rounds=10_000, seed=3)
        assert abs(report.key_match_rate_alice_bob - 0.5) <= 3 * report.se_alice_bob
        assert report.detection == "verification_mismatch"

    def test_silent_measurement_randomizes_receiver(self, ctx):
        report = split_attack(ctx, "eve_measures_first_silent",
                              rounds=10_000, seed=4)
        assert abs(report.key_match_rate_alice_bob - 0.5) <= 3 * report.se_alice_bob
        assert report.detection == "verification_mismatch"

    def test_sending_fires_double_message(self, ctx):
        report = split_attack(ctx, "eve_measures_first_sends",
                              rounds=10_000, seed=5)
        assert report.detection == "double_message"

    def test_eve_bob_agreement_at_chance(self, ctx):
        for sub in ("eve_waits", "eve_measures_first_silent"):
            report = split_attack(ctx, sub, rounds=10_000, seed=6)
            assert abs(report.key_match_rate_eve_bob - 0.5) <= 3 * report.se_eve_bob

    def test_rate_never_leaves_five_sigma_band(self, ctx):
        for seed in range(8):
            report = split_attack(ctx, "eve_waits", rounds=4000, seed=seed)
            assert abs(report.key_match_rate_alice_bob - 0.5) <= \
                   5 * report.se_alice_bob

    def test_verification_catches_attack_in_every_session(self, ctx):
        # 64 sacrificed bits leave a 2^-64-ish escape window; empirically
        # every seeded session must flag the mismatch
        for seed in range(100):
            report = split_attack(ctx, "eve_waits", rounds=128, seed=seed)
            assert report.detection == "verification_mismatch"

    def test_receiver_state_differs_from_honest(self, ctx):
        report = split_attack(ctx, "eve_waits", rounds=4000, seed=2)
        assert report.trace_distance_to_bob > 1e-4

    def test_unknown_sub_case(self, ctx):
        with pytest.raises(ValueError):
            split_attack(ctx, "eve_does_cartwheels", rounds=10, seed=0)


class TestSessionDecodeRule:
    """The attacks decode a key bit as a session does, by ``ConditionalTable.decode``."""

    @pytest.fixture(scope="class")
    def off_axis_ctx(self):
        # a sender basis outside X and Y, where the conditional energy and
        # the energy referenced to the resource state differ in sign
        n = np.array([0.189, -0.198, 0.962])
        spec, part = chain3(1.0)
        return prepare(spec, part, MeasurementBasis(0, tuple(n / np.linalg.norm(n))))

    @pytest.mark.parametrize("attack", [eve_postselect, eve_independent])
    def test_undisturbed_pair_agrees_off_axis(self, off_axis_ctx, attack):
        report = attack(off_axis_ctx, rounds=4000, seed=1)
        assert report.key_match_rate_alice_bob == 1.0

    @pytest.mark.parametrize("attack", [
        eve_independent,
        eve_postselect,
        *(pytest.param(functools.partial(split_attack, sub_case=sub), id=sub)
          for sub in SPLIT_CASES),
    ])
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_needs_at_least_one_round(self, ctx, attack, rounds):
        with pytest.raises(ValueError, match="at least one round"):
            attack(ctx, rounds=rounds, seed=0)


class TestReportSerialization:
    def test_kv_block_parses(self, ctx):
        report = eve_independent(ctx, rounds=1000, seed=1)
        block = report.to_kv()
        parsed = dict(line.split("=", 1) for line in block.strip().splitlines())
        assert parsed["scenario"] == "independent"
        assert parsed["detection"] == "none"
        assert int(parsed["rounds"]) == 1000
        assert 0.0 <= float(parsed["key_match_rate_eve_bob"]) <= 1.0

    def test_split_kv_records_sub_case(self, ctx):
        report = split_attack(ctx, "eve_measures_first_sends", rounds=500, seed=1)
        assert "sub_case=eve_measures_first_sends" in report.to_kv()


class TestJointCounts:
    def test_bincount_tally_matches_loop(self):
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 2, (2, 5000))
        loop = np.zeros((2, 2))
        for x, y in zip(a, b):
            loop[x, y] += 1
        counts = _joint_counts(a, b)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, loop)
