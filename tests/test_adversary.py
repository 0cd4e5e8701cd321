import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from qetkd.adversary import (
    SPLIT_CASES,
    AttackScenario,
    _gram_distance,
    _joint_counts,
    _key_bits,
    bob_reference_state,
    eve_independent,
    eve_postselect,
    mutual_information_bits,
    split_attack,
)
from qetkd.models import chain3, star, two_site, two_site_partition_standard
from qetkd.protocol import MeasurementBasis, local_projector, prepare, run_ensemble
from qetkd.spinops import frobenius

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
        h_bob = oracles.terms_matrix(ctx.partition.parts[ctx.bob_label], ctx.n_sites)
        ref = oracles.expectation(ctx.rho_gs, h_bob)
        eve_energy = oracles.expectation(report.eve_state, h_bob) - ref
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


# sha256 of to_kv() and the joint counts, chain3 at J = 1, 200,000 rounds,
# taken when every key bit was read by the gather key_bit[b, a]
REPORT_DIGESTS = {
    ("independent", 0): "5a83e84584cce62e94dd70e73a641cf2dc8b17872923195468c76823f6ef4983",
    ("independent", 1): "0d1b9677e9db023a2cb79f04e046616bb142a01beb90a5d8467ee97f0c03f91c",
    ("postselect", 0): "83e1468c074405f710bfd4985526ead7c3ac93e2972f1797b4db53eb36fc2b53",
    ("postselect", 1): "2f3ab353099f1f3f30beed1e32e5aa18e44dc28c1d101bc55b3245df515979e0",
    ("eve_waits", 0): "500b63a0523605e9a641fde47387f2a50a88e246304aea9d60daa969b59597d0",
    ("eve_waits", 1): "ebcb939b2477025fd3de1376ddf96e26a881608f881c992477a13a7ad4f3e562",
    ("eve_measures_first_silent", 0):
        "562f6a3f1bcfa4bba3f8c9cb4c430935b3a196338d9db4d0f72b7f10fcf65ade",
    ("eve_measures_first_silent", 1):
        "96d5b49d52d6b974fcd02305b645fd707679bb6edd71bff8ce060e1858406b69",
    ("eve_measures_first_sends", 0):
        "82777f7cda4ccb6c16b01ad0a0948bc2857a1a99f5dc70e291e9191a8a772ac9",
    ("eve_measures_first_sends", 1):
        "42d5047c9a22f54c5e3a22486b55c16a834f72bc024f5675bd8b021a23ecdb72",
}


class TestReportDigests:
    @pytest.mark.parametrize("scenario, seed", list(REPORT_DIGESTS))
    def test_report_is_pinned(self, ctx, scenario, seed):
        if scenario == "independent":
            report = eve_independent(ctx, rounds=200_000, seed=seed)
        elif scenario == "postselect":
            report = eve_postselect(ctx, rounds=200_000, seed=seed)
        else:
            report = split_attack(ctx, scenario, rounds=200_000, seed=seed)
        text = report.to_kv() + repr(report.joint_counts.tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[scenario, seed]


class TestKeyBits:
    @pytest.mark.parametrize("entries", range(16))
    def test_equals_the_gather(self, entries):
        # every 2x2 bit table, on each (b, a) pair and on random rounds
        key_bit = np.array([(entries >> i) & 1 for i in range(4)], dtype=np.uint8)
        key_bit = key_bit.reshape(2, 2)
        b = np.array([0, 0, 1, 1], dtype=np.uint8)
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert np.array_equal(_key_bits(key_bit, b, a), key_bit[b, a])
        b, a = np.random.default_rng(entries).integers(0, 2, (2, 10_000)).astype(np.uint8)
        for table in (key_bit, key_bit.astype(bool)):
            bits = _key_bits(table, b, a)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, key_bit[b, a])


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


class TestRoundMemory:
    def test_split_attack_round_arrays(self, ctx):
        split_attack(ctx, "eve_measures_first_sends", rounds=16, seed=1)  # warm caches
        tracemalloc.start()
        try:
            split_attack(ctx, "eve_measures_first_sends", rounds=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _gram_case(name):
    if name == "two-site":
        return prepare(two_site(1.0, 1.0), two_site_partition_standard(1.0, 1.0),
                       MeasurementBasis.x(0))
    if name.startswith("star"):
        return prepare(*star(int(name[4:]), 1.0), MeasurementBasis.x(0), bob_label="B1")
    return prepare(*chain3(float(name[7:])), MeasurementBasis.x(0))


def _dense(ctx):
    """(|g><g|, O) from the oracles: the register's ground state and O(a, b, basis),
    the dense U(a) P(b) of ``RunContext.round_operator``, each 2x2 factor embedded
    by Kronecker products."""
    n = ctx.n_sites
    _, g = oracles.ground(oracles.terms_matrix(ctx.spec.terms, n))

    def op(a, b=None, basis=None):
        u = oracles.embed_op(ctx.rule.local_rotation(a), ctx.rule.site, n)
        if b is None:
            return u
        basis = basis or ctx.alice
        return u @ oracles.embed_op(local_projector(basis, b), basis.site, n)
    return np.outer(g, g.conj()), op


class TestGramDistance:
    """The trace distance on the whole register, from the marginal on S alone."""

    @pytest.mark.parametrize("case", ["chain3 0", "chain3 0.5", "chain3 1", "chain3 2",
                                      "two-site", "star2", "star5"])
    @pytest.mark.parametrize("scenario", ["measured", "measured_y", "postselect",
                                          "eve_waits"])
    def test_random_signed_weights_match_dense_states(self, case, scenario):
        ctx = _gram_case(case)
        measured = [(a, b, ctx.alice) for a in (0, 1) for b in (0, 1)]
        keys = {
            "measured": measured,  # eve_independent and both eve_measures_first cases
            "measured_y": [(a, b, MeasurementBasis.y(0)) for a in (0, 1) for b in (0, 1)],
            "postselect": [(b, b, ctx.alice) for b in (0, 1)],
            "eve_waits": [(a,) for a in (0, 1)],
        }[scenario]
        rho, op = _dense(ctx)
        rng = np.random.default_rng(len(case) + 10 * len(scenario))
        for _ in range(3):
            weights = dict(zip(keys, rng.normal(size=len(keys))))
            eve = sum(w * op(*k) @ rho @ op(*k).conj().T for k, w in weights.items())
            bob = sum(op(b, b) @ rho @ op(b, b).conj().T for b in (0, 1))
            got = _gram_distance(ctx, ctx.forms.marginal(ctx.gs), weights)
            assert got == pytest.approx(oracles.trace_distance(eve, bob), abs=1e-12)

    @pytest.fixture(scope="class")
    def star5(self):
        return _gram_case("star5")

    def test_independent_on_the_star_matches_dense_states(self, star5):
        rho, op = _dense(star5)
        prob = np.array([np.trace(op(0, b) @ rho @ op(0, b).conj().T).real for b in (0, 1)])
        prob /= prob.sum()
        eve = sum(prob[a] * op(a, b) @ rho @ op(a, b).conj().T for a in (0, 1) for b in (0, 1))
        bob = sum(op(b, b) @ rho @ op(b, b).conj().T for b in (0, 1))
        report = eve_independent(star5, rounds=2000, seed=3)
        support = list(star5.forms.support)
        assert report.trace_distance_to_bob == pytest.approx(oracles.trace_distance(eve, bob),
                                                              abs=1e-12)
        assert report.trace_distance_to_bob > 0.01
        assert np.allclose(report.eve_state, oracles.partial_trace(eve, support), atol=1e-12)
        assert np.allclose(bob_reference_state(star5), oracles.partial_trace(bob, support),
                           atol=1e-12)

    def test_postselect_on_the_star_matches_dense_states(self, star5):
        rho, op = _dense(star5)
        bob = sum(op(b, b) @ rho @ op(b, b).conj().T for b in (0, 1))
        report = eve_postselect(star5, rounds=2000, seed=3)
        assert report.trace_distance_to_bob == 0.0
        assert np.allclose(report.eve_state, oracles.partial_trace(bob, list(star5.forms.support)),
                           atol=1e-12)

    def test_eve_basis_off_the_support_refused(self, star5):
        assert star5.forms.support == (0, 1)
        with pytest.raises(ValueError, match="outside the receiver's support"):
            eve_independent(star5, eve_basis=MeasurementBasis.x(2), rounds=10, seed=0)
