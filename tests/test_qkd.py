import numpy as np
import pytest

from qetkd.errors import PartitionViolationError, TooManyErasuresError
from qetkd.models import chain3
from qetkd.noise import NoiseSpec
from qetkd.protocol import MeasurementBasis, prepare, run_ensemble
from qetkd.qkd import (
    KeyBits,
    SessionConfig,
    run_multiparty,
    run_session,
    verify_resource_state,
    write_transcript,
)


@pytest.fixture(scope="module")
def chain_ctx():
    spec, part = chain3(1.0)
    return prepare(spec, part, MeasurementBasis.x(0))


class TestConfigValidation:
    def test_verify_bits_must_fit(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=10, verify_bits=11)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            SessionConfig(epsilon=0.0)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            SessionConfig(model="heisenberg")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SessionConfig(basis_policy="alternating")

    @pytest.mark.parametrize("kwargs", [
        {"coupling": -1.0},
        {"model": "star", "n_parties": 0},
        {"model": "star", "n_parties": 12},
    ])
    def test_model_parameters_in_range(self, kwargs):
        with pytest.raises(ValueError):
            SessionConfig(**kwargs)


class TestKeyBits:
    def test_render_and_erasures(self):
        key = KeyBits((1, 0, None, 1))
        assert key.as_str() == "10e1"
        assert key.erasure_fraction() == pytest.approx(0.25)

    def test_match_rate_counts_erasures_as_miss(self):
        a = KeyBits((1, 0, 1, 0))
        b = KeyBits((1, 0, None, 1))
        assert a.match_rate(b) == pytest.approx(0.5)
        assert b.match_rate(a) == pytest.approx(0.5)


class TestSingleSession:
    def test_noiseless_key_is_perfect(self):
        config = SessionConfig(model="chain3", coupling=1.0, rounds=256, seed=7)
        result = run_session(config)
        party = result.parties["B"]
        assert result.alice_key.match_rate(party.key) == 1.0
        assert party.key.erasure_fraction() == 0.0
        assert result.verdict.ok
        # decode margin: every conditional energy clears the threshold
        assert min(abs(e) for e in party.energies) > result.epsilon

    def test_deterministic_transcripts(self):
        config = SessionConfig(model="chain3", coupling=1.5, rounds=64,
                               verify_bits=16, seed=21)
        first = run_session(config)
        second = run_session(config)
        assert first.transcript == second.transcript
        assert first.alice_key == second.alice_key

    def test_zero_rounds_vacuous_pass(self):
        config = SessionConfig(rounds=0, verify_bits=0, seed=1, coupling=1.0)
        result = run_session(config)
        assert len(result.alice_key) == 0
        assert result.verdict.ok

    def test_sign_symmetry_of_encoding(self):
        # flipping the transmitted bit flips the decoded bit in every round
        config = SessionConfig(model="chain3", coupling=1.0, rounds=128,
                               verify_bits=0, seed=3)
        result = run_session(config)
        decoded = result.parties["B"].key.bits
        assert all(d == k for d, k in zip(decoded, result.alice_key.bits))

    def test_noisy_classical_channel_fails_verification(self):
        noise = NoiseSpec(kind="classical_flip", p=0.4)
        config = SessionConfig(model="chain3", coupling=1.0, rounds=512,
                               noise=noise, seed=5)
        result = run_session(config)
        rate = result.alice_key.match_rate(result.parties["B"].key)
        assert rate < 0.9
        assert not result.verdict.ok

    def test_erasure_abort(self):
        # a threshold far above the signal turns every round into an erasure
        config = SessionConfig(model="chain3", coupling=1.0, rounds=32,
                               verify_bits=0, epsilon=10.0, seed=2)
        with pytest.raises(TooManyErasuresError):
            run_session(config)

    def test_two_site_session(self):
        config = SessionConfig(model="two-site", k=1.0, h=1.0, rounds=64,
                               verify_bits=16, seed=11)
        result = run_session(config)
        assert result.alice_key.match_rate(result.parties["B"].key) == 1.0

    def test_two_basis_policy(self):
        config = SessionConfig(model="chain3", coupling=2.0, rounds=128,
                               basis_policy="two-random", verify_bits=32, seed=13)
        result = run_session(config)
        assert result.alice_key.match_rate(result.parties["B"].key) == 1.0

    def test_haar_policy_decodes_or_erases(self):
        config = SessionConfig(model="chain3", coupling=2.7, rounds=128,
                               basis_policy="haar", verify_bits=0, seed=17)
        result = run_session(config)
        key = result.parties["B"].key
        assert key.erasure_fraction() <= 0.10
        for decoded, truth in zip(key.bits, result.alice_key.bits):
            if decoded is not None:
                assert decoded == truth

    def test_haar_policy_on_two_site_violates_partition(self):
        config = SessionConfig(model="two-site", rounds=16, verify_bits=0,
                               basis_policy="haar", seed=1)
        with pytest.raises(PartitionViolationError):
            run_session(config)

    def test_two_basis_policy_on_star_violates_partition(self):
        # the Y draw fails to commute with the hub-leg interaction
        config = SessionConfig(model="star", n_parties=2, coupling=1.0,
                               rounds=32, verify_bits=0,
                               basis_policy="two-random", seed=1)
        with pytest.raises(PartitionViolationError):
            run_session(config)

    def test_depolarizing_state_noise_shrinks_margin(self):
        noise = NoiseSpec(kind="depolarize", p=0.5)
        clean = SessionConfig(model="chain3", coupling=1.0, rounds=64,
                              verify_bits=0, seed=9)
        noisy = SessionConfig(model="chain3", coupling=1.0, rounds=64,
                              verify_bits=0, noise=noise, seed=9,
                              epsilon=1e-6)
        e_clean = run_session(clean).parties["B"].energies
        e_noisy = run_session(noisy).parties["B"].energies
        assert max(abs(e) for e in e_noisy) < max(abs(e) for e in e_clean)

    def test_transcript_file_format(self, tmp_path):
        config = SessionConfig(model="chain3", coupling=1.0, rounds=8,
                               verify_bits=0, seed=4)
        result = run_session(config)
        path = tmp_path / "transcript.csv"
        write_transcript(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("round,basis_n1,basis_n2,basis_n3,"
                            "announced_bit,party,cond_energy,decoded_bit")
        assert len(lines) == 1 + 8
        fields = lines[1].split(",")
        assert len(fields) == 8
        assert fields[5] == "B"
        float(fields[6])
        assert fields[7] in ("0", "1", "e")


class TestMultiparty:
    def test_honest_sessions_unanimous(self):
        config = SessionConfig(model="star", coupling=1.0, n_parties=2,
                               rounds=128, verify_bits=32, seed=3)
        result, verdict = run_multiparty(config)
        assert verdict.cheater is None
        assert all(f == 0.0 for f in verdict.dissent_fraction.values())
        for rnd in range(128):
            signs = {np.sign(result.parties[lab].energies[rnd])
                     for lab in result.parties}
            assert len(signs) == 1

    def test_cheated_party_dissents_every_round(self):
        config = SessionConfig(model="star", coupling=1.0, n_parties=2,
                               rounds=128, verify_bits=0, seed=5)
        result, verdict = run_multiparty(config, cheat_plan={"B2": "flip"})
        assert verdict.cheater == "B2"
        assert verdict.dissent_fraction["B2"] == 1.0
        assert verdict.dissent_fraction["B1"] == 0.0
        for rnd in range(128):
            assert (np.sign(result.parties["B1"].energies[rnd])
                    != np.sign(result.parties["B2"].energies[rnd]))

    def test_three_party_vote(self):
        config = SessionConfig(model="star", coupling=1.0, n_parties=3,
                               rounds=64, verify_bits=0, seed=8)
        _, verdict = run_multiparty(config, cheat_plan={"B3": "flip"})
        assert verdict.cheater == "B3"

    def test_requires_star_model(self):
        with pytest.raises(ValueError):
            run_multiparty(SessionConfig(model="chain3", rounds=8, verify_bits=0))

    def test_unknown_cheat_target_rejected(self):
        config = SessionConfig(model="star", n_parties=2, rounds=8,
                               verify_bits=0, coupling=1.0)
        with pytest.raises(ValueError):
            run_session(config, cheat_plan={"B9": "flip"})


class TestResourceVerification:
    def test_true_source_passes(self, chain_ctx):
        verdict = verify_resource_state(chain_ctx, lambda i: chain_ctx.rho_gs,
                                        rounds=2000, seed=1)
        assert verdict.ok
        assert verdict.predicted == pytest.approx(run_ensemble(chain_ctx).e_bob)

    def test_matches_the_per_round_loop(self, chain_ctx):
        # reference: one table, one scalar draw and one lookup per round;
        # the same draws and table entries must give the same verdict exactly
        from qetkd.protocol import conditional_table
        from qetkd.rng import SUBSTREAM, stream
        from qetkd.spinops import PAULI, sandwich
        rho = chain_ctx.rho_gs
        flipped = sandwich(PAULI["X"], 2, rho)
        states = (rho, 0.7 * rho + 0.3 * flipped, flipped)
        rng = stream(3, SUBSTREAM["resource_check"])
        energies = []
        for i in range(3000):
            table = conditional_table(chain_ctx, states[i % 3])
            b = int(rng.random() >= table.prob[0])
            energies.append(table.decode()[b, chain_ctx.rule.mapped(b)])
        verdict = verify_resource_state(chain_ctx, lambda i: states[i % 3],
                                        rounds=3000, seed=3)
        assert verdict.mean_energy == float(np.mean(energies))
        assert verdict.stderr == float(np.std(energies) / np.sqrt(3000))
        assert not verdict.ok

    def test_maximally_mixed_source_fails(self, chain_ctx):
        mixed = np.eye(8) / 8
        verdict = verify_resource_state(chain_ctx, lambda i: mixed,
                                        rounds=2000, seed=1)
        assert not verdict.ok
        assert verdict.mean_energy == pytest.approx(0.0, abs=1e-10)

    def test_split_attack_marginals_fail(self, chain_ctx):
        # product of the sender-side and receiver-side marginals: the
        # correlations the protocol feeds on are gone
        rho = chain_ctx.rho_gs
        dim_a, dim_rest = 2, 4
        rho_r = rho.reshape(dim_a, dim_rest, dim_a, dim_rest)
        marg_a = np.trace(rho_r, axis1=1, axis2=3)
        marg_rest = np.trace(rho_r, axis1=0, axis2=2)
        product = np.kron(marg_a, marg_rest)
        verdict = verify_resource_state(chain_ctx, lambda i: product,
                                        rounds=10_000, seed=2)
        assert not verdict.ok

    @pytest.mark.parametrize("make_mixed", [
        lambda: np.diag(np.full(8, 1 / 8)),
        lambda: np.eye(8, dtype=complex) / 8,
    ])
    def test_fresh_arrays_alternating_with_mixed_fail(self, chain_ctx, make_mixed):
        # a supplier returning fresh arrays recycles object ids; the decode
        # table must follow the content, so every other round is the
        # maximally mixed state (energy exactly 0) and the mean halves
        def source(i):
            return chain_ctx.rho_gs.copy() if i % 2 == 0 else make_mixed()

        verdict = verify_resource_state(chain_ctx, source, rounds=20_000, seed=0)
        assert not verdict.ok
        assert abs(verdict.mean_energy - verdict.predicted / 2) <= 5 * verdict.stderr

    def test_genuine_fresh_arrays_build_one_table(self, chain_ctx, monkeypatch):
        import qetkd.qkd as qkd
        calls = []
        original = qkd.require_density_matrix
        monkeypatch.setattr(qkd, "require_density_matrix",
                            lambda rho: calls.append(1) or original(rho))
        verdict = verify_resource_state(chain_ctx, lambda i: chain_ctx.rho_gs.copy(),
                                        rounds=20_000, seed=0)
        assert verdict.ok
        assert len(calls) == 1

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_needs_a_round_before_drawing(self, chain_ctx, monkeypatch, rounds):
        import qetkd.qkd as qkd
        calls = []
        monkeypatch.setattr(qkd, "stream", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="at least one round"):
            verify_resource_state(chain_ctx, lambda i: calls.append(i) or chain_ctx.rho_gs,
                                  rounds=rounds, seed=0)
        assert calls == []

    def test_invalid_candidate_rejected(self, chain_ctx):
        with pytest.raises(ValueError):
            verify_resource_state(chain_ctx, lambda i: np.eye(8), rounds=4, seed=0)
