import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import qetkd.qkd as qkd
from qetkd.errors import TooManyErasuresError
from qetkd.models import build_model, chain3, star
from qetkd.noise import NoiseSpec, noisy_input_state
from qetkd.protocol import MeasurementBasis, prepare, receiver_forms, run_ensemble
from qetkd.qkd import (
    CHUNK_ROWS,
    KeyBits,
    SessionConfig,
    run_multiparty,
    run_session,
    verify_resource_state,
    write_transcript,
)
from qetkd.rng import DRAW_CHUNK, fair_bits, stream, uniform_chunks

import oracles


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

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_finite(self, epsilon):
        with pytest.raises(ValueError, match="finite and positive"):
            SessionConfig(epsilon=epsilon)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            SessionConfig(model="heisenberg")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SessionConfig(basis_policy="alternating")

    @pytest.mark.parametrize("policy", ["two-random", "haar"])
    @pytest.mark.parametrize("n_parties", [1, 2, 3])
    def test_star_refuses_bases_off_x(self, policy, n_parties):
        with pytest.raises(ValueError, match="only X commutes"):
            SessionConfig(model="star", n_parties=n_parties, coupling=0.5,
                          basis_policy=policy)
        # at J = 0 every hub axis commutes with the receivers' fields, but the
        # feedback objective vanishes on all of them: haar has no axis to draw
        if policy == "haar":
            with pytest.raises(ValueError, match="haar policy has no axis"):
                SessionConfig(model="star", n_parties=n_parties, coupling=0.0,
                              basis_policy=policy, epsilon=1e-3)
        else:
            SessionConfig(model="star", n_parties=n_parties, coupling=0.0,
                          basis_policy=policy, epsilon=1e-3)
        SessionConfig(model="star", n_parties=n_parties, coupling=0.5)

    def test_chain_refuses_haar_at_zero_coupling(self):
        with pytest.raises(ValueError, match="haar policy has no axis"):
            SessionConfig(model="chain3", coupling=0.0, basis_policy="haar", epsilon=1e-3)
        SessionConfig(model="chain3", coupling=0.0, basis_policy="two-random", epsilon=1e-3)
        SessionConfig(model="chain3", coupling=0.5, basis_policy="haar")

    @pytest.mark.parametrize("model", ["chain3", "star"])
    def test_zero_coupling_needs_a_threshold(self, model):
        with pytest.raises(ValueError, match="no default decode threshold"):
            SessionConfig(model=model, coupling=0.0)
        SessionConfig(model=model, coupling=0.0, epsilon=1e-3)

    @pytest.mark.parametrize("kwargs", [
        {"coupling": -1.0},
        {"model": "star", "n_parties": 0},
        {"model": "star", "n_parties": 101},
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
        # the receiver's part holds 2k X0 X1: the configuration is refused when built
        with pytest.raises(ValueError, match="only X commutes"):
            SessionConfig(model="two-site", rounds=16, verify_bits=0,
                          basis_policy="haar", seed=1)

    def test_two_basis_policy_on_star_violates_partition(self):
        # the Y draw fails to commute with the hub-leg interaction, so the
        # configuration is refused before any model is built
        with pytest.raises(ValueError, match="only X commutes"):
            SessionConfig(model="star", n_parties=2, coupling=1.0, rounds=32,
                          verify_bits=0, basis_policy="two-random", seed=1)

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


HEADER = "round,basis_n1,basis_n2,basis_n3,announced_bit,party,cond_energy,decoded_bit"

# name: (SessionConfig fields, SHA-256 of the transcript file or None).  The
# digests pin the bytes of files written by an unchunked renderer.
TRANSCRIPTS = {
    "fixed": (dict(rounds=8193, seed=3),  # one row more than a chunk
              "5bbc84ffebff46b02d79de6e9fb9d589287a430ce93e7a300d01233d38be7e11"),
    "two-random": (dict(rounds=500, basis_policy="two-random", seed=4), None),
    "haar": (dict(rounds=100, basis_policy="haar", verify_bits=0, seed=5,
                  erasure_abort_fraction=1.0),
             "f4320bb5f246552264f14fe295deb2026e262ba864ef5f79e9e1552a0a6a26df"),
    "haar-byte-cells": (dict(rounds=40, basis_policy="haar", verify_bits=0, seed=5,
                             erasure_abort_fraction=1.0),
                        "32ddbd9a8ad938c4be4930586160e1691c653cefd6745c0bfe1e67f3c1cdcb55"),
    "classical-flip": (dict(rounds=1000, seed=6, noise=NoiseSpec("classical_flip", 0.02)),
                       None),
    "star3": (dict(model="star", n_parties=3, rounds=3000, seed=7),
              "8c2c346940d5c03a7de61dc78666e2e5adec44ce834dfb8765d0a1ad2279079d"),
    "zero-rounds": (dict(rounds=0, verify_bits=0), None),
    # round numbers grow from 4 to 5 digits inside the second chunk
    "fixed-10001": (dict(rounds=10_001, seed=8),
                    "7d57880f9e1fbf1e657c0bd1fa19844d4ff049f181c71de7cd2925471b0aa249"),
    # 3 digits to 4 inside a chunk, with each receiver's own flipped bits
    "star3-1200-flip": (dict(model="star", n_parties=3, rounds=1200, seed=9,
                             noise=NoiseSpec("classical_flip", 0.05)),
                        "03ec18d94121c01b6071f9074a6a331458b2e58d7c9166b55d2dc5a5163dc20f"),
}


class TestTranscript:
    @pytest.mark.parametrize("name", list(TRANSCRIPTS))
    def test_file_holds_the_transcript_rows(self, name, tmp_path):
        fields, digest = TRANSCRIPTS[name]
        result = run_session(SessionConfig(coupling=1.0, **fields))
        path = tmp_path / "t.csv"
        write_transcript(result, path)
        data = path.read_bytes()
        assert data == "".join(row + "\n" for row in (HEADER, *result.transcript)).encode()
        assert len(result.transcript) == fields["rounds"] * fields.get("n_parties", 1)
        if digest is not None:
            assert hashlib.sha256(data).hexdigest() == digest

    def test_chunks_hold_at_most_chunk_rows(self):
        result = run_session(SessionConfig(model="star", n_parties=3, coupling=1.0,
                                           rounds=3000, seed=7))
        sizes = [chunk.count(b"\n") for chunk in result.rows.chunks()]
        assert max(sizes) <= CHUNK_ROWS and sum(sizes) == 9000 and len(sizes) == 2

    def test_rewrite_long_short_long_equals_fresh_writes(self, tmp_path):
        # written over the old bytes and cut to length, never truncated to zero
        results = {n: run_session(SessionConfig(coupling=1.0, rounds=n, seed=2))
                   for n in (1000, 100)}
        path = tmp_path / "t.csv"
        fresh = {}
        for n, result in results.items():
            write_transcript(result, path)
            fresh[n] = path.read_bytes()
            path.unlink()
        for n in (1000, 100, 1000):
            write_transcript(results[n], path)
            assert path.read_bytes() == fresh[n]

    def test_file_modes(self, tmp_path):
        # a new file gets 0o666 less the umask, as open(path, "w") gives it;
        # an existing file keeps its mode
        result = run_session(SessionConfig(coupling=1.0, rounds=100, seed=2))
        path = tmp_path / "t.csv"
        old = os.umask(0o077)
        try:
            write_transcript(result, path)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o600
        path.chmod(0o640)
        write_transcript(result, path)
        assert path.stat().st_mode & 0o777 == 0o640


class TestChunkedDraws:
    @pytest.mark.parametrize("n", [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                                   3 * DRAW_CHUNK + 5])
    def test_equal_the_one_array_draws(self, n):
        # the same variates as one array of n, and the stream left where it would be
        chunked, whole = stream(3, 1), stream(3, 1)
        assert np.array_equal(fair_bits(chunked, n), whole.integers(0, 2, n).astype(np.uint8))
        draws = np.concatenate([np.zeros(0)] + [d.copy() for _, d in uniform_chunks(chunked, n)])
        assert np.array_equal(draws, whole.random(n))
        assert chunked.integers(0, 2, 7).tolist() == whole.integers(0, 2, 7).tolist()
        assert chunked.random() == whole.random()


class TestRoundMemory:
    """A session keeps about 12 bytes per round, 8 of them the float64
    energies: 8 MB at 100k rounds leaves room for one transcript chunk, not
    for int64 round arrays or a tuple of every row."""

    def test_session_and_transcript(self, tmp_path):
        run_session(SessionConfig(coupling=1.0, rounds=16, verify_bits=0))  # warm caches
        config = SessionConfig(model="chain3", coupling=1.0, rounds=100_000, seed=1)
        tracemalloc.start()
        try:
            write_transcript(run_session(config), tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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

    def test_unknown_cheat_action_rejected(self):
        # "flip" is the only plan; any other value must not run an honest session
        config = SessionConfig(model="star", n_parties=2, rounds=8,
                               verify_bits=0, coupling=1.0)
        with pytest.raises(ValueError, match="'B2'.*'flop'"):
            run_session(config, cheat_plan={"B2": "flop"})


FORM_ARRAYS = ("ground", "sig", "parts", "inner", "c", "q", "g")


def _own_receivers(config, ctx, labels):
    """Every receiver's forms built by ``receiver_forms``, one by one."""
    forms = [receiver_forms(ctx.spec, ctx.partition, ctx.alice.site, lab) for lab in labels]
    if config.noise is None:
        return forms, [f.ground for f in forms]
    return forms, [noisy_input_state(ctx, config.noise, f)[0] for f in forms]


class TestStarReceiversRelabelled:
    """On the collective star every leaf's forms are leaf 1's, relabelled."""

    @pytest.mark.parametrize("n", [*range(3, 12), 100])
    def test_equal_each_receivers_own_forms(self, n):
        coupling = 0.2 if n == 100 else 1.0
        config = SessionConfig(model="star", n_parties=n, coupling=coupling)
        spec, part, labels = build_model("star", coupling, n_parties=n)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label=labels[0])
        forms, states = qkd._receivers(config, ctx, labels)
        for f, state, label in zip(forms, states, labels):
            own = receiver_forms(spec, part, 0, label)
            assert (f.site, f.support) == (own.site, own.support)
            for name in FORM_ARRAYS:
                a, b = getattr(f, name), getattr(own, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable  # shared by every receiver
            assert state is f.ground

    @pytest.mark.parametrize("fields", [
        dict(n_parties=5),
        dict(n_parties=4, noise=NoiseSpec("bit_flip", 0.1, site=2)),
        dict(n_parties=6, noise=NoiseSpec("bit_flip", 0.05, site=0)),
    ])
    def test_sessions_equal_the_per_receiver_build(self, fields, monkeypatch):
        config = SessionConfig(model="star", coupling=1.0, rounds=2000, seed=3,
                               erasure_abort_fraction=1.0, **fields)
        runs = []
        for build in (qkd._receivers, _own_receivers):
            monkeypatch.setattr(qkd, "_receivers", build)
            runs.append((run_session(config), run_multiparty(config, {"B2": "flip"})))
        (relabelled, (cheated, verdict)), (own, (own_cheated, own_verdict)) = runs
        assert verdict == own_verdict
        for a, b in ((relabelled, own), (cheated, own_cheated)):
            assert a == b
            assert b"".join(a.rows.chunks()) == b"".join(b.rows.chunks())
            for label in a.parties:
                assert a.parties[label].key == b.parties[label].key
                assert a.parties[label].energy_array.tobytes() \
                    == b.parties[label].energy_array.tobytes()


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
        rho = chain_ctx.rho_gs
        x2 = oracles.embed_op(oracles.SX, 2, 3)
        flipped = x2 @ rho @ x2
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

    def test_equal_rounds_hash_once(self, chain_ctx, monkeypatch):
        # consecutive rounds with equal bytes reuse the previous round's table
        import qetkd.qkd as qkd
        digests = []
        original = qkd.hashlib.blake2b
        monkeypatch.setattr(qkd.hashlib, "blake2b",
                            lambda data: digests.append(1) or original(data))
        verdict = verify_resource_state(chain_ctx, lambda i: chain_ctx.rho_gs.copy(),
                                        rounds=5000, seed=0)
        assert verdict.ok
        assert len(digests) == 1

    def test_state_mutated_in_place_builds_a_second_table(self, chain_ctx, monkeypatch):
        # one array changed in place between rounds is two states, as two
        # fresh arrays with the same contents are
        import qetkd.qkd as qkd
        rho = chain_ctx.rho_gs
        x2 = oracles.embed_op(oracles.SX, 2, 3)
        flipped = x2 @ rho @ x2
        shared = rho.copy()

        def mutating(i):
            shared[...] = rho if i < 500 else flipped
            return shared

        calls = []
        original = qkd.require_density_matrix
        monkeypatch.setattr(qkd, "require_density_matrix",
                            lambda state: calls.append(1) or original(state))
        mutated = verify_resource_state(chain_ctx, mutating, rounds=3000, seed=4)
        assert len(calls) == 2
        fresh = verify_resource_state(
            chain_ctx, lambda i: (rho if i < 500 else flipped).copy(), rounds=3000, seed=4)
        assert mutated == fresh
        assert not mutated.ok

    def test_byte_orders_build_two_tables(self, chain_ctx, monkeypatch):
        # rounds are keyed on the dtype object, which tells '<c16' from '>c16'
        # as the dtype.str key did: equal values in two byte orders are two states
        import qetkd.qkd as qkd
        calls = []
        original = qkd.require_density_matrix
        monkeypatch.setattr(qkd, "require_density_matrix",
                            lambda state: calls.append(state.dtype.str) or original(state))
        little = chain_ctx.rho_gs.astype("<c16")
        big = chain_ctx.rho_gs.astype(">c16")
        verdict = verify_resource_state(chain_ctx, lambda i: (little, big)[i % 2],
                                        rounds=2000, seed=0)
        assert sorted(calls) == ["<c16", ">c16"]
        assert verdict.ok

    def test_round_memory(self, chain_ctx):
        # the draws are taken rng.DRAW_CHUNK at a time and the rounds tallied
        # per table and outcome, so no per-round array is kept: 0.35 MB
        # traced at 200k rounds.  Round-long float64 draws alone are 1.6 MB,
        # and a float64 energy gather plus an intp slot per round peaked at
        # 6.4 MB.
        rho = chain_ctx.rho_gs
        verify_resource_state(chain_ctx, lambda i: rho, rounds=16, seed=0)  # warm caches
        tracemalloc.start()
        try:
            verdict = verify_resource_state(chain_ctx, lambda i: rho, rounds=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.ok
        assert peak < 1_000_000

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

    @pytest.mark.parametrize("dim", [4, 2])
    def test_state_of_another_size_refused(self, dim):
        # star N=2 has 3 sites; a 4 x 4 state is as wide as the receiver's
        # support and must not be read as its marginal
        spec, part = star(2, 1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        wrong = np.eye(dim) / dim
        message = rf"round 0: .*shape \({dim}, {dim}\), 3 sites need \(8, 8\)"
        with pytest.raises(ValueError, match=message):
            verify_resource_state(ctx, lambda i: wrong, rounds=10, seed=0)
        with pytest.raises(ValueError, match=rf"round 9000: .*shape \({dim}, {dim}\)"):
            verify_resource_state(ctx, lambda i: ctx.rho_gs if i < 9000 else wrong,
                                  rounds=10_000, seed=0)
