"""The session engine against the dense oracles of ``tests/oracles.py``.

``ReceiverForms`` evaluates a receiver's decode tables for any batch of
sender axes, feedback axes and angles from the marginal of the input
state and three 3x3 forms.  Every batched table must equal direct
Kronecker-product evolution of the full input state, and its
closed-form feedback axis, angle and partition defect must equal the
dense values of ``tests/oracles.py``.
"""

import numpy as np
import pytest

import oracles
import qetkd.qkd as qkd
from qetkd.errors import DegenerateObjectiveError, SupportViolationError
from qetkd.models import build_model, chain3, first_excited_level
from qetkd.noise import NoiseSpec, noisy_input_state
from qetkd.protocol import MeasurementBasis, conditional_table, optimize_bob_basis, prepare
from qetkd.qkd import SessionConfig, run_session

TIGHT = 1e-12
MODELS = [("chain3", 1), ("star", 2), ("star", 3), ("star", 4)]


def noises(bob_site):
    return [
        None,
        NoiseSpec("classical_flip", 0.2),
        NoiseSpec("depolarize", 0.3),
        NoiseSpec("bit_flip", 0.25, site=0),
        NoiseSpec("bit_flip", 0.25, site=bob_site),
        NoiseSpec("excited_superposition", 0.2, alpha=0.7),
    ]


def unit_rows(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def input_state(ctx, noise):
    return ctx.gs if noise is None else noisy_input_state(ctx, noise)[0]


def register_state(ctx, noise):
    """The input as one d x d matrix, mixed densely from the ground and excited vectors."""
    if noise is None:
        return np.outer(ctx.gs, ctx.gs.conj())
    level = first_excited_level(ctx.spec) if noise.kind.startswith("excited") else None
    return oracles.noisy_state(noise.kind, noise.p, ctx.gs, level, noise.site,
                               noise.alpha or 0.0)


def oracle_axis(v, site, n):
    return sum(c * oracles.embed(ax, site, n) for c, ax in zip(v, "XYZ"))


def assert_tables_match(spec, part, label, noise, bases, bob_axes):
    """Engine tables for each (basis, receiver axis) against dense evolution."""
    base = prepare(spec, part, MeasurementBasis.x(0), bob_label=label)
    forms, state = base.forms, input_state(base, noise)
    contexts = [prepare(spec, part, b, bob_label=label, bob_axis=m)
                for b, m in zip(bases, bob_axes)]
    n = np.array([ctx.alice.vector for ctx in contexts])
    m = np.array([ctx.rule.vector for ctx in contexts])
    theta = forms.theta(n, m)[2]
    assert np.allclose(theta, [ctx.rule.theta for ctx in contexts], rtol=0, atol=TIGHT)
    table = forms.table(state, n, m, theta)
    size = spec.n_sites
    h = oracles.terms_matrix(spec.terms, size)
    evals, gs = oracles.ground(h)
    h_b = oracles.terms_matrix(part.parts[label], size)
    rho = register_state(base, noise)
    for i, ctx in enumerate(contexts):
        sigma_a = oracle_axis(n[i], ctx.alice.site, size)
        sigma_b = oracle_axis(m[i], ctx.rule.site, size)
        assert abs(theta[i] - oracles.theta_of(h, gs, evals[0], sigma_a, sigma_b)[2]) <= TIGHT
        prob, decode = oracles.conditional_energies(h_b, rho, sigma_a, sigma_b, theta[i])
        assert np.allclose(table.prob[i], prob, rtol=0, atol=TIGHT)
        assert np.allclose(table.decode()[i], decode, rtol=0, atol=TIGHT)


@pytest.mark.parametrize("model,n_parties", MODELS)
@pytest.mark.parametrize("noise_index", range(6))
def test_paired_and_random_receiver_axes_match_kernel(model, n_parties, noise_index):
    spec, part, labels = build_model(model, 1.3, n_parties=n_parties)
    rng = np.random.default_rng(noise_index)
    for label in labels:
        site = prepare(spec, part, MeasurementBasis.x(0), bob_label=label).rule.site
        noise = noises(site)[noise_index]
        # X is the one sender basis every model's partition admits.
        bases = [MeasurementBasis.x(0)] * 3
        bob_axes = ["paired"] + [MeasurementBasis(site, tuple(v)) for v in unit_rows(rng, 2)]
        assert_tables_match(spec, part, label, noise, bases, bob_axes)


@pytest.mark.parametrize("noise_index", range(6))
def test_haar_and_paired_sender_axes_match_kernel_on_chain(noise_index):
    spec, part = chain3(0.9)
    rng = np.random.default_rng(10 + noise_index)
    noise = noises(2)[noise_index]
    haar = [MeasurementBasis(0, tuple(v)) for v in unit_rows(rng, 4)]
    bases = [MeasurementBasis.x(0), MeasurementBasis.y(0)] + haar
    bob_axes = ["paired", "paired"] + ["optimal"] * 4
    assert_tables_match(spec, part, "B", noise, bases, bob_axes)


@pytest.mark.parametrize("coupling", [0.3, 1.0, 2.7])
def test_closed_form_axis_and_angle_match_optimizer(coupling):
    spec, part = chain3(coupling)
    forms = prepare(spec, part, MeasurementBasis.x(0)).forms
    n = unit_rows(np.random.default_rng(int(coupling * 10)), 8)
    m_star = optimize_bob_basis(forms, n)
    xi, eta, theta = forms.theta(n, m_star)
    h = oracles.chain3_matrix(coupling)
    evals, gs = oracles.ground(h)
    for i, v in enumerate(n):
        sigma_a = oracle_axis(v, 0, 3)
        # eta is linear in the receiver axis: its maximizer is the
        # normalized vector of the per-axis values.
        coeffs = np.array([oracles.theta_of(h, gs, evals[0], sigma_a, oracles.embed(ax, 2, 3))[1]
                           for ax in "XYZ"])
        m = coeffs / np.linalg.norm(coeffs)
        want = oracles.theta_of(h, gs, evals[0], sigma_a, oracle_axis(m, 2, 3))
        assert np.allclose(m_star[i], m, rtol=0, atol=TIGHT)
        assert abs(xi[i] - want[0]) <= TIGHT
        assert abs(eta[i] - want[1]) <= TIGHT
        assert abs(theta[i] - want[2]) <= TIGHT


@pytest.mark.parametrize("model,n_parties", [("two-site", 1), ("star", 2), ("star", 4),
                                             ("chain3", 1)])
def test_closed_form_partition_defect(model, n_parties):
    spec, part, labels = build_model(model, 1.1, n_parties=n_parties)
    n = np.vstack([np.eye(3), unit_rows(np.random.default_rng(3), 5)])
    for label in labels:
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label=label)
        h_bob = oracles.terms_matrix(part.parts[label], spec.n_sites)
        want = []
        for v in n:
            sigma_a = oracle_axis(v, 0, spec.n_sites)
            want.append(0.5 * np.linalg.norm(sigma_a @ h_bob - h_bob @ sigma_a))
        assert np.allclose(ctx.forms.defect(n), want, rtol=0, atol=TIGHT)


@pytest.mark.parametrize("noise", [None, NoiseSpec("depolarize", 0.2),
                                   NoiseSpec("bit_flip", 0.1, site=2)])
def test_session_energies_come_from_the_kernel_tables(noise):
    config = SessionConfig(model="chain3", coupling=1.0, rounds=200, verify_bits=0,
                           basis_policy="two-random", noise=noise, seed=2,
                           epsilon=1e-6)
    result = run_session(config)
    spec, part = chain3(1.0)
    tables = {}
    for basis in (MeasurementBasis.x(0), MeasurementBasis.y(0)):
        ctx = prepare(spec, part, basis)
        tables[basis.vector] = conditional_table(ctx, input_state(ctx, noise)).decode()
    for row in result.transcript:
        fields = row.split(",")
        basis = tuple(float(x) for x in fields[1:4])
        sent, energy = int(fields[4]), float(fields[6])
        assert np.min(np.abs(tables[basis][:, sent] - energy)) <= 1e-11


def test_haar_session_prepares_a_constant_number_of_times(monkeypatch):
    calls = []
    original = qkd.prepare
    monkeypatch.setattr(qkd, "prepare", lambda *a, **k: calls.append(1) or original(*a, **k))
    counts = []
    for rounds in (16, 256):
        calls.clear()
        run_session(SessionConfig(model="chain3", coupling=2.7, rounds=rounds,
                                  basis_policy="haar", verify_bits=0, seed=17))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1


def test_noisy_star_session_prepares_once_for_any_party_count(monkeypatch):
    calls = []
    original = qkd.prepare
    monkeypatch.setattr(qkd, "prepare", lambda *a, **k: calls.append(1) or original(*a, **k))
    counts = []
    for n_parties in (2, 3, 4):
        calls.clear()
        run_session(SessionConfig(model="star", coupling=1.0, n_parties=n_parties, rounds=64,
                                  verify_bits=0, noise=NoiseSpec("depolarize", 0.05), seed=1))
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_noisy_star_session_reduces_the_input_on_each_receivers_support():
    # A bit flip at B2's site moves B2's marginal and not B1's, so a session
    # that handed every receiver the first receiver's marginal fails here.
    config = SessionConfig(model="star", coupling=1.0, n_parties=3, rounds=16,
                           verify_bits=0, seed=0, noise=NoiseSpec("bit_flip", 0.3, site=2))
    spec, part, labels = build_model("star", 1.0, n_parties=3)
    ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label=labels[0])
    forms, states = qkd._receivers(config, ctx, labels)
    rho = oracles.noisy_state("bit_flip", 0.3, oracles.ground(oracles.star_matrix(3, 1.0))[1],
                              site=2)
    assert [f.support for f in forms] == [(0, 1), (0, 2), (0, 3)]
    for f, state in zip(forms, states):
        np.testing.assert_allclose(state, oracles.partial_trace(rho, list(f.support)),
                                   rtol=0, atol=TIGHT)
    assert not np.allclose(states[0], states[1], rtol=0, atol=1e-3)


def test_kraus_channel_at_any_receiver_site_is_refused():
    ops = (np.sqrt(0.8) * np.eye(2), np.sqrt(0.2) * oracles.SX)
    for site in (1, 2):  # B1's site, then B2's: the first context is B1's
        config = SessionConfig(model="star", coupling=1.0, n_parties=2, rounds=16,
                               verify_bits=0, seed=0, epsilon=1e-6,
                               noise=NoiseSpec("local_kraus", 0.0, site=site, kraus_ops=ops))
        with pytest.raises(SupportViolationError):
            run_session(config)


def test_haar_session_without_usable_axis_raises():
    # at zero coupling the ground state is a product: eta vanishes on every
    # axis.  SessionConfig refuses that session, so draw its axes directly.
    spec, partition = chain3(0.0)
    ctx = prepare(spec, partition, MeasurementBasis.x(0))
    with pytest.raises(DegenerateObjectiveError):
        qkd._haar_axes(0, 4, [ctx.forms])


def test_classical_flips_leave_other_draws_in_place():
    clean = SessionConfig(model="chain3", coupling=1.0, rounds=300, verify_bits=0, seed=6)
    noisy = SessionConfig(model="chain3", coupling=1.0, rounds=300, verify_bits=0, seed=6,
                          noise=NoiseSpec("classical_flip", 0.05),
                          erasure_abort_fraction=1.0)
    assert run_session(clean).alice_key == run_session(noisy).alice_key


def test_key_bits_from_codes_round_trip():
    key = qkd.KeyBits.from_codes(np.array([1, -1, 0, 1]))
    assert key == qkd.KeyBits((1, None, 0, 1))
    assert key.bits == (1, None, 0, 1)
    assert key.as_str() == "1e01"


def test_results_compare_by_value():
    config = SessionConfig(model="star", coupling=1.0, n_parties=2, rounds=64,
                           verify_bits=8, seed=3)
    first, second = run_session(config), run_session(config)
    assert first == second
    assert first.parties["B1"] == second.parties["B1"]
    assert hash(first.parties["B1"]) == hash(second.parties["B1"])
    other = run_session(SessionConfig(model="star", coupling=1.0, n_parties=2, rounds=64,
                                      verify_bits=8, seed=4))
    assert first != other
    assert first.parties["B1"] != first.parties["B2"]
