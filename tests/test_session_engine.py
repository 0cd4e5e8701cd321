"""The session engine against the per-basis protocol kernel.

``protocol.receiver_forms`` evaluates a receiver's decode tables for any
batch of sender axes, feedback axes and angles from one precomputed
tensor and three 3x3 forms.  Every table it gives must equal the one
``conditional_table(prepare(...), state)`` builds basis by basis, and
its closed-form feedback axis, angle and partition defect must equal
``optimize_bob_basis``, ``theta_params`` and ``validate_partition``.
"""

import numpy as np
import pytest

import qetkd.qkd as qkd
from qetkd.errors import DegenerateObjectiveError
from qetkd.models import build_model, chain3
from qetkd.noise import NoiseSpec, noisy_input_state
from qetkd.protocol import (
    MeasurementBasis,
    conditional_table,
    optimize_bob_basis,
    prepare,
    receiver_forms,
    validate_partition,
)
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


def assert_tables_match(spec, part, label, noise, bases, bob_axes):
    """Engine tables for each (basis, receiver axis) against the per-basis kernel."""
    base = prepare(spec, part, MeasurementBasis.x(0), bob_label=label)
    forms = receiver_forms(spec, part, label, input_state(base, noise))
    contexts = [prepare(spec, part, b, bob_label=label, bob_axis=m)
                for b, m in zip(bases, bob_axes)]
    n = np.array([ctx.alice.vector for ctx in contexts])
    m = np.array([ctx.rule.vector for ctx in contexts])
    theta = forms.theta(n, m)[2]
    assert np.allclose(theta, [ctx.rule.theta for ctx in contexts], rtol=0, atol=TIGHT)
    table = forms.table(n, m, theta)
    for i, ctx in enumerate(contexts):
        want = conditional_table(ctx, input_state(ctx, noise))
        assert np.allclose(table.prob[i], want.prob, rtol=0, atol=TIGHT)
        assert np.allclose(table.decode()[i], want.decode(), rtol=0, atol=TIGHT)


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
    ctx = prepare(spec, part, MeasurementBasis.x(0))
    forms = receiver_forms(spec, part, "B", ctx.gs)
    n = unit_rows(np.random.default_rng(int(coupling * 10)), 8)
    coeffs = forms.coefficients(n)
    m_star = coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)
    xi, eta, theta = forms.theta(n, m_star)
    for i, v in enumerate(n):
        sigma_a = MeasurementBasis(0, tuple(v)).observable(3)
        m, tp = optimize_bob_basis(ctx.gs, spec, sigma_a, 2)
        assert np.allclose(m_star[i], m, rtol=0, atol=TIGHT)
        assert abs(xi[i] - tp.xi) <= TIGHT
        assert abs(eta[i] - tp.eta) <= TIGHT
        assert abs(theta[i] - tp.theta) <= TIGHT


@pytest.mark.parametrize("model,n_parties", [("two-site", 1), ("star", 2), ("star", 4),
                                             ("chain3", 1)])
def test_closed_form_partition_defect(model, n_parties):
    spec, part, labels = build_model(model, 1.1, n_parties=n_parties)
    n = np.vstack([np.eye(3), unit_rows(np.random.default_rng(3), 5)])
    for label in labels:
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label=label)
        forms = receiver_forms(spec, part, label, ctx.gs)
        want = [validate_partition(MeasurementBasis(0, tuple(v)), ctx.h_bob, spec.n_sites)
                for v in n]
        assert np.allclose(forms.defect(n), want, rtol=0, atol=TIGHT)


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


def test_haar_session_without_usable_axis_raises():
    # at zero coupling the ground state is a product: eta vanishes on every axis
    config = SessionConfig(model="chain3", coupling=0.0, rounds=4, verify_bits=0,
                           basis_policy="haar", epsilon=1e-3, seed=0)
    with pytest.raises(DegenerateObjectiveError):
        run_session(config)


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
