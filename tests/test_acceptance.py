"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements alongside the pass/fail verdicts.
"""

import time

import numpy as np
import pytest

from qetkd.adversary import (
    bob_reference_state,
    eve_independent,
    eve_postselect,
    split_attack,
)
from qetkd.errors import CompletenessViolationError, SupportViolationError
from qetkd.models import chain3, star, two_site, two_site_partition_standard, \
    two_site_shift_constants
from qetkd.noise import (
    NoiseSpec,
    default_chain_coupling,
    kraus_state,
    noisy_input_state,
    threshold_scan,
)
from qetkd.protocol import MeasurementBasis, ensemble_for_state, prepare, run_ensemble, \
    run_rounds
from qetkd.qkd import SessionConfig, run_multiparty
from qetkd.spinops import frobenius

import oracles


def noisy_run(ctx, noise):
    """The protocol on the input ``noise`` makes of the resource state."""
    return ensemble_for_state(ctx, *noisy_input_state(ctx, noise))


def verdict(n, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    return ok


def test_criterion_01_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for j in np.arange(0.25, 3.001, 0.25):
        spec, part = chain3(float(j))
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        simulated = run_ensemble(ctx).e_bob
        closed = ctx.theta.optimal_energy()
        worst = max(worst, abs(simulated - closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert verdict(1, ok,
                   f"max |simulated - closed form| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sign_contract():
    start = time.perf_counter()
    points = 0
    configs = []
    for j in np.linspace(0.25, 4.0, 16):
        configs.append(("chain3", float(j), MeasurementBasis.x(0), "B"))
        configs.append(("chain3", float(j), MeasurementBasis.y(0), "B"))
    for n_parties in (2, 3):
        for j in (0.5, 1.0, 2.0):
            configs.append((f"star{n_parties}", float(j), MeasurementBasis.x(0),
                            "B1"))
    rng = np.random.default_rng(2024)
    for _ in range(12):
        k, h = rng.uniform(0.3, 2.5, size=2)
        configs.append(("two-site", (float(k), float(h)), MeasurementBasis.x(0),
                        "B"))
    for model, param, basis, bob_label in configs:
        if model == "chain3":
            spec, part = chain3(param)
        elif model.startswith("star"):
            spec, part = star(int(model[-1]), param)
        else:
            k, h = param
            spec = two_site(k, h)
            part = two_site_partition_standard(k, h)
        ident = run_ensemble(prepare(spec, part, basis, bob_label=bob_label))
        flip = run_ensemble(prepare(spec, part, basis, bob_label=bob_label,
                                    bit_map="flip"))
        assert ident.e_alice > 0, (model, param)
        assert ident.e_bob < 0, (model, param)
        assert flip.e_bob > 0, (model, param)
        points += 1
    elapsed = time.perf_counter() - start
    ok = points >= 50 and elapsed < 5.0
    assert verdict(2, ok, f"{points} grid points, {elapsed:.2f}s")


def test_criterion_03_two_site_analytics():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        k, h = rng.uniform(0.3, 3.0, size=2)
        spec = two_site(k, h)
        part = two_site_partition_standard(k, h)
        brute = np.linalg.eigvalsh(oracles.two_site_matrix(k, h))[0]
        root = np.hypot(h, k)
        worst = max(worst, abs(brute - (-2 * root)))
        c1, c2 = two_site_shift_constants(k, h)
        worst = max(worst, abs(c1 - h * h / root), abs(c2 - 2 * k * k / root))
        # the paper's shifts are -<g|H_A|g> and -<g|H_B|g>
        _, gs = oracles.ground(oracles.two_site_matrix(k, h))
        for label, shift in (("A", c1), ("B", c1 + c2)):
            h_part = oracles.terms_matrix(part.parts[label], 2)
            worst = max(worst, abs(-oracles.expectation(gs, h_part) - shift))
        out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
        worst = max(worst, abs(out.e_alice - c1))
    ok = worst <= 1e-10
    assert verdict(3, ok, f"max deviation over 10 random couplings = {worst:.2e}")


@pytest.fixture(scope="module")
def star_threshold():
    spec, part = star(2, 1.0)
    ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
    report = threshold_scan(ctx, "classical_flip", np.linspace(0.0, 1.0, 41))
    return ctx, report


def test_criterion_04_classical_threshold_location(star_threshold):
    _, report = star_threshold
    ok = report.crossing is not None and abs(report.crossing - 0.25) <= 0.03
    assert verdict(4, ok, f"star N=2 J=1 crossing p* = {report.crossing:.4f}")


def test_criterion_04_sin_squared_identity(star_threshold):
    # The scanned crossing solves (1-p) E_id + p E_flip = 0 and lands at
    # |.| / (2 (|.| + xi)), not at sin^2(theta); the sin^2 identity would
    # require the flipped-rule energy to be (xi + |.|) / 2, which direct
    # density-matrix evolution contradicts.  Kept as stated; fails honestly.
    ctx, report = star_threshold
    tp = ctx.theta
    sin_sq = np.sin(tp.theta) ** 2
    honest = tp.magnitude / (2 * (tp.magnitude + tp.xi))
    ok = abs(report.crossing - sin_sq) <= 1e-6
    verdict("4b", ok,
            f"p* = {report.crossing:.6f}, sin^2(theta) = {sin_sq:.6f}, "
            f"|.|/(2(|.|+xi)) = {honest:.6f}")
    assert ok, (
        f"scanned crossing {report.crossing:.6f} matches |.|/(2(|.|+xi)) = "
        f"{honest:.6f}, not sin^2(theta) = {sin_sq:.6f}"
    )


def test_criterion_05_depolarization_law():
    ctx = prepare(*chain3(1.0), MeasurementBasis.x(0))
    clean = run_ensemble(ctx)
    worst = 0.0
    for p in np.arange(0.1, 0.91, 0.1):
        noisy = noisy_run(ctx, NoiseSpec("depolarize", float(p)))
        worst = max(worst, abs(noisy.e_alice / clean.e_alice - (1 - p)))
        worst = max(worst, abs(noisy.e_bob / clean.e_bob - (1 - p)))
        assert np.sign(noisy.e_bob) == np.sign(clean.e_bob)
        assert np.sign(noisy.e_alice) == np.sign(clean.e_alice)
    ok = worst <= 1e-10
    assert verdict(5, ok, f"max |ratio - (1-p)| = {worst:.2e}")


def test_criterion_06_excited_state_noise():
    # operating point: coupling minimizing E_B
    ctx = prepare(*chain3(default_chain_coupling()), MeasurementBasis.x(0))
    mix = threshold_scan(ctx, "excited_mixture", np.linspace(0, 1, 21))
    sup = threshold_scan(ctx, "excited_superposition", np.linspace(0, 1, 21))
    base = noisy_run(ctx, NoiseSpec("excited_superposition", 0.1, alpha=0.0)).e_bob
    alpha_dev = max(
        abs(noisy_run(ctx, NoiseSpec("excited_superposition", 0.1, alpha=float(a))).e_bob
            - base)
        for a in np.arange(8) * np.pi / 4
    )
    ok = (mix.crossing is not None and 0.15 <= mix.crossing <= 0.30
          and sup.crossing is not None and 0.15 <= sup.crossing <= 0.30
          and alpha_dev <= 0.05 * abs(base))
    assert verdict(6, ok,
                   f"mixture p* = {mix.crossing:.4f}, superposition p* = "
                   f"{sup.crossing:.4f}, alpha deviation = {alpha_dev:.2e}")


def test_criterion_07_flip_noise_asymmetry():
    ctx = prepare(*chain3(default_chain_coupling()), MeasurementBasis.x(0))
    clean = run_ensemble(ctx).e_bob
    sender_drift = max(
        abs(noisy_run(ctx, NoiseSpec("bit_flip", float(p), site=0)).e_bob - clean)
        for p in np.linspace(0, 1, 11)
    )
    receiver = threshold_scan(ctx, "bit_flip", np.linspace(0, 0.2, 21), site=2)
    z_sender = abs(noisy_run(ctx, NoiseSpec("phase_flip", 0.3, site=0)).e_bob - clean)
    z_receiver = abs(noisy_run(ctx, NoiseSpec("phase_flip", 0.3, site=2)).e_bob - clean)
    ok = (sender_drift <= 1e-10
          and receiver.crossing is not None and receiver.crossing < 0.05
          and z_sender > 1e-4 and z_receiver > 1e-4)
    assert verdict(7, ok,
                   f"sender X-flip drift = {sender_drift:.2e}, receiver X-flip "
                   f"p* = {receiver.crossing:.4f}, Z degradation = "
                   f"({z_sender:.2e}, {z_receiver:.2e})")


def test_criterion_08_local_kraus_invariance():
    ctx = prepare(*chain3(1.0), MeasurementBasis.x(0))
    clean = run_ensemble(ctx)
    ops_ok = [np.sqrt(0.6) * np.eye(2), np.sqrt(0.4) * oracles.SX]
    sigma, check = kraus_state(ctx, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops_ok))
    out = ensemble_for_state(ctx, sigma)
    drift = max(abs(out.e_bob - clean.e_bob), abs(out.e_alice - clean.e_alice))
    ops_bad = [np.sqrt(0.6) * np.eye(2), np.sqrt(0.4) * oracles.SZ]
    sigma_bad, check_bad = kraus_state(
        ctx, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops_bad))
    out_bad = ensemble_for_state(ctx, sigma_bad)
    completeness_raised = support_raised = False
    try:
        kraus_state(ctx, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=[0.3 * np.eye(2)]))
    except CompletenessViolationError:
        completeness_raised = True
    try:
        kraus_state(ctx, NoiseSpec("local_kraus", 0.0, site=0, kraus_ops=[np.eye(2)]))
    except SupportViolationError:
        support_raised = True
    ok = (check.commutes and drift <= 1e-10
          and not check_bad.commutes and check_bad.max_defect > 0
          and abs(out_bad.e_bob - clean.e_bob) > 1e-3
          and completeness_raised and support_raised)
    assert verdict(8, ok,
                   f"commuting drift = {drift:.2e}; violation defect = "
                   f"{check_bad.max_defect:.2f} reported, energy moved "
                   f"{abs(out_bad.e_bob - clean.e_bob):.2e}")


def test_criterion_09_adversary_suite():
    start = time.perf_counter()
    spec, part = chain3(1.0)
    ctx = prepare(spec, part, MeasurementBasis.x(0))
    gap = frobenius(eve_postselect(ctx, rounds=1000, seed=1).eve_state
                    - bob_reference_state(ctx))
    indep = eve_independent(ctx, rounds=10_000, seed=11)
    waits = split_attack(ctx, "eve_waits", rounds=10_000, seed=12)
    silent = split_attack(ctx, "eve_measures_first_silent", rounds=10_000, seed=13)
    sends = split_attack(ctx, "eve_measures_first_sends", rounds=10_000, seed=14)
    elapsed = time.perf_counter() - start
    ok = (gap <= 1e-12
          and abs(indep.key_match_rate_eve_bob - 0.5) <= 3 * indep.se_eve_bob
          and abs(waits.key_match_rate_eve_bob - 0.5) <= 3 * waits.se_eve_bob
          and abs(silent.key_match_rate_eve_bob - 0.5) <= 3 * silent.se_eve_bob
          and sends.detection == "double_message"
          and elapsed < 30.0)
    assert verdict(9, ok,
                   f"postselect gap = {gap:.1e}; eve-bob rates = "
                   f"{indep.key_match_rate_eve_bob:.4f}/"
                   f"{waits.key_match_rate_eve_bob:.4f}/"
                   f"{silent.key_match_rate_eve_bob:.4f}; "
                   f"double message fired; {elapsed:.1f}s")


def test_criterion_10_multiparty_cheat_detection():
    config = SessionConfig(model="star", coupling=1.0, n_parties=2,
                           rounds=200, verify_bits=0, seed=31)
    honest_result, honest_verdict = run_multiparty(config)
    unanimous = all(
        len({np.sign(honest_result.parties[lab].energies[r])
             for lab in honest_result.parties}) == 1
        for r in range(200)
    )
    cheat_result, cheat_verdict = run_multiparty(config, cheat_plan={"B2": "flip"})
    opposite = sum(
        np.sign(cheat_result.parties["B1"].energies[r])
        != np.sign(cheat_result.parties["B2"].energies[r])
        for r in range(200)
    )
    ok = (unanimous and honest_verdict.cheater is None
          and opposite == 200 and cheat_verdict.cheater == "B2")
    assert verdict(10, ok,
                   f"honest unanimous; victim dissents {opposite}/200 rounds, "
                   f"verdict = {cheat_verdict.cheater}")


def test_criterion_11_monte_carlo_consistency():
    spec, part = chain3(1.0)
    # A tilted sender axis splits the two conditional energies, so the
    # sampling carries genuine variance; the symmetric X axis is checked
    # too (its two conditionals coincide, making the mean exact).
    tilted = prepare(spec, part, MeasurementBasis(0, (0.6, 0.0, 0.8)),
                     bob_axis="optimal")
    ensemble = run_ensemble(tilted).e_bob
    _, energies = run_rounds(tilted, 100_000, seed=99)
    stderr = float(np.std(energies) / np.sqrt(len(energies)))
    gap = abs(float(np.mean(energies)) - ensemble)
    ok = stderr > 0 and gap <= 3 * stderr

    symmetric = prepare(spec, part, MeasurementBasis.x(0))
    _, sym_energies = run_rounds(symmetric, 100_000, seed=99)
    sym_gap = abs(float(np.mean(sym_energies)) - run_ensemble(symmetric).e_bob)
    ok = ok and sym_gap <= 1e-12
    assert verdict(11, ok,
                   f"|mean - ensemble| = {gap:.2e} vs 3 SE = {3 * stderr:.2e} "
                   f"at 1e5 rounds (symmetric-axis gap {sym_gap:.1e})")
