import tracemalloc

import numpy as np
import pytest

from qetkd.errors import (
    CompletenessViolationError,
    DegenerateGroundError,
    SupportViolationError,
)
from qetkd.models import ALICE, HamiltonianSpec, Partition, build_model, chain3, \
    first_excited_levels, star
import qetkd.noise as noise
import qetkd.qkd as qkd
from qetkd.noise import (
    NoiseSpec,
    default_chain_coupling,
    kraus_state,
    mix_state,
    noisy_input_state,
    report_csv_rows,
    threshold_scan,
)
from qetkd.protocol import MeasurementBasis, ensemble_for_state, prepare, receiver_forms, \
    run_ensemble
from qetkd.spinops import require_density_matrix, term
from qetkd.tolerances import TOL

import oracles


def noisy_run(ctx, noise):
    """The protocol on the input ``noise`` makes of the resource state."""
    return ensemble_for_state(ctx, *noisy_input_state(ctx, noise))


@pytest.fixture(scope="module")
def ctx_unit():
    return prepare(*chain3(1.0), MeasurementBasis.x(0))


@pytest.fixture(scope="module")
def ctx_default():
    return prepare(*chain3(default_chain_coupling()), MeasurementBasis.x(0))


@pytest.fixture(scope="module")
def star_ctx():
    spec, part = star(2, 1.0)
    return prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")


class TestClassicalFlip:
    def test_zero_probability_is_noiseless(self, ctx_unit):
        assert noisy_run(ctx_unit, NoiseSpec("classical_flip", 0.0)).e_bob == \
               pytest.approx(run_ensemble(ctx_unit).e_bob, abs=1e-14)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    def test_linear_in_the_two_branches(self, ctx_unit, p):
        clean = run_ensemble(ctx_unit).e_bob
        flipped = run_ensemble(prepare(*chain3(1.0), MeasurementBasis.x(0), bit_map="flip")).e_bob
        assert noisy_run(ctx_unit, NoiseSpec("classical_flip", p)).e_bob == \
               pytest.approx((1 - p) * clean + p * flipped, abs=1e-10)

    def test_half_probability_value(self, ctx_unit):
        # at p = 1/2 the cross term cancels, leaving xi sin^2(theta) >= 0
        tp = ctx_unit.theta
        expected = tp.xi * np.sin(tp.theta) ** 2
        at_half = noisy_run(ctx_unit, NoiseSpec("classical_flip", 0.5)).e_bob
        assert at_half == pytest.approx(expected, abs=1e-10)
        assert at_half >= 0

    def test_sender_energy_unaffected(self, ctx_unit):
        clean = run_ensemble(ctx_unit).e_alice
        assert noisy_run(ctx_unit, NoiseSpec("classical_flip", 0.4)).e_alice == \
               pytest.approx(clean, abs=1e-12)

    def test_scan_reads_the_ground_state_vector(self):
        # Both branches are the ground-state vector: a classical scan never
        # builds the d x d resource density matrix.
        spec, part = star(2, 1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        report = threshold_scan(ctx, "classical_flip", np.linspace(0, 1, 41))
        assert report.crossing is not None
        assert "rho_gs" not in ctx.__dict__

    def test_star_threshold_near_quarter(self, star_ctx):
        report = threshold_scan(star_ctx, "classical_flip", np.linspace(0, 1, 41))
        assert report.crossing is not None
        assert 0.22 <= report.crossing <= 0.28


class TestMixState:
    def test_endpoints(self, ctx_unit):
        sigma = np.eye(8) / 8
        assert np.allclose(mix_state(ctx_unit.rho_gs, sigma, 0.0), ctx_unit.rho_gs)
        assert np.allclose(mix_state(ctx_unit.rho_gs, sigma, 1.0), sigma)

    def test_convexity_preserves_validity(self, ctx_unit):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            sigma = a @ a.conj().T
            sigma /= np.trace(sigma).real
            p = rng.uniform()
            require_density_matrix(mix_state(ctx_unit.rho_gs, sigma, p))

    def test_invalid_noise_state_rejected(self, ctx_unit):
        with pytest.raises(ValueError):
            mix_state(ctx_unit.rho_gs, np.eye(8), 0.5)  # trace 8, not a state
        with pytest.raises(ValueError):
            mix_state(ctx_unit.rho_gs, np.eye(4) / 4, 0.5)  # wrong dimension


class TestDepolarize:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_exact_scaling_of_both_energies(self, ctx_unit, p):
        clean = run_ensemble(ctx_unit)
        noisy = noisy_run(ctx_unit, NoiseSpec("depolarize", p))
        assert noisy.e_bob == pytest.approx((1 - p) * clean.e_bob, abs=1e-10)
        assert noisy.e_alice == pytest.approx((1 - p) * clean.e_alice, abs=1e-10)

    def test_full_depolarization_kills_both(self, ctx_unit):
        out = noisy_run(ctx_unit, NoiseSpec("depolarize", 1.0))
        assert out.e_bob == pytest.approx(0.0, abs=1e-12)
        assert out.e_alice == pytest.approx(0.0, abs=1e-12)

    def test_sign_never_changes(self, ctx_unit):
        clean_sign = np.sign(run_ensemble(ctx_unit).e_bob)
        for p in np.linspace(0.0, 0.99, 12):
            assert np.sign(noisy_run(ctx_unit, NoiseSpec("depolarize", p)).e_bob) == clean_sign

    def test_no_crossing_reported(self, ctx_unit):
        report = threshold_scan(ctx_unit, "depolarize", np.linspace(0, 0.99, 21))
        assert report.crossing is None
        assert report.crossings == ()


class TestExcitedStates:
    def test_zero_probability_noiseless(self, ctx_default):
        clean = run_ensemble(ctx_default).e_bob
        assert noisy_run(ctx_default, NoiseSpec("excited_mixture", 0.0)).e_bob == \
               pytest.approx(clean, abs=1e-12)
        assert noisy_run(ctx_default, NoiseSpec("excited_superposition", 0.0)).e_bob == \
               pytest.approx(clean, abs=1e-12)

    def test_mixture_threshold_at_operating_point(self, ctx_default):
        report = threshold_scan(ctx_default, "excited_mixture", np.linspace(0, 1, 21))
        assert report.crossing is not None
        assert 0.15 <= report.crossing <= 0.30

    def test_superposition_threshold_at_operating_point(self, ctx_default):
        report = threshold_scan(ctx_default, "excited_superposition",
                                np.linspace(0, 1, 21))
        assert report.crossing is not None
        assert 0.15 <= report.crossing <= 0.30

    def test_mixture_decomposes_convexly(self, ctx_default):
        # E(p) = (1-p) E[clean branch] + p E[excited branch], exactly
        e0 = noisy_run(ctx_default, NoiseSpec("excited_mixture", 0.0)).e_bob
        e1 = noisy_run(ctx_default, NoiseSpec("excited_mixture", 1.0)).e_bob
        for p in (0.2, 0.6):
            assert noisy_run(ctx_default, NoiseSpec("excited_mixture", p)).e_bob == \
                   pytest.approx((1 - p) * e0 + p * e1, abs=1e-10)

    def test_phase_independence_recorded_bound(self, ctx_default):
        # oracle sweep found no measurable alpha dependence for this model
        base = noisy_run(ctx_default, NoiseSpec("excited_superposition", 0.1, alpha=0.0)).e_bob
        worst = max(
            abs(noisy_run(ctx_default, NoiseSpec("excited_superposition", 0.1, alpha=a)).e_bob
                - base)
            for a in np.arange(8) * np.pi / 4
        )
        assert worst <= 1e-12
        assert worst <= 0.05 * abs(base)

    def test_sender_energy_linear_in_mixing(self, ctx_default):
        probs = np.linspace(0.0, 0.5, 6)
        energies = [noisy_run(ctx_default, NoiseSpec("excited_superposition", p)).e_alice
                    for p in probs]
        slope = (energies[-1] - energies[0]) / (probs[-1] - probs[0])
        for p, e in zip(probs, energies):
            assert e == pytest.approx(energies[0] + slope * p, abs=1e-10)

    def test_fully_excited_energy_decreases_with_coupling(self):
        values = []
        for j in (2.0, 3.0, 4.0, 5.0):
            ctx = prepare(*chain3(j), MeasurementBasis.x(0))
            values.append(noisy_run(ctx, NoiseSpec("excited_mixture", 1.0)).e_bob)
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_degenerate_excited_level_uses_uniform_mixture(self):
        # at J = 0 the first excited level is three-fold degenerate
        ctx = prepare(*chain3(0.0), MeasurementBasis.x(0))
        out = noisy_run(ctx, NoiseSpec("excited_mixture", 1.0))
        assert np.isfinite(out.e_bob)
        spec, _ = chain3(0.0)
        evals = np.linalg.eigvalsh(oracles.terms_matrix(spec.terms, spec.n_sites))
        assert np.sum(np.abs(evals - evals[1]) < 1e-9) == 3


    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_degenerate_excited_cluster_found_at_scale(self, scale):
        # three identical, decoupled qubits: the first excited level is
        # exactly three-fold degenerate; at 1e6 the solver splits it by
        # up to ~1e-9, which the scale-aware rule still groups
        from qetkd.spinops import term
        terms = tuple(term(scale * c, (k, a))
                      for k in range(3) for c, a in ((0.6, "X"), (0.8, "Z")))
        spec = HamiltonianSpec("free3", 3, terms)
        partition = Partition({"A": terms[0:2], "buffer": terms[2:4], "B": terms[4:6]})
        ctx = prepare(spec, partition, MeasurementBasis.x(0),
                      bob_axis=MeasurementBasis.y(2))
        columns = spec.spectrum.vectors(first_excited_levels(spec))
        rho = columns @ columns.conj().T / columns.shape[1]
        h = sum(scale * (0.6 * oracles.embed("X", k, 3) + 0.8 * oracles.embed("Z", k, 3))
                for k in range(3))
        level = np.linalg.eigh(h)[1][:, 1:4]
        assert np.allclose(rho, level @ level.conj().T / 3, atol=1e-9)
        # the session input is that mixture's marginal on the receiver's support
        marginal, _ = noisy_input_state(ctx, NoiseSpec(kind="excited_mixture", p=1.0))
        assert ctx.forms.support == (0, 2)
        assert np.allclose(marginal, oracles.partial_trace(rho, [0, 2]), atol=1e-9)


class TestPauliFlips:
    def test_sender_site_bit_flip_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit).e_bob
        for p in np.linspace(0.0, 1.0, 11):
            assert noisy_run(ctx_unit, NoiseSpec("bit_flip", p, site=0)).e_bob == \
                   pytest.approx(clean, abs=1e-10)

    def test_receiver_site_bit_flip_small_threshold(self, ctx_default):
        report = threshold_scan(ctx_default, "bit_flip",
                                np.linspace(0, 0.2, 21), site=2)
        assert report.crossing is not None
        assert report.crossing < 0.05

    def test_receiver_site_phase_flip_degrades(self, ctx_default):
        clean = run_ensemble(ctx_default).e_bob
        drift = abs(noisy_run(ctx_default, NoiseSpec("phase_flip", 0.5, site=2)).e_bob - clean)
        assert drift > 1e-3

    def test_receiver_site_flip_thresholds_compared(self, ctx_default):
        # X at the receiver crosses early; Z degrades the energy without
        # crossing zero at this operating point (recorded for comparison)
        x_scan = threshold_scan(ctx_default, "bit_flip",
                                np.linspace(0, 1, 21), site=2)
        z_scan = threshold_scan(ctx_default, "phase_flip",
                                np.linspace(0, 1, 21), site=2)
        assert x_scan.crossing is not None and x_scan.crossing < 0.05
        assert z_scan.crossing is None
        assert max(abs(e - z_scan.e_bob[0]) for e in z_scan.e_bob) > 1e-3

    def test_sender_site_phase_flip_equals_classical_flip(self, ctx_unit):
        # Z at the sender site anti-commutes with her X projector, so the
        # noisy branch is exactly the wrong-bit branch.
        for p in (0.1, 0.3):
            assert noisy_run(ctx_unit, NoiseSpec("phase_flip", p, site=0)).e_bob == \
                   pytest.approx(noisy_run(ctx_unit, NoiseSpec("classical_flip", p)).e_bob,
                                 abs=1e-10)

    def test_bad_axis_rejected(self, ctx_unit):
        with pytest.raises(ValueError):
            noisy_run(ctx_unit, NoiseSpec("y_flip", 0.1, site=0))


class TestLocalKraus:
    def test_commuting_buffer_channel_is_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit)
        ops = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SX]
        sigma, check = kraus_state(ctx_unit, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops))
        out = ensemble_for_state(ctx_unit, sigma)
        assert check.commutes
        assert out.e_bob == pytest.approx(clean.e_bob, abs=1e-10)
        assert out.e_alice == pytest.approx(clean.e_alice, abs=1e-10)

    def test_identity_channel_trivially_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit)
        sigma, check = kraus_state(ctx_unit,
                                   NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=[np.eye(2)]))
        out = ensemble_for_state(ctx_unit, sigma)
        assert check.commutes
        assert out.e_bob == pytest.approx(clean.e_bob, abs=1e-12)

    def test_dephasing_buffer_channel_violates_precondition(self, ctx_unit):
        # Z on the buffer fails to commute with the receiver part; the
        # violation is reported, never silently ignored, and the energy
        # genuinely moves.
        clean = run_ensemble(ctx_unit).e_bob
        ops = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SZ]
        sigma, check = kraus_state(ctx_unit, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops))
        out = ensemble_for_state(ctx_unit, sigma)
        assert not check.commutes
        assert check.max_defect > 1.0
        assert abs(out.e_bob - clean) > 1e-3

    def test_amplitude_damping_style_pair_reports_violation(self, ctx_unit):
        gamma = 0.3
        ops = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
               np.array([[0, np.sqrt(gamma)], [0, 0]])]
        _, check = kraus_state(ctx_unit, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops))
        assert not check.commutes  # receiver part contains an X1 factor

    def test_completeness_violation_raises(self, ctx_unit):
        with pytest.raises(CompletenessViolationError):
            kraus_state(ctx_unit,
                        NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=[0.5 * np.eye(2)]))

    @pytest.mark.parametrize("site", [0, 2])
    def test_party_site_raises_support_violation(self, ctx_unit, site):
        with pytest.raises(SupportViolationError):
            kraus_state(ctx_unit, NoiseSpec("local_kraus", 0.0, site=site, kraus_ops=[np.eye(2)]))

    def test_noisy_input_skips_the_locality_check(self, ctx_unit, monkeypatch):
        # The dense commutators are the KrausCheck; a session input that
        # only needs the channel output must not build them.
        calls = []

        def counted(a, b):
            calls.append(1)
            return a @ b - b @ a

        monkeypatch.setattr(noise, "commutator", counted)
        ops = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SX)
        spec = NoiseSpec(kind="local_kraus", p=0.0, site=1, kraus_ops=ops)
        rho, _ = noisy_input_state(ctx_unit, spec)
        assert calls == []
        _, check = kraus_state(ctx_unit, spec)
        assert len(calls) == 4 * len(ops) and check.commutes
        np.testing.assert_allclose(rho, kraus_state(ctx_unit, spec)[0], rtol=0, atol=0)


DEPHASING = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SZ)
BIT_FLIP = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SX)
AMPLITUDE_DAMPING = (np.array([[1, 0], [0, np.sqrt(0.7)]]), np.array([[0, np.sqrt(0.3)], [0, 0]]))


def dense_kraus_defects(ctx, site, ops):
    """Each Kraus operator's largest commutator norm with H_A, H_B and P(b),
    from Kronecker products on the whole register."""
    n = ctx.n_sites
    h_a, h_b = (oracles.terms_matrix(ctx.partition.parts[label], n)
                for label in (ALICE, ctx.bob_label))
    n_sigma = sum(v * oracles.embed(axis, ctx.alice.site, n)
                  for v, axis in zip(ctx.alice.vector, "XYZ"))
    projectors = [0.5 * (np.eye(2 ** n) - (-1.0) ** b * n_sigma) for b in (0, 1)]
    defects = []
    for op in ops:
        k = oracles.embed_op(op, site, n)
        defects.append(max(np.linalg.norm(k @ m - m @ k) for m in (h_a, h_b, *projectors)))
    return defects


@pytest.fixture(scope="module")
def ctx_spectator():
    """chain3 at J = 1 plus a decoupled fourth site, Z3, in a part of its own:
    the Kraus support {0, 1, 2} is then smaller than the register."""
    spec, part = chain3(1.0)
    extra = term(1.0, (3, "Z"))
    spec = HamiltonianSpec("chain3+1", 4, spec.terms + (extra,))
    part = Partition({**part.parts, "spectator": (extra,)})
    return prepare(spec, part, MeasurementBasis.x(0))


@pytest.fixture(scope="module")
def ctx_wide_sender():
    """chain3 at J = 1 with the buffer terms in the sender's part, so a
    buffer X commutes with H_B and P(b) and fails only against H_A."""
    spec, part = chain3(1.0)
    wide = part.parts["A"] + part.parts["buffer"]
    return prepare(spec, Partition({"A": wide, "B": part.parts["B"]}), MeasurementBasis.x(0))


class TestKrausCheckAgainstOracle:
    @pytest.mark.parametrize("context,ops", [
        ("ctx_unit", DEPHASING), ("ctx_unit", AMPLITUDE_DAMPING),
        ("ctx_spectator", DEPHASING), ("ctx_spectator", AMPLITUDE_DAMPING),
        ("ctx_wide_sender", BIT_FLIP),
    ], ids=["dephasing", "damping", "spectator-dephasing", "spectator-damping",
            "wide-sender-bitflip"])
    def test_chain3_buffer_site(self, context, ops, request):
        ctx = request.getfixturevalue(context)
        _, check = kraus_state(ctx, NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=ops))
        want = dense_kraus_defects(ctx, 1, ops)
        assert max(want) > 0.1  # the buffer channel is not local
        np.testing.assert_allclose(list(check.defects.values()), want, rtol=0, atol=1e-12)
        assert check.max_defect == max(check.defects.values())
        assert not check.commutes

    @pytest.mark.parametrize("ops", [DEPHASING, AMPLITUDE_DAMPING], ids=["dephasing", "damping"])
    def test_star_bystander_site(self, ops):
        spec, part = star(4, 1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        _, check = kraus_state(ctx, NoiseSpec("local_kraus", 0.0, site=3, kraus_ops=ops))
        want = dense_kraus_defects(ctx, 3, ops)
        assert max(want) == 0.0
        np.testing.assert_allclose(list(check.defects.values()), want, rtol=0, atol=1e-12)
        assert check.commutes

    def test_star9_off_support_site_builds_no_commutator(self, monkeypatch):
        # the receiver's support S holds the sender site and every site of
        # H_A and H_B, so a Kraus site off S commutes with all of them
        spec, part = star(9, 1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        calls = []

        def recorded(a, b):
            calls.append(1)
            return a @ b - b @ a

        monkeypatch.setattr(noise, "commutator", recorded)
        assert 5 not in ctx.forms.support
        _, check = kraus_state(
            ctx, NoiseSpec("local_kraus", 0.0, site=5, kraus_ops=AMPLITUDE_DAMPING))
        assert calls == []
        assert check.defects == {"K0": 0.0, "K1": 0.0}
        assert check.max_defect == 0.0 and check.commutes

    def test_commutators_stay_on_the_support(self, ctx_spectator, monkeypatch):
        shapes = []

        def recorded(a, b):
            shapes.extend((a.shape, b.shape))
            return a @ b - b @ a

        monkeypatch.setattr(noise, "commutator", recorded)
        kraus_state(ctx_spectator,
                    NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=AMPLITUDE_DAMPING))
        assert len(shapes) == 2 * 4 * len(AMPLITUDE_DAMPING)
        width = 2 ** len(ctx_spectator.forms.support)
        assert set(shapes) == {(width, width)} and width < 2 ** ctx_spectator.n_sites


class TestChannelsOnTheMarginal:
    """Flip and Kraus branches are the channel on the ground marginal g."""

    @pytest.fixture(scope="class")
    def star6(self):
        spec, part = star(6, 1.0)
        return prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")

    def test_site_outside_register_refused(self, ctx_unit):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="site 7"):
            threshold_scan(ctx_unit, "bit_flip", grid, site=7)
        with pytest.raises(ValueError, match="site 7"):
            threshold_scan(ctx_unit, "local_kraus", grid, site=7, kraus_ops=AMPLITUDE_DAMPING)
        with pytest.raises(ValueError, match="site 7"):
            kraus_state(ctx_unit, NoiseSpec("local_kraus", 0.0, site=7,
                                            kraus_ops=AMPLITUDE_DAMPING))

    @pytest.mark.parametrize("site", [3, 4])
    @pytest.mark.parametrize("kind", ["bit_flip", "phase_flip"])
    def test_bystander_flip_leaves_the_ground_marginal(self, star6, kind, site):
        assert site not in star6.forms.support
        (g, _), (flipped, _) = noise.noise_branches(star6, NoiseSpec(kind, 0.3, site=site))[0]
        assert flipped is g
        rho, _ = noisy_input_state(star6, NoiseSpec(kind, 0.3, site=site))
        np.testing.assert_array_equal(rho, star6.ground)

    @pytest.mark.parametrize("site", [3, 4])
    def test_off_support_kraus_leaves_the_ground_marginal(self, star6, site):
        spec = NoiseSpec("local_kraus", 0.0, site=site, kraus_ops=DEPHASING)
        sigma, check = kraus_state(star6, spec)
        np.testing.assert_array_equal(sigma, star6.ground)
        assert check.defects == {"K0": 0.0, "K1": 0.0} and check.max_defect == 0.0
        ((state, _),), _ = noise.noise_branches(star6, spec)
        np.testing.assert_array_equal(state, sigma)

    def test_flip_on_the_support_matches_the_register(self, ctx_spectator):
        # a flip at a site of S conjugates the marginal: the dense X_1 rho X_1, reduced
        ctx = ctx_spectator
        x1 = oracles.embed_op(oracles.SX, 1, ctx.n_sites)
        rho = np.outer(ctx.gs, ctx.gs.conj())
        want = oracles.partial_trace(x1 @ rho @ x1, ctx.forms.support)
        _, (flipped, _) = noise.noise_branches(ctx, NoiseSpec("bit_flip", 0.0, site=1))[0]
        assert ctx.forms.support == (0, 1, 2)
        np.testing.assert_allclose(flipped, want, rtol=0, atol=1e-15)


class TestThresholdScan:
    def test_classical_crossing_matches_closed_form(self):
        # classical flip crossing solves (1-p) E_id + p E_flip = 0, i.e.
        # p* = |.| / (2 (|.| + xi)); the scan must land on it to rounding
        contexts = [prepare(*chain3(j), MeasurementBasis.x(0)) for j in (0.8, 1.0, 2.0)]
        contexts.append(prepare(*star(2, 1.0), MeasurementBasis.x(0), bob_label="B1"))
        for ctx in contexts:
            tp = ctx.theta
            analytic = tp.magnitude / (2 * (tp.magnitude + tp.xi))
            report = threshold_scan(ctx, "classical_flip", np.linspace(0, 1, 21))
            assert report.crossing == pytest.approx(analytic, abs=1e-12)

    def test_curve_lengths_match_grid(self, ctx_unit):
        grid = np.linspace(0, 1, 11)
        report = threshold_scan(ctx_unit, "classical_flip", grid)
        assert len(report.e_bob) == len(grid) == len(report.e_alice)

    def test_csv_rows_format(self, ctx_unit):
        report = threshold_scan(ctx_unit, "classical_flip", np.linspace(0, 1, 5))
        rows = report_csv_rows(report, 1.0)
        assert len(rows) == 5
        family, j, p, ea, eb = rows[0].split(",")
        assert family == "classical_flip"
        assert float(j) == 1.0
        assert float(p) == 0.0
        float(ea), float(eb)  # parse back

    def test_unknown_family_rejected(self, ctx_unit):
        with pytest.raises(ValueError):
            threshold_scan(ctx_unit, "gremlins", np.linspace(0, 1, 5))

    @pytest.mark.parametrize("family, kwargs", [("classical_flip", {}),
                                                ("bit_flip", {"site": 2})])
    def test_descending_grid_finds_the_same_crossing(self, ctx_unit, family, kwargs):
        # the bracket (grid[i], grid[j]) of a descending grid has hi < lo
        grid = np.linspace(0, 1, 21)
        up = threshold_scan(ctx_unit, family, grid, **kwargs)
        down = threshold_scan(ctx_unit, family, grid[::-1], **kwargs)
        assert up.crossing is not None and down.crossing is not None
        assert down.crossing == up.crossing
        assert down.e_bob == up.e_bob[::-1]

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_grid_point_outside_unit_interval_rejected(self, ctx_unit, bad):
        with pytest.raises(ValueError, match="probability must be in"):
            threshold_scan(ctx_unit, "classical_flip", np.array([0.0, bad, 1.0]))


class TestChannelValidity:
    @pytest.mark.parametrize("noise", [
        NoiseSpec(kind="depolarize", p=0.4),
        NoiseSpec(kind="bit_flip", p=0.3, site=1),
        NoiseSpec(kind="phase_flip", p=0.7, site=2),
        NoiseSpec(kind="excited_mixture", p=0.25),
        NoiseSpec(kind="excited_superposition", p=0.25, alpha=0.9),
        NoiseSpec(kind="local_kraus", p=0.0, site=1,
                  kraus_ops=(np.sqrt(0.8) * np.eye(2),
                             np.sqrt(0.2) * np.array([[0, 1], [1, 0]]))),
    ])
    def test_every_family_outputs_a_state(self, ctx_unit, noise):
        from qetkd.noise import noisy_input_state
        rho, _ = noisy_input_state(ctx_unit, noise)
        require_density_matrix(rho)

    @pytest.mark.parametrize("axis,site", [("X", 0), ("X", 2), ("Z", 0), ("Z", 2)])
    def test_flip_families_decompose_convexly(self, ctx_unit, axis, site):
        def energy(p):
            kind = {"X": "bit_flip", "Z": "phase_flip"}[axis]
            return noisy_run(ctx_unit, NoiseSpec(kind, p, site=site)).e_bob

        e0, e1 = energy(0.0), energy(1.0)
        for p in (0.25, 0.5, 0.75):
            assert energy(p) == pytest.approx((1 - p) * e0 + p * e1, abs=1e-10)


class TestNoiseSpec:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="depolarize", p=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(kind="depolarize", p=-0.1)

    def test_flip_requires_site(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="bit_flip", p=0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            NoiseSpec("excited_superposition", 0.1, alpha=alpha)

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="local_kraus", p=0.0, site=1,
                      kraus_ops=(0.5 * np.eye(2),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="thermal", p=0.1)

    def test_kraus_operator_must_be_single_site(self):
        with pytest.raises(SupportViolationError):
            NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=(np.eye(4),))

    def test_kraus_errors_are_value_errors(self):
        with pytest.raises(CompletenessViolationError):
            NoiseSpec("local_kraus", 0.0, site=1, kraus_ops=(0.5 * np.eye(2),))
        assert issubclass(CompletenessViolationError, ValueError)
        assert issubclass(SupportViolationError, ValueError)

    def test_kraus_at_another_receivers_site_refused(self):
        # star N=2: sites 1 and 2 are the receivers B1 and B2; folding a
        # channel at site 2 for B2's support is refused, though B1's is not
        spec, part, labels = build_model("star", 1.0, n_parties=2)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label=labels[0])
        forms_b2 = receiver_forms(spec, part, ctx.alice.site, labels[1])
        kraus = NoiseSpec("local_kraus", 0.0, site=2, kraus_ops=(np.eye(2),))
        noisy_input_state(ctx, kraus)
        with pytest.raises(SupportViolationError):
            noisy_input_state(ctx, kraus, forms_b2)


class TestDefaultCoupling:
    def test_minimizes_random_basis_energy(self):
        j_star = default_chain_coupling()
        assert 2.5 < j_star < 2.9  # located by an independent scan

        def random_basis_energy(j):
            from qetkd.protocol import run_ensemble_random_basis
            spec, part = chain3(j)
            return run_ensemble_random_basis(
                spec, part,
                [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)]).e_bob

        center = random_basis_energy(j_star)
        assert center <= random_basis_energy(j_star + 0.05) + 1e-12
        assert center <= random_basis_energy(j_star - 0.05) + 1e-12

    def test_excited_pre_degenerate_with_ground_raises(self):
        # an exactly flat model has no unique first excited level
        from qetkd.spinops import term
        spec = HamiltonianSpec("flat3", 3, (term(1.0, (0, "X"), (1, "X")),))
        partition = Partition({
            "A": (term(1.0, (0, "X"), (1, "X")),),
            "B": (),
        })
        with pytest.raises(DegenerateGroundError):
            prepare(spec, partition, MeasurementBasis.x(0))


class TestNoisyInputsAgainstOracle:
    """Noisy inputs built site-locally, then evolved, against dense evolution."""

    AMPLITUDE_DAMPING = (np.array([[1, 0], [0, np.sqrt(0.7)]], dtype=complex),
                         np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex))

    def _oracle_input(self, data, kind):
        rho = data["rho"]
        if kind == "depolarize":
            return 0.6 * rho + 0.4 * np.eye(8) / 8
        if kind == "bit_flip":
            x2 = oracles.embed("X", 2, 3)
            return 0.7 * rho + 0.3 * x2 @ rho @ x2
        ks = [oracles.embed_op(k, 1, 3) for k in self.AMPLITUDE_DAMPING]
        return sum(k @ rho @ k.conj().T for k in ks)

    @pytest.mark.parametrize("kind", ["depolarize", "bit_flip", "local_kraus"])
    @pytest.mark.parametrize("bit_map", ["identity", "flip"])
    def test_ensemble_matches_protocol_energies(self, ctx_unit, kind, bit_map):
        from qetkd.noise import noisy_input_state
        from qetkd.protocol import ensemble_for_state

        data = oracles.chain3_standard(1.0)
        noise = {
            "depolarize": NoiseSpec(kind="depolarize", p=0.4),
            "bit_flip": NoiseSpec(kind="bit_flip", p=0.3, site=2),
            "local_kraus": NoiseSpec(kind="local_kraus", p=0.0, site=1,
                                     kraus_ops=self.AMPLITUDE_DAMPING),
        }[kind]
        rho_in, _ = noisy_input_state(ctx_unit, noise)
        want_rho = self._oracle_input(data, kind)
        assert np.allclose(rho_in, want_rho, atol=1e-12)

        ctx = prepare(*chain3(1.0), MeasurementBasis.x(0), bit_map=bit_map)
        out = ensemble_for_state(ctx, rho_in)
        e_a, e_b, per = oracles.protocol_energies(
            data["h_a"], data["h_b"], want_rho, data["sigma_a"], data["sigma_b"],
            data["theta"], flip=bit_map == "flip")
        assert out.e_alice == pytest.approx(e_a, abs=1e-12)
        assert out.e_bob == pytest.approx(e_b, abs=1e-12)
        for b in (0, 1):
            assert out.per_outcome[b][0] == pytest.approx(per[b][0], abs=1e-12)
            assert out.per_outcome[b][1] == pytest.approx(per[b][1], abs=1e-12)


class TestLargestRegister:
    """At 12 sites (star N=11), once the ground state exists, no noise path
    holds a register-sized array: one complex 4096 x 4096 matrix is 268 MB,
    and every traced peak below stays under 8 MB."""

    PEAK = 8_000_000

    @pytest.fixture(scope="class")
    def star11(self):
        spec, part, labels = build_model("star", 1.0, n_parties=11)
        return spec, part, labels, prepare(spec, part, MeasurementBasis.x(0),
                                           bob_label=labels[0])

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("family, kwargs", [
        ("classical_flip", {}),
        ("depolarize", {}),
        ("bit_flip", {"site": 5}),
        ("phase_flip", {"site": 1}),
        ("excited_mixture", {}),
        ("excited_superposition", {"alpha": 0.7}),
        ("local_kraus", {"site": 5, "kraus_ops": AMPLITUDE_DAMPING}),  # a bystander
    ])
    def test_threshold_scan_stays_on_the_support(self, star11, family, kwargs):
        ctx = star11[3]
        peak = self.traced_peak(
            lambda: threshold_scan(ctx, family, np.linspace(0.0, 1.0, 101), **kwargs))
        assert peak < self.PEAK

    def test_noisy_session_stays_on_the_support(self, star11, monkeypatch):
        # the session is handed the solved model, so only its own path is traced
        monkeypatch.setattr(qkd, "build_model", lambda *args, **kwargs: star11[:3])
        config = qkd.SessionConfig(model="star", coupling=1.0, n_parties=11, rounds=4096,
                                   noise=NoiseSpec("bit_flip", 0.01, site=5))
        assert self.traced_peak(lambda: qkd.run_session(config)) < self.PEAK
