import numpy as np
import pytest

from qetkd.errors import (
    CompletenessViolationError,
    DegenerateGroundError,
    SupportViolationError,
)
from qetkd.models import chain3, star
import qetkd.noise as noise
from qetkd.noise import (
    NoiseSpec,
    apply_classical_flip,
    chain_context,
    default_chain_coupling,
    depolarize_run,
    excited_mixture_run,
    excited_superposition_run,
    local_kraus_run,
    mix_state,
    noisy_input_state,
    pauli_flip_run,
    report_csv_rows,
    threshold_scan,
)
from qetkd.protocol import MeasurementBasis, prepare, run_ensemble
from qetkd.spinops import require_density_matrix

import oracles


@pytest.fixture(scope="module")
def ctx_unit():
    return chain_context(1.0)


@pytest.fixture(scope="module")
def ctx_default():
    return chain_context()


@pytest.fixture(scope="module")
def star_ctx():
    spec, part = star(2, 1.0)
    return prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")


class TestClassicalFlip:
    def test_zero_probability_is_noiseless(self, ctx_unit):
        assert apply_classical_flip(ctx_unit, 0.0).e_bob == \
               pytest.approx(run_ensemble(ctx_unit).e_bob, abs=1e-14)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    def test_linear_in_the_two_branches(self, ctx_unit, p):
        clean = run_ensemble(ctx_unit).e_bob
        flipped = run_ensemble(chain_context(1.0, bit_map="flip")).e_bob
        assert apply_classical_flip(ctx_unit, p).e_bob == \
               pytest.approx((1 - p) * clean + p * flipped, abs=1e-10)

    def test_half_probability_value(self, ctx_unit):
        # at p = 1/2 the cross term cancels, leaving xi sin^2(theta) >= 0
        tp = ctx_unit.theta
        expected = tp.xi * np.sin(tp.theta) ** 2
        at_half = apply_classical_flip(ctx_unit, 0.5).e_bob
        assert at_half == pytest.approx(expected, abs=1e-10)
        assert at_half >= 0

    def test_sender_energy_unaffected(self, ctx_unit):
        clean = run_ensemble(ctx_unit).e_alice
        assert apply_classical_flip(ctx_unit, 0.4).e_alice == \
               pytest.approx(clean, abs=1e-12)

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
        noisy = depolarize_run(ctx_unit, p)
        assert noisy.e_bob == pytest.approx((1 - p) * clean.e_bob, abs=1e-10)
        assert noisy.e_alice == pytest.approx((1 - p) * clean.e_alice, abs=1e-10)

    def test_full_depolarization_kills_both(self, ctx_unit):
        out = depolarize_run(ctx_unit, 1.0)
        assert out.e_bob == pytest.approx(0.0, abs=1e-12)
        assert out.e_alice == pytest.approx(0.0, abs=1e-12)

    def test_sign_never_changes(self, ctx_unit):
        clean_sign = np.sign(run_ensemble(ctx_unit).e_bob)
        for p in np.linspace(0.0, 0.99, 12):
            assert np.sign(depolarize_run(ctx_unit, p).e_bob) == clean_sign

    def test_no_crossing_reported(self, ctx_unit):
        report = threshold_scan(ctx_unit, "depolarize", np.linspace(0, 0.99, 21))
        assert report.crossing is None
        assert report.crossings == ()


class TestExcitedStates:
    def test_zero_probability_noiseless(self, ctx_default):
        clean = run_ensemble(ctx_default).e_bob
        assert excited_mixture_run(ctx_default, 0.0).e_bob == \
               pytest.approx(clean, abs=1e-12)
        assert excited_superposition_run(ctx_default, 0.0).e_bob == \
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
        e0 = excited_mixture_run(ctx_default, 0.0).e_bob
        e1 = excited_mixture_run(ctx_default, 1.0).e_bob
        for p in (0.2, 0.6):
            assert excited_mixture_run(ctx_default, p).e_bob == \
                   pytest.approx((1 - p) * e0 + p * e1, abs=1e-10)

    def test_phase_independence_recorded_bound(self, ctx_default):
        # oracle sweep found no measurable alpha dependence for this model
        base = excited_superposition_run(ctx_default, 0.1, 0.0).e_bob
        worst = max(
            abs(excited_superposition_run(ctx_default, 0.1, a).e_bob - base)
            for a in np.arange(8) * np.pi / 4
        )
        assert worst <= 1e-12
        assert worst <= 0.05 * abs(base)

    def test_sender_energy_linear_in_mixing(self, ctx_default):
        probs = np.linspace(0.0, 0.5, 6)
        energies = [excited_superposition_run(ctx_default, p).e_alice for p in probs]
        slope = (energies[-1] - energies[0]) / (probs[-1] - probs[0])
        for p, e in zip(probs, energies):
            assert e == pytest.approx(energies[0] + slope * p, abs=1e-10)

    def test_fully_excited_energy_decreases_with_coupling(self):
        values = []
        for j in (2.0, 3.0, 4.0, 5.0):
            ctx = chain_context(j)
            values.append(excited_mixture_run(ctx, 1.0).e_bob)
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_degenerate_excited_level_uses_uniform_mixture(self):
        # at J = 0 the first excited level is three-fold degenerate
        ctx = chain_context(0.0)
        out = excited_mixture_run(ctx, 1.0)
        assert np.isfinite(out.e_bob)
        spec, _ = chain3(0.0)
        evals = np.linalg.eigvalsh(spec.matrix())
        assert np.sum(np.abs(evals - evals[1]) < 1e-9) == 3


    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_degenerate_excited_cluster_found_at_scale(self, scale):
        # three identical, decoupled qubits: the first excited level is
        # exactly three-fold degenerate; at 1e6 the solver splits it by
        # up to ~1e-9, which the scale-aware rule still groups
        from qetkd.models import HamiltonianSpec, Partition, PartitionPart
        from qetkd.noise import noisy_input_state
        from qetkd.spinops import term
        terms = tuple(term(scale * c, (k, a))
                      for k in range(3) for c, a in ((0.6, "X"), (0.8, "Z")))
        spec = HamiltonianSpec("free3", 3, terms)
        partition = Partition({"A": PartitionPart(terms[0:2], 0.0),
                               "buffer": PartitionPart(terms[2:4], 0.0),
                               "B": PartitionPart(terms[4:6], 0.0)})
        ctx = prepare(spec, partition, MeasurementBasis.x(0),
                      bob_axis=MeasurementBasis.y(2))
        rho, _ = noisy_input_state(ctx, NoiseSpec(kind="excited_mixture", p=1.0))
        h = sum(scale * (0.6 * oracles.embed("X", k, 3) + 0.8 * oracles.embed("Z", k, 3))
                for k in range(3))
        level = np.linalg.eigh(h)[1][:, 1:4]
        assert np.allclose(rho, level @ level.conj().T / 3, atol=1e-9)


class TestPauliFlips:
    def test_sender_site_bit_flip_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit).e_bob
        for p in np.linspace(0.0, 1.0, 11):
            assert pauli_flip_run(ctx_unit, "X", 0, p).e_bob == \
                   pytest.approx(clean, abs=1e-10)

    def test_receiver_site_bit_flip_small_threshold(self, ctx_default):
        report = threshold_scan(ctx_default, "bit_flip",
                                np.linspace(0, 0.2, 21), site=2)
        assert report.crossing is not None
        assert report.crossing < 0.05

    def test_receiver_site_phase_flip_degrades(self, ctx_default):
        clean = run_ensemble(ctx_default).e_bob
        drift = abs(pauli_flip_run(ctx_default, "Z", 2, 0.5).e_bob - clean)
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
            assert pauli_flip_run(ctx_unit, "Z", 0, p).e_bob == \
                   pytest.approx(apply_classical_flip(ctx_unit, p).e_bob, abs=1e-10)

    def test_bad_axis_rejected(self, ctx_unit):
        with pytest.raises(ValueError):
            pauli_flip_run(ctx_unit, "Y", 0, 0.1)


class TestLocalKraus:
    def test_commuting_buffer_channel_is_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit)
        ops = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SX]
        out, check = local_kraus_run(ctx_unit, 1, ops)
        assert check.commutes
        assert out.e_bob == pytest.approx(clean.e_bob, abs=1e-10)
        assert out.e_alice == pytest.approx(clean.e_alice, abs=1e-10)

    def test_identity_channel_trivially_invariant(self, ctx_unit):
        clean = run_ensemble(ctx_unit)
        out, check = local_kraus_run(ctx_unit, 1, [np.eye(2)])
        assert check.commutes
        assert out.e_bob == pytest.approx(clean.e_bob, abs=1e-12)

    def test_dephasing_buffer_channel_violates_precondition(self, ctx_unit):
        # Z on the buffer fails to commute with the receiver part; the
        # violation is reported, never silently ignored, and the energy
        # genuinely moves.
        clean = run_ensemble(ctx_unit).e_bob
        ops = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SZ]
        out, check = local_kraus_run(ctx_unit, 1, ops)
        assert not check.commutes
        assert check.max_defect > 1.0
        assert abs(out.e_bob - clean) > 1e-3

    def test_amplitude_damping_style_pair_reports_violation(self, ctx_unit):
        gamma = 0.3
        ops = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
               np.array([[0, np.sqrt(gamma)], [0, 0]])]
        _, check = local_kraus_run(ctx_unit, 1, ops)
        assert not check.commutes  # receiver part contains an X1 factor

    def test_completeness_violation_raises(self, ctx_unit):
        with pytest.raises(CompletenessViolationError):
            local_kraus_run(ctx_unit, 1, [0.5 * np.eye(2)])

    @pytest.mark.parametrize("site", [0, 2])
    def test_party_site_raises_support_violation(self, ctx_unit, site):
        with pytest.raises(SupportViolationError):
            local_kraus_run(ctx_unit, site, [np.eye(2)])

    def test_noisy_input_skips_the_locality_check(self, ctx_unit, monkeypatch):
        # The dense commutators are the KrausCheck; a session input that
        # only needs the channel output must not build them.
        calls = []

        def counted(a, b):
            calls.append(1)
            return a @ b - b @ a

        monkeypatch.setattr(noise, "commutator", counted)
        ops = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * oracles.SX)
        rho, _ = noisy_input_state(
            ctx_unit, NoiseSpec(kind="local_kraus", p=0.0, site=1, kraus_ops=ops))
        assert calls == []
        _, check = local_kraus_run(ctx_unit, 1, ops)
        assert len(calls) == 4 * len(ops) and check.commutes
        np.testing.assert_allclose(rho, noise.kraus_state(ctx_unit, 1, ops)[0],
                                   rtol=0, atol=0)


class TestThresholdScan:
    def test_bisection_matches_analytic_crossing(self):
        # classical flip crossing solves (1-p) E_id + p E_flip = 0, i.e.
        # p* = |.| / (2 (|.| + xi)); the scan must land within 1e-4
        for j in (0.8, 1.0, 2.0):
            ctx = chain_context(j)
            tp = ctx.theta
            analytic = tp.magnitude / (2 * (tp.magnitude + tp.xi))
            report = threshold_scan(ctx, "classical_flip", np.linspace(0, 1, 21))
            assert report.crossing == pytest.approx(analytic, abs=1e-4)

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
            return pauli_flip_run(ctx_unit, axis, site, p).e_bob

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

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="local_kraus", p=0.0, site=1,
                      kraus_ops=(0.5 * np.eye(2),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="thermal", p=0.1)


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
        from qetkd.models import HamiltonianSpec, Partition, PartitionPart
        from qetkd.spinops import term
        spec = HamiltonianSpec("flat3", 3, (term(1.0, (0, "X"), (1, "X")),))
        partition = Partition({
            "A": PartitionPart((term(1.0, (0, "X"), (1, "X")),), 0.0),
            "B": PartitionPart((), 0.0),
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

        out = ensemble_for_state(chain_context(1.0, bit_map=bit_map), rho_in)
        e_a, e_b, per = oracles.protocol_energies(
            data["h_a"], data["h_b"], want_rho, data["sigma_a"], data["sigma_b"],
            data["theta"], flip=bit_map == "flip")
        assert out.e_alice == pytest.approx(e_a, abs=1e-12)
        assert out.e_bob == pytest.approx(e_b, abs=1e-12)
        for b in (0, 1):
            assert out.per_outcome[b][0] == pytest.approx(per[b][0], abs=1e-12)
            assert out.per_outcome[b][1] == pytest.approx(per[b][1], abs=1e-12)
