import numpy as np
import pytest

from qetkd.errors import (
    DegenerateGroundError,
    DegenerateObjectiveError,
    ImaginaryResidueError,
    PartitionViolationError,
)
from qetkd.models import BOB, HamiltonianSpec, chain3, star, two_site, \
    two_site_partition_alternative, two_site_partition_standard, \
    two_site_shift_constants
from qetkd.protocol import (
    MeasurementBasis,
    ground_state,
    optimize_bob_basis,
    paired_feedback_axis,
    prepare,
    projector,
    run_ensemble,
    run_ensemble_random_basis,
    run_round,
    run_rounds,
    theta_params,
    validate_partition,
)
from qetkd.spinops import expectation, require_unitary, term

import oracles


class TestGroundState:
    def test_decoupled_chain_ground(self):
        spec, _ = chain3(0.0)
        gs, energy = ground_state(spec)
        assert energy == pytest.approx(-3.0)
        assert abs(gs[7]) == pytest.approx(1.0)
        assert gs[7].real > 0  # gauge: largest amplitude real positive
        assert abs(gs[7].imag) < 1e-14

    def test_two_site_ground_energy(self):
        gs, energy = ground_state(two_site(1.0, 1.0))
        assert energy == pytest.approx(-2 * np.sqrt(2), abs=1e-12)
        # supported on the {|00>, |11>} block only
        assert abs(gs[1]) < 1e-12 and abs(gs[2]) < 1e-12

    def test_ground_attains_minimum(self):
        spec, _ = chain3(1.0)
        gs, energy = ground_state(spec)
        assert expectation(gs, spec.matrix()) == pytest.approx(energy, abs=1e-10)

    def test_degenerate_ground_raises(self):
        spec = HamiltonianSpec("flat", 2, (term(1.0, (0, "X"), (1, "X")),))
        with pytest.raises(DegenerateGroundError):
            ground_state(spec)


class TestProjector:
    def test_x_basis_sign_convention(self):
        # b = 0 projects onto the -1 eigenspace of X: |-><-|
        p0 = projector(MeasurementBasis.x(0), 0, 1)
        assert np.allclose(p0, [[0.5, -0.5], [-0.5, 0.5]])

    def test_resolution_of_identity(self):
        basis = MeasurementBasis(0, (0.6, 0.0, 0.8))
        total = projector(basis, 0, 2) + projector(basis, 1, 2)
        assert np.allclose(total, np.eye(4))

    def test_idempotent_y_basis(self):
        p = projector(MeasurementBasis.y(0), 1, 3)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.linalg.matrix_rank(p) == 4

    def test_haar_random_basis_is_unit(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            basis = MeasurementBasis.haar_random(0, rng)
            assert np.linalg.norm(basis.vector) == pytest.approx(1.0, abs=1e-12)


class TestValidatePartition:
    def test_two_site_x_basis_ok(self):
        part = two_site_partition_standard(1.0, 1.0)
        h_bob = part.parts[BOB].bare_matrix(2)
        assert validate_partition(MeasurementBasis.x(0), h_bob, 2) < 1e-12

    def test_two_site_y_basis_violates(self):
        part = two_site_partition_standard(1.0, 1.0)
        h_bob = part.parts[BOB].bare_matrix(2)
        defect = validate_partition(MeasurementBasis.y(0), h_bob, 2)
        assert defect == pytest.approx(4.0, abs=1e-12)  # direct commutator oracle

    def test_prepare_refuses_violation(self):
        spec = two_site(1.0, 1.0)
        part = two_site_partition_standard(1.0, 1.0)
        with pytest.raises(PartitionViolationError):
            prepare(spec, part, MeasurementBasis.y(0),
                    bob_axis=MeasurementBasis.x(1))

    def test_chain_any_sender_axis_ok(self):
        spec, part = chain3(1.0)
        h_bob = part.parts[BOB].bare_matrix(3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            basis = MeasurementBasis.haar_random(0, rng)
            assert validate_partition(basis, h_bob, 3) < 1e-12


class TestThetaParams:
    def test_decoupled_chain(self):
        spec, _ = chain3(0.0)
        gs, _ = ground_state(spec)
        tp = theta_params(gs, spec.matrix(),
                          oracles.embed("X", 0, 3), oracles.embed("Y", 2, 3))
        assert tp.eta == pytest.approx(0.0, abs=1e-12)
        assert tp.xi == pytest.approx(2.0, abs=1e-12)
        assert tp.theta == pytest.approx(0.0, abs=1e-12)

    def test_unit_coupling_frozen_values(self):
        spec, _ = chain3(1.0)
        gs, _ = ground_state(spec)
        tp = theta_params(gs, spec.matrix(),
                          oracles.embed("X", 0, 3), oracles.embed("Y", 2, 3))
        assert tp.xi == pytest.approx(2.709107892087, abs=1e-9)
        assert tp.eta == pytest.approx(0.172535849031, abs=1e-9)
        assert tp.eta != 0.0

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 3.5])
    def test_angle_identities(self, j):
        spec, _ = chain3(j)
        gs, _ = ground_state(spec)
        tp = theta_params(gs, spec.matrix(),
                          oracles.embed("X", 0, 3), oracles.embed("Y", 2, 3))
        mag = tp.magnitude
        assert np.cos(2 * tp.theta) * mag == pytest.approx(tp.xi, abs=1e-10)
        assert np.sin(2 * tp.theta) * mag == pytest.approx(tp.eta, abs=1e-10)
        assert np.cos(2 * tp.theta) ** 2 + np.sin(2 * tp.theta) ** 2 == \
               pytest.approx(1.0, abs=1e-12)
        assert tp.xi >= -1e-10
        assert -np.pi / 2 < tp.theta <= np.pi / 2

    def test_matches_independent_oracle(self):
        for j in (0.7, 1.8):
            data = oracles.chain3_standard(j)
            spec, _ = chain3(j)
            gs, _ = ground_state(spec)
            tp = theta_params(gs, spec.matrix(), data["sigma_a"], data["sigma_b"])
            assert tp.xi == pytest.approx(data["xi"], abs=1e-10)
            assert tp.eta == pytest.approx(data["eta"], abs=1e-10)

    def test_imaginary_residue_detected(self):
        # sA = Y0 with sB = Y1 gives a complex cross expectation on the
        # two-site model: an unsupported operator pair.
        spec = two_site(1.0, 1.0)
        gs, _ = ground_state(spec)
        with pytest.raises(ImaginaryResidueError):
            theta_params(gs, spec.matrix(),
                         oracles.embed("Y", 0, 2), oracles.embed("Y", 1, 2))


class TestOptimizeBobBasis:
    def test_dominates_axis_aligned_choices(self):
        spec, _ = chain3(1.0)
        gs, _ = ground_state(spec)
        sigma_a = oracles.embed("X", 0, 3)
        m, tp = optimize_bob_basis(gs, spec, sigma_a, bob_site=2)
        assert tp.eta >= 0
        for axis in ("X", "Y", "Z"):
            axis_tp = theta_params(gs, spec.matrix(), sigma_a,
                                   oracles.embed(axis, 2, 3))
            assert tp.eta >= axis_tp.eta - 1e-12

    def test_linearity_of_objective(self):
        spec, _ = chain3(1.3)
        gs, _ = ground_state(spec)
        sigma_a = oracles.embed("X", 0, 3)
        coeffs = []
        for axis in ("X", "Y", "Z"):
            sb = oracles.embed(axis, 2, 3)
            tp = theta_params(gs, spec.matrix(), sigma_a, sb)
            coeffs.append(tp.eta)
        coeffs = np.array(coeffs)
        blend = np.array([0.5, 0.5, 0.0])
        blend /= np.linalg.norm(blend)
        sb = sum(blend[i] * oracles.embed(ax, 2, 3) for i, ax in enumerate("XYZ"))
        tp = theta_params(gs, spec.matrix(), sigma_a, sb)
        assert tp.eta == pytest.approx(float(blend @ coeffs), abs=1e-10)

    def test_degenerate_objective_at_zero_coupling(self):
        spec, _ = chain3(0.0)
        gs, _ = ground_state(spec)
        with pytest.raises(DegenerateObjectiveError):
            optimize_bob_basis(gs, spec, oracles.embed("X", 0, 3), bob_site=2)

    def test_matches_paired_energy(self):
        # optimizer and fixed pairing agree on the receiver energy even
        # though the axis sign convention may differ
        spec, part = chain3(2.0)
        paired = run_ensemble(prepare(spec, part, MeasurementBasis.y(0),
                                      bob_axis="paired"))
        optimal = run_ensemble(prepare(spec, part, MeasurementBasis.y(0),
                                       bob_axis="optimal"))
        assert paired.e_bob == pytest.approx(optimal.e_bob, abs=1e-12)


class TestRunEnsemble:
    def test_sender_energy_equals_first_shift(self):
        for k, h in [(1.0, 1.0), (0.6, 1.8), (2.0, 0.5)]:
            spec = two_site(k, h)
            part = two_site_partition_standard(k, h)
            out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
            c1, _ = two_site_shift_constants(k, h)
            assert out.e_alice == pytest.approx(c1, abs=1e-10)

    def test_zero_angle_gives_zero_receiver_energy(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), theta_override=0.0)
        assert run_ensemble(ctx).e_bob == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0])
    def test_receiver_energy_closed_form(self, j):
        spec, part = chain3(j)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        out = run_ensemble(ctx)
        assert out.e_bob == pytest.approx(ctx.theta.optimal_energy(), abs=1e-10)
        assert out.e_bob < 0

    def test_two_site_closed_form_energy(self):
        # fully independent route: the two-site ground expectations have
        # closed forms <h Z1> = -h^2/r and <2k X0X1> = -2k^2/r with
        # r = sqrt(h^2+k^2), giving xi = 2(h^2+2k^2)/r, eta = -2hk/r and
        # E_B = (h^2 + 2k^2 - sqrt((h^2+2k^2)^2 + h^2 k^2)) / r
        rng = np.random.default_rng(15)
        for _ in range(8):
            k, h = rng.uniform(0.3, 2.5, size=2)
            spec = two_site(k, h)
            part = two_site_partition_standard(k, h)
            out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
            a = h * h + 2 * k * k
            closed = (a - np.sqrt(a * a + h * h * k * k)) / np.hypot(h, k)
            assert out.e_bob == pytest.approx(closed, abs=1e-12)

    def test_matches_independent_evolution(self):
        data = oracles.chain3_standard(1.0)
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        e_a, e_b, per = oracles.protocol_energies(
            data["h_a"], data["h_b"], data["rho"], data["sigma_a"],
            data["sigma_b"], data["theta"])
        out = run_ensemble(ctx)
        assert out.e_alice == pytest.approx(e_a, abs=1e-12)
        assert out.e_bob == pytest.approx(e_b, abs=1e-12)
        for b in (0, 1):
            assert out.per_outcome[b][0] == pytest.approx(per[b][0], abs=1e-12)
            assert out.per_outcome[b][1] == pytest.approx(per[b][1], abs=1e-12)

    def test_ensemble_consistency(self):
        spec, part = chain3(1.7)
        out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
        probs = [out.per_outcome[b][0] for b in (0, 1)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        weighted = sum(p * e for p, e in out.per_outcome.values())
        assert weighted == pytest.approx(out.e_bob, abs=1e-10)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
    def test_angle_optimality_under_perturbation(self, j):
        spec, part = chain3(j)
        base = run_ensemble(prepare(spec, part, MeasurementBasis.x(0))).e_bob
        for delta in (-0.01, 0.01):
            ctx = prepare(spec, part, MeasurementBasis.x(0))
            shifted = prepare(spec, part, MeasurementBasis.x(0),
                              theta_override=ctx.theta.theta + delta)
            assert run_ensemble(shifted).e_bob >= base - 1e-12

    def test_flip_rule_positive_and_closed_form(self):
        # honest flip value: (xi - (xi^2 - eta^2) / |.|) / 2, cross-checked
        # against the independent evolution
        for j in (0.8, 1.0, 2.0):
            data = oracles.chain3_standard(j)
            spec, part = chain3(j)
            ctx = prepare(spec, part, MeasurementBasis.x(0), bit_map="flip")
            out = run_ensemble(ctx)
            _, e_b_oracle, _ = oracles.protocol_energies(
                data["h_a"], data["h_b"], data["rho"], data["sigma_a"],
                data["sigma_b"], data["theta"], flip=True)
            mag = np.hypot(data["xi"], data["eta"])
            closed = 0.5 * (data["xi"] - (data["xi"] ** 2 - data["eta"] ** 2) / mag)
            assert out.e_bob == pytest.approx(e_b_oracle, abs=1e-12)
            assert out.e_bob == pytest.approx(closed, abs=1e-10)
            assert out.e_bob > 0

    def test_alternative_partition_signs(self):
        # straightforward rule injects energy at the receiver; the
        # flipped control extracts it
        spec = two_site(1.0, 1.0)
        alt = two_site_partition_alternative(1.0, 1.0)
        std = two_site_partition_standard(1.0, 1.0)
        theta = prepare(spec, std, MeasurementBasis.x(0)).theta.theta
        straightforward = prepare(spec, alt, MeasurementBasis.x(0),
                                  bob_axis=MeasurementBasis.y(1),
                                  theta_override=theta)
        assert run_ensemble(straightforward).e_bob > 0
        flipped = prepare(spec, alt, MeasurementBasis.x(0),
                          bob_axis=MeasurementBasis.y(1),
                          theta_override=theta, bit_map="flip")
        assert run_ensemble(flipped).e_bob < 0

    def test_sender_energy_positive_even_for_flip(self):
        spec, part = chain3(1.0)
        for bit_map in ("identity", "flip"):
            out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0),
                                       bit_map=bit_map))
            assert out.e_alice > 0

    def test_sender_energy_independent_of_feedback(self):
        # the sender's injected energy is fixed by her measurement alone
        spec, part = chain3(1.3)
        ident = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
        flip = run_ensemble(prepare(spec, part, MeasurementBasis.x(0),
                                    bit_map="flip"))
        still = run_ensemble(prepare(spec, part, MeasurementBasis.x(0),
                                     theta_override=0.0))
        assert ident.e_alice == pytest.approx(flip.e_alice, abs=1e-12)
        assert ident.e_alice == pytest.approx(still.e_alice, abs=1e-12)

    def test_feedback_unitary_is_unitary(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        for b in (0, 1):
            require_unitary(ctx.rule.unitary(b, 3))


class TestRandomBasisEnsemble:
    def test_degenerate_weights_reduce_to_single_basis(self):
        spec, part = chain3(1.0)
        single = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
        mixed = run_ensemble_random_basis(
            spec, part, [(MeasurementBasis.x(0), 1.0), (MeasurementBasis.y(0), 0.0)])
        assert mixed.e_bob == pytest.approx(single.e_bob, abs=1e-12)
        assert mixed.e_alice == pytest.approx(single.e_alice, abs=1e-12)

    def test_equal_weights_average_the_bases(self):
        spec, part = chain3(1.5)
        x_out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0)))
        y_out = run_ensemble(prepare(spec, part, MeasurementBasis.y(0)))
        mixed = run_ensemble_random_basis(
            spec, part, [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)])
        assert mixed.e_bob == pytest.approx(0.5 * (x_out.e_bob + y_out.e_bob), abs=1e-12)
        probs = [mixed.per_outcome[b][0] for b in (0, 1)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        weighted = sum(p * e for p, e in mixed.per_outcome.values())
        assert weighted == pytest.approx(mixed.e_bob, abs=1e-10)

    def test_weights_must_sum_to_one(self):
        spec, part = chain3(1.0)
        with pytest.raises(ValueError):
            run_ensemble_random_basis(
                spec, part, [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.4)])

    def test_coupling_sweep_has_single_interior_minimum(self):
        couplings = np.linspace(0.0, 5.0, 26)
        curve = []
        for j in couplings:
            spec, part = chain3(float(j))
            out = run_ensemble_random_basis(
                spec, part,
                [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)])
            curve.append(out.e_bob)
        diffs = np.sign(np.diff(curve))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
        assert changes == 1  # decreasing then increasing
        interior = int(np.argmin(curve))
        assert 0 < interior < len(curve) - 1

    def test_flip_rule_sweep_has_single_interior_maximum(self):
        couplings = np.linspace(0.0, 5.0, 26)
        curve = []
        for j in couplings:
            spec, part = chain3(float(j))
            out = run_ensemble_random_basis(
                spec, part,
                [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)],
                bit_map="flip")
            curve.append(out.e_bob)
        assert all(v >= 0 for v in curve)
        diffs = np.sign(np.diff(curve))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
        assert changes == 1  # increasing then decreasing
        interior = int(np.argmax(curve))
        assert 0 < interior < len(curve) - 1

    def test_paired_axes(self):
        assert paired_feedback_axis(MeasurementBasis.x(0), 2).vector == (0.0, 1.0, 0.0)
        assert paired_feedback_axis(MeasurementBasis.y(0), 2).vector == (1.0, 0.0, 0.0)


class TestRunRound:
    def test_deterministic_given_seed(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        first = run_round(ctx, seed=42)
        second = run_round(ctx, seed=42)
        assert first == second

    def test_outcome_probability_is_half(self):
        # <gs| X0 |gs> = 0 by the parity symmetry of the chain
        spec, part = chain3(1.0)
        gs, _ = ground_state(spec)
        assert expectation(gs, oracles.embed("X", 0, 3)) == pytest.approx(0.0, abs=1e-10)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        bits, _ = run_rounds(ctx, 20_000, seed=5)
        se = 0.5 / np.sqrt(20_000)
        assert abs(np.mean(bits) - 0.5) < 3 * se

    def test_sampled_energies_average_to_ensemble(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        out = run_ensemble(ctx)
        bits, energies = run_rounds(ctx, 20_000, seed=8)
        se = np.std(energies) / np.sqrt(len(energies))
        assert abs(np.mean(energies) - out.e_bob) <= 3 * se + 1e-15

    def test_decoded_bit_follows_energy_sign(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        rec = run_round(ctx, seed=1)
        assert rec.decoded == (1 if rec.energy < 0 else 0)
        assert rec.transmitted == rec.outcome  # identity encoding

    def test_shot_noise_mode_is_unbiased(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        out = run_ensemble(ctx)
        _, energies = run_rounds(ctx, 50_000, seed=6, shot_noise=True)
        se = np.std(energies) / np.sqrt(len(energies))
        assert abs(np.mean(energies) - out.e_bob) <= 3 * se
        # single shots scatter over the receiver spectrum, unlike the
        # exact mode where each outcome gives one number
        assert len(np.unique(np.round(energies, 9))) > 1


class TestAgainstDenseOracle:
    """The site-local kernel against direct dense evolution in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(4))
    def test_theta_params_random_axes(self, seed):
        # chain3 admits any sender and receiver axes (the buffer keeps
        # [sA, i[sB, H]] off the sender site); the star and two-site
        # models need the X sender axis for a real eta
        rng = np.random.default_rng(seed)
        j = float(rng.uniform(0.3, 3.0))

        def axis(site, n):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            return sum(v[i] * oracles.embed(a, site, n) for i, a in enumerate("XYZ"))

        cases = [
            (oracles.chain3_matrix(j), axis(0, 3), axis(2, 3)),
            (oracles.star_matrix(3, j), oracles.embed("X", 0, 4), axis(2, 4)),
            (oracles.two_site_matrix(j, 1.0), oracles.embed("X", 0, 2), axis(1, 2)),
        ]
        for h, sigma_a, sigma_b in cases:
            evals, gs = oracles.ground(h)
            xi, eta, theta = oracles.theta_of(h, gs, evals[0], sigma_a, sigma_b)
            tp = theta_params(gs, h, sigma_a, sigma_b)
            assert tp.xi == pytest.approx(xi, abs=1e-10)
            assert tp.eta == pytest.approx(eta, abs=1e-10)
            assert tp.theta == pytest.approx(theta, abs=1e-10)

    @pytest.mark.parametrize("n_parties", range(1, 10))
    def test_star_energies(self, n_parties):
        n = n_parties + 1
        h = oracles.star_matrix(n_parties, 1.0)
        evals, gs = oracles.ground(h)
        sigma_a = oracles.embed("X", 0, n)
        sigma_b = oracles.embed("Y", 1, n)  # paired receiver axis X -> Y at leaf 1
        h_a = oracles.embed("Z", 0, n)
        h_b = oracles.embed("X", 0, n) @ oracles.embed("X", 1, n) + oracles.embed("Z", 1, n)
        _, _, theta = oracles.theta_of(h, gs, evals[0], sigma_a, sigma_b)
        e_a, e_b, _ = oracles.protocol_energies(h_a, h_b, np.outer(gs, gs.conj()),
                                                sigma_a, sigma_b, theta)

        spec, part = star(n_parties, 1.0)
        out = run_ensemble(prepare(spec, part, MeasurementBasis.x(0), bob_label="B1"))
        assert abs(out.e_alice - e_a) <= 1e-9 * abs(e_a)
        assert abs(out.e_bob - e_b) <= 1e-9 * abs(e_b)
