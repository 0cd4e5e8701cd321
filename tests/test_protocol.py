import tracemalloc
from dataclasses import replace

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
    ensemble_for_state,
    ground_state,
    local_projector,
    optimize_bob_basis,
    prepare,
    run_ensemble,
    run_ensemble_random_basis,
    run_rounds,
)
from qetkd.spinops import term

import oracles

X_AXIS, Y_AXIS = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])


def chain_theta(spec, part, bob_axis, sender=None):
    """ThetaParams of the chain protocol for a sender basis and an explicit receiver axis."""
    return prepare(spec, part, sender or MeasurementBasis.x(0), bob_axis=bob_axis).theta


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
        assert oracles.expectation(gs, oracles.terms_matrix(spec.terms, spec.n_sites)) == \
            pytest.approx(energy, abs=1e-10)

    def test_degenerate_ground_raises(self):
        spec = HamiltonianSpec("flat", 2, (term(1.0, (0, "X"), (1, "X")),))
        with pytest.raises(DegenerateGroundError):
            ground_state(spec)


def projector(basis, b, n_sites):
    """P(b) on the whole register: the 2x2 factor embedded by Kronecker products."""
    return oracles.embed_op(local_projector(basis, b), basis.site, n_sites)


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


class TestValidatePartition:
    def test_two_site_x_basis_ok(self):
        forms = prepare(two_site(1.0, 1.0), two_site_partition_standard(1.0, 1.0),
                        MeasurementBasis.x(0)).forms
        assert forms.defect(X_AXIS)[0] < 1e-12

    def test_two_site_y_basis_violates(self):
        forms = prepare(two_site(1.0, 1.0), two_site_partition_standard(1.0, 1.0),
                        MeasurementBasis.x(0)).forms
        defect = forms.defect(Y_AXIS)[0]
        assert defect == pytest.approx(4.0, abs=1e-12)  # direct commutator oracle

    def test_prepare_refuses_violation(self):
        spec = two_site(1.0, 1.0)
        part = two_site_partition_standard(1.0, 1.0)
        with pytest.raises(PartitionViolationError):
            prepare(spec, part, MeasurementBasis.y(0),
                    bob_axis=MeasurementBasis.x(1))

    def test_unknown_part_label_names_the_labels(self):
        # the star's receivers are B1..BN; the default label "B" is not one of them
        with pytest.raises(ValueError, match=r"no part 'B'; its labels are A, B1, B2, B3$"):
            prepare(*star(3, 1.0), MeasurementBasis.x(0))
        with pytest.raises(ValueError, match="no part 'Z'"):
            prepare(*chain3(1.0), MeasurementBasis.x(0), bob_label="Z")

    def test_chain_any_sender_axis_ok(self):
        spec, part = chain3(1.0)
        forms = prepare(spec, part, MeasurementBasis.x(0)).forms
        axes = np.random.default_rng(4).normal(size=(5, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        assert forms.defect(axes).max() < 1e-12


class TestThetaParams:
    def test_decoupled_chain(self):
        spec, part = chain3(0.0)
        tp = chain_theta(spec, part, MeasurementBasis.y(2))
        assert tp.eta == pytest.approx(0.0, abs=1e-12)
        assert tp.xi == pytest.approx(2.0, abs=1e-12)
        assert tp.theta == pytest.approx(0.0, abs=1e-12)

    def test_unit_coupling_frozen_values(self):
        spec, part = chain3(1.0)
        tp = chain_theta(spec, part, MeasurementBasis.y(2))
        assert tp.xi == pytest.approx(2.709107892087, abs=1e-9)
        assert tp.eta == pytest.approx(0.172535849031, abs=1e-9)
        assert tp.eta != 0.0

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 3.5])
    def test_angle_identities(self, j):
        spec, part = chain3(j)
        tp = chain_theta(spec, part, MeasurementBasis.y(2))
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
            spec, part = chain3(j)
            tp = chain_theta(spec, part, MeasurementBasis.y(2))
            assert tp.xi == pytest.approx(data["xi"], abs=1e-10)
            assert tp.eta == pytest.approx(data["eta"], abs=1e-10)

    def test_imaginary_residue_detected(self):
        # sA = Y0 with sB = Y1 gives a complex cross expectation on the
        # two-site model: an unsupported operator pair.  The alternative
        # partition admits the Y sender basis, so the angle is reached.
        spec = two_site(1.0, 1.0)
        with pytest.raises(ImaginaryResidueError):
            prepare(spec, two_site_partition_alternative(1.0, 1.0), MeasurementBasis.y(0),
                    bob_axis=MeasurementBasis.y(1))


class TestOptimizeBobBasis:
    def test_dominates_axis_aligned_choices(self):
        spec, part = chain3(1.0)
        tp = chain_theta(spec, part, "optimal")
        assert tp.eta >= 0
        for axis in np.eye(3):
            axis_tp = chain_theta(spec, part, MeasurementBasis(2, tuple(axis)))
            assert tp.eta >= axis_tp.eta - 1e-12

    def test_linearity_of_objective(self):
        spec, part = chain3(1.3)
        coeffs = []
        for axis in np.eye(3):
            tp = chain_theta(spec, part, MeasurementBasis(2, tuple(axis)))
            coeffs.append(tp.eta)
        coeffs = np.array(coeffs)
        blend = np.array([0.5, 0.5, 0.0])
        blend /= np.linalg.norm(blend)
        tp = chain_theta(spec, part, MeasurementBasis(2, tuple(blend)))
        assert tp.eta == pytest.approx(float(blend @ coeffs), abs=1e-10)

    def test_degenerate_objective_at_zero_coupling(self):
        spec, part = chain3(0.0)
        forms = prepare(spec, part, MeasurementBasis.x(0)).forms
        with pytest.raises(DegenerateObjectiveError):
            optimize_bob_basis(forms, X_AXIS)

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
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        ctx = replace(ctx, rule=replace(ctx.rule, theta=0.0))
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
            shifted = replace(ctx, rule=replace(ctx.rule, theta=ctx.theta.theta + delta))
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
                                  bob_axis=MeasurementBasis.y(1))
        straightforward = replace(straightforward,
                                  rule=replace(straightforward.rule, theta=theta))
        assert run_ensemble(straightforward).e_bob > 0
        flipped = prepare(spec, alt, MeasurementBasis.x(0),
                          bob_axis=MeasurementBasis.y(1), bit_map="flip")
        flipped = replace(flipped, rule=replace(flipped.rule, theta=theta))
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
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        still = run_ensemble(replace(ctx, rule=replace(ctx.rule, theta=0.0)))
        assert ident.e_alice == pytest.approx(flip.e_alice, abs=1e-12)
        assert ident.e_alice == pytest.approx(still.e_alice, abs=1e-12)

    def test_feedback_unitary_is_unitary(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        for b in (0, 1):
            u = oracles.embed_op(ctx.rule.local_rotation(ctx.rule.mapped(b)), ctx.rule.site, 3)
            assert np.linalg.norm(u @ u.conj().T - np.eye(8)) <= 1e-12


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

    def test_weights_outside_unit_interval_rejected(self):
        # 1.5 and -0.5 sum to one, but -0.5 is no probability
        spec, part = chain3(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_ensemble_random_basis(
                spec, part, [(MeasurementBasis.x(0), 1.5), (MeasurementBasis.y(0), -0.5)])

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
        spec, part = chain3(1.0)
        assert prepare(spec, part, MeasurementBasis.x(0)).rule.vector == (0.0, 1.0, 0.0)
        assert prepare(spec, part, MeasurementBasis.y(0)).rule.vector == (1.0, 0.0, 0.0)


class TestRunRound:
    def test_deterministic_given_seed(self):
        spec, part = chain3(1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0))
        first = run_rounds(ctx, 1, seed=42)
        second = run_rounds(ctx, 1, seed=42)
        assert first == second

    def test_outcome_probability_is_half(self):
        # <gs| X0 |gs> = 0 by the parity symmetry of the chain
        spec, part = chain3(1.0)
        gs, _ = ground_state(spec)
        assert oracles.expectation(gs, oracles.embed("X", 0, 3)) == pytest.approx(0.0, abs=1e-10)
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
            return (MeasurementBasis(site, tuple(v)),
                    sum(v[i] * oracles.embed(a, site, n) for i, a in enumerate("XYZ")))

        x_axis = (MeasurementBasis.x(0), None)
        cases = [
            (oracles.chain3_matrix(j), axis(0, 3), axis(2, 3), chain3(j), BOB),
            (oracles.star_matrix(3, j), x_axis, axis(2, 4), star(3, j), "B2"),
            (oracles.two_site_matrix(j, 1.0), x_axis, axis(1, 2),
             (two_site(j, 1.0), two_site_partition_standard(j, 1.0)), BOB),
        ]
        for h, (alice, sigma_a), (bob, sigma_b), (spec, part), label in cases:
            n = h.shape[0].bit_length() - 1
            sigma_a = oracles.embed("X", 0, n) if sigma_a is None else sigma_a
            evals, gs = oracles.ground(h)
            xi, eta, theta = oracles.theta_of(h, gs, evals[0], sigma_a, sigma_b)
            tp = prepare(spec, part, alice, bob_axis=bob, bob_label=label).theta
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

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("model", ["star7", "two-site alternative"])
    def test_marginal_kernel_matches_dense_evolution(self, model, mixed):
        # The kernel reads only the marginal on the support of P, U, H_A and
        # H_B; the oracle evolves the whole register.  On the alternative
        # partition H_A spans both sites.
        if model == "star7":
            n, j = 8, 1.0
            h = oracles.star_matrix(7, j)
            h_a = oracles.embed("Z", 0, n)
            h_b = j * oracles.embed("X", 0, n) @ oracles.embed("X", 1, n) + oracles.embed("Z", 1, n)
            spec, part = star(7, j)
            ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        else:
            n, k, field = 2, 0.8, 1.3
            h = oracles.two_site_matrix(k, field)
            h_a = 2 * k * oracles.embed("X", 0, n) @ oracles.embed("X", 1, n) \
                + field * oracles.embed("Z", 0, n)
            h_b = field * oracles.embed("Z", 1, n)
            ctx = prepare(two_site(k, field), two_site_partition_alternative(k, field),
                          MeasurementBasis.x(0))
        sigma_a, sigma_b = oracles.embed("X", 0, n), oracles.embed("Y", 1, n)
        evals, gs = oracles.ground(h)
        _, _, theta = oracles.theta_of(h, gs, evals[0], sigma_a, sigma_b)
        if mixed:
            rng = np.random.default_rng(n)
            a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            state = rho
        else:
            rho, state = np.outer(gs, gs.conj()), ctx.gs
        e_a, e_b, per = oracles.protocol_energies(h_a, h_b, rho, sigma_a, sigma_b, theta)
        out = ensemble_for_state(ctx, state)
        assert out.e_alice == pytest.approx(e_a, abs=1e-12)
        assert out.e_bob == pytest.approx(e_b, abs=1e-12)
        for b in (0, 1):
            assert out.per_outcome[b][0] == pytest.approx(per[b][0], abs=1e-12)
            assert out.per_outcome[b][1] == pytest.approx(per[b][1], abs=1e-12)

    def test_run_ensemble_allocates_no_register_matrix(self):
        # star N=9 has 10 sites: one d x d complex array is 16 MB.
        spec, part = star(9, 1.0)
        ctx = prepare(spec, part, MeasurementBasis.x(0), bob_label="B1")
        run_ensemble(ctx)
        tracemalloc.start()
        try:
            run_ensemble(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
