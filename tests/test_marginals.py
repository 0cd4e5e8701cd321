"""The star's marginal path against its register path, and the star past 12 sites.

Every protocol path reads the ground state (and the excited states of the
excited noise families) through ``Spectrum.marginal``.  On the star it
is read off the collective block vectors; ``Spectrum.register_marginal``
is the register path, which reduces register-basis columns.  With
``register_path`` patched in, every consumer runs on the register path,
so each pipeline below is run both ways for N <= 11 and compared, and
against the collective oracles of ``tests/oracles.py`` where one exists.
Past 12 sites the star runs on the marginal path alone, and each reader
that needs a register vector refuses with an error naming the cap.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from qetkd import cli, models
from qetkd.adversary import SPLIT_CASES, eve_independent, eve_postselect, split_attack
from qetkd.errors import ModelParameterError
from qetkd.models import MAX_PARTIES, first_excited_levels, star
from qetkd.noise import NoiseSpec, threshold_scan
from qetkd.protocol import MeasurementBasis, ground_state, prepare, run_ensemble
from qetkd.qkd import SessionConfig, run_multiparty, run_session, verify_resource_state
from qetkd.spinops import MAX_SITES, Spectrum, reduced_density

TIGHT = 1e-12
SIZES = range(3, 12)


@pytest.fixture
def register_path(monkeypatch):
    monkeypatch.setattr(Spectrum, "marginal", Spectrum.register_marginal)


def couplings(n):
    return (1.0, 2.0 / math.sqrt(n))


def star_ctx(n, j, label="B1"):
    spec, part = star(n, j)
    return prepare(spec, part, MeasurementBasis.x(0), bob_label=label)


class TestLevels:
    @pytest.mark.parametrize("n", SIZES)
    def test_multiplicities_count_the_coupling_paths(self, n):
        plan = star(n, 1.0)[0].spectrum.plan
        assert plan.multiplicities == tuple(oracles.coupling_path_count(n, t) for t in plan.spins)

    @pytest.mark.parametrize("n", [3, 8, 11])
    def test_levels_expand_to_the_register_spectrum(self, n):
        spectrum = star(n, 1.0)[0].spectrum
        copies = [spectrum.multiplicity(i) for i in range(len(spectrum.levels))]
        assert sum(copies) == 2 ** (n + 1)
        assert len(spectrum.levels) == sum(2 * t + 2 for t in spectrum.plan.spins)

    def test_a_level_with_several_copies_has_no_vector(self):
        # its vector is a gauge choice at any N; only the mixture over its
        # copies is served
        spectrum = star(4, 1.0)[0].spectrum
        several = next(i for i in range(len(spectrum.levels)) if spectrum.multiplicity(i) > 1)
        for read in (lambda: spectrum.vectors([0, several]),
                     lambda: spectrum.register_marginal([several], [0, 1]),
                     lambda: spectrum.marginal([several], [0, 1], (1.0,))):
            with pytest.raises(ValueError, match="several copies"):
                read()
        assert np.trace(spectrum.marginal([several], [0, 1])).real == pytest.approx(1.0, abs=TIGHT)


class TestMarginals:
    @pytest.mark.parametrize("n", SIZES)
    def test_ground_marginal(self, n):
        for j in couplings(n):
            spectrum = star(n, j)[0].spectrum
            for sites in ([0, 1], [0, n], [0], [n]):
                np.testing.assert_allclose(spectrum.marginal([0], sites),
                                           reduced_density(spectrum.vectors([0])[:, 0], sites),
                                           rtol=0, atol=TIGHT)
            np.testing.assert_allclose(spectrum.marginal([0], [0, 2]),
                                       oracles.star_hub_leaf_marginal(n, j), rtol=0, atol=TIGHT)

    @pytest.mark.parametrize("n", SIZES)
    def test_first_excited_marginals(self, n):
        for j in couplings(n):
            spec = star(n, j)[0]
            spectrum, levels = spec.spectrum, first_excited_levels(spec)
            columns = spectrum.vectors(levels)
            mixture = sum(reduced_density(v, [0, 1]) for v in columns.T) / columns.shape[1]
            np.testing.assert_allclose(spectrum.marginal(levels, [0, 1]), mixture,
                                       rtol=0, atol=TIGHT)
            # the transition marginal <g| . |1> enters through |g> + e^{i a} |1>
            for alpha in (0.0, 0.7):
                phase = np.exp(1j * alpha)
                plus = (spectrum.vectors([0])[:, 0] + phase * columns[:, 0]) / math.sqrt(2.0)
                np.testing.assert_allclose(
                    spectrum.marginal([0, levels[0]], [0, n], (1.0, phase)),
                    reduced_density(plus, [0, n]), rtol=0, atol=TIGHT)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_levels_with_several_copies_against_the_oracle(self, n):
        # the mixture over the copies of a j < N/2 level is the dense cluster
        # projector / m; at J = 0.7 each cluster holds one level's copies alone
        spectrum = star(n, 0.7)[0].spectrum
        w, v = np.linalg.eigh(oracles.star_matrix(n, 0.7).real)  # H is real
        several = [lv for lv in range(len(spectrum.levels)) if spectrum.multiplicity(lv) > 1]
        assert len(several) == sum(2 * t + 2 for t in spectrum.plan.spins[1:])
        for lv in several:
            cluster = v[:, np.abs(w - spectrum.levels[lv]) <= 1e-9 * np.abs(w).max()]
            assert cluster.shape[1] == spectrum.multiplicity(lv)
            projector = cluster @ cluster.conj().T / cluster.shape[1]
            for sites in ([0, 1], [0, n], [0], [n]):
                np.testing.assert_allclose(spectrum.marginal([lv], sites),
                                           oracles.partial_trace(projector, sites),
                                           rtol=0, atol=TIGHT)

    def test_beyond_the_register_against_the_oracle(self):
        spectrum = star(100, 0.2)[0].spectrum
        np.testing.assert_allclose(spectrum.marginal([0], [0, 57]),
                                   oracles.star_hub_leaf_marginal(100, 0.2), rtol=0, atol=TIGHT)


def both_paths(request, run):
    """``run()`` on the marginal path, then on the register path."""
    block = run()
    request.getfixturevalue("register_path")
    return block, run()


class TestPipelines:
    @pytest.mark.parametrize("n", SIZES)
    def test_qet(self, n, request):
        def run():
            return [(o.e_alice, o.e_bob) for o in (run_ensemble(star_ctx(n, j))
                                                    for j in couplings(n))]
        block, register = both_paths(request, run)
        np.testing.assert_allclose(block, register, rtol=0, atol=TIGHT)
        np.testing.assert_allclose(block[0], oracles.star_marginal_energies(n, 1.0),
                                   rtol=0, atol=TIGHT)

    @pytest.mark.parametrize("n", [3, 6, 9, 11])
    def test_every_noise_family(self, n, request):
        dephasing = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.diag([1.0, -1.0]))
        families = [("classical_flip", {}), ("depolarize", {}),
                    ("bit_flip", {"site": 0}), ("bit_flip", {"site": 1}),
                    ("bit_flip", {"site": n}), ("phase_flip", {"site": 1}),
                    ("excited_mixture", {}), ("excited_superposition", {"alpha": 0.7}),
                    ("local_kraus", {"site": n, "kraus_ops": dephasing})]
        grid = np.linspace(0.0, 1.0, 11)

        def run():
            ctx = star_ctx(n, 1.0)
            return [threshold_scan(ctx, family, grid, **kw) for family, kw in families]

        for block, register in zip(*both_paths(request, run)):
            np.testing.assert_allclose(block.e_alice, register.e_alice, rtol=0, atol=TIGHT)
            np.testing.assert_allclose(block.e_bob, register.e_bob, rtol=0, atol=TIGHT)
            assert block.crossings == pytest.approx(register.crossings, abs=TIGHT)

    @pytest.mark.parametrize("n", [3, 7, 11])
    @pytest.mark.parametrize("noise", [None, NoiseSpec("bit_flip", 0.2, site=1),
                                       NoiseSpec("excited_superposition", 0.1, alpha=0.3)])
    def test_session_keys_and_energies(self, n, noise, request):
        def run():
            return run_session(SessionConfig(model="star", n_parties=n, rounds=600, seed=n,
                                             noise=noise, erasure_abort_fraction=1.0))

        block, register = both_paths(request, run)
        assert block.epsilon == pytest.approx(register.epsilon, abs=TIGHT)
        for label, party in block.parties.items():
            other = register.parties[label]
            np.testing.assert_allclose(party.energy_array, other.energy_array, rtol=0, atol=TIGHT)
            assert party.key == other.key
        assert block.alice_key == register.alice_key and block.verdict == register.verdict

    @pytest.mark.parametrize("n", [3, 11])
    def test_five_attacks(self, n, request):
        def run():
            ctx = star_ctx(n, 1.0, label=f"B{n}")
            return [eve_independent(ctx, rounds=2000, seed=1),
                    eve_postselect(ctx, rounds=2000, seed=2),
                    *(split_attack(ctx, sub, rounds=2000, seed=3) for sub in SPLIT_CASES)]

        for block, register in zip(*both_paths(request, run)):
            np.testing.assert_allclose(block.eve_state, register.eve_state, rtol=0, atol=TIGHT)
            assert block.trace_distance_to_bob == pytest.approx(register.trace_distance_to_bob,
                                                                abs=TIGHT)
            assert (block.key_match_rate_alice_bob, block.key_match_rate_eve_bob,
                    block.detection) == (register.key_match_rate_alice_bob,
                                         register.key_match_rate_eve_bob, register.detection)
            np.testing.assert_array_equal(block.joint_counts, register.joint_counts)

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_multiparty_verdicts(self, n, request):
        def run():
            config = SessionConfig(model="star", n_parties=n, rounds=500, seed=n)
            return [run_multiparty(config, plan)[1] for plan in (None, {f"B{n - 1}": "flip"})]

        block, register = both_paths(request, run)
        assert block == register
        assert block[0].cheater is None and block[1].cheater == f"B{n - 1}"


class TestBeyondTheRegister:
    def test_qet_at_100_parties(self, tmp_path):
        out = tmp_path / "qet.csv"
        assert cli.main(["qet", "--model", "star", "--N", "100", "--J", "0.2",
                         "--out", str(out)]) == 0
        row = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
        np.testing.assert_allclose(row[1:], oracles.star_marginal_energies(100, 0.2),
                                   rtol=0, atol=1e-9)

    def test_session_at_100_parties(self):
        result = run_session(SessionConfig(model="star", n_parties=100, coupling=0.2,
                                           rounds=4096))
        assert len(result.parties) == 100 and result.verdict.ok
        assert result.erasure_fraction() == 0.0

    def test_traced_peak_at_100_parties(self):
        # the blocks' eigenvectors are 5.7 MB; no register-sized array is built
        tracemalloc.start()
        try:
            run_ensemble(star_ctx(100, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_register_readers_refuse_past_the_cap(self):
        ctx = star_ctx(MAX_SITES, 2.0 / math.sqrt(MAX_SITES))  # 13 sites
        spec = ctx.spec
        readers = [lambda: ground_state(spec), lambda: ctx.gs, lambda: ctx.rho_gs,
                   lambda: spec.spectrum.vectors(first_excited_levels(spec)),
                   lambda: verify_resource_state(ctx, lambda i: None),
                   lambda: spec.spectrum.marginal([0], [1, 2])]  # two leaves
        for read in readers:
            with pytest.raises(ModelParameterError, match=f"at most {MAX_SITES} sites"):
                read()
        # a pure state of a level with several copies is a gauge choice: it needs
        # the register columns, so it is refused too
        several = next(i for i in range(len(spec.spectrum.levels))
                       if spec.spectrum.multiplicity(i) > 1)
        with pytest.raises(ModelParameterError, match=f"at most {MAX_SITES} sites"):
            spec.spectrum.marginal([several], [0, 1], (1.0,))
        # the mixture over its copies is permutation invariant, so it is served
        rho = spec.spectrum.marginal([several], [0, 1])
        assert np.trace(rho).real == pytest.approx(1.0, abs=TIGHT)

    def test_degenerate_ground_past_the_register(self, capsys):
        # at J = 1 the ground gap closes exponentially in N: star N = 50 is refused
        assert cli.main(["qet", "--model", "star", "--N", "50", "--J", "1"]) == 3
        assert cli.main(["qet", "--model", "star", "--N", "49", "--J", "1"]) == 0
        capsys.readouterr()

    def test_party_cap_exits_2(self, capsys):
        assert cli.main(["qet", "--model", "star", "--N", str(MAX_PARTIES + 1)]) == 2
        assert f"[1, {MAX_PARTIES}]" in capsys.readouterr().err


def test_vote_cannot_wrap(monkeypatch):
    # 127 receivers and the sender's claim are 128 votes: an int8 sum of a
    # unanimous round wraps to -128, and an honest session named B1 with
    # dissent 0.39.  The cap is raised for this test alone.
    monkeypatch.setattr(models, "MAX_PARTIES", 127)
    config = SessionConfig(model="star", n_parties=127, coupling=2.0 / math.sqrt(127),
                           rounds=64)
    _, verdict = run_multiparty(config)
    assert verdict.cheater is None
    assert set(verdict.dissent_fraction.values()) == {0.0}


def test_cli_import_loads_no_numpy_random():
    # qet, noise and ground draw nothing; numpy.random costs about 6 MB RSS
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, qetkd.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
