"""Property tests of the noise resolver, branch-linear threshold scans, the
conditional-energy kernel, the optimal feedback angle and the energy
bookkeeping of a partition."""

import functools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
import qetkd.noise as noise  # noqa: E402
import qetkd.protocol as protocol  # noqa: E402
from qetkd.errors import DegenerateObjectiveError  # noqa: E402
from qetkd.models import build_model, chain3, first_excited_level, two_site  # noqa: E402
from qetkd.models import two_site_partition_alternative  # noqa: E402
from qetkd.models import two_site_partition_standard  # noqa: E402
from qetkd.noise import (  # noqa: E402
    NoiseSpec,
    default_chain_coupling,
    noisy_input_state,
    threshold_scan,
)
from qetkd.protocol import (  # noqa: E402
    MeasurementBasis,
    conditional_table,
    ensemble_energies,
    ensemble_for_state,
    prepare,
    run_ensemble,
)
from qetkd.spinops import pure_density, require_density_matrix  # noqa: E402

SCAN_FAMILIES = ("classical_flip", "depolarize", "bit_flip", "phase_flip",
                 "excited_mixture", "excited_superposition")
BRANCHES = {"classical_flip": 2, "depolarize": 2, "bit_flip": 2, "phase_flip": 2,
            "excited_mixture": 2, "excited_superposition": 3}
MODELS = [("chain3", None)] + [("star", n) for n in range(1, 5)]

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def context(model, n_parties, bit_map):
    if model == "chain3":
        return prepare(*chain3(default_chain_coupling()), MeasurementBasis.x(0),
                       bit_map=bit_map)
    spec, partition, labels = build_model("star", 1.0, n_parties=n_parties)
    return prepare(spec, partition, MeasurementBasis.x(0), bob_label=labels[0],
                   bit_map=bit_map)


@st.composite
def scan_cases(draw):
    """(context, family, family kwargs, probabilities) for one scan."""
    model, n_parties = draw(st.sampled_from(MODELS))
    ctx = context(model, n_parties, draw(st.sampled_from(("identity", "flip"))))
    family = draw(st.sampled_from(SCAN_FAMILIES))
    kwargs = {}
    if family in ("bit_flip", "phase_flip"):
        kwargs["site"] = draw(st.integers(0, ctx.n_sites - 1))
    if family == "excited_superposition":
        kwargs["alpha"] = draw(st.floats(-2 * np.pi, 2 * np.pi))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return ctx, family, kwargs, sorted(probs)


def mixed_input(ctx, family, p, site=None, alpha=0.0):
    """The family's input at p built as one matrix, without the branch resolver."""
    level = first_excited_level(ctx.spec) if family.startswith("excited") else None
    rho = oracles.noisy_state(family, p, ctx.gs, level, site, alpha)
    return rho, p if family == "classical_flip" else 0.0


@PROPERTY
@given(scan_cases())
def test_scan_rows_equal_direct_mixed_state_evaluation(case):
    ctx, family, kwargs, probs = case
    report = threshold_scan(ctx, family, np.array(probs), **kwargs)
    for p, e_a, e_b in zip(report.grid, report.e_alice, report.e_bob):
        spec = NoiseSpec(family, p, site=kwargs.get("site"), alpha=kwargs.get("alpha"))
        for direct in (ensemble_for_state(ctx, *noisy_input_state(ctx, spec)),
                       ensemble_for_state(ctx, *mixed_input(ctx, family, p, **kwargs))):
            assert e_a == pytest.approx(direct.e_alice, abs=1e-12)
            assert e_b == pytest.approx(direct.e_bob, abs=1e-12)


@PROPERTY
@given(scan_cases())
def test_scan_rows_equal_the_per_point_loop(case):
    # the reference: every branch through ensemble_for_state, then each grid
    # point's weights times that table, one p at a time; the batched table and
    # the grid product must round exactly as it does
    ctx, family, kwargs, probs = case
    branches, coefficients = noise.noise_branches(ctx, NoiseSpec(family, 0.0, **kwargs))
    table = np.array([(out.e_alice, out.e_bob)
                      for out in (ensemble_for_state(ctx, s, f) for s, f in branches)])
    assert np.array_equal(ensemble_energies(ctx, branches), table)
    rows = [np.asarray(coefficients) @ (1.0, p, math.sqrt(p * (1.0 - p))) @ table
            for p in probs]
    report = threshold_scan(ctx, family, np.array(probs), **kwargs)
    assert np.array_equal(np.column_stack((report.e_alice, report.e_bob)), rows)


@PROPERTY
@given(scan_cases())
def test_outcome_probabilities_sum_to_one(case):
    ctx, family, kwargs, probs = case
    for p in probs:
        spec = NoiseSpec(family, p, site=kwargs.get("site"), alpha=kwargs.get("alpha"))
        out = ensemble_for_state(ctx, *noisy_input_state(ctx, spec))
        assert sum(out.probabilities()) == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(st.sampled_from([("chain3", None), ("star", 2), ("star", 3), ("star", 4)]),
       st.floats(0.0, 1.0), st.data())
def test_amplitude_damping_keeps_unit_trace(model, gamma, data):
    ctx = context(*model, "identity")
    parties = (ctx.alice.site, ctx.rule.site)
    site = data.draw(st.sampled_from([s for s in range(ctx.n_sites) if s not in parties]))
    ops = (np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
           np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex))
    rho, flip = noisy_input_state(
        ctx, NoiseSpec(kind="local_kraus", p=0.0, site=site, kraus_ops=ops))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert flip == 0.0
    require_density_matrix(rho)


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_scan_validates_and_evaluates_each_branch_once(monkeypatch, family):
    # one ensemble_energies call per scan, one conditional table per distinct
    # branch input (classical_flip's two branches share the ground state):
    # evaluating per grid point or per bisection step breaks both counts
    ctx = context("star", 3, "identity")
    counts = {"validate": 0, "evaluate": 0, "tabulate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(noise, "require_density_matrix",
                        counted("validate", require_density_matrix))
    monkeypatch.setattr(noise, "ensemble_energies",
                        counted("evaluate", ensemble_energies))
    monkeypatch.setattr(protocol, "conditional_table",
                        counted("tabulate", conditional_table))
    kwargs = {"site": ctx.rule.site} if family in ("bit_flip", "phase_flip") else {}
    report = threshold_scan(ctx, family, np.linspace(0.0, 1.0, 101), **kwargs)
    assert counts["validate"] <= BRANCHES[family]
    assert counts["evaluate"] == 1
    assert counts["tabulate"] == (1 if family == "classical_flip" else BRANCHES[family])
    if family == "classical_flip":
        assert report.crossing is not None  # the bisection ran


# ---------------------------------------------------------------------------
# conditional-energy kernel and energy bookkeeping
# ---------------------------------------------------------------------------

unit_vectors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: tuple(np.asarray(v) / np.linalg.norm(v)))


@st.composite
def kernel_contexts(draw):
    """Chain3 with a random sender axis, or star N <= 4 (sender +-X) with a
    random receiver and receiver axis; random coupling and bit map."""
    coupling = draw(st.floats(0.1, 3.0))
    bit_map = draw(st.sampled_from(("identity", "flip")))
    if draw(st.booleans()):
        spec, partition = chain3(coupling)
        alice, label, bob_site = MeasurementBasis(0, draw(unit_vectors)), "B", 2
    else:
        n_parties = draw(st.integers(1, 4))
        spec, partition, labels = build_model("star", coupling, n_parties=n_parties)
        bob_site = draw(st.integers(1, n_parties))
        label = labels[bob_site - 1]
        alice = MeasurementBasis(0, (draw(st.sampled_from((1.0, -1.0))), 0.0, 0.0))
    return prepare(spec, partition, alice, bob_label=label, bit_map=bit_map,
                   bob_axis=MeasurementBasis(bob_site, draw(unit_vectors)))


def random_density(draw, dim):
    """A random full-rank mixed state from drawn complex entries."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim,
                            max_size=2 * dim * dim))
    a = np.reshape(entries, (2, dim, dim))
    a = a[0] + 1j * a[1] + np.eye(dim)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@PROPERTY
@given(kernel_contexts())
def test_conditional_table_same_for_vector_and_its_density_matrix(ctx):
    from_vector = conditional_table(ctx, ctx.gs)
    from_matrix = conditional_table(ctx, pure_density(ctx.gs))
    for a, b in zip(from_vector, from_matrix):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@PROPERTY
@given(kernel_contexts(), st.data())
def test_conditional_pre_energies_sum_to_input_energy(ctx, data):
    # [P_b, H_B] = 0 (prepare checks it), so measuring leaves Tr[rho H_B] whole.
    rho = random_density(data.draw, 2 ** ctx.n_sites)
    h_bob = oracles.terms_matrix(ctx.partition.parts[ctx.bob_label], ctx.n_sites)
    for state in (ctx.gs, rho):
        table = conditional_table(ctx, state)
        assert table.pre.sum() == pytest.approx(oracles.expectation(state, h_bob), abs=1e-12)


@PROPERTY
@given(st.sampled_from(("chain3", "star", "two-site standard", "two-site alternative")),
       st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.integers(1, 4))
def test_partition_parts_sum_to_hamiltonian(model, coupling, field, n_parties):
    if model == "two-site standard":
        spec, partition = two_site(coupling, field), two_site_partition_standard(coupling, field)
    elif model == "two-site alternative":
        spec, partition = two_site(coupling, field), two_site_partition_alternative(coupling, field)
    else:
        spec, partition, _ = build_model(model, coupling, n_parties=n_parties)
    n = spec.n_sites
    total = sum(oracles.terms_matrix(terms, n) for terms in partition.parts.values())
    np.testing.assert_allclose(total, oracles.terms_matrix(spec.terms, n), rtol=0, atol=1e-12)


@PROPERTY
@given(st.floats(0.1, 3.0), unit_vectors, unit_vectors,
       st.sampled_from(("identity", "flip")), st.booleans(), st.data())
def test_party_energies_add_up_to_total_energy_change(coupling, a_axis, b_axis,
                                                      bit_map, mixed, data):
    spec, partition = chain3(coupling)
    ctx = prepare(spec, partition, MeasurementBasis(0, a_axis), bit_map=bit_map,
                  bob_axis=MeasurementBasis(2, b_axis))
    rho_in = random_density(data.draw, 8) if mixed else pure_density(ctx.gs)
    out = ensemble_for_state(ctx, rho_in if mixed else ctx.gs)

    # Dense evolution from the oracle Paulis, independent of the kernel.
    sigma_a = sum(c * oracles.embed(ax, 0, 3) for c, ax in zip(a_axis, "XYZ"))
    sigma_b = sum(c * oracles.embed(ax, 2, 3) for c, ax in zip(ctx.rule.vector, "XYZ"))
    theta = ctx.rule.theta
    rho_out = np.zeros((8, 8), dtype=complex)
    for b in (0, 1):
        proj = 0.5 * (np.eye(8) - (-1.0) ** b * sigma_a)
        sign = (-1.0) ** ctx.rule.mapped(b)
        u = np.cos(theta) * np.eye(8) - 1j * sign * np.sin(theta) * sigma_b
        rho_out += u @ proj @ rho_in @ proj @ u.conj().T

    def change(h):
        return np.trace(rho_out @ h).real - np.trace(rho_in @ h).real

    h_buffer = coupling * oracles.embed("X", 0, 3) @ oracles.embed("X", 1, 3) \
        + oracles.embed("Z", 1, 3)
    e_buffer = change(h_buffer)
    assert out.e_alice + e_buffer + out.e_bob == pytest.approx(
        change(oracles.chain3_matrix(coupling)), abs=1e-12)


@PROPERTY
@given(coupling=st.floats(0.1, 4.0),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       delta=st.floats(1e-3, 0.5))
def test_optimal_angle_is_a_minimum(coupling, axis, delta):
    """E_B at theta_opt is at or below E_B at theta_opt +- delta."""
    spec, part = chain3(coupling)
    basis = MeasurementBasis(0, tuple(np.asarray(axis) / np.linalg.norm(axis)))
    try:
        ctx = prepare(spec, part, basis, bob_axis="optimal")
    except DegenerateObjectiveError:  # e.g. the Z axis: no energy to teleport
        assume(False)
    best = run_ensemble(ctx).e_bob
    for shifted in (ctx.rule.theta + delta, ctx.rule.theta - delta):
        other = prepare(spec, part, basis, bob_axis="optimal", theta_override=shifted)
        assert best <= run_ensemble(other).e_bob + 1e-12
