"""Property tests of the noise resolver and of branch-linear threshold scans."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
import qetkd.noise as noise  # noqa: E402
from qetkd.models import build_model, first_excited_level  # noqa: E402
from qetkd.noise import NoiseSpec, chain_context, noisy_input_state, threshold_scan  # noqa: E402
from qetkd.protocol import MeasurementBasis, ensemble_for_state, prepare  # noqa: E402
from qetkd.spinops import require_density_matrix  # noqa: E402

SCAN_FAMILIES = ("classical_flip", "depolarize", "bit_flip", "phase_flip",
                 "excited_mixture", "excited_superposition")
BRANCHES = {"classical_flip": 2, "depolarize": 2, "bit_flip": 2, "phase_flip": 2,
            "excited_mixture": 2, "excited_superposition": 3}
MODELS = [("chain3", None)] + [("star", n) for n in range(1, 5)]

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def context(model, n_parties, bit_map):
    if model == "chain3":
        return chain_context(bit_map=bit_map)
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
    rho, n = ctx.rho_gs, ctx.n_sites
    if family == "classical_flip":
        return rho, p
    if family == "depolarize":
        return (1 - p) * rho + p * np.eye(2 ** n) / 2 ** n, 0.0
    if family in ("bit_flip", "phase_flip"):
        s = oracles.embed("X" if family == "bit_flip" else "Z", site, n)
        return (1 - p) * rho + p * s @ rho @ s, 0.0
    mixture, psi_1 = first_excited_level(ctx.spec)
    if family == "excited_mixture":
        return (1 - p) * rho + p * mixture, 0.0
    psi = np.sqrt(1 - p) * ctx.gs + np.exp(1j * alpha) * np.sqrt(p) * psi_1
    return np.outer(psi, psi.conj()), 0.0


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
    ctx = context("star", 3, "identity")
    counts = {"validate": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(noise, "require_density_matrix",
                        counted("validate", require_density_matrix))
    monkeypatch.setattr(noise, "ensemble_for_state",
                        counted("evaluate", ensemble_for_state))
    kwargs = {"site": ctx.rule.site} if family in ("bit_flip", "phase_flip") else {}
    threshold_scan(ctx, family, np.linspace(0.0, 1.0, 101), **kwargs)
    assert counts["validate"] <= BRANCHES[family]
    assert counts["evaluate"] <= BRANCHES[family]
