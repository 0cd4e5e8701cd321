"""Noise channels and sign-change threshold scans.

Every mixture family runs the exact protocol on the noisy input state
and references energies to that same state, so the reported E_A and E_B
are the protocol-induced changes only.  By linearity of the trace each
mixture family decomposes exactly into its clean and noisy branches,
which the tests exploit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompletenessViolationError,
    DegenerateGroundError,
    SupportViolationError,
)
from .models import chain3
from .protocol import (
    MeasurementBasis,
    QetOutcome,
    RunContext,
    ensemble_for_state,
    prepare,
    projector,
    run_ensemble_random_basis,
)
from .spinops import (
    PAULI,
    commutator,
    degeneracy_tolerance,
    frobenius,
    require_density_matrix,
    sandwich,
    site_operator,
)
from .tolerances import TOL

NOISE_KINDS = (
    "classical_flip",
    "depolarize",
    "bit_flip",
    "phase_flip",
    "excited_mixture",
    "excited_superposition",
    "local_kraus",
)


@dataclass(frozen=True)
class NoiseSpec:
    """Tagged union describing one noise channel."""

    kind: str
    p: float
    site: int | None = None
    alpha: float | None = None
    kraus_ops: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.p}")
        if self.kind in ("bit_flip", "phase_flip", "local_kraus") and self.site is None:
            raise ValueError(f"{self.kind} needs a site")
        if self.kind == "local_kraus":
            if not self.kraus_ops:
                raise ValueError("local_kraus needs Kraus operators")
            total = sum(k.conj().T @ k for k in self.kraus_ops)
            if frobenius(total - np.eye(2)) > TOL.trace_one:
                raise ValueError("Kraus operators are not complete")


def mix_state(rho_gs: np.ndarray, sigma: np.ndarray, p: float) -> np.ndarray:
    """(1 - p) rho + p sigma; sigma must itself be a valid density matrix."""
    if rho_gs.shape != sigma.shape:
        raise ValueError("state dimensions do not match")
    require_density_matrix(sigma)
    return (1.0 - p) * rho_gs + p * sigma


# ---------------------------------------------------------------------------
# noise families
# ---------------------------------------------------------------------------

def apply_classical_flip(ctx: RunContext, p: float) -> QetOutcome:
    """Receiver acts on the wrong classical bit with probability p."""
    return ensemble_for_state(ctx, ctx.rho_gs, flip_probability=p)


def depolarize_run(ctx: RunContext, p: float) -> QetOutcome:
    """Resource state mixed with the maximally mixed state on the register."""
    dim = 2 ** ctx.n_sites
    sigma = np.eye(dim) / dim
    return ensemble_for_state(ctx, mix_state(ctx.rho_gs, sigma, p))


def _excited_level(ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
    """(uniform mixture over the first excited level, its first eigenvector)."""
    evals, evecs = ctx.spec.spectrum
    tol = degeneracy_tolerance(evals)
    if evals[1] - evals[0] <= tol:
        raise DegenerateGroundError(
            "first excited level is degenerate with the ground level"
        )
    cluster = np.where(np.abs(evals - evals[1]) <= tol)[0]
    mixture = sum(
        np.outer(evecs[:, i], evecs[:, i].conj()) for i in cluster
    ) / len(cluster)
    first = evecs[:, cluster[0]].copy()
    pivot = int(np.argmax(np.abs(first)))
    first = first * (first[pivot] / abs(first[pivot])).conjugate()
    return mixture, first


def excited_mixture_run(ctx: RunContext, p: float) -> QetOutcome:
    """Resource state mixed with the first excited level.

    A degenerate excited level enters as the uniform mixture over its
    eigenspace.
    """
    rho_1, _ = _excited_level(ctx)
    return ensemble_for_state(ctx, mix_state(ctx.rho_gs, rho_1, p))


def excited_superposition_run(ctx: RunContext, p: float, alpha: float = 0.0) -> QetOutcome:
    """Coherent admixture sqrt(1-p) |gs> + e^{i alpha} sqrt(p) |1>.

    For a degenerate excited level the lexicographically first
    eigenvector in the fixed gauge is used.
    """
    _, psi_1 = _excited_level(ctx)
    psi = math.sqrt(1.0 - p) * ctx.gs + np.exp(1j * alpha) * math.sqrt(p) * psi_1
    psi = psi / np.linalg.norm(psi)
    return ensemble_for_state(ctx, np.outer(psi, psi.conj()))


def pauli_flip_run(ctx: RunContext, axis: str, site: int, p: float) -> QetOutcome:
    """Bit-flip (X) or phase-flip (Z) error at one site with probability p."""
    if axis not in ("X", "Z"):
        raise ValueError(f"flip axis must be X or Z, got {axis!r}")
    sigma = sandwich(PAULI[axis], site, ctx.rho_gs)
    return ensemble_for_state(ctx, mix_state(ctx.rho_gs, sigma, p))


@dataclass(frozen=True)
class KrausCheck:
    """Locality report for a single-site Kraus channel.

    The channel leaves both parties' energies untouched only when every
    Kraus operator commutes with the sender projectors and with both
    party Hamiltonians; ``commutes`` records whether that precondition
    held, it is never assumed.
    """

    commutes: bool
    max_defect: float
    defects: dict[str, float] = field(default_factory=dict)


def kraus_state(ctx: RunContext, site: int,
                kraus_ops: list[np.ndarray] | tuple[np.ndarray, ...],
                ) -> tuple[np.ndarray, KrausCheck]:
    """Channel output sum_a K_a rho K_a† plus the locality report.

    ``kraus_ops`` are 2x2 matrices acting on ``site``.  Raises
    SupportViolationError if the site belongs to the sender or receiver
    and CompletenessViolationError if sum K† K != 1.
    """
    if site == ctx.alice.site or site == ctx.rule.site:
        raise SupportViolationError(f"site {site} belongs to a protocol party")
    if not 0 <= site < ctx.n_sites:
        raise ValueError(f"site {site} out of range")
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    for k in ops:
        if k.shape != (2, 2):
            raise SupportViolationError("Kraus operators must be single-site 2x2")
    total = sum(k.conj().T @ k for k in ops)
    if frobenius(total - np.eye(2)) > TOL.trace_one:
        raise CompletenessViolationError(
            f"sum K† K deviates from identity by {frobenius(total - np.eye(2)):.3e}"
        )

    # The locality check is a cold path: it builds d x d forms on demand.
    n = ctx.n_sites
    projectors = [projector(ctx.alice, b, n) for b in (0, 1)]
    defects: dict[str, float] = {}
    worst = 0.0
    for i, k in enumerate(ops):
        k_full = site_operator(k, site, n)
        d_a = frobenius(commutator(k_full, ctx.h_alice))
        d_b = frobenius(commutator(k_full, ctx.h_bob))
        d_p = max(frobenius(commutator(k_full, p_b)) for p_b in projectors)
        defects[f"K{i}"] = max(d_a, d_b, d_p)
        worst = max(worst, defects[f"K{i}"])
    check = KrausCheck(commutes=worst <= TOL.commutator, max_defect=worst,
                       defects=defects)

    sigma = sum(sandwich(k, site, ctx.rho_gs) for k in ops)
    return sigma, check


def local_kraus_run(ctx: RunContext, site: int,
                    kraus_ops: list[np.ndarray] | tuple[np.ndarray, ...],
                    ) -> tuple[QetOutcome, KrausCheck]:
    """Apply a single-site Kraus channel at a bystander site, then run."""
    sigma, check = kraus_state(ctx, site, kraus_ops)
    return ensemble_for_state(ctx, sigma), check


def noisy_input_state(ctx: RunContext, noise: NoiseSpec | None,
                      ) -> tuple[np.ndarray, float]:
    """Session-facing resolver: (input state, classical flip probability)."""
    if noise is None:
        return ctx.rho_gs, 0.0
    if noise.kind == "classical_flip":
        return ctx.rho_gs, noise.p
    if noise.kind == "depolarize":
        dim = 2 ** ctx.n_sites
        return mix_state(ctx.rho_gs, np.eye(dim) / dim, noise.p), 0.0
    if noise.kind in ("bit_flip", "phase_flip"):
        axis = "X" if noise.kind == "bit_flip" else "Z"
        sigma = sandwich(PAULI[axis], noise.site, ctx.rho_gs)
        return mix_state(ctx.rho_gs, sigma, noise.p), 0.0
    if noise.kind == "excited_mixture":
        rho_1, _ = _excited_level(ctx)
        return mix_state(ctx.rho_gs, rho_1, noise.p), 0.0
    if noise.kind == "excited_superposition":
        _, psi_1 = _excited_level(ctx)
        alpha = noise.alpha or 0.0
        psi = math.sqrt(1.0 - noise.p) * ctx.gs \
            + np.exp(1j * alpha) * math.sqrt(noise.p) * psi_1
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj()), 0.0
    if noise.kind == "local_kraus":
        sigma, _ = kraus_state(ctx, noise.site, noise.kraus_ops)
        return sigma, 0.0
    raise ValueError(f"unknown noise kind {noise.kind!r}")


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Receiver-energy curve over a probability grid with its sign change."""

    family: str
    grid: tuple[float, ...]
    e_alice: tuple[float, ...]
    e_bob: tuple[float, ...]
    crossing: float | None
    crossings: tuple[float, ...] = ()


def _family_curve(ctx: RunContext, family: str, **kw):
    if family == "classical_flip":
        return lambda p: apply_classical_flip(ctx, p)
    if family == "depolarize":
        return lambda p: depolarize_run(ctx, p)
    if family == "bit_flip":
        return lambda p: pauli_flip_run(ctx, "X", kw["site"], p)
    if family == "phase_flip":
        return lambda p: pauli_flip_run(ctx, "Z", kw["site"], p)
    if family == "excited_mixture":
        return lambda p: excited_mixture_run(ctx, p)
    if family == "excited_superposition":
        return lambda p: excited_superposition_run(ctx, p, kw.get("alpha", 0.0))
    raise ValueError(f"unknown scan family {family!r}")


def threshold_scan(ctx: RunContext, family: str, grid: np.ndarray,
                   **family_kwargs) -> ThresholdReport:
    """Locate the probabilities where the receiver energy changes sign.

    Only energies whose magnitude exceeds ``TOL.sign_zero`` carry a
    sign; each pair of consecutive such grid points with opposite signs
    is refined by bisection to 1e-4 in p.  An energy that merely reaches
    zero, like depolarization at p = 1, is no crossing.  ``crossing`` is
    the first crossing, None when the sign never changes.
    """
    curve = _family_curve(ctx, family, **family_kwargs)
    grid = np.asarray(grid, dtype=float)
    outs = [curve(p) for p in grid]
    e_b = np.array([o.e_bob for o in outs])
    e_a = np.array([o.e_alice for o in outs])

    crossings: list[float] = []
    signed = np.flatnonzero(np.abs(e_b) > TOL.sign_zero)
    for i, j in zip(signed[:-1], signed[1:]):
        if (e_b[i] < 0) == (e_b[j] < 0):
            continue
        lo, hi = float(grid[i]), float(grid[j])
        f_lo = e_b[i]
        while hi - lo > TOL.bisection:
            mid = 0.5 * (lo + hi)
            f_mid = curve(mid).e_bob
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return ThresholdReport(
        family=family,
        grid=tuple(float(p) for p in grid),
        e_alice=tuple(float(x) for x in e_a),
        e_bob=tuple(float(x) for x in e_b),
        crossing=crossings[0] if crossings else None,
        crossings=tuple(crossings),
    )


def report_csv_rows(report: ThresholdReport, coupling: float) -> list[str]:
    """Rows for the ``family,J,p,E_A,E_B`` export, 12 significant digits."""
    rows = []
    for p, ea, eb in zip(report.grid, report.e_alice, report.e_bob):
        rows.append(
            f"{report.family},{coupling:.12g},{p:.12g},{ea:.12g},{eb:.12g}"
        )
    return rows


# ---------------------------------------------------------------------------
# reference coupling for the chain model
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def default_chain_coupling() -> float:
    """Coupling minimizing the noiseless random-basis receiver energy.

    Golden-section search to 1e-3 over J in [0.05, 5]; this is the
    operating point used for flip-noise and excited-state scans.
    """
    def objective(j: float) -> float:
        spec, partition = chain3(j)
        out = run_ensemble_random_basis(
            spec, partition,
            [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)],
        )
        return out.e_bob

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.05, 5.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f_c, f_d = objective(c), objective(d)
    while b - a > 1e-3:
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = b - inv_phi * (b - a)
            f_c = objective(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + inv_phi * (b - a)
            f_d = objective(d)
    return 0.5 * (a + b)


def chain_context(coupling: float | None = None, *, bit_map: str = "identity",
                  basis: MeasurementBasis | None = None) -> RunContext:
    """Convenience context for the chain model at the default operating point."""
    j = default_chain_coupling() if coupling is None else coupling
    spec, partition = chain3(j)
    return prepare(spec, partition, basis or MeasurementBasis.x(0), bit_map=bit_map)
