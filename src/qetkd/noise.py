"""Noise channels and sign-change threshold scans.

Every noise family resolves to two or three fixed branch inputs with
scalar weights in p (``noise_branches``).  The protocol energies are
linear in the input state and in the classical flip probability, so a
family's energies at p are the same weighted sum of its branch energies,
and a threshold scan runs the protocol once per branch.  Energies are
referenced to the input state itself, so the reported E_A and E_B are
the protocol-induced changes only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessViolationError, SupportViolationError
from .models import chain3, first_excited_level
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
    frobenius,
    pure_density,
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
    """Tagged union describing one noise channel.

    ``local_kraus`` applies its full channel and ignores ``p``: with
    amplitude-damping operators, ``p=0.0`` is full amplitude damping.
    """

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


# Branch weights as coefficient rows over the scalar basis (1, p, sqrt(p (1 - p))).
_AFFINE = ((1.0, -1.0, 0.0), (0.0, 1.0, 0.0))            # 1 - p, p
_COHERENT = ((1.0, -1.0, -1.0), (0.0, 1.0, -1.0), (0.0, 0.0, 2.0))


def branch_weights(coefficients, p: float) -> np.ndarray:
    """A family's branch weights at probability p, from its coefficient rows."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return np.asarray(coefficients) @ (1.0, p, math.sqrt(p * (1.0 - p)))


def noise_branches(ctx: RunContext, kind: str, *, site: int | None = None,
                   alpha: float | None = None, kraus_ops=None):
    """The one noise resolver: ((state, classical flip probability), ...), coefficients.

    ``classical_flip`` is the resource state at flip probability 0 and 1,
    the mixture families the resource state and their noise state, each
    weighted 1 - p and p.  ``excited_superposition`` is |g>, |1> and
    |+_alpha> = (|g> + e^{i alpha} |1>) / sqrt(2), weighted 1 - p - c,
    p - c and 2c with c = sqrt(p (1 - p)).  ``local_kraus`` is its channel
    output at every p.  Branch states other than |g><g| are validated once.
    """
    rho = ctx.rho_gs
    coefficients = _AFFINE
    if kind == "classical_flip":
        return ((rho, 0.0), (rho, 1.0)), coefficients
    if kind == "depolarize":
        states = (rho, np.eye(rho.shape[0]) / rho.shape[0])
    elif kind in ("bit_flip", "phase_flip"):
        if site is None:
            raise ValueError(f"{kind} needs a site")
        states = (rho, sandwich(PAULI["X" if kind == "bit_flip" else "Z"], site, rho))
    elif kind == "excited_mixture":
        states = (rho, first_excited_level(ctx.spec)[0])
    elif kind == "excited_superposition":
        psi_1 = first_excited_level(ctx.spec)[1]
        plus = (ctx.gs + np.exp(1j * (alpha or 0.0)) * psi_1) / math.sqrt(2.0)
        states = (rho, pure_density(psi_1), pure_density(plus))
        coefficients = _COHERENT
    elif kind == "local_kraus":
        states = (_kraus_output(ctx, site, kraus_ops)[0],)
        coefficients = ((1.0, 0.0, 0.0),)
    else:
        raise ValueError(f"unknown noise family {kind!r}")
    for s in states:
        if s is not rho:
            require_density_matrix(s)
    return tuple((s, 0.0) for s in states), coefficients


def noisy_input_state(ctx: RunContext, noise: NoiseSpec | None,
                      ) -> tuple[np.ndarray, float]:
    """(input state, classical flip probability): the weighted branches folded.

    A family varies its states or its flip probabilities, never both.
    """
    if noise is None:
        return ctx.rho_gs, 0.0
    branches, coefficients = noise_branches(ctx, noise.kind, site=noise.site,
                                            alpha=noise.alpha, kraus_ops=noise.kraus_ops)
    w = branch_weights(coefficients, noise.p)
    rho = branches[0][0]
    if any(s is not rho for s, _ in branches):
        rho = sum(wk * s for wk, (s, _) in zip(w, branches))
    return rho, float(np.dot(w, [f for _, f in branches]))


def apply_classical_flip(ctx: RunContext, p: float) -> QetOutcome:
    """Receiver acts on the wrong classical bit with probability p."""
    return ensemble_for_state(ctx, *noisy_input_state(ctx, NoiseSpec("classical_flip", p)))


def depolarize_run(ctx: RunContext, p: float) -> QetOutcome:
    """Resource state mixed with the maximally mixed state on the register."""
    return ensemble_for_state(ctx, *noisy_input_state(ctx, NoiseSpec("depolarize", p)))


def excited_mixture_run(ctx: RunContext, p: float) -> QetOutcome:
    """Resource state mixed with the first excited level (uniform if degenerate)."""
    return ensemble_for_state(ctx, *noisy_input_state(ctx, NoiseSpec("excited_mixture", p)))


def excited_superposition_run(ctx: RunContext, p: float, alpha: float = 0.0) -> QetOutcome:
    """Coherent admixture sqrt(1-p) |gs> + e^{i alpha} sqrt(p) |1>.

    A degenerate excited level gives its first eigenvector in the fixed gauge.
    """
    noise = NoiseSpec("excited_superposition", p, alpha=alpha)
    return ensemble_for_state(ctx, *noisy_input_state(ctx, noise))


def pauli_flip_run(ctx: RunContext, axis: str, site: int, p: float) -> QetOutcome:
    """Bit-flip (X) or phase-flip (Z) error at one site with probability p."""
    if axis not in ("X", "Z"):
        raise ValueError(f"flip axis must be X or Z, got {axis!r}")
    kind = "bit_flip" if axis == "X" else "phase_flip"
    return ensemble_for_state(ctx, *noisy_input_state(ctx, NoiseSpec(kind, p, site=site)))


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


def _kraus_output(ctx: RunContext, site: int,
                  kraus_ops: list[np.ndarray] | tuple[np.ndarray, ...],
                  ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Validated channel output sum_a K_a rho K_a†, and the 2x2 operators."""
    if site == ctx.alice.site or site == ctx.rule.site:
        raise SupportViolationError(f"site {site} belongs to a protocol party")
    if not 0 <= site < ctx.n_sites:
        raise ValueError(f"site {site} out of range")
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    for k in ops:
        if k.shape != (2, 2):
            raise SupportViolationError("Kraus operators must be single-site 2x2")
    defect = frobenius(sum(k.conj().T @ k for k in ops) - np.eye(2))
    if defect > TOL.trace_one:
        raise CompletenessViolationError(
            f"sum K† K deviates from identity by {defect:.3e}")
    return sum(sandwich(k, site, ctx.rho_gs) for k in ops), ops


def kraus_state(ctx: RunContext, site: int,
                kraus_ops: list[np.ndarray] | tuple[np.ndarray, ...],
                ) -> tuple[np.ndarray, KrausCheck]:
    """Channel output sum_a K_a rho K_a† plus the locality report.

    ``kraus_ops`` are 2x2 matrices acting on ``site``.  Raises
    SupportViolationError if the site belongs to the sender or receiver
    and CompletenessViolationError if sum K† K != 1.
    """
    sigma, ops = _kraus_output(ctx, site, kraus_ops)

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
    return sigma, check


def local_kraus_run(ctx: RunContext, site: int,
                    kraus_ops: list[np.ndarray] | tuple[np.ndarray, ...],
                    ) -> tuple[QetOutcome, KrausCheck]:
    """Apply a single-site Kraus channel at a bystander site, then run."""
    sigma, check = kraus_state(ctx, site, kraus_ops)
    return ensemble_for_state(ctx, sigma), check


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


def threshold_scan(ctx: RunContext, family: str, grid: np.ndarray,
                   **family_kwargs) -> ThresholdReport:
    """Energy curves of a noise family over a grid, and where E_B changes sign.

    ``noise_branches(ctx, family, **family_kwargs)`` validates each branch
    state once, and each branch runs through ``ensemble_for_state`` once;
    every grid row and bisection step is then a scalar, the branch
    energies weighted by ``branch_weights`` at that p.
    Only energies above ``TOL.sign_zero`` in magnitude carry a sign; each
    pair of consecutive such grid points with opposite signs is bisected
    to ``TOL.bisection`` in p.  An energy that merely reaches zero, like
    depolarization at p = 1, is no crossing.  ``crossing`` is the first
    crossing, None when the sign never changes.
    """
    branches, coefficients = noise_branches(ctx, family, **family_kwargs)
    outs = [ensemble_for_state(ctx, rho, flip) for rho, flip in branches]
    table = np.array([(out.e_alice, out.e_bob) for out in outs])

    def energies(p: float) -> np.ndarray:  # (E_A, E_B) at p
        return branch_weights(coefficients, p) @ table

    grid = np.asarray(grid, dtype=float)
    e_a, e_b = np.array([energies(p) for p in grid]).reshape(-1, 2).T

    crossings: list[float] = []
    signed = np.flatnonzero(np.abs(e_b) > TOL.sign_zero)
    for i, j in zip(signed[:-1], signed[1:]):
        if (e_b[i] < 0) == (e_b[j] < 0):
            continue
        lo, hi = float(grid[i]), float(grid[j])
        f_lo = e_b[i]
        while hi - lo > TOL.bisection:
            mid = 0.5 * (lo + hi)
            f_mid = energies(mid)[1]
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
