"""Noise channels and sign-change threshold scans.

A ``NoiseSpec`` is the one description of a channel, and every noise
path takes one.  It checks its own parameters when made; a Kraus channel
is checked against the model once, where it meets one (``_kraus_output``).

Every noise family resolves to one to three fixed branch inputs with
scalar weights in p (``noise_branches``).  The protocol energies are
linear in the input state and in the classical flip probability, so a
family's energies at p are the same weighted sum of its branch energies.
A threshold scan tabulates the branches once (``ensemble_energies``,
one conditional table per distinct input) and evaluates its whole grid
as one array product: the scalar basis (1, p, sqrt(p (1 - p))) of every
grid point, times the family's coefficient rows, times the branch
table.  Energies are referenced to the input state itself, so the
reported E_A and E_B are the protocol-induced changes only.

The protocol reads an input only through its marginal on the receiver's
support S (``ReceiverForms``), so each branch is built as its
2^|S| x 2^|S| marginal: no noise family forms a d x d state.  A flip or
Kraus branch is the channel on the ground marginal g alone, and at a
site off S it is g itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessViolationError, SupportViolationError
from .models import chain3, first_excited_levels
from .protocol import (
    MeasurementBasis,
    ReceiverForms,
    RunContext,
    ensemble_energies,
    local_projector,
    prepare,
    run_ensemble,
)
from .spinops import PAULI, commutator, frobenius, require_density_matrix
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
    Its ``kraus_ops`` are kept as complex 2x2 arrays with sum K† K = 1.
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
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.kind in ("bit_flip", "phase_flip", "local_kraus") and self.site is None:
            raise ValueError(f"{self.kind} needs a site")
        if self.kind == "local_kraus":
            if not self.kraus_ops:
                raise ValueError("local_kraus needs Kraus operators")
            ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
            if any(k.shape != (2, 2) for k in ops):
                raise SupportViolationError("Kraus operators must be single-site 2x2")
            defect = frobenius(sum(k.conj().T @ k for k in ops) - np.eye(2))
            if defect > TOL.trace_one:
                raise CompletenessViolationError(
                    f"sum K† K deviates from identity by {defect:.3e}")
            object.__setattr__(self, "kraus_ops", ops)


def mix_state(rho_gs: np.ndarray, sigma: np.ndarray, p: float) -> np.ndarray:
    """(1 - p) rho + p sigma; sigma must itself be a valid density matrix."""
    if rho_gs.shape != sigma.shape:
        raise ValueError("state dimensions do not match")
    require_density_matrix(sigma)
    return (1.0 - p) * rho_gs + p * sigma


# Branch weights as coefficient rows over the scalar basis (1, p, sqrt(p (1 - p))).
_AFFINE = ((1.0, -1.0, 0.0), (0.0, 1.0, 0.0))            # 1 - p, p
_COHERENT = ((1.0, -1.0, -1.0), (0.0, 1.0, -1.0), (0.0, 0.0, 2.0))


def branch_weights(coefficients, p) -> np.ndarray:
    """A family's branch weights at probability p, from its coefficient rows.

    For an array of probabilities the weights run along the last axis, one
    row per entry: the scalar basis (1, p, sqrt(p (1 - p))) times the
    transposed rows.  Each p is its own 1 x 3 row, so numpy makes one
    vector-matrix BLAS call per row, the call a single p makes, and every
    weight rounds as it does at a single p.
    """
    p = np.asarray(p, dtype=float)
    outside = p[~((p >= 0.0) & (p <= 1.0))]  # NaN is outside too
    if outside.size:
        raise ValueError(f"probability must be in [0, 1], got {outside[0]}")
    basis = np.empty(p.shape + (3,))  # filled in place: np.stack of 0-d arrays is slower
    basis[..., 0], basis[..., 1], basis[..., 2] = 1.0, p, np.sqrt(p * (1.0 - p))
    return (basis[..., None, :] @ np.asarray(coefficients).T)[..., 0, :]


def noise_branches(ctx: RunContext, noise: NoiseSpec,
                   forms: ReceiverForms | None = None):
    """The one noise resolver: ((state, classical flip probability), ...), coefficients.

    Each state is a branch's marginal on the support of ``forms``
    (default ``ctx.forms``, the receiver whose support it reduces to);
    ``noise.p`` is not read.  ``classical_flip`` is the ground state at
    flip probability 0 and 1, the mixture families the resource state and
    their noise state, each weighted 1 - p and p.
    ``excited_superposition`` is |g>, |1> and
    |+_alpha> = (|g> + e^{i alpha} |1>) / sqrt(2), weighted 1 - p - c,
    p - c and 2c with c = sqrt(p (1 - p)).  ``local_kraus`` is its channel
    output at every p.  A flip or Kraus channel off the support leaves
    the ground marginal g (``forms.ground``), the same object, so its
    branches share one table.  The excited states' marginals come from
    ``Spectrum.marginal``; |1> is the first column of the first excited
    level.  Every branch state other than g is validated once.
    """
    forms = forms or ctx.forms
    g = forms.ground
    spectrum = ctx.spec.spectrum
    kind = noise.kind
    if kind == "classical_flip":
        return ((g, 0.0), (g, 1.0)), _AFFINE
    coefficients = _AFFINE
    if kind == "depolarize":
        states = (g, np.eye(len(g)) / len(g))
    elif kind in ("bit_flip", "phase_flip"):
        flip = PAULI["X" if kind == "bit_flip" else "Z"]
        states = (g, _site_channel(ctx, forms, g, noise.site, (flip,)))
    elif kind == "excited_mixture":
        states = (g, spectrum.marginal(first_excited_levels(ctx.spec), forms.support))
    elif kind == "excited_superposition":
        first = first_excited_levels(ctx.spec)[0]
        phase = np.exp(1j * (noise.alpha or 0.0))
        states = (g, spectrum.marginal([first], forms.support, (1.0,)),
                  spectrum.marginal([0, first], forms.support, (1.0, phase)))
        coefficients = _COHERENT
    else:  # local_kraus
        states = (_kraus_output(ctx, noise, forms, g),)
        coefficients = ((1.0, 0.0, 0.0),)
    for s in states:
        if s is not g:
            require_density_matrix(s)
    return tuple((s, 0.0) for s in states), coefficients


def noisy_input_state(ctx: RunContext, noise: NoiseSpec,
                      forms: ReceiverForms | None = None) -> tuple[np.ndarray, float]:
    """(input state, classical flip probability): the weighted branches folded.

    The state is the marginal on the support of ``forms`` (default
    ``ctx.forms``).  A family varies its states or its flip
    probabilities, never both.
    """
    branches, coefficients = noise_branches(ctx, noise, forms)
    w = branch_weights(coefficients, noise.p)
    rho = branches[0][0]
    if any(s is not rho for s, _ in branches):
        rho = sum(wk * s for wk, (s, _) in zip(w, branches))
    return rho, float(np.dot(w, [f for _, f in branches]))


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


def _site_channel(ctx: RunContext, forms: ReceiverForms, g: np.ndarray, site: int,
                  ops) -> np.ndarray:
    """sum_a O_a g O_a† for the 2x2 ``ops`` at ``site``, on the support S of
    ``forms``, from the ground marginal g alone.  A site off S returns g
    itself: the channel is trace preserving, so tracing its site out
    undoes it.  A site outside the register raises ValueError."""
    if not 0 <= site < ctx.n_sites:
        raise ValueError(f"site {site} out of range for {ctx.n_sites} sites")
    if site not in forms.support:
        return g
    return sum(o @ g @ o.conj().T for o in (forms.on_site(op, site) for op in ops))


def _kraus_output(ctx: RunContext, noise: NoiseSpec, forms: ReceiverForms,
                  g: np.ndarray) -> np.ndarray:
    """Channel output sum_a K_a rho K_a† as its marginal on the support of
    ``forms``, from that support's ground marginal g.  The site is checked
    against the model here only; a session folds its noise once per
    receiver, so every receiver's site is refused."""
    if noise.site in (ctx.alice.site, forms.site):
        raise SupportViolationError(f"site {noise.site} belongs to a protocol party")
    return _site_channel(ctx, forms, g, noise.site, noise.kraus_ops)


def kraus_state(ctx: RunContext, noise: NoiseSpec) -> tuple[np.ndarray, KrausCheck]:
    """Channel output sum_a K_a rho K_a† plus the locality report.

    ``noise`` is a ``local_kraus`` spec.  The output is its marginal on the
    receiver's support S (``ctx.forms``), which is all ``ensemble_for_state``
    reads of it.  Raises SupportViolationError if the site belongs to the
    sender or receiver.

    S holds the sender site and every site of the H_A and H_B terms, so a
    Kraus site off S commutes with all of them: its defects are exactly
    0.0 and no commutator is built.  At a site in S the commutators are
    taken there, with H_A and H_B from ``forms.parts``: an operator X on S
    is X (x) 1 on the register, so its Frobenius norm there is
    ||X||_F 2^((n - |S|) / 2).
    """
    forms = ctx.forms
    sigma = _kraus_output(ctx, noise, forms, forms.ground)
    defects = {f"K{i}": 0.0 for i in range(len(noise.kraus_ops))}
    if noise.site in forms.support:
        scale = 2.0 ** ((ctx.n_sites - len(forms.support)) / 2)
        others = (*forms.parts, *(forms.on_site(local_projector(ctx.alice, b), ctx.alice.site)
                                  for b in (0, 1)))
        for i, op in enumerate(noise.kraus_ops):
            k_s = forms.on_site(op, noise.site)
            defects[f"K{i}"] = scale * max(frobenius(commutator(k_s, m)) for m in others)
    worst = max(defects.values())
    return sigma, KrausCheck(commutes=worst <= TOL.commutator, max_defect=worst,
                             defects=defects)


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

    ``family_kwargs`` are the ``NoiseSpec`` fields besides the kind and p
    (``site``, ``alpha``, ``kraus_ops``); the spec they make is checked as
    any other.  ``noise_branches`` validates each branch state once, and
    one ``ensemble_energies`` call tabulates each distinct branch input
    once, into a (branch x (E_A, E_B)) table.  The whole grid is then one
    array product, ``branch_weights(coefficients, grid) @ table`` taken
    row by row inside numpy, so each row rounds as a single p does.  Every
    grid point must lie in [0, 1] (ValueError otherwise, NaN included).
    Only energies above ``TOL.sign_zero`` in magnitude carry a sign, so an
    energy that merely reaches zero, like depolarization at p = 1, is no
    crossing; each pair of consecutive such grid points with opposite signs
    brackets one crossing, the root there of the family's E_B(p) =
    a + b p + c sqrt(p (1 - p)) (``_root``), which depends on the family,
    not on the grid or its order.  ``crossing`` is the first crossing in
    grid order, None when the sign never changes.
    """
    branches, coefficients = noise_branches(ctx, NoiseSpec(family, 0.0, **family_kwargs))
    grid = np.asarray(grid, dtype=float)
    weights = branch_weights(coefficients, grid)
    table = ensemble_energies(ctx, branches)
    e_a, e_b = (weights[:, None, :] @ table)[:, 0].T  # row by row, as at one p

    a, b, c = (np.asarray(coefficients).T @ table[:, 1]).tolist()
    signed = np.flatnonzero(np.abs(e_b) > TOL.sign_zero)
    negative = e_b[signed] < 0
    changes = np.flatnonzero(negative[:-1] != negative[1:])
    crossings = [_root(a, b, c, *sorted((float(grid[i]), float(grid[j]))))
                 for i, j in zip(signed[changes], signed[changes + 1])]
    return ThresholdReport(
        family=family,
        grid=tuple(grid.tolist()),
        e_alice=tuple(e_a.tolist()),
        e_bob=tuple(e_b.tolist()),
        crossing=crossings[0] if crossings else None,
        crossings=tuple(crossings),
    )


def _root(a: float, b: float, c: float, lo: float, hi: float) -> float:
    """The p in [lo, hi] where a + b p + c sqrt(p (1 - p)) vanishes: -a / b
    when c == 0 (every affine family), else a root q / (b^2 + c^2) or a^2 / q
    (free of cancellation) of the squared form (b^2 + c^2) p^2 + (2ab - c^2) p
    + a^2 = 0, clamped to [lo, hi]: the one where the unsquared form is
    smaller, so a c of rounding size still lands on the root."""
    if c == 0.0:
        return -a / b
    linear = 2.0 * a * b - c * c
    spread = abs(c) * math.sqrt(max(c * c - 4.0 * a * (a + b), 0.0))
    q = -0.5 * (linear + math.copysign(spread, linear))
    return min((min(max(p, lo), hi) for p in (q / (b * b + c * c), a * a / q)),
               key=lambda p: abs(a + b * p + c * math.sqrt(p * (1.0 - p))))


def report_csv_rows(report: ThresholdReport, coupling: float) -> list[str]:
    """Rows for the ``family,J,p,E_A,E_B`` export, 12 significant digits."""
    prefix = f"{report.family},{coupling:.12g},"
    return [f"{prefix}{p:.12g},{ea:.12g},{eb:.12g}"
            for p, ea, eb in zip(report.grid, report.e_alice, report.e_bob)]


# ---------------------------------------------------------------------------
# reference coupling for the chain model
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def default_chain_coupling() -> float:
    """Coupling minimizing the noiseless random-basis receiver energy.

    Golden-section search to 1e-3 over J in [0.05, 5]; this is the
    operating point used for flip-noise and excited-state scans.
    """
    def objective(j: float) -> float:  # the mean of the X- and Y-basis runs
        spec, partition = chain3(j)
        return 0.5 * sum(run_ensemble(prepare(spec, partition, basis)).e_bob
                         for basis in (MeasurementBasis.x(0), MeasurementBasis.y(0)))

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
