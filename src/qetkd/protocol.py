"""Protocol kernel: measurement, conditioned rotation, optimal angle.

One round of the energy-teleportation protocol on a resource ground
state |gs> of a partitioned Hamiltonian:

1. the sender projects her site with P(b) = (1 - (-1)^b n.sigma) / 2 and
   announces the outcome bit (possibly remapped by the encoding rule);
2. the receiver applies U(b') = exp(-i theta (-1)^{b'} m.sigma) on his
   site;
3. energies are read off as Tr[rho H_part] - Tr[rho_in H_part], i.e. as
   deviations from the pre-measurement state.

The rotation angle comes from the ground-state parameters

    xi  = <gs| sB H sB |gs>          (H shifted to zero ground energy)
    eta = <gs| sA . i [sB, H] |gs>

via cos(2 theta) = xi / sqrt(xi^2 + eta^2) and sin(2 theta) = eta / ...,
which minimizes the receiver's ensemble energy to (xi - sqrt(xi^2 +
eta^2)) / 2.

Every operator the protocol reads is local: P(b) acts on the sender
site, U(b') on the receiver site, H_A and H_B on the sites of their
terms, and xi and eta read only the terms of H that touch the receiver
site.  So one kernel, ``ReceiverForms``, evaluates all of it exactly on
the reduced state of the union S of those sites (2 or 3 sites on every
model, at any register size); no d x d operator is built for it, and the
ground state enters only as its marginal on S (``Spectrum.marginal``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGroundError,
    DegenerateObjectiveError,
    ImaginaryResidueError,
    PartitionViolationError,
)
from .models import ALICE, BOB, HamiltonianSpec, Partition
from .rng import SUBSTREAM, stream
from .spinops import (
    PauliTerm,
    axis_operator,
    degeneracy_tolerance,
    eigendecompose,
    on_support,
    pure_density,
    reduced_density,
    require_unit_vector,
    site_operator,
    site_paulis,
)
from .tolerances import TOL


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction n.sigma at one site."""

    site: int
    vector: tuple[float, float, float]

    def __post_init__(self):
        require_unit_vector(np.asarray(self.vector, dtype=float))

    @classmethod
    def x(cls, site: int) -> "MeasurementBasis":
        return cls(site, (1.0, 0.0, 0.0))

    @classmethod
    def y(cls, site: int) -> "MeasurementBasis":
        return cls(site, (0.0, 1.0, 0.0))

def local_projector(basis: MeasurementBasis, b: int) -> np.ndarray:
    """2x2 factor of P(b) = (1 - (-1)^b n.sigma) / 2 at the basis site."""
    if b not in (0, 1):
        raise ValueError(f"outcome bit must be 0 or 1, got {b}")
    return 0.5 * (np.eye(2) - (-1.0) ** b * axis_operator(basis.vector))


@dataclass(frozen=True)
class ThetaParams:
    """Ground-state parameters fixing the feedback angle."""

    xi: float
    eta: float
    theta: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.xi, self.eta)

    def optimal_energy(self) -> float:
        """Receiver's ensemble energy at the optimal angle: (xi - |.|) / 2."""
        return 0.5 * (self.xi - self.magnitude)


@dataclass(frozen=True)
class FeedbackRule:
    """Receiver rotation U(b') = exp(-i theta (-1)^{b'} m.sigma).

    ``bit_map`` is the sender-side encoding applied to the measured bit
    before it is announced: "identity" transmits b, "flip" transmits
    b xor 1.
    """

    site: int
    vector: tuple[float, float, float]
    theta: float
    bit_map: str = "identity"

    def __post_init__(self):
        require_unit_vector(np.asarray(self.vector, dtype=float))
        if self.bit_map not in ("identity", "flip"):
            raise ValueError(f"unknown bit map {self.bit_map!r}")

    def mapped(self, b: int) -> int:
        return b ^ 1 if self.bit_map == "flip" else b

    def local_rotation(self, announced: int) -> np.ndarray:
        """2x2 factor of the rotation for an announced bit; (m.sigma)^2 = 1 keeps it closed-form."""
        m_sigma = axis_operator(self.vector)
        sign = (-1.0) ** announced
        return math.cos(self.theta) * np.eye(2) - 1j * sign * math.sin(self.theta) * m_sigma


@dataclass(frozen=True)
class QetOutcome:
    """Ensemble energies plus the per-outcome breakdown."""

    e_alice: float
    e_bob: float
    per_outcome: dict[int, tuple[float, float]]  # b -> (probability, energy)

    def probabilities(self) -> tuple[float, float]:
        return self.per_outcome[0][0], self.per_outcome[1][0]


# ---------------------------------------------------------------------------
# ground state and receiver axis
# ---------------------------------------------------------------------------

def ground_energy(spec: HamiltonianSpec) -> float:
    """The ground energy, read off the levels of H.

    Raises DegenerateGroundError when the lowest level is degenerate
    (for the chain and star families this happens in the infinite-
    coupling limit; reduce the coupling).
    """
    spectrum = spec.spectrum
    if spectrum.gap <= degeneracy_tolerance(spectrum.levels):
        raise DegenerateGroundError(
            f"ground level of {spec.name} is degenerate (gap {spectrum.gap:.3e})")
    return float(spectrum.levels[0])


def ground_state(spec: HamiltonianSpec) -> tuple[np.ndarray, float]:
    """Unique ground state, as a register vector with its largest amplitude
    rotated real positive, and its energy (``ground_energy``).  No protocol
    path reads the vector; more than ``spinops.MAX_SITES`` sites raise
    ModelParameterError.
    """
    energy = ground_energy(spec)
    return spec.spectrum.vectors([0])[:, 0].astype(complex), energy


def feedback_axes(forms: ReceiverForms, n: np.ndarray, bob_axis: str) -> np.ndarray:
    """Receiver axis per sender axis row of ``n``: "optimal" or "paired".

    "optimal" maximizes eta on every row (``optimize_bob_basis``); "paired"
    is the fixed pairing X -> Y and Y -> X, and any other row falls back
    to the optimal axis.
    """
    if bob_axis not in ("paired", "optimal"):
        raise ValueError(f"unknown bob_axis {bob_axis!r}")
    if bob_axis == "optimal":
        return optimize_bob_basis(forms, n)
    near = np.abs(n[:, None, :] - _UNIT[:2]).max(axis=2) <= 1e-12  # [row, X or Y]
    m = _UNIT[1 - near.argmax(axis=1)]  # the pairing; meaningless where not paired
    fallback = ~near.any(axis=1)
    if fallback.any():
        m[fallback] = optimize_bob_basis(forms, n[fallback])
    return m


_UNIT = np.eye(3)  # the X, Y and Z axes
_UNIT.flags.writeable = False


def optimize_bob_basis(forms: ReceiverForms, n: np.ndarray) -> np.ndarray:
    """Feedback axis maximizing eta, one row per sender axis row of ``n``.

    eta(n, m) = n^T C m is linear in the receiver axis m, so the maximizer
    is the normalized coefficient vector C^T n.  Raises
    DegenerateObjectiveError when every coefficient of a row vanishes (no
    energy can be teleported for that sender basis).
    """
    coeffs = forms.coefficients(n)
    norm = np.linalg.norm(coeffs, axis=1, keepdims=True)
    if np.any(norm < TOL.objective):
        raise DegenerateObjectiveError(
            "feedback objective vanishes for this sender basis; resample"
        )
    return coeffs / norm


# ---------------------------------------------------------------------------
# the kernel: one receiver's closed forms on the support of its operators
# ---------------------------------------------------------------------------

class ConditionalTable(NamedTuple):
    """Unnormalized per-outcome traces of one input state rho.

    A batched table (``ReceiverForms.table``) puts one leading axis in
    front of every field.
    """

    prob: np.ndarray   # [b] Tr[P_b rho]
    alice: np.ndarray  # [b] Tr[P_b rho P_b H_A]
    pre: np.ndarray    # [b] Tr[P_b rho P_b H_B]
    post: np.ndarray   # [b, b'] Tr[U_b' P_b rho P_b U_b'† H_B], b' the announced bit

    def per_outcome(self, traces: np.ndarray, reference=0.0) -> np.ndarray:
        """traces[b] / prob[b] - reference; 0 for an outcome that never occurs."""
        prob = self.prob.reshape(self.prob.shape + (1,) * (np.ndim(traces) - self.prob.ndim))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = traces / prob - reference
        return np.where(prob > TOL.outcome, value, 0.0)

    def decode(self) -> np.ndarray:
        """[b, b'] energy the rotation extracts from the conditional state."""
        return self.per_outcome(self.post, self.per_outcome(self.pre)[..., None])


_SIGNS = np.array([1.0, -1.0])  # (-1)^b


def _require_real(values: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.abs(values.imag).max(initial=0.0))
    if residue > TOL.imaginary_residue:
        raise ImaginaryResidueError(f"{what} has imaginary residue {residue:.3e}")
    return values.real


@dataclass(frozen=True)
class ReceiverForms:
    """The protocol kernel of one sender site and one receiver.

    Everything lives on the support S: the sender site, the receiver site,
    the sites of the H_A and H_B terms and of every term of H that touches
    the receiver site.  With sigma_0 = tau_0 = 1 and the Paulis sigma_i at
    the sender site and tau_k at the receiver site, an input state rho
    enters through its marginal rho_S alone:

        T[i, j, k, l] = Tr[sigma_i rho sigma_j tau_k H_B tau_l],
        A[i, j] = Tr[sigma_i rho sigma_j H_A],   bloch[i] = Tr[sigma_i rho],

    so P(b) = sum_i a_i sigma_i and U(b') = sum_k u_k tau_k turn every trace
    of ``ConditionalTable`` into a contraction.  The ground state fixes
    three 3x3 forms: eta(n, m) = n^T C m, xi(m) = m^T Q m and the partition
    defect ||[n.sigma, H_B]||_F / 2 = sqrt(n^T G n) / 2.  Every method takes
    one row per basis, so a whole session is one batched call.
    """

    site: int                                  # receiver site
    support: tuple[int, ...]                   # S, ascending
    ground: np.ndarray = field(repr=False)     # the ground state's marginal on S
    sig: np.ndarray = field(repr=False)        # [i] sigma_i on S
    parts: np.ndarray = field(repr=False)      # [H_A, H_B] on S
    inner: np.ndarray = field(repr=False)      # [k, l] tau_k H_B tau_l on S
    c: np.ndarray = field(repr=False)          # [sender axis, receiver axis], complex
    q: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)

    def marginal(self, state: np.ndarray) -> np.ndarray:
        """Reduced state on S of a state vector or density matrix.

        A density matrix already on S passes through, so a caller that
        reads several traces of one input reduces it once.
        """
        if state.ndim == 2 and len(state) == 2 ** len(self.support):
            return state
        return reduced_density(state, list(self.support))

    def on_site(self, op: np.ndarray, site: int) -> np.ndarray:
        """The 2x2 ``op`` at ``site`` as a matrix on S; a site off S raises ValueError."""
        if site not in self.support:
            raise ValueError(f"site {site} is outside the receiver's support {self.support}")
        return site_operator(op, self.support.index(site), len(self.support))

    def reference(self, state: np.ndarray) -> np.ndarray:
        """(Tr[rho H_A], Tr[rho H_B]) of a state vector or density matrix."""
        return _require_real(np.einsum("xab,ba->x", self.parts, self.marginal(state)),
                             "reference energy")

    def defect(self, n: np.ndarray) -> np.ndarray:
        """||[n.sigma, H_B]||_F / 2 on the whole register, per sender axis row."""
        return 0.5 * np.sqrt(np.maximum(np.einsum("xi,ij,xj->x", n, self.g, n), 0.0))

    def require_commuting(self, n: np.ndarray) -> None:
        """Raise PartitionViolationError unless every P(b) commutes with H_B."""
        defect = float(self.defect(n).max(initial=0.0))
        if defect > TOL.commutator:
            raise PartitionViolationError(defect)

    def coefficients(self, n: np.ndarray) -> np.ndarray:
        """C^T n: eta is m . C^T n, so ``optimize_bob_basis`` picks its direction."""
        return _require_real(n @ self.c, "axis coefficient")

    def theta(self, n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xi, eta, theta) per row, theta on the principal branch."""
        xi = np.einsum("xi,ij,xj->x", m, self.q, m)
        if (xi < -TOL.psd).any():
            raise ValueError(f"xi = {xi.min():.3e} is negative; shifted Hamiltonian not PSD")
        eta = _require_real(np.einsum("xj,ji,xi->x", n, self.c, m), "eta")
        return xi, eta, 0.5 * np.arctan2(eta, xi)

    def table(self, state: np.ndarray, n: np.ndarray, m: np.ndarray,
              theta: np.ndarray) -> ConditionalTable:
        """Every per-outcome trace of ``state`` for each row of (n, m, theta).

        ``state`` is a density matrix or a state vector psi, which stands
        for |psi><psi|; it is reduced to S once.
        """
        rho = self.marginal(state)
        outer = self.sig[:, None] @ rho @ self.sig[None, :]  # [i, j] sigma_i rho sigma_j
        tensor = np.einsum("ijab,klba->ijkl", outer, self.inner).reshape(16, 16)
        alice = np.einsum("ijab,ba->ij", outer, self.parts[0]).reshape(16)
        bloch = np.einsum("iab,ba->i", self.sig, rho).real
        a = np.empty((len(n), 2, 4))
        a[..., 0] = 0.5
        a[..., 1:] = -0.5 * _SIGNS[:, None] * n[:, None, :]
        u = np.empty((len(n), 2, 4), dtype=complex)
        u[..., 0] = np.cos(theta)[:, None]
        u[..., 1:] = (-1j * np.sin(theta))[:, None, None] * _SIGNS[:, None] * m[:, None, :]
        aa = (a[..., :, None] * a[..., None, :]).reshape(-1, 2, 16)
        uu = (u.conj()[..., :, None] * u[..., None, :]).reshape(-1, 2, 16)
        left = aa @ tensor
        post = np.einsum("xbq,xcq->xbc", left, uu).real
        return ConditionalTable(prob=a @ bloch, alice=(aa @ alice).real,
                                pre=left[..., 0].real, post=post)


def _receiver_site(terms: tuple[PauliTerm, ...]) -> int:
    sites = {t.factors[0][0] for t in terms if len(t.factors) == 1}
    if len(sites) != 1:
        raise ValueError("cannot infer the receiver site from the partition part")
    return sites.pop()


def receiver_forms(spec: HamiltonianSpec, partition: Partition, alice_site: int,
                   bob_label: str) -> ReceiverForms:
    """``ReceiverForms`` of the receiver ``bob_label`` against the sender part
    ``ALICE``, read off the ground state's marginal on its support,
    ``spec.spectrum.marginal([0], S)``.

    C and Q need [tau_j, H] = [tau_j, H_loc], with H_loc the terms of H
    that touch the receiver site, and (H - E_0)|gs> = 0 turns xi into
    <gs| tau_i [H, tau_j] |gs>: both are traces against the marginal.
    """
    if not 0 <= alice_site < spec.n_sites:
        raise ValueError(f"site {alice_site} out of range for {spec.n_sites} sites")
    for label in (ALICE, bob_label):
        if label not in partition.parts:
            raise ValueError(f"partition has no part {label!r}; its labels are "
                             f"{', '.join(partition.labels())}")
    a_terms, b_terms = partition.parts[ALICE], partition.parts[bob_label]
    site = _receiver_site(b_terms)
    local = tuple(t for t in spec.terms for s, _ in t.factors if s == site)  # no site repeats
    support = sorted({alice_site, site, *(s for t in (*a_terms, *b_terms, *local)
                                           for s, _ in t.factors)})
    k = len(support)
    h_a, h_b = on_support(a_terms, support), on_support(b_terms, support)
    h_loc = h_b if local == b_terms else on_support(local, support)  # the star's, chain3's
    sig, tau = site_paulis(support.index(alice_site), k), site_paulis(support.index(site), k)
    comm = sig[1:] @ h_b - h_b @ sig[1:]
    g = 2.0 ** (spec.n_sites - k) * np.einsum("jab,lab->jl", comm.conj(), comm).real
    ground = spec.spectrum.marginal([0], support).astype(complex, copy=False)
    t_rho = (tau[1:] @ h_loc - h_loc @ tau[1:]) @ ground
    c = 1j * np.einsum("iab,jba->ij", sig[1:], t_rho)  # i Tr[sigma_i [tau_j, H] rho]
    q = -np.einsum("iab,jba->ij", tau[1:], t_rho).real  # Tr[tau_i [H, tau_j] rho]
    return ReceiverForms(site=site, support=tuple(support), ground=ground, sig=sig,
                         parts=np.array([h_a, h_b]), inner=tau[:, None] @ h_b @ tau[None, :],
                         c=c, q=q, g=g)


# ---------------------------------------------------------------------------
# prepared protocol context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunContext:
    """Everything one protocol configuration needs, precomputed.

    ``forms`` is the receiver's kernel; every trace the protocol reports
    comes from it, and the resource state is its ground marginal on S
    (``ground``).
    """

    spec: HamiltonianSpec
    partition: Partition
    alice: MeasurementBasis
    rule: FeedbackRule
    theta: ThetaParams
    bob_label: str
    forms: ReceiverForms = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    @property
    def ground(self) -> np.ndarray:
        """The ground state's marginal on the receiver's support S."""
        return self.forms.ground

    @functools.cached_property
    def gs(self) -> np.ndarray:
        """The ground state's register vector (``ground_state``), built on first
        read; more than ``spinops.MAX_SITES`` sites raise ModelParameterError."""
        return ground_state(self.spec)[0]

    @functools.cached_property
    def rho_gs(self) -> np.ndarray:
        """|gs><gs| as a d x d matrix, built on first read."""
        return pure_density(self.gs)

    def round_operator(self, announced: int, b: int | None = None,
                       basis: MeasurementBasis | None = None) -> np.ndarray:
        """U(announced) P(b) on the receiver's support S, from their 2x2 factors.

        P(b) projects on outcome b of ``basis`` (default the sender's); with
        b None the operator is the rotation alone.  A basis off S raises
        ValueError.
        """
        op = self.forms.on_site(self.rule.local_rotation(announced), self.rule.site)
        if b is None:
            return op
        basis = basis or self.alice
        return op @ self.forms.on_site(local_projector(basis, b), basis.site)


def prepare(spec: HamiltonianSpec, partition: Partition,
            alice: MeasurementBasis, *,
            bob_label: str = BOB,
            bob_axis: MeasurementBasis | str = "paired",
            bit_map: str = "identity") -> RunContext:
    """Build the receiver's forms, validate commutation, resolve the axis and angle.

    ``bob_axis`` may be an explicit MeasurementBasis, "paired" (X->Y,
    Y->X, anything else falls back to the optimizer) or "optimal".
    """
    ground_energy(spec)
    forms = receiver_forms(spec, partition, alice.site, bob_label)
    n = np.array([alice.vector], dtype=float)
    forms.require_commuting(n)

    if isinstance(bob_axis, MeasurementBasis):
        if bob_axis.site != forms.site:
            raise ValueError(
                f"feedback axis sits on site {bob_axis.site}, "
                f"but the receiver part lives on site {forms.site}"
            )
        m = np.array([bob_axis.vector], dtype=float)
    else:
        m = feedback_axes(forms, n, bob_axis)

    tp = ThetaParams(*(float(v[0]) for v in forms.theta(n, m)))
    rule = FeedbackRule(forms.site, tuple(float(c) for c in m[0]), tp.theta, bit_map)
    return RunContext(
        spec=spec, partition=partition, alice=alice, rule=rule, theta=tp,
        bob_label=bob_label, forms=forms,
    )


# ---------------------------------------------------------------------------
# exact ensemble evolution
# ---------------------------------------------------------------------------

def conditional_table(ctx: RunContext, state: np.ndarray) -> ConditionalTable:
    """Every per-outcome trace of ``state`` under ``ctx``: one row of ``ctx.forms.table``."""
    table = ctx.forms.table(state, np.array([ctx.alice.vector], dtype=float),
                            np.array([ctx.rule.vector]), np.array([ctx.rule.theta]))
    return ConditionalTable(*(f[0] for f in table))


def _input_traces(ctx: RunContext, rho_in: np.ndarray, flips):
    """(table, weight, reference energies, receiver traces [..., b]) of one input.

    ``flips`` is one flip probability, or a column of them [flip, 1]: one
    conditional table serves them all.
    """
    rho = ctx.forms.marginal(rho_in)
    table = conditional_table(ctx, rho)
    weight = table.prob.sum()  # Tr rho, or ||psi||^2 for a vector
    kept, crossed = table.post.diagonal(), table.post[:, ::-1].diagonal()  # [b]: b' = b, b ^ 1
    if ctx.rule.mapped(0):
        kept, crossed = crossed, kept
    energy = (1.0 - flips) * kept + flips * crossed
    return table, weight, ctx.forms.reference(rho) / weight, energy


def ensemble_for_state(ctx: RunContext, rho_in: np.ndarray,
                       flip_probability: float = 0.0) -> QetOutcome:
    """Run the protocol on an arbitrary input state (density matrix or vector).

    Energies are referenced to rho_in itself, so noisy inputs report the
    protocol-induced change only.  ``flip_probability`` is the chance
    that the receiver acts on the wrong classical bit.  Traces are divided
    by the input's weight, so the ensemble energies are the
    probability-weighted means of the per-outcome ones.
    """
    table, weight, (ref_a, ref_b), energy = _input_traces(ctx, rho_in, float(flip_probability))
    per_energy = table.per_outcome(energy, ref_b)
    per = {b: (float(table.prob[b] / weight), float(per_energy[b])) for b in (0, 1)}
    return QetOutcome(e_alice=float(table.alice.sum() / weight - ref_a),
                      e_bob=float(energy.sum() / weight - ref_b), per_outcome=per)


def ensemble_energies(ctx: RunContext, branches) -> np.ndarray:
    """(E_A, E_B) rows of ``ensemble_for_state`` for each (input, flip probability) branch.

    Each distinct input object is tabulated once: branches that share an
    input at several flip probabilities read one conditional table.
    """
    out = np.empty((len(branches), 2))
    shared: dict[int, list[int]] = {}  # input object -> its branch rows
    for i, (rho_in, _) in enumerate(branches):
        shared.setdefault(id(rho_in), []).append(i)
    for rows in shared.values():
        table, weight, (ref_a, ref_b), energy = _input_traces(
            ctx, branches[rows[0]][0], np.array([[branches[i][1]] for i in rows], dtype=float))
        out[rows, 0] = table.alice.sum() / weight - ref_a
        out[rows, 1] = energy.sum(axis=1) / weight - ref_b
    return out


def run_ensemble(ctx: RunContext) -> QetOutcome:
    """Exact ensemble energies on the resource ground state (its marginal on S)."""
    return ensemble_for_state(ctx, ctx.ground)


def run_ensemble_random_basis(spec: HamiltonianSpec, partition: Partition,
                              weighted_bases: list[tuple[MeasurementBasis, float]],
                              *, bob_axis: MeasurementBasis | str = "paired",
                              bit_map: str = "identity",
                              bob_label: str = BOB) -> QetOutcome:
    """Weight-averaged outcome over a set of sender bases.

    Each basis is paired with its own receiver axis and angle; by
    linearity of the trace the result is the weighted mean of the
    per-basis outcomes.
    """
    weights = [w for _, w in weighted_bases]
    if any(not 0.0 <= w <= 1.0 for w in weights):
        raise ValueError(f"weights must lie in [0, 1], got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    e_a = e_b = 0.0
    prob = {0: 0.0, 1: 0.0}
    mean_energy = {0: 0.0, 1: 0.0}
    for basis, w in weighted_bases:
        if w == 0.0:
            continue
        ctx = prepare(spec, partition, basis, bob_axis=bob_axis, bit_map=bit_map,
                      bob_label=bob_label)
        out = run_ensemble(ctx)
        e_a += w * out.e_alice
        e_b += w * out.e_bob
        for b in (0, 1):
            p, e = out.per_outcome[b]
            prob[b] += w * p
            mean_energy[b] += w * p * e
    per = {
        b: (prob[b], mean_energy[b] / prob[b] if prob[b] > TOL.outcome else 0.0)
        for b in (0, 1)
    }
    return QetOutcome(e_alice=e_a, e_bob=e_b, per_outcome=per)


# ---------------------------------------------------------------------------
# sampled rounds
# ---------------------------------------------------------------------------

def run_rounds(ctx: RunContext, n_rounds: int, seed: int,
               shot_noise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling of rounds: outcome bits and conditional energies;
    identical seeds give identical arrays.

    The default records the exact conditional expectation each round.
    With ``shot_noise`` the receiver instead projectively samples an
    eigenvalue of his part, read off the marginal of his conditional
    state on the support; the mean is unchanged but single rounds
    scatter over the spectrum.
    """
    out = run_ensemble(ctx)
    p0 = out.per_outcome[0][0]
    rng = stream(seed, SUBSTREAM["rounds"])
    bits = (rng.random(n_rounds) >= p0).astype(np.int64)
    if not shot_noise:
        table = np.array([out.per_outcome[0][1], out.per_outcome[1][1]])
        return bits, table[bits]

    evals, evecs = eigendecompose(ctx.forms.parts[1])
    rho = ctx.ground
    ref = ctx.forms.reference(rho)[1]
    energies = np.empty(n_rounds)
    for b in (0, 1):
        op = ctx.round_operator(ctx.rule.mapped(b), b)
        # <e_i| U P rho P U† |e_i>, clipped: a rounded zero weight may come out below 0
        w = np.maximum(np.einsum("ai,ab,bi->i", evecs.conj(), op @ rho @ op.conj().T,
                                 evecs).real, 0.0)
        mask = bits == b
        count = int(mask.sum())
        if count:
            idx = rng.choice(len(evals), size=count, p=w / w.sum())
            energies[mask] = evals[idx] - ref
    return bits, energies
