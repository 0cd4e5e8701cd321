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
eta^2)) / 2.  All evolution is exact at the density-matrix level; P(b)
and U(b') are kept as their 2x2 factors and applied on their one site.
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
from .models import ALICE, BOB, HamiltonianSpec, Partition, PartitionPart
from .rng import SUBSTREAM, stream
from .spinops import (
    AXES,
    PAULI,
    PauliTerm,
    apply_on_site,
    assemble,
    axis_operator,
    degeneracy_tolerance,
    eigendecompose,
    expectation,
    frobenius,
    pure_density,
    reduced_density,
    require_unit_vector,
    sandwich,
    site_operator,
    vector_observable,
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

    @classmethod
    def z(cls, site: int) -> "MeasurementBasis":
        return cls(site, (0.0, 0.0, 1.0))

    @classmethod
    def haar_random(cls, site: int, rng: np.random.Generator) -> "MeasurementBasis":
        """Uniform direction on the 2-sphere (normalized 3-d Gaussian)."""
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        return cls(site, tuple(float(c) for c in v))

    def observable(self, n_sites: int) -> np.ndarray:
        return vector_observable(np.asarray(self.vector), self.site, n_sites)


def local_projector(basis: MeasurementBasis, b: int) -> np.ndarray:
    """2x2 factor of P(b) = (1 - (-1)^b n.sigma) / 2 at the basis site."""
    if b not in (0, 1):
        raise ValueError(f"outcome bit must be 0 or 1, got {b}")
    return 0.5 * (np.eye(2) - (-1.0) ** b * axis_operator(basis.vector))


def projector(basis: MeasurementBasis, b: int, n_sites: int) -> np.ndarray:
    """P(b) = (1 - (-1)^b n.sigma) / 2 on the whole register."""
    return site_operator(local_projector(basis, b), basis.site, n_sites)


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

    def observable(self, n_sites: int) -> np.ndarray:
        return vector_observable(np.asarray(self.vector), self.site, n_sites)

    def local_rotation(self, announced: int) -> np.ndarray:
        """2x2 factor of the rotation for an announced bit.

        (m.sigma)^2 = 1 keeps it closed-form.
        """
        sign = (-1.0) ** announced
        return (math.cos(self.theta) * np.eye(2)
                - 1j * sign * math.sin(self.theta) * axis_operator(self.vector))

    def rotation(self, announced: int, n_sites: int) -> np.ndarray:
        """Rotation for a given announced bit on the whole register."""
        return site_operator(self.local_rotation(announced), self.site, n_sites)

    def unitary(self, outcome: int, n_sites: int) -> np.ndarray:
        """Rotation the receiver applies when the sender measured ``outcome``."""
        return self.rotation(self.mapped(outcome), n_sites)


@dataclass(frozen=True)
class QetOutcome:
    """Ensemble energies plus the per-outcome breakdown."""

    e_alice: float
    e_bob: float
    per_outcome: dict[int, tuple[float, float]]  # b -> (probability, energy)

    def probabilities(self) -> tuple[float, float]:
        return self.per_outcome[0][0], self.per_outcome[1][0]


@dataclass(frozen=True)
class RoundRecord:
    outcome: int
    transmitted: int
    energy: float
    decoded: int  # 1 for negative receiver energy, 0 otherwise


# ---------------------------------------------------------------------------
# ground state and angle parameters
# ---------------------------------------------------------------------------

def ground_state(spec: HamiltonianSpec) -> tuple[np.ndarray, float]:
    """Unique ground state with the largest amplitude rotated real positive.

    Raises DegenerateGroundError when the lowest level is degenerate
    (for the chain and star families this happens in the infinite-
    coupling limit; reduce the coupling).
    """
    evals, evecs = spec.spectrum
    if evals[1] - evals[0] <= degeneracy_tolerance(evals):
        raise DegenerateGroundError(
            f"ground level of {spec.name} is degenerate "
            f"(gap {evals[1] - evals[0]:.3e})"
        )
    gs = evecs[:, 0].astype(complex)
    pivot = int(np.argmax(np.abs(gs)))
    phase = gs[pivot] / abs(gs[pivot])
    gs = gs * phase.conjugate()
    return gs, float(evals[0])


def validate_partition(basis: MeasurementBasis, part_b: np.ndarray,
                       n_sites: int) -> float:
    """Frobenius norm of [P(b), H_B]; anything above tolerance breaks the protocol.

    [P(b), H_B] = -(-1)^b [n.sigma, H_B] / 2, so both outcomes share one norm.
    """
    if not 0 <= basis.site < n_sites:
        raise ValueError(f"site {basis.site} out of range for {n_sites} sites")
    a = axis_operator(basis.vector)
    left = apply_on_site(a, basis.site, part_b)                  # (n.sigma) H_B
    right = apply_on_site(a.T, n_sites + basis.site, part_b)     # H_B (n.sigma)
    return 0.5 * frobenius(left - right)


def theta_params(gs: np.ndarray, h_full: np.ndarray, sigma_a: np.ndarray,
                 sigma_b: np.ndarray) -> ThetaParams:
    """xi, eta and the principal-branch angle for one sender/receiver pair."""
    dim = h_full.shape[0]
    h_shifted = h_full - expectation(gs, h_full) * np.eye(dim)
    sb_gs = sigma_b @ gs
    xi = expectation(sb_gs, h_shifted)
    if xi < -TOL.psd:
        raise ValueError(f"xi = {xi:.3e} is negative; shifted Hamiltonian not PSD")
    # <gs| sA i [sB, H] |gs> from matrix-vector products alone.
    sa_gs = sigma_a @ gs
    raw = 1j * complex(np.vdot(sa_gs, sigma_b @ (h_shifted @ gs))
                       - np.vdot(sa_gs, h_shifted @ sb_gs))
    if abs(raw.imag) > TOL.imaginary_residue:
        raise ImaginaryResidueError(
            f"eta has imaginary residue {raw.imag:.3e}; unsupported operator pair"
        )
    eta = raw.real
    theta = 0.5 * math.atan2(eta, xi)
    return ThetaParams(xi=xi, eta=eta, theta=theta)


def optimize_bob_basis(gs: np.ndarray, spec: HamiltonianSpec,
                       sigma_a: np.ndarray, bob_site: int,
                       ) -> tuple[np.ndarray, ThetaParams]:
    """Feedback axis maximizing eta.

    eta is linear in the axis vector, eta(m) = sum_i m_i <gs| sA . i
    [sigma_i, H] |gs>, so the maximizer is the normalized coefficient
    vector.  Raises DegenerateObjectiveError when every coefficient
    vanishes (no energy can be teleported for this sender basis).
    """
    h_full = spec.matrix()
    sa_gs = sigma_a @ gs
    h_gs = h_full @ gs
    coeffs = np.zeros(3)
    for i, axis in enumerate(AXES):
        sb = PAULI[axis]
        raw = 1j * complex(np.vdot(sa_gs, apply_on_site(sb, bob_site, h_gs))
                           - np.vdot(sa_gs, h_full @ apply_on_site(sb, bob_site, gs)))
        if abs(raw.imag) > TOL.imaginary_residue:
            raise ImaginaryResidueError(
                f"axis coefficient for {axis} has imaginary residue {raw.imag:.3e}"
            )
        coeffs[i] = raw.real
    norm = float(np.linalg.norm(coeffs))
    if norm < TOL.objective:
        raise DegenerateObjectiveError(
            "feedback objective vanishes for this sender basis; resample"
        )
    m = coeffs / norm
    sigma_b = vector_observable(m, bob_site, spec.n_sites)
    return m, theta_params(gs, h_full, sigma_a, sigma_b)


def paired_feedback_axis(alice: MeasurementBasis, bob_site: int) -> MeasurementBasis:
    """Fixed sender->receiver axis pairing: X -> Y and Y -> X."""
    v = np.asarray(alice.vector)
    if np.allclose(v, (1.0, 0.0, 0.0), atol=1e-12):
        return MeasurementBasis.y(bob_site)
    if np.allclose(v, (0.0, 1.0, 0.0), atol=1e-12):
        return MeasurementBasis.x(bob_site)
    raise ValueError("fixed pairing only covers the X and Y sender bases")


# ---------------------------------------------------------------------------
# prepared protocol context
# ---------------------------------------------------------------------------

def _receiver_site(part: PartitionPart) -> int:
    sites = {t.factors[0][0] for t in part.terms if len(t.factors) == 1}
    if len(sites) != 1:
        raise ValueError("cannot infer the receiver site from the partition part")
    return sites.pop()


@dataclass(frozen=True)
class RunContext:
    """Everything one protocol configuration needs, precomputed.

    The sender projectors and receiver rotations are held as their 2x2
    factors, ``local_projectors[b]`` at ``alice.site`` and
    ``local_rotations[announced]`` at ``rule.site``; ``project`` and
    ``rotate`` apply them to a density matrix or a state vector.
    """

    spec: HamiltonianSpec
    partition: Partition
    alice: MeasurementBasis
    rule: FeedbackRule
    theta: ThetaParams
    alice_label: str
    bob_label: str
    gs: np.ndarray = field(repr=False)
    gs_energy: float = 0.0
    h_alice: np.ndarray = field(repr=False, default=None)
    h_bob: np.ndarray = field(repr=False, default=None)
    local_projectors: tuple[np.ndarray, np.ndarray] = field(repr=False, default=None)
    local_rotations: tuple[np.ndarray, np.ndarray] = field(repr=False, default=None)

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    @functools.cached_property
    def rho_gs(self) -> np.ndarray:
        """|gs><gs| as a d x d matrix, built on first read; vector paths read ``gs``."""
        return pure_density(self.gs)

    def project(self, b: int, rho: np.ndarray) -> np.ndarray:
        """P(b) rho P(b), unnormalized (P(b) psi for a state vector)."""
        return sandwich(self.local_projectors[b], self.alice.site, rho)

    def rotate(self, announced: int, rho: np.ndarray) -> np.ndarray:
        """U rho U† (U psi) for the rotation the receiver applies on an announced bit."""
        return sandwich(self.local_rotations[announced], self.rule.site, rho)


def prepare(spec: HamiltonianSpec, partition: Partition,
            alice: MeasurementBasis, *,
            alice_label: str = ALICE, bob_label: str = BOB,
            bob_axis: MeasurementBasis | str = "paired",
            bit_map: str = "identity",
            theta_override: float | None = None) -> RunContext:
    """Resolve the receiver axis and angle, validate commutation, cache matrices.

    ``bob_axis`` may be an explicit MeasurementBasis, "paired" (X->Y,
    Y->X, anything else falls back to the optimizer) or "optimal".
    """
    n = spec.n_sites
    gs, energy = ground_state(spec)
    h_full = spec.matrix()
    bob_part = partition.parts[bob_label]
    h_bob = bob_part.bare_matrix(n)
    defect = validate_partition(alice, h_bob, n)
    if defect > TOL.commutator:
        raise PartitionViolationError(defect)
    bob_site = _receiver_site(bob_part)
    sigma_a = alice.observable(n)

    if isinstance(bob_axis, MeasurementBasis):
        if bob_axis.site != bob_site:
            raise ValueError(
                f"feedback axis sits on site {bob_axis.site}, "
                f"but the receiver part lives on site {bob_site}"
            )
        tp = theta_params(gs, h_full, sigma_a, bob_axis.observable(n))
        axis_vec = bob_axis.vector
    elif bob_axis == "optimal":
        m, tp = optimize_bob_basis(gs, spec, sigma_a, bob_site)
        axis_vec = tuple(float(c) for c in m)
    elif bob_axis == "paired":
        try:
            paired = paired_feedback_axis(alice, bob_site)
            tp = theta_params(gs, h_full, sigma_a, paired.observable(n))
            axis_vec = paired.vector
        except ValueError:
            m, tp = optimize_bob_basis(gs, spec, sigma_a, bob_site)
            axis_vec = tuple(float(c) for c in m)
    else:
        raise ValueError(f"unknown bob_axis {bob_axis!r}")

    theta = tp.theta if theta_override is None else float(theta_override)
    rule = FeedbackRule(bob_site, axis_vec, theta, bit_map)
    return RunContext(
        spec=spec, partition=partition, alice=alice, rule=rule, theta=tp,
        alice_label=alice_label, bob_label=bob_label,
        gs=gs, gs_energy=energy,
        h_alice=partition.parts[alice_label].bare_matrix(n),
        h_bob=h_bob,
        local_projectors=(local_projector(alice, 0), local_projector(alice, 1)),
        local_rotations=(rule.local_rotation(0), rule.local_rotation(1)),
    )


# ---------------------------------------------------------------------------
# exact ensemble evolution
# ---------------------------------------------------------------------------

class ConditionalTable(NamedTuple):
    """Unnormalized per-outcome traces of one input state rho.

    A batched table (``ReceiverForms.table``) puts one leading axis in
    front of every field and leaves ``alice`` None.
    """

    prob: np.ndarray   # [b] Tr[P_b rho]
    alice: np.ndarray | None  # [b] Tr[P_b rho P_b H_A]
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


def conditional_table(ctx: RunContext, state: np.ndarray) -> ConditionalTable:
    """The one conditional-energy kernel: every per-outcome trace of ``state``.

    ``state`` is a density matrix or a state vector psi, which stands for
    |psi><psi|: the 2x2 factors then act on psi and a weight is ||psi||^2.
    """
    prob, alice, pre = np.empty(2), np.empty(2), np.empty(2)
    post = np.empty((2, 2))
    for b in (0, 1):
        block = ctx.project(b, state)
        prob[b] = (np.vdot(block, block) if block.ndim == 1 else np.trace(block)).real
        alice[b] = expectation(block, ctx.h_alice)
        pre[b] = expectation(block, ctx.h_bob)
        for announced in (0, 1):
            post[b, announced] = expectation(ctx.rotate(announced, block), ctx.h_bob)
    return ConditionalTable(prob, alice, pre, post)


# ---------------------------------------------------------------------------
# closed forms over every sender basis: one receiver, any n, m and theta
# ---------------------------------------------------------------------------

_PAULI4 = (np.eye(2, dtype=complex),) + tuple(PAULI[a] for a in AXES)
_SIGNS = np.array([1.0, -1.0])  # (-1)^b


def _require_real(values: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if residue > TOL.imaginary_residue:
        raise ImaginaryResidueError(f"{what} has imaginary residue {residue:.3e}")
    return values.real


@dataclass(frozen=True)
class ReceiverForms:
    """One receiver's decode tables for every sender axis, feedback axis and angle.

    With sigma_0 = tau_0 = 1 and the Paulis sigma_i at the sender site and
    tau_k at the receiver site, the input state rho fixes

        T[i, j, k, l] = Tr[sigma_i rho sigma_j tau_k H_B tau_l],   bloch[i] = Tr[sigma_i rho],

    so P(b) = sum_i a_i sigma_i and U(b') = sum_k u_k tau_k turn prob, pre
    and post into contractions.  The ground state fixes three 3x3 forms:
    eta(n, m) = n^T C m, xi(m) = m^T Q m and the partition defect
    ||[n.sigma, H_B]||_F / 2 = sqrt(n^T G n) / 2.  Every method takes one
    row per basis, so a whole session is one batched call.
    """

    site: int                                  # receiver site
    tensor: np.ndarray = field(repr=False)     # T as [(i, j), (k, l)], 16 x 16
    bloch: np.ndarray = field(repr=False)      # (4,)
    c: np.ndarray = field(repr=False)          # [sender axis, receiver axis], complex
    q: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)

    def defect(self, n: np.ndarray) -> np.ndarray:
        """||[n.sigma, H_B]||_F / 2, as ``validate_partition`` measures it."""
        return 0.5 * np.sqrt(np.maximum(np.einsum("xi,ij,xj->x", n, self.g, n), 0.0))

    def coefficients(self, n: np.ndarray) -> np.ndarray:
        """C^T n: eta is m . C^T n, so ``optimize_bob_basis`` picks its direction."""
        return _require_real(n @ self.c, "axis coefficient")

    def theta(self, n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xi, eta, theta) per row, as ``theta_params`` gives them."""
        xi = np.einsum("xi,ij,xj->x", m, self.q, m)
        if np.any(xi < -TOL.psd):
            raise ValueError(f"xi = {xi.min():.3e} is negative; shifted Hamiltonian not PSD")
        eta = _require_real(np.einsum("xj,ji,xi->x", n, self.c, m), "eta")
        return xi, eta, 0.5 * np.arctan2(eta, xi)

    def table(self, n: np.ndarray, m: np.ndarray, theta: np.ndarray) -> ConditionalTable:
        """``conditional_table`` of the input state for each row of (n, m, theta)."""
        a = np.empty((len(n), 2, 4))
        a[..., 0] = 0.5
        a[..., 1:] = -0.5 * _SIGNS[:, None] * n[:, None, :]
        u = np.empty((len(n), 2, 4), dtype=complex)
        u[..., 0] = np.cos(theta)[:, None]
        u[..., 1:] = (-1j * np.sin(theta))[:, None, None] * _SIGNS[:, None] * m[:, None, :]
        aa = (a[..., :, None] * a[..., None, :]).reshape(-1, 2, 16)
        uu = (u.conj()[..., :, None] * u[..., None, :]).reshape(-1, 2, 16)
        left = aa @ self.tensor
        post = np.einsum("xbq,xcq->xbc", left, uu).real
        return ConditionalTable(prob=a @ self.bloch, alice=None, pre=left[..., 0].real,
                                post=post)


def receiver_forms(spec: HamiltonianSpec, partition: Partition, bob_label: str,
                   state: np.ndarray) -> ReceiverForms:
    """``ReceiverForms`` of one receiver for an input state (vector or matrix).

    The sender measures site 0, as in every model.  The state enters
    through its marginal on the sites of P, U and H_B only; C and Q read
    the ground state and the full Hamiltonian.
    """
    alice_site = 0
    n_sites = spec.n_sites
    part = partition.parts[bob_label]
    site = _receiver_site(part)
    support = sorted({alice_site, site}.union(s for t in part.terms for s, _ in t.factors))
    pos = {s: i for i, s in enumerate(support)}
    k = len(support)
    h_b = assemble([PauliTerm(t.coefficient, tuple((pos[s], ax) for s, ax in t.factors))
                    for t in part.terms], k)
    sig = np.array([site_operator(p, pos[alice_site], k) for p in _PAULI4])
    tau = np.array([site_operator(p, pos[site], k) for p in _PAULI4])
    rho = reduced_density(state, support)
    outer = np.einsum("iab,bc,jcd->ijad", sig, rho, sig)
    inner = np.einsum("kab,bc,lcd->klad", tau, h_b, tau)
    tensor = np.einsum("ijab,klba->ijkl", outer, inner).reshape(16, 16)
    comm = sig[1:] @ h_b - h_b @ sig[1:]
    g = 2.0 ** (n_sites - k) * np.einsum("jab,lab->jl", comm.conj(), comm).real

    gs, _ = ground_state(spec)
    h = spec.matrix()
    energy = expectation(gs, h)
    s_gs = np.array([apply_on_site(PAULI[a], alice_site, gs) for a in AXES])
    t_gs = np.array([apply_on_site(PAULI[a], site, gs) for a in AXES])
    h_t_gs = t_gs @ h.T - energy * t_gs                     # rows H' tau_i |gs>
    h_gs = h @ gs - energy * gs
    t_h_gs = np.array([apply_on_site(PAULI[a], site, h_gs) for a in AXES])
    c = 1j * (s_gs.conj() @ (t_h_gs - h_t_gs).T)
    q = (t_gs.conj() @ h_t_gs.T).real
    return ReceiverForms(site=site, tensor=tensor, bloch=np.einsum("iab,ba->i", sig, rho).real,
                         c=c, q=q, g=g)


def ensemble_for_state(ctx: RunContext, rho_in: np.ndarray,
                       flip_probability: float = 0.0) -> QetOutcome:
    """Run the protocol on an arbitrary input state (density matrix or vector).

    Energies are referenced to rho_in itself, so noisy inputs report the
    protocol-induced change only.  ``flip_probability`` is the chance
    that the receiver acts on the wrong classical bit.  Traces are divided
    by the input's weight, so the ensemble energies are the
    probability-weighted means of the per-outcome ones.
    """
    table = conditional_table(ctx, rho_in)
    weight = table.prob.sum()  # Tr rho, or ||psi||^2 for a vector
    ref_a = expectation(rho_in, ctx.h_alice) / weight
    ref_b = expectation(rho_in, ctx.h_bob) / weight
    announced = np.array([ctx.rule.mapped(b) for b in (0, 1)])
    energy = (1.0 - flip_probability) * table.post[(0, 1), announced] \
        + flip_probability * table.post[(0, 1), announced ^ 1]
    per_energy = table.per_outcome(energy, ref_b)
    per = {b: (float(table.prob[b] / weight), float(per_energy[b])) for b in (0, 1)}
    return QetOutcome(e_alice=float(table.alice.sum() / weight - ref_a),
                      e_bob=float(energy.sum() / weight - ref_b), per_outcome=per)


def run_ensemble(ctx: RunContext) -> QetOutcome:
    """Exact ensemble energies on the resource ground state (its vector)."""
    return ensemble_for_state(ctx, ctx.gs)


def run_ensemble_random_basis(spec: HamiltonianSpec, partition: Partition,
                              weighted_bases: list[tuple[MeasurementBasis, float]],
                              *, bob_axis: MeasurementBasis | str = "paired",
                              bit_map: str = "identity",
                              alice_label: str = ALICE,
                              bob_label: str = BOB) -> QetOutcome:
    """Weight-averaged outcome over a set of sender bases.

    Each basis is paired with its own receiver axis and angle; by
    linearity of the trace the result is the weighted mean of the
    per-basis outcomes.
    """
    weights = [w for _, w in weighted_bases]
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    e_a = e_b = 0.0
    prob = {0: 0.0, 1: 0.0}
    mean_energy = {0: 0.0, 1: 0.0}
    for basis, w in weighted_bases:
        if w == 0.0:
            continue
        ctx = prepare(spec, partition, basis, bob_axis=bob_axis, bit_map=bit_map,
                      alice_label=alice_label, bob_label=bob_label)
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

def run_round(ctx: RunContext, seed: int) -> RoundRecord:
    """Sample one protocol round; identical seeds give identical records."""
    bits, energies = run_rounds(ctx, 1, seed)
    b = int(bits[0])
    energy = float(energies[0])
    return RoundRecord(
        outcome=b,
        transmitted=ctx.rule.mapped(b),
        energy=energy,
        decoded=1 if energy < 0.0 else 0,
    )


def run_rounds(ctx: RunContext, n_rounds: int, seed: int,
               stream_index: int = SUBSTREAM["rounds"],
               shot_noise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampling of many rounds: outcome bits and conditional energies.

    The default records the exact conditional expectation each round.
    With ``shot_noise`` the receiver instead projectively samples an
    eigenvalue of his part; the mean is unchanged but single rounds
    scatter over the spectrum.
    """
    out = run_ensemble(ctx)
    p0 = out.per_outcome[0][0]
    rng = stream(seed, stream_index)
    bits = (rng.random(n_rounds) >= p0).astype(np.int64)
    if not shot_noise:
        table = np.array([out.per_outcome[0][1], out.per_outcome[1][1]])
        return bits, table[bits]

    evals, evecs = eigendecompose(ctx.h_bob)
    ref = expectation(ctx.gs, ctx.h_bob)
    weights = []
    for b in (0, 1):
        fed = ctx.rotate(ctx.rule.mapped(b), ctx.project(b, ctx.gs))
        w = np.abs(evecs.conj().T @ fed) ** 2  # |<e_i| U P |gs>|^2
        weights.append(w / w.sum())
    energies = np.empty(n_rounds)
    for b in (0, 1):
        mask = bits == b
        count = int(mask.sum())
        if count:
            idx = rng.choice(len(evals), size=count, p=weights[b])
            energies[mask] = evals[idx] - ref
    return bits, energies
