"""Key-distribution sessions over the energy-sign channel.

One logical key bit per round: the sender measures her site, announces
the outcome for logical 1 or its complement for logical 0, and every
receiver decodes by the sign of his conditional post-feedback energy
(negative -> 1, positive -> 0, magnitude below the threshold ->
erasure).  A configurable prefix of the key is sacrificed over the
classical channel to verify the transcript; the multi-party variant on
the star model detects a cheating sender by comparing energy signs
across receivers.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateObjectiveError,
    SupportViolationError,
    TooManyErasuresError,
)
from .models import build_model, check_model_parameters, model_sites
from .noise import NoiseSpec, noisy_input_state
from .protocol import (
    MeasurementBasis,
    ReceiverForms,
    RunContext,
    conditional_table,
    feedback_axes,
    prepare,
    receiver_forms,
    run_ensemble,
)
from .rng import SUBSTREAM, stream
from .spinops import require_density_matrix
from .tolerances import TOL

POLICIES = ("fixed", "two-random", "haar")


@dataclass(frozen=True)
class SessionConfig:
    model: str = "chain3"
    k: float = 1.0
    h: float = 1.0
    coupling: float = 1.0
    n_parties: int = 1
    rounds: int = 256
    basis_policy: str = "fixed"
    epsilon: float | None = None  # None: |noiseless E_B| / 10
    verify_bits: int = 64
    noise: NoiseSpec | None = None
    seed: int = 0
    erasure_abort_fraction: float = 0.10

    def __post_init__(self):
        check_model_parameters(self.model, self.coupling, self.k, self.h, self.n_parties)
        if self.basis_policy not in POLICIES:
            raise ValueError(f"unknown basis policy {self.basis_policy!r}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not 0 <= self.verify_bits <= self.rounds:
            raise ValueError("verification bits must fit inside the round budget")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("decode threshold must be positive")
        site = None if self.noise is None else self.noise.site
        if site is not None and not 0 <= site < model_sites(self.model, self.n_parties):
            raise ValueError(f"noise site {site} is outside the {self.model} register")


class KeyBits:
    """Decoded key; None marks an erasure.

    The key is held as ``codes``, a read-only int8 array with -1 for an
    erasure; the ``bits`` tuple is built on first read.
    """

    def __init__(self, bits):
        self.codes = np.array([-1 if b is None else int(b) for b in bits], dtype=np.int8)
        self.codes.flags.writeable = False

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "KeyBits":
        key = cls.__new__(cls)
        key.codes = np.asarray(codes, dtype=np.int8)
        key.codes.flags.writeable = False
        return key

    @functools.cached_property
    def bits(self) -> tuple[int | None, ...]:
        return tuple(map(_BIT_VALUES.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyBits):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash(self.codes.tobytes())

    def __repr__(self) -> str:
        return f"KeyBits(bits={self.bits!r})"

    def as_str(self) -> str:
        return _BIT_CHARS[self.codes].tobytes().decode()

    def erasure_fraction(self) -> float:
        if not len(self):
            return 0.0
        return int(np.count_nonzero(self.codes < 0)) / len(self)

    def match_rate(self, other: "KeyBits") -> float:
        """Agreement over all rounds; erasures never match."""
        if len(self) != len(other):
            raise ValueError("key lengths differ")
        if not len(self):
            return 1.0
        hits = np.count_nonzero((self.codes == other.codes) & (self.codes >= 0))
        return int(hits) / len(self)


_BIT_VALUES = (0, 1, None)  # indexed by a code; -1 picks None
_BIT_CHARS = np.frombuffer(b"01e", dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class PartyResult:
    """One receiver's key and per-round decode energies."""

    label: str
    key: KeyBits
    energy_array: np.ndarray = field(repr=False)

    @functools.cached_property
    def energies(self) -> tuple[float, ...]:
        return tuple(self.energy_array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartyResult):
            return NotImplemented
        return (self.label, self.key) == (other.label, other.key) \
            and np.array_equal(self.energy_array, other.energy_array)

    def __hash__(self) -> int:
        return hash((self.label, self.key))


@dataclass(frozen=True)
class VerificationVerdict:
    ok: bool
    compared: int
    mismatches: int


@dataclass(frozen=True)
class _TranscriptRows:
    """What a session's transcript rows are formatted from.

    ``cell[r, j]`` is (axis * 2 + outcome) * 2 + sent bit of receiver j in
    round r; each distinct (cell, receiver) is formatted once.
    """

    axes: np.ndarray      # [axis, 3] sender axes
    labels: tuple[str, ...]
    tables: np.ndarray    # [receiver, axis, outcome, sent] decode energies
    epsilon: float
    cell: np.ndarray      # [round, receiver]

    def render(self) -> tuple[str, ...]:
        n_labels = len(self.labels)
        keys, index = np.unique(self.cell * n_labels + np.arange(n_labels),
                                return_inverse=True)
        cells, receiver = np.divmod(keys, n_labels)
        axis, outcome, sent = cells // 4, (cells // 2) % 2, cells % 2
        energy = self.tables[receiver, axis, outcome, sent]
        decoded = _BIT_CHARS[_decode(energy, self.epsilon)].tobytes().decode()
        suffix = [
            f"{n1:.12g},{n2:.12g},{n3:.12g},{s},{self.labels[j]},{e:.12g},{d}"
            for (n1, n2, n3), s, j, e, d in zip(self.axes[axis].tolist(), sent.tolist(),
                                                receiver.tolist(), energy.tolist(), decoded)
        ]
        return tuple(f"{i // n_labels},{suffix[k]}"
                     for i, k in enumerate(index.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class SessionResult:
    alice_key: KeyBits
    parties: dict[str, PartyResult]
    verdict: VerificationVerdict
    epsilon: float
    rows: _TranscriptRows | None = field(repr=False, default=None)

    @functools.cached_property
    def transcript(self) -> tuple[str, ...]:
        """One row per round and receiver, as ``write_transcript`` writes them."""
        return () if self.rows is None else self.rows.render()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionResult):
            return NotImplemented
        return (self.alice_key, self.parties, self.verdict, self.epsilon, self.transcript) \
            == (other.alice_key, other.parties, other.verdict, other.epsilon, other.transcript)

    def erasure_fraction(self) -> float:
        if not self.parties:
            return 0.0
        return max(p.key.erasure_fraction() for p in self.parties.values())


@dataclass(frozen=True)
class CheatVerdict:
    cheater: str | None
    dissent_fraction: dict[str, float]


@dataclass(frozen=True)
class ResourceVerdict:
    ok: bool
    mean_energy: float
    predicted: float
    stderr: float
    rounds: int


# ---------------------------------------------------------------------------
# the session engine: every receiver's tables for every basis of a session
# ---------------------------------------------------------------------------

def _decode(energy: np.ndarray, epsilon: float) -> np.ndarray:
    """Key codes: 1 for energy below -epsilon, 0 above epsilon, -1 (erasure) between."""
    return np.where(energy < -epsilon, 1, np.where(energy > epsilon, 0, -1)).astype(np.int8)


def _default_epsilon(ctx: RunContext) -> float:
    signal = abs(run_ensemble(ctx).e_bob)
    if signal <= 0.0:
        raise ValueError(
            "noiseless receiver energy vanishes; pass an explicit decode threshold"
        )
    return signal / 10.0


def _receivers(config: SessionConfig, ctx: RunContext,
               labels: list[str]) -> tuple[list[ReceiverForms], list[np.ndarray]]:
    """Every receiver's forms, and the session's input state as each reads it.

    ``ctx`` is the first receiver's context.  A noisy input is folded once
    per receiver, as its marginal on that receiver's own support; a Kraus
    channel may touch no receiver's site.
    """
    forms = [ctx.forms] + [receiver_forms(ctx.spec, ctx.partition, ctx.gs, ctx.alice.site,
                                          ctx.alice_label, lab) for lab in labels[1:]]
    if config.noise is None:
        return forms, [ctx.gs] * len(forms)
    if config.noise.kind == "local_kraus" and config.noise.site in {f.site for f in forms}:
        raise SupportViolationError(f"site {config.noise.site} belongs to a protocol party")
    return forms, [noisy_input_state(ctx, config.noise, f)[0] for f in forms]


def _haar(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform directions on the 2-sphere (normalized 3-d Gaussians)."""
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _haar_axes(seed: int, rounds: int, forms: list[ReceiverForms]) -> np.ndarray:
    """One sender axis per round; a round whose feedback objective vanishes
    for some receiver is redrawn, at most 100 draws per round."""
    rng = stream(seed, SUBSTREAM["haar"])
    axes = _haar(rng, rounds)
    todo = np.arange(rounds)
    for attempt in range(100):
        if attempt:
            axes[todo] = _haar(rng, len(todo))
        for f in forms:
            f.require_commuting(axes[todo])
        degenerate = np.zeros(len(todo), dtype=bool)
        for f in forms:
            degenerate |= np.linalg.norm(f.coefficients(axes[todo]), axis=1) < TOL.objective
        todo = todo[degenerate]
        if not len(todo):
            return axes
    raise DegenerateObjectiveError("no usable measurement axis found in 100 draws")


def _session_axes(config: SessionConfig, forms: list[ReceiverForms],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(sender axes in use, index of each round's axis) under the basis policy."""
    if config.basis_policy == "haar":
        return _haar_axes(config.seed, config.rounds, forms), np.arange(config.rounds)
    if config.basis_policy == "fixed":
        choice = np.zeros(config.rounds, dtype=np.int64)
    else:
        choice = stream(config.seed, SUBSTREAM["basis"]).integers(0, 2, size=config.rounds)
    used, index = np.unique(choice, return_inverse=True)
    axes = np.eye(3)[used]  # choice 0 is X, 1 is Y
    for f in forms:
        f.require_commuting(axes)
    return axes, index


def run_session(config: SessionConfig,
                cheat_plan: dict[str, str] | None = None,
                ) -> SessionResult:
    """Run one seeded session; identical configs give identical transcripts.

    ``cheat_plan`` maps a party label to "flip": the sender transmits
    the complemented bit to that party in every round.  Every round of
    every policy reads one batched evaluation of the receivers'
    ``ReceiverForms``, and each variate kind is one array drawn from its
    own sub-stream (``rng.SUBSTREAM``).  A session calls ``prepare`` once.
    """
    spec, partition, labels = build_model(config.model, config.coupling, k=config.k,
                                          h=config.h, n_parties=config.n_parties)
    ctx = prepare(spec, partition, MeasurementBasis.x(0), bob_label=labels[0])
    epsilon = config.epsilon if config.epsilon is not None else _default_epsilon(ctx)
    cheat_plan = cheat_plan or {}
    for label in cheat_plan:
        if label not in labels:
            raise ValueError(f"cheat plan names unknown party {label!r}")

    forms, states = _receivers(config, ctx, labels)
    axes, axis = _session_axes(config, forms)
    tables = []
    for f, state in zip(forms, states):
        m = feedback_axes(f, axes, "optimal" if config.basis_policy == "haar" else "paired")
        table = f.table(state, axes, m, f.theta(axes, m)[2])
        tables.append(table.decode())
    tables = np.array(tables)
    p0 = table.prob[:, 0]  # Tr[P_0 rho] is the same on every receiver's support

    seed, rounds = config.seed, config.rounds
    logical = stream(seed, SUBSTREAM["logical"]).integers(0, 2, size=rounds)
    outcome = (stream(seed, SUBSTREAM["outcome"]).random(rounds) >= p0[axis]).astype(np.int64)
    announced = outcome ^ logical ^ 1
    classical_p = config.noise.p if (config.noise is not None
                                     and config.noise.kind == "classical_flip") else 0.0
    sent = np.empty((rounds, len(labels)), dtype=np.int64)
    for j, label in enumerate(labels):
        sent[:, j] = announced ^ 1 if cheat_plan.get(label) == "flip" else announced
        if classical_p > 0.0:
            sent[:, j] ^= stream(seed, SUBSTREAM["flip"] + j).random(rounds) < classical_p

    cell = (axis * 2 + outcome)[:, None] * 2 + sent
    alice_key = KeyBits.from_codes(logical)
    parties = {}
    for j, label in enumerate(labels):
        energy = tables[j].reshape(-1)[cell[:, j]]
        parties[label] = PartyResult(label, KeyBits.from_codes(_decode(energy, epsilon)),
                                     energy)

    worst_erasure = max(
        (p.key.erasure_fraction() for p in parties.values()), default=0.0
    )
    if worst_erasure > config.erasure_abort_fraction:
        raise TooManyErasuresError(
            f"erasure fraction {worst_erasure:.3f} exceeds "
            f"{config.erasure_abort_fraction:.3f}"
        )

    compared = config.verify_bits
    mismatches = sum(int(np.count_nonzero(p.key.codes[:compared] != logical[:compared]))
                     for p in parties.values())
    verdict = VerificationVerdict(ok=mismatches == 0, compared=compared,
                                  mismatches=mismatches)
    rows = _TranscriptRows(axes=axes, labels=tuple(labels), tables=tables,
                           epsilon=epsilon, cell=cell)
    return SessionResult(alice_key=alice_key, parties=parties, verdict=verdict,
                         epsilon=epsilon, rows=rows)


def run_multiparty(config: SessionConfig,
                   cheat_plan: dict[str, str] | None = None,
                   ) -> tuple[SessionResult, CheatVerdict]:
    """Star-model session with sign-vote cheater detection.

    With an honest broadcast every receiver sees the same energy sign
    each round; transmitting a complemented bit to one victim flips the
    victim's sign in every affected round, so any two parties can point
    at the third by majority vote.
    """
    if config.model != "star" or config.n_parties < 2:
        raise ValueError("multi-party sessions need the star model with >= 2 parties")
    result = run_session(config, cheat_plan=cheat_plan)

    labels = list(result.parties)
    rounds = len(result.alice_key)
    signs = np.where(np.array([result.parties[lab].energy_array for lab in labels]) >= 0,
                     1, -1)
    # The sender's claimed bit votes too: logical 1 promises negative
    # energy.  With two receivers this breaks the tie; a round without a
    # majority blames nobody.
    total = signs.sum(axis=0) + np.where(result.alice_key.codes == 1, -1, 1)
    dissent = np.count_nonzero((signs != np.sign(total)) & (total != 0), axis=1)
    fractions = {lab: int(dissent[j]) / rounds if rounds else 0.0
                 for j, lab in enumerate(labels)}
    worst = max(fractions.values(), default=0.0)
    cheater = None
    if worst > 0.0:
        cheater = max(fractions, key=fractions.get)
    return result, CheatVerdict(cheater=cheater, dissent_fraction=fractions)


# ---------------------------------------------------------------------------
# resource-state verification
# ---------------------------------------------------------------------------

def verify_resource_state(ctx: RunContext, source, rounds: int = 2000,
                          seed: int = 0) -> ResourceVerdict:
    """Spot-check a resource-state supplier by running rounds on its output.

    ``source`` is a callable returning the density matrix for round i.
    The empirical mean conditional energy must sit within five standard
    errors of the trusted-model prediction.  Decode tables are cached by
    the state's content, never by object identity: a supplier may return
    fresh arrays, and a recycled id must not resurrect another state's
    table.
    """
    if rounds < 1:
        raise ValueError(f"a resource check needs at least one round, got {rounds}")
    predicted = run_ensemble(ctx).e_bob
    announced = [ctx.rule.mapped(b) for b in (0, 1)]
    draws = stream(seed, SUBSTREAM["resource_check"]).random(rounds)
    slots = np.empty(rounds, dtype=np.intp)
    cache: dict[tuple, int] = {}
    tables: list[np.ndarray] = []  # per distinct state: (P(b=0), decoded E for b=0, b=1)
    for i in range(rounds):
        rho = np.ascontiguousarray(source(i))
        key = (rho.shape, rho.dtype.str, hashlib.blake2b(rho).digest())
        if key not in cache:
            table = conditional_table(ctx, require_density_matrix(rho))
            cache[key] = len(tables)
            tables.append(np.r_[table.prob[0], table.decode()[(0, 1), announced]])
        slots[i] = cache[key]
    table = np.reshape(tables, (-1, 3))
    energies = table[slots, 1 + (draws >= table[slots, 0])]
    mean = float(np.mean(energies))
    stderr = float(np.std(energies) / np.sqrt(rounds))
    ok = abs(mean - predicted) <= 5.0 * stderr + 1e-12
    return ResourceVerdict(ok=ok, mean_energy=mean, predicted=predicted,
                           stderr=stderr, rounds=rounds)


def write_transcript(result: SessionResult, path) -> None:
    """Line-oriented transcript: round,basis,announced bit,party,energy,decoded."""
    header = "round,basis_n1,basis_n2,basis_n3,announced_bit,party,cond_energy,decoded_bit"
    rows = result.transcript
    with open(path, "w") as fh:
        fh.write(header + "\n")
        # joined in chunks: one string of the whole file would add its size to peak RSS
        for i in range(0, len(rows), 8192):
            fh.write("\n".join(rows[i:i + 8192]) + "\n")
