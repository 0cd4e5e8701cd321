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
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateObjectiveError, TooManyErasuresError
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
from .rng import DRAW_CHUNK, SUBSTREAM, fair_bits, stream, uniform_chunks
from .spinops import require_density_matrix, require_register
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
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:  # NaN fails too
            raise ValueError(f"decode threshold must be finite and positive, got {self.epsilon}")
        if self.epsilon is None and self.coupling == 0.0 and self.model != "two-site":
            raise ValueError("at J = 0 the receiver energy vanishes, so there is no default "
                             "decode threshold; set epsilon (--epsilon)")
        if self.model == "star" and self.coupling > 0.0 and self.basis_policy != "fixed":
            raise ValueError(f"policy {self.basis_policy!r} draws sender bases other than X, "
                             "and on the star with J > 0 only X commutes with every "
                             "receiver's H_B; use the fixed policy")
        if self.model == "two-site" and self.basis_policy != "fixed":
            raise ValueError(f"policy {self.basis_policy!r} draws sender bases other than X, "
                             "and on the two-site model only X commutes with the receiver's "
                             "H_B (it holds 2k X0 X1); use the fixed policy")
        if self.model != "two-site" and self.coupling == 0.0 and self.basis_policy == "haar":
            raise ValueError("at J = 0 the ground state is a product and the feedback "
                             "objective vanishes on every sender axis, so the haar policy "
                             "has no axis to draw; use the fixed or two-random policy")
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


CHUNK_ROWS = 8192  # transcript rows rendered, and written, at a time


@dataclass(frozen=True)
class _TranscriptRows:
    """What a session's transcript rows are formatted from.

    ``cell[r, j]`` is (axis * 2 + outcome) * 2 + sent bit of receiver j in
    round r.  The rows after a round's number depend on (receiver, cell)
    alone, so each pair that occurs is formatted once, as one NUL-padded
    byte row; the pairs that occur are marked in a table over every pair,
    4 * axes wide per receiver, and no pass over the rounds sorts them.
    The rows are rendered in chunks of at most ``CHUNK_ROWS``, each as one
    uint8 matrix with no per-row Python object: the round numbers' digit
    columns (numpy division passes, NUL for a leading zero), then the byte
    rows gathered by (receiver, cell).  Dropping the NULs leaves the chunk's
    bytes, so no string of the whole transcript is built.
    """

    axes: np.ndarray      # [axis, 3] sender axes
    labels: tuple[str, ...]
    tables: np.ndarray    # [receiver, axis, outcome, sent] decode energies
    epsilon: float
    cell: np.ndarray      # [round, receiver], uint8 while 4 * axes fits a byte

    def chunks(self) -> Iterator[bytes]:
        """The rows in order, round by round and receiver by receiver, as
        ASCII bytes of at most ``CHUNK_ROWS`` rows per chunk, each row ended
        by a newline."""
        n_labels = len(self.labels)
        seen = np.zeros((n_labels, 4 * len(self.axes)), dtype=bool)
        for j in range(n_labels):
            seen[j, self.cell[:, j]] = True
        receiver, cells = np.nonzero(seen)
        axis, outcome, sent = cells // 4, (cells // 2) % 2, cells % 2
        energy = self.tables[receiver, axis, outcome, sent]
        decoded = _BIT_CHARS[_decode(energy, self.epsilon)].tobytes().decode()
        # cond_energy to 1e-14 absolute, above its ~1e-16 ||H|| rounding error
        # while ||H|| < 100; a value that rounds to zero prints unsigned
        suffix = np.array([
            f",{n1:.12g},{n2:.12g},{n3:.12g},{s},{self.labels[j]},"
            f"{round(e, 14) + 0.0:.14f},{d}\n".encode()
            for (n1, n2, n3), s, j, e, d in zip(self.axes[axis].tolist(), sent.tolist(),
                                                receiver.tolist(), energy.tolist(), decoded)
        ], dtype=bytes)  # fixed width, NUL-padded
        suffix = suffix.view(np.uint8).reshape(len(suffix), suffix.itemsize)
        slot = np.zeros(seen.shape, dtype=np.intp)  # row of suffix per (receiver, cell)
        slot[receiver, cells] = np.arange(len(receiver))
        rounds = len(self.cell)
        step = max(1, CHUNK_ROWS // n_labels)
        width = len(str(max(rounds - 1, 0)))  # digits of the last round number
        matrix = np.empty((min(step, rounds), n_labels, width + suffix.shape[1]),
                          dtype=np.uint8)
        for start in range(0, rounds, step):
            block = self.cell[start:start + step]
            rows = matrix[:len(block)]
            rows[..., :width] = _digit_columns(start, len(block), width)[:, None]
            rows[..., width:] = suffix[slot[np.arange(n_labels), block]]
            yield rows.tobytes().replace(b"\0", b"")


def _digit_columns(start: int, count: int, width: int) -> np.ndarray:
    """The numbers start, ..., start + count - 1, below 10^width, as rows of
    ``width`` ASCII digits, right-aligned, with NUL for each leading zero."""
    digits = np.empty((width, count), dtype=np.uint8)
    number = np.arange(start, start + count)
    for k in range(width - 1, -1, -1):
        quotient = number // 10
        np.subtract(number, 10 * quotient, out=digits[k], casting="unsafe")
        number = quotient
    digits += ord("0")
    for k in range(width - 1):  # the numbers rise, so those below 10^m come first
        digits[k, :max(0, 10 ** (width - 1 - k) - start)] = 0
    return digits.T


@dataclass(frozen=True, eq=False)
class SessionResult:
    alice_key: KeyBits
    parties: dict[str, PartyResult]
    verdict: VerificationVerdict
    epsilon: float
    rows: _TranscriptRows | None = field(repr=False, default=None)

    @functools.cached_property
    def transcript(self) -> tuple[str, ...]:
        """One row per round and receiver: the chunks ``write_transcript``
        writes, decoded and split at their newlines."""
        if self.rows is None:
            return ()
        return tuple(row for chunk in self.rows.chunks()
                     for row in chunk.decode().splitlines())

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
    codes = np.full(energy.shape, -1, dtype=np.int8)
    np.copyto(codes, 1, where=energy < -epsilon)
    np.copyto(codes, 0, where=energy > epsilon)
    return codes


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

    ``ctx`` is the first receiver's context.  The noiseless input is each
    receiver's ground marginal on its own support.  A noisy input is folded
    once per receiver, as its marginal on that support, so a Kraus channel
    at any receiver's site is refused.
    """
    forms = [ctx.forms] + [receiver_forms(ctx.spec, ctx.partition, ctx.alice.site,
                                          ctx.alice_label, lab) for lab in labels[1:]]
    if config.noise is None:
        return forms, [f.ground for f in forms]
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
    """(sender axes in use, index of each round's axis) under the basis policy.

    The index is as wide as a transcript cell, (axis * 2 + outcome) * 2 +
    sent bit, needs: one byte unless a haar session has more than 64 axes.
    """
    rounds = config.rounds
    if config.basis_policy == "haar":
        width = np.min_scalar_type(max(4 * rounds - 1, 0))
        return _haar_axes(config.seed, rounds, forms), np.arange(rounds, dtype=width)
    if config.basis_policy == "fixed":
        choice = np.zeros(rounds, dtype=np.uint8)
    else:
        choice = fair_bits(stream(config.seed, SUBSTREAM["basis"]), rounds)
    used = np.array([not choice.all(), choice.any()])  # choice 0 is X, 1 is Y
    axes = np.eye(2, 3)[used]
    for f in forms:
        f.require_commuting(axes)
    return axes, choice if used.all() else np.zeros_like(choice)


def run_session(config: SessionConfig,
                cheat_plan: dict[str, str] | None = None,
                ) -> SessionResult:
    """Run one seeded session; identical configs give identical transcripts.

    ``cheat_plan`` maps a party label to "flip", the only plan (any other
    raises ValueError): the sender transmits the complemented bit to that
    party in every round.  Every round of every policy reads one batched
    evaluation of the receivers' ``ReceiverForms``, and each variate kind
    is one sequence over the rounds, drawn from its own sub-stream
    (``rng.SUBSTREAM``).  A session calls ``prepare`` once.
    """
    spec, partition, labels = build_model(config.model, config.coupling, k=config.k,
                                          h=config.h, n_parties=config.n_parties)
    ctx = prepare(spec, partition, MeasurementBasis.x(0), bob_label=labels[0])
    epsilon = config.epsilon if config.epsilon is not None else _default_epsilon(ctx)
    cheat_plan = cheat_plan or {}
    for label, plan in cheat_plan.items():
        if label not in labels:
            raise ValueError(f"cheat plan names unknown party {label!r}")
        if plan != "flip":
            raise ValueError(f"cheat plan for {label!r} must be 'flip', got {plan!r}")

    forms, states = _receivers(config, ctx, labels)
    axes, axis = _session_axes(config, forms)
    tables = []
    for f, state in zip(forms, states):
        m = feedback_axes(f, axes, "optimal" if config.basis_policy == "haar" else "paired")
        table = f.table(state, axes, m, f.theta(axes, m)[2])
        tables.append(table.decode())
    tables = np.array(tables)
    p0 = table.prob[:, 0]  # Tr[P_0 rho] is the same on every receiver's support

    # Every per-round array is one byte wide, save the energies returned; the
    # draws keep their methods and are taken in chunks (rng.DRAW_CHUNK).
    seed, rounds = config.seed, config.rounds
    logical = fair_bits(stream(seed, SUBSTREAM["logical"]), rounds)
    outcome = np.empty(rounds, dtype=bool)
    for start, draws in uniform_chunks(stream(seed, SUBSTREAM["outcome"]), rounds):
        stop = start + len(draws)
        np.greater_equal(draws, p0[axis[start:stop]], out=outcome[start:stop])
    announced = np.bitwise_xor(outcome, logical, dtype=np.uint8)
    announced ^= 1
    classical_p = config.noise.p if (config.noise is not None
                                     and config.noise.kind == "classical_flip") else 0.0
    sent = np.empty((rounds, len(labels)), dtype=np.uint8)
    for j, label in enumerate(labels):
        sent[:, j] = announced ^ 1 if label in cheat_plan else announced
        if classical_p > 0.0:
            for start, draws in uniform_chunks(stream(seed, SUBSTREAM["flip"] + j), rounds):
                sent[start:start + len(draws), j] ^= draws < classical_p

    cell = (axis * 2 + outcome)[:, None] * 2 + sent
    alice_key = KeyBits.from_codes(logical)
    parties = {}
    for j, label in enumerate(labels):
        # decoding the table, not every round's energy, gives the same codes
        codes = _decode(tables[j], epsilon).reshape(-1)[cell[:, j]]
        energy = tables[j].reshape(-1)[cell[:, j]]
        parties[label] = PartyResult(label, KeyBits.from_codes(codes), energy)

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
    # int8 votes: +1 for a non-negative energy, -1 otherwise
    signs = np.array([result.parties[lab].energy_array >= 0 for lab in labels])
    signs = 2 * signs.view(np.int8) - 1
    # The sender's claimed bit votes too: logical 1 promises negative
    # energy.  With two receivers this breaks the tie; a round without a
    # majority blames nobody.
    claim = 1 - 2 * (result.alice_key.codes == 1).view(np.int8)
    total = signs.sum(axis=0, dtype=np.int8) + claim
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

    ``source`` is a callable returning the d x d density matrix for round
    i; a state of any other shape raises ValueError.  The empirical mean
    conditional energy must sit within five standard errors of the
    trusted-model prediction.  Decode tables are cached by
    the state's content, never by object identity: a supplier may return
    fresh arrays, and a recycled id must not resurrect another state's
    table.  Each round is keyed on its shape, its ``dtype`` object (which
    tells byte orders apart; ``dtype.str`` built a new string every round)
    and a copy of its bytes, so a state changed in place still shows.  A
    round whose key equals the previous round's reuses its table without
    hashing; any other is looked up by its blake2b digest.  Each round's
    table slot goes into a preallocated intp buffer, and the draws are taken
    and the rounds tallied per table and outcome ``rng.DRAW_CHUNK`` at a
    time, so a check keeps no per-round array.  A register of more than
    ``spinops.MAX_SITES`` sites raises ModelParameterError.
    """
    if rounds < 1:
        raise ValueError(f"a resource check needs at least one round, got {rounds}")
    require_register(ctx.n_sites, "verify_resource_state")
    predicted = run_ensemble(ctx).e_bob
    announced = [ctx.rule.mapped(b) for b in (0, 1)]
    dim = 2 ** ctx.n_sites
    slots = np.empty(min(rounds, DRAW_CHUNK), dtype=np.intp)
    counts = np.zeros(0, dtype=np.int64)  # per table and outcome
    cache: dict[tuple, int] = {}
    tables: list[np.ndarray] = []  # per distinct state: (P(b=0), decoded E for b=0, b=1)
    previous = None
    for start, draws in uniform_chunks(stream(seed, SUBSTREAM["resource_check"]), rounds):
        chunk = slots[:len(draws)]
        for i in range(len(chunk)):
            rho = np.ascontiguousarray(source(start + i))
            content = (rho.shape, rho.dtype, rho.tobytes())
            if content != previous:  # a copy of the bytes: an in-place change still shows
                key = content[:2] + (hashlib.blake2b(content[2]).digest(),)
                if key not in cache:
                    if rho.shape != (dim, dim):
                        raise ValueError(f"round {start + i}: resource state has shape "
                                         f"{rho.shape}, {ctx.n_sites} sites need ({dim}, {dim})")
                    table = conditional_table(ctx, require_density_matrix(rho))
                    cache[key] = len(tables)
                    tables.append(np.r_[table.prob[0], table.decode()[(0, 1), announced]])
                slot, previous = cache[key], content
            chunk[i] = slot
        outcome = draws >= np.reshape(tables, (-1, 3))[chunk, 0]
        counts = np.pad(counts, (0, 2 * len(tables) - len(counts)))
        counts += np.bincount(2 * chunk + outcome, minlength=len(counts))
    energies = np.reshape(tables, (-1, 3))[:, 1:].ravel()  # per table and outcome
    mean = float(counts @ energies / rounds)
    stderr = float(np.sqrt(counts @ (energies - mean) ** 2 / rounds) / np.sqrt(rounds))
    ok = abs(mean - predicted) <= 5.0 * stderr + 1e-12
    return ResourceVerdict(ok=ok, mean_energy=mean, predicted=predicted,
                           stderr=stderr, rounds=rounds)


def write_transcript(result: SessionResult, path) -> None:
    """Line-oriented transcript: round,basis,announced bit,party,energy,decoded.

    The rows are written as ``_TranscriptRows.chunks`` renders them, at
    most ``CHUNK_ROWS`` at a time; neither the ``transcript`` tuple nor a
    string of the whole file is built.
    """
    header = "round,basis_n1,basis_n2,basis_n3,announced_bit,party,cond_energy,decoded_bit"
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        if result.rows is not None:
            fh.writelines(result.rows.chunks())
