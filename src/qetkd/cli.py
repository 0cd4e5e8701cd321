"""Batch experiment harness.

Subcommands: ground, qet, noise, session, attack.  Every CSV starts
with a ``# manifest:`` comment carrying the exact invocation, so
re-running the manifest reproduces the file byte for byte.

Exit codes: 0 success, 2 usage error, 3 degenerate ground level,
4 protocol abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .adversary import (
    bob_reference_state,
    eve_independent,
    eve_postselect,
    split_attack,
)
from .errors import (
    DegenerateGroundError,
    ModelParameterError,
    PartitionViolationError,
    TooManyErasuresError,
)
from .models import MODELS, build_model, chain3, energy_gap
from .noise import (
    NoiseSpec,
    default_chain_coupling,
    report_csv_rows,
    threshold_scan,
)
from .protocol import (
    MeasurementBasis,
    ground_energy,
    prepare,
    run_ensemble,
    run_ensemble_random_basis,
)
from .qkd import SessionConfig, run_session, write_transcript
from .rng import STREAM_LAYOUT
from .spinops import frobenius


def sweep_values(text: str) -> np.ndarray:
    """Inclusive grid ``start:stop:count`` (count points, no float-step drift)."""
    try:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count, got {text!r}"
        ) from exc


def _manifest(args: argparse.Namespace) -> str:
    """The invocation as JSON; arrays are written in full, as lists of floats."""
    payload = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
    payload["version"] = __version__
    return "# manifest: " + json.dumps(payload, sort_keys=True, default=_json_value)


def _json_value(value):
    return value.tolist() if isinstance(value, np.ndarray) else str(value)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _default_coupling(args: argparse.Namespace) -> float:
    if args.coupling is not None:
        return args.coupling
    return default_chain_coupling() if args.model == "chain3" else 1.0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ground(args: argparse.Namespace) -> int:
    if args.sweep_j is not None:
        lines = [_manifest(args), "J,gap"]
        for j in args.sweep_j:
            spec, _, _ = build_model(args.model, float(j), args.k, args.h, args.n_parties)
            lines.append(f"{j:.12g},{energy_gap(spec):.12g}")
        _emit(lines, args.out)
        return 0
    spec, _, _ = build_model(args.model, _default_coupling(args), args.k, args.h,
                             args.n_parties)
    energy = ground_energy(spec)
    gap = energy_gap(spec)
    print(f"model={spec.name} ground_energy={energy:.6f} gap={gap:.6f}")
    return 0


def cmd_qet(args: argparse.Namespace) -> int:
    lines = [_manifest(args), "J,E_A,E_B"]
    grid = args.sweep_j if args.sweep_j is not None \
        else np.array([_default_coupling(args)])
    if args.model == "star" and args.basis != "x" and np.any(grid > 0.0):
        return _usage_error(f"--basis {args.basis} measures the hub off the X axis, and on "
                            "the star with J > 0 only X commutes with every receiver's H_B")
    for j in grid:
        spec, partition, labels = build_model(args.model, float(j), args.k, args.h,
                                              args.n_parties)
        if args.basis == "random":
            out = run_ensemble_random_basis(
                spec, partition,
                [(MeasurementBasis.x(0), 0.5), (MeasurementBasis.y(0), 0.5)],
                bit_map=args.rule, bob_label=labels[0],
            )
        else:
            basis = MeasurementBasis.x(0) if args.basis == "x" else MeasurementBasis.y(0)
            ctx = prepare(spec, partition, basis, bit_map=args.rule,
                          bob_label=labels[0])
            out = run_ensemble(ctx)
        lines.append(f"{j:.12g},{out.e_alice:.12g},{out.e_bob:.12g}")
    _emit(lines, args.out)
    return 0


_FAMILIES = {
    "classical": "classical_flip",
    "depolarize": "depolarize",
    "bitflip": "bit_flip",
    "phaseflip": "phase_flip",
    "excited-mix": "excited_mixture",
    "excited-sup": "excited_superposition",
}


def cmd_noise(args: argparse.Namespace) -> int:
    j = _default_coupling(args)
    spec, partition, labels = build_model(args.model, j, args.k, args.h, args.n_parties)
    ctx = prepare(spec, partition, MeasurementBasis.x(0), bob_label=labels[0])

    family = _FAMILIES[args.family]
    kwargs = {}
    if family in ("bit_flip", "phase_flip"):
        sites = {str(i): i for i in range(spec.n_sites)}
        sites.update(alice=ctx.alice.site, bob=ctx.rule.site)
        if args.site not in sites:
            return _usage_error(f"--site must be alice, bob or a site in [0, "
                                f"{spec.n_sites - 1}], got {args.site!r}")
        kwargs["site"] = sites[args.site]
    if family == "excited_superposition":
        kwargs["alpha"] = args.alpha
    try:
        NoiseSpec(family, 0.0, **kwargs)  # refuses a non-finite alpha
    except ValueError as exc:
        return _usage_error(exc)
    if not np.all((args.grid >= 0.0) & (args.grid <= 1.0)):  # NaN fails both
        return _usage_error("--grid probabilities must lie in [0, 1]")

    report = threshold_scan(ctx, family, args.grid, **kwargs)
    lines = [_manifest(args), "family,J,p,E_A,E_B"]
    lines.extend(report_csv_rows(report, j))
    _emit(lines, args.out)
    if report.crossing is None:
        print(f"{family}: no sign change on the grid")
    else:
        print(f"{family}: sign change at p* = {report.crossing:.4f}")
    return 0


def cmd_session(args: argparse.Namespace) -> int:
    if args.noise is not None and args.noise[0] == "local_kraus":
        return _usage_error("--noise local_kraus needs Kraus operators, which the CLI "
                            "cannot take; run the session from the library with "
                            "SessionConfig(noise=NoiseSpec(\"local_kraus\", p, site=..., "
                            "kraus_ops=...))")
    coupling = _default_coupling(args)
    try:
        noise = None
        if args.noise is not None:
            kind, p = args.noise
            site = None
            if kind in ("bit_flip", "phase_flip"):
                site = int(args.noise_site) if args.noise_site is not None else 0
            noise = NoiseSpec(kind=kind, p=float(p), site=site)
        config = SessionConfig(
            model=args.model, k=args.k, h=args.h,
            coupling=coupling, n_parties=args.n_parties,
            rounds=args.rounds, basis_policy=args.policy,
            epsilon=args.epsilon, verify_bits=args.verify_bits,
            noise=noise, seed=args.seed,
        )
    except ValueError as exc:
        return _usage_error(exc)
    result = run_session(config)
    if args.transcript:
        write_transcript(result, args.transcript)
    for label, party in result.parties.items():
        rate = result.alice_key.match_rate(party.key)
        print(f"party={label} match_rate={rate:.6f} "
              f"erasures={party.key.erasure_fraction():.6f}")
    print(f"verification={'pass' if result.verdict.ok else 'fail'} "
          f"compared={result.verdict.compared} mismatches={result.verdict.mismatches}")
    print(f"stream_layout={STREAM_LAYOUT}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        return _usage_error(f"--rounds must be at least 1, got {args.rounds}")
    spec, partition = chain3(args.coupling if args.coupling is not None else 1.0)
    ctx = prepare(spec, partition, MeasurementBasis.x(0))
    if args.scenario == "independent":
        report = eve_independent(ctx, rounds=args.rounds, seed=args.seed)
    elif args.scenario == "postselect":
        report = eve_postselect(ctx, rounds=args.rounds, seed=args.seed)
        gap = frobenius(report.eve_state - bob_reference_state(ctx))
        print(f"frobenius_gap_to_bob={gap:.3e}")
    else:
        sub = {"eve-waits": "eve_waits",
               "silent": "eve_measures_first_silent",
               "sends": "eve_measures_first_sends"}[args.sub]
        report = split_attack(ctx, sub, rounds=args.rounds, seed=args.seed)
    sys.stdout.write(report.to_kv())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODELS, default="chain3")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--J", dest="coupling", type=float, default=None,
                   help="coupling; chain3 defaults to the optimal operating point")
    p.add_argument("--N", dest="n_parties", type=int, default=2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="qetkd",
        description="Energy-teleportation key distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="ground energy and excitation gap")
    _add_model_flags(p)
    p.add_argument("--sweep-J", dest="sweep_j", type=sweep_values, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("qet", help="teleported-energy curves")
    _add_model_flags(p)
    p.add_argument("--basis", choices=("x", "y", "random"), default="x")
    p.add_argument("--rule", choices=("identity", "flip"), default="identity")
    p.add_argument("--sweep-J", dest="sweep_j", type=sweep_values, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qet)

    p = sub.add_parser("noise", help="noise curves and sign-change thresholds")
    _add_model_flags(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--site", default="bob",
                   help="alice, bob, or a site index (flip families)")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--grid", type=sweep_values, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("session", help="run one key-distribution session")
    _add_model_flags(p)
    p.add_argument("--rounds", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=("fixed", "two-random", "haar"),
                   default="fixed")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--verify-bits", type=int, default=64)
    p.add_argument("--noise", nargs=2, metavar=("KIND", "P"), default=None)
    p.add_argument("--noise-site", default=None)
    p.add_argument("--transcript", default=None)
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("attack", help="eavesdropper scenario statistics")
    p.add_argument("--scenario", choices=("independent", "postselect", "split"),
                   required=True)
    p.add_argument("--sub", choices=("eve-waits", "silent", "sends"),
                   default="eve-waits")
    p.add_argument("--J", dest="coupling", type=float, default=None)
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "noise" and args.grid is None:
        args.grid = np.linspace(0.0, 1.0, 101)
    try:
        return args.func(args)
    except ModelParameterError as exc:
        return _usage_error(exc)
    except DegenerateGroundError as exc:
        print(f"degenerate ground level: {exc}", file=sys.stderr)
        return 3
    except (TooManyErasuresError, PartitionViolationError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
