"""The three benchmark workloads: their ops, inputs and output checks.

An op is one call into qetkd's public surface, either ``qetkd.cli.main``
with an argument list or a library call the CLI lacks.  ``call`` is the
only part that is timed; ``collect`` turns what it left behind into
named byte strings (stdout, CSV files, transcripts, a text rendering of
a library result) that are hashed for reproducibility and read by
``check``, which returns a list of problems (empty when the output is
correct).  Checks run after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("star-scale", "key-rounds", "noise-scan")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    collect: Callable[[object], dict[str, bytes]]
    check: Callable[[dict[str, bytes]], list[str]]
    argv: list[str] | None = None  # set for ops that run the CLI
    rounds: int = 0        # round units counted by rounds_per_s
    solve: bool = False    # dominated by preparing Hamiltonians (solve_s)
    haar: bool = False     # the per-round re-preparing op (haar_round_ms)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    needs_default_coupling: bool
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# running the CLI in-process
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def _cli_call(argv: list[str]) -> Callable[[], CliRun]:
    def call() -> CliRun:
        from qetkd import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliRun(code, out.getvalue(), err.getvalue())
    return call


def _cli_collect(files: tuple[str, ...]) -> Callable[[CliRun], dict[str, bytes]]:
    def collect(run: CliRun) -> dict[str, bytes]:
        out = {"code": str(run.code).encode(), "stdout": run.stdout.encode(),
               "stderr": run.stderr.encode()}
        for f in files:
            path = Path(f)
            out[path.name] = path.read_bytes() if path.exists() else b""
        return out
    return collect


def _cli_op(name: str, argv: list[str], files: tuple[str, ...],
            check: Callable[[dict[str, bytes]], list[str]], **flags) -> Op:
    def checked(art: dict[str, bytes]) -> list[str]:
        if art["code"] != b"0":
            return [f"exit code {art['code'].decode()}: {art['stderr'].decode()[-200:]}"]
        return check(art)
    return Op(name, _cli_call(argv), _cli_collect(files), checked, argv=argv, **flags)


def _csv_rows(data: bytes, header: str) -> tuple[list[list[str]], list[str]]:
    lines = data.decode().splitlines()
    problems = []
    if not lines or not lines[0].startswith("# manifest: "):
        problems.append("CSV does not start with a manifest line")
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"CSV header is not {header!r}")
    return [ln.split(",") for ln in lines[2:]], problems


def _kv(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


# ---------------------------------------------------------------------------
# star-scale
# ---------------------------------------------------------------------------

def star_oracle(n_parties: int) -> tuple[float, float]:
    """(E_A, E_B) of the X-basis star protocol from the independent test oracles."""
    from oracles import embed, ground, protocol_energies, star_matrix, theta_of

    n = n_parties + 1
    h = star_matrix(n_parties, 1.0)
    evals, gs = ground(h)
    sigma_a = embed("X", 0, n)
    sigma_b = embed("Y", 1, n)  # paired receiver axis X -> Y at leaf 1
    h_a = embed("Z", 0, n)
    h_b = embed("X", 0, n) @ embed("X", 1, n) + embed("Z", 1, n)
    _, _, theta = theta_of(h, gs, evals[0], sigma_a, sigma_b)
    e_a, e_b, _ = protocol_energies(h_a, h_b, np.outer(gs, gs.conj()),
                                    sigma_a, sigma_b, theta)
    return float(e_a), float(e_b)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _star_check(n_parties: int, csv_name: str, oracle) -> Callable:
    def check(art: dict[str, bytes]) -> list[str]:
        rows, problems = _csv_rows(art[csv_name], "J,E_A,E_B")
        if len(rows) != 1 or len(rows[0]) != 3:
            return problems + [f"expected one J,E_A,E_B row, got {rows!r}"]
        e_a, e_b = float(rows[0][1]), float(rows[0][2])
        want_a, want_b = oracle(n_parties)
        if not (_close(e_a, want_a) and _close(e_b, want_b)):
            problems.append(f"(E_A, E_B) = ({e_a}, {e_b}), oracle ({want_a}, {want_b})")
        return problems
    return check


def star_scale(seed: int, out_dir: str, oracle) -> Workload:
    def op(k: int, **flags) -> Op:
        path = f"{out_dir}/qet_star_N{k}.csv"
        argv = ["qet", "--model", "star", "--N", str(k), "--J", "1",
                "--basis", "x", "--out", path]
        return _cli_op(f"qet_star_N{k}", argv, (path,),
                       _star_check(k, Path(path).name, oracle), rounds=1, **flags)

    sizes = list(range(1, 10))  # 2 to 10 sites
    np.random.default_rng(seed).shuffle(sizes)
    return Workload("star-scale", [op(k, solve=(k == 9)) for k in sizes],
                    warmup=op(5), needs_default_coupling=False,
                    info={"order": sizes})


# ---------------------------------------------------------------------------
# key-rounds
# ---------------------------------------------------------------------------

def _session_check(noiseless: bool) -> Callable:
    def check(art: dict[str, bytes]) -> list[str]:
        lines = art["stdout"].decode().splitlines()
        party = [_kv(ln.replace(" ", "\n")) for ln in lines if ln.startswith("party=")]
        if not party or not any(ln.startswith("verification=") for ln in lines):
            return ["session output lacks party or verification lines"]
        problems = []
        for p in party:
            wrong = 1.0 - float(p["match_rate"]) - float(p["erasures"])
            # Printed to 6 decimals; one wrong bit in 1e5 rounds is 1e-5.
            if noiseless and abs(wrong) > 2e-6:
                problems.append(f"party {p['party']}: non-erased bits differ "
                                f"from the sender's (fraction {wrong:.6f})")
        return problems
    return check


def _attack_check(scenario: str, sub: str | None) -> Callable:
    def check(art: dict[str, bytes]) -> list[str]:
        kv = _kv(art["stdout"].decode())
        problems = []
        if "detection" not in kv or "key_match_rate_alice_bob" not in kv:
            return ["attack output lacks the key=value report"]
        if scenario == "postselect":
            gap = float(kv.get("frobenius_gap_to_bob", "nan"))
            if not gap <= 1e-10:
                problems.append(f"postselect Frobenius gap {gap:.3e} > 1e-10")
        if sub == "sends" and kv["detection"] != "double_message":
            problems.append(f"sends reports detection={kv['detection']}")
        return problems
    return check


def _library_op(name: str, call: Callable[[], object], render: Callable[[object], str],
                check: Callable[[dict[str, str]], list[str]], **flags) -> Op:
    """A library call; its result is rendered as ``key=value`` lines, which are
    hashed and which the check reads back."""
    def collect(result) -> dict[str, bytes]:
        return {"result": render(result).encode()}

    return Op(name, call, collect, lambda art: check(_kv(art["result"].decode())),
              **flags)


def _multiparty_op(seed: int) -> Op:
    def call():
        from qetkd import qkd
        config = qkd.SessionConfig(model="star", n_parties=3, coupling=1.0,
                                   rounds=4096, seed=seed)
        return qkd.run_multiparty(config, cheat_plan={"B2": "flip"})

    def render(res) -> str:
        result, verdict = res
        lines = [f"alice={result.alice_key.as_str()}"]
        lines += [f"{lab}={p.key.as_str()}" for lab, p in result.parties.items()]
        lines.append(f"cheater={verdict.cheater}")
        lines += [f"dissent_{lab}={f!r}" for lab, f in verdict.dissent_fraction.items()]
        return "\n".join(lines) + "\n"

    def check(kv: dict[str, str]) -> list[str]:
        cheater = kv.get("cheater")
        return [] if cheater == "B2" else [f"multiparty blames {cheater}, not B2"]

    return _library_op("multiparty_star3", call, render, check)


def _verify_op(seed: int) -> Op:
    def call():
        from qetkd import models, noise, protocol, qkd
        spec, partition = models.chain3(noise.default_chain_coupling())
        ctx = protocol.prepare(spec, partition, protocol.MeasurementBasis.x(0))
        rho = ctx.rho_gs
        return qkd.verify_resource_state(ctx, lambda i: rho, rounds=20_000, seed=seed)

    def render(v) -> str:
        return (f"ok={v.ok}\nmean={v.mean_energy!r}\npredicted={v.predicted!r}\n"
                f"stderr={v.stderr!r}\nrounds={v.rounds}\n")

    def check(kv: dict[str, str]) -> list[str]:
        problems = [] if kv.get("ok") == "True" else \
            ["verify_resource_state rejects the genuine state"]
        gap = abs(float(kv["mean"]) - float(kv["predicted"]))
        # Both conditional energies can coincide (stderr 0): allow rounding.
        if not gap <= 5.0 * float(kv["stderr"]) + 1e-12:
            problems.append(f"|mean - predicted| = {gap:.3e} > 5 stderr")
        return problems

    return _library_op("verify_chain3", call, render, check)


def key_rounds(seed: int, out_dir: str) -> Workload:
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(12)]
    transcript = f"{out_dir}/fixed_transcript.csv"
    sessions = [
        ("session_fixed", ["--policy", "fixed", "--rounds", "100000",
                           "--transcript", transcript], 100_000, True),
        ("session_two_random", ["--policy", "two-random", "--rounds", "100000"],
         100_000, True),
        ("session_haar", ["--policy", "haar", "--rounds", "256"], 256, True),
        ("session_classical_flip", ["--noise", "classical_flip", "0.02",
                                    "--rounds", "20000"], 20_000, False),
    ]
    ops = []
    for i, (name, extra, rounds, noiseless) in enumerate(sessions):
        argv = ["session", "--model", "chain3", "--seed", str(seeds[i])] + extra
        files = (transcript,) if "--transcript" in extra else ()
        haar = name == "session_haar"  # one prepare, hence one eigh, per round
        ops.append(_cli_op(name, argv, files, _session_check(noiseless),
                           rounds=rounds, haar=haar, solve=haar))
    attacks = [("independent", None), ("postselect", None), ("split", "eve-waits"),
               ("split", "silent"), ("split", "sends")]
    for i, (scenario, sub) in enumerate(attacks):
        argv = ["attack", "--scenario", scenario, "--rounds", "200000",
                "--seed", str(seeds[4 + i])]
        if sub:
            argv += ["--sub", sub]
        name = f"attack_{scenario}" + (f"_{sub.replace('-', '_')}" if sub else "")
        ops.append(_cli_op(name, argv, (), _attack_check(scenario, sub),
                           rounds=200_000))
    ops.append(_multiparty_op(seeds[9]))
    ops.append(_verify_op(seeds[10]))
    warm = _cli_op("warmup_session", ["session", "--model", "chain3", "--rounds", "256",
                                      "--seed", str(seeds[11])], (),
                   _session_check(True))
    return Workload("key-rounds", ops, warmup=warm, needs_default_coupling=True,
                    info={"seeds": seeds})


# ---------------------------------------------------------------------------
# noise-scan
# ---------------------------------------------------------------------------

FAMILIES = ("classical", "bitflip", "phaseflip", "excited-mix", "excited-sup")
# Families left out of the timed workload because qetkd gets them wrong; the
# run record names each with the reason, and ``run.py --known-failures``
# runs them too, so the failure stays reproducible.  Put a family back into
# FAMILIES once the program is fixed: ``_noise_check`` still checks it.
KNOWN_FAILURES = {
    "depolarize": "noise.threshold_scan reports p* = 1.0000 on the default grid "
                  "(E_B(1) = 0 and np.sign(0) counts as a sign change); the "
                  "docstring promises no crossing",
}
GRID_POINTS = 101  # the CLI default grid 0:1:101


def _noise_check(family: str, csv_name: str, bisection_tol: float) -> Callable:
    def check(art: dict[str, bytes]) -> list[str]:
        rows, problems = _csv_rows(art[csv_name], "family,J,p,E_A,E_B")
        if len(rows) != GRID_POINTS:
            return problems + [f"{len(rows)} grid rows, expected {GRID_POINTS}"]
        p = np.array([float(r[2]) for r in rows])
        e_a = np.array([float(r[3]) for r in rows])
        e_b = np.array([float(r[4]) for r in rows])
        last = art["stdout"].decode().splitlines()[-1:] or [""]
        reported = None
        if "sign change at p* = " in last[0]:
            reported = float(last[0].rsplit("=", 1)[1])
        elif "no sign change" not in last[0]:
            problems.append(f"unexpected scan summary {last[0]!r}")
        if family in ("classical", "depolarize"):
            for label, e in (("E_A", e_a), ("E_B", e_b)):
                line = (1.0 - p) * e[0] + p * e[-1]
                dev = float(np.max(np.abs(e - line)))
                if dev > 1e-9:
                    problems.append(f"{label} departs from its affine closed form "
                                    f"by {dev:.3e}")
        if family == "classical":
            if e_b[0] * e_b[-1] < 0:
                want = e_b[0] / (e_b[0] - e_b[-1])
                if reported is None or abs(reported - want) > bisection_tol + 1e-12:
                    problems.append(f"classical crossing {reported}, closed form "
                                    f"E(0)/(E(0)-E(1)) = {want:.6f}")
            elif reported is not None:
                problems.append(f"classical reports a crossing at {reported} "
                                "but E_B keeps its sign")
        if family == "depolarize" and reported is not None:
            problems.append(f"depolarize reports a crossing at p* = {reported:.4f}")
        return problems
    return check


def noise_scan(seed: int, out_dir: str, bisection_tol: float,
               known_failures: bool = False) -> Workload:
    models = [("chain3", ["--model", "chain3"]),
              ("star6", ["--model", "star", "--N", "6", "--J", "1"])]

    def op(model: str, flags: list[str], family: str) -> Op:
        path = f"{out_dir}/noise_{model}_{family}.csv"
        argv = ["noise", "--family", family, *flags, "--out", path]
        return _cli_op(f"noise_{model}_{family}", argv, (path,),
                       _noise_check(family, Path(path).name, bisection_tol),
                       rounds=GRID_POINTS, solve=(model == "star6"))

    families = FAMILIES + (tuple(KNOWN_FAILURES) if known_failures else ())
    ops = [op(m, f, fam) for m, f in models for fam in families]
    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload("noise-scan", [ops[i] for i in order], warmup=ops[0],
                    needs_default_coupling=True,
                    info={"order": [ops[i].name for i in order],
                          "excluded": KNOWN_FAILURES})


def build(name: str, seed: int, out_dir: str, *, oracle, bisection_tol: float,
          known_failures: bool = False) -> Workload:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    if name == "star-scale":
        return star_scale(seed, out_dir, oracle)
    if name == "key-rounds":
        return key_rounds(seed, out_dir)
    if name == "noise-scan":
        return noise_scan(seed, out_dir, bisection_tol, known_failures)
    raise ValueError(f"unknown workload {name!r}")

