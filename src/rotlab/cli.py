"""Command-line surface.

Verbs:

* ``analyze``  - cheating profile of one protocol.
* ``balance``  - the two coin-flip compositions and their equalised
  advantages.
* ``bound``    - the closed-form lower bound with its quadratic.
* ``simulate`` - seeded completeness estimate for one protocol.
* ``cheat``    - seeded success estimate for a strategy file.
* ``headline`` - the full reproduction table with internal cross-checks.

Output is a human-readable table by default or a single canonical JSON
document with ``--output json`` (sorted keys, probabilities at six
decimals; parsing and re-emitting is byte-identical).  Exit codes: 0 on
success, 1 on validation/usage errors, 2 when the headline cross-checks
drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import adversary, montecarlo, security
from .linalg import ValidationError
from .security import ConsistencyError

_PROTOCOLS = ("bad_classical", "bad_qubit", "qutrit", "sequence")
_OPTIMIZER_TOLERANCE = 1e-9

_STRATEGY_FIELDS = {"party", "protocol", "parameters"}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; argparse's default of 2 is reserved for
    # consistency failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    command: str
    protocol: str | None = None
    trials: int = 10000
    seed: int = 42
    n_states: int = 100
    output: str = "table"
    strategy_file: str | None = None

    def __post_init__(self):
        # argparse enforces the required options and the choices.
        if self.trials < 1:
            raise ValidationError("--trials must be positive")


def render_json(value) -> str:
    """Canonical JSON: sorted keys, floats at six decimals."""
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(value[k])}" for k in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return "null"
    return json.dumps(value)


def _flatten(value, prefix=""):
    rows = []
    if isinstance(value, dict):
        for key in value:
            rows.extend(_flatten(value[key], f"{prefix}{key}." if prefix else f"{key}."))
    else:
        rows.append((prefix[:-1], value))
    return rows


def render_table(payload: dict) -> str:
    rows = _flatten(payload)
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        if isinstance(value, float):
            text = f"{value:.6f}"
        elif isinstance(value, (list, tuple)):
            text = "[" + ", ".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in value) + "]"
        else:
            text = str(value)
        lines.append(f"{name.ljust(width)}  {text}")
    return "\n".join(lines)


def _profile_dict(profile: security.CheatProfile) -> dict:
    return {
        "p_a_star": profile.p_a_star,
        "p_b_star": profile.p_b_star,
        "gamma_a": profile.gamma_a,
        "gamma_b": profile.gamma_b,
        "gamma": profile.gamma,
    }


def _analyze(config: RunConfig) -> dict:
    if config.protocol == "bad_classical":
        return _profile_dict(security.advantage(security.IDEAL_ALICE, 1.0))
    if config.protocol == "bad_qubit":
        return _profile_dict(security.advantage(1.0, security.IDEAL_BOB))
    if config.protocol == "qutrit":
        triple, optimized = adversary.optimize_alice_qutrit(_OPTIMIZER_TOLERANCE)
        closed_path = adversary.alice_qutrit_cheat_prob(adversary.AmplitudeTriple.balanced())
        payload = _profile_dict(security.advantage(closed_path, adversary.bob_qutrit_cheat_prob()))
        payload["p_a_star_optimized"] = optimized
        payload["optimal_triple"] = list(triple.as_tuple())
        return payload
    payload = _profile_dict(
        security.advantage(adversary.alice_sequence_cheat_prob(), adversary.bob_sequence_cheat_prob())
    )
    payload["p_b_star_is_limit"] = True
    return payload


def _balance(config: RunConfig) -> dict:
    classical = security.advantage(security.IDEAL_ALICE, 1.0)
    qubit = security.advantage(1.0, security.IDEAL_BOB)
    qutrit = security.advantage(
        adversary.alice_qutrit_cheat_prob(adversary.AmplitudeTriple.balanced()),
        adversary.bob_qutrit_cheat_prob(),
    )
    bad_pair = security.balance(qubit, classical)
    refined = security.balance(qubit, qutrit)
    return {
        "bad_pair": {"z_bias": bad_pair.z_bias, "gamma": bad_pair.gamma},
        "qubit_qutrit": {"z_bias": refined.z_bias, "gamma": refined.gamma},
    }


def _bound(config: RunConfig) -> dict:
    value = security.kitaev_min_advantage(security.IDEAL_ALICE, security.IDEAL_BOB)
    return {
        "bound": value,
        "quadratic_coefficients": [
            security.IDEAL_ALICE * security.IDEAL_BOB,
            security.IDEAL_BOB,
            -1.0,
        ],
        "ideal_alice": security.IDEAL_ALICE,
        "ideal_bob": security.IDEAL_BOB,
    }


def _simulate(config: RunConfig) -> dict:
    report, conditional = montecarlo.estimate_completeness(
        config.protocol, config.trials, config.seed, n_states=config.n_states
    )
    return {
        "protocol": config.protocol,
        "seed": config.seed,
        "assert_rate": report.to_dict(),
        "conditional_correct": conditional,
    }


def _load_strategy(path: str) -> adversary.CheatStrategy:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read strategy file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"strategy file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("strategy file must hold a JSON object")
    unknown = set(raw) - _STRATEGY_FIELDS
    if unknown:
        raise ValidationError(f"unknown strategy fields: {sorted(unknown)}")
    missing = {"party", "protocol"} - set(raw)
    if missing:
        raise ValidationError(f"strategy file is missing fields: {sorted(missing)}")
    return adversary.CheatStrategy(raw["party"], raw["protocol"], raw.get("parameters"))


def _cheat(config: RunConfig) -> dict:
    strategy = _load_strategy(config.strategy_file)
    report = montecarlo.estimate_cheat(strategy, config.trials, config.seed)
    return {
        "party": strategy.party,
        "protocol": strategy.protocol,
        "seed": config.seed,
        "success": report.to_dict(),
    }


def _headline(config: RunConfig) -> dict:
    return security.reproduce_headline_table().to_dict()


_COMMANDS = {
    "analyze": _analyze,
    "balance": _balance,
    "bound": _bound,
    "simulate": _simulate,
    "cheat": _cheat,
    "headline": _headline,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rotlab", description="Rabin oblivious transfer security laboratory")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, protocol=False, trials=False, strategy=False):
        sub = commands.add_parser(name, help=help_text)
        if protocol:
            sub.add_argument("--protocol", choices=_PROTOCOLS, required=True)
        if trials:
            sub.add_argument("--trials", type=int, default=10000)
            sub.add_argument("--seed", type=int, default=42)
        if strategy:
            sub.add_argument("--strategy", dest="strategy_file", required=True)
        sub.add_argument("--output", choices=("table", "json"), default="table")
        return sub

    add("analyze", "cheating profile of one protocol", protocol=True)
    add("balance", "coin-flip compositions of the protocol pairs")
    add("bound", "closed-form lower bound on the cheating advantage")
    simulate = add("simulate", "seeded completeness estimate", protocol=True, trials=True)
    simulate.add_argument("--n-states", type=int, default=100, dest="n_states")
    add("cheat", "seeded cheating-strategy estimate", trials=True, strategy=True)
    add("headline", "recompute the headline table with cross-checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            protocol=getattr(args, "protocol", None),
            trials=getattr(args, "trials", 10000),
            seed=getattr(args, "seed", 42),
            n_states=getattr(args, "n_states", 100),
            output=args.output,
            strategy_file=getattr(args, "strategy_file", None),
        )
        payload = _COMMANDS[config.command](config)
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output == "json":
        print(render_json(payload))
    else:
        print(render_table(payload))
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
