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
success, 1 on validation/usage errors or when the reader closes stdout
early, 2 when the headline cross-checks drift.  Each verb's options, their
defaults (``--trials 10000 --seed 42 --output table``) and its handler are
declared once, in :func:`build_parser`; the library checks the values, so
a ``--trials`` below a verb's minimum exits 1 with the library's message.
The parser is built once, at import, and ``main`` only parses with it, so
``main`` may be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import adversary, montecarlo, security
from .linalg import ValidationError
from .protocols import PROTOCOL_IDS
from .security import ConsistencyError

_STRATEGY_FIELDS = {"party", "protocol", "parameters"}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; argparse's default of 2 is reserved for
    # consistency failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _analyze(args: argparse.Namespace) -> dict:
    if args.protocol == "bad_classical":
        return _profile_dict(security.BAD_CLASSICAL_PROFILE)
    if args.protocol == "bad_qubit":
        return _profile_dict(security.BAD_QUBIT_PROFILE)
    if args.protocol == "qutrit":
        triple, optimized = adversary.optimize_alice_qutrit(adversary.OPTIMIZER_TOLERANCE)
        payload = _profile_dict(security.qutrit_profile())
        payload["p_a_star_optimized"] = optimized
        payload["optimal_triple"] = list(triple.as_tuple())
        return payload
    payload = _profile_dict(
        security.advantage(adversary.alice_sequence_cheat_prob(), adversary.bob_sequence_cheat_prob())
    )
    payload["p_b_star_is_limit"] = True
    return payload


def _balance(args: argparse.Namespace) -> dict:
    bad_pair = security.balance(security.BAD_QUBIT_PROFILE, security.BAD_CLASSICAL_PROFILE)
    refined = security.balance(security.BAD_QUBIT_PROFILE, security.qutrit_profile())
    return {
        "bad_pair": {"z_bias": bad_pair.z_bias, "gamma": bad_pair.gamma},
        "qubit_qutrit": {"z_bias": refined.z_bias, "gamma": refined.gamma},
    }


def _bound(args: argparse.Namespace) -> dict:
    return {
        "bound": security.kitaev_min_advantage(security.IDEAL_ALICE, security.IDEAL_BOB),
        "quadratic_coefficients": security.kitaev_quadratic(security.IDEAL_ALICE, security.IDEAL_BOB),
        "ideal_alice": security.IDEAL_ALICE,
        "ideal_bob": security.IDEAL_BOB,
    }


def _simulate(args: argparse.Namespace) -> dict:
    if args.n_states is not None and args.protocol != "sequence":
        raise ValidationError(f"--n-states applies only to --protocol sequence, not {args.protocol}")
    report, conditional = montecarlo.estimate_completeness(
        args.protocol, args.trials, args.seed, args.n_states
    )
    return {
        "protocol": args.protocol,
        "seed": args.seed,
        "assert_rate": report.to_dict(),
        "conditional_correct": conditional,
    }


def _load_strategy(path: str) -> adversary.CheatStrategy:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read strategy file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"strategy file is not valid UTF-8: {exc.reason} at position {exc.start}") from exc
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


def _cheat(args: argparse.Namespace) -> dict:
    strategy = _load_strategy(args.strategy_file)
    report = montecarlo.estimate_cheat(strategy, args.trials, args.seed)
    return {
        "party": strategy.party,
        "protocol": strategy.protocol,
        "seed": args.seed,
        "success": report.to_dict(),
    }


def _headline(args: argparse.Namespace) -> dict:
    return security.reproduce_headline_table().to_dict()


def build_parser() -> _Parser:
    parser = _Parser(prog="rotlab", description="Rabin oblivious transfer security laboratory")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, protocol=False, trials=False, strategy=False):
        sub = commands.add_parser(name, help=help_text)
        if protocol:
            sub.add_argument("--protocol", choices=PROTOCOL_IDS, required=True)
        if trials:
            sub.add_argument("--trials", type=int, default=10000)
            sub.add_argument("--seed", type=int, default=42)
        if strategy:
            sub.add_argument("--strategy", dest="strategy_file", required=True)
        sub.add_argument("--output", choices=("table", "json"), default="table")
        sub.set_defaults(run=run)
        return sub

    add("analyze", _analyze, "cheating profile of one protocol", protocol=True)
    add("balance", _balance, "coin-flip compositions of the protocol pairs")
    add("bound", _bound, "closed-form lower bound on the cheating advantage")
    simulate = add("simulate", _simulate, "seeded completeness estimate", protocol=True, trials=True)
    simulate.add_argument("--n-states", type=int, dest="n_states")
    add("cheat", _cheat, "seeded cheating-strategy estimate", trials=True, strategy=True)
    add("headline", _headline, "recompute the headline table with cross-checks")
    return parser


# Parsing leaves the parser as it found it, so one serves every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload = args.run(args)
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(render_json(payload))
    else:
        print(render_table(payload))
    return 0


def entry_point() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a reader gone early raises here, not at exit
    except BrokenPipeError:
        # Python's recipe: devnull onto stdout, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
