import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotlab
from rotlab import adversary, cli, security
from rotlab.cli import main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_qutrit_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "qutrit", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    best = (2.0 + math.sqrt(2.0)) / 4.0
    assert abs(payload["p_a_star"] - best) < 1e-6
    assert abs(payload["p_a_star_optimized"] - best) < 1e-6
    assert payload["p_b_star"] == 0.75
    assert payload["gamma"] == 1.5


def test_analyze_table_uses_six_decimals(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "qutrit")
    assert code == 0
    assert "0.853553" in out
    assert "1.500000" in out


def test_analyze_bad_protocol_profiles(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "bad_classical", "--output", "json")
    assert json.loads(out)["gamma"] == 2.0
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "bad_qubit", "--output", "json")
    assert abs(json.loads(out)["gamma"] - 4.0 / 3.0) < 1e-6


def test_analyze_sequence_marks_limit(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "sequence", "--output", "json")
    payload = json.loads(out)
    assert payload["p_b_star_is_limit"] is True
    assert payload["gamma"] == 1.5


def test_balance_compositions(capsys):
    code, out, _ = run_cli(capsys, "balance", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bad_pair"]["gamma"] == 1.25
    assert payload["bad_pair"]["z_bias"] == 0.25
    assert abs(payload["qubit_qutrit"]["gamma"] - 1.239718) < 1e-6


def test_bound_prints_quadratic(capsys):
    code, out, _ = run_cli(capsys, "bound", "--output", "json")
    payload = json.loads(out)
    assert abs(payload["bound"] - 1.097168) < 1e-6
    assert payload["quadratic_coefficients"] == [0.375, 0.5, -1.0]


def test_headline_interval(capsys):
    code, out, _ = run_cli(capsys, "headline", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    lo, hi = payload["interval"]
    assert abs(lo - 1.0972) < 1e-3
    assert abs(hi - 1.2398) < 1e-3


# The exact documents, byte for byte; any change to the optimizer or the
# headline path that moves a printed digit fails here.
PINNED_JSON = {
    ("analyze", "--protocol", "qutrit"): (
        '{"gamma": 1.500000, "gamma_a": 1.138071, "gamma_b": 1.500000, '
        '"optimal_triple": [0.500000, 0.500000, 0.707107], "p_a_star": 0.853553, '
        '"p_a_star_optimized": 0.853553, "p_b_star": 0.750000}\n'
    ),
    ("headline",): (
        '{"interval": [1.097168, 1.239718], "lemma_2_profile": {"gamma": 1.500000, '
        '"p_a_star": 0.853553, "p_b_star": 0.750000}, "protocol_1_gamma": 2.000000, '
        '"protocol_2_gamma": 1.333333, "theorem_1_gamma": 1.250000, '
        '"theorem_2_gamma": 1.239718, "theorem_3_bound": 1.097168}\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON))
def test_json_output_is_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert code == 0
    assert err == ""
    assert out == PINNED_JSON[argv]


def test_headline_consistency_exit_code(capsys, monkeypatch):
    def broken():
        raise security.ConsistencyError("forced drift")

    monkeypatch.setattr(security, "reproduce_headline_table", broken)
    code, out, err = run_cli(capsys, "headline")
    assert code == 2
    assert "consistency" in err


def test_closed_stdout_exits_one_quietly():
    # ``rotlab ... | head -1``: the reader is gone before the output is
    # written.  The read end is closed before the process starts, so every
    # write to its stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    source = str(Path(rotlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    try:
        argv = [sys.executable, "-m", "rotlab.cli", "simulate", "--protocol", "qutrit", "--trials", "5000"]
        result = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 1


def test_json_round_trip_is_byte_identical(capsys):
    for argv in (
        ["headline", "--output", "json"],
        ["bound", "--output", "json"],
        ["balance", "--output", "json"],
        ["analyze", "--protocol", "qutrit", "--output", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        document = out.rstrip("\n")
        assert render_json(json.loads(document)) == document


def test_simulate_is_deterministic(capsys):
    args = ("simulate", "--protocol", "bad_classical", "--trials", "2000", "--seed", "9", "--output", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["conditional_correct"] is True
    assert payload["assert_rate"]["trials"] == 2000


@pytest.mark.parametrize("protocol", ["bad_classical", "bad_qubit", "qutrit"])
@pytest.mark.parametrize("n_states", ["3", "100"])
def test_simulate_rejects_n_states_for_single_transfers(capsys, protocol, n_states):
    # --n-states sizes the sequence batch; a single transfer has none, so
    # the flag is refused rather than ignored, as the sequence protocol
    # refuses a batch below 4.
    args = ("simulate", "--trials", "1000", "--n-states")
    code, out, err = run_cli(capsys, *args, n_states, "--protocol", protocol)
    assert code == 1
    assert out == ""
    assert err == f"error: --n-states applies only to --protocol sequence, not {protocol}\n"
    code, _, err = run_cli(capsys, *args, "3", "--protocol", "sequence")
    assert code == 1 and err.startswith("error: ")


def test_simulate_rejects_oversized_batches(capsys):
    # SequenceConfig rejects the batch before any run is built.
    args = ("simulate", "--protocol", "sequence", "--trials", "1000", "--n-states", "65537")
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err == "error: sequence protocol takes at most 65536 states\n"


def test_simulate_sequence_keeps_its_default_batch(capsys):
    args = ("simulate", "--protocol", "sequence", "--trials", "1000", "--seed", "4", "--output", "json")
    _, default, _ = run_cli(capsys, *args)
    code, explicit, _ = run_cli(capsys, *args, "--n-states", "100")
    assert code == 0 and default == explicit


def test_cheat_with_strategy_file(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "bob", "protocol": "qutrit"}))
    code, out, _ = run_cli(capsys, "cheat", "--strategy", str(path), "--trials", "1500", "--seed", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["success"]["estimate"] - 0.75) < 0.04


def test_cheat_rejects_unknown_fields(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "bob", "protocol": "qutrit", "extra": 1}))
    code, _, err = run_cli(capsys, "cheat", "--strategy", str(path))
    assert code == 1
    assert "unknown strategy fields" in err


def test_cheat_rejects_unknown_parameters(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "alice", "protocol": "qutrit", "parameters": {"probe": 1}}))
    code, _, err = run_cli(capsys, "cheat", "--strategy", str(path))
    assert code == 1


def test_cheat_rejects_n_states(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "bob", "protocol": "qutrit"}))
    with pytest.raises(SystemExit) as excinfo:
        main(["cheat", "--strategy", str(path), "--n-states", "9"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("amplitude", ["NaN", "1e200"])
def test_cheat_rejects_bad_amplitudes(capsys, tmp_path, amplitude):
    path = tmp_path / "strategy.json"
    path.write_text(
        '{"party": "alice", "protocol": "qutrit", "parameters": {"triple": [%s, 0, 0]}}' % amplitude
    )
    code, out, err = run_cli(capsys, "cheat", "--strategy", str(path), "--trials", "10")
    assert code == 1
    assert out == ""
    assert "alpha must be a finite amplitude in [0, 1]" in err


@pytest.mark.parametrize(
    "document",
    [
        {"party": "alice", "protocol": "qutrit", "parameters": 5},
        {"party": "alice", "protocol": "qutrit", "parameters": []},
        {"party": ["alice"], "protocol": "qutrit"},
        {"party": "alice", "protocol": 3},
        {"party": "alice", "protocol": "qutrit", "parameters": {"triple": [0.5, 0.5, None]}},
        {"party": "alice", "protocol": "qutrit", "parameters": {"triple": ["0.5", "0.5", "0.7071067811865476"]}},
        {"party": "alice", "protocol": "qutrit", "parameters": {"triple": [True, 0, 0]}},
        {"party": "alice", "protocol": "sequence", "parameters": {"n_states": 65537}},
        {"party": "alice", "protocol": "sequence", "parameters": {"n_states": 4.5}},
        {"party": "alice", "protocol": "sequence", "parameters": {"n_states": True}},
    ],
)
def test_cheat_rejects_malformed_strategy_files(capsys, tmp_path, document):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "cheat", "--strategy", str(path), "--trials", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cheat_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cheat", "--strategy", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err


def test_cheat_rejects_a_strategy_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "strategy.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "cheat", "--strategy", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: strategy file is not valid UTF-8: invalid start byte at position 0\n"


def test_unknown_verb_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--protocol", "qutrit", "--wat"])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --wat" in capsys.readouterr().err


def test_simulate_trials_validation(capsys, tmp_path):
    # The library refuses a trial count below the verb's minimum.
    code, _, err = run_cli(capsys, "simulate", "--protocol", "qutrit", "--trials", "0")
    assert code == 1
    assert err == "error: need at least 1000 trials, got 0\n"
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "bob", "protocol": "qutrit"}))
    code, out, err = run_cli(capsys, "cheat", "--strategy", str(path), "--trials", "0")
    assert code == 1
    assert out == ""
    assert err == "error: need at least one trial\n"


def _table(text):
    return dict(line.split(None, 1) for line in text.splitlines())


def test_estimates_default_to_10000_trials_at_seed_42_as_a_table(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "bad_classical")
    assert code == 0
    rows = _table(out)
    assert rows["assert_rate.trials"] == "10000" and rows["seed"] == "42"
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps({"party": "bob", "protocol": "qutrit"}))
    code, out, _ = run_cli(capsys, "cheat", "--strategy", str(path))
    assert code == 0
    rows = _table(out)
    assert rows["success.trials"] == "10000" and rows["seed"] == "42"


def test_render_json_formats():
    text = render_json({"b": 0.5, "a": [1, 2.0, None, True], "c": "x"})
    assert text == '{"a": [1, 2.000000, null, true], "b": 0.500000, "c": "x"}'


def test_repeated_calls_share_no_state(capsys):
    # One parser serves every call in a process: a call after a usage
    # error, help and a validation error sees it as the first call did.
    first = run_cli(capsys, "bound", "--output", "json")
    for argv, status in ((["analyze", "--protocol", "qutrit", "--wat"], 1), (["--help"], 0)):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == status
    assert run_cli(capsys, "simulate", "--protocol", "qutrit", "--trials", "0")[0] == 1
    assert run_cli(capsys, "bound", "--output", "json") == first


def test_cold_headline_runs_the_full_search(capsys, monkeypatch):
    # Every cold headline solves the same eigenproblems again, the
    # optimizer's eigh steps among them, so nothing on the headline path
    # may serve them from a cache.
    solves = []

    def counted(name, solver):
        def wrapper(operators):
            solves.append((name, math.prod(np.shape(operators)[:-2])))
            return solver(operators)

        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    work = []
    for _ in range(2):
        adversary.optimize_alice_qutrit.cache_clear()
        solves.clear()
        code, out, _ = run_cli(capsys, "headline", "--output", "json")
        assert code == 0 and out == PINNED_JSON[("headline",)]
        work.append(sorted(solves))
    assert work[0] == work[1] and {name for name, _ in work[0]} == {"eigvalsh", "eigh"}
