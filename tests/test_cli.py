import json
import math

import pytest

from rotlab import cli, security
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


def test_headline_consistency_exit_code(capsys, monkeypatch):
    def broken():
        raise security.ConsistencyError("forced drift")

    monkeypatch.setattr(security, "reproduce_headline_table", broken)
    code, out, err = run_cli(capsys, "headline")
    assert code == 2
    assert "consistency" in err


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


def test_cheat_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cheat", "--strategy", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err


def test_unknown_verb_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--wat"])
    assert excinfo.value.code == 1


def test_simulate_trials_validation(capsys):
    code, _, err = run_cli(capsys, "simulate", "--protocol", "qutrit", "--trials", "0")
    assert code == 1


def test_render_json_formats():
    text = render_json({"b": 0.5, "a": [1, 2.0, None, True], "c": "x"})
    assert text == '{"a": [1, 2.000000, null, true], "b": 0.500000, "c": "x"}'
