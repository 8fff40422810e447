import itertools
import json
import warnings

import numpy as np
import pytest

from switchlab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_scs_command(capsys):
    env = run_json(capsys, "scs", "ABCD", "BADC", "CBDA", "DACB")
    assert env["results"]["length"] == 9
    assert set(env["results"]["embeddings"]) == {"ABCD", "BADC", "CBDA", "DACB"}


def test_scs_trivial(capsys):
    env = run_json(capsys, "scs", "ABCD")
    assert env["results"]["length"] == 4


def test_scs_census(capsys):
    env = run_json(capsys, "scs", "--census")
    assert env["results"]["histogram"] == {"6": 37, "7": 946, "8": 779, "9": 9}
    assert env["results"]["total_quartets"] == 1771


def test_enumerate_full(capsys):
    env = run_json(capsys, "enumerate", "--gates", "G", "--perms", "sigma-star",
                   "--matrix", "M4")
    assert env["results"]["total"] == 460
    assert env["results"]["per_column"] == [316, 60, 42, 42]


def test_enumerate_identity_only(capsys):
    env = run_json(capsys, "enumerate", "--gates", "identity-only")
    assert env["results"]["total"] == 1


def test_enumerate_classes(capsys):
    env = run_json(capsys, "enumerate", "--gates", "G", "--classes")
    assert env["results"]["classes"]["phase_sensitive"] == 102
    assert env["results"]["classes"]["phase_insensitive"] == 98


def test_enumerate_pauli_classes(capsys):
    env = run_json(capsys, "enumerate", "--gates", "pauli", "--classes")
    assert env["results"]["total"] == 136
    assert env["results"]["classes"] == {"phase_sensitive": 35, "phase_insensitive": 31}


def test_enumerate_listing(capsys):
    env = run_json(capsys, "enumerate", "--gates", "pauli", "--list")
    assert env["results"]["total"] == 136
    assert len(env["results"]["sets"]) == 136
    assert env["results"]["sets"][0] == {"gates": ["I", "I", "I", "I"], "y": 0}


def test_run_command(capsys):
    env = run_json(capsys, "run", "--table", "1", "--column", "2")
    assert env["results"]["decoded_y"] == 2
    assert env["results"]["success_probability"] == 1.0


def test_run_noiseless_table2(capsys):
    env = run_json(capsys, "run", "--table", "2", "--column", "0", "--gamma", "0")
    assert env["results"]["success_probability"] == 1.0


def test_run_with_shots_regression(capsys):
    env = run_json(capsys, "run", "--table", "1", "--column", "1",
                   "--gamma", "0.3", "--shots", "6000", "--seed", "7")
    hist = env["results"]["histogram"]
    assert sum(hist) == 6000
    # gamma = 0.3 leaves 0.7 + 0.3/4 = 0.775 on the true column
    assert env["results"]["distribution"] == [0.075, 0.775, 0.075, 0.075]
    # [frozen at first run; deterministic for seed 7]
    assert hist == [450, 4679, 422, 449]


def test_circuit_command(capsys):
    env = run_json(capsys, "circuit", "--perms", "sigma-star", "--table", "2",
                   "--column", "1")
    assert env["results"]["circuit_queries"] == 9
    assert env["results"]["switch_queries"] == 4
    assert env["results"]["query_gap"] == 5
    assert env["results"]["fidelity"] >= 1 - 1e-10


def test_witness_command(capsys):
    env = run_json(capsys, "witness", "--components", "table1-uniform")
    assert env["results"]["p_succ"] == 1.0
    assert env["results"]["process_trace"] == 16.0


def test_attack_command(capsys):
    env = run_json(capsys, "attack", "--table", "auto", "--column", "3")
    assert env["results"]["guessed_y"] == 3
    assert env["results"]["success"] is True
    env = run_json(capsys, "attack", "--table", "2", "--column", "0")
    assert env["results"]["query_count"] <= 4


# ---------------------------------------------------------------------------
# envelope discipline
# ---------------------------------------------------------------------------

def test_payload_is_deterministic(capsys):
    a = run_json(capsys, "run", "--table", "1", "--column", "1",
                 "--gamma", "0.2", "--shots", "100", "--seed", "5")
    b = run_json(capsys, "run", "--table", "1", "--column", "1",
                 "--gamma", "0.2", "--shots", "100", "--seed", "5")
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_envelope_fields(capsys):
    env = run_json(capsys, "run", "--table", "1", "--column", "0", "--seed", "3")
    assert env["command"] == "run"
    assert env["seed"] == 3
    assert "elapsed_ms" in env
    assert env["parameters"]["column"] == 0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_malformed_permutation_exits_2(capsys):
    code, _, err = run_cli(capsys, "scs", "ABCA")
    assert code == 2
    assert "permutation" in err


def test_unknown_gate_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--gates", "/nonexistent.json")
    assert code == 2


def test_bad_column_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--table", "1", "--column", "9")
    assert code == 2
    assert "column" in err


def test_zero_shots_exits_2(capsys):
    code, out, err = run_cli(capsys, "run", "--table", "1", "--column", "0", "--shots", "0")
    assert code == 2 and not out
    assert "shots must be at least 1" in err


def test_bad_gamma_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--table", "1", "--column", "0",
                           "--gamma", "1.5")
    assert code == 2


def test_negative_seed_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--table", "1", "--column", "0",
                           "--seed", "-1", "--shots", "5")
    assert code == 2
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_non_finite_epsilon_exits_2(capsys, epsilon):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "run", "--table", "1", "--column", "1",
                               "--epsilon", epsilon)
    assert code == 2
    assert "epsilon" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_invariant_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("switchlab.fixed_order.switch_equivalence_fidelity",
                        lambda *a, **k: 0.5)
    code, _, err = run_cli(capsys, "circuit", "--table", "1", "--column", "0")
    assert code == 3
    assert "invariant" in err


def test_argparse_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--table", "1"])  # missing required --column
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def as_pairs(matrix):
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in matrix]


def test_gate_and_perm_and_matrix_files(capsys, tmp_path):
    z = [[1, 0], [0, -1]]
    x = [[0, 1], [1, 0]]
    eye = [[1, 0], [0, 1]]
    gates = [{"name": n, "matrix": as_pairs(np.array(m, dtype=complex))}
             for n, m in (("I", eye), ("Z", z), ("X", x))]
    gate_file = tmp_path / "gates.json"
    gate_file.write_text(json.dumps(gates))
    perm_file = tmp_path / "perms.json"
    perm_file.write_text(json.dumps(["ABCD", "BADC", "CBDA", "DACB"]))
    matrix_file = tmp_path / "m4.json"
    matrix_file.write_text(json.dumps([[1, 1, 1, 1], [1, 1, -1, -1],
                                       [1, -1, -1, 1], [1, -1, 1, -1]]))
    env = run_json(capsys, "enumerate", "--gates", str(gate_file),
                   "--perms", str(perm_file), "--matrix", str(matrix_file))
    assert env["results"]["gate_count"] == 3
    assert env["results"]["total"] > 0


def test_oracle_file_for_run(capsys, tmp_path):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    oracle = [{"name": "Z", "matrix": as_pairs(z)},
              {"name": "X", "matrix": as_pairs(x)},
              {"name": "Z", "matrix": as_pairs(z)},
              {"name": "X", "matrix": as_pairs(x)}]
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    env = run_json(capsys, "run", "--table", str(path), "--column", "1")
    assert env["results"]["decoded_y"] == 1
    assert env["results"]["success_probability"] == 1.0


def zx_oracle_file(tmp_path):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    oracle = [{"name": n, "matrix": as_pairs(m)} for n, m in (("Z", z), ("X", x)) * 2]
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    return str(path)


def test_oracle_file_with_out_of_range_column_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--table", zx_oracle_file(tmp_path), "--column", "9")
    assert code == 2
    assert "claimed column 9 out of range for P = 4" in err


def test_circuit_rejects_out_of_range_column(capsys, tmp_path):
    path = zx_oracle_file(tmp_path)
    code, out, err = run_cli(capsys, "circuit", "--table", path, "--column", "9")
    assert code == 2 and not out
    assert "claimed column 9 out of range for P = 4" in err
    assert run_json(capsys, "circuit", "--table", path, "--column", "3")["results"]["fidelity"] == 1.0


def test_witness_components_file(capsys, tmp_path):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    comp = [{"gates": [{"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)},
                       {"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)}],
             "y": 1, "q": 1.0}]
    path = tmp_path / "components.json"
    path.write_text(json.dumps(comp))
    env = run_json(capsys, "witness", "--components", str(path))
    assert env["results"]["p_succ"] == 1.0


def test_witness_components_file_rejects_wrong_column(capsys, tmp_path):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    comp = [{"gates": [{"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)},
                       {"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)}],
             "y": 2, "q": 1.0}]
    path = tmp_path / "components.json"
    path.write_text(json.dumps(comp))
    code, _, err = run_cli(capsys, "witness", "--components", str(path))
    assert code == 2
    assert "disagrees" in err


def test_witness_components_file_rejects_non_finite_weight(capsys, tmp_path):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    comp = [{"gates": [{"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)},
                       {"name": "Z", "matrix": as_pairs(z)},
                       {"name": "X", "matrix": as_pairs(x)}],
             "y": 1, "q": float("nan")}]
    path = tmp_path / "components.json"
    path.write_text(json.dumps(comp))
    code, _, err = run_cli(capsys, "witness", "--components", str(path))
    assert code == 2
    assert "weights must be finite" in err


def test_witness_rejects_orderings_of_three_slots(capsys, tmp_path):
    path = tmp_path / "perms.json"
    path.write_text(json.dumps(["ABC", "BAC", "CBA", "ACB"]))
    code, out, err = run_cli(capsys, "witness", "--perms", str(path))
    assert code == 2 and not out
    assert "needs orderings of the four slots ABCD" in err


def test_witness_rejects_eight_orderings(capsys, tmp_path):
    # eight orderings give an eight-outcome readout; witnesses read four
    path = tmp_path / "perms.json"
    orders = ["".join(o) for o in itertools.permutations("ABCD")][:8]
    path.write_text(json.dumps(orders))
    code, out, err = run_cli(capsys, "witness", "--perms", str(path), "--matrix", "sylvester")
    assert code == 2 and not out
    assert "witness readout dim 4 does not match process readout dim 8" in err


def test_empty_permutation_file_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, err = run_cli(capsys, "enumerate", "--perms", str(path))
    assert code == 2 and not out
    assert f"malformed permutation file {str(path)!r}: at least one ordering is required" in err


@pytest.mark.parametrize("data", [[1, 2], {"a": 1}, "ABCD", ["ABCD", 7]])
def test_permutation_file_must_hold_label_strings(capsys, tmp_path, data):
    # stringified entries would read [1, 2] as the words '1' and '2', and an
    # object as its keys
    path = tmp_path / "perms.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "enumerate", "--perms", str(path))
    assert code == 2 and not out
    assert f"malformed permutation file {str(path)!r}: expected a JSON list of label strings" in err


def test_malformed_gate_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"name": "Z"}]))
    code, _, _ = run_cli(capsys, "enumerate", "--gates", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# rendering options
# ---------------------------------------------------------------------------

def test_pretty_rendering(capsys):
    code, out, _ = run_cli(capsys, "run", "--table", "1", "--column", "2", "--pretty")
    assert code == 0
    assert "command: run" in out
    assert "decoded_y: 2" in out


def test_csv_histogram(capsys):
    code, out, _ = run_cli(capsys, "run", "--table", "1", "--column", "0",
                           "--shots", "50", "--seed", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,count"
    assert len(lines) == 5
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 50


def test_csv_census(capsys):
    code, out, _ = run_cli(capsys, "scs", "--census", "--csv")
    assert code == 0
    assert "6,37" in out and "9,9" in out


def test_csv_without_histogram_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--table", "1", "--column", "0", "--csv")
    assert code == 2
    assert "histogram" in err
