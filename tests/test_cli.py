import json

import numpy as np
import pytest

from dc_lab import cli
from dc_lab.families import (
    family_2dm1,
    family_dp2,
    family_f46,
    family_f47,
    qutrit_five_family,
    shift_diag_family,
    weyl_family,
)


def run(argv):
    return cli.main(argv)


def test_construct_dp2_six(tmp_path, capsys):
    out = tmp_path / "f68.json"
    assert run(["construct", "d-plus-two", "-d", "6", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "F_6/8" in text and "K=8" in text
    doc = json.loads(out.read_text())
    assert doc["label"] == "F_6/8"
    assert doc["d"] == 6
    assert len(doc["members"]) == 8


def test_construct_five_and_weyl(tmp_path, capsys):
    out = tmp_path / "five.json"
    assert run(["construct", "five", "-d", "3", "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 5
    out2 = tmp_path / "weyl2.json"
    assert run(["construct", "weyl", "-d", "2", "--output", str(out2)]) == 0
    assert len(json.loads(out2.read_text())["members"]) == 4


def test_construct_rejects_wrong_dimension(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["construct", "five", "-d", "4", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "d=3" in err


def test_construct_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["construct", "nope", "-d", "3", "--output", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_verify_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "f46.json"
    run(["construct", "f46", "-d", "4", "--output", str(out)])
    assert run(["verify", str(out), "--lambdas", "2/3", "1/3", "0", "0"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(["verify", str(out), "--lambdas", "0.9", "0.1", "0", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_reports_span_residuals_at_saturation(tmp_path, capsys):
    out = tmp_path / "f47.json"
    run(["construct", "f47", "-d", "4", "--output", str(out)])
    assert run(["verify", str(out), "--lambdas", "4/7", "3/7", "0", "0"]) == 0
    text = capsys.readouterr().out
    assert "saturated" in text
    assert "m=3" in text


def test_verify_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "d": 4, "members": [[[1, 0]]]')
    assert run(["verify", str(bad), "--lambdas", "1", "0", "0", "0"]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text('{"schema_version": 99, "d": 2, "members": []}')
    assert run(["verify", str(bad2), "--lambdas", "1", "0"]) == 2


def test_verify_dimension_mismatch(tmp_path, capsys):
    out = tmp_path / "weyl3.json"
    run(["construct", "weyl", "-d", "3", "--output", str(out)])
    assert run(["verify", str(out), "--lambdas", "0.5", "0.5"]) == 2


def test_family_documents_round_trip_exactly(tmp_path):
    built = [
        weyl_family(3),
        qutrit_five_family(),
        family_f46(),
        family_f47(),
        family_2dm1(6),
        family_dp2(7),
        shift_diag_family(3, [np.ones(3)] * 3),
    ]
    for fam in built:
        path = tmp_path / f"{fam.label.replace('/', '_')}.json"
        cli.write_family_document(fam, str(path))
        loaded = cli.read_family_document(str(path))
        assert loaded.d == fam.d
        assert loaded.label == fam.label
        assert loaded.target_lambda0 == fam.target_lambda0
        assert len(loaded.members) == len(fam.members)
        for a, b in zip(loaded.members, fam.members):
            assert np.array_equal(a, b)


def test_state_info_low_entropy_state(capsys):
    assert run(["state-info", "--lambdas", "3/5", "2/5", "0"]) == 0
    text = capsys.readouterr().out
    assert "wcsg_bound: 5" in text
    assert "shift_family_obstructed: True" in text
    assert abs(float(text.split("entropy_bits: ")[1].splitlines()[0]) - 0.9709505945) <= 1e-9


def test_state_info_uniform(capsys):
    assert run(["state-info", "--lambdas", "1/3", "1/3", "1/3"]) == 0
    text = capsys.readouterr().out
    assert "wcsg_bound: 9" in text
    assert "shift_family_obstructed: False" in text
    assert abs(float(text.split("entropy_bits: ")[1].splitlines()[0]) - 1.5849625007) <= 1e-9


def test_state_info_notes_strict_exclusion(capsys):
    assert run(["state-info", "--lambdas", "3/4", "1/8", "1/8"]) == 0
    text = capsys.readouterr().out
    assert "K=4 excluded by strict bound" in text


def test_state_info_rejects_bad_weights(capsys):
    assert run(["state-info", "--lambdas", "0.9", "0.3"]) == 2


def test_search_command_smoke(capsys):
    assert run(["search", "--lambdas", "0.5", "0.5", "--restarts", "3", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert "n_max estimate: 4" in text


def test_sweep_writes_deterministic_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "-d", "3", "--resolution", "4", "--seed", "1", "--restarts", "2", "--output"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    first = out1.read_bytes()
    assert first == out2.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "lambda0,lambda1,lambda2,entropy_bits,wcsg_bound,n_max_estimate,best_objective_at_refusal,seed"
    assert len(lines) == 1 + 13
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(sum(float(fields[i]) for i in range(3)) - 1.0) <= 1e-12


def test_sweep_smoke_small(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out = tmp_path / "smoke.csv"
    assert run(["sweep", "-d", "3", "--resolution", "4", "--seed", "1", "--restarts", "1", "--output", str(out)]) == 0
    assert "wrote 13 cells" in capsys.readouterr().out


def test_sweep_unwritable_path(monkeypatch, capsys):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    code = run(["sweep", "-d", "3", "--resolution", "4", "--restarts", "1", "--output", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_max_k_below_dimension_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    assert run(["search", "--lambdas", "3/5", "2/5", "0", "--max-k", "2"]) == 2
    out = tmp_path / "x.csv"
    assert run(["sweep", "--resolution", "4", "--max-k", "2", "--output", str(out)]) == 2
    assert "max_k" in capsys.readouterr().err
