"""Each input rule has one implementation and one wording, whichever entry
point a bad value reaches it through: an integer (`states._check_int`), a
tolerance (`analysis._check_tol`) and a member's shape (`states._check_shape`).

An entry is a function of (tmp_path, monkeypatch): a library call, which
must raise ValueError, or one returning the arguments of a command, which
must exit 2 with the message after "error: " and nothing on stdout.
"""

import json

import numpy as np
import pytest

from dc_lab import cli, families
from dc_lab.analysis import kc_span_check, verify_family
from dc_lab.families import qutrit_five_family, weyl_family
from dc_lab.search import SearchConfig, find_family, objective, triangle_grid
from dc_lab.states import make_state, message_vectors

PSI_L = make_state(3, [3 / 5, 2 / 5, 0])
WIDE = [np.eye(4)] * 5  # five (4, 4) members for the d = 3 state PSI_L


def _refusal(entry, tmp_path, monkeypatch, capsys) -> str:
    """The message `entry` is refused with."""
    try:
        argv = entry(tmp_path, monkeypatch)
    except ValueError as exc:
        return str(exc)
    assert isinstance(argv, list), "the library call was not refused"
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: ") : -1]


def _document(tmp_path, d) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema_version": 1, "d": d, "label": "t", "members": []}))
    return str(path)


@pytest.mark.parametrize(
    "entry, error",
    [
        pytest.param(lambda p, m: SearchConfig(restarts=0), "restarts must be an integer >= 1, got 0", id="restarts"),
        pytest.param(lambda p, m: SearchConfig(base_seed=True), "base_seed must be an integer >= 0, got True", id="base_seed"),
        pytest.param(lambda p, m: make_state(1, [1.0]), "dimension d must be an integer >= 2, got 1", id="make_state"),
        pytest.param(lambda p, m: make_state(2.0, [0.5, 0.5]), "dimension d must be an integer >= 2, got 2.0", id="make_state-float"),
        pytest.param(lambda p, m: weyl_family(1), "dimension d must be an integer >= 2, got 1", id="weyl_family"),
        pytest.param(lambda p, m: triangle_grid(3), "resolution must be an integer >= 4, got 3", id="triangle_grid"),
        pytest.param(
            lambda p, m: cli.read_family_document(_document(p, 1)),
            "dimension d must be an integer >= 2, got 1",
            id="read_family_document",
        ),
        pytest.param(
            lambda p, m: ["verify", _document(p, 1), "--lambdas", "1/2", "1/2"],
            "dimension d must be an integer >= 2, got 1",
            id="verify-document",
        ),
        pytest.param(
            lambda p, m: ["construct", "weyl", "-d", "1", "--output", str(p / "x.json")],
            "dimension d must be an integer >= 2, got 1",
            id="construct",
        ),
        pytest.param(lambda p, m: ["state-info", "--lambdas", "1"], "dimension d must be an integer >= 2, got 1", id="state-info"),
        pytest.param(
            lambda p, m: ["sweep", "--resolution", "3", "--output", str(p / "x.csv")],
            "resolution must be an integer >= 4, got 3",
            id="sweep",
        ),
        pytest.param(
            lambda p, m: ["search", "--lambdas", "1/2", "1/2", "--restarts", "0"],
            "restarts must be an integer >= 1, got 0",
            id="search",
        ),
    ],
)
def test_one_integer_rule(tmp_path, monkeypatch, capsys, entry, error):
    assert _refusal(entry, tmp_path, monkeypatch, capsys) == error
    assert not any(tmp_path.glob("x.*"))


@pytest.mark.parametrize(
    "entry, error",
    [
        pytest.param(
            lambda p, m: verify_family(qutrit_five_family(), PSI_L, tol=float("nan")),
            "tolerance must be finite and nonnegative, got nan",
            id="verify_family",
        ),
        pytest.param(
            lambda p, m: SearchConfig(accept_tol=float("inf")),
            "accept_tol must be finite and nonnegative, got inf",
            id="SearchConfig",
        ),
        pytest.param(
            lambda p, m: SearchConfig(accept_tol=True), "accept_tol must be finite and nonnegative, got True", id="SearchConfig-bool"
        ),
        pytest.param(lambda p, m: SearchConfig(accept_tol=0), "accept_tol must be positive, got 0", id="SearchConfig-zero"),
        pytest.param(
            lambda p, m: ["verify", str(p / "missing.json"), "--lambdas", "1/2", "1/2", "--tol", "-1"],
            "tolerance must be finite and nonnegative, got -1.0",
            id="verify-missing-document",
        ),
        pytest.param(
            lambda p, m: ["search", "--lambdas", "1/2", "1/2", "--tol", "nan"],
            "accept_tol must be finite and nonnegative, got nan",
            id="search",
        ),
        pytest.param(
            lambda p, m: ["sweep", "--resolution", "4", "--tol", "-1", "--output", str(p / "x.csv")],
            "accept_tol must be finite and nonnegative, got -1.0",
            id="sweep",
        ),
    ],
)
def test_one_tolerance_rule(tmp_path, monkeypatch, capsys, entry, error):
    assert _refusal(entry, tmp_path, monkeypatch, capsys) == error
    assert not any(tmp_path.glob("x.*"))


def _five_with_a_wide_member(p, m):
    original = families._five
    m.setattr(families, "_five", lambda d: original(d)[:2] + ([np.eye(4)],))
    return qutrit_five_family()


@pytest.mark.parametrize(
    "entry, error",
    [
        pytest.param(lambda p, m: verify_family(WIDE, PSI_L), "member 0 of family has shape (4, 4), expected (3, 3)", id="verify_family"),
        pytest.param(
            lambda p, m: verify_family(np.stack(WIDE), PSI_L),
            "member 0 of family has shape (4, 4), expected (3, 3)",
            id="verify_family-stack",
        ),
        pytest.param(lambda p, m: objective(PSI_L, WIDE), "member 0 of family has shape (4, 4), expected (3, 3)", id="objective"),
        pytest.param(
            lambda p, m: message_vectors([np.eye(3), np.eye(4)], PSI_L),
            "member 1 of family has shape (4, 4), expected (3, 3)",
            id="message_vectors",
        ),
        pytest.param(lambda p, m: message_vectors(1.0, PSI_L), "member 0 of family has shape (), expected (3, 3)", id="message_vectors-0d"),
        pytest.param(lambda p, m: kc_span_check(WIDE, PSI_L), "member 0 of family has shape (4, 4), expected (3, 3)", id="kc_span_check"),
        pytest.param(
            lambda p, m: find_family(PSI_L, 5, SearchConfig(restarts=1), fixed=WIDE[:1]),
            "member 0 of fixed has shape (4, 4), expected (3, 3)",
            id="find_family",
        ),
        pytest.param(_five_with_a_wide_member, "member 0 of five has shape (4, 4), expected (3, 3)", id="constructor"),
    ],
)
def test_one_member_shape_rule(tmp_path, monkeypatch, capsys, entry, error):
    assert _refusal(entry, tmp_path, monkeypatch, capsys) == error
