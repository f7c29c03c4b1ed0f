import errno
import hashlib
import json
import os
import re
import stat
import threading
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dc_lab import analysis, cli
from dc_lab.families import (
    EncodingFamily,
    family_2dm1,
    family_dp2,
    qutrit_five_family,
    shift_diag_family,
    weyl_family,
)
from dc_lab.states import make_state


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
    assert capsys.readouterr().err == "error: the five family is defined for d=3\n"
    assert run(["construct", "f46", "-d", "3", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: F_4/6 is defined for d=4\n"
    assert run(["construct", "f47", "-d", "5", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: F_4/7 is defined for d=4\n"
    assert run(["construct", "two-d-minus-one", "-d", "3", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: the 2d-1 construction needs d >= 4, got 3\n"
    for family in ("weyl", "shift-diag", "d-plus-two"):
        assert run(["construct", family, "-d", "0", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: dimension d must be an integer >= 2, got 0\n"
    assert not out.exists()


def test_construct_resolves_constructors_when_called(tmp_path, capsys, monkeypatch):
    """The functions behind the constructors are looked up in `families` per
    call, so a wrapper put there is used."""
    from dc_lab import families

    calls = []
    original = families._dp2
    monkeypatch.setattr(families, "_dp2", lambda d: calls.append(d) or original(d))
    assert run(["construct", "d-plus-two", "-d", "5", "--output", str(tmp_path / "f57.json")]) == 0
    assert calls == [5]


@pytest.mark.parametrize("per_block", [1, 5])
def test_construct_documents_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, per_block):
    """Members are completed a block at a time; a matrix is completed as it
    would be alone, so blocks of 1 or 5 members, odd d+2 among them, where
    M* must follow M, write the same bytes."""
    from dc_lab import families

    out = tmp_path / "doc.json"
    for (family, d), digest in CONSTRUCT_SHA256.items():
        monkeypatch.setattr(families, "_BLOCK_ENTRIES", per_block * d * d)
        assert run(["construct", family, "-d", str(d), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (family, d)


def test_construct_holds_a_block_of_members_not_the_family(tmp_path, capsys, monkeypatch):
    """Building the whole family before writing it peaked at 1.27 times the
    2d-1 d=32 family's bytes; built and written a block of 8 members at a
    time, the command holds one block, one member's text and little more."""
    from dc_lab import families

    family_bytes = sum(m.nbytes for m in family_2dm1(32).members)
    monkeypatch.setattr(families, "_BLOCK_ENTRIES", 8 * 32 * 32)
    # what the first command of a process allocates once stays out of the peak
    assert run(["construct", "two-d-minus-one", "-d", "5", "--output", str(tmp_path / "f5.json")]) == 0
    argv = ["construct", "two-d-minus-one", "-d", "32", "--output", str(tmp_path / "f32.json")]
    assert _traced_peak(run, argv) < 0.5 * family_bytes
    assert "K=63 members" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda members: [members[0], np.eye(4), *members[2:]], "member 1 of five has shape (4, 4), expected (3, 3)"),
        (lambda members: members[:2], "five has 2 members, outside [3, 9]"),
        (lambda members: members * 2, "five has 10 members, outside [3, 9]"),
    ],
    ids=["shape", "count", "count-above"],
)
def test_construct_refuses_a_member_shape_or_count_as_the_constructors_do(tmp_path, capsys, monkeypatch, edit, error):
    from dc_lab import families

    original = families._five
    monkeypatch.setattr(families, "_five", lambda d: original(d)[:2] + (edit(original(d)[2]),))
    with pytest.raises(ValueError, match=re.escape(error)):
        qutrit_five_family()
    assert run(["construct", "five", "-d", "3", "--output", str(tmp_path / "five.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("earlier", [None, b"an earlier file\n"])
def test_construct_refusing_a_member_leaves_no_document(tmp_path, capsys, monkeypatch, earlier):
    """A member refused after others were written leaves no partial
    document at --output, and an earlier file there as it was."""
    from dc_lab import families

    original = families._2dm1

    def third_not_unitary(d):
        label, target, members = original(d)
        return label, target, (2 * m if i == 2 else m for i, m in enumerate(members))

    monkeypatch.setattr(families, "_2dm1", third_not_unitary)
    with pytest.raises(ValueError) as refused:
        families._family(6, *third_not_unitary(6))
    out = tmp_path / "f6.json"
    if earlier is not None:
        out.write_bytes(earlier)
    assert run(["construct", "two-d-minus-one", "-d", "6", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"
    assert "member 2 of 2d-1-even is not unitary" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if earlier is None else ["f6.json"])
    if earlier is not None:
        assert out.read_bytes() == earlier


def test_construct_opens_an_output_that_is_not_a_regular_file_as_it_is(tmp_path, capsys):
    """A directory at --output is refused with the error opening it gives, as
    before documents were written beside their destination."""
    assert run(["construct", "five", "-d", "3", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert list(tmp_path.iterdir()) == []
    assert sorted(p.name for p in tmp_path.parent.iterdir() if p.name.startswith(tmp_path.name)) == [tmp_path.name]


# a short run of each command that writes --output
OUTPUT_ARGV = {
    "construct": ["construct", "five", "-d", "3"],
    "sweep": ["sweep", "--resolution", "4", "--restarts", "1", "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
@pytest.mark.parametrize(
    "name, error",
    [
        ("", "[Errno 2] No such file or directory: ''"),
        ("x.out/", "[Errno 21] Is a directory: 'x.out/'"),
        ("missing/..", "[Errno 2] No such file or directory: 'missing/..'"),
        ("missing/../out.json", "[Errno 2] No such file or directory: 'missing/../out.json'"),
        ("file/../out.json", "[Errno 20] Not a directory: 'file/../out.json'"),
        ("a", "[Errno 40] Too many levels of symbolic links: 'a'"),
        ("dangling", "[Errno 2] No such file or directory: 'dangling'"),
    ],
    ids=["empty", "trailing-slash", "dot-dot", "missing-dir-dot-dot", "file-dot-dot", "link-loop", "dangling-link"],
)
def test_an_output_no_file_can_have_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, name, error):
    """os.path.realpath made '' and missing/.. the working directory and
    dropped a trailing /, so the command did all its work and then failed to
    replace the directory, or wrote x.out.  It also collapsed missing/.. and
    file/.. lexically, so the command wrote out.json in the working
    directory; and it gave up on the link loop a -> b -> a at b, which the
    command replaced with a regular file.  A dangling link into a missing
    directory, like any output in one, was refused by the error for the
    temp file beside it; every refusal now names the given path."""
    from dc_lab import families

    monkeypatch.setenv("DC_LAB_THREADS", "1")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    (cwd / "file").write_bytes(b"")
    (cwd / "a").symlink_to("b")
    (cwd / "b").symlink_to("a")
    (cwd / "dangling").symlink_to(os.path.join("missing", "x.out"))
    taken = []
    original = families._five
    monkeypatch.setattr(families, "_five", lambda d: original(d)[:2] + ((taken.append(m) or m for m in original(d)[2]),))
    monkeypatch.setattr(cli.search, "region_sweep", lambda *a, **k: taken.append(a))
    assert run(OUTPUT_ARGV[command] + ["--output", name]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert taken == []
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "cwd",
        "cwd/a",
        "cwd/b",
        "cwd/dangling",
        "cwd/file",
    ]
    assert all((cwd / link).is_symlink() for link in ("a", "b", "dangling"))


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
@pytest.mark.parametrize(
    "name, points_to",
    [("link", os.path.join("real", "target")), (os.path.join("sub", "link"), os.path.join("..", "real", "target"))],
    ids=["beside", "through-dot-dot"],
)
def test_a_symlinked_output_keeps_its_link_and_replaces_its_target(tmp_path, capsys, monkeypatch, command, name, points_to):
    """Replacing the path itself turned the link into a regular file and left
    its target as it was.  A target through .. is joined, unresolved, to the
    link's directory, as the OS resolves it."""
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    direct = tmp_path / "direct"
    assert run(OUTPUT_ARGV[command] + ["--output", str(direct)]) == 0
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "target"
    target.write_bytes(b"an earlier file\n")
    link = tmp_path / name
    link.parent.mkdir(exist_ok=True)
    link.symlink_to(points_to)
    assert run(OUTPUT_ARGV[command] + ["--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == points_to
    assert target.read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["direct", "real", name.split(os.sep)[0]])
    assert link.parent == tmp_path or os.listdir(link.parent) == ["link"]
    assert [p.name for p in target.parent.iterdir()] == ["target"]


# each way a link reaches descriptor N of this process, in /proc/<pid>/fd
DESCRIPTOR_ROUTES = {
    "proc-self": lambda fd: f"/proc/self/fd/{fd}",
    "dev-fd": lambda fd: f"/dev/fd/{fd}",
    "proc-pid": lambda fd: f"/proc/{os.getpid()}/fd/{fd}",
}


def _appending(path):
    """A descriptor that appends to path, which holds one earlier line."""
    path.write_bytes(b"an earlier line\n")
    return os.open(path, os.O_WRONLY | os.O_APPEND)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("route", sorted(DESCRIPTOR_ROUTES))
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_an_output_linked_to_a_descriptor_is_written_through_it(tmp_path, capsys, monkeypatch, command, route):
    """A link to /proc/self/fd/N was resolved to the file the descriptor has
    open, which was then replaced: an appending redirect lost its earlier
    bytes.  Now the bytes go through the descriptor, at its own offset."""
    if not os.path.exists(DESCRIPTOR_ROUTES[route](0)):
        pytest.skip(f"no {DESCRIPTOR_ROUTES[route]('N')}")
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    direct = tmp_path / "direct"
    assert run(OUTPUT_ARGV[command] + ["--output", str(direct)]) == 0
    log, link = tmp_path / "log.txt", tmp_path / "link"
    fd = _appending(log)
    try:
        link.symlink_to(DESCRIPTOR_ROUTES[route](fd))
        assert run(OUTPUT_ARGV[command] + ["--output", str(link)]) == 0
    finally:
        os.close(fd)  # the command closed only its duplicate
    assert log.read_bytes() == b"an earlier line\n" + direct.read_bytes()
    assert link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "link", "log.txt"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_a_failure_closes_the_duplicate_of_a_descriptor_output(tmp_path, capsys, monkeypatch, command):
    """The construct fails once the writer holds the duplicate, the sweep
    before it does: either way the command leaves no descriptor open and the
    earlier line where it was."""
    from dc_lab import families, search

    monkeypatch.setenv("DC_LAB_THREADS", "1")
    original = families._five
    monkeypatch.setattr(families, "_five", lambda d: original(d)[:2] + ([2 * np.eye(3)],))
    monkeypatch.setattr(search, "region_sweep", mock.Mock(side_effect=ValueError("no sweep")))
    log, link = tmp_path / "log.txt", tmp_path / "link"
    fd = _appending(log)
    try:
        link.symlink_to(f"/proc/self/fd/{fd}")
        before = sorted(os.listdir("/proc/self/fd"))
        assert run(OUTPUT_ARGV[command] + ["--output", str(link)]) == 2
        assert sorted(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(fd)
    assert log.read_bytes().startswith(b"an earlier line\n")
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_a_pipe_output_is_written_in_place(tmp_path, capsys, monkeypatch, command):
    """A named pipe is opened once and written directly: it stays a pipe, and
    its reader gets the bytes a regular file gets."""
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    direct = tmp_path / "direct"
    assert run(OUTPUT_ARGV[command] + ["--output", str(direct)]) == 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert run(OUTPUT_ARGV[command] + ["--output", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [direct.read_bytes()]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "pipe"]


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


def test_verify_reports_the_span_dim_of_a_repeated_member(tmp_path, capsys):
    members = list(qutrit_five_family().members)
    members[4] = members[3]
    path = tmp_path / "repeated.json"
    cli.write_family_document(EncodingFamily(d=3, members=tuple(members), label="repeated"), str(path))
    assert run(["verify", str(path), "--lambdas", "3/5", "2/5", "0"]) == 1
    text = capsys.readouterr().out
    assert "span dim 4," in text
    assert "result: FAIL" in text


def test_verify_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "d": 4, "members": [[[1, 0]]]')
    assert run(["verify", str(bad), "--lambdas", "1", "0", "0", "0"]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text('{"schema_version": 99, "d": 2, "members": []}')
    assert run(["verify", str(bad2), "--lambdas", "1", "0"]) == 2


def _document(d, members, **extra):
    return json.dumps({"schema_version": 1, "d": d, "label": "t", "members": members, **extra})


def _identity_pairs(d):
    return [[float(i == j), 0.0] for i in range(d) for j in range(d)]


@pytest.mark.parametrize(
    "text,error",
    [
        (_document(1, [[[1.0, 0.0]]]), "d must be an integer >= 2"),
        (_document(2.0, [_identity_pairs(2)] * 2), "d must be an integer >= 2"),
        (_document("2", [_identity_pairs(2)] * 2), "d must be an integer >= 2"),
        (_document(True, [[[1.0, 0.0]]]), "d must be an integer >= 2"),
        (_document(2, [_identity_pairs(2)]), "1 members, outside [2, 4]"),
        (_document(2, [_identity_pairs(2)] * 5), "5 members, outside [2, 4]"),
        (_document(2, [_identity_pairs(2)] * 4 + [[[1.0]]]), "5 members, outside [2, 4]"),
        (_document(2, {"0": _identity_pairs(2)}), "members must be a list"),
        (_document(2, [_identity_pairs(2), "member"]), "member 1 must be a list"),
        (_document(2, [_identity_pairs(2), _identity_pairs(2)[:3]]), "member 1 has 3 entries, expected 4"),
        (_document(2, [_identity_pairs(2), [[1.0, 0.0, 0.0]] * 4]), "member 1 entries must be [re, im] pairs"),
        (_document(2, [_identity_pairs(2), [[1.0, 0.0]] * 3 + [[1.0]]]), "member 1 entries must be [re, im] pairs"),
        (_document(2, [_identity_pairs(2), [["1", "0"]] * 4]), "member 1 entries must be [re, im] pairs"),
        (_document(2, [_identity_pairs(2), [[True, False]] * 4]), "member 1 entries must be [re, im] pairs"),
        (_document(2, [_identity_pairs(2), [[None, 0.0]] * 4]), "member 1 entries must be [re, im] pairs"),
        (_document(2, [_identity_pairs(2), _identity_pairs(2)[:3] + [[float("nan"), 0.0]]]), "finite"),
        (_document(2, [_identity_pairs(2), _identity_pairs(2)[:3] + [[1.0, float("inf")]]]), "finite"),
        pytest.param('{"d": ' + "[" * 100000 + "]" * 100000 + "}", "nested too deeply", id="deep-nesting"),
        pytest.param('{"schema_version": 1, "members": []}', "family document has no 'd' field", id="no-d"),
        pytest.param('{"schema_version": 1, "d": 2}', "family document has no 'members' field", id="no-members"),
        (_document(2, [_identity_pairs(2)] * 2, label={"a": 1}), "label must be a string, got dict"),
        (_document(2, [_identity_pairs(2)] * 2, label=None), "label must be a string, got NoneType"),
        (_document(2, [_identity_pairs(2)] * 2, label=7), "label must be a string, got int"),
        (_document(2, [_identity_pairs(2)] * 2, target_lambda0=[1, 2]), "finite number, got list"),
        (_document(2, [_identity_pairs(2)] * 2, target_lambda0="x"), "finite number, got str"),
        (_document(2, [_identity_pairs(2)] * 2, target_lambda0=True), "finite number, got bool"),
        (_document(2, [_identity_pairs(2)] * 2, target_lambda0=float("nan")), "finite number, got nan"),
        (_document(2, [_identity_pairs(2)] * 2, target_lambda0=-float("inf")), "finite number, got -inf"),
    ],
)
def test_verify_rejects_invalid_documents_before_printing(tmp_path, capsys, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    # two valid weights, so that the refusal is the document's own
    assert run(["verify", str(bad), "--lambdas", "1/2", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and error in captured.err


@pytest.mark.parametrize(
    "args, error",
    [
        (["--lambdas", "x", "1/2"], "could not convert string to float: 'x'"),
        (["--lambdas", "1/0", "1"], "weight '1/0' divides by zero"),
        (["--lambdas", "2", "-1"], "weights must lie in [0, 1], got [2.0, -1.0]"),
        (["--lambdas", "1"], "dimension d must be an integer >= 2, got 1"),
        (["--lambdas", "1/2", "1/2", "--tol", "-1"], "tolerance must be finite and nonnegative, got -1.0"),
        (["--lambdas", "1/2", "1/2", "--tol", "nan"], "tolerance must be finite and nonnegative, got nan"),
        (["--lambdas", "x", "--tol", "-1"], "could not convert string to float: 'x'"),
    ],
    ids=["not-a-number", "divides-by-zero", "out-of-range", "one-weight", "negative-tol", "nan-tol", "weights-first"],
)
def test_verify_judges_its_arguments_before_opening_the_document(tmp_path, capsys, monkeypatch, args, error):
    """A bad weight, then a bad --tol, is refused before the document is
    opened, so neither waits for a large document to be read."""

    def read(*_):
        raise AssertionError("the document was opened")

    monkeypatch.setattr(cli, "_read_document", read)
    assert run(["verify", str(tmp_path / "missing.json"), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_verify_nan_document_exits_cleanly(tmp_path, capsys):
    """A NaN entry once printed a partial report, then "SVD did not converge"."""
    path = tmp_path / "weyl2.json"
    run(["construct", "weyl", "-d", "2", "--output", str(path)])
    capsys.readouterr()
    path.write_text(path.read_text().replace("1.0", "NaN", 1))
    assert run(["verify", str(path), "--lambdas", "1/2", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_verify_non_unitary_document_still_fails(tmp_path, capsys):
    doubled = [[2 * re, im] for re, im in _identity_pairs(2)]
    off = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "nonunitary.json"
    path.write_text(_document(2, [doubled, off]))
    assert run(["verify", str(path), "--lambdas", "1/2", "1/2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_verify_integer_entries_load(tmp_path, capsys):
    path = tmp_path / "ints.json"
    ints = [[[int(re), 0] for re, _ in _identity_pairs(2)], [[0, 0], [1, 0], [1, 0], [0, 0]]]
    path.write_text(_document(2, ints))
    assert run(["verify", str(path), "--lambdas", "1/2", "1/2"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_every_member_shape_is_checked_before_any_entry_is(tmp_path):
    # member 0 is not finite and member 1 is too short: the length is reported
    members = [_identity_pairs(2)[:3] + [[float("nan"), 0.0]], _identity_pairs(2)[:3]]
    path = tmp_path / "doc.json"
    path.write_text(_document(2, members))
    for read in (cli.read_family_document, _reference_read):
        with pytest.raises(ValueError, match="member 1 has 3 entries, expected 4"):
            read(str(path))


def test_verify_checks_one_support_block_once_each(tmp_path, capsys, monkeypatch):
    """`verify` reduces the members as it reads them and runs each block-level
    check once, on one support block, without the library's whole-family
    reader or checks."""
    path = tmp_path / "f47.json"
    run(["construct", "f47", "-d", "4", "--output", str(path)])
    calls = {"_verification": [], "_span_check": []}
    for name, seen in calls.items():
        original = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a, seen=seen, original=original: seen.append(a[0]) or original(*a))
    for name in ("verify_family", "kc_span_check"):
        monkeypatch.setattr(analysis, name, mock.Mock(side_effect=AssertionError(name)))
    monkeypatch.setattr(cli, "read_family_document", mock.Mock(side_effect=AssertionError("read_family_document")))
    assert run(["verify", str(path), "--lambdas", "4/7", "3/7", "0", "0"]) == 0
    (verified,), (spanned,) = calls.values()
    assert verified is spanned and verified.shape == (7, 4, 2)


@pytest.mark.parametrize("label, target", [("", None), ("t", 1), ("t", -0.0), ("t", 10**400)])
def test_document_header_values_that_load(tmp_path, label, target):
    path = tmp_path / "doc.json"
    path.write_text(_document(2, [_identity_pairs(2)] * 2, label=label, target_lambda0=target))
    fam = cli.read_family_document(str(path))
    assert (fam.label, fam.target_lambda0) == (label, target)


@pytest.mark.parametrize(
    "label, target, error",
    [("t", float("nan"), "finite"), ("t", float("inf"), "finite"), ("t", "0.5", "finite"), (None, 0.5, "label")],
)
def test_write_family_document_rejects_a_header_the_reader_rejects(tmp_path, label, target, error):
    path = tmp_path / "doc.json"
    fam = EncodingFamily(d=2, members=(np.eye(2, dtype=complex),) * 2, label=label, target_lambda0=target)
    with pytest.raises(ValueError, match=error):
        cli.write_family_document(fam, str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "d, members, error",
    [
        (3, (), "family has 0 members, outside [3, 9]"),
        (3, (np.eye(4, dtype=complex),) * 4, "member 0 has 16 entries, expected 9"),
        (3, (np.eye(3, dtype=complex),), "family has 1 members, outside [3, 9]"),
        (True, (np.eye(2, dtype=complex),) * 2, "d must be an integer >= 2, got True"),
        (3, (np.eye(3, dtype=complex),) * 2, "family has 2 members, outside [3, 9]"),
        (3, (np.eye(3, dtype=complex),) * 10, "family has 10 members, outside [3, 9]"),
    ],
)
def test_write_family_document_rejects_a_shape_the_reader_rejects(tmp_path, capsys, d, members, error):
    """Each of these was written, and then refused by `verify` with this message."""
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match=re.escape(error)):
        cli.write_family_document(EncodingFamily(d=d, members=members, label="t"), str(path))
    assert not path.exists()


def test_write_family_document_rejects_non_finite(tmp_path):
    members = (np.eye(2, dtype=complex), np.array([[0, np.nan], [1, 0]], dtype=complex))
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        cli.write_family_document(EncodingFamily(d=2, members=members, label="nan"), str(path))
    assert not path.exists()


def test_written_documents_equal_json_dump(tmp_path):
    """Streamed output equals json.dump(indent=1) of the same document, plus a newline."""
    odd = np.array([[complex(-0.0, -0.0), complex(1e-300, -2.0)], [complex(np.pi, 0.0), complex(0.0, -2.5e17)]])
    fams = [
        EncodingFamily(d=2, members=(odd, -odd), label="ü \"q\"", target_lambda0=0.25),
        family_2dm1(5),
    ]
    for fam in fams:
        path = tmp_path / "doc.json"
        cli.write_family_document(fam, str(path))
        doc = {
            "schema_version": 1,
            "d": fam.d,
            "label": fam.label,
            "target_lambda0": fam.target_lambda0,
            "members": [[[float(z.real), float(z.imag)] for z in m.reshape(-1)] for m in fam.members],
        }
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"


def test_verify_dimension_mismatch(tmp_path, capsys):
    out = tmp_path / "weyl3.json"
    run(["construct", "weyl", "-d", "3", "--output", str(out)])
    capsys.readouterr()
    # valid weights too few or too many for the document's d, which is known
    # once it is read
    for weights in (["0.5", "0.5"], ["1/4"] * 4):
        assert run(["verify", str(out), "--lambdas", *weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family has d=3 but {len(weights)} weights were given\n"
    # the document's own errors come before its count
    bad = tmp_path / "bad.json"
    bad.write_text(_document(2, [_identity_pairs(2), "member", _identity_pairs(2)]))
    assert run(["verify", str(bad), "--lambdas", "1/2", "1/2", "0"]) == 2
    assert capsys.readouterr() == ("", "error: member 1 must be a list of [re, im] pairs\n")


def test_verify_keeps_only_the_count_of_members_the_weights_do_not_fit(tmp_path, capsys, monkeypatch):
    # a member of d*d entries checked against 2 weights is kept as its
    # count alone, not as its decoded array
    out = tmp_path / "f46.json"
    assert run(["construct", "f46", "-d", "4", "--output", str(out)]) == 0
    capsys.readouterr()
    given = []
    check = cli._check_document
    monkeypatch.setattr(cli, "_check_document", lambda doc: given.append(doc) or check(doc))
    assert run(["verify", str(out), "--lambdas", "1/2", "1/2"]) == 2
    assert capsys.readouterr() == ("", "error: family has d=4 but 2 weights were given\n")
    (doc,) = given
    assert len(doc["members"]) == 6
    assert not any(isinstance(m, np.ndarray) for m in doc["members"])
    assert all(m.entries == 16 and m.part is None for m in doc["members"])


def test_family_documents_round_trip_exactly(tmp_path):
    built = [
        weyl_family(3),
        qutrit_five_family(),
        family_dp2(4),
        family_2dm1(4),
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


def _reference_read(path):
    """The reader as it was: the whole document through json.load, then validation."""
    with open(path, "r", encoding="utf-8") as fh:
        d, label, target, members = cli._check_document(json.load(fh))
    return EncodingFamily(d=d, members=tuple(members), label=label, target_lambda0=target)


def _reference_load(path, step=None):
    """The document as json.load parses it, its members as json gives them."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _verify_outcome(path, capsys):
    code = run(["verify", str(path), "--lambdas", "1/2", "1/2"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_outcome(read, path):
    try:
        fam = read(str(path))
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return fam.d, fam.label, fam.target_lambda0, [m.tobytes() for m in fam.members]


_PAIRS_1 = "[[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]"
_PAIRS_0 = "[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]"
_GOOD = '{"schema_version": 1, "d": 2, "label": "t", "target_lambda0": 0.5, "members": [%s, %s]}' % (
    _PAIRS_0,
    _PAIRS_1,
)

READER_CASES = {
    "written order": _GOOD,
    "members before d": '{"members": [%s, %s], "label": "t", "d": 2, "schema_version": 1}' % (_PAIRS_0, _PAIRS_1),
    "duplicate d": '{"schema_version": 1, "d": 3, "members": [%s, %s], "d": 2}' % (_PAIRS_0, _PAIRS_1),
    "duplicate members": '{"schema_version": 1, "d": 2, "members": [[[1, 2]]], "members": [%s, %s]}'
    % (_PAIRS_0, _PAIRS_1),
    "last members is not a list": '{"schema_version": 1, "d": 2, "members": [%s, %s], "members": 5}'
    % (_PAIRS_0, _PAIRS_1),
    "compact": json.dumps(json.loads(_GOOD), separators=(",", ":")),
    "padded": " \n\t{ \r\n"
    + _GOOD[1:-1].replace(",", " \n ,\t ").replace(":", "\t : ").replace("[", "[ \n ").replace("]", " \r ]")
    + " \n}\n\n ",
    "escaped members key": _GOOD.replace('"members"', '"m\\u0065mbers"'),
    "empty members": '{"schema_version": 1, "d": 2, "members": []}',
    "empty members, then members": '{"schema_version": 1, "d": 2, "label": "t", "members": [], "members": [%s, %s]}'
    % (_PAIRS_0, _PAIRS_1),
    "empty padded members": '{"schema_version": 1, "d": 2, "members": [ \n ]}',
    "non-finite members": _GOOD.replace("-1.0", "-Infinity").replace("[1.0, 0.0]]", "[NaN, 0.0]]"),
    "integer members": _GOOD.replace(".0", ""),
    "bad member among good": '{"schema_version": 1, "d": 2, "members": [%s, [[1, 2], [3]], "x", %s]}'
    % (_PAIRS_0, _PAIRS_1),
    "header syntax error": _GOOD.replace('"d": 2,', '"d": 2,,'),
    "header syntax error after members": '{"members": [%s, %s], "d": 2 "schema_version": 1}' % (_PAIRS_0, _PAIRS_1),
    "unquoted key": _GOOD.replace('"label"', "label"),
    "missing colon": _GOOD.replace('"d": 2', '"d" 2'),
    "member syntax error": _GOOD.replace("[0.0, 1.0]", "[0.0 1.0]"),
    "bad value in member": _GOOD.replace("[0.0, 1.0]", "[0.0, +1.0]"),
    "trailing comma in members": _GOOD.replace("]]]}", "]],]}"),
    "missing comma between members": _GOOD.replace("], [[0.0, 1.0]", "] [[0.0, 1.0]"),
    "unterminated members": _GOOD[: _GOOD.index("[[0.0, 1.0]")],
    "unterminated object": _GOOD[:-1],
    "trailing data": _GOOD + " x",
    "second object": _GOOD + _GOOD,
    "top-level array": "[%s, %s]" % (_PAIRS_0, _PAIRS_1),
    "top-level number": " 7 ",
    "empty file": "",
    "empty object": "{}",
    "byte order mark": "\ufeff" + _GOOD,
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_matches_json_load(tmp_path, capsys, monkeypatch, text):
    """Same member bytes, or the same error text and exit code, as json.load + _check_document."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _read_outcome(cli.read_family_document, path) == _read_outcome(_reference_read, path)
    streamed = _verify_outcome(path, capsys)
    monkeypatch.setattr(cli, "_read_document", _reference_load)
    assert streamed == _verify_outcome(path, capsys)


# READER_CASES that hold the family of "written order", and its label: the
# first goes to json.loads where the walk stops, at the empty members array
SAME_REPORT = (
    "empty members, then members",
    "members before d",
    "compact",
    "padded",
    "escaped members key",
    "integer members",
)


@pytest.mark.parametrize("source", [7, None, "pipe"], ids=["chunk 7", "default chunk", "pipe"])
@pytest.mark.parametrize("case", SAME_REPORT)
def test_verify_reports_a_document_as_written_whatever_its_layout(tmp_path, capsys, monkeypatch, case, source):
    written = tmp_path / "written.json"
    written.write_text(READER_CASES["written order"], encoding="utf-8")
    expected = _verify_outcome(written, capsys)
    assert "result: FAIL" in expected[1]  # its second member is not unitary
    path = tmp_path / "doc.json"
    path.write_text(READER_CASES[case], encoding="utf-8")
    if source == "pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        plain, path = path, tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(plain.read_bytes(),), daemon=True)
        writer.start()
    elif source is not None:
        monkeypatch.setattr(cli, "_CHUNK", source)
    assert _verify_outcome(path, capsys) == expected
    if source == "pipe":
        writer.join(timeout=10)
        assert not writer.is_alive()


_EDITS = list('{}[],:" \n0123456789.e-tnN\\') + ['"members"', "NaN", "true", "null", "[1.0, 0.0]"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_GOOD)), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(_EDITS)
        ),
        min_size=1,
        max_size=4,
    )
)
def test_reader_matches_json_load_on_edited_documents(tmp_path_factory, edits):
    chars = list(_GOOD)
    for pos, op, piece in edits:
        pos = min(pos, len(chars) - 1)
        if op == "insert":
            chars.insert(pos, piece)
        elif op == "delete" and chars:
            del chars[pos]
        elif chars:
            chars[pos] = piece
    path = tmp_path_factory.mktemp("edited") / "doc.json"
    path.write_text("".join(chars), encoding="utf-8")
    assert _read_outcome(cli.read_family_document, path) == _read_outcome(_reference_read, path)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _families(draw):
    d = draw(st.integers(2, 4))
    k = draw(st.integers(d, d * d))
    values = draw(st.lists(_finite, min_size=2 * k * d * d, max_size=2 * k * d * d))
    stack = np.array(values).view(np.complex128).reshape(k, d, d)
    target = draw(st.none() | _finite)
    return EncodingFamily(d=d, members=tuple(stack), label=draw(st.text(max_size=8)), target_lambda0=target)


@settings(max_examples=100, deadline=None)
@given(_families())
def test_family_documents_round_trip_bit_for_bit(tmp_path_factory, fam):
    path = tmp_path_factory.mktemp("round") / "doc.json"
    cli.write_family_document(fam, str(path))
    loaded = cli.read_family_document(str(path))
    assert (loaded.d, loaded.label, loaded.target_lambda0) == (fam.d, fam.label, fam.target_lambda0)
    assert [m.tobytes() for m in loaded.members] == [m.tobytes() for m in fam.members]


# Chunk sizes that cut every token of a small document somewhere.
SMALL_CHUNKS = (1, 2, 3, 7)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_matches_json_load_across_chunk_boundaries(tmp_path, monkeypatch, text, chunk):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert _read_outcome(cli.read_family_document, path) == _read_outcome(_reference_read, path)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_GOOD)), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(_EDITS)
        ),
        min_size=1,
        max_size=4,
    )
)
def test_reader_matches_json_load_on_edited_documents_across_chunk_boundaries(tmp_path_factory, edits):
    chars = list(_GOOD)
    for pos, op, piece in edits:
        pos = min(pos, len(chars) - 1)
        if op == "insert":
            chars.insert(pos, piece)
        elif op == "delete" and chars:
            del chars[pos]
        elif chars:
            chars[pos] = piece
    path = tmp_path_factory.mktemp("edited") / "doc.json"
    path.write_text("".join(chars), encoding="utf-8")
    expected = _read_outcome(_reference_read, path)
    for chunk in SMALL_CHUNKS:
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert _read_outcome(cli.read_family_document, path) == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["written order", "header syntax error", "trailing data"])
def test_reader_matches_json_load_on_a_pipe(tmp_path, case):
    # a pipe cannot seek back for the whole text a syntax error is reported in
    text = READER_CASES[case]
    plain = tmp_path / "doc.json"
    plain.write_text(text, encoding="utf-8")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    outcome = _read_outcome(cli.read_family_document, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == _read_outcome(_reference_read, plain)


@pytest.mark.parametrize("source", [7, None, "pipe"], ids=["chunk 7", "default chunk", "pipe"])
def test_invalid_utf8_after_the_first_chunk_is_reported_as_json_load_reports_it(tmp_path, monkeypatch, source):
    """A decode error raised while streaming counts its position from the
    chunk being decoded; json.load counts it from the start of the file."""
    path = tmp_path / "f16.json"
    cli.write_family_document(family_2dm1(16), str(path))
    data = bytearray(path.read_bytes())
    data[177124] = 0xFF
    path.write_bytes(bytes(data))
    if source == "pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(bytes(data),), daemon=True)
        writer.start()
        outcome = _read_outcome(cli.read_family_document, pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
    else:
        if source is not None:
            monkeypatch.setattr(cli, "_CHUNK", source)
        outcome = _read_outcome(cli.read_family_document, path)
    assert outcome == _read_outcome(_reference_read, path)
    assert outcome[0] is UnicodeDecodeError and "position 177124" in outcome[1]


def _no_fallback(text):
    raise AssertionError("a well-formed family document was handed to json.loads")


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("case", ["compact", "padded", "members before d", "duplicate members"])
def test_a_well_formed_document_is_never_read_again(tmp_path, monkeypatch, case, chunk):
    """The walk reads a family document whole: json.loads only judges text it stops at."""
    path = tmp_path / "doc.json"
    path.write_text(READER_CASES[case], encoding="utf-8")
    expected = _read_outcome(_reference_read, path)
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    monkeypatch.setattr(json, "loads", _no_fallback)
    assert _read_outcome(cli.read_family_document, path) == expected


@pytest.mark.parametrize("chunk", [1 << 14, None])
def test_a_large_document_is_never_read_again(tmp_path, monkeypatch, chunk):
    fam = family_2dm1(32)
    path = tmp_path / "f32.json"
    cli.write_family_document(fam, str(path))
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    monkeypatch.setattr(json, "loads", _no_fallback)
    loaded = cli.read_family_document(str(path))
    assert [m.tobytes() for m in loaded.members] == [m.tobytes() for m in fam.members]


def _many_chunk_family():
    """25 members of d = 5 with exponents from -300 to 300, so that chunk
    ends fall inside numbers, exponents and delimiters: about 1,500
    characters of text per member."""
    rng = np.random.default_rng(19)
    pairs = rng.standard_normal((25, 5, 5, 2)) * 10.0 ** rng.integers(-300, 300, (25, 5, 5, 2))
    return EncodingFamily(d=5, members=tuple(pairs.view(np.complex128)[..., 0]), label="many chunks", target_lambda0=0.2)


@pytest.mark.parametrize("chunk", [7, 1000])
def test_a_document_many_chunks_long_round_trips_bit_for_bit(tmp_path, monkeypatch, chunk):
    fam = _many_chunk_family()
    path = tmp_path / "doc.json"
    cli.write_family_document(fam, str(path))
    assert os.path.getsize(path) > 30 * chunk
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    loaded = cli.read_family_document(str(path))
    assert (loaded.d, loaded.label, loaded.target_lambda0) == (fam.d, fam.label, fam.target_lambda0)
    assert [m.tobytes() for m in loaded.members] == [m.tobytes() for m in fam.members]


def test_a_member_longer_than_a_chunk_is_parsed_a_logarithmic_number_of_times(tmp_path, monkeypatch):
    """Text as long as the longest member so far is read before each member,
    so only a member longer than every one before it is parsed more than
    once, and each retry reads twice as much as the one before: the 25
    members of about 1,500 characters, read in 7-character chunks, were
    parsed 222 times when each member started from what the last chunk
    left."""
    fam = _many_chunk_family()
    path = tmp_path / "doc.json"
    cli.write_family_document(fam, str(path))
    calls = []
    decode_member = cli._decode_member
    monkeypatch.setattr(cli, "_decode_member", lambda text, pos: calls.append(pos) or decode_member(text, pos))
    monkeypatch.setattr(cli, "_CHUNK", 7)
    cli.read_family_document(str(path))
    # a member's text in the document is its indent=1 dump plus a fixed indent per line
    lengths = [len(json.dumps(m.view(np.float64).reshape(-1, 2).tolist(), indent=1)) for m in fam.members]
    records = sum(length > max(lengths[:i], default=0) for i, length in enumerate(lengths))
    member_chars = os.path.getsize(path) / len(fam.members)
    assert records < len(fam.members) / 2
    assert len(calls) <= len(fam.members) - records + records * (np.log2(member_chars / 7) + 2)


def _traced_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak beyond what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_reading_a_document_costs_about_twice_its_family(tmp_path, monkeypatch):
    """Reading the whole text of the 2d-1 d=32 document at once peaked at 5.7
    times its family's bytes; streamed in 16k-character chunks, the read
    holds the decoded members and their stack, and little more."""
    fam = family_2dm1(32)
    family_bytes = sum(m.nbytes for m in fam.members)
    path = tmp_path / "f32.json"
    cli.write_family_document(fam, str(path))
    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    assert os.path.getsize(path) > 100 * cli._CHUNK
    assert _traced_peak(cli.read_family_document, str(path)) <= 2.5 * family_bytes


def test_checking_a_family_costs_a_fraction_of_it():
    """verify_family and kc_span_check allocated 3.1 and 4.1 times the 2d-1
    d=32 family's bytes; on the (K, d, 2) support block and with unitarity
    checked a block of members at a time, each stays under half of it."""
    fam = family_2dm1(32)
    family_bytes = sum(m.nbytes for m in fam.members)
    state = make_state(32, [32 / 63, 31 / 63] + [0.0] * 30)
    assert _traced_peak(analysis.verify_family, fam, state) <= 0.5 * family_bytes
    assert _traced_peak(analysis.kc_span_check, fam, state) <= 0.5 * family_bytes


@pytest.mark.parametrize("build", [family_2dm1, family_dp2])
def test_building_a_family_costs_about_its_size(build):
    """Copying the members the completion had just built, and a completion
    holding its stack three times, peaked at 2.11 and 3.10 times the d=32
    2d-1 and d+2 families' bytes."""
    family_bytes = sum(m.nbytes for m in build(32).members)
    assert _traced_peak(build, 32) <= 1.5 * family_bytes


def test_reading_a_document_costs_about_its_family(tmp_path, monkeypatch):
    """Copying the decoded members into one stack held the 2d-1 d=32 family
    twice, 2.14 times its bytes; as views of the decoded arrays, the members
    are held once, beside one chunk and one member's lists."""
    fam = family_2dm1(32)
    family_bytes = sum(m.nbytes for m in fam.members)
    path = tmp_path / "f32.json"
    cli.write_family_document(fam, str(path))
    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    assert _traced_peak(cli.read_family_document, str(path)) <= 1.6 * family_bytes


def test_verifying_a_document_costs_less_than_its_family(tmp_path, capsys, monkeypatch):
    """`verify` read the whole family, then formed its support block once per
    check: the 2d-1 d=32 document at 16k-character chunks peaked at 1.56
    times its family's bytes.  Each member reduced to its support columns as
    it is read, the command holds the (K, d, 2) block, a chunk of text and
    one member: 0.73 times."""
    fam = family_2dm1(32)
    family_bytes = sum(m.nbytes for m in fam.members)
    path = tmp_path / "f32.json"
    cli.write_family_document(fam, str(path))
    monkeypatch.setattr(cli, "_CHUNK", 1 << 14)
    weights = ["32/63", "31/63"] + ["0"] * 30
    assert _traced_peak(run, ["verify", str(path), "--lambdas", *weights]) < family_bytes
    assert "span dim 63" in capsys.readouterr().out


def test_verifying_the_weyl_document_costs_about_four_times_its_family(tmp_path, capsys):
    """`verify` held the members and their reduced parts beside the support
    block, which for the Weyl family at uniform weights is the whole family,
    and formed the weighted Gram matrix a second time for the span check:
    the d=16 document peaked at 6.1 times the family's bytes, and at 4.0
    times without them."""
    fam = weyl_family(16)
    family_bytes = sum(m.nbytes for m in fam.members)
    path = tmp_path / "w16.json"
    cli.write_family_document(fam, str(path))
    del fam
    argv = ["verify", str(path), "--lambdas", *["1/16"] * 16]
    # what the first command of a process allocates once stays out of the peak
    assert run(argv) == 0
    assert _traced_peak(run, argv) <= 4.5 * family_bytes
    assert capsys.readouterr().out.count("result: PASS") == 2


def test_reading_holds_the_family_and_a_few_chunks_of_text(tmp_path):
    """Appending a chunk while the buffer it replaces was still held read the
    2d-1 d=32 document, at the default chunk, with 4.4 chunks of text beside
    its family; 3.6 once the old buffer goes first."""
    fam = family_2dm1(32)
    family_bytes = sum(m.nbytes for m in fam.members)
    path = tmp_path / "f32.json"
    cli.write_family_document(fam, str(path))
    assert os.path.getsize(path) > 2 * cli._CHUNK
    # the document is ASCII: a character of text is one byte
    assert _traced_peak(cli.read_family_document, str(path)) <= family_bytes + 4 * cli._CHUNK


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reading_a_pipe_costs_about_twice_its_text(tmp_path):
    """A pipe's text was copied into a StringIO, at up to 4 bytes a character:
    the 2d-1 d=32 document peaked at 5.3 times its length in characters."""
    path = tmp_path / "f32.json"
    cli.write_family_document(family_2dm1(32), str(path))
    text = path.read_text(encoding="utf-8")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    # encoded before tracing starts, so that the writer allocates next to nothing
    writer = threading.Thread(target=pipe.write_bytes, args=(text.encode("utf-8"),), daemon=True)
    writer.start()
    peak = _traced_peak(cli.read_family_document, str(pipe))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert peak <= 2.5 * len(text)


def test_writing_converts_one_member_at_a_time(tmp_path):
    """Converting every member before writing any held a second copy of a
    family whose members are not C-ordered: 1.15 times the Weyl d=16
    family's bytes."""
    fam = weyl_family(16)
    fortran = EncodingFamily(
        d=fam.d, members=tuple(map(np.asfortranarray, fam.members)), label=fam.label, target_lambda0=fam.target_lambda0
    )
    c_path, f_path = tmp_path / "c.json", tmp_path / "f.json"
    cli.write_family_document(fam, str(c_path))
    assert _traced_peak(cli.write_family_document, fortran, str(f_path)) <= 0.25 * sum(m.nbytes for m in fam.members)
    assert f_path.read_bytes() == c_path.read_bytes()


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


def test_state_info_zero_denominator_is_bad_input(capsys):
    assert run(["state-info", "--lambdas", "1/0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight '1/0' divides by zero\n"


@pytest.mark.parametrize("command", ["state-info", "search", "verify"])
def test_a_fraction_weight_beyond_float_range_is_bad_input(tmp_path, capsys, command):
    """float(Fraction) raised OverflowError, and each command died with a
    traceback and exit code 1; such a weight is refused as 1e400 is."""
    argv = [command]
    if command == "verify":
        doc = tmp_path / "weyl2.json"
        assert run(["construct", "weyl", "-d", "2", "--output", str(doc)]) == 0
        capsys.readouterr()
        argv.append(str(doc))
    for weights in (["1" + "0" * 320 + "/1", "0"], ["1e400", "0"]):
        assert run([*argv, "--lambdas", *weights]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weights must be finite\n"


def test_state_info_huge_weights_exit_cleanly_without_a_warning(capsys):
    # summing the weights before range-checking them overflows with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["state-info", "--lambdas", "1e308", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weights must lie in [0, 1], got [1e+308, 1e+308]\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_a_bad_tolerance_before_printing(tmp_path, capsys, tol):
    out = tmp_path / "f46.json"
    run(["construct", "f46", "-d", "4", "--output", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--lambdas", "2/3", "1/3", "0", "0", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be finite and nonnegative")


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_search_and_sweep_reject_a_bad_tolerance(tmp_path, capsys, monkeypatch, tol):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    assert run(["search", "--lambdas", "3/5", "2/5", "0", "--tol", tol]) == 2
    out = tmp_path / "x.csv"
    assert run(["sweep", "--resolution", "4", "--tol", tol, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = "accept_tol must be positive, got 0.0" if tol == "0" else f"accept_tol must be finite and nonnegative, got {tol}"
    assert captured.err == f"error: {error}\n" * 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["search", "--lambdas", "1/2", "1/2", "--pin-fr"], ["sweep", "--resolution", "4", "--output", "x.csv", "--pin-fr"]],
    ids=["search", "sweep"],
)
def test_search_and_sweep_have_no_pin_fr_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "--pin-fr" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value,error",
    [("--restarts", "0", "restarts must be an integer >= 1"), ("--seed", "-1", "base_seed must be an integer >= 0")],
)
def test_search_rejects_bad_integer_knobs(capsys, option, value, error):
    assert run(["search", "--lambdas", "3/5", "2/5", "0", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}, got {value}\n"


@pytest.mark.parametrize("fault", [TypeError, KeyError])
def test_a_program_fault_is_not_reported_as_bad_input(capsys, monkeypatch, fault):
    """Exit code 2 means bad input: an error of another kind raised inside a
    command is a fault of the program, and leaves main as it is."""

    def estimate_nmax(*_):
        raise fault("a fault of the program")

    monkeypatch.setattr(cli.search, "estimate_nmax", estimate_nmax)
    with pytest.raises(fault, match="a fault of the program"):
        run(["search", "--lambdas", "1/2", "1/2"])
    assert capsys.readouterr() == ("", "")


def test_search_command_smoke(capsys):
    assert run(["search", "--lambdas", "0.5", "0.5", "--restarts", "3", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert "n_max estimate: 4" in text


def test_search_refusal_line_reports_its_pair_residual(capsys):
    # the refusal prints the largest pair residual of the restart that came
    # closest, the quantity acceptance tests; recorded with numpy 2.4 and its
    # bundled OpenBLAS on x86-64
    assert run(["search", "--lambdas", "3/5", "1/5", "1/5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "K=5: not found (heuristic)  best objective=1.504e-03  max pair residual=1.617e-02" in lines
    assert lines[-1] == "n_max estimate: 4"


def test_search_reports_a_size_the_strict_bound_excludes(capsys):
    # lambda0 = 3/4 = d/(d+1): K = 4 is excluded without a search
    assert run(["search", "--lambdas", "3/4", "1/4", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "K=4: excluded (proven)" in lines
    assert lines[-1] == "n_max estimate: 3"


def test_sweep_writes_deterministic_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "-d", "3", "--resolution", "4", "--seed", "1", "--restarts", "2", "--output"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    first = out1.read_bytes()
    assert first == out2.read_bytes()
    # recorded with numpy 2.4 and its bundled OpenBLAS on x86-64 (13 cells, 3
    # of them refusals).  Another LAPACK may round the Cayley solves
    # differently and change them.
    assert hashlib.sha256(first).hexdigest() == "bb60d36f92f9c5fc5a1927ae06bf2a76bbcbf2825e8cd1b764ba17b627f3f874"
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
    # the error names the given path, not the temp file beside it
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/x.csv'\n"


def test_sweep_bad_input_keeps_existing_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out = tmp_path / "x.csv"
    assert run(["sweep", "--resolution", "4", "--restarts", "1", "--seed", "1", "--output", str(out)]) == 0
    good = out.read_bytes()
    assert run(["sweep", "--resolution", "4", "--max-k", "2", "--output", str(out)]) == 2
    assert run(["sweep", "--resolution", "3", "--output", str(out)]) == 2
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]
    capsys.readouterr()
    # the arguments are judged before the destination is opened
    assert run(["sweep", "--resolution", "3", "--output", str(tmp_path / "missing" / "x.csv")]) == 2
    assert "resolution must be an integer >= 4, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("dimension", ["4", "2"])
def test_sweep_takes_only_the_qutrit_dimension(tmp_path, capsys, monkeypatch, dimension):
    # the triangle is the qutrit's: any other -d is argparse's refusal,
    # before the destination is touched
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out = tmp_path / "x.csv"
    assert run(["sweep", "--resolution", "4", "--restarts", "1", "--seed", "1", "--output", str(out)]) == 0
    good = out.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "-d", dimension, "--resolution", "4", "--restarts", "1", "--output", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument -d/--dimension: invalid choice: {dimension} (choose from 3)" in captured.err
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_sweep_with_and_without_d_3_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    args = ["sweep", "--resolution", "4", "--restarts", "1", "--seed", "3", "--output"]
    assert run(args + [str(tmp_path / "a.csv")]) == 0
    assert run(["sweep", "-d", "3"] + args[1:] + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_output_directory_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    called = []
    monkeypatch.setattr(cli.search, "region_sweep", lambda *a, **k: called.append(1))
    assert run(["sweep", "--resolution", "4", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    missing = str(tmp_path / "missing" / "x.csv")
    assert run(["sweep", "--resolution", "4", "--output", missing]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert called == []
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_that_fails_while_writing_leaves_the_earlier_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    out = tmp_path / "x.csv"
    argv = OUTPUT_ARGV["sweep"] + ["--output", str(out)]
    assert run(argv) == 0
    earlier = out.read_bytes()
    capsys.readouterr()
    write = cli.write_sweep_csv

    def fail_after_five_cells(region, path):
        def cells():
            yield from region.cells[:5]
            raise OSError(errno.ENOSPC, "No space left on device")

        write(types.SimpleNamespace(cells=cells()), path)

    monkeypatch.setattr(cli, "write_sweep_csv", fail_after_five_cells)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_max_k_below_dimension_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    assert run(["search", "--lambdas", "3/5", "2/5", "0", "--max-k", "2"]) == 2
    out = tmp_path / "x.csv"
    assert run(["sweep", "--resolution", "4", "--max-k", "2", "--output", str(out)]) == 2
    assert "max_k" in capsys.readouterr().err


# sha256 of each `dc-lab construct` document, as written by json.dump(indent=1)
# plus a newline before documents were streamed member by member.
CONSTRUCT_SHA256 = {
    ("weyl", 2): "67b8803248e17cdde9f27149c8eab04d6b6eaab6470ad0ad9e0da84905e6a506",
    ("weyl", 3): "5ff567eb20c02dce09749317eb70be9c521464c2647993c5ac7fcef6e037fb98",
    ("weyl", 4): "8244fefbf6cae145320ebbe6a21b26fd20131af61421d8da91944aa50cd6323f",
    ("weyl", 5): "a97603e522a3dedcdb1f5a63e248015c78844bdfed7f8b171fc2b561ad2a128c",
    ("five", 3): "a3f66e69f83124d48fad0bab09c4e816443be8e6f846f07ce6e8256915a00bc4",
    ("f46", 4): "8de1e73ebb0144f682a356530e212e8bedbd4606af70a20ac9d6f6bb285a9191",
    ("f47", 4): "8a9886284e2103404caaa923a830647fde70bd97ef6f78df528db70b1ad0b04f",
    ("shift-diag", 3): "6a32f2384ebf4fb00d23b6fdf617d3d79d611b2db4fa9e3cd164fb1faaf01195",
    ("d-plus-two", 5): "424f7602bb0699ed0abc20d78206e1bbbdf4a45283cd1e70404b6422f46f557b",
    ("d-plus-two", 6): "c76292089464b106351d18cd50749ca9c50db643834bca594782bafcd834c054",
    ("d-plus-two", 7): "c8f85801eea65730f6007e7d1fd52822279d088ce9880baea00972f2c1898a60",
    ("d-plus-two", 8): "95d2c61d449c425651fb286c36bee627f84456907780b096f9f16d38b0b91981",
    ("d-plus-two", 17): "3e7c7f8d75032ca19f627d415fda4cf93b5a37f3d5272c6ff8410a0746a9ace8",
    ("two-d-minus-one", 5): "fd281559269a55bec0181ac4553debe3a6c032bd7b7e5cfd26fd9fad9a9ea952",
    ("two-d-minus-one", 6): "6526eae88d2e7fa916feecfb0f8bd26df8d4085596ed3938fb1ccae010e2debb",
    ("two-d-minus-one", 7): "cc18f374b16cd962a66bedd9df399c8aa61e64d3eb99763552e03952c279fe20",
    ("two-d-minus-one", 8): "2f7ec96ff22d7cd8f6d1089640eeca99ee7f14c424854e0f09778546ad1e16ce",
    ("two-d-minus-one", 17): "d61ce78b11970dc6905b5adbf519a0008f7bf712f33f311a9ee41d68629fc092",
}


# sha256 of `dc-lab verify`'s stdout for each family above at its target
# state: the weights (lambda0, 1 - lambda0, 0, ...), or uniform weights for
# the Weyl and shift-diag families.  Every one passes.
VERIFY_SHA256 = {
    ("weyl", 2): "872c10aa3a8bcf119369390cbe65dc1efea754349cbf41674a28fdb73016edeb",
    ("weyl", 3): "522d7cd0e415878e700f48eef72fcdb410edd41d0d50d30251b79cf3e21e03f8",
    ("weyl", 4): "adc22c947cb0c0ea6d59749e1c7e72a8ab499916ebd44119ebce2be37e82c513",
    ("weyl", 5): "cdc4e814f79aaacd3e605ef6e7d1ef1bb7dd68927ca55d401ff8149c1d6853eb",
    ("five", 3): "0883d39d5205b56cd1681429b378f9bb317e4b1d48b7d5fe0f2a7bcea39a34d5",
    ("f46", 4): "f12554925fa87b4aaaee020f4cb706fe7ec87946e9a11d652ed3431ed628d5af",
    ("f47", 4): "23f38248fe65a2279088b74d482f2b243458f5bab22c3c2fbd864e14b449dbed",
    ("shift-diag", 3): "d3251774e2f6357e8538b0cda2683c4d5b847c898a9efb42f272ac7610689250",
    ("d-plus-two", 5): "c7e4751c804185e2747ab68821d965526e50a9cf0c145cffa2ac26fbcf8f4c74",
    ("d-plus-two", 6): "6299a0e351ca72921e0278da2b4d150a7753b854ac15929a7a798ab3dc0cc446",
    ("d-plus-two", 7): "14dc4a31d8beb7fe71b33405b87b2be48abb5b9def9aa4c74c55dd896a63a4f9",
    ("d-plus-two", 8): "fa1332daec9a82bac80325811f5e87a2b96c9a2d2c75e719a46fd898a4dd511e",
    ("d-plus-two", 17): "730c7e169c9666ed1175e5b3de25bfdfb8015dd3f2fe8578b5789bd316762cc9",
    ("two-d-minus-one", 5): "ebf8bd4c7f08569948e6c95d5778a9b2853163b24c1f6816cb904e306224a7d1",
    ("two-d-minus-one", 6): "f6a64f9f6b2648f421cd975c63ea6a87290fd00638a1071f722de9422b602e18",
    ("two-d-minus-one", 7): "84a32c82a800a138ff673784bd5a5888101c0f721ab8c931ed9c853756dc8c36",
    ("two-d-minus-one", 8): "7d73a4667f577ba92c7b92aade3f9f99381a36b2e826b82ece44c0dcf6183dfe",
    ("two-d-minus-one", 17): "a0c75ccdf0097c06074235e586ae7795a88e010e52e8ffee4e57f48f31320ac8",
}


@pytest.mark.parametrize("family,d", sorted(CONSTRUCT_SHA256))
def test_construct_documents_are_byte_identical(tmp_path, capsys, family, d):
    out = tmp_path / "doc.json"
    assert run(["construct", family, "-d", str(d), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_SHA256[family, d]
    lam0 = cli.read_family_document(str(out)).target_lambda0
    if lam0 is None or abs(lam0 - 1 / d) < 1e-12:
        weights = [f"1/{d}"] * d
    else:
        weights = [repr(lam0), repr(1 - lam0)] + ["0"] * (d - 2)
    capsys.readouterr()
    assert run(["verify", str(out), "--lambdas", *weights]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SHA256[family, d]
