"""Command-line front end.

Subcommands: construct, verify, sweep, state-info, search.  Families travel
as JSON documents (complex entries as [re, im] pairs, row-major), sweeps as
CSV with a fixed column order, both reproducing values to full double
precision.  Exit codes: 0 success or verification pass, 1 verification fail,
2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import analysis, families, search, states

SCHEMA_VERSION = 1

# name -> the function in `families` of d that checks d and gives the label,
# target lambda0 and members (built as they are taken) of the family; looked
# up when called, so that a wrapper put on `families` (a test) sees each call.
_FAMILIES = {
    "weyl": "_weyl",
    "five": "_five",
    "f46": "_f46",
    "f47": "_f47",
    "two-d-minus-one": "_2dm1",
    "d-plus-two": "_dp2",
    "shift-diag": "_shifts",
}
FAMILY_CHOICES = tuple(_FAMILIES)


def _member_pairs(member):
    """`member` as a C-ordered (n, 2) float array of [re, im] pairs, or None if it is not one."""
    try:
        pairs = np.asarray(member)
    except ValueError:  # ragged nesting
        return None
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
        return None
    return pairs.astype(np.float64, order="C", copy=False)


def _check_header(d, label, target) -> None:
    """Reject a d that is not a dimension (see `states._check_dimension`), a
    label that is not a string and a target_lambda0 that is neither None nor
    a finite int or float."""
    states._check_dimension(d)
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {type(label).__name__}")
    if target is None or (isinstance(target, int) and not isinstance(target, bool)):
        return
    if not isinstance(target, float):
        raise ValueError(f"target_lambda0 must be null or a finite number, got {type(target).__name__}")
    if not math.isfinite(target):
        raise ValueError(f"target_lambda0 must be null or a finite number, got {target!r}")


def _check_entries(i: int, n: int, d: int) -> None:
    if n != d * d:
        raise ValueError(f"member {i} has {n} entries, expected {d * d}")


def _check_finite(members) -> None:
    if not all(np.isfinite(m).all() for m in members):
        raise ValueError("member entries must be finite")


def _field(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"family document has no {key!r} field")
    return doc[key]


class _Reduced:
    """A member that `verify` reduced as it read it, from an (n, 2) array of
    finite [re, im] pairs: n, and its support columns and unitarity residual
    as `analysis._reduce` gives them, or None when n is not the weights
    squared."""

    __slots__ = ("entries", "part")

    def __init__(self, entries: int, part):
        self.entries, self.part = entries, part


def _check_document(doc: dict):
    """The d, label, target_lambda0 and members of a parsed family document,
    each member a complex (d, d) view of its [re, im] pairs, or a `_Reduced`
    member, kept as it is once its entry count is checked.

    Rejects, with ValueError, a missing `d` or `members`, a `d` that is not
    an integer >= 2, a `label` that is not a string, a `target_lambda0` that
    is not null or a finite number, members that are not lists or (n, 2)
    arrays of d*d [re, im] number pairs or, once every member's shape has
    been checked, not finite, and a member count K outside [d, d*d].
    Unitarity is left to verification.
    """
    if not isinstance(doc, dict):
        raise ValueError("family document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    d = _field(doc, "d")
    label, target = doc.get("label", "file"), doc.get("target_lambda0")
    _check_header(d, label, target)
    members = _field(doc, "members")
    if not isinstance(members, list):
        raise ValueError("members must be a list")
    states._check_count(len(members), d)
    # One conversion per member: numpy's shape discovery over the whole nested
    # list would hold bookkeeping for every [re, im] pair at once.
    checked = []
    for i, member in enumerate(members):
        if isinstance(member, _Reduced):
            _check_entries(i, member.entries, d)
            checked.append(member)
            continue
        if not isinstance(member, (list, np.ndarray)):
            raise ValueError(f"member {i} must be a list of [re, im] pairs")
        _check_entries(i, len(member), d)
        pairs = _member_pairs(member)
        if pairs is None:
            raise ValueError(f"member {i} entries must be [re, im] pairs of numbers")
        checked.append(pairs.view(np.complex128).reshape(d, d))
    _check_finite(m for m in checked if not isinstance(m, _Reduced))
    return d, label, target, checked


def write_family_document(family: families.EncodingFamily, path: str) -> None:
    """Write `family` as `_write_document` does, with its refusals."""
    _write_document(family.d, family.label, family.target_lambda0, family.members, path)


@contextlib.contextmanager
def _output(path: str):
    """The file to write, once, for --output path, within a `with` block
    that replaces the file at path only if the block completes.

    One walk follows the links of path's final component, each hop joined,
    unresolved, to its link's directory, so that the OS judges every
    directory on the way.  It stops at a hop in /proc/<pid>/fd of this
    process (as /proc/self/fd/N, /dev/fd/N and /dev/stdout reach one),
    whose descriptor gives a duplicate, which open() writes at its own
    offset and mode, neither reopened nor truncated; else after the 40 hops
    Linux follows.  Where the walk ends, a path no regular file can have (a
    directory, an empty name or one ending in /, . or .., a directory part
    that is not a directory, a link still unresolved) is refused at once by
    opening path, which raises and creates nothing.  Any other existing end
    that is not a regular file, such as a pipe, is written directly.
    Otherwise the file is written beside the end, so a link stays and its
    target is replaced, as <end>.<pid>.tmp, created here so that an
    unwritable place fails before any work, and moved on when the block
    completes; an error removes it and leaves an earlier file as it was.
    """
    end = path
    for _ in range(40):  # the most links Linux follows in one lookup
        if not os.path.islink(end):
            break
        if os.path.realpath(os.path.dirname(os.path.abspath(end))) == os.path.realpath("/proc/self/fd"):
            fd = os.dup(int(os.path.basename(end)))
            try:
                yield fd
            except BaseException:
                with contextlib.suppress(OSError):  # unless the writer's open() closed it already
                    os.close(fd)
                raise
            return
        end = os.path.join(os.path.dirname(end), os.readlink(end))
    if not end or os.path.islink(end) or os.path.isdir(end) or not os.path.isdir(os.path.dirname(end) or "."):
        open(path, "w").close()  # always raises: no regular file has such a path
    if os.path.exists(end) and not os.path.isfile(end):
        yield path
        return
    partial = f"{end}.{os.getpid()}.tmp"
    open(partial, "w").close()
    try:
        yield partial
        os.replace(partial, end)
    except BaseException:
        os.remove(partial)
        raise


def _write_document(d: int, label: str, target, members, path: str) -> int:
    """Write the family document of d, label, target_lambda0 and the members
    an iterable gives, as the bytes of json.dump(document, indent=1) and a
    newline, to --output path (see `_output`), and return the member count.

    The header goes through json.dumps; each member is taken, converted and
    written in turn, as one %-format of the document's member template, each
    float as %r, float.__repr__, which is how json spells a finite float; no
    member is held once the next is taken.  What `_check_document` would
    reject is refused with its messages, in the order the constructors
    check: the header first, then each member's entry count and finiteness
    as it is taken, then the member count.
    """
    _check_header(d, label, target)
    header = {"schema_version": SCHEMA_VERSION, "d": d, "label": label, "target_lambda0": target}
    # json.dump's indent=1 layout of one member: d*d [re, im] pairs
    template = "  [\n" + ",\n".join(["   [\n    %r,\n    %r\n   ]"] * (d * d)) + "\n  ]"
    k = 0
    with _output(path) as out, open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, indent=1)[:-2] + ',\n "members": [\n')
        for m in members:
            _check_entries(k, np.size(m), d)
            values = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).reshape(-1)
            _check_finite((values,))
            fh.write(",\n" if k else "")
            # the Python floats live only as the format's operand, gone before its text is written
            fh.write(template % tuple(values.tolist()))
            k += 1
            del m, values
        states._check_count(k, d)
        fh.write("\n ]\n}\n")
    return k


_DECODER = json.JSONDecoder()
_skip_ws = json.decoder.WHITESPACE.match
# Characters of a family document read at a time.  Verifying the d = 64 2d-1
# document raised RSS by 6.0 MB at 2^20 and by 4.4 MB at 2^18, in a median
# time no longer (0.67 against 0.70 s over 11 alternating runs).
_CHUNK = 1 << 18


class _Text:
    """The text of an open file, read _CHUNK characters at a time or given whole.

    Positions index the buffer, which runs from the start of the token being
    decoded to the end of what has been read; reading more drops the text
    before that token, which then starts at position 0.
    """

    def __init__(self, fh, text: str | None = None):
        self.fh = fh
        self.buf = "" if text is None else text
        self.eof = text is not None

    def _read(self, pos: int, size: int) -> None:
        """Drop the text before pos and append up to size more characters."""
        tail = self.buf[pos:]
        self.buf = ""  # the old buffer goes before the new one is built
        more = self.fh.read(size)
        self.eof = not more
        self.buf = tail + more

    def char(self, pos: int) -> str:
        """The character at pos, or "" at the end of the file."""
        return self.buf[pos : pos + 1]

    def skip(self, pos: int) -> int:
        """Position of the first non-whitespace character at or after pos, or
        of the end of the file."""
        while True:
            pos = _skip_ws(self.buf, pos).end()
            if pos < len(self.buf) or self.eof:
                return pos
            self._read(pos, _CHUNK)
            pos = 0

    def decode(self, pos: int, parse, expect: int = 0):
        """The value parse(buffer, index) -> (value, end) finds at pos, and the
        position of its end.

        When the buffer holds no more than expect + 2 characters from pos,
        more are read first, so a token up to expect characters long is
        parsed once.  A token cut by the end of the buffer is parsed again
        once more text has arrived: one that fails to parse, and one that
        ends within 2 characters of the buffer's end, since raw_decode("0.")
        returns 0 when a "5" follows.  Each consecutive retry reads twice as
        much as the one before, so a token many chunks long is parsed a
        logarithmic number of times.  A token that still fails at the end of
        the file raises json's JSONDecodeError.
        """
        if not self.eof and len(self.buf) - pos <= expect + 2:
            self._read(pos, max(_CHUNK, expect + 3))
            pos = 0
        size = _CHUNK
        while True:
            try:
                value, end = parse(self.buf, pos)
            except json.JSONDecodeError:
                if self.eof:
                    raise
            else:
                if self.eof or end < len(self.buf) - 2:
                    return value, end
            self._read(pos, size)
            pos, size = 0, size * 2


def _decode_member(text: str, pos: int):
    """The array member starting at text[pos], converted once decoded, and its end."""
    member, end = _DECODER.raw_decode(text, pos)
    pairs = _member_pairs(member)
    return (member if pairs is None else pairs), end


def _scan_key(text: str, pos: int):
    """The object key whose opening quote is text[pos], and its end."""
    return json.decoder.scanstring(text, pos + 1)


def _punctuation(src: _Text, pos: int, chars: str):
    """The position of the first non-whitespace character at or after pos,
    and that character, which must be one of chars: any other character, or
    the end of the file, stops the walk with a ValueError."""
    pos = src.skip(pos)
    char = src.char(pos)
    if not char or char not in chars:
        raise ValueError
    return pos, char


def _decode_members(src: _Text, pos: int, step):
    """The members array whose "[" is at pos, one member at a time, and its end.

    Each member becomes its (n, 2) array as soon as it is decoded, so its
    nested lists are gone before the next member is read, and what
    step(member) returns for it is kept.  A member that does not convert
    stays as decoded, for `_check_document` to report.  Text as long as
    the longest member so far is read before a member is decoded, so a
    member no longer than those before it is parsed once.
    """
    members, char, longest = [], "[", 0

    def parse(text: str, start: int):
        nonlocal longest
        member, end = _decode_member(text, start)
        longest = max(longest, end - start)
        return member, end

    while char != "]":
        member, pos = src.decode(src.skip(pos + 1), parse, longest)
        members.append(step(member))
        pos, char = _punctuation(src, pos, ",]")
    return members, pos + 1


def _decode_document(src: _Text, step) -> dict:
    """The family document in src: a top-level object, walked key by key as
    json's scanner walks it, whose "members" array goes to `_decode_members`
    with step.

    A repeated key keeps its last value.  Text that is not such a document,
    such as a syntax error, trailing data or a top-level value that is not
    an object with a key, stops the walk with a ValueError (json's
    JSONDecodeError where json's own parse fails) or a RecursionError; the
    walk reports no error itself.
    """
    pos, char = _punctuation(src, 0, "{")
    doc = {}
    while char != "}":
        pos, _ = _punctuation(src, pos + 1, '"')
        key, pos = src.decode(pos, _scan_key)
        pos, _ = _punctuation(src, pos, ":")
        pos = src.skip(pos + 1)
        if key == "members" and src.char(pos) == "[":
            doc[key], pos = _decode_members(src, pos, step)
        else:
            doc[key], pos = src.decode(pos, _DECODER.raw_decode)
        pos, char = _punctuation(src, pos, ",}")
    if src.char(src.skip(pos + 1)):
        raise ValueError
    return doc


def _read_document(path: str, step=lambda member: member) -> dict:
    """The family document at path, its members walked through step (see
    `_decode_members`), or, where the walk stops, as json.loads parses it.

    The file is read `_CHUNK` characters at a time and decoded one member at
    a time, so reading holds what step keeps of each member, one chunk of
    text and one member's text and lists.  Wherever that walk meets text
    that is not a well-formed family document, the whole text is read again
    and handed to json.loads, so the document is accepted or rejected by
    json itself, as json.load would: a UnicodeDecodeError anywhere comes
    first, and a syntax error is json's, with its line and column.  A file
    that cannot seek, such as a pipe, is read whole first, into one string
    that serves the walk and json.loads.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # a pipe cannot be read again, so it is read whole, as json.load reads it
        text = None if fh.seekable() else fh.read()
        try:
            doc = _decode_document(_Text(fh, text), step)
        except (ValueError, RecursionError):
            doc = None  # judged below, outside this block, which holds the walk's members and text
        if doc is None:
            if text is None:
                fh.seek(0)
                text = fh.read()
            try:
                doc = json.loads(text)
            except RecursionError:  # json's scanner recurses once per nesting level
                raise ValueError("family document is nested too deeply") from None
    return doc


def read_family_document(path: str) -> families.EncodingFamily:
    """Read a family document (see `_read_document`) and check it (see
    `_check_document`); each member is an array, which the family's member is
    a view of, so the read holds the family once beside a chunk of text."""
    d, label, target, members = _check_document(_read_document(path))
    return families.EncodingFamily(d=d, members=tuple(members), label=label, target_lambda0=target)


def _parse_weight(text: str) -> float:
    """The weight text spells, a float or a fraction; a fraction beyond float
    range gets the refusal an infinite weight gets."""
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"weight {text!r} divides by zero") from None
        except OverflowError:
            raise ValueError("weights must be finite") from None
    return float(text)


def _state_from_weights(raw: list[str]) -> states.SchmidtState:
    lam = [_parse_weight(t) for t in raw]
    return states.make_state(len(lam), lam)


def _config_from_args(args) -> search.SearchConfig:
    given = {"restarts": args.restarts, "accept_tol": args.tol, "max_k": args.max_k, "base_seed": args.seed}
    return search.SearchConfig(**{name: value for name, value in given.items() if value is not None})


def _cmd_construct(args) -> int:
    """Write the family's members as they are built, each checked as the
    public constructors check it: the command holds a block of members at a
    time, never the family."""
    d = args.dimension
    label, target, members = getattr(families, _FAMILIES[args.family])(d)
    k = _write_document(d, label, target, families._checked(d, label, members), args.output)
    target = "none" if target is None else repr(target)
    print(f"wrote {label}: K={k} members, d={d}, target lambda0={target}")
    return 0


def _cmd_verify(args) -> int:
    """Verify the document against the weights, reducing each member, as it
    is read, to its support columns and unitarity residual: the command holds
    the support block, never the family.

    The arguments are judged before the document is opened: the weights,
    then the tolerance.  Then come the document's own errors, then its d
    against the weight count.  A member of finite pairs whose count is not
    the weights squared keeps only its count, which the document's check
    judges against d; one that is not finite pairs is kept as decoded.
    """
    state = _state_from_weights(args.lambdas)
    tol = args.tol if args.tol is not None else analysis.VERIFY_TOL
    analysis._check_tol(tol)
    n, keep = state.d, analysis._support(state.lambdas)

    def reduce(member):
        if not isinstance(member, np.ndarray) or not np.isfinite(member).all():
            return member
        if len(member) != n * n:  # refused by the entry count or the weight count
            return _Reduced(len(member), None)
        return _Reduced(n * n, analysis._reduce(member.view(np.complex128).reshape(1, n, n), keep))

    d, label, _, members = _check_document(_read_document(args.family_path, reduce))
    if n != d:
        raise ValueError(f"family has d={d} but {n} weights were given")
    # members json.loads parsed, where the walk stopped, are reduced here
    parts = [m.part if isinstance(m, _Reduced) else analysis._reduce(m[None], keep) for m in members]
    del members
    block, lam, max_unit = analysis._support_block(parts, state.lambdas)
    del parts  # the checks hold the support block alone
    report = analysis._verification(block, lam, max_unit, tol)
    print(f"family: {label} (d={d}, K={len(block)})")
    print("state lambdas:", " ".join(repr(float(x)) for x in state.lambdas))
    print(f"max pairwise residual:  {report.max_pairwise_residual:.6e}")
    print(f"max unitarity residual: {report.max_unitarity_residual:.6e}")
    print(f"max norm deviation:     {report.max_norm_deviation:.6e}")
    print(f"tolerance:              {tol:.6e}")
    kc = analysis._span_check(block, lam, state, report.max_pairwise_residual)
    if kc.saturated:
        print(f"saturated (lambda0 = d/K): span dim {kc.span_dim}, |m0> residuals:")
        for m, r in enumerate(kc.residuals):
            print(f"  m={m}: {r:.6e}")
    print("result:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_state_info(args) -> int:
    state = _state_from_weights(args.lambdas)
    d = state.d
    print(f"d: {d}")
    print("lambdas:", " ".join(repr(float(x)) for x in state.lambdas))
    print(f"entropy_bits: {states.entropy_bits(state)!r}")
    print(f"wcsg_bound: {analysis.wcsg_bound(state)}")
    obstructed = analysis.shift_family_obstructed(state)
    print(f"shift_family_obstructed: {obstructed}")
    print(f"diagonal_identity_obstructed: {obstructed}")
    if analysis.bns_excluded(state, d + 1):
        print(f"note: K={d + 1} excluded by strict bound (lambda0 >= d/(d+1))")
    return 0


def _cmd_search(args) -> int:
    state = _state_from_weights(args.lambdas)
    cfg = _config_from_args(args)
    result = search.estimate_nmax(state, cfg)
    print(f"state: d={state.d} lambdas=" + " ".join(repr(float(x)) for x in state.lambdas))
    print(f"seed: {cfg.base_seed}  restarts: {cfg.restarts}  accept_tol: {cfg.accept_tol:.1e}")
    for attempt in result.attempts:
        if attempt.best_objective is None:
            print(f"K={attempt.k}: {attempt.status}")
        else:
            # a refusal reports the restart that came closest
            label = "objective" if attempt.status == "found" else "best objective"
            print(
                f"K={attempt.k}: {attempt.status}  {label}={attempt.best_objective:.3e}"
                f"  max pair residual={attempt.max_pair_residual:.3e}"
            )
    print(f"n_max estimate: {result.n_max_estimate}")
    return 0


# a cell's fields after its index, in order; csv spells a float by its repr
# and None as an empty field
SWEEP_COLUMNS = tuple(field.name for field in dataclasses.fields(search.RegionCell))[1:]


def write_sweep_csv(region: search.RegionMap, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(dataclasses.astuple(cell)[1:] for cell in region.cells)


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    search.sweep_grid(args.resolution, cfg)
    with _output(args.output) as out:
        region = search.region_sweep(args.resolution, cfg)
        write_sweep_csv(region, out)
    print(f"wrote {len(region.cells)} cells to {args.output}")
    return 0


_SEARCH_TOL_HELP = (
    "largest pair residual a found family may have: a family is found when it "
    f"passes verify at this tolerance (default {analysis.VERIFY_TOL:g})"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dc-lab",
        description="Construct, verify, and search encoding-unitary families for dense coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and write it as JSON")
    p.add_argument("family", choices=FAMILY_CHOICES)
    p.add_argument("-d", "--dimension", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a family document against a state")
    p.add_argument("family_path")
    p.add_argument("--lambdas", nargs="+", required=True, help="weights, e.g. 2/3 1/3 0 0")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    # the search budget of `sweep` and `search`
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--seed", type=int, default=None)
    budget.add_argument("--restarts", type=int, default=None)
    budget.add_argument("--max-k", type=int, default=None)
    budget.add_argument("--tol", type=float, default=None, help=_SEARCH_TOL_HELP)

    p = sub.add_parser("sweep", parents=[budget], help="map N_max over the weight triangle to CSV")
    # the triangle is the qutrit's; -d stays so that `-d 3` keeps working
    p.add_argument("-d", "--dimension", type=int, choices=(3,), default=3)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("state-info", help="entropy, bounds, and obstruction flags for a state")
    p.add_argument("--lambdas", nargs="+", required=True)
    p.set_defaults(func=_cmd_state_info)

    p = sub.add_parser("search", parents=[budget], help="estimate the largest supported family size for a state")
    p.add_argument("--lambdas", nargs="+", required=True)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input; json's JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
