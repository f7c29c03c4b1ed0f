"""Output checks for every benchmark operation, and a self-test of them.

A check returns a list of failures, each a (kind, message) pair.  Kind
"defect" marks the one known defect the benchmark reports without treating
it as a broken run: a search witness accepted because its objective is at
most accept_tol, which bounds the *squared* pair residuals, while its
largest pair residual is above the verification tolerance.  It shows at
saturated states (lambda0 = d/K).  Every other failure has kind "error".
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from types import SimpleNamespace

import numpy as np

# Fixed by dc-lab's documented contracts (README: verification tolerance,
# span tolerance at saturation, sweep column order).
VERIFY_TOL = 1e-10
KC_RESIDUAL_TOL = 1e-8
SATURATION_TOL = 1e-9
SWEEP_COLUMNS = [
    "lambda0",
    "lambda1",
    "lambda2",
    "entropy_bits",
    "wcsg_bound",
    "n_max_estimate",
    "best_objective_at_refusal",
    "seed",
]
FOUND = "found"
HEURISTIC = "not found (heuristic)"


def family_residuals(members, lambdas) -> tuple[float, float, float]:
    """Largest pair, unitarity and message-norm residuals, computed here."""
    u = np.stack([np.asarray(m, dtype=np.complex128) for m in members])
    lam = np.asarray(lambdas, dtype=float)
    d = lam.shape[0]
    gram = np.einsum("a,iba,jba->ij", lam, u.conj(), u)
    off = gram - np.diag(np.diag(gram))
    pair = float(np.max(np.abs(off))) if len(u) > 1 else 0.0
    unit = float(np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d))))
    norms = np.sqrt(np.einsum("a,iba->i", lam, np.abs(u) ** 2))
    return pair, unit, float(np.max(np.abs(norms - 1.0)))


def search_result(result, lambdas, expected_nmax: int, accept_tol: float):
    """Check one estimate_nmax result against the known answer for its state:
    every K from d to expected_nmax found, and nothing else attempted."""
    failures = []
    lam = np.asarray(lambdas, dtype=float)
    d = lam.shape[0]
    if result.n_max_estimate != expected_nmax:
        failures.append(("error", f"n_max_estimate {result.n_max_estimate}, expected {expected_nmax}"))
    want = [(k, FOUND) for k in range(d, expected_nmax + 1)]
    got = [(a.k, a.status) for a in result.attempts]
    if got != want:
        failures.append(("error", f"attempts {got}, expected {want}"))
    for attempt in result.attempts:
        if attempt.status != FOUND:
            continue
        witness = result.witnesses.get(attempt.k)
        if witness is None or len(witness.members) != attempt.k:
            failures.append(("error", f"K={attempt.k} found without a {attempt.k}-member witness"))
            continue
        pair, unit, norm = family_residuals(witness.members, lam)
        if max(pair, unit, norm) <= VERIFY_TOL:
            continue
        accepted = attempt.best_objective is not None and attempt.best_objective <= accept_tol
        saturated = abs(lam[0] - d / attempt.k) <= SATURATION_TOL
        message = (
            f"K={attempt.k} witness fails verification: pair {pair:.3e} unitarity {unit:.3e}"
            f" norm {norm:.3e} (objective {attempt.best_objective}, saturated={saturated})"
        )
        known = accepted and unit <= VERIFY_TOL and norm <= VERIFY_TOL and pair <= math.sqrt(accept_tol)
        failures.append(("defect" if known else "error", message))
    return failures


def refusal_cell(result) -> str:
    """The CSV text of a cell's best_objective_at_refusal field."""
    for attempt in result.attempts:
        if attempt.status != FOUND:
            return "" if attempt.best_objective is None else repr(attempt.best_objective)
    return ""


def sweep_csv(dc, text: str, resolution: int, base_seed: int, accept_tol: float, cfg_for, recompute: int):
    """Check a sweep CSV against the grid, the bounds and one recomputed cell.

    `cfg_for(seed)` gives the SearchConfig the sweep used for a cell seed;
    cell `recompute` is searched again in this process and must match the
    file byte for byte.
    """
    failures = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return [("error", f"sweep header {rows[:1]}")]
    grid = dc.triangle_grid(resolution)
    if len(rows) - 1 != len(grid):
        return [("error", f"sweep has {len(rows) - 1} cells, grid has {len(grid)}")]
    targets = {(3 / 5, 2 / 5, 0.0): 5, (3 / 5, 1 / 5, 1 / 5): 4}
    for idx, (row, lam3) in enumerate(zip(rows[1:], grid)):
        state = dc.make_state(3, lam3)
        bound = dc.wcsg_bound(state)
        expect = [repr(x) for x in lam3] + [repr(dc.entropy_bits(state)), str(bound)]
        malformed = len(row) != len(SWEEP_COLUMNS) or not row[5].isdigit()
        if malformed or row[:5] != expect or row[7] != str(base_seed ^ idx):
            failures.append(("error", f"cell {idx}: {row} does not match the grid"))
            continue
        n = int(row[5])
        if not 3 <= n <= bound:
            failures.append(("error", f"cell {idx}: n_max {n} outside [3, {bound}]"))
        if (row[6] == "") != dc.bns_excluded(state, n + 1) or (row[6] and not float(row[6]) > accept_tol):
            failures.append(("error", f"cell {idx}: refusal field {row[6]!r} with n_max {n}"))
        for target, want in targets.items():
            if max(abs(a - b) for a, b in zip(lam3, target)) <= 1e-12 and n != want:
                failures.append(("error", f"cell {idx} {target}: n_max {n}, expected {want}"))
    if failures:
        return failures
    row, lam3 = rows[1 + recompute], grid[recompute]
    result = dc.estimate_nmax(dc.make_state(3, lam3), cfg_for(base_seed ^ recompute))
    if row[5] != str(result.n_max_estimate) or row[6] != refusal_cell(result):
        failures.append(("error", f"cell {recompute}: {row[5:7]} differs from a serial search"))
    return failures


def csv_identical(reference: bytes, other: bytes, what: str):
    if reference == other:
        return []
    at = next((i for i, (a, b) in enumerate(zip(reference, other)) if a != b), min(len(reference), len(other)))
    return [("error", f"{what} differs from the single-worker CSV at byte {at}")]


_RESIDUAL_LINE = re.compile(r"^\s+m=\d+: ([-+.0-9eE]+|nan|inf)$", re.M)


def construct_verify(expected_k: int, d: int, rc_construct: int, out_construct: str, rc_verify: int, out_verify: str):
    """Check one construct + verify pair from the CLI's exit codes and output."""
    failures = []
    if rc_construct != 0 or f"K={expected_k} members, d={d}" not in out_construct:
        failures.append(("error", f"construct exit {rc_construct}: {out_construct.strip()!r}"))
    if rc_verify != 0 or "result: PASS" not in out_verify:
        failures.append(("error", f"verify exit {rc_verify}, no PASS"))
    if f"(d={d}, K={expected_k})" not in out_verify:
        failures.append(("error", f"verify did not read a d={d}, K={expected_k} family"))
    residuals = [float(x) for x in _RESIDUAL_LINE.findall(out_verify)]
    if "saturated (lambda0 = d/K)" not in out_verify or len(residuals) != d:
        failures.append(("error", f"verify printed {len(residuals)} |m0> residuals, expected {d}"))
    elif not all(r <= KC_RESIDUAL_TOL for r in residuals):
        failures.append(("error", f"|m0> residual {max(residuals):.3e} above {KC_RESIDUAL_TOL:.0e}"))
    return failures


def run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def self_test(dc, cli, workdir: str) -> list[tuple[str, bool]]:
    """Feed each check a good output and a broken one; both must be judged right.

    Returns (case, judged right) pairs.  The broken outputs are a witness
    perturbed by 1e-6, a wrong n_max_estimate, a flipped found label, a CSV
    with one altered byte and a verify exit code of 1.
    """
    lam = (3 / 5, 2 / 5, 0.0)
    five = dc.qutrit_five_family()

    def result(n_max=5, last_status=FOUND, perturb=0.0):
        members = [np.array(m) for m in five.members]
        members[-1][0, 0] += perturb
        attempts = [SimpleNamespace(k=k, status=FOUND, best_objective=0.0) for k in (3, 4, 5)]
        attempts[-1].status = last_status
        witnesses = {k: SimpleNamespace(members=members[:k]) for k in (3, 4, 5)}
        return SimpleNamespace(n_max_estimate=n_max, attempts=attempts, witnesses=witnesses)

    cases = [
        ("good search result passes", not bool(search_result(result(), lam, 5, 1e-10))),
        ("witness perturbed by 1e-6", bool(search_result(result(perturb=1e-6), lam, 5, 1e-10))),
        ("wrong n_max_estimate", bool(search_result(result(n_max=4), lam, 5, 1e-10))),
        ("flipped found label", bool(search_result(result(last_status=HEURISTIC), lam, 5, 1e-10))),
    ]
    reference = ("\n".join([",".join(SWEEP_COLUMNS), "0.6,0.4,0.0,0.9709505944546686,5,5,,23"]) + "\n").encode()
    altered = bytearray(reference)
    altered[-5] ^= 1
    cases.append(("identical CSV passes", not bool(csv_identical(reference, bytes(reference), "csv"))))
    cases.append(("CSV with one altered byte", bool(csv_identical(reference, bytes(altered), "csv"))))
    doc = os.path.join(workdir, "self-test-five.json")
    rc_c, out_c = run_cli(cli, ["construct", "five", "-d", "3", "--output", doc])
    rc_v, out_v = run_cli(cli, ["verify", doc, "--lambdas", "3/5", "2/5", "0"])
    cases.append(("passing verify passes", not bool(construct_verify(5, 3, rc_c, out_c, rc_v, out_v))))
    rc_v, out_v = run_cli(cli, ["verify", doc, "--lambdas", "0.9", "0.1", "0"])
    cases.append(("verify exit code 1", rc_v == 1 and bool(construct_verify(5, 3, rc_c, out_c, rc_v, out_v))))
    os.remove(doc)
    return cases
