"""The three workloads: inputs made from the arguments, one timed step, checks.

Each workload is a closed loop with one client.  ``steps()`` yields the
inputs of successive operations, generated from the benchmark's arguments;
``run(step)`` performs one operation through dc_lab's public API or its
in-process CLI and returns a Verdict: the wall time to the verdict plus one
deferred output check per operation inside it.  Checks run after timing.
A run holds a fixed number of rounds of ``round_size`` operations: those
that take about --seconds at ``nominal_round_s``, measured on a shared
2-core Xeon.  So the work of a run, and with it `attempted` and `failed`,
depends on the arguments only, not on how fast the machine happens to be.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field

import checks

ACCEPT_TOL = 1e-10  # the documented search budget: accept_tol=1e-10


@dataclass
class Verdict:
    seconds: float
    checks: list = field(default_factory=list)  # (label, callable returning failures)
    path: str | None = None  # the CSV a sweep wrote


class SearchFind:
    """estimate_nmax on states whose N_max is known; every K up to it is found.

    Round r searches every state once with base_seed r, so the searches of a
    run are the same whatever the benchmark seed, which only sets the order
    within each round.  The known defect (see checks) hits a share of these
    searches that depends on their seeds; a fixed set of searches shows it
    as the same count in every run.  Rounds 1-8 hold 11 such searches in 48.
    """

    name = "search-find"
    states = (
        ((3 / 5, 2 / 5, 0.0), 5),
        ((0.51, 0.30, 0.19), 5),
        ((0.80, 0.15, 0.05), 3),
        ((1 / 3, 1 / 3, 1 / 3), 9),
        ((4 / 6, 2 / 6, 0.0, 0.0), 6),
        ((4 / 7, 3 / 7, 0.0, 0.0), 7),
    )
    round_size = len(states)
    nominal_round_s = 5.4
    restarts = 50

    def __init__(self, dc, cli, seed, workdir):
        self.dc = dc
        self.rng = random.Random(seed)
        self.made = [dc.make_state(len(w), w) for w, _ in self.states]

    def steps(self):
        for base_seed in itertools.count(1):
            order = list(range(len(self.states)))
            self.rng.shuffle(order)
            for i in order:
                yield i, base_seed

    def run(self, step):
        i, seed = step
        state, expected = self.made[i], self.states[i][1]
        cfg = self.dc.SearchConfig(restarts=self.restarts, accept_tol=ACCEPT_TOL, base_seed=seed)
        t0 = time.perf_counter()
        result = self.dc.estimate_nmax(state, cfg)
        seconds = time.perf_counter() - t0
        check = lambda: checks.search_result(result, state.lambdas, expected, ACCEPT_TOL)  # noqa: E731
        return Verdict(seconds, [(f"{self.states[i][0]} seed {seed}", check)])


class Sweep:
    """`dc-lab sweep -d 3 --resolution 6 --restarts 5` over a process pool.

    The n-th sweep of a run passes the CLI `--seed n`, as search-find's
    rounds pass base_seed n, so every run times the same sweeps; the
    benchmark seed picks the cell each check searches again.
    """

    name = "sweep"
    round_size = 1
    nominal_round_s = 19.0
    resolution = 6
    restarts = 5

    def __init__(self, dc, cli, seed, workdir):
        self.dc, self.cli, self.workdir = dc, cli, workdir
        self.rng = random.Random(seed)
        self.cells = len(dc.triangle_grid(self.resolution))
        self.count = 0

    def steps(self):
        for seed in itertools.count(1):
            yield seed, self.rng.randrange(self.cells)

    def cfg_for(self, cell_seed):
        return self.dc.SearchConfig(restarts=self.restarts, base_seed=cell_seed)

    def run(self, step, workers=None):
        """One sweep to a written CSV; `workers` overrides DC_LAB_THREADS."""
        seed, recompute = step
        self.count += 1
        path = os.path.join(self.workdir, f"sweep-{self.count}.csv")
        argv = ["sweep", "-d", "3", "--resolution", str(self.resolution), "--restarts", str(self.restarts)]
        argv += ["--seed", str(seed), "--output", path]
        saved = os.environ.get("DC_LAB_THREADS")
        if workers is not None:
            os.environ["DC_LAB_THREADS"] = str(workers)
        try:
            t0 = time.perf_counter()
            rc, out = checks.run_cli(self.cli, argv)
            seconds = time.perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("DC_LAB_THREADS", None)
            else:
                os.environ["DC_LAB_THREADS"] = saved

        def check():
            if rc != 0:
                return [("error", f"sweep exit {rc}: {out.strip()!r}")]
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            return checks.sweep_csv(self.dc, text, self.resolution, seed, ACCEPT_TOL, self.cfg_for, recompute)

        return Verdict(seconds, [(f"sweep seed {seed}", check)], path)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def sweep_identity_check(parallel: Verdict, serial: Verdict, traced: Verdict):
    """Both single-worker CSVs must equal the pool's CSV byte for byte."""

    def check():
        reference = _read_bytes(serial.path)
        return checks.csv_identical(reference, _read_bytes(parallel.path), "pool CSV") + checks.csv_identical(
            reference, _read_bytes(traced.path), "traced CSV"
        )

    return ("sweep CSV identity", check)


class ConstructVerify:
    """`dc-lab construct` then `dc-lab verify` for each family at its target state."""

    name = "construct-verify"
    round_size = 1
    nominal_round_s = 10.2
    cases = (
        ("d-plus-two", 16),
        ("d-plus-two", 32),
        ("d-plus-two", 64),
        ("two-d-minus-one", 16),
        ("two-d-minus-one", 32),
        ("two-d-minus-one", 64),
        ("weyl", 16),
    )

    def __init__(self, dc, cli, seed, workdir):
        self.cli, self.workdir = cli, workdir
        self.rng = random.Random(seed)

    @staticmethod
    def target(family, d):
        """(K, weights as CLI text) of the state the family saturates."""
        if family == "d-plus-two":
            return d + 2, [f"{d}/{d + 2}", f"2/{d + 2}"] + ["0"] * (d - 2)
        if family == "two-d-minus-one":
            return 2 * d - 1, [f"{d}/{2 * d - 1}", f"{d - 1}/{2 * d - 1}"] + ["0"] * (d - 2)
        return d * d, [f"1/{d}"] * d

    def steps(self):
        while True:
            order = list(self.cases)
            self.rng.shuffle(order)
            yield tuple(order)

    def document(self, family, d):
        return os.path.join(self.workdir, f"{family}-{d}.json")

    def run(self, order):
        outputs = []
        t0 = time.perf_counter()
        for family, d in order:
            path = self.document(family, d)
            built = checks.run_cli(self.cli, ["construct", family, "-d", str(d), "--output", path])
            verified = checks.run_cli(self.cli, ["verify", path, "--lambdas", *self.target(family, d)[1]])
            outputs.append((family, d, built, verified))
        seconds = time.perf_counter() - t0
        items = []
        for family, d, built, verified in outputs:
            k = self.target(family, d)[0]
            check = lambda k=k, d=d, b=built, v=verified: checks.construct_verify(k, d, *b, *v)  # noqa: E731
            items.append((f"{family} d={d}", check))
        return Verdict(seconds, items)

    def document_bytes(self):
        return sum(os.path.getsize(self.document(f, d)) for f, d in self.cases)


WORKLOADS = {w.name: w for w in (SearchFind, Sweep, ConstructVerify)}
