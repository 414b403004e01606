"""The benchmark's three workloads.

Each workload is built from a seed and the ground-truth table, then runs
whole passes over a fixed list of operations.  A pass times every operation,
checks every answer, and returns a Pass.  Inputs are made here, outside the
timed region; expected answers come from the table or from a second
counting method, never from the call being measured.

oracle-sweep
    count_avoiders on all 66 unordered pairs of length-3 patterns over at
    least two values, on the 17 cells n*m <= 12 with 2 <= m <= 6 (1,122
    operations).  This is the grid that verify and the acceptance tests
    walk, and nearly all of its time is the enumeration engine in count
    mode.  All 66 pairs, not only the 21 class representatives, are
    counted because orbit members differ in search cost.  The seed picks
    the order.
evidence
    run_suite for each of the five verify suites at default scope, which is
    what `msetperm verify` runs.  It drives the enumeration engine three
    ways (counting, listing for the bijection checks, word counting in
    growth) plus the formulas, bijections and generating trees, so a change
    that speeds one use of the engine and slows another shows here.  The
    seed picks the suite order.
cli-session
    A closed loop of 1,500 `msetperm count` requests through cli.main from
    one client, each sent after the previous one returns, with a fresh
    --cache file per pass.  Each of 750 requests is sent twice, so half of
    them hit the cache.  Its time goes to the cache and the argument parser,
    not the oracle, so it is the workload where oracle speedups should
    predict no change.  The seed picks the stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Pass:
    #: seconds of the pass, the starts of its operations and their seconds,
    #: all on the clock the pass was given
    run_s: float
    starts: list[float]
    latencies: list[float]
    speed: object = None  # the HostSpeed probes taken during the pass
    errors: int = 0
    unexpected_errors: int = 0
    refused: int = 0
    notes: list[str] = field(default_factory=list)

    def error(self, note: str, known: bool = False) -> None:
        self.errors += 1
        if not known:
            self.unexpected_errors += 1
        if len(self.notes) < 5:
            self.notes.append(f"known defect: {note}" if known else note)


class Truth:
    """The ground-truth table written by make_truth.py."""

    def __init__(self, path: Path):
        data = json.loads(path.read_text())
        self.grid = [tuple(cell) for cell in data["grid"]]
        self.classes = data["classes"]
        self._counts = {}
        for text, row in data["counts"].items():
            for (n, m), value in zip(self.grid, row):
                self._counts[self.key(text), n, m] = value
        self.trust = {self.key(member): cls["trust"]
                      for cls in self.classes for member in cls["members"]}

    @staticmethod
    def key(pair_text: str) -> tuple[str, str]:
        a, b = pair_text.split(",")
        return (a, b) if a <= b else (b, a)

    def count(self, pair_text: str, n: int, m: int) -> int | None:
        return self._counts.get((self.key(pair_text), n, m))

    def pairs(self, with_111: bool) -> list[str]:
        return [member for cls in self.classes for member in cls["members"]
                if with_111 or "111" not in member]


# -- oracle-sweep ----------------------------------------------------------------

class OracleSweep:
    name = "oracle-sweep"
    #: spans that must cover run_s in a traced pass, up to coverage_margin;
    #: the rest is the loop, the clock reads and the answer checks
    root_spans = ("enumeration.count_avoiders",)
    coverage_margin = 0.02
    #: typical wall seconds of one pass; sets the number of passes a run makes
    pass_s = 8.0

    def __init__(self, pkg, truth: Truth, seed: int, workdir: Path):
        self.pkg = pkg
        self.cells = [(tuple(text.split(",")), n, m, truth.count(text, n, m))
                      for text in truth.pairs(with_111=False)
                      for n, m in truth.grid]
        random.Random(seed).shuffle(self.cells)

    def run(self, tracer, clock: Callable[[], float]) -> Pass:
        count = self.pkg.count_avoiders  # resolved after the shims go in
        starts, latencies = [], []
        failures = []
        start = clock()
        for pair, n, m, expected in self.cells:
            t0 = clock()
            try:
                value = count(n, m, pair)
            except Exception as exc:  # a crash or budget failure is an error
                value = exc
            t1 = clock()
            starts.append(t0)
            latencies.append(t1 - t0)
            if value != expected:
                failures.append((pair, n, m, expected, value))
        out = Pass(clock() - start, starts, latencies)
        for pair, n, m, expected, value in failures:
            out.error(f"{','.join(pair)} n={n} m={m}: got {value!r}, "
                      f"table {expected}")
        return out


# -- evidence ------------------------------------------------------------------------

class Evidence:
    name = "evidence"
    SUITES = ("table1", "gentree", "bijections", "growth", "classify")
    root_spans = tuple(f"verify.{suite}" for suite in SUITES)
    coverage_margin = 0.01
    pass_s = 6.0

    def __init__(self, pkg, truth: Truth, seed: int, workdir: Path):
        from msetperm import verify
        self.verify = verify
        self.suites = list(self.SUITES)
        random.Random(seed).shuffle(self.suites)

    def run(self, tracer, clock: Callable[[], float]) -> Pass:
        starts, latencies = [], []
        outcomes = []
        start = clock()
        for suite in self.suites:
            span = tracer.span(f"verify.{suite}") if tracer else contextlib.nullcontext()
            t0 = clock()
            try:
                with span:
                    results = self.verify.run_suite(suite)
            except Exception as exc:
                results = exc
            t1 = clock()
            starts.append(t0)
            latencies.append(t1 - t0)
            outcomes.append((suite, results))
        out = Pass(clock() - start, starts, latencies)
        for suite, results in outcomes:
            if isinstance(results, Exception):
                out.error(f"{suite}: raised {results!r}")
            elif not results:
                out.error(f"{suite}: returned no checks")
            else:
                failed = [r.line() for r in results if r.hard and not r.ok]
                if failed:
                    out.error(f"{suite}: {failed[0]}")
        return out


# -- cli-session ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    pair: str
    n: int
    m: int
    method: str
    #: the expected count, or for --method all the expected count of every
    #: method (they are all the same number)
    expected: int


class CliSession:
    name = "cli-session"
    root_spans = ("cli.main",)
    coverage_margin = 0.02
    pass_s = 6.0

    #: distinct requests; each is sent twice, the second time from the cache
    UNIQUE = 750
    #: largest n*m of an oracle request.  Cached oracle answers are audited
    #: by an unseeded 5% draw inside the CLI, so each audit recomputes one of
    #: these cells; at n*m <= 10 an audit costs at most about 0.1 s.
    ORACLE_LENGTH = 10
    LARGE_N = (13, 200)
    #: answers ROADMAP item 3 shows are served wrongly; always in the stream
    KNOWN_WRONG = (("212,132", 4, 2, "formula"), ("111,123", 3, 2, "formula"))
    #: share of the distinct requests of each kind
    KINDS = (
        ("oracle", 0.20),
        ("formula-small", 0.25),
        ("formula-large", 0.20),
        ("gentree-large", 0.20),
        ("gentree-small", 0.12),
        ("all", 0.03),
    )

    def __init__(self, pkg, truth: Truth, seed: int, workdir: Path):
        from msetperm import cli
        self.cli = cli
        self.pkg = pkg
        self.workdir = workdir
        self.truth = truth
        rng = random.Random(seed)
        self.all_pairs = truth.pairs(with_111=True)
        self.oracle_cells = [(n, m) for n, m in truth.grid
                             if n * m <= self.ORACLE_LENGTH and m <= 5]
        self.rule_members = [(member, cls["rule"]) for cls in truth.classes
                             if cls["rule"] for member in cls["members"]]
        self.requests = self._stream(rng)

    def _new_requests(self, kind: str, k: int, rng: random.Random) -> list[Request]:
        """k requests of one kind.  Cells, pairs, n and m are spread evenly
        over their ranges, so that every seed's stream costs about the same
        and only the choice and order of the inputs change."""
        truth = self.truth
        out = []
        if kind in ("oracle", "all", "formula-small"):
            cells = truth.grid if kind == "formula-small" else self.oracle_cells
            method = "formula" if kind == "formula-small" else kind
            for j, (n, m) in enumerate(cells):
                # Search cost follows the count, so the pairs asked at a
                # cell are one from each band of pairs ranked by count.
                ranked = sorted(self.all_pairs, key=lambda p: (truth.count(p, n, m), p))
                bands = k // len(cells) + (j < k % len(cells))
                for b in range(bands):
                    band = ranked[b * len(ranked) // bands:(b + 1) * len(ranked) // bands]
                    pair = rng.choice(band)
                    out.append(Request(pair, n, m, method, truth.count(pair, n, m)))
            return out
        low, high = self.LARGE_N
        ns = [low + int((i + rng.random()) * (high - low + 1) / k) for i in range(k)]
        rng.shuffle(ns)
        members = rng.sample(self.rule_members, len(self.rule_members))
        for i in range(k):
            pair, rule = members[i % len(members)]
            m = 2 if rule.endswith("@m2") else 2 + (i // len(members)) % 4
            if kind == "gentree-small":
                n = rng.choice([n for n, mm in truth.grid if mm == m])
                out.append(Request(pair, n, m, "gentree", truth.count(pair, n, m)))
            elif kind == "formula-large":
                # Beyond the table, the expected value comes from the other
                # of the two catalogued methods that cover these classes.
                tree = self.pkg.builtin_rule(rule, m)
                out.append(Request(pair, ns[i], m, "formula",
                                   self.pkg.count_at_height(tree, ns[i])))
            else:
                out.append(Request(pair, ns[i], m, "gentree",
                                   self.pkg.closed_count(tuple(pair.split(",")), ns[i], m)))
        return out

    def _stream(self, rng: random.Random) -> list[Request]:
        fresh = [Request(p, n, m, method, self.truth.count(p, n, m))
                 for p, n, m, method in self.KNOWN_WRONG]
        spare = self.UNIQUE - len(fresh)
        for j, (kind, share) in enumerate(self.KINDS):
            last = j == len(self.KINDS) - 1
            k = self.UNIQUE - len(fresh) if last else round(share * spare)
            fresh += self._new_requests(kind, k, rng)
        # Each request is sent at two random moments; the later one repeats it.
        moments = []
        for req in fresh:
            first, second = sorted((rng.random(), rng.random()))
            moments += [(first, req), (second, req)]
        moments.sort(key=lambda item: item[0])
        return [req for _, req in moments]

    def _known_defect(self, req: Request) -> bool:
        """A wrong formula answer from a catalog row that is not proved-here
        is the documented answer-path defect (ROADMAP item 3)."""
        return self.truth.trust.get(Truth.key(req.pair)) != "proved-here"

    def run(self, tracer, clock: Callable[[], float]) -> Pass:
        main = self.cli.main  # resolved after the shims go in
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        cache = str(cache_dir / "counts.jsonl")
        starts, latencies = [], []
        replies = []
        try:
            start = clock()
            for req in self.requests:
                argv = ["count", "--pair", req.pair, "--n", str(req.n),
                        "--m", str(req.m), "--method", req.method, "--cache", cache]
                if req.method == "all":
                    argv.append("--records")
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = main(argv)
                except (Exception, SystemExit) as exc:
                    code = exc
                t1 = clock()
                starts.append(t0)
                latencies.append(t1 - t0)
                replies.append((code, stdout.getvalue()))
            run_s = clock() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        out = Pass(run_s, starts, latencies)
        for req, (code, text) in zip(self.requests, replies):
            self._check(out, req, code, text)
        return out

    def _check(self, out: Pass, req: Request, code, text: str) -> None:
        where = f"count --pair {req.pair} --n {req.n} --m {req.m} --method {req.method}"
        if code in (2, 3):
            out.refused += 1
            return
        if req.method == "all":
            if code not in (0, 5):
                out.error(f"{where}: exit {code!r}")
                return
            wrong = []
            for line in text.splitlines():
                if line.startswith("{"):
                    record = json.loads(line)
                    if record["count"] != "-" and record["count"] != req.expected:
                        wrong.append(record["method"])
            if wrong:
                known = wrong == ["formula"] and self._known_defect(req)
                out.error(f"{where}: {wrong} differ from {req.expected}", known)
            return
        if code != 0:
            out.error(f"{where}: exit {code!r}")
            return
        answer = text.strip()
        if answer != str(req.expected):
            known = req.method == "formula" and self._known_defect(req)
            out.error(f"{where}: printed {answer}, expected {req.expected}", known)


WORKLOADS = {w.name: w for w in (OracleSweep, Evidence, CliSession)}
