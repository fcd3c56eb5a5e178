"""argclinic benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/argclinic``):

    python3 bench/run.py --workload ward_batch --seed 1 --seconds 55 --trace 0

Inputs are generated from ``--seed`` by the frozen families in
``families.py``; the program only ever sees those inputs.  Every workload is
a closed loop with one client in one process: the next case starts when the
previous one has finished.  ``paper_cli`` additionally starts one child
process per case.  A case is one input taken from text to answer.

The untraced loop of an in-process workload runs in a fresh child that
reads only the prepared inputs, so its peak memory is the program's and not
the input generator's.  After the timed loop every answer is checked
(``check.py``), so checking costs nothing inside the measurement.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print the same
numbers as a table.

See README.md in this directory for the workloads, the metrics and what
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402

SETUP_PROBES = 15
CASE_LIMIT_S = 60.0
TAIL_BEYOND = 10
TAIL_CAP = 99
SIZE_CAP_ENV = "ARGCLINIC_MAX_ASSUMPTIONS"
# An in-process run reads its peak memory after this many timed cases: the
# engine's caches grow with every distinct framework, so a faster program,
# which runs more cases, would otherwise read as one that needs more memory.
RSS_CASES = 120

END_TO_END = (
    ("setup_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, each a mean per traced case.  Times are self times of
# spans the benchmark records around its calls into each module.
PER_LAYER = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("bundle.parse_ms", "ms"),
    ("bundle.parse_calls", "count"),
    ("bundle.rejects", "count"),
    ("mapper.build_ms", "ms"),
    ("mapper.rules", "count"),
    ("mapper.assumptions", "count"),
    ("aba_text.parse_ms", "ms"),
    ("aba_text.statements", "count"),
    ("aba_core.validate_ms", "ms"),
    ("aba_core.supports_ms", "ms"),
    ("aba_core.support_masks", "count"),
    ("aba_core.attack_tables_ms", "ms"),
    ("aba_core.enumerate_ms", "ms"),
    ("aba_core.extensions", "count"),
    ("aba_core.supports_cache_hits", "count"),
    ("aba_core.supports_cache_misses", "count"),
    ("aba_goals.rank_ms", "ms"),
    ("aba_goals.goal_extensions", "count"),
    ("trace.overhead_ms", "ms"),
)


class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout()


@contextlib.contextmanager
def case_deadline(seconds: float = CASE_LIMIT_S):
    """Raise CaseTimeout in the running case once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- tracing --------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent, case) and counts, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.case = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.case)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child[i])
        return totals


class _NoTrace:
    """Stands in for a Tracer when tracing is off; costs one call per span."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, amount=1):
        pass


NO_TRACE = _NoTrace()


# --- the program's layers, called from outside ----------------------------------


def solve_bundle(text: str, tracer) -> tuple:
    """parse_bundle -> build_patient_framework -> enumerate -> rank, layer by layer."""
    from argclinic.bundle import parse_bundle
    from argclinic.errors import ArgClinicError
    from argclinic.mapper import build_patient_framework

    with tracer.span("bundle.parse"):
        tracer.count("bundle.parse_calls")
        try:
            bundle = parse_bundle(text)
        except ArgClinicError:
            tracer.count("bundle.rejects")
            raise
    with tracer.span("mapper.build"):
        framework, _ = build_patient_framework(
            bundle.recommendations, bundle.interactions, bundle.context
        )
    base = framework.base
    tracer.count("mapper.rules", len(base.rules))
    tracer.count("mapper.assumptions", len(base.assumptions))
    preferred, top = _search(base, framework, tracer)
    rec_names = {r.name for r in bundle.recommendations}
    follow = [
        sorted(s.symbol for s in source if s.symbol in rec_names)
        for g in top
        for source in g.sources
    ]
    return preferred, top, follow


def solve_aba(text: str, tracer) -> tuple:
    """parse_aba_text -> validate -> enumerate -> rank, layer by layer."""
    from argclinic.aba_core import validate_framework
    from argclinic.aba_goals import validate_abapg
    from argclinic.aba_text import parse_aba_text

    with tracer.span("aba_text.parse"):
        program = parse_aba_text(text)
    raw = program.raw
    tracer.count(
        "aba_text.statements",
        len(raw.rules) + len(raw.assumptions) + len(raw.contraries) + len(raw.preferences)
        + len(program.goals) + len(program.priorities),
    )
    with tracer.span("aba_core.validate"):
        base = validate_framework(raw)
    framework = None
    if program.has_goals:
        with tracer.span("aba_goals.validate"):
            framework = validate_abapg(base, program.goals, program.priorities)
    preferred, top = _search(base, framework, tracer)
    return preferred, top, ()


def _search(base, framework, tracer) -> tuple:
    from argclinic.aba_core import canonical_attackers, compute_supports, preferred_extensions
    from argclinic.aba_goals import collect_goal_extensions, maximal_goal_extensions

    if tracer is not NO_TRACE:
        with tracer.span("aba_core.supports"):
            table = compute_supports(base)
        tracer.count("aba_core.support_masks", sum(len(m) for m in table.mask_families.values()))
        with tracer.span("aba_core.attack_tables"):
            canonical_attackers(base, base.assumption_order[:1])
    with tracer.span("aba_core.enumerate"):
        preferred = preferred_extensions(base)
    tracer.count("aba_core.extensions", len(preferred))
    top = ()
    if framework is not None:
        with tracer.span("aba_goals.rank"):
            grouped = collect_goal_extensions(framework, preferred)
            top = maximal_goal_extensions(grouped, framework.priority)
        tracer.count("aba_goals.goal_extensions", len(grouped))
    return preferred, top


def solve_bundle_untraced(text: str) -> tuple:
    """What a library user calls: parse_bundle then resolve."""
    from argclinic.bundle import parse_bundle
    from argclinic.mapper import resolve

    bundle = parse_bundle(text)
    solution = resolve(bundle.recommendations, bundle.interactions, bundle.context)
    return solution.preferred, solution.top_goal_extensions, [p.source for p in solution.follow]


# --- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    kind: str  # "bundle", "aba", "cli", or "compile" until prepare() compiles it
    family: str
    text: str = ""
    closed: tuple = ()
    error: str | None = None  # expected error family, None for a valid input
    fixture: str | None = None
    argv: tuple = ()
    output: str = "text"


def _bundle_case(instance: families.BundleInstance) -> Case:
    return Case("bundle", instance.family, instance.text, error=instance.error)


def _aba_case(instance: families.AbaInstance) -> Case:
    return Case("aba", instance.family, instance.text, closed=instance.closed)


def _fixture_cases() -> list[Case]:
    import check

    cases = []
    for name in sorted(os.listdir(HERE / "fixtures")):
        text = (HERE / "fixtures" / name).read_text(encoding="utf-8")
        cases.append(Case("bundle", "paper_fixture", text, error=check.FIXTURE_ERRORS.get(name), fixture=name))
    return cases


class Workload:
    name = ""
    why = ""
    pool_size = 0
    # modules whose import is part of this workload's set-up
    modules: tuple[str, ...] = ()
    # In-process cases must be distinct frameworks: the engine caches 256.
    distinct = True
    # The untraced loop runs in a fresh child process (see run_in_child).
    in_process = True

    def warmup(self, seed: int) -> list[Case]:
        return self.warmup_cases(random.Random(f"{self.name}:warmup:{seed}"))

    def pool(self, seed: int) -> list[Case]:
        """The timed inputs, from a stream disjoint from the warm-up's.

        A slot whose draw repeats an earlier input (warm-up included) is
        drawn again, so the pool keeps its slot schedule and, cycled in
        order, never hands the engine's caches an input they still hold.
        """
        rng = random.Random(f"{self.name}:pool:{seed}")
        seen = {case.text for case in self.warmup(seed)}
        pool = self.fixed_cases()
        for slot in range(self.pool_size):
            case = self.draw(rng, slot)
            while self.distinct and case.text in seen:
                case = self.draw(rng, slot)
            seen.add(case.text)
            pool.append(case)
        return pool

    def fixed_cases(self) -> list[Case]:
        return []

    def prepare(self, cases: list[Case], work: Path) -> list[Case]:
        return cases

    def warm(self, case: Case) -> None:
        """Run one warm-up case the way the timed loop would."""
        from argclinic.errors import ArgClinicError

        try:
            self.run(case, NO_TRACE)
        except ArgClinicError:
            pass

    def run(self, case: Case, tracer) -> tuple:
        if case.kind == "bundle":
            if tracer is NO_TRACE:
                return solve_bundle_untraced(case.text)
            return solve_bundle(case.text, tracer)
        return solve_aba(case.text, tracer)

    def outcome(self, case: Case, raw) -> tuple:
        import check

        preferred, top, follow = raw
        return ("ok", check.answer_of(preferred, top, follow))

    def expected(self, case: Case) -> tuple:
        import check

        if case.fixture in check.FIXTURE_ANSWERS:
            return ("ok", check.FIXTURE_ANSWERS[case.fixture])
        if case.error is not None:
            return ("error", case.error)
        if case.kind == "bundle":
            return ("ok", _expected_bundle(case.text))
        return ("ok", _expected_aba(case.text, case.closed))

    def verdict(self, outcome: tuple, expected: tuple) -> bool:
        import check

        if outcome[0] == "error" and expected[0] == "error":
            return check.error_matches(outcome[1], expected[1])
        return outcome == expected


def _expected_bundle(text: str) -> tuple:
    import check
    from argclinic.bundle import parse_bundle
    from argclinic.mapper import build_patient_framework

    bundle = parse_bundle(text)
    framework, _ = build_patient_framework(bundle.recommendations, bundle.interactions, bundle.context)
    rec_names = {r.name for r in bundle.recommendations}
    return check.expected_answer(framework.base, framework, rec_names=rec_names)


def _expected_aba(text: str, closed=()) -> tuple:
    import check
    from argclinic.aba_core import validate_framework
    from argclinic.aba_goals import validate_abapg
    from argclinic.aba_text import parse_aba_text

    program = parse_aba_text(text)
    base = validate_framework(program.raw)
    framework = None
    if program.has_goals:
        framework = validate_abapg(base, program.goals, program.priorities)
    return check.expected_answer(base, framework, closed=closed)


def _compile_bundle(text: str) -> str:
    from argclinic.aba_text import serialize_abapg
    from argclinic.bundle import parse_bundle
    from argclinic.mapper import build_patient_framework

    bundle = parse_bundle(text)
    framework, _ = build_patient_framework(bundle.recommendations, bundle.interactions, bundle.context)
    return serialize_abapg(framework)


class WardBatch(Workload):
    name = "ward_batch"
    why = (
        "bundle JSON to resolve in process, 2-8 recommendations, a tenth invalid; "
        "parse and mapping dominate, enumeration is small"
    )
    pool_size = 300  # more than the 256 cached frameworks; cycled in order
    modules = ("argclinic.bundle", "argclinic.mapper")

    def warmup_cases(self, rng):
        return [_bundle_case(families.ward_bundle(rng, slot)) for slot in range(20)]

    def fixed_cases(self):
        return _fixture_cases()

    def draw(self, rng, slot):
        return _bundle_case(families.ward_bundle(rng, slot))


# Slots of search_sparse, cycled in order: (family, assumptions[, pairs]) or
# ("compiled", recommendations, uncertain interactions).  On a shared host the
# speed at which a case runs drifts by up to about 1.6x over seconds, and the
# slow share differs from run to run.  A median over cases of one cost would
# jump with that share as it crossed one half, and a median over a few cost
# levels far apart would jump from level to level.  So the slot costs climb
# in small steps (about 1.1-1.3x) over some 50x.  Fixed-cost families (the
# search cost of attacked_pairs and sparse_blocks is set by the slot, not by
# the draw) hold the middle; compiled bundles, whose cost varies by draw,
# sit only where it cannot move the median.  Each consecutive pair of slots
# is one from the lighter half and one from the heavier half, so any few
# seconds of slow host hit as many cases below the median as above it; the
# median then moves with the host's mean speed, as cases_per_s does, not
# with the slow share crossing a half.  The tail, the 11th-highest case,
# falls among the heaviest slots (four to six pairs in 17), which climb in
# the same small steps for the same reason.
SPARSE_SLOTS = (
    ("compiled", 12, 0), ("pairs", 16, 8),
    ("compiled", 12, 1), ("pairs", 16, 7),
    ("pairs", 14, 6), ("pairs", 16, 6),
    ("pairs", 14, 4), ("pairs", 16, 5),
    ("pairs", 14, 1), ("pairs", 16, 4),
    ("blocks", 15), ("compiled", 13, 3),
    ("pairs", 15, 7), ("pairs", 16, 1),
    ("pairs", 15, 6), ("pairs", 16, 2),
    ("pairs", 15, 5), ("pairs", 17, 6),
    ("pairs", 15, 4), ("pairs", 17, 5),
    ("pairs", 15, 1), ("pairs", 17, 4),
)


class SearchSparse(Workload):
    name = "search_sparse"
    why = (
        ".aba text to goal ranking, 14-17 assumptions with few supports each; "
        "the 2^n candidate sweep is almost all the work"
    )
    pool_size = 260  # more than the 256 frameworks the engine caches
    modules = ("argclinic.aba_text", "argclinic.aba_core", "argclinic.aba_goals")

    def draw(self, rng, index):
        slot = SPARSE_SLOTS[index % len(SPARSE_SLOTS)]
        if slot[0] == "blocks":
            return _aba_case(families.sparse_blocks(rng, slot[1]))
        if slot[0] == "pairs":
            return _aba_case(families.attacked_pairs(rng, slot[1], slot[2]))
        bundle = families.large_bundle(rng, slot[1], slot[2])
        return Case("compile", bundle.family, bundle.text)

    def warmup_cases(self, rng):
        return [
            _aba_case(families.attacked_pairs(rng, 8, 1)),
            _aba_case(families.sparse_blocks(rng, 8)),
            _aba_case(families.attacked_pairs(rng, 8, 3)),
            _aba_case(families.dense_supports(rng, 5, 2, 1, 0, 1)),
        ]

    def prepare(self, cases, work):
        # Compiling is input preparation: it runs before set-up and timing.
        return [
            Case("aba", c.family, _compile_bundle(c.text)) if c.kind == "compile" else c
            for c in cases
        ]


# Slots of support_dense: (x assumptions, threshold m, y assumptions,
# preferred y's, block size).  As for search_sparse, the three middle slots
# cost about the same and mix variants with and without preferred y's, so
# the median falls in their centre; the heaviest slot holds the tail.
DENSE_SLOTS = (
    (10, 4, 1, 0, 2),
    (9, 3, 2, 2, 2),
    (10, 3, 2, 1, 1),
    (11, 5, 1, 0, 1),
    (12, 4, 1, 0, 1),
    (10, 3, 2, 2, 2),
    (12, 5, 1, 0, 1),
)


class SupportDense(Workload):
    name = "support_dense"
    why = (
        ".aba text to goal ranking, 13-14 assumptions whose support families reach "
        "thousands of masks; supports and per-candidate attack checks dominate"
    )
    pool_size = 300
    modules = SearchSparse.modules

    def warmup_cases(self, rng):
        return [_aba_case(families.dense_supports(rng, 6, 3, 2, i, 1)) for i in range(3)]

    def draw(self, rng, index):
        return _aba_case(families.dense_supports(rng, *DENSE_SLOTS[index % len(DENSE_SLOTS)]))


# Slots of paper_cli: (subcommand, source, output format).  A "compiled"
# source is a small bundle compiled to the textual format, run with --aba.
CLI_SLOTS = (
    ("solve", "patient_a.json", "text"),
    ("solve", "small", "json"),
    ("solve", "compiled", "text"),
    ("solve", "aspirin_patient_pref.json", "json"),
    ("check", "invalid", None),
    ("solve", "small", "text"),
    ("solve", "aspirin_clinician_priority.json", "text"),
    ("solve", "compiled", "json"),
    ("check", "broken.json", None),
    ("solve", "patient_a.json", "json"),
)


class PaperCli(Workload):
    name = "paper_cli"
    why = (
        "one fresh CLI process per case on the paper fixtures and small bundles; "
        "start-up is most of each case, so import cost shows end to end"
    )
    pool_size = 300
    modules = ("argclinic.cli",)
    distinct = False  # each case is a fresh process with empty caches
    in_process = False

    def warmup_cases(self, rng):
        return [
            self._case(rng, ("solve", "patient_a.json", "text")),
            self._case(rng, ("solve", "small", "json")),
            self._case(rng, ("check", "invalid", None)),
            Case("cli", "warmup_aba", families.sparse_blocks(rng, 6).text, argv=("solve", "--aba")),
        ]

    def draw(self, rng, index):
        return self._case(rng, CLI_SLOTS[index % len(CLI_SLOTS)])

    def _case(self, rng, slot):
        command, source, output = slot
        fmt = ("--format", "json") if output == "json" else ()
        if source.endswith(".json"):
            text = (HERE / "fixtures" / source).read_text(encoding="utf-8")
            error = "IncompatibleContext" if command == "check" else None
            return Case("cli", "paper_fixture", text, error=error, fixture=source,
                        argv=(command, "--bundle") + fmt, output=output or "text")
        if source == "small":
            instance = families.small_bundle(rng)
            return Case("cli", instance.family, instance.text, argv=("solve", "--bundle") + fmt, output=output)
        if source == "invalid":
            instance = families.invalid_bundle(rng)
            return Case("cli", instance.family, instance.text, error=instance.error,
                        argv=("check", "--bundle"))
        instance = families.small_bundle(rng)
        return Case("cli", "compiled_small", instance.text, argv=("solve", "--aba") + fmt, output=output)

    def prepare(self, cases, work):
        prepared = []
        for index, case in enumerate(cases):
            text = case.text
            if case.family == "compiled_small":
                text = _compile_bundle(text)
            suffix = ".aba" if "--aba" in case.argv else ".json"
            path = work / f"{case.family}-{index}{suffix}"
            path.write_text(text, encoding="utf-8")
            argv = case.argv[:2] + (str(path.relative_to(Path.cwd())),) + case.argv[2:]
            prepared.append(Case("cli", case.family, text, error=case.error, fixture=case.fixture,
                                 argv=argv, output=case.output))
        return prepared

    def run(self, case: Case, tracer) -> tuple:
        with tracer.span("cli.process"):
            return run_cli(case.argv)

    def warm(self, case: Case) -> None:
        """A set-up probe warms up in its own interpreter: cli.main in process."""
        from argclinic.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(list(case.argv))

    def outcome(self, case: Case, raw) -> tuple:
        import check

        code, out, err, _ = raw
        if "Traceback" in err:
            return ("crash", err)
        if code != 0:
            return ("error", code) if err.startswith("error: ") else ("crash", err)
        try:
            if case.output == "json":
                return ("ok", check.parse_cli_json(out))
            return ("ok", check.parse_cli_text(out))
        except (ValueError, KeyError) as exc:
            return ("crash", f"unreadable output: {exc}")

    def expected(self, case: Case) -> tuple:
        import check

        if case.error is not None:
            return ("error", check.EXIT_CODES[case.error])
        if case.fixture is not None:
            return ("ok", check.FIXTURE_ANSWERS[case.fixture])
        if "--aba" in case.argv:
            return ("ok", _expected_aba(case.text))
        return ("ok", _expected_bundle(case.text))

    def verdict(self, outcome, expected) -> bool:
        return outcome == expected


WORKLOADS = {w.name: w for w in (PaperCli(), WardBatch(), SearchSparse(), SupportDense())}


# --- child processes ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUTF8"] = "1"
    env.pop(SIZE_CAP_ENV, None)
    return env


def run_cli(argv) -> tuple:
    """One ``python -m argclinic.cli`` process: (exit code, stdout, stderr, peak RSS MB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "argclinic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        with case_deadline():
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
    except CaseTimeout:
        proc.kill()
        proc.wait()
        return (-1, "", "case did not finish", 0.0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode("utf-8"), err.decode("utf-8"), usage.ru_maxrss / 1024)


def run_child(args: list[str], timeout: float = CASE_LIMIT_S) -> str:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed: {done.stderr.strip()[-500:]}")
    return done.stdout


def median_wall_ms(args: list[str], probes: int) -> float:
    walls = []
    for _ in range(probes):
        start = time.perf_counter()
        run_child(args)
        walls.append((time.perf_counter() - start) * 1000)
    return statistics.median(walls)


def _rel(path: Path) -> str:
    return str(path.resolve().relative_to(Path.cwd()))


def setup_args(workload: Workload, seed: int, work: Path) -> list[str]:
    return [_rel(Path(__file__)), "--workload", workload.name, "--seed", str(seed),
            "--setup-probe", "--work", _rel(work)]


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import argclinic.cli; "
    "print((time.perf_counter() - t) * 1000)"
)


def setup_probe(workload: Workload, seed: int, work: Path) -> None:
    """Child side of set-up: import the workload's modules, then warm up."""
    warmup = workload.prepare(workload.warmup(seed), work / "warmup")
    if "argclinic" in sys.modules:
        raise RuntimeError("argclinic was imported before the set-up clock started")
    start = time.perf_counter()
    for module in workload.modules:
        __import__(module)
    for case in warmup:
        workload.warm(case)
    print(time.perf_counter() - start)


# --- measurement ------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[int, int, float]:
    """(rank, samples beyond, value) at the highest nearest-rank percentile
    that leaves TAIL_BEYOND samples above it, capped at p99.

    The percentile moves with the sample count instead of snapping to a
    grid, so runs of one code with slightly different counts stay comparable.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(n - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100)))
    return rank, n - rank, ordered[rank - 1]


@dataclass
class Timed:
    indices: list
    latencies: list
    outcomes: list
    wall: float  # loop wall time without the set-up probes
    rss: list  # MB: one per CLI case, or the in-process child's peak (see RSS_CASES)
    setup: list  # seconds, one per set-up probe


def error_names(exc_type: type) -> tuple[str, ...]:
    """An error outcome: the class names of the raised type, most specific first."""
    return tuple(cls.__name__ for cls in exc_type.__mro__)


def timed_loop(
    workload: Workload, pool: list[Case], start_index: int, seconds: float, tracer, probe=None
) -> Timed:
    """Cases in order for ``seconds`` of loop time.

    ``probe``, if given, is called SETUP_PROBES times at evenly spaced
    points of the loop time.  The loop pauses for it, and the pause counts
    neither as loop time nor toward ``seconds``, so the set-up samples span
    the whole run instead of a few seconds of it.
    """
    from argclinic.errors import ArgClinicError

    result = Timed([], [], [], 0.0, [], [])
    is_cli = isinstance(workload, PaperCli)
    due = [seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)] if probe else []
    index = start_index
    paused = 0.0
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began - paused
        if elapsed >= seconds:
            break
        if due and elapsed >= due[0]:
            due.pop(0)
            p0 = time.perf_counter()
            result.setup.append(probe())
            paused += time.perf_counter() - p0
            continue
        case = pool[index % len(pool)]
        if tracer is not NO_TRACE:
            tracer.case = index
        raw = None
        t0 = time.perf_counter()
        try:
            if is_cli:
                raw = workload.run(case, tracer)
            else:
                with case_deadline():
                    raw = workload.run(case, tracer)
            t1 = time.perf_counter()
            outcome = workload.outcome(case, raw)
        except ArgClinicError as exc:
            t1 = time.perf_counter()
            outcome = ("error", error_names(type(exc)))
        except CaseTimeout:
            t1 = time.perf_counter()
            outcome = ("crash", "case did not finish")
        except Exception as exc:  # any other exception is a wrong outcome, not a stop
            t1 = time.perf_counter()
            outcome = ("crash", repr(exc))
        result.indices.append(index % len(pool))
        result.latencies.append(t1 - t0)
        result.outcomes.append(outcome)
        if is_cli and raw is not None:
            result.rss.append(raw[3])
        elif not is_cli and len(result.indices) == RSS_CASES:
            result.rss.append(peak_rss_mb())
        index += 1
    result.wall = time.perf_counter() - began - paused
    for _ in due:  # a last long case can leave probes unrun
        result.setup.append(probe())
    return result


def loop_with_setup(workload: Workload, seed: int, seconds: float, pool, warmup, work: Path) -> Timed:
    """The untraced run: warm up, then the timed loop with set-up probes spread through it."""
    import check  # noqa: F401  (imported here, not by the first outcome inside the loop)
    from argclinic.errors import ArgClinicError

    args = setup_args(workload, seed, work)

    def probe() -> float:
        return float(run_child(args))

    probe()  # primes the bytecode and file caches; not counted
    for case in warmup:
        try:
            workload.run(case, NO_TRACE)
        except ArgClinicError:
            pass
    return timed_loop(workload, pool, 0, seconds, NO_TRACE, probe)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def run_in_child(workload: Workload, seed: int, seconds: float, pool, warmup, work: Path) -> Timed:
    """``loop_with_setup`` in a fresh interpreter that only reads the prepared inputs.

    The child never builds inputs or imports the layers that built them, so
    its peak resident memory is the program's own.
    """
    cases = {
        name: [{"kind": c.kind, "family": c.family, "text": c.text} for c in group]
        for name, group in (("pool", pool), ("warmup", warmup))
    }
    (work / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
    args = [_rel(Path(__file__)), "--workload", workload.name, "--seed", str(seed),
            "--seconds", repr(seconds), "--timed-child", "--work", _rel(work)]
    report = json.loads(run_child(args, timeout=seconds + 2 * CASE_LIMIT_S).splitlines()[-1])
    report["outcomes"] = [_tuples(o) for o in report["outcomes"]]
    return Timed(**report)


def timed_child(workload: Workload, seed: int, seconds: float, work: Path) -> None:
    """Child side of run_in_child: prints the Timed record as JSON."""
    cases = json.loads((work / "cases.json").read_text(encoding="utf-8"))
    pool, warmup = ([Case(**c) for c in cases[name]] for name in ("pool", "warmup"))
    run = loop_with_setup(workload, seed, seconds, pool, warmup, work)
    if not run.rss:  # fewer than RSS_CASES cases ran
        run.rss = [peak_rss_mb()]
    print(json.dumps(run.__dict__))


def check_outcomes(workload: Workload, pool: list[Case], runs: list[Timed]) -> tuple[int, int, list]:
    """(attempted, failed, examples of failures); expected answers only for cases seen."""
    expected: dict[int, tuple] = {}
    attempted = failed = 0
    examples = []
    for run in runs:
        for index, outcome in zip(run.indices, run.outcomes):
            attempted += 1
            if index not in expected:
                expected[index] = workload.expected(pool[index])
            if not workload.verdict(outcome, expected[index]):
                failed += 1
                if len(examples) < 3:
                    examples.append((pool[index].family, str(outcome)[:300], str(expected[index])[:300]))
    return attempted, failed, examples


def layer_metrics(tracer: Tracer, cases: int, measured: dict) -> dict:
    """Per-case means of span self times and counts; ``measured`` overrides."""
    self_times = tracer.self_times()
    values = {}
    for name, _ in PER_LAYER:
        if name in measured:
            values[name] = measured[name]
        elif name.endswith("_ms"):
            values[name] = self_times.get(name[: -len("_ms")], 0.0) * 1000 / cases
        else:
            values[name] = tracer.counts.get(name, 0) / cases
    return values


def write_trace(tracer: Tracer, workload: Workload, seed: int, values: dict) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}-{seed}.json"
    payload = {
        "workload": workload.name,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "case"],
        "spans": tracer.spans,
        "self_seconds": tracer.self_times(),
        "counts": tracer.counts,
        "per_case": values,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--timed-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "argclinic" / "__init__.py").is_file():
        sys.stderr.write("error: run from a checkout root holding src/argclinic\n")
        return 2
    os.environ.pop(SIZE_CAP_ENV, None)
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        setup_probe(workload, args.seed, root / args.work)
        return 0
    if args.timed_child:
        timed_child(workload, args.seed, args.seconds, root / args.work)
        return 0

    import argclinic

    if Path(argclinic.__file__).resolve().parent != (root / "src" / "argclinic").resolve():
        sys.stderr.write(f"error: imported argclinic from {argclinic.__file__}\n")
        return 2

    work = HERE / ".work" / str(os.getpid())
    (work / "warmup").mkdir(parents=True)
    try:
        return _measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: Workload, args, work: Path) -> int:
    from argclinic.aba_core import compute_supports
    from argclinic.errors import ArgClinicError

    pool = workload.prepare(workload.pool(args.seed), work)
    warmup = workload.prepare(workload.warmup(args.seed), work / "warmup")

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {workload.why}")
    print(f"  pool: {len(pool)} inputs, cycled; warm-up: {len(warmup)} from a disjoint stream")

    if args.trace == 0:
        if workload.in_process:
            run = run_in_child(workload, args.seed, args.seconds, pool, warmup, work)
        else:
            run = loop_with_setup(workload, args.seed, args.seconds, pool, warmup, work)
        attempted, failed, examples = check_outcomes(workload, pool, [run])
        lat_ms = [x * 1000 for x in run.latencies]
        rank, beyond, tail_ms = tail(lat_ms)
        metrics = {
            "setup_s": statistics.median(run.setup),
            "case_p50_ms": statistics.median(lat_ms),
            "case_tail_ms": tail_ms,
            "cases_per_s": len(lat_ms) / run.wall,
            "peak_rss_mb": statistics.median(run.rss),
        }
        notes = {
            "setup_s": f"median of {len(run.setup)} fresh interpreters spread through the loop: import + warm-up",
            "case_tail_ms": f"p{100 * rank / len(lat_ms):.1f} of {len(lat_ms)} cases, {beyond} beyond",
            "peak_rss_mb": (
                f"child that ran the loop, after {min(RSS_CASES, len(lat_ms))} cases"
                if workload.in_process else "median over case processes"
            ),
        }
        units = dict(END_TO_END)
    else:
        for case in warmup:
            try:
                workload.run(case, NO_TRACE)
            except ArgClinicError:
                pass
        half = args.seconds / 2
        plain = timed_loop(workload, pool, 0, half, NO_TRACE)
        tracer = Tracer()
        before = compute_supports.cache_info()
        traced = timed_loop(workload, pool, len(plain.indices), half, tracer)
        attempted, failed, examples = check_outcomes(workload, pool, [plain, traced])
        cases = len(traced.indices)
        cli = {
            "cli.interpreter_ms": median_wall_ms(["-c", "pass"], SETUP_PROBES),
            "cli.import_ms": statistics.median(
                float(run_child(["-c", IMPORT_PROBE])) for _ in range(SETUP_PROBES)
            ),
            "cli.process_ms": 0.0,
        }
        if isinstance(workload, PaperCli):
            cli["cli.process_ms"] = statistics.median(traced.latencies) * 1000
            # The CLI's layers run in the child; replay each distinct traced
            # input once in process, layer by layer, to split the compute.
            seen = sorted(set(traced.indices))
            before = compute_supports.cache_info()
            for index in seen:
                tracer.case = index
                case = pool[index]
                try:
                    (solve_aba if "--aba" in case.argv else solve_bundle)(case.text, tracer)
                except ArgClinicError:
                    pass  # invalid inputs; their outcomes were checked above
            cases = len(seen)
        after = compute_supports.cache_info()
        cli["aba_core.supports_cache_hits"] = (after.hits - before.hits) / cases
        cli["aba_core.supports_cache_misses"] = (after.misses - before.misses) / cases
        cli["trace.overhead_ms"] = (
            statistics.median(traced.latencies) - statistics.median(plain.latencies)
        ) * 1000
        metrics = layer_metrics(tracer, cases, cli)
        trace_path = write_trace(tracer, workload, args.seed, metrics)
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(Path.cwd())}")
        notes = {"trace.overhead_ms": "median traced case minus median untraced case"}
        units = dict(PER_LAYER)

    print(f"  cases: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.6g}")
    for family, got, want in examples:
        print(f"  FAILED {family}: got {got} expected {want}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]:6s} {notes.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
