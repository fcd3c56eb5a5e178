"""Tests of the benchmark itself: frozen inputs and a checker that rejects.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import families  # noqa: E402
import run  # noqa: E402
from argclinic.aba_core import validate_framework  # noqa: E402
from argclinic.aba_goals import validate_abapg  # noqa: E402
from argclinic.aba_text import parse_aba_text  # noqa: E402
from argclinic.bundle import parse_bundle  # noqa: E402
from argclinic.mapper import build_patient_framework  # noqa: E402
from argclinic.oracle import brute_force_preferred, brute_force_top_goals  # noqa: E402

DIGEST = (
    "import hashlib, sys; sys.path[:0] = ['bench', 'src']; import run\n"
    "h = hashlib.sha256()\n"
    "for w in sorted(run.WORKLOADS):\n"
    "    workload = run.WORKLOADS[w]\n"
    "    for case in workload.warmup(int(sys.argv[1])) + workload.pool(int(sys.argv[1])):\n"
    "        h.update(repr((case.family, case.text, case.argv, case.closed)).encode())\n"
    "print(h.hexdigest())\n"
)


def _digest(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", DIGEST, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def test_same_seed_gives_byte_identical_inputs_across_interpreters():
    # Different string-hash seeds catch any dependence on set iteration order.
    assert _digest(7, "1") == _digest(7, "2")
    assert _digest(7, "1") != _digest(8, "1")


def test_warmup_and_pool_are_disjoint_and_pools_distinct():
    # paper_cli is exempt: every case is a fresh process with empty caches.
    for workload in run.WORKLOADS.values():
        if workload.distinct:
            warmup, pool = workload.warmup(3), workload.pool(3)
            assert not {c.text for c in warmup} & {c.text for c in pool}
            assert len({c.text for c in pool}) == len(pool) > 256


def _framework(text: str):
    program = parse_aba_text(text)
    base = validate_framework(program.raw)
    goals = validate_abapg(base, program.goals, program.priorities) if program.has_goals else None
    return base, goals


def _names(extensions):
    return tuple(sorted(check.names(e) for e in extensions))


@pytest.mark.parametrize("n_x,m,n_y,n_yp", [(4, 2, 1, 0), (4, 3, 2, 1), (5, 3, 2, 2), (3, 3, 1, 1)])
def test_threshold_closed_form_matches_oracle(n_x, m, n_y, n_yp):
    program = families._Program()
    assumptions, answer = families.threshold_core(program, "t", n_x, m, n_y, n_yp)
    base, _ = _framework(program.text())
    assert _names(brute_force_preferred(base)) == answer


@pytest.mark.parametrize("n,pairs", [(6, 1), (7, 3)])
def test_attacked_pairs_have_the_one_extension_without_the_attacked(n, pairs):
    instance = families.attacked_pairs(random.Random(1), n, pairs)
    base, _ = _framework(instance.text)
    attacked = {a for pair, ((attacker,),) in instance.closed for a in pair if a != attacker}
    kept = tuple(a for a in check.names(base.assumptions) if a not in attacked)
    assert len(attacked) == pairs and len(kept) == n - pairs
    assert _names(brute_force_preferred(base)) == (kept,)
    assert check.expected_preferred(base, instance.closed) == (kept,)


@pytest.mark.parametrize("instance", [
    families.attacked_pairs(random.Random(2), 15, 1),
    families.attacked_pairs(random.Random(2), 16, 8),
    families.dense_supports(random.Random(2), 10, 4, 1, 1, 2),
    families.dense_supports(random.Random(3), 12, 5, 1, 0, 1),
])
def test_closed_forms_answer_a_whole_component(instance):
    # A closed form keyed by anything but a component would never be used,
    # and the oracle would silently answer in its place.
    base, _ = _framework(instance.text)
    parts = {check.names(c) for c in check.components(base)}
    for key, _ in instance.closed:
        assert key in parts


def test_component_split_agrees_with_whole_oracle():
    rng = random.Random(5)
    frameworks = []
    for _ in range(12):
        frameworks.append(_framework(families.sparse_blocks(rng, rng.randint(5, 7)).text))
        bundle = parse_bundle(families.small_bundle(rng).text)
        goal_framework, _ = build_patient_framework(
            bundle.recommendations, bundle.interactions, bundle.context
        )
        frameworks.append((goal_framework.base, goal_framework))
    frameworks.append(_framework(families.dense_supports(rng, 4, 2, 1, 1, 2).text))
    for base, goals in frameworks:
        preferred = check.expected_preferred(base)
        assert preferred == _names(brute_force_preferred(base))
        if goals is not None:
            assert check.expected_top(goals, preferred) == check.top_of(brute_force_top_goals(goals))


def test_checker_rejects_a_wrong_answer():
    workload = run.WORKLOADS["ward_batch"]
    case = next(c for c in workload.pool(1) if c.family == "ward_valid")
    expected = workload.expected(case)
    preferred, top, follow = expected[1]
    assert workload.verdict(expected, expected)
    assert not workload.verdict(("ok", (preferred[1:], top, follow)), expected)
    assert not workload.verdict(("ok", (preferred + (("r99",),), top, follow)), expected)
    fixture = workload.expected(next(c for c in workload.fixed_cases() if c.fixture == "patient_a.json"))
    assert not workload.verdict(("ok", (fixture[1][0], fixture[1][1], (("r4", "r8"),))), fixture)


def test_checker_rejects_a_wrong_error():
    workload = run.WORKLOADS["ward_batch"]
    from argclinic.errors import IncompatibleState, SchemaError

    assert workload.verdict(("error", run.error_names(IncompatibleState)), ("error", "IncompatibleContext"))
    assert not workload.verdict(("error", run.error_names(SchemaError)), ("error", "IncompatibleContext"))
    assert not workload.verdict(("crash", "KeyError('x')"), ("error", "SchemaError"))


def test_checker_rejects_a_wrong_exit_code_or_traceback():
    cli = run.WORKLOADS["paper_cli"]
    case = run.Case("cli", "small_schema_invalid", error="SchemaError", argv=("check", "--bundle", "x"))
    expected = cli.expected(case)
    assert expected == ("error", 2)
    assert cli.verdict(cli.outcome(case, (2, "", "error: /: bad\n", 0.0)), expected)
    assert not cli.verdict(cli.outcome(case, (1, "", "error: /: bad\n", 0.0)), expected)
    assert not cli.verdict(cli.outcome(case, (0, "ok\n", "", 0.0)), expected)
    traceback = "Traceback (most recent call last):\n  ...\nKeyError: 'x'\n"
    assert not cli.verdict(cli.outcome(case, (2, "", traceback, 0.0)), expected)


def test_cli_text_and_json_readers_agree_on_a_fixture():
    done = [
        subprocess.run(
            [sys.executable, "-m", "argclinic.cli", "solve", "--bundle",
             str(HERE / "fixtures" / "patient_a.json"), *fmt],
            cwd=ROOT, env=run.child_env(), capture_output=True, text=True, check=True,
        ).stdout
        for fmt in ((), ("--format", "json"))
    ]
    expected = check.FIXTURE_ANSWERS["patient_a.json"]
    assert check.parse_cli_text(done[0]) == expected
    assert check.parse_cli_json(done[1]) == expected

