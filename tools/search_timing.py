"""Best-of-5 wall times of the preferred-extension search on fixed inputs.

Run it from a checkout, once before a change and once after::

    python tools/search_timing.py

A group's time is the best of five passes of ``preferred_extensions`` over
its frameworks, which are built before any timing.  The support and
attack-table caches are cleared before each pass, so every pass computes
supports and tables afresh.  The groups are:

- ``draws``: ``random_framework(Random(s), max_assumptions=20)`` for the 300
  seeds ``s < 300``;
- ``seed 211``: the slowest of those draws, alone;
- ``linked k=9``: nine pairs ``a_i``/``b_i`` that attack each other and one
  ``z`` whose contrary needs every ``a_i`` (one part, 512 extensions);
- ``search_sparse`` and ``support_dense``: the pools of ``bench/run.py`` for
  seed 1, prepared as the benchmark prepares them.

The last line is one sha256 over the sorted extensions of every framework,
so equal hashes mean the two checkouts gave the same answers.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRAWS = 300
PASSES = 5
POOL_SEED = 1


def _linked_pairs(k: int):
    from argclinic import RawFramework, validate_framework

    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    return validate_framework(RawFramework.of(
        [(f"na{i}", [b[i]]) for i in range(k)]
        + [(f"nb{i}", [a[i]]) for i in range(k)]
        + [("nz", a)],
        a + b + ["z"],
        [(x, f"n{x}") for x in a + b + ["z"]],
    ))


def _groups() -> list[tuple[str, list]]:
    from argclinic import parse_aba_text, validate_framework
    from argclinic.generators import random_framework

    # the benchmark's own pools, so these times follow its inputs
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    groups = [
        ("draws", [random_framework(random.Random(s), max_assumptions=20) for s in range(DRAWS)]),
        ("seed 211", [random_framework(random.Random(211), max_assumptions=20)]),
        ("linked k=9", [_linked_pairs(9)]),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (bench.SearchSparse(), bench.SupportDense()):
            cases = workload.prepare(workload.pool(POOL_SEED), Path(tmp))
            frameworks = [validate_framework(parse_aba_text(c.text).raw) for c in cases]
            groups.append((workload.name, frameworks))
    return groups


def main() -> int:
    sys.path.insert(0, str(SRC))
    from argclinic.aba_core import _attack_tables, compute_supports, preferred_extensions

    total = hashlib.sha256()
    for name, frameworks in _groups():
        best = float("inf")
        for _ in range(PASSES):
            compute_supports.cache_clear()
            _attack_tables.cache_clear()
            start = time.perf_counter()
            answers = [preferred_extensions(f) for f in frameworks]
            best = min(best, time.perf_counter() - start)
        for extensions in answers:
            total.update(repr([sorted(s.symbol for s in e) for e in extensions]).encode() + b"\n")
        print(f"{name:<14} {len(frameworks):>4} frameworks  {best * 1000:9.1f} ms")
    print(f"{total.hexdigest()}  sorted extensions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
