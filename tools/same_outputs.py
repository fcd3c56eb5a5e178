"""One sha256 over what the CLI prints for a fixed sweep of inputs.

Run it from a checkout, once before a change and once after::

    python tools/same_outputs.py [--cases]

Equal hashes mean the change left every output of the sweep as it was.  The
sweep runs ``python -m argclinic.cli`` from the checkout's ``src`` on:

- ``solve`` (text, ``--format json``, ``--quiet``), ``check``, ``explain``
  and ``map`` over the bundle fixtures in ``tests/fixtures``, and the same
  but ``map`` over the programs that ``map`` prints for them;
- the same over 100 ``random_bundle_data`` bundles and, but ``map``, over
  100 ``random_abapg`` programs;
- error inputs: the broken fixture, a missing file, a file that is not
  UTF-8, a syntax error, a flatness violation, a program over the size cap,
  a bad cap variable and a bad ``oracle --count``;
- ``oracle --seed 11 --count 200``.

Each case adds its argv and environment overrides, with paths relative to
the temporary directory, and its exit code, stdout and stderr to the hash.
``--cases`` also prints one digest per case, so two runs can be diffed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
COUNT = 100


def _write_inputs(work: Path) -> tuple[list[str], list[str], list[str]]:
    """The fixture bundles, random bundles and random programs, in ``work``."""
    sys.path.insert(0, str(SRC))
    from argclinic.aba_text import serialize_abapg
    from argclinic.generators import random_abapg, random_bundle_data

    fixtures = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name != "broken.json":
            shutil.copy(path, work / path.name)
            fixtures.append(path.name)
    bundles = []
    rng = random.Random(0)
    for i in range(COUNT):
        bundles.append(f"bundle_{i:03}.json")
        (work / bundles[-1]).write_text(json.dumps(random_bundle_data(rng), indent=1))
    programs = []
    rng = random.Random(1)
    for i in range(COUNT):
        programs.append(f"program_{i:03}.aba")
        (work / programs[-1]).write_text(serialize_abapg(random_abapg(rng)))
    return fixtures, bundles, programs


def _error_cases(work: Path) -> list[tuple[list[str], dict]]:
    shutil.copy(FIXTURES / "broken.json", work / "broken.json")
    (work / "latin1.aba").write_bytes("assumption(\xe9).\n".encode("latin-1"))
    (work / "syntax.aba").write_text("assumption(a).\nrule(p, [a).\n")
    (work / "flat.aba").write_text("assumption(a).\nrule(a, []).\n")
    (work / "big.aba").write_text(
        "".join(f"assumption(a{i}).\ncontrary(a{i}, c{i}).\n" for i in range(25))
    )
    cases: list[tuple[list[str], dict]] = [
        ([command, "--bundle", "broken.json"], {})
        for command in ("solve", "check", "explain", "map")
    ]
    cases += [
        (["solve", "--aba", "missing.aba"], {}),
        (["check", "--aba", "latin1.aba"], {}),
        (["solve", "--aba", "syntax.aba"], {}),
        (["check", "--aba", "flat.aba"], {}),
        (["solve", "--aba", "big.aba"], {}),
        (["solve", "--aba", "big.aba"], {"ARGCLINIC_MAX_ASSUMPTIONS": "many"}),
        (["oracle", "--count", "0"], {}),
    ]
    return cases


def _cases(work: Path) -> list[tuple[list[str], dict]]:
    fixtures, bundles, programs = _write_inputs(work)
    mapped = []
    for bundle in fixtures:
        mapped.append(bundle.replace(".json", ".aba"))
        (work / mapped[-1]).write_text(_run(work, ["map", "--bundle", bundle], {})[1])
    cases = []
    for kind, paths in (("--bundle", fixtures + bundles), ("--aba", mapped + programs)):
        for path in paths:
            cases += [
                (["solve", kind, path], {}),
                (["solve", kind, path, "--format", "json"], {}),
                (["solve", kind, path, "--quiet"], {}),
                (["check", kind, path], {}),
                (["explain", kind, path], {}),
            ]
            if kind == "--bundle":
                cases.append((["map", kind, path], {}))
    cases += _error_cases(work)
    cases.append((["oracle", "--seed", "11", "--count", "200"], {}))
    return cases


def _run(work: Path, argv: list[str], extra: dict) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ARGCLINIC_MAX_ASSUMPTIONS"}
    env.update(extra, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "argclinic.cli", *argv],
        cwd=work, env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", action="store_true", help="print one digest per case")
    args = parser.parse_args()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cases = _cases(work)
        for argv, extra in cases:
            code, out, err = _run(work, argv, extra)
            record = json.dumps([argv, extra, code, out, err]).replace(tmp, "$TMP")
            total.update(record.encode() + b"\n")
            if args.cases:
                digest = hashlib.sha256(record.encode()).hexdigest()[:16]
                print(digest, code, " ".join(argv), extra or "")
    print(f"{total.hexdigest()}  {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
