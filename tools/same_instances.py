"""One sha256 over the instances the random generators draw for fixed seeds.

Run it from a checkout, once before a change and once after::

    python tools/same_instances.py

It imports the ``src`` of the checkout it sits in.

Criteria 3-6 and the mapper and oracle suites draw their data from
``argclinic.generators``, so a generator change that alters a draw changes
what those tests check without any test failing.  Equal hashes mean every
draw is as it was.  For each seed ``s`` in ``0..2999`` the hash takes, each
from a fresh ``random.Random(s)``:

- ``serialize_framework`` of ``random_framework``;
- ``serialize_abapg`` of ``random_abapg``;
- ``serialize_bundle`` of a ``random_tmr_instance`` draw, plain and with
  ``total_preference`` and ``require_cf_maximal`` (the criterion-4 flags);
- ``random_bundle_data``, as JSON with sorted keys.

The texts are canonical, so the hash does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = 3000


def _texts(seed: int):
    from argclinic.aba_text import serialize_abapg, serialize_framework
    from argclinic.bundle import GuidelineBundle, serialize_bundle
    from argclinic.generators import (
        random_abapg,
        random_bundle_data,
        random_framework,
        random_tmr_instance,
    )

    yield serialize_framework(random_framework(random.Random(seed)))
    yield serialize_abapg(random_abapg(random.Random(seed)))
    for flags in ({}, {"total_preference": True, "require_cf_maximal": True}):
        recommendations, interactions, context = random_tmr_instance(random.Random(seed), **flags)
        yield serialize_bundle(
            GuidelineBundle(tuple(recommendations), tuple(interactions), context)
        )
    yield json.dumps(random_bundle_data(random.Random(seed)), sort_keys=True)


def main() -> int:
    sys.path.insert(0, str(SRC))
    total = hashlib.sha256()
    for seed in range(SEEDS):
        for text in _texts(seed):
            total.update(text.encode() + b"\n")
    print(f"{total.hexdigest()}  {SEEDS} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
