"""Recompute the committed reference digests (``digests.json``).

Runs the reference path (bound pruning and incremental simulation off)
for every configuration's core and pool seeds, and writes the digests to
``digests.json``.  Only needed after a change that legitimately alters
tuning results.

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tunes import DIGESTS_PATH, digest_key, report_digest, resolve_configs, tune  # noqa: E402
from workloads import CORE_PER_CONFIG, CORE_SEEDS, SEED_POOL, TUNE_WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digests = {}
    for workload in sorted(TUNE_WORKLOADS):
        seeds = CORE_SEEDS[: CORE_PER_CONFIG[workload]] + SEED_POOL
        for config in resolve_configs(workload):
            for seed in seeds:
                key = digest_key(config, seed)
                digests[key] = report_digest(tune(config, seed, reference=True))
                print(key, digests[key][:16], flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
