"""Regenerate ``pinned.json``: the outputs ``run.py`` checks at seed 0.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Pins, at :data:`measure.DEFAULT_SEED`, the node-matrix digest and cost
of every batch call and the canonical body digest of each warm serve
key and of the first :data:`PINNED_MISSES` stream misses.  Only rerun
it when a change is meant to alter outputs; the benchmark exists to
notice when they change by accident.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import batch  # noqa: E402
import serve  # noqa: E402
from measure import DEFAULT_SEED, K, body_digest, matrix_digest  # noqa: E402

from repro.core.api import anonymize  # noqa: E402
from repro.datasets.registry import load  # noqa: E402
from repro.serve.service import AnonymizationService  # noqa: E402

#: Misses pinned; a run that serves more checks the rest unpinned.
PINNED_MISSES = 24


def main() -> int:
    pinned: dict = {"seed": DEFAULT_SEED, "batch": {}, "serve": {}}
    for calls in batch.WORKLOADS.values():
        for call in calls:
            table = load(call.dataset, n=call.n, seed=DEFAULT_SEED)
            result = anonymize(
                table, k=K, notion=call.notion, measure=call.measure, distance="d3"
            )
            if not result.verify():
                raise SystemExit(f"{call.name}: output fails its verifier")
            pinned["batch"][call.name] = {
                "digest": matrix_digest(result.node_matrix),
                "cost": result.cost,
            }
    service = AnonymizationService()
    for key, payloads in (
        ("warm", serve.warm_requests(DEFAULT_SEED)),
        ("misses", serve.miss_requests(DEFAULT_SEED, PINNED_MISSES)),
    ):
        digests = []
        for payload in payloads:
            envelope = service.handle(payload)
            if envelope["status"] != "ok":
                raise SystemExit(f"{payload}: {envelope['status']} envelope")
            digests.append(body_digest(envelope["body"]))
        pinned["serve"][key] = digests
    path = Path(__file__).resolve().parent / "pinned.json"
    path.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
