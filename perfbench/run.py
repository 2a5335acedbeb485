"""Repository benchmark: the paper's workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adt-k --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload once plainly and once traced and
prints every per-layer metric.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the run's context and details.
Exits with code 2, printing no result, when the checkout holds no
``src/repro`` to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adt-k", "cmc-art-g1k", "serve-repeat")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def _measure(args: argparse.Namespace) -> tuple[Any, dict[str, float], dict[str, Any]]:
    """Run the workload; (tally, metrics, detail)."""
    import batch
    import serve
    from measure import Tally, load_pinned, peak_rss_mb

    pinned = load_pinned()
    tally = Tally()
    metrics: dict[str, float]
    if args.workload == "serve-repeat":
        if args.trace:
            metrics, detail = serve.run_traced(args.seed, args.seconds, pinned, tally)
        else:
            setup_s, rig = serve.setup(args.seed, pinned, tally)
            try:
                run = serve.stream(rig, args.seed, args.seconds, pinned, tally)
            finally:
                rig.close()
            metrics = serve.stream_metrics(run)
            metrics["setup_s"] = setup_s
            detail = serve.stream_detail(run)
    else:
        setup_s, tables = batch.setup(args.workload, args.seed)
        if args.trace:
            metrics, detail = batch.run_traced(
                args.workload, tables, args.seed, pinned, tally
            )
        else:
            metrics, detail = batch.run_plain(
                args.workload, tables, args.seed, args.seconds, pinned, tally
            )
            metrics["setup_s"] = setup_s
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    detail["failures"] = tally.failures
    return tally, metrics, detail


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import run_context

    from repro.core.backend import resolve_backend

    print("# context " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, **run_context(resolve_backend(None))},
        sort_keys=True))
    tally, metrics, detail = _measure(args)
    print("# detail " + json.dumps(detail, sort_keys=True, default=str))
    declared = _declared(args.trace)
    if args.trace:
        # A layer the workload never enters reports 0 (e.g. agglomerative
        # time on cmc-art-g1k), so each workload prints every metric.
        metrics = {**{name: 0.0 for name in declared}, **metrics}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
