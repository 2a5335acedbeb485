"""Regression comparison of bench reports against a committed baseline.

Two classes of check, with different trust levels:

* **case timings** are machine-dependent — a CI runner is not the
  laptop that produced the baseline — so a slowdown beyond the
  threshold is reported as a *warning* by default and only fails the
  run under ``enforce``.
* **pair speedups** (optimized vs reference implementation, measured in
  the same process) are ratios and therefore portable: an optimization
  that stops being faster than its kept reference is a real regression
  wherever it is measured, and additionally each pair may carry a
  floor (``MIN_PAIR_SPEEDUPS``) the optimization must keep clearing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.perf.bench import BENCH_SCHEMA, BENCH_SCHEMA_V1, BenchReport

#: Schemas the comparator accepts: current plus the pre-metrics v1
#: layout (committed baselines are never rewritten retroactively).
ACCEPTED_SCHEMAS = (BENCH_SCHEMA, BENCH_SCHEMA_V1)

#: Default relative slowdown tolerated before a case/pair is flagged.
DEFAULT_THRESHOLD = 0.5

#: Machine-independent floors: each optimization must stay at least
#: this much faster than its kept reference implementation.
MIN_PAIR_SPEEDUPS: dict[str, float] = {
    "entropy-entry-costs": 1.5,
}

_BASELINE_PATTERN = re.compile(r"^BENCH_[0-9A-Za-z._-]+\.json$")


@dataclass(frozen=True)
class ComparisonFinding:
    """One comparator observation."""

    kind: str  #: "case", "pair" or "schema"
    name: str
    detail: str
    regression: bool  #: True = fails in enforce mode

    def __str__(self) -> str:
        tag = "REGRESSION" if self.regression else "warn"
        return f"[{tag}] {self.kind} {self.name}: {self.detail}"


def load_report(path: str | Path) -> BenchReport:
    """Load and schema-check one ``BENCH_*.json`` file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}") from exc
    return report_from_json(data, source=str(path))


def report_from_json(data: Any, source: str = "<memory>") -> BenchReport:
    """Validate a JSON payload against :data:`ACCEPTED_SCHEMAS`.

    v1 reports simply have no ``metrics`` key; every field the
    comparator reads is identical across the two versions.
    """
    if not isinstance(data, dict):
        raise ReproError(f"bench report {source} is not a JSON object")
    schema = data.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        raise ReproError(
            f"bench report {source} has schema {schema!r}, expected one of "
            f"{list(ACCEPTED_SCHEMAS)!r}"
        )
    for field_name in ("stamp", "repeat", "machine", "git_sha", "cases", "pairs"):
        if field_name not in data:
            raise ReproError(
                f"bench report {source} is missing field {field_name!r}"
            )
    cases = data["cases"]
    pairs = data["pairs"]
    if not isinstance(cases, list) or not isinstance(pairs, list):
        raise ReproError(f"bench report {source}: cases/pairs must be lists")
    for entry in cases:
        for key in ("name", "group", "seconds", "median"):
            if key not in entry:
                raise ReproError(
                    f"bench report {source}: case entry missing {key!r}"
                )
    for entry in pairs:
        for key in ("name", "speedup"):
            if key not in entry:
                raise ReproError(
                    f"bench report {source}: pair entry missing {key!r}"
                )
    return BenchReport(
        stamp=str(data["stamp"]),
        quick=bool(data.get("quick", False)),
        repeat=int(data["repeat"]),
        machine=dict(data["machine"]),
        git_sha=str(data["git_sha"]),
        cases=list(cases),
        pairs=list(pairs),
        metrics=data.get("metrics"),
    )


def find_baseline(root: str | Path = ".") -> Path | None:
    """The newest committed ``BENCH_<stamp>.json`` under ``root``.

    Stamps sort lexicographically (ISO dates), so the maximum filename
    is the latest baseline; ``None`` when no baseline exists yet.
    """
    root = Path(root)
    candidates = [
        p for p in root.glob("BENCH_*.json") if _BASELINE_PATTERN.match(p.name)
    ]
    return max(candidates, key=lambda p: p.name) if candidates else None


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[ComparisonFinding]:
    """All findings of ``current`` measured against ``baseline``.

    Case medians are compared name-by-name (cases present in only one
    report are noted, never failed — grids legitimately change);
    pair speedups are compared against both the baseline's pair and the
    static :data:`MIN_PAIR_SPEEDUPS` floors.
    """
    if threshold <= 0:
        raise ReproError(f"threshold must be positive, got {threshold}")
    findings: list[ComparisonFinding] = []

    base_cases = {entry["name"]: entry for entry in baseline.cases}
    for entry in current.cases:
        base = base_cases.get(entry["name"])
        if base is None:
            findings.append(
                ComparisonFinding(
                    "case", entry["name"], "not in baseline (new case)", False
                )
            )
            continue
        if base["median"] <= 0:
            continue
        rel = entry["median"] / base["median"] - 1.0
        if rel > threshold:
            findings.append(
                ComparisonFinding(
                    "case",
                    entry["name"],
                    f"median {entry['median']:.4f}s is {rel:+.0%} vs baseline "
                    f"{base['median']:.4f}s (threshold {threshold:.0%}; "
                    "machine-dependent)",
                    False,
                )
            )

    base_pairs = {entry["name"]: entry for entry in baseline.pairs}
    for entry in current.pairs:
        speedup = float(entry["speedup"])
        floor = MIN_PAIR_SPEEDUPS.get(entry["name"])
        if speedup < 1.0:
            findings.append(
                ComparisonFinding(
                    "pair",
                    entry["name"],
                    f"optimized path is slower than its reference "
                    f"(speedup {speedup:.2f}x < 1.0x)",
                    True,
                )
            )
        elif floor is not None and speedup < floor:
            findings.append(
                ComparisonFinding(
                    "pair",
                    entry["name"],
                    f"speedup {speedup:.2f}x fell below the required "
                    f"{floor:.1f}x floor",
                    True,
                )
            )
        base = base_pairs.get(entry["name"])
        if base is not None and float(base["speedup"]) > 0:
            rel = speedup / float(base["speedup"]) - 1.0
            if rel < -threshold:
                findings.append(
                    ComparisonFinding(
                        "pair",
                        entry["name"],
                        f"speedup {speedup:.2f}x is {rel:+.0%} vs baseline "
                        f"{float(base['speedup']):.2f}x",
                        True,
                    )
                )
    return findings


def has_regressions(findings: list[ComparisonFinding]) -> bool:
    """Whether any finding fails in enforce mode."""
    return any(f.regression for f in findings)
