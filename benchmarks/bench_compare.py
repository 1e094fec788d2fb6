"""Compare the latest BENCH.json rows against the previous PR's.

``BENCH.json`` is an append-only trajectory: each PR re-runs the
benchmark families and appends one json line per (experiment, family)
with its ``pr`` number.  This script groups the rows by
``(experiment, family)``, takes the two highest PR numbers present for
each group, and flags regressions:

* a ``dpor_states`` (or ``states``) increase of more than the threshold
  (default 20%) fails — state counts are deterministic, so any growth is
  a real reduction regression, with the threshold absorbing benign
  bookkeeping drift;
* a family present in the previous PR but missing from the latest is
  reported (benchmarks should not silently disappear);
* within each family's latest row, "fewer states, more time" fails:
  ``dpor_states < none_states`` with ``dpor_secs`` above
  :data:`CLOCK_FACTOR` times ``none_secs``.  Both timings come from
  the same run on the same machine, so no cross-machine comparison is
  made; rows with ``none_secs`` under :data:`MIN_NONE_SECS` are too
  short to time and are not judged.  Timings are never compared across
  PRs (CI machines differ too much).

Usage::

    python benchmarks/bench_compare.py [--bench FILE] [--threshold PCT]

Exit status 1 on any regression, 0 otherwise.  With fewer than two PRs
of history for every family the script passes trivially (the seed PR has
nothing to compare against).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

#: Columns that measure exploration size: deterministic, gate-worthy.
STATE_COLUMNS = ("dpor_states", "none_states", "states")

#: A row where dpor explores fewer states than the unreduced explorer
#: fails when dpor takes more than this many times its seconds.
CLOCK_FACTOR = 1.25
#: Rows whose unreduced run is shorter than this (seconds) are not judged.
MIN_NONE_SECS = 0.05
_CLOCK_COLUMNS = ("dpor_states", "none_states", "dpor_secs", "none_secs")


def load_rows(path: str) -> List[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def group_rows(rows: List[dict]) -> Dict[Tuple[str, str], Dict[int, dict]]:
    """``{(experiment, family): {pr: row}}`` — the latest row wins when a
    PR re-recorded the same family."""
    groups: Dict[Tuple[str, str], Dict[int, dict]] = {}
    for row in rows:
        key = (row.get("experiment", "?"), row.get("family", ""))
        groups.setdefault(key, {})[int(row.get("pr", 0))] = row
    return groups


def compare(
    groups: Dict[Tuple[str, str], Dict[int, dict]], threshold: float
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, notes)."""
    regressions: List[str] = []
    notes: List[str] = []
    latest_pr = max((pr for prs in groups.values() for pr in prs), default=0)
    for (experiment, family), prs in sorted(groups.items()):
        label = f"{experiment}/{family}" if family else experiment
        history = sorted(prs)
        if history[-1] != latest_pr:
            notes.append(
                f"MISSING {label}: last recorded by PR {history[-1]}, "
                f"latest PR is {latest_pr}"
            )
            continue
        if len(history) < 2:
            notes.append(f"NEW {label}: first recorded by PR {history[-1]}")
            continue
        prev, cur = prs[history[-2]], prs[history[-1]]
        for column in STATE_COLUMNS:
            if column not in prev or column not in cur:
                continue
            before, after = prev[column], cur[column]
            if before and after > before * (1 + threshold / 100.0):
                regressions.append(
                    f"REGRESSION {label}.{column}: {before} -> {after} "
                    f"(+{(after / before - 1) * 100:.1f}% > {threshold:.0f}%)"
                )
            else:
                notes.append(
                    f"ok {label}.{column}: {before} -> {after}"
                )
            break  # gate each family on its primary state column only
    return regressions, notes


def clock_inversions(groups: Dict[Tuple[str, str], Dict[int, dict]]) -> List[str]:
    """Families whose latest row explores fewer states under dpor than
    under ``none`` but takes more than ``CLOCK_FACTOR`` times as long."""
    found: List[str] = []
    for (experiment, family), prs in sorted(groups.items()):
        row = prs[max(prs)]
        if any(column not in row for column in _CLOCK_COLUMNS):
            continue
        if row["none_secs"] < MIN_NONE_SECS:
            continue
        if (
            row["dpor_states"] < row["none_states"]
            and row["dpor_secs"] > CLOCK_FACTOR * row["none_secs"]
        ):
            label = f"{experiment}/{family}" if family else experiment
            found.append(
                f"SLOWER {label} (PR {max(prs)}): dpor {row['dpor_secs']}s for "
                f"{row['dpor_states']} states > {CLOCK_FACTOR}x none's "
                f"{row['none_secs']}s for {row['none_states']}"
            )
    return found


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCH.json",
                        help="path to the BENCH json-lines file")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="allowed state-count growth in percent")
    args = parser.parse_args(argv)
    try:
        rows = load_rows(args.bench)
    except OSError as exc:
        print(f"bench-compare: cannot read {args.bench}: {exc}")
        return 1
    if not rows:
        print(f"bench-compare: {args.bench} is empty; nothing to compare")
        return 0
    groups = group_rows(rows)
    regressions, notes = compare(groups, args.threshold)
    regressions += clock_inversions(groups)
    for note in notes:
        print(f"bench-compare: {note}")
    for regression in regressions:
        print(f"bench-compare: {regression}")
    if regressions:
        print(f"bench-compare: {len(regressions)} regression(s)")
        return 1
    print("bench-compare: no state-count regressions, no clock inversions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
