"""Regenerate or self-check the benchmark's golden answers.

    python3 perfbench/goldens.py regenerate [--workload W ...]
    python3 perfbench/goldens.py check [--workload W ...]

``regenerate`` computes every pool input's answer with the reference
oracle (``por="none"``, pure exploration, no static tier), then runs the
default engine on the same input, records its wall time as the input's
``cost`` (used only to stratify seeded samples) and reports where the two
engines disagree.  ``check`` re-runs the default engine against the
stored goldens without rewriting them.  Both exit non-zero on any
disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import corpus  # noqa: E402
from repro.perf.intern import clear_interners  # noqa: E402

WORKLOADS = ("explore", "validate-static", "validate-explore")


def _timed(fn):
    clear_interners()
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _oracle(workload: str, subject: corpus.Subject, opt):
    if workload == "explore":
        return corpus.answer(workload, corpus.run(workload, subject, opt, corpus.ORACLE_POR))
    return corpus.oracle_validation(subject, opt)


def sweep(workload: str, items, oracle_of) -> tuple:
    """Run the default engine on ``items``; ``oracle_of(item, subject)``
    gives the reference answer.  Returns ``(entries, disagreements)``."""
    subjects: dict = {}
    entries = {}
    wrong = 0
    for item in items:
        pid, opt = corpus.split_item(item)
        if pid not in subjects:
            subjects[pid] = corpus.load_subject(pid)
        subject = subjects[pid]
        oracle = oracle_of(item, subject)
        raw, default_s = _timed(
            lambda: corpus.run(workload, subject, opt, corpus.DEFAULT_POR)
        )
        bad = corpus.mismatches(workload, corpus.answer(workload, raw), oracle)
        if bad:
            wrong += 1
            print(f"DISAGREE {workload} {item}: {bad}", flush=True)
        entries[item] = dict(oracle, cost=round(default_s * 1000, 3))
    print(f"{workload}: {len(entries)} inputs, {wrong} disagreements", flush=True)
    return entries, wrong


def regenerate(workload: str, goldens: dict) -> int:
    def oracle_of(item, subject):
        answer, oracle_s = _timed(lambda: _oracle(workload, subject, corpus.split_item(item)[1]))
        if not answer["proved"]:
            raise SystemExit(f"{workload} {item}: the oracle run was not exhaustive")
        return dict(answer, oracle_ms=round(oracle_s * 1000, 3))

    goldens[workload], wrong = sweep(workload, corpus.pool(workload), oracle_of)
    return wrong


def check(workload: str, goldens: dict) -> int:
    stored = goldens[workload]
    return sweep(workload, stored, lambda item, subject: stored[item])[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("regenerate", "check"))
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--goldens", type=Path, default=corpus.GOLDENS_PATH)
    args = parser.parse_args()
    goldens = corpus.load_goldens(args.goldens) if args.goldens.exists() else {}
    wrong = 0
    for workload in args.workload or WORKLOADS:
        if args.mode == "check":
            wrong += check(workload, goldens)
            continue
        wrong += regenerate(workload, goldens)
        goldens["oracle"] = f"por={corpus.ORACLE_POR}"
        goldens["engine"] = f"por={corpus.DEFAULT_POR}"
        with open(args.goldens, "w") as handle:
            json.dump(goldens, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
