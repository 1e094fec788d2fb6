"""Race scans on DPOR graphs against race scans on unreduced graphs.

For every program of the ``explore`` pool of ``perfbench`` (litmus
suite, example files, seeded ``p2x5``/``t3x4`` programs, each under its
own promise budget) and every distinct source and target of the
``validate-explore`` pool, this builds the ``por="none"`` and the
``por="dpor"`` graph, scans each with :func:`repro.races.scan_races`,
and compares the write-write and read-write ``(tid, loc)`` sets.

Usage::

    python benchmarks/scan_differential.py [--pool explore|validate-explore|all]

Exit status 1 on any mismatch or truncated graph, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import corpus  # noqa: E402
from repro.races import scan_races  # noqa: E402
from repro.semantics.exploration import Explorer  # noqa: E402
from repro.semantics.thread import SemanticsConfig  # noqa: E402


def explore_subjects() -> Iterator[Tuple[str, object, SemanticsConfig]]:
    for pid in corpus.pool("explore"):
        subject = corpus.load_subject(pid)
        yield pid, subject.program, subject.spec.config()


def validate_subjects() -> Iterator[Tuple[str, object, SemanticsConfig]]:
    """Each distinct source and optimizer output, under the validation
    config (no promises)."""
    seen = set()
    for item in corpus.pool("validate-explore"):
        pid, opt = corpus.split_item(item)
        source = corpus.load_subject(pid).program
        for label, program in ((pid, source), (item, corpus.make_optimizer(opt).run(source))):
            if program not in seen:
                seen.add(program)
                yield label, program, SemanticsConfig()


def race_sets(program, config: SemanticsConfig, por: str):
    start = time.perf_counter()
    explorer = Explorer(program, replace(config, por=por)).build()
    ww, rw = scan_races(program, explorer)
    elapsed = time.perf_counter() - start
    pairs = ({(w.tid, w.loc) for w in ww}, {(w.tid, w.loc) for w in rw})
    return pairs, explorer.exhaustive, len(explorer.states), elapsed


def run(name: str, subjects) -> int:
    totals: Dict[str, List[float]] = {"none": [0, 0.0], "dpor": [0, 0.0]}
    programs = ww_racy = rw_racy = 0
    bad: List[str] = []
    for label, program, config in subjects:
        programs += 1
        answers = {}
        for por in ("none", "dpor"):
            sets, exhaustive, states, elapsed = race_sets(program, config, por)
            totals[por][0] += states
            totals[por][1] += elapsed
            if not exhaustive:
                bad.append(f"TRUNCATED {label} ({por})")
            answers[por] = sets
        if answers["none"] != answers["dpor"]:
            bad.append(f"MISMATCH {label}: none {answers['none']} dpor {answers['dpor']}")
        ww_racy += bool(answers["none"][0])
        rw_racy += bool(answers["none"][1])
    for line in bad:
        print(line)
    print(
        f"{name}: {programs} programs, {ww_racy} ww-racy, {rw_racy} rw-racy, "
        f"{len(bad)} mismatches/truncations; "
        f"none {totals['none'][0]} states {totals['none'][1]:.2f} s, "
        f"dpor {totals['dpor'][0]} states {totals['dpor'][1]:.2f} s"
    )
    return len(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=("explore", "validate-explore", "all"), default="all")
    args = parser.parse_args(argv)
    failures = 0
    if args.pool in ("validate-explore", "all"):
        failures += run("validate-explore", validate_subjects())
    if args.pool in ("explore", "all"):
        failures += run("explore", explore_subjects())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
