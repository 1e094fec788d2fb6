"""The BENCH.json trajectory gate (``benchmarks/bench_compare.py``): its
within-row seconds check fails "fewer states, more time" and nothing else."""

from benchmarks.bench_compare import clock_inversions, group_rows


def _row(pr, dpor_states, dpor_secs, none_states=100, none_secs=0.4, family="f"):
    return {
        "pr": pr, "experiment": "por", "family": family,
        "dpor_states": dpor_states, "dpor_secs": dpor_secs,
        "none_states": none_states, "none_secs": none_secs,
    }


def test_fewer_states_in_more_time_fails():
    found = clock_inversions(group_rows([_row(1, 50, 0.51)]))
    assert len(found) == 1 and "por/f" in found[0]


def test_within_margin_or_more_states_or_short_rows_pass():
    rows = [
        _row(1, 50, 0.5, family="margin"),  # exactly 1.25x
        _row(1, 150, 0.9, family="more-states"),
        _row(1, 50, 0.09, none_secs=0.04, family="short"),
    ]
    assert clock_inversions(group_rows(rows)) == []


def test_only_the_latest_row_is_judged():
    rows = [_row(1, 50, 0.9), _row(2, 50, 0.3)]
    assert clock_inversions(group_rows(rows)) == []
    assert clock_inversions(group_rows(rows[::-1] + [_row(3, 50, 0.9)]))
