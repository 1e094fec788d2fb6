"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import corpus, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, timeout: float = 170):
    """Run the benchmark command; return (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def _names(section: str):
    return [entry["name"] for entry in BENCHMARK[section]]


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END) == _names("end_to_end")
    assert list(run.PER_LAYER) == _names("per_layer")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        for entry in BENCHMARK[section]:
            assert table[entry["name"]] == entry["unit"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        ("explore", "validate-static", "validate-explore", "serve")
    )


def test_interaction_map_names_known_metrics_and_workloads():
    interactions = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    workloads = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert interactions["workloads"] == workloads
    assert interactions["held_out_seed"] == run.HELD_OUT_SEED
    layers = [entry["layer"] for entry in interactions["interactions"]]
    assert layers == _names("per_layer")
    for entry in interactions["interactions"]:
        assert set(entry["moves"]) <= set(_names("end_to_end"))
        assert set(entry["on"]) | set(entry.get("flat_on", ())) <= set(workloads)


def test_tail_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert run.tail_percentile(samples, 0.9) == 90.0
    with pytest.raises(ValueError):
        run.tail_percentile(samples[:99], 0.9)


def test_seeded_sample_is_deterministic_and_stratified():
    goldens = corpus.load_goldens()
    first = corpus.sample("validate-static", 5, goldens)
    assert first == corpus.sample("validate-static", 5, goldens)
    assert first != corpus.sample("validate-static", 6, goldens)
    assert len(first) == len(goldens["validate-static"]) // corpus.STRATUM["validate-static"]
    explore = corpus.sample("explore", 5, goldens)
    fixed = [item for item in goldens["explore"] if not item.startswith("gen:")]
    assert set(fixed) <= set(explore)


@pytest.mark.parametrize("workload", ["explore", "validate-static", "validate-explore", "serve"])
def test_every_workload_runs_at_a_tiny_size(workload):
    code, lines, result = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--tiny")
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert list(result["metrics"]) == _names("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    header = dict(part.split("=", 1) for part in lines[0].split() if "=" in part)
    assert header["seed"] == "3"
    assert int(header["samples"]) >= run.MIN_REQUESTS
    assert int(header["inputs"]) > 0
    printed = {line.split()[0] for line in lines[1:-1] if " = " in line}
    assert printed == set(run.END_TO_END) | set(run.ZERO_ON_SUCCESS)


@pytest.mark.parametrize("workload", ["explore", "serve"])
def test_traced_run_reports_every_layer_metric(workload):
    code, lines, result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--tiny", "--trace", "1"
    )
    assert code == 0, "\n".join(lines)
    assert list(result["metrics"]) == _names("per_layer")
    assert "trace.overhead_frac" in result["metrics"]


def test_corrupted_golden_is_a_wrong_verdict(tmp_path):
    goldens = corpus.load_goldens()
    for entry in goldens["validate-static"].values():
        entry["ok"] = not entry["ok"]
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(goldens))
    code, lines, result = _run(
        "--workload", "validate-static", "--seed", "3", "--seconds", "0", "--tiny",
        "--goldens", str(corrupted),
    )
    assert code != 0
    assert result["correct"] is False
    wrong = [line for line in lines if line.strip().startswith("wrong_verdicts")]
    assert wrong and float(wrong[0].split("=")[1].split()[0]) > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_default_engine_reproduces_validation_goldens():
    proc = subprocess.run(
        [sys.executable, "perfbench/goldens.py", "check", "--workload", "validate-static"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 disagreements" in proc.stdout
