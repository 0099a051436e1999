"""Tests of the benchmark itself; not part of the package's test suite.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import antinef.cli  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = sorted(gen.GENERATORS)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a full CLI run takes a fraction of a second."""
    monkeypatch.setattr(gen, "GROWING_NMAX", 6)
    monkeypatch.setattr(gen, "CHAIN_POINTS", 12)
    monkeypatch.setattr(gen, "CHAIN_SATELLITES", (4, 9))
    monkeypatch.setattr(gen, "CHAIN_NMAX", 4)
    monkeypatch.setattr(
        gen, "CURVES_BRANCHES",
        (("smooth", 4, None, 0), ("smooth", 4, 0, 2), ("cusp", 3, None, 0), ("cusp", 4, 2, 1)),
    )
    monkeypatch.setattr(gen, "CURVES_NMAX", 3)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _cli(tmp_path, text: str) -> bytes:
    scenario, output = tmp_path / "in.scn", tmp_path / "out.csv"
    scenario.write_text(text, encoding="utf-8")
    code = antinef.cli.main(
        ["run", "--scenario", str(scenario), "--format", "csv", "--output", str(output)]
    )
    assert code == 0
    return output.read_bytes()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_and_fixed_size(workload):
    texts = [gen.generate(workload, seed) for seed in (1, 2, 3)]
    assert texts[0] == gen.generate(workload, 1)
    assert len(set(texts)) == 3, "the seed must change the inputs"
    sizes = set()
    for text in texts:
        scenario = antinef.parse_scenario(text)
        sizes.add(
            (
                tuple(len(c) for c in scenario.clusters.values()),
                tuple(task.kind for task in scenario.tasks),
                tuple(task.nmax for task in scenario.tasks),
            )
        )
    assert len(sizes) == 1, "the seed must not change the problem size"


def test_curves_tree_multiplicities_and_antinef_delta():
    points, _prox, mults = gen.curves_tree(gen.DEFAULT_SEED)
    scenario = antinef.parse_scenario(gen.curves(gen.DEFAULT_SEED))
    tree = scenario.clusters["TREE"]
    assert len(tree) == len(points) + 1 == 45
    for (kind, coeffs), mult in zip(gen.curves_branches(gen.DEFAULT_SEED), mults):
        branch = antinef.parse_poly(gen._branch_poly(kind, coeffs))
        expected = tuple(mult.get(i, 0) for i in range(len(tree)))
        assert antinef.value_vector(tree, branch).multiplicities == expected
    assert antinef.is_antinef(scenario.divisors["DELTA"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_output_bytes_alone(small, tmp_path, workload):
    text = gen.generate(workload, 5)
    plain = _cli(tmp_path, text)
    original = antinef.cli.unload
    tracer = Tracer()
    tracer.install()
    try:
        traced = _cli(tmp_path, text)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert checks.check(workload, text, plain.decode()) == []
    layers = tracer.summary()
    assert layers["cli.render_calls"] == 1
    assert layers["scenario.parse_calls"] == 1
    assert antinef.cli.unload is original


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer._span("outer", lambda: inner())
    inner = tracer._span("inner", lambda: sum(range(10000)))
    outer()
    (inner_span,) = [s for s in tracer.spans if s[2] == "inner"]
    (outer_span,) = [s for s in tracer.spans if s[2] == "outer"]
    assert inner_span[1] == outer_span[0]
    summary = tracer.summary()
    total = outer_span[4] - outer_span[3]
    assert summary["outer_s"] + summary["inner_s"] == pytest.approx(total)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_catch_a_wrong_number(small, tmp_path, workload):
    text = gen.generate(workload, 5)
    lines = _cli(tmp_path, text).decode().splitlines()
    # corrupt the second cell of the first data row of the first table
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    cells = lines[row].split(",")
    cells[1] = str(int(cells[1].split("/")[0]) + 1)
    lines[row] = ",".join(cells)
    assert checks.check(workload, text, "\n".join(lines) + "\n") != []


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metric_names_match_benchmark_json(small, monkeypatch, tmp_path, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORKERS", 2)
    spec = _spec()
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    for workload in WORKLOADS:
        result = run.measure(workload, 99, 0.0, bool(trace), str(tmp_path))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 * run.WORKERS
        assert set(result["metrics"]) == names


def test_benchmark_json_lists_the_generated_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(gen.GENERATORS)
    assert spec["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_recorded_digests_cover_default_and_held_out_seeds():
    with open(run.EXPECTED, encoding="utf-8") as handle:
        table = json.load(handle)
    for workload in WORKLOADS:
        assert set(table[workload]) == {str(gen.DEFAULT_SEED), str(gen.HELD_OUT_SEED)}


def test_verdict_rules():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in base]
    assert compare.verdict(base, faster, "lower", 0.1) == ("gain", "10/10")
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == "regression"
    assert compare.verdict(base, [x * 1.02 for x in base], "lower", 0.1)[0] == "same"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, "higher", None) == ("-", "0/10")
    assert compare.verdict(base, faster, "lower", 0.1, more_failures=True) == ("failed", "10/10")
    assert compare.verdict(base, faster, "higher", None, more_failures=True)[0] == "failed"


def test_report_fails_a_workload_whose_change_fails_more(tmp_path, capsys):
    rows = []
    for pair in range(10):
        for side, value, failed in (("base", 1.0, 0), ("change", 0.5, 2)):
            result = {"correct": not failed, "attempted": 40, "failed": failed,
                      "metrics": {"run_s": {"value": value + pair * 1e-3, "unit": "s"}}}
            rows.append({"side": side, "workload": "chain", "pair": pair, "result": result})
    results = tmp_path / "pairs.jsonl"
    results.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert compare.main(["report", str(results)]) == 1
    assert "failed" in capsys.readouterr().out.splitlines()[1]


def test_a_program_fault_fails_repeats_instead_of_the_run(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORKERS", 2)
    monkeypatch.setattr(gen, "generate", lambda workload, seed: "this is not a scenario\n")
    result = run.measure("chain", 99, 0.0, False, str(tmp_path))
    assert not result["correct"]
    assert result["attempted"] >= 2 * run.WORKERS
    assert result["failed"] == result["attempted"]


def test_worker_returns_an_exception_as_a_failed_call(monkeypatch):
    def fault(argv):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(antinef.cli, "main", fault)
    seconds, code, message = worker._run(["run"])
    assert seconds >= 0 and code == 1 and message == "ZeroDivisionError: boom"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_seeds_reproduce_their_digests(tmp_path, workload):
    for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
        data = _cli(tmp_path, gen.generate(workload, seed))
        assert hashlib.sha256(data).hexdigest() == run.expected_digest(workload, seed)
