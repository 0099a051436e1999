"""Tests of the scale ladder itself; not part of the package's test suite.

Run from the repository root::

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
SCRIPT = os.path.join(ROOT, "benchmarks", "scale.py")
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import scale  # noqa: E402


def test_quick_ladder_schema_and_merge(tmp_path):
    out = tmp_path / "bench.json"
    kept = {"what": "old", "columns": {"parent": {"kept": True}}}
    out.write_text(json.dumps({"ladders": {"unload": kept, "other": {"kept": True}}}))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--quick", "--src", SRC, "--column", "change", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 10
    data = json.loads(out.read_text())
    assert data["reference_s"] > 0 and "scaled" in data["unit"]
    ladders = data["ladders"]
    assert ladders["other"] == {"kept": True}
    assert ladders["unload"]["columns"]["parent"] == {"kept": True}
    assert set(ladders) == set(scale.LADDERS) | {"other"}
    for name, (what, _rungs, quick_rungs) in scale.LADDERS.items():
        assert ladders[name]["what"] == what
        column = ladders[name]["columns"]["change"]
        assert set(column) == {"git", "python", "kernel_median_s", "cap_s", "slope", "rungs"}
        assert column["kernel_median_s"] > 0 and column["slope"] > 0
        rungs = column["rungs"]
        assert [r["n"] for r in rungs] == list(quick_rungs)
        for r in rungs:
            assert r["status"] == "ok" and r["repeats"] >= 3
            assert 0 < r["min_s"] <= r["q1_s"] <= r["median_s"] <= r["q3_s"]
            assert r["peak_rss_mb"] > 0
            assert len(r["sha256"]) == 64
        assert rungs[0]["sha256"] != rungs[1]["sha256"]


def test_cap_stops_the_ladder():
    for name, rungs in (("example42", (100, 200, 400)), ("unload", (250, 500, 1000))):
        [column] = scale.ladder([SRC], name, rungs, repeats=3, cap=0)
        assert [r["status"] for r in column["rungs"]] == ["ok", "capped", "capped"]
        assert column["slope"] is None


def _stubbed(monkeypatch, seconds):
    """Replace the children and the kernel by a log of the calls; a repeat
    of tree ``src`` at rung n takes ``seconds(src, n)``."""
    calls = []

    def kernel():
        calls.append("kernel")
        return 1.0

    def child(src, name, n, timeout, kernel_s):
        calls.append((src, n))
        return {"scaled_s": seconds(src, n), "kernel_s": kernel_s, "peak_rss_mb": 1.0,
                "sha256": f"{name} {n}"}

    monkeypatch.setattr(scale, "kernel_seconds", kernel)
    monkeypatch.setattr(scale, "repeat", child)
    monkeypatch.setattr(scale, "_describe", lambda src: src)
    return calls


def test_two_trees_alternate_their_repeats(monkeypatch):
    calls = _stubbed(monkeypatch, lambda src, n: n / 100)
    parent, change = scale.ladder(["P", "C"], "parse", (4, 16), repeats=4, cap=30, timings=2)
    # each repeat after its own two kernel timings; P first, then C first
    one = ["kernel", "kernel"]
    for n in (4, 16):
        order = [("P", n), ("C", n), ("C", n), ("P", n)] * 2
        assert calls[:24] == [x for run in order for x in (*one, run)]
        del calls[:24]
    assert not calls
    for src, column in (("P", parent), ("C", change)):
        assert column["git"] == src and column["slope"] == 1.0
        assert [(r["n"], r["repeats"], r["median_s"]) for r in column["rungs"]] == [
            (4, 4, 0.04), (16, 4, 0.16)]
    # --quick: one kernel timing per rung, for both trees
    calls.clear()
    scale.ladder(["P", "C"], "parse", (4,), repeats=3, cap=30, timings=0)
    assert calls == ["kernel", ("P", 4), ("C", 4), ("C", 4), ("P", 4), ("P", 4), ("C", 4)]


def test_a_slow_tree_caps_only_its_own_column(monkeypatch):
    calls = _stubbed(monkeypatch, lambda src, n: 100.0 if src == "P" else 0.1)
    parent, change = scale.ladder(["P", "C"], "parse", (4, 8, 16), repeats=3, cap=30, timings=0)
    assert [r["status"] for r in parent["rungs"]] == ["ok", "capped", "capped"]
    assert [r["status"] for r in change["rungs"]] == ["ok", "ok", "ok"]
    assert calls.count(("P", 8)) == 0 and calls.count(("C", 16)) == 3


def test_quick_run_of_two_trees_writes_both_columns(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--quick", "--ladder", "parse", "--out", str(out),
         "--src", SRC, "--column", "parent", "--src", SRC, "--column", "change"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    ladders = json.loads(out.read_text())["ladders"]
    assert set(ladders) == {"parse"}
    columns = ladders["parse"]["columns"]
    assert set(columns) == {"parent", "change"}
    quick_rungs = scale.LADDERS["parse"][2]
    for column in columns.values():
        assert [(r["n"], r["repeats"]) for r in column["rungs"]] == [
            (n, scale.QUICK_REPEATS) for n in quick_rungs]
    digests = [[r["sha256"] for r in column["rungs"]] for column in columns.values()]
    assert digests[0] == digests[1]
    # a --column per --src
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--quick", "--out", str(out), "--src", SRC, "--src", SRC],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2 and "one distinct --column per --src" in proc.stderr


def test_repeats_sets_the_repeats_per_rung(tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    calls = _stubbed(monkeypatch, lambda src, n: n / 100)
    assert scale.main(["--ladder", "parse", "--repeats", "7", "--out", str(out),
                       "--src", "P", "--column", "parent", "--src", "C", "--column", "change"]) == 0
    columns = json.loads(out.read_text())["ladders"]["parse"]["columns"]
    for column in columns.values():
        assert [(r["n"], r["repeats"]) for r in column["rungs"]] == [
            (n, 7) for n in scale.LADDERS["parse"][1]]
    runs = [c for c in calls if c != "kernel"]
    assert len(runs) == 2 * 7 * len(scale.LADDERS["parse"][1])
    assert scale.main(["--ladder", "parse", "--out", str(out)]) == 0
    rungs = json.loads(out.read_text())["ladders"]["parse"]["columns"]["change"]["rungs"]
    assert [r["repeats"] for r in rungs] == [scale.REPEATS] * len(rungs) == [5] * len(rungs)
    # --quick keeps its own default unless --repeats is given
    calls.clear()
    assert scale.main(["--quick", "--ladder", "unload", "--repeats", "4", "--out", str(out)]) == 0
    rungs = json.loads(out.read_text())["ladders"]["unload"]["columns"]["change"]["rungs"]
    assert [r["repeats"] for r in rungs] == [4, 4]
    calls.clear()
    assert scale.main(["--quick", "--ladder", "unload", "--out", str(out)]) == 0
    rungs = json.loads(out.read_text())["ladders"]["unload"]["columns"]["change"]["rungs"]
    assert [r["repeats"] for r in rungs] == [scale.QUICK_REPEATS] * 2
    # the quartiles need two repeats
    for few in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--repeats", few, "--out", str(out)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 2 and "--repeats must be at least 2" in proc.stderr


def test_qdivisorial_ladder_prints_the_sequence():
    assert scale.LADDERS["qdivisorial"][1:] == ((100, 200, 400), (100, 200))
    proc = subprocess.run(
        [sys.executable, scale.CHILD, "qdivisorial", "6"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        check=True,
    )
    closed, values = proc.stdout.splitlines()
    assert "/" in closed and len(values.split()) == 6
    assert json.loads(proc.stderr.splitlines()[-1])["code"] == 0


def test_value_vector_ladder_adds_its_branches():
    # m_i of a product is the sum of its factors' m_i: check the printed
    # multiplicities against the tree's own record of each branch's
    assert scale.LADDERS["value_vector"][1:] == ((6, 12, 24), (6, 12))
    branches = gen.curves_branches(gen.DEFAULT_SEED)
    polys = [gen._branch_poly(kind, g) for kind, g in branches]
    _points, prox, mults = gen.curves_tree(gen.DEFAULT_SEED)
    rng = random.Random(6)
    picks = [polys.index(rng.choice(polys)) for _ in range(6)]
    expected = [sum(mults[b].get(i, 0) for b in picks) for i in range(len(prox))]
    proc = subprocess.run(
        [sys.executable, scale.CHILD, "value_vector", "6"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        check=True,
    )
    multiplicities, values = proc.stdout.splitlines()
    assert [int(m) for m in multiplicities.split()] == expected
    assert len(values.split()) == len(prox)
    assert json.loads(proc.stderr.splitlines()[-1])["code"] == 0


def test_parse_ladder_prints_the_tree_and_the_product_order():
    # the order of a product is the sum of its factors' orders: each pick
    # is its branch's equation plus a term beyond it, of the branch's order
    assert scale.LADDERS["parse"][1:] == ((4, 8, 16, 24), (4, 16))
    branches = gen.curves_branches(gen.DEFAULT_SEED)
    polys = [gen._branch_poly(kind, g) for kind, g in branches]
    points, _prox, _mults = gen.curves_tree(gen.DEFAULT_SEED)
    rng = random.Random(8)
    picks = [polys.index(rng.choice(polys)) for _ in range(8)]
    order = sum(1 if branches[b][0] == "smooth" else 2 for b in picks)
    proc = subprocess.run(
        [sys.executable, scale.CHILD, "parse", "8"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert proc.stdout.split() == [str(len(points) + 1), str(order)]
    assert json.loads(proc.stderr.splitlines()[-1])["code"] == 0


def test_definite_ladder_prints_the_verdict():
    assert scale.LADDERS["definite"][1:] == ((100, 200, 400), (100, 200))
    proc = subprocess.run(
        [sys.executable, scale.CHILD, "definite", "30"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert proc.stdout.split() == ["30", "True"]
    assert json.loads(proc.stderr.splitlines()[-1])["code"] == 0
