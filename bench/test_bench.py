"""Tests of the benchmark itself: its verifier, determinism and output shape.

    python3 -m pytest -q bench
"""

import itertools
import json
import os
import shutil
import subprocess
from dataclasses import replace

import run  # pins BLAS threads and puts src/ on the path before numpy is imported

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import pipeline  # noqa: E402
import verify  # noqa: E402
from mazehrl.graphplan import LandmarkGraph, plan_subgoal  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small enough to set up in seconds; each still refreshes, updates and stores.
TINY = {
    "plan_umaze24": dict(max_episode_steps=60, prefill_steps=1000, refresh_every=40,
                         update_every=40, digest_steps=120),
    "refresh_umaze12_short": dict(capacity=2000, prefill_steps=2000, digest_steps=250),
    "learn_embossed": dict(max_episode_steps=20, prefill_steps=500, digest_steps=40),
}


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


def brute_force_dist(w, src, dst):
    """Cheapest simple path by exhaustive enumeration."""
    n = w.shape[0]
    if src == dst:
        return 0.0
    best = np.inf
    inner = [v for v in range(n) if v not in (src, dst)]
    for k in range(len(inner) + 1):
        for mid in itertools.permutations(inner, k):
            path = (src, *mid, dst)
            best = min(best, sum(w[a, b] for a, b in zip(path, path[1:])))
    return best


def random_graph(rng, n, density):
    w = rng.uniform(0.1, 5.0, (n, n))
    w[rng.random((n, n)) > density] = np.inf
    np.fill_diagonal(w, np.inf)
    return w


class TestFloydWarshall:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_matches_path_enumeration(self, n):
        rng = np.random.default_rng(n)
        for density in (0.2, 0.5, 0.9):
            w = random_graph(rng, n, density)
            d = verify.floyd_warshall(w)
            for i, j in itertools.product(range(n), repeat=2):
                want = brute_force_dist(w, i, j)
                if np.isfinite(want):
                    assert d[i, j] == pytest.approx(want, rel=1e-12)
                else:
                    assert d[i, j] == np.inf

    def test_does_not_modify_input(self):
        w = random_graph(np.random.default_rng(0), 4, 0.5)
        before = w.copy()
        verify.floyd_warshall(w)
        assert np.array_equal(w, before)


def planning_graph(rng, n, density, cutoff):
    points = rng.uniform(-5.0, 5.0, (n, 2))
    w_raw = random_graph(rng, n, density)
    w_raw[-1, :] = np.inf  # the goal has no outgoing edges
    return LandmarkGraph(points, np.where(w_raw <= cutoff, w_raw, np.inf), w_raw, cutoff)


class TestCheckPlan:
    def test_accepts_planner_output(self):
        rng = np.random.default_rng(1)
        reachable = fallback = 0
        for _ in range(200):
            graph = planning_graph(rng, int(rng.integers(2, 8)), 0.5, 3.0)
            dist = verify.floyd_warshall(graph.w_cut)
            assert verify.check_plan(graph, plan_subgoal(graph), dist) is None
            if graph.n_nodes > 2:
                reachable += np.isfinite(dist[0, -1])
                fallback += not np.isfinite(dist[0, -1])
        assert reachable and fallback  # both branches were exercised

    def test_rejects_hop_off_the_shortest_path(self):
        inf = np.inf
        w = np.array([[inf, 1.0, 5.0, 9.0],
                      [inf, inf, inf, 1.0],
                      [inf, inf, inf, 1.0],
                      [inf, inf, inf, inf]])
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        graph = LandmarkGraph(points, w, w, 10.0)
        dist = verify.floyd_warshall(w)
        assert verify.check_plan(graph, points[1], dist) is None
        assert verify.check_plan(graph, points[2], dist) is not None
        assert verify.check_plan(graph, points[3], dist) is not None

    def test_rejects_wrong_fallback(self):
        inf = np.inf
        w_raw = np.array([[inf, 4.0, 5.0, 99.0],
                          [inf, inf, inf, 4.0],
                          [inf, inf, inf, 2.0],
                          [inf, inf, inf, inf]])
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        graph = LandmarkGraph(points, np.where(w_raw <= 3.0, w_raw, inf), w_raw, 3.0)
        dist = verify.floyd_warshall(graph.w_cut)
        assert verify.check_plan(graph, points[2], dist) is None
        assert verify.check_plan(graph, points[1], dist) is not None


class TestOtherChecks:
    def test_fps(self):
        pool = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert verify.check_fps(pool[[2, 0]], pool) is None
        assert verify.check_fps(pool[[2, 2]], pool) is not None
        assert verify.check_fps(np.array([[0.5, 0.5]]), pool) is not None

    def test_pseudo(self):
        waypoint = np.array([3.0, 4.0])
        assert verify.check_pseudo(waypoint + [0.3, 0.4], waypoint, False, 0.5) is None
        assert verify.check_pseudo(waypoint + [0.3, 0.5], waypoint, False, 0.5) is not None
        assert verify.check_pseudo(waypoint, waypoint, True, 0.5) is None

    def test_positions(self):
        spec = pipeline.make_spec(WORKLOADS["learn_embossed"])
        assert verify.check_positions(spec, [[-5.0, 0.0], [6.0, 6.0]]) is None
        assert verify.check_positions(spec, [[1.3, 0.0]]) is not None  # inside a wall
        assert verify.check_positions(spec, [[6.1, 0.0]]) is not None  # outside the extent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts_and_digest(name):
    runs = []
    for _ in range(2):
        pipe = pipeline.Pipeline(pipeline.set_up(tiny(name), 7), NullTracer())
        pipe.run(0.0)
        assert pipe.failed == 0, pipe.failure_notes
        runs.append((pipe.digest_counts, pipe.digest))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["decisions"] and counts["refreshes"] and counts["updates"] and counts["episodes"]
    if name == "refresh_umaze12_short":
        assert counts["evicted_episodes"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_run_reports_every_metric(name):
    record, tracer = run.measure(tiny(name), 3, 1.0, trace=1)
    assert record["failed"] == 0, record["failures"]
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(record["per_layer"]) == per_layer
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert set(run.END_TO_END) <= set(record["end_to_end"])
    names = set(tracer.names)
    assert {k.rsplit(".", 1)[0] for k in per_layer if k.endswith(".calls")} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = BENCHMARK["command"] + ["--workload", "plan_umaze24", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
