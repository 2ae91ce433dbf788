"""An HG2P-shaped training schedule driven through the layers' public functions.

Per env step the frozen low-level actor acts with exploration noise. On the
workload's step schedule the loop runs three stages, each timed as one
latency sample:

- decision: build_graph -> plan_subgoal -> pseudo_landmark
- refresh: sample_pool("hr") -> fps -> recent_states -> select_novel ->
  NoveltyScorer.train -> LandmarkSet
- update: sample_batch -> twin-critic TD loss plus a hinge penalty on
  ||dQ/dx|| (forward_cache, grad_params_cached, input_grad_scalar,
  double_backprop) -> Adam.step x2 -> polyak_update

Finished episodes go to store_episode. Every output is checked against
``verify`` right after the stage that made it, with the clock stopped, so
the checks are outside every timing and nothing accumulates over a run.
"""

from __future__ import annotations

import hashlib
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import verify
from mazehrl import envs, graphplan, nets, replay
from tracer import NullTracer
from workloads import (
    BATCH,
    CRITIC_LR,
    ETA,
    EXPLORATION_STD,
    FIT_LR,
    FIT_STEPS,
    GAMMA,
    GRAD_BOUND,
    HIDDEN,
    HR_ALPHA,
    PENALTY_WEIGHT,
    PSEUDO_DELTA,
    SPEED,
    TARGET_NOISE_CLIP,
    TARGET_NOISE_STD,
    TAU,
)

RNG_STREAMS = ("init", "fit", "env", "prefill", "explore", "pool", "graph", "batch", "target")
MAX_FAILURE_NOTES = 5


class TwinCritic:
    """The ``min_q`` interface build_graph expects, over two critics."""

    def __init__(self, q1, q2):
        self.q1, self.q2 = q1, q2

    def min_q(self, x):
        return np.minimum(self.q1.forward(x)[:, 0], self.q2.forward(x)[:, 0])


def make_spec(workload):
    spec = envs.make_maze(workload.maze)
    if workload.max_episode_steps:
        spec = envs.spec_from_dict(
            {**envs.spec_to_dict(spec), "max_episode_steps": workload.max_episode_steps}
        )
    return spec


def steps_to_go_q(dist):
    """Discounted value of -1 per step over a straight line at full speed."""
    return -(1.0 - GAMMA ** (dist / SPEED)) / (1.0 - GAMMA)


def _random_inputs(spec, rng, n):
    lo, hi = spec.goal_low, spec.goal_high
    pos = rng.uniform(lo, hi, (n, 2))
    states = np.concatenate([pos, rng.uniform(-SPEED, SPEED, (n, 2))], axis=1)
    return states, rng.uniform(lo, hi, (n, 2)) - pos


def _fit(net, rng, make_batch):
    """FIT_STEPS of Adam on mean squared error against make_batch's targets."""
    opt = nets.Adam(net.params, lr=FIT_LR)
    for _ in range(FIT_STEPS):
        x, want = make_batch(rng)
        cache = net.forward_cache(x)
        err = net.output(cache) - want
        opt.step(net.params, net.grad_params_cached(cache, 2.0 * err / err.size))


class Agent:
    """Nets, buffer, landmarks and RNG streams for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        seeds = np.random.SeedSequence(seed).spawn(len(RNG_STREAMS))
        self.rng = {name: np.random.default_rng(s) for name, s in zip(RNG_STREAMS, seeds)}
        self.spec = make_spec(workload)
        init = self.rng["init"]
        self.actor = nets.Mlp([6, HIDDEN, HIDDEN, 2], "scaled_tanh", rng=init)
        self.critics = [nets.Mlp([8, HIDDEN, HIDDEN, 1], rng=init) for _ in range(2)]
        self.scorer = graphplan.NoveltyScorer(4, init)
        self._fit_nets()
        self.targets = [q.copy() for q in self.critics]
        self.opts = [nets.Adam(q.params, lr=CRITIC_LR) for q in self.critics]
        self.twin = TwinCritic(*self.critics)
        self.env = envs.PointMazeEnv(self.spec, self.rng["env"])
        self.buffer = replay.TrajectoryBuffer(workload.capacity)
        self._prefill()
        self.landmarks = None

    def _fit_nets(self):
        """Fit the actor to head for its subgoal and the critics to steps-to-go."""
        spec = self.spec

        def actor_batch(rng):
            s, rel = _random_inputs(spec, rng, BATCH)
            norm = np.linalg.norm(rel, axis=1, keepdims=True)
            return np.concatenate([s, rel], axis=1), 0.9 * rel / np.maximum(norm, 1.0)

        def critic_batch(rng):
            s, rel = _random_inputs(spec, rng, BATCH)
            a = rng.uniform(-1.0, 1.0, (BATCH, 2))
            q = steps_to_go_q(np.linalg.norm(rel, axis=1))
            return np.concatenate([s, rel, a], axis=1), q[:, None]

        _fit(self.actor, self.rng["fit"], actor_batch)
        for q in self.critics:
            _fit(q, self.rng["fit"], critic_batch)

    def _prefill(self):
        """Store uniform-random-action episodes until prefill_steps are stored."""
        rng, stored = self.rng["prefill"], 0
        while stored < self.workload.prefill_steps:
            goal = self.env.reset().goal
            obs, episode = self.env.state.observation(), []
            for t, act in enumerate(rng.uniform(-1.0, 1.0, (self.spec.max_episode_steps, 2))):
                new, r, done = self.env.step(act)
                new_obs = new.observation()
                episode.append(replay.Transition(obs, goal - obs[:2], act, r, new_obs,
                                                 goal - new_obs[:2], done, t=t))
                obs = new_obs
                if done:
                    break
            self.buffer.store_episode(episode, goal)
            stored += len(episode)


class Clock:
    """Busy time of the timed phase; ``paused`` blocks do not count."""

    def __init__(self):
        self.busy = 0.0
        self.mark = perf_counter()

    def elapsed(self):
        return self.busy + perf_counter() - self.mark

    @contextmanager
    def paused(self):
        self.busy += perf_counter() - self.mark
        try:
            yield
        finally:
            self.mark = perf_counter()


class Pipeline:
    """The timed closed loop over one agent, with its counts and checks."""

    def __init__(self, agent, tracer):
        self.a = agent
        self.w = agent.workload
        self.tr = tracer
        self.latency = {"decision": [], "refresh": [], "update": []}
        self.steps = 0
        self.step_clock = []  # busy seconds at the end of each env step
        self.attempted = 0
        self.failed = 0
        self.failure_notes = []
        self.counts = dict.fromkeys(
            ("decisions", "fallbacks", "edges_scored", "edges_kept", "landmarks_total",
             "degenerate_pseudo", "refreshes", "updates", "penalty_active",
             "penalty_samples", "nonfinite_grad_skips", "episodes", "evicted_episodes",
             "clamp_warnings"),
            0,
        )
        self.entropy_ratios = []
        self.subgoal_hash = hashlib.sha256()
        self.digest = None
        self.digest_counts = None
        self.sg = np.zeros(2)
        self.episode = []
        self.clock = Clock()
        self._clamps0 = 0

    # ---- ops: one stage plus its checks; exceptions count as failures ----

    def _op(self, kind, body):
        self.attempted += 1
        try:
            reason = body()
        except Exception:  # the loop must keep running to report every failure
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if reason:
            self.failed += 1
            if len(self.failure_notes) < MAX_FAILURE_NOTES:
                self.failure_notes.append(f"{kind} at step {self.steps}: {reason}")

    def _decide(self):
        a, tr = self.a, self.tr
        state = a.env.state
        here = state.position.copy()
        t0 = perf_counter()
        with tr.span("stage.decision"):
            graph = tr.call("graphplan.build_graph", graphplan.build_graph, state.observation(),
                            state.goal, a.landmarks, a.twin, a.actor, envs.phi, ETA, self.w.cutoff)
            waypoint = tr.call("graphplan.plan_subgoal", graphplan.plan_subgoal, graph)
            point, degenerate = tr.call("graphplan.pseudo_landmark", graphplan.pseudo_landmark,
                                        waypoint, here, PSEUDO_DELTA)
        self.latency["decision"].append(perf_counter() - t0)
        self.sg = point - here
        with self.clock.paused():
            c = self.counts
            n = graph.n_nodes
            dist = verify.floyd_warshall(graph.w_cut)
            c["decisions"] += 1
            c["fallbacks"] += int(n > 2 and not np.isfinite(dist[0, -1]))
            c["edges_scored"] += (n - 1) ** 2
            c["edges_kept"] += int(np.count_nonzero(np.isfinite(graph.w_cut)))
            c["landmarks_total"] += n - 2
            c["degenerate_pseudo"] += int(degenerate)
            if self.digest is None:
                self.subgoal_hash.update(point.tobytes())
            return verify.check_plan(graph, waypoint, dist) or verify.check_pseudo(
                point, waypoint, degenerate, PSEUDO_DELTA)

    def _refresh(self):
        a, tr, w = self.a, self.tr, self.w
        t0 = perf_counter()
        with tr.span("stage.refresh"):
            pool = tr.call("replay.sample_pool", replay.sample_pool, a.buffer, "hr",
                           w.pool_size, a.rng["pool"], alpha=HR_ALPHA)
            coverage = tr.call("graphplan.fps", graphplan.fps, pool, w.n_coverage, a.rng["graph"])
            recent = tr.call("replay.recent_states", a.buffer.recent_states, w.novelty_window)
            novel = tr.call("graphplan.select_novel", graphplan.select_novel, recent, a.scorer,
                            w.n_novelty)
            tr.call("graphplan.novelty_train", a.scorer.train, recent)
            a.landmarks = tr.call("graphplan.landmark_set", graphplan.LandmarkSet, coverage,
                                  novel, envs.phi)
        self.latency["refresh"].append(perf_counter() - t0)
        with self.clock.paused():
            records = a.buffer.records
            weights = np.array([rec.weight for rec in records])
            lengths = np.array([rec.length for rec in records], dtype=np.float64)
            self.entropy_ratios.append(replay.weight_entropy(weights, lengths) / np.log(len(a.buffer)))
            self.counts["refreshes"] += 1
            return verify.check_hr_weights(records) or verify.check_fps(coverage, pool)

    def _td_target(self, batch):
        a = self.a
        obs_next = np.concatenate([batch["s_next"], batch["sg_next"]], axis=1)
        noise = np.clip(a.rng["target"].normal(0.0, TARGET_NOISE_STD, (len(obs_next), 2)),
                        -TARGET_NOISE_CLIP, TARGET_NOISE_CLIP)
        act = np.clip(a.actor.forward(obs_next) + noise, -1.0, 1.0)
        x_next = np.concatenate([obs_next, act], axis=1)
        q_next = np.minimum(a.targets[0].forward(x_next)[:, 0], a.targets[1].forward(x_next)[:, 0])
        reached = np.linalg.norm(batch["sg_next"], axis=1) <= a.spec.success_radius
        return np.where(reached, 0.0, -1.0) + GAMMA * ~reached * q_next

    def _update(self):
        a, tr = self.a, self.tr
        losses, active, skipped = [], 0, 0
        t0 = perf_counter()
        with tr.span("stage.update"):
            batch = tr.call("replay.sample_batch", a.buffer.sample_batch, BATCH, a.rng["batch"])
            y = tr.call("nets.target_forward", self._td_target, batch)
            x = np.concatenate([batch["s"], batch["sg"], batch["a"]], axis=1)
            n = len(x)
            for q, opt in zip(a.critics, a.opts):
                cache = tr.call("nets.forward_cache", q.forward_cache, x)
                td = q.output(cache)[:, 0] - y
                g_td = tr.call("nets.grad_params", q.grad_params_cached, cache,
                               (2.0 / n) * td[:, None])
                g_in, zgrads = tr.call("nets.input_grad_scalar", q.input_grad_scalar, cache)
                norms = np.linalg.norm(g_in, axis=1)
                excess = np.maximum(norms - GRAD_BOUND, 0.0)
                scale = PENALTY_WEIGHT * 2.0 / n * excess / np.where(norms > 0, norms, 1.0)
                g_pen = tr.call("nets.double_backprop", q.double_backprop, cache, zgrads,
                                scale[:, None] * g_in)
                try:
                    tr.call("nets.adam_step", opt.step, q.params,
                            [u + v for u, v in zip(g_td, g_pen)])
                except FloatingPointError:
                    skipped += 1
                losses += [float(np.mean(td * td)), PENALTY_WEIGHT * float(np.mean(excess * excess))]
                active += int(np.count_nonzero(excess))
            for target, q in zip(a.targets, a.critics):
                tr.call("nets.polyak_update", nets.polyak_update, target.params, q.params, TAU)
        self.latency["update"].append(perf_counter() - t0)
        with self.clock.paused():
            c = self.counts
            c["updates"] += 1
            c["penalty_active"] += active
            c["penalty_samples"] += 2 * n
            c["nonfinite_grad_skips"] += skipped
            params = [p for net in a.critics + a.targets for p in net.params]
            reason = verify.check_finite(losses, params)
            return reason or (f"{skipped} non-finite gradient step(s) skipped" if skipped else None)

    def _store(self):
        a, tr = self.a, self.tr
        before = a.buffer.n_trajectories
        tr.call("replay.store_episode", a.buffer.store_episode, self.episode, a.env.state.goal)
        with self.clock.paused():
            self.counts["episodes"] += 1
            self.counts["evicted_episodes"] += before + 1 - a.buffer.n_trajectories
            positions = [t.s[:2] for t in self.episode] + [self.episode[-1].s_next[:2]]
            return verify.check_positions(a.spec, positions)

    def _take_digest(self):
        """Exact counts plus sha256(subgoal sequence, critic params) at digest_steps."""
        self.counts["clamp_warnings"] = self.a.env.clamp_warnings - self._clamps0
        h = self.subgoal_hash.copy()
        for q in self.a.critics:
            for p in q.params:
                h.update(np.ascontiguousarray(p).tobytes())
        self.digest = h.hexdigest()
        self.digest_counts = dict(self.counts, env_steps=self.steps)

    # ---- the loop ----

    def run(self, seconds):
        """Run for ``seconds`` of busy time, and at least until the digest is taken."""
        a, tr, w = self.a, self.tr, self.w
        env = a.env
        explore = a.rng["explore"]
        self._clamps0 = env.clamp_warnings
        tr.call("envs.reset", env.reset)
        self.clock = Clock()
        while self.digest is None or self.clock.elapsed() < seconds:
            state = env.state
            if state.t % w.decide_every == 0:
                self._op("decision", self._decide)
            obs = np.concatenate([state.observation(), self.sg])
            act = tr.call("nets.actor_forward", a.actor.forward, obs)
            act = act + explore.normal(0.0, EXPLORATION_STD, 2)
            new, r, done = tr.call("envs.step", env.step, act)
            sg_next = self.sg + state.position - new.position
            self.episode.append(replay.Transition(state.observation(), self.sg, act, r,
                                                  new.observation(), sg_next, done, t=state.t))
            self.sg = sg_next
            self.steps += 1
            self.step_clock.append(self.clock.elapsed())
            if done:
                self._op("store", self._store)
                self.episode = []
                tr.call("envs.reset", env.reset)
            if self.steps % w.refresh_every == 0:
                self._op("refresh", self._refresh)
            if self.steps % w.update_every == 0:
                self._op("update", self._update)
            if self.steps == w.digest_steps:
                with self.clock.paused():
                    self._take_digest()
        busy = self.clock.elapsed()
        self.counts["clamp_warnings"] = env.clamp_warnings - self._clamps0
        return busy


def set_up(workload, seed):
    """A ready agent with landmarks from one untimed refresh."""
    agent = Agent(workload, seed)
    warm = Pipeline(agent, NullTracer())
    warm._op("refresh", warm._refresh)
    if warm.failed:
        raise RuntimeError("set-up refresh failed: " + "; ".join(warm.failure_notes))
    return agent

