"""Oracle tests for the low level's TD3 updates.

``critic_update`` must write, byte for byte, what the bench's own update
writes; the reference below is a copy of that math. ``actor_update``'s
gradient must match float64 central differences of its loss.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mazehrl.agent import actor_update, critic_update
from mazehrl.envs import PointMazeEnv, umaze12
from mazehrl.nets import Adam, Mlp, polyak_update
from mazehrl.replay import TrajectoryBuffer, Transition

BATCH = 256
RADIUS = umaze12().success_radius

# ---- the bench's update (bench/pipeline.py, Pipeline._td_target and Pipeline._update), copied
# with its constants from bench/workloads.py; only the tracer calls and the timing are left out ----

GAMMA = 0.99
TAU = 0.005
PENALTY_WEIGHT = 1.0
GRAD_BOUND = 2.5
TARGET_NOISE_STD = 0.2
TARGET_NOISE_CLIP = 0.5


def reference_td_target(a, batch):
    obs_next = np.concatenate([batch["s_next"], batch["sg_next"]], axis=1)
    noise = np.clip(a.rng["target"].normal(0.0, TARGET_NOISE_STD, (len(obs_next), 2)),
                    -TARGET_NOISE_CLIP, TARGET_NOISE_CLIP)
    act = np.clip(a.actor.forward(obs_next) + noise, -1.0, 1.0)
    x_next = np.concatenate([obs_next, act], axis=1)
    q_next = np.minimum(a.targets[0].forward(x_next)[:, 0], a.targets[1].forward(x_next)[:, 0])
    reached = np.linalg.norm(batch["sg_next"], axis=1) <= a.spec.success_radius
    return np.where(reached, 0.0, -1.0) + GAMMA * ~reached * q_next


def reference_update(a, batch):
    losses, active, skipped = [], 0, 0
    y = reference_td_target(a, batch)
    x = np.concatenate([batch["s"], batch["sg"], batch["a"]], axis=1)
    n = len(x)
    for q, opt in zip(a.critics, a.opts):
        cache = q.forward_cache(x)
        td = q.output(cache)[:, 0] - y
        g_td = q.grad_params_cached(cache, (2.0 / n) * td[:, None])
        g_in, zgrads = q.input_grad_scalar(cache)
        norms = np.linalg.norm(g_in, axis=1)
        excess = np.maximum(norms - GRAD_BOUND, 0.0)
        scale = PENALTY_WEIGHT * 2.0 / n * excess / np.where(norms > 0, norms, 1.0)
        g_pen = q.double_backprop(cache, zgrads, scale[:, None] * g_in)
        try:
            opt.step(q.params, [u + v for u, v in zip(g_td, g_pen)])
        except FloatingPointError:
            skipped += 1
        losses += [float(np.mean(td * td)), PENALTY_WEIGHT * float(np.mean(excess * excess))]
        active += int(np.count_nonzero(excess))
    for target, q in zip(a.targets, a.critics):
        polyak_update(target.params, q.params, TAU)
    return losses, active, skipped


# ---- fixtures ----


@pytest.fixture(scope="module")
def buffer():
    """A ring of random-action UMaze12 episodes that has wrapped past its end."""
    spec = replace(umaze12(), max_episode_steps=60)
    env, rng = PointMazeEnv(spec, np.random.default_rng(0)), np.random.default_rng(1)
    buf = TrajectoryBuffer(1500)
    for _ in range(40):
        goal = env.reset().goal
        obs, episode = env.state.observation(), []
        for t, act in enumerate(rng.uniform(-1.0, 1.0, (spec.max_episode_steps, 2))):
            new, r, done = env.step(act)
            new_obs = new.observation()
            episode.append(Transition(obs, goal - obs[:2], act, r, new_obs, goal - new_obs[:2], done, t=t))
            obs = new_obs
            if done:
                break
        buf.store_episode(episode, goal)
    assert buf.n_trajectories < 40
    return buf


def learner(actor, critics, seed):
    """Copies of ``critics`` and their targets, fresh Adams, and a target-noise RNG stream."""
    critics = [q.copy() for q in critics]
    return SimpleNamespace(actor=actor, critics=critics, targets=[q.copy() for q in critics],
                           opts=[Adam(q.params, lr=3e-4) for q in critics],
                           rng={"target": np.random.default_rng(seed)}, spec=umaze12())


def bench_shaped_nets(width, rng):
    """The bench's actor and critics at ``width``, float32, with last critic layers large
    enough that the hinge is active on some samples and not on others."""
    actor = Mlp([6, width, width, 2], "scaled_tanh", rng=rng)
    critics = [Mlp([8, width, width, 1], rng=rng) for _ in range(2)]
    for q in critics:
        q.weights[-1][...] = rng.normal(0.0, 2.4 / np.sqrt(width), size=q.weights[-1].shape)
    return actor, critics


def params_bytes(nets):
    return [p.tobytes() for net in nets for p in net.params]


# ---- critic_update ----


class TestCriticUpdate:
    @pytest.mark.parametrize("sampler", ["sample_batch", "sample_relabelled"])
    @pytest.mark.parametrize("width", [64, 256])
    def test_matches_the_bench_update(self, buffer, width, sampler):
        actor, critics = bench_shaped_nets(width, np.random.default_rng(width))
        ours, ref = learner(actor, critics, 7), learner(actor, critics, 7)
        draw = np.random.default_rng(3)
        counts = np.zeros(2, dtype=int)
        for _ in range(5):
            batch = getattr(buffer, sampler)(BATCH, draw)
            td, pen, active, skipped = critic_update(ours.critics, ours.targets, ours.opts, actor,
                                                     batch, ours.rng["target"], RADIUS)
            losses, ref_active, ref_skipped = reference_update(ref, batch)
            assert [v for pair in zip(td, pen) for v in pair] == losses
            assert (active, skipped) == (ref_active, ref_skipped)
            counts += (active, skipped)
        assert params_bytes(ours.critics + ours.targets) == params_bytes(ref.critics + ref.targets)
        assert [a.tobytes() for o in ours.opts for a in o.m + o.v] == \
            [a.tobytes() for o in ref.opts for a in o.m + o.v]
        assert ours.rng["target"].bit_generator.state == ref.rng["target"].bit_generator.state
        assert 0 < counts[0] < 5 * 2 * BATCH and counts[1] == 0  # the hinge both on and off

    def test_non_finite_gradient_skips_the_step(self, buffer):
        """A NaN action makes every gradient NaN: both steps are skipped and counted, as
        the bench counts them, and the targets still move toward the unwritten critics."""
        actor, critics = bench_shaped_nets(16, np.random.default_rng(0))
        ours, ref = learner(actor, critics, 7), learner(actor, critics, 7)
        batch = buffer.sample_batch(8, np.random.default_rng(0))
        batch["a"][0, 0] = np.nan
        before = params_bytes(ours.critics + ours.targets)
        td, pen, active, skipped = critic_update(ours.critics, ours.targets, ours.opts, actor, batch,
                                                 ours.rng["target"], RADIUS)
        _, ref_active, ref_skipped = reference_update(ref, batch)
        assert skipped == ref_skipped == 2 and active == ref_active
        assert all(np.isnan(td))
        assert params_bytes(ours.critics) == before[:len(before) // 2]
        assert params_bytes(ours.critics + ours.targets) == params_bytes(ref.critics + ref.targets)
        assert all(o.step_count == 0 for o in ours.opts)


# ---- actor_update ----


class Recorder:
    """An optimizer that keeps the gradient it is given and writes nothing."""

    def step(self, params, grads):
        self.params, self.grads = params, [g.copy() for g in grads]


def small_pair(rng):
    """A float64 tanh-head actor and scalar critic with random weights and biases."""
    actor = Mlp([6, 8, 7, 2], "scaled_tanh", rng=rng, dtype=np.float64)
    critic = Mlp([8, 9, 6, 1], rng=rng, dtype=np.float64)
    for net in (actor, critic):
        for w, b in zip(net.weights, net.biases):
            w[...] = rng.normal(0.0, 0.7, size=w.shape)
            b[...] = rng.normal(0.0, 0.3, size=b.shape)
    batch = {"s": rng.normal(size=(5, 4)), "sg": rng.normal(size=(5, 2))}
    return actor, critic, batch


def actor_loss(actor, critic, batch):
    obs = np.concatenate([batch["s"], batch["sg"]], axis=1)
    return -float(np.mean(critic.forward(np.concatenate([obs, actor.forward(obs)], axis=1))))


class TestActorUpdate:
    def test_gradient_matches_central_differences(self):
        actor, critic, batch = small_pair(np.random.default_rng(0))
        opt = Recorder()
        assert actor_update(actor, critic, opt, batch) == actor_loss(actor, critic, batch)
        assert all(p is q for p, q in zip(opt.params, actor.params))
        h = 1e-6
        for got, p in zip(opt.grads, actor.params):
            want = np.zeros_like(p)
            flat, wflat = p.reshape(-1, order="A"), want.reshape(-1, order="A")
            assert np.shares_memory(flat, p)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                plus = actor_loss(actor, critic, batch)
                flat[i] = orig - h
                minus = actor_loss(actor, critic, batch)
                flat[i] = orig
                wflat[i] = (plus - minus) / (2 * h)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_critic_is_not_written(self):
        actor, critic, batch = small_pair(np.random.default_rng(1))
        before = params_bytes([critic])
        actor_update(actor, critic, Adam(actor.params, lr=1e-3), batch)
        assert params_bytes([critic]) == before

    def test_small_step_lowers_the_loss(self):
        actor, critic, batch = small_pair(np.random.default_rng(2))
        loss = actor_update(actor, critic, Adam(actor.params, lr=1e-4), batch)
        assert actor_loss(actor, critic, batch) < loss
