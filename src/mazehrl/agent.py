"""The low level's TD3 updates (arXiv 1802.09477), with the model-free Q-gradient penalty.

``critic_update`` is one penalised step of twin critics, and ``actor_update``
one deterministic-policy-gradient step of the actor; the policy delay
belongs to the caller's loop. Both read a minibatch as
``TrajectoryBuffer.sample_batch`` or ``sample_relabelled`` draws it, with
exactly the five columns ``s``, ``sg``, ``a``, ``s_next`` and ``sg_next``
(``replay.FIELDS``): the reward and the episode's end are derived from
``sg_next`` and the success radius, so a relabelled goal gets its own.

An observation is ``[s, sg]`` and a critic input ``[s, sg, a]``. The
penalty is the hinge ``max(||dQ/dx|| - GRAD_BOUND, 0)`` on the gradient
over the whole critic input x, squared and weighted by ``PENALTY_WEIGHT``;
its parameter gradient is ``Mlp.double_backprop``'s. The constants are the
bench's, whose update this is.
"""

from __future__ import annotations

import numpy as np

from ._checks import POSITIVE, check_real
from .envs import ACTION_BOUND
from .nets import polyak_update

__all__ = ["critic_update", "actor_update"]

GAMMA = 0.99  # discount
TAU = 0.005  # Polyak rate of the target critics
TARGET_NOISE_STD = 0.2  # target-policy smoothing noise, clipped at +-TARGET_NOISE_CLIP
TARGET_NOISE_CLIP = 0.5
GRAD_BOUND = 2.5  # hinge threshold on ||dQ/dx||
PENALTY_WEIGHT = 1.0


def critic_update(critics, targets, opts, actor, batch, rng, radius):
    """One penalised TD step of the twin ``critics``, each by its Adam in ``opts``, then Polyak.

    The TD target is ``y = -1 + GAMMA * min(Q'1, Q'2)(s_next, sg_next, a')``,
    or 0 where the step reached its goal (``||sg_next|| <= radius``).
    ``actor`` (TD3's target policy) picks ``a'``, plus ``rng``'s
    N(0, TARGET_NOISE_STD) noise clipped at ``TARGET_NOISE_CLIP``, and
    ``a'`` is clipped to the action bound. Each critic then takes one Adam
    step on its mean squared TD error plus the penalty. A step whose
    gradient is not finite raises ``FloatingPointError`` before any write
    (``Adam.step``); it is skipped and counted. Last, both ``targets`` move
    toward their critics at ``TAU``.

    Returns ``(td_losses, penalty_losses, active, skipped)``: each critic's
    mean squared TD error and weighted mean squared hinge excess, before its
    step; the samples whose hinge was active, over both critics; and the
    skipped steps.
    """
    radius = check_real(radius, "radius", POSITIVE)
    obs_next = np.concatenate([batch["s_next"], batch["sg_next"]], axis=1)
    noise = np.clip(rng.normal(0.0, TARGET_NOISE_STD, batch["a"].shape),
                    -TARGET_NOISE_CLIP, TARGET_NOISE_CLIP)
    act = np.clip(actor.forward(obs_next) + noise, -ACTION_BOUND, ACTION_BOUND)
    x_next = np.concatenate([obs_next, act], axis=1)
    q_next = np.minimum(targets[0].forward(x_next)[:, 0], targets[1].forward(x_next)[:, 0])
    reached = np.linalg.norm(batch["sg_next"], axis=1) <= radius
    y = np.where(reached, 0.0, -1.0) + GAMMA * ~reached * q_next

    x = np.concatenate([batch["s"], batch["sg"], batch["a"]], axis=1)
    n = len(x)
    td_losses, penalty_losses, active, skipped = [], [], 0, 0
    for q, opt in zip(critics, opts):
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
        td_losses.append(float(np.mean(td * td)))
        penalty_losses.append(PENALTY_WEIGHT * float(np.mean(excess * excess)))
        active += int(np.count_nonzero(excess))
    for target, q in zip(targets, critics):
        polyak_update(target.params, q.params, TAU)
    return td_losses, penalty_losses, active, skipped


def actor_update(actor, critic, opt, batch):
    """One Adam step (``opt``) of ``actor`` on ``-mean Q(s, sg, pi(s, sg))``; returns that loss.

    dQ/da is the action columns of ``critic.input_grad_scalar`` on the
    critic's cache of ``[s, sg, pi(s, sg)]``; the critic is not written.
    A non-finite gradient raises ``FloatingPointError`` before any write.
    """
    obs = np.concatenate([batch["s"], batch["sg"]], axis=1)
    cache = actor.forward_cache(obs)
    q_cache = critic.forward_cache(np.concatenate([obs, actor.output(cache)], axis=1))
    loss = -float(np.mean(critic.output(q_cache)))
    dq_da = critic.input_grad_scalar(q_cache)[0][:, obs.shape[1]:]
    opt.step(actor.params, actor.grad_params_cached(cache, -dq_da / len(obs)))
    return loss
