"""The benchmark's workloads: one HG2P-shaped schedule per layer under load.

Every workload is a closed loop with a single agent: the next env step is
taken only after the previous step, and any stage it triggers, has
finished. Schedules count env steps, never time, so a seed fixes the work
done up to any step.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shared by all workloads.
HIDDEN = 256  # width of the actor and both critics
BATCH = 256  # sample_batch size of one update
GAMMA = 0.99
TAU = 0.005
CRITIC_LR = 3e-4
FIT_LR = 1e-3
FIT_STEPS = 120  # set-up Adam steps fitting each critic (and the actor)
PENALTY_WEIGHT = 1.0
GRAD_BOUND = 2.5  # hinge threshold on ||dQ/dx||
EXPLORATION_STD = 0.3
TARGET_NOISE_STD = 0.2
TARGET_NOISE_CLIP = 0.5
ETA = 1.0  # edge_weights uses rel = dst - ETA * phi(s)
PSEUDO_DELTA = 0.5
HR_ALPHA = 0.1
SPEED = 0.3  # terminal speed ACCEL_SCALE / (1 - DAMPING) of the point mass
SETUP_REPEATS = 3
MIN_P90_SAMPLES = 100  # a p90 needs ten samples beyond it
# env_steps_per_s is the median rate over this many equal slices of a run's
# steps, so a burst of contention on a shared host moves it less.
RATE_SLICES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    maze: str
    max_episode_steps: int  # 0 keeps the maze's own limit
    capacity: int
    prefill_steps: int  # random-action episodes are stored until this many steps
    decide_every: int  # env steps between decisions (also at every reset)
    refresh_every: int
    update_every: int
    n_coverage: int
    n_novelty: int
    pool_size: int
    novelty_window: int
    cutoff: float  # edge cutoff on -min(Q1, Q2)
    digest_steps: int  # counts and digest are taken after this many env steps


# BENCHMARK.json gates plan_umaze24 and learn_embossed only.
# refresh_umaze12_short (replay at 200k transitions) stays runnable by hand:
# its Python-heavy refresh stage swung up to 75% between back-to-back runs
# on a shared 2-vCPU host, so its ten-seed spreads broke every allowed bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plan_umaze24",
            why="many landmarks and a decision every 10 steps: the per-decision "
            "build_graph/plan_subgoal path dominates, replay is idle",
            maze="UMaze24",
            max_episode_steps=0,
            capacity=20_000,
            prefill_steps=4000,
            decide_every=10,
            refresh_every=100,
            update_every=250,
            n_coverage=20,
            n_novelty=10,
            pool_size=500,
            novelty_window=500,
            cutoff=30.0,
            digest_steps=2000,
        ),
        Workload(
            name="refresh_umaze12_short",
            why="a full 200k buffer of ~2000 short episodes: every store evicts "
            "and every refresh weights and draws from all of them",
            maze="UMaze12",
            max_episode_steps=100,
            capacity=200_000,
            prefill_steps=200_000,
            decide_every=50,
            refresh_every=100,
            update_every=100,
            n_coverage=10,
            n_novelty=5,
            pool_size=2000,
            novelty_window=200,
            cutoff=20.0,
            digest_steps=2000,
        ),
        Workload(
            name="learn_embossed",
            why="about one critic update per two env steps: the learner's TD "
            "and gradient-penalty math dominates, graph work is rare",
            maze="EmbossedMaze",
            max_episode_steps=0,
            capacity=20_000,
            prefill_steps=10_000,
            decide_every=25,
            refresh_every=25,
            update_every=2,
            n_coverage=10,
            n_novelty=5,
            pool_size=500,
            novelty_window=200,
            cutoff=15.0,
            digest_steps=500,
        ),
    )
}

# Which per-layer metric should move which end-to-end metric, and where.
LAYER_METRIC_MAP = [
    {
        "layers": ["graphplan.build_graph", "graphplan.plan_subgoal"],
        "moves": ["decision_ms_p50", "decision_ms_p90", "env_steps_per_s"],
        "on": "plan_umaze24",
        "no_change_on": ["learn_embossed"],
    },
    {
        "layers": ["replay.sample_pool", "replay.store_episode"],
        "moves": ["refresh_ms_p50", "refresh_ms_p90", "env_steps_per_s", "peak_rss_mb"],
        "on": "refresh_umaze12_short (run by hand, not gated)",
        "no_change_on": ["plan_umaze24"],
    },
    {
        "layers": ["replay.sample_batch"],
        "moves": ["update_ms_p50", "update_ms_p90"],
        "on": "learn_embossed",
        "no_change_on": ["plan_umaze24"],
    },
    {
        "layers": ["graphplan.fps", "graphplan.select_novel", "graphplan.novelty_train"],
        "moves": ["refresh_ms_p50", "refresh_ms_p90"],
        "on": "plan_umaze24 (gated) and refresh_umaze12_short (run by hand)",
        "no_change_on": [],
    },
    {
        "layers": [
            "nets.forward_cache",
            "nets.grad_params",
            "nets.input_grad_scalar",
            "nets.double_backprop",
            "nets.adam_step",
            "nets.polyak_update",
            "nets.target_forward",
        ],
        "moves": ["update_ms_p50", "update_ms_p90", "env_steps_per_s"],
        "on": "learn_embossed",
        "no_change_on": [],
    },
    {
        # build_graph's span includes its own actor and critic forwards
        "layers": ["nets.actor_forward"],
        "moves": ["env_steps_per_s"],
        "on": "plan_umaze24",
        "no_change_on": [],
    },
    {
        "layers": ["envs.step"],
        "moves": [],
        "on": "tracked only: stays at or below ~3% of wall time everywhere",
        "no_change_on": [],
    },
]
