"""Tests for the point-maze environments."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mazehrl.envs import (
    ACCEL_SCALE,
    ACTION_BOUND,
    DAMPING,
    MAZE_BUILDERS,
    EnvState,
    MazeSpec,
    PointMazeEnv,
    Rect,
    embossed,
    make_maze,
    phi,
    reset_state,
    sample_free_point,
    spec_from_dict,
    spec_to_dict,
    step_state,
    success,
    umaze12,
)


def rollout(spec, seed, n_steps, policy=None):
    rng = np.random.default_rng(seed)
    env = PointMazeEnv(spec, rng)
    state = env.reset()
    traj, rewards = [state], []
    for _ in range(n_steps):
        a = policy(state) if policy else rng.uniform(-1, 1, size=2)
        state, reward, done = env.step(a)
        traj.append(state)
        rewards.append(reward)
        if done:
            state = env.reset()
    return traj, rewards


class TestReset:
    def test_embossed_point_start(self):
        state = reset_state(embossed(), np.random.default_rng(0))
        np.testing.assert_allclose(state.position, [-5.25, 0.0])
        np.testing.assert_array_equal(state.velocity, [0.0, 0.0])
        assert state.t == 0

    def test_same_seed_identical(self):
        a = reset_state(umaze12(), np.random.default_rng(5))
        b = reset_state(umaze12(), np.random.default_rng(5))
        assert a.position.tobytes() == b.position.tobytes()
        assert a.goal.tobytes() == b.goal.tobytes()

    def test_training_goal_avoids_walls(self):
        spec = umaze12()
        rng = np.random.default_rng(1)
        for _ in range(200):
            state = reset_state(spec, rng)
            assert not any(w.contains_interior(state.goal) for w in spec.walls)

    def test_walled_off_start_region_raises(self):
        spec = MazeSpec(
            name="walled",
            extent=Rect(-1, -1, 1, 1),
            walls=(Rect(-0.5, -0.5, 0.5, 0.5),),
            start=Rect(-0.25, -0.25, 0.25, 0.25),
            goal=(0.9, 0.9),
            eval_goal=(0.9, 0.9),
            success_radius=0.75,
            max_episode_steps=500,
        )
        with pytest.raises(RuntimeError):
            reset_state(spec, np.random.default_rng(0))

    @pytest.mark.parametrize("region", [Rect(100, 100, 101, 101), Rect(-7, -1, -5, 1)], ids=["far", "across"])
    def test_region_outside_the_extent_rejected(self, region):
        """A region wholly or partly past the extent is rejected before anything is drawn."""
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="is not inside extent"):
            sample_free_point(umaze12(), region, rng)
        assert rng.bit_generator.state == before


class TestStep:
    def test_zero_action_from_rest(self):
        spec = embossed()
        state = reset_state(spec, np.random.default_rng(0))
        new, reward, done, clamped = step_state(spec, state, np.zeros(2))
        np.testing.assert_array_equal(new.position, state.position)
        assert reward == -1.0 and not done and not clamped

    def test_sparse_success_reward_zero(self):
        spec = embossed()
        state = EnvState(np.array([5.0, 0.0]), np.zeros(2), 0, np.array([5.25, 0.0]))
        new, reward, done, _ = step_state(spec, state, np.zeros(2))
        assert reward == 0.0 and done

    def test_action_clamped_and_counted(self):
        spec = embossed()
        env = PointMazeEnv(spec, np.random.default_rng(0))
        env.reset()
        env.step(np.array([5.0, 0.0]))
        assert env.clamp_warnings == 1

    def test_nan_action_rejected_and_nothing_written(self):
        env = PointMazeEnv(umaze12(), np.random.default_rng(0))
        env.reset()
        env.step(np.array([0.5, 2.0]))
        state, warnings = env.state, env.clamp_warnings
        before = (state.position.tobytes(), state.velocity.tobytes(), state.t)
        for bad in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.inf]):
            with pytest.raises(ValueError, match="NaN"):
                env.step(np.array(bad))
            assert env.state is state and env.clamp_warnings == warnings
            assert (state.position.tobytes(), state.velocity.tobytes(), state.t) == before
        # infinities are clamped like any out-of-bound component
        env.step(np.array([np.inf, -np.inf]))
        assert env.clamp_warnings == warnings + 1
        np.testing.assert_array_equal(
            env.state.velocity, DAMPING * state.velocity + ACCEL_SCALE * np.array([1.0, -1.0])
        )

    def test_step_limit_terminates(self):
        spec = embossed()
        state = reset_state(spec, np.random.default_rng(0))
        done = False
        for i in range(spec.max_episode_steps):
            state, _, done = (lambda s, r, d, c: (s, r, d))(*step_state(spec, state, np.zeros(2)))
        assert done and state.t == spec.max_episode_steps

    def test_determinism_bit_exact(self):
        spec = umaze12()
        actions = np.random.default_rng(3).uniform(-1, 1, size=(50, 2))

        def run():
            state = reset_state(spec, np.random.default_rng(7))
            out = []
            for a in actions:
                state, reward, done, _ = step_state(spec, state, a)
                out.append((state.position.tobytes(), reward))
            return out

        assert run() == run()


class TestCollision:
    def test_slide_along_wall(self):
        spec = embossed()
        # pressed against the pocket's inner face, pushing right and up: x stays, y moves
        state = EnvState(np.array([1.0, 0.0]), np.zeros(2), 0, np.array([5.25, 0.0]))
        new, _, _, _ = step_state(spec, state, np.array([1.0, 1.0]))
        assert new.position[0] == 1.0
        assert new.position[1] > 0.0
        assert new.velocity[0] == 0.0

    def test_extent_clamp(self):
        spec = embossed()
        state = EnvState(np.array([-5.99, 0.0]), np.array([-1.0, 0.0]), 0, np.array([5.25, 0.0]))
        new, _, _, _ = step_state(spec, state, np.array([-1.0, 0.0]))
        assert new.position[0] == spec.extent.x0
        assert new.velocity[0] == 0.0

    @pytest.mark.parametrize("maze", ["UMaze12", "UMaze24", "EmbossedMaze"])
    def test_no_wall_penetration_random_episodes(self, maze):
        # 10k random-action steps across resets never end inside a wall interior
        spec = make_maze(maze)
        traj, _ = rollout(spec, seed=42, n_steps=10_000)
        for state in traj:
            p = state.position
            assert spec.extent.x0 <= p[0] <= spec.extent.x1
            assert spec.extent.y0 <= p[1] <= spec.extent.y1
            for w in spec.walls:
                assert not w.contains_interior(p)

    @pytest.mark.parametrize("maze, start, stop", [("UMaze12", (-6.0, -2.0), -0.75),
                                                   ("UMaze24", (-12.0, -3.0), -1.5)])
    def test_push_along_the_extent_edge_stops_at_the_wall(self, maze, start, stop):
        # pressed into the left edge, the ball must not slide up through the U wall
        spec = make_maze(maze)
        state = EnvState(np.array(start), np.zeros(2), 0, np.array(spec.eval_goal))
        for _ in range(40):
            state, _, _, _ = step_state(spec, state, np.array([-1.0, 1.0]))
        np.testing.assert_array_equal(state.position, [start[0], stop])

    def test_fast_crossing_blocked(self):
        spec = embossed()
        # artificial high velocity straight at the pocket's inner bar
        state = EnvState(np.array([0.0, 0.0]), np.array([3.0, 0.0]), 0, np.array([5.25, 0.0]))
        new, _, _, _ = step_state(spec, state, np.array([1.0, 0.0]))
        assert new.position[0] == pytest.approx(1.0)


# in-bound, huge and infinite components, so both clamping and wall contact are common
ACTION_COMPONENTS = st.floats(-1.0, 1.0) | st.floats(allow_nan=False)


class TestStepProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        maze=st.sampled_from(sorted(MAZE_BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
        # each action is held for a run of steps, so the point builds speed into walls
        runs=st.lists(
            st.tuples(ACTION_COMPONENTS, ACTION_COMPONENTS, st.integers(1, 40)), min_size=1, max_size=8
        ),
    )
    def test_free_positions_and_blocked_axes_stop(self, maze, seed, runs):
        spec = make_maze(maze)
        rng = np.random.default_rng(seed)
        goal = reset_state(spec, rng).goal
        state = EnvState(sample_free_point(spec, spec.extent, rng), np.zeros(2), 0, goal)
        for a in (np.array([ax, ay]) for ax, ay, steps in runs for _ in range(steps)):
            vel = DAMPING * state.velocity + ACCEL_SCALE * np.clip(a, -ACTION_BOUND, ACTION_BOUND)
            unblocked = state.position + vel
            new, _, _, clamped = step_state(spec, state, a)
            assert clamped == bool(np.any(np.abs(a) > ACTION_BOUND))
            p = new.position
            assert spec.extent.x0 <= p[0] <= spec.extent.x1
            assert spec.extent.y0 <= p[1] <= spec.extent.y1
            assert not any(w.contains_interior(p) for w in spec.walls)
            for axis in (0, 1):
                # an axis is blocked exactly when it ends short of its unblocked move
                blocked = p[axis] != unblocked[axis]
                assert new.velocity[axis] == (0.0 if blocked else vel[axis])
            state = new


def edge_biased(lo, hi, faces=()):
    """Coordinates in [lo, hi], often exactly on an edge or wall face or one ulp inside."""
    exact = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
    exact += [f for face in faces for f in (face, np.nextafter(face, lo), np.nextafter(face, hi))]
    return st.sampled_from(exact) | st.floats(lo, hi)


# mostly full pushes, so the ball is pinned to edges and faces and slides along them
PUSH = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)


class TestUWallSealed:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["UMaze12", "UMaze24"]), st.data(),
           st.lists(st.tuples(PUSH, PUSH, st.integers(1, 40)), min_size=1, max_size=8))
    def test_never_crosses_the_wall_band_left_of_its_open_end(self, maze, data, runs):
        spec = make_maze(maze)
        ext, (wall,) = spec.extent, spec.walls
        x = data.draw(edge_biased(ext.x0, wall.x1))
        y = data.draw(edge_biased(ext.y0, ext.y1, (wall.y0, wall.y1)))
        assume(not wall.contains_interior((x, y)))

        def side(p):  # -1 below the band, +1 above it, 0 inside it
            return -1 if p[1] <= wall.y0 else (1 if p[1] >= wall.y1 else 0)

        state = EnvState(np.array([x, y]), np.zeros(2), 0, np.array(spec.eval_goal))
        for a in (np.array([ax, ay]) for ax, ay, steps in runs for _ in range(steps)):
            new, _, _, _ = step_state(spec, state, a)
            if state.position[0] < wall.x1 and new.position[0] < wall.x1:
                assert side(new.position) == side(state.position) != 0
            state = new


class TestPhiSuccess:
    def test_phi_projects_position(self):
        state = EnvState(np.array([3.0, 4.0]), np.array([9.0, -9.0]), 0, np.zeros(2))
        np.testing.assert_array_equal(phi(state.observation()), [3.0, 4.0])

    def test_phi_ignores_velocity(self):
        a = EnvState(np.array([1.0, 2.0]), np.zeros(2), 0, np.zeros(2))
        b = EnvState(np.array([1.0, 2.0]), np.array([5.0, 5.0]), 0, np.zeros(2))
        np.testing.assert_array_equal(phi(a.observation()), phi(b.observation()))

    def test_phi_rejects_an_env_state(self):
        state = EnvState(np.array([3.0, 4.0]), np.zeros(2), 0, np.zeros(2))
        with pytest.raises(TypeError):
            phi(state)

    def test_phi_flat_vector_and_jacobian_norm(self):
        # selector Jacobian has one 1 per goal dim -> Frobenius norm sqrt(2)
        sel = np.zeros((2, 4))
        sel[0, 0] = sel[1, 1] = 1.0
        assert np.linalg.norm(sel) == pytest.approx(np.sqrt(2))
        np.testing.assert_array_equal(phi(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0])

    def test_success_zero_distance(self):
        assert success([1.0, 1.0], [1.0, 1.0], 0.5)

    def test_success_boundary_closed_ball(self):
        assert success([0.0, 0.0], [0.75, 0.0], 0.75)

    def test_success_beyond_radius(self):
        assert not success([0.0, 0.0], [1.0, 0.0], 0.75)

    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan"), float("inf")])
    def test_success_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            success([0.0, 0.0], [0.0, 0.0], radius)


class TestRewardField:
    def test_sparse_rewards_in_set(self):
        _, rewards = rollout(embossed(), seed=9, n_steps=2000)
        assert set(rewards) <= {-1.0, 0.0}

    def test_embossed_distance_field_two_local_maxima(self):
        # grid over free space; a cell is a local max of -distance if no free
        # 4-neighbor has strictly smaller goal distance
        spec = embossed()
        goal = np.array(spec.eval_goal)
        n = 49
        xs = np.linspace(spec.extent.x0 + 0.12, spec.extent.x1 - 0.12, n)
        ys = np.linspace(spec.extent.y0 + 0.12, spec.extent.y1 - 0.12, n)
        free = np.zeros((n, n), dtype=bool)
        reward = np.full((n, n), -np.inf)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if not any(w.contains_interior((x, y)) for w in spec.walls):
                    free[i, j] = True
                    reward[i, j] = -np.hypot(x - goal[0], y - goal[1])
        maxima = []
        for i in range(n):
            for j in range(n):
                if not free[i, j]:
                    continue
                best = True
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n and free[ii, jj] and reward[ii, jj] > reward[i, j]:
                        best = False
                        break
                if best:
                    maxima.append((xs[i], ys[j]))
        assert len(maxima) == 2
        maxima.sort()
        trap, peak = maxima
        assert trap[0] < 1.0 + 0.3 and abs(trap[1]) < 0.3  # pocket inner face
        assert np.hypot(peak[0] - goal[0], peak[1] - goal[1]) < 0.5


def json_roundtrip(spec):
    return spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))


class TestSpecIO:
    def test_roundtrip(self):
        spec = umaze12()
        assert json_roundtrip(spec) == spec

    def test_custom_walls_from_file(self):
        spec = MazeSpec(
            name="custom",
            extent=Rect(-1.0, -1.0, 1.0, 1.0),
            walls=(Rect(-0.5, -0.1, 0.5, 0.1),),
            start=(-0.9, 0.0),
            goal=Rect(-1.0, -1.0, 1.0, 1.0),
            eval_goal=(0.9, 0.0),
            success_radius=0.1,
            max_episode_steps=50,
        )
        assert json_roundtrip(spec) == spec

    @pytest.mark.parametrize("name", sorted(MAZE_BUILDERS))
    def test_builtin_mazes_roundtrip(self, name):
        assert json_roundtrip(make_maze(name)) == make_maze(name)

    def test_spec_without_walls_roundtrips(self):
        """``walls`` is then an empty list, which has no row shape of its own."""
        spec = MazeSpec(name="open", extent=Rect(-1.0, -1.0, 1.0, 1.0), walls=(), start=(-0.5, 0.0),
                        goal=(0.5, 0.0), eval_goal=(0.5, 0.0), success_radius=0.75, max_episode_steps=500)
        assert json_roundtrip(spec) == spec

    def test_points_on_the_extent_boundary_load(self):
        obj = {**spec_to_dict(umaze12()), "start": {"point": [6.0, -6.0]}, "eval_goal": [-6.0, 6.0]}
        assert spec_from_dict(obj).start == (6.0, -6.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("start", {"point": [10.0, 10.0]}),  # the first step would jump it to (6, 6)
            ("eval_goal", [50.0, 0.0]),  # never reachable
            ("goal", {"point": [0.0, -6.5]}),
            ("start", {"point": [float("nan"), 0.0]}),
            ("goal", {"rect": [-6.0, -6.0, 6.5, 6.0]}),
            ("start", {"rect": [-7.0, -7.0, -5.0, -5.0]}),
            ("success_radius", float("nan")),  # episodes could never succeed
            ("success_radius", 0.0),
            ("start", {"point": [-4.5, -4.5, 7.0]}),  # reset_state would return 3 coordinates
            ("eval_goal", [0.0]),  # must raise ValueError, not IndexError
            ("walls", [[float("nan"), -0.75, 3.0, 0.75]]),  # a NaN wall blocks nothing
            ("walls", [[-6.0, -0.75, 3.0, 0.75]]),  # a face on the extent's edge leaks
            ("walls", [[-3.0, -0.75, 6.0, 0.75]]),
            ("walls", [[-3.0, -6.0, -2.0, 0.0]]),
            ("walls", [[-3.0, 0.0, -2.0, 6.0]]),
            ("success_radius", float("inf")),  # every position would succeed
            ("format", "mazehrl-maze-v1"),  # v1 carried a reward_mode, which may be "dense"
            ("max_episode_steps", float("nan")),  # an episode would never end
            ("max_episode_steps", float("inf")),
            ("max_episode_steps", 2.5),  # would end after 3 steps
            ("max_episode_steps", 0),
            ("start", {"pont": [0.0, 0.0]}),  # neither a point nor a rect
        ],
    )
    def test_spec_from_dict_rejects(self, key, value):
        obj = {**spec_to_dict(umaze12()), key: value}
        with pytest.raises(ValueError):
            spec_from_dict(obj)

    @pytest.mark.parametrize("key", sorted(spec_to_dict(umaze12())))
    def test_spec_from_dict_missing_key_rejected(self, key):
        obj = spec_to_dict(umaze12())
        del obj[key]
        with pytest.raises(ValueError, match=key):
            spec_from_dict(obj)

    def test_unknown_maze_name(self):
        with pytest.raises(ValueError):
            make_maze("NoSuchMaze")

    def test_start_inside_wall_rejected(self):
        with pytest.raises(ValueError):
            MazeSpec(
                name="bad",
                extent=Rect(-1, -1, 1, 1),
                walls=(Rect(-0.5, -0.5, 0.5, 0.5),),
                start=(0.0, 0.0),
                goal=(0.9, 0.9),
                eval_goal=(0.9, 0.9),
                success_radius=0.75,
                max_episode_steps=500,
            )
