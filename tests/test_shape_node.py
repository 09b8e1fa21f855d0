"""Shape model: prior behavior, losses, gradients, training, persistence."""

import base64
import json

import numpy as np
import pytest

from helpers import (
    arc_backbone,
    fd_grad_at,
    per_coordinate_tip_jacobian,
    rel_err,
    sample_coords,
    single_tip_jacobian,
)
from shapectl import autodiff as ad
from shapectl import shape_node
from shapectl.autodiff import Tape
from shapectl.nn import adam_step, collect_mlp_grads, init_mlp
from shapectl.odeint import IntegrationGrid, integrate
from shapectl.robot import (
    RobotConfig,
    action_to_curvature,
    forward_kinematics,
    sample_dataset,
)
from shapectl.shape_node import (
    LOSS_EPS_SQ,
    TRAIN_DTYPE,
    ShapeNodeModel,
    ShapeRollout,
    ShapeTrainConfig,
    evaluate_shape_rmse,
    init_shape_model,
    load_shape_model,
    predict_shape_batch,
    rollout_shape,
    save_shape_model,
    shape_loss_tensor,
    tip_jacobian,
    train_shape_node,
    validation_split,
)


def small_model(rng, cfg, **kw):
    return init_shape_model(rng, cfg, hidden=(16, 16), **kw)


def perturbed_model(rng, cfg, scale=0.05, **kw):
    """Prior model with a nonzero final layer so dynamics depend on state."""
    m = small_model(rng, cfg, **kw)
    m.params.weights[-1][:] = scale * rng.standard_normal(m.params.weights[-1].shape)
    m.params.biases[-1][:] += 0.02 * rng.standard_normal(7)
    return m


def test_model_width_validation(rng):
    with pytest.raises(ValueError):
        ShapeNodeModel(params=init_mlp(rng, [6, 8, 7]))
    with pytest.raises(ValueError):
        ShapeNodeModel(params=init_mlp(rng, [7, 8, 7]), steps_per_segment=0)


def test_train_config_validation():
    ShapeTrainConfig()
    with pytest.raises(ValueError):
        ShapeTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        ShapeTrainConfig(iterations=0)
    with pytest.raises(ValueError):
        ShapeTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ShapeTrainConfig(val_fraction=1.0)


def test_prior_model_predicts_straight_backbone(rng):
    for n in (1, 3):
        cfg = RobotConfig(n_segments=n)
        model = small_model(rng, cfg)
        points = predict_shape_batch(model, np.zeros((1, 2 * n)), cfg)[0]
        assert np.linalg.norm(points[-1] - [0.0, 0.0, cfg.total_length]) < 1e-9
        assert np.all(points[:, :2] == 0.0)
        assert points.shape == (10 * n, 3)


def test_prior_model_ignores_action(rng):
    cfg = RobotConfig(n_segments=2)
    model = small_model(rng, cfg)
    a = predict_shape_batch(model, np.array([[3.0, -5.0, 1.0, 2.0]]), cfg)
    b = predict_shape_batch(model, np.zeros((1, 4)), cfg)
    assert np.array_equal(a, b)


def test_predict_batch_matches_solo(rng):
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=(4, 4))
    batch = predict_shape_batch(model, q, cfg)
    assert batch.shape == (4, 20, 3)
    for b in range(4):
        solo = predict_shape_batch(model, q[b : b + 1], cfg)[0]
        assert np.allclose(batch[b], solo, atol=1e-12)


def test_segment_chaining_is_sequential_solves(rng):
    cfg = RobotConfig(n_segments=2, segment_lengths=(0.1, 0.15))
    model = perturbed_model(rng, cfg)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=4)

    tape = Tape()
    ro = rollout_shape(model, cfg, tape, q.reshape(1, -1))
    joint = np.stack([t.value[0] for t in ro.points])

    # manual: same primitives, one segment at a time, reseeded by hand
    tape2 = Tape()
    mt = model.params.as_tensors(tape2)
    from shapectl.nn import mlp_forward

    u0 = action_to_curvature(cfg, q.reshape(1, -1), mismatch=False)
    field = lambda t, x, u: mlp_forward(mt, x)
    p = tape2.tensor(np.zeros((1, 3)))
    aug = tape2.tensor(np.zeros((1, 1)))
    manual = []
    for seg in range(2):
        x0 = ad.concat([p, tape2.tensor(u0[:, seg]), aug], axis=1)
        grid = IntegrationGrid(0.0, cfg.segment_lengths[seg], model.steps_per_segment)
        states = integrate(field, x0, grid, model.solver)
        for st in states[1:]:
            manual.append(st.value[0, :3])
        p = ad.slice_cols(states[-1], 0, 3)
        # the augmentation column seeds the next segment unreset
        aug = ad.slice_cols(states[-1], 6, 7)
    assert np.array_equal(joint, np.stack(manual))


def _loss_of_points(predicted, truth) -> float:
    """shape_loss_tensor on a (batch, P, 3) prediction given as constants."""
    tape = Tape()
    points = [tape.constant(predicted[:, k]) for k in range(predicted.shape[1])]
    return float(shape_loss_tensor(ShapeRollout(points=points, mt=None), truth).value)


def test_shape_loss_examples(rng):
    cfg = RobotConfig(n_segments=1)
    truth = forward_kinematics(cfg, np.array([4.0, -2.0])).points[None, 1:]
    assert _loss_of_points(truth, truth) == pytest.approx(np.sqrt(LOSS_EPS_SQ), rel=1e-12)
    moved = truth + np.array([0.003, 0.0, 0.0])
    assert _loss_of_points(moved, truth) == pytest.approx(0.003, abs=1e-15)
    a = rng.standard_normal((3, 10, 3))
    b = rng.standard_normal((3, 10, 3))
    brute = np.mean(
        [np.linalg.norm(a[i, j] - b[i, j]) for i in range(3) for j in range(10)]
    )
    assert _loss_of_points(a, b) == pytest.approx(brute, rel=1e-12)


def test_shape_loss_tensor_matches_value(rng):
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=(3, 4))
    truth = np.stack(
        [forward_kinematics(cfg, qi).points[1:] for qi in q], axis=0
    )
    tape = Tape()
    ro = rollout_shape(model, cfg, tape, q)
    taped = float(shape_loss_tensor(ro, truth).value)
    pred = predict_shape_batch(model, q, cfg)
    value = np.mean(np.linalg.norm(pred - truth, axis=-1))
    assert taped == pytest.approx(value, rel=1e-9)


def test_shape_loss_tensor_shape_check(rng):
    cfg = RobotConfig(n_segments=1)
    model = small_model(rng, cfg)
    tape = Tape()
    ro = rollout_shape(model, cfg, tape, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        shape_loss_tensor(ro, np.zeros((2, 9, 3)))


def test_loss_gradient_matches_finite_differences(rng):
    # 2-step arc integration so finite differences stay cheap
    cfg = RobotConfig(n_segments=1)
    model = perturbed_model(rng, cfg, solver="rk4", steps_per_segment=2)
    q = rng.uniform(-10.0, 10.0, size=(3, 2))
    # the simulated robot on the model's 2-point grid
    truth = np.stack(
        [
            arc_backbone(action_to_curvature(cfg, qi, True), cfg.segment_lengths, 2)[1:]
            for qi in q
        ]
    )

    def loss_value():
        tape = Tape()
        ro = rollout_shape(model, cfg, tape, q)
        return float(shape_loss_tensor(ro, truth).value)

    tape = Tape()
    ro = rollout_shape(model, cfg, tape, q)
    loss = shape_loss_tensor(ro, truth)
    grads = ad.backward(loss)
    from shapectl.nn import collect_mlp_grads

    analytic = collect_mlp_grads(grads, ro.mt)
    arrays = model.params.param_arrays()
    nonzero = 0.0
    for a_grad, arr in zip(analytic, arrays):
        nonzero += float(np.abs(a_grad).sum())
        for idx in sample_coords(rng, arr.shape, 4):
            fd = fd_grad_at(loss_value, arr, idx, eps=1e-6)
            assert rel_err(a_grad[idx], fd) < 1e-4
    assert nonzero > 0.0


def test_tip_jacobian_zero_for_prior(rng):
    cfg = RobotConfig(n_segments=2)
    model = small_model(rng, cfg)
    _, jac = tip_jacobian(model, np.array([1.0, 2.0, -3.0, 0.5]), cfg)
    assert jac.shape == (3, 4)
    assert np.all(jac == 0.0)


def test_tip_jacobian_matches_finite_differences(rng):
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg)
    for q in (
        rng.uniform(-8.0, 8.0, size=4),  # interior: clamp inactive
        np.array([12.0, 12.0, -13.0, 9.0]),  # norms > u_max: clamp active
    ):
        _, jac = tip_jacobian(model, q, cfg)
        q_work = q.copy()
        for j in range(3):
            for c in range(4):
                def tip_component():
                    tip = predict_shape_batch(model, q_work[None], cfg)[0, -1]
                    return float(tip[j])

                fd = fd_grad_at(tip_component, q_work, c, eps=1e-5)
                assert rel_err(jac[j, c], fd) < 1e-3, (j, c)


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4])
def test_tip_jacobian_single_sweep_equals_per_coordinate_sweeps(rng, n_segments):
    cfg = RobotConfig(n_segments=n_segments)
    model = perturbed_model(rng, cfg)
    signs = rng.choice([-1.0, 1.0], size=2 * n_segments)
    for q in (
        rng.uniform(-8.0, 8.0, size=2 * n_segments),  # clamp inactive
        signs * rng.uniform(11.0, 15.0, size=2 * n_segments),  # norms > u_max
    ):
        tip, jac = tip_jacobian(model, q, cfg)
        want = per_coordinate_tip_jacobian(model, q, cfg)
        assert jac.shape == (3, 2 * n_segments)
        assert np.abs(jac - want).max() <= 1e-12 * np.abs(want).max()
        pred = predict_shape_batch(model, q[None], cfg)[0, -1]
        assert tip.shape == (3,)
        assert np.abs(tip - pred).max() <= 1e-15
        tip2, jac2 = tip_jacobian(model, q, cfg)
        assert np.array_equal(tip, tip2) and np.array_equal(jac, jac2)
        # a single action's call is the one-action arithmetic, bit for bit
        tip3, jac3 = single_tip_jacobian(model, q, cfg)
        assert np.array_equal(tip, tip3) and np.array_equal(jac, jac3)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_batched_tip_jacobian_rows_match_single_calls(rng, m):
    cfg = RobotConfig(n_segments=3)
    model = perturbed_model(rng, cfg)
    # norms up to 14 * sqrt(2): some segments saturate, some do not
    q = rng.uniform(-14.0, 14.0, size=(m, cfg.action_dim))
    tips, jacs = tip_jacobian(model, q, cfg)
    assert tips.shape == (m, 3)
    assert jacs.shape == (m, 3, cfg.action_dim)
    for qi, tip, jac in zip(q, tips, jacs):
        tip1, jac1 = tip_jacobian(model, qi, cfg)
        assert np.array_equal(tip, tip1)
        assert np.abs(jac - jac1).max() <= 1e-12 * np.abs(jac1).max()


def test_shape_continuity_in_action(rng):
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg)
    q = rng.uniform(-8.0, 8.0, size=4)
    base = predict_shape_batch(model, q[None], cfg)[0]
    _, jac = tip_jacobian(model, q, cfg)
    jac_norm = np.linalg.norm(jac, 2)
    delta = 1e-3 * rng.standard_normal(4)
    delta /= np.linalg.norm(delta) * 1e3  # exactly 1e-3
    moved = predict_shape_batch(model, (q + delta)[None], cfg)[0]
    sup = np.abs(moved - base).max()
    assert sup <= 10.0 * jac_norm * 1e-3 + 1e-9


def make_training_setup(rng, n_samples=240, mismatch_amplitude=0.1):
    cfg = RobotConfig(n_segments=1, mismatch_amplitude=mismatch_amplitude)
    q, points = sample_dataset(cfg, n_samples, rng)
    return cfg, q, points


def test_training_reduces_validation_loss(rng):
    cfg, q, points = make_training_setup(rng)
    train_cfg = ShapeTrainConfig(
        batch_size=64, iterations=60, val_interval=10, seed=5
    )
    model = small_model(np.random.default_rng(7), cfg)
    model, history = train_shape_node(q, points, train_cfg, cfg, model=model)
    assert len(history) == 60
    iters, train_losses, val_losses = zip(*history)
    assert iters == tuple(range(1, 61))
    assert all(np.isfinite(train_losses))
    assert val_losses[-1] < val_losses[0]


def test_validation_split_sizes_and_stream():
    rng = np.random.default_rng(3)
    val, train = validation_split(20, 0.1, rng)
    assert len(val) == 2 and len(train) == 18
    # one permutation drawn from the generator, which the trainer's batch
    # order then continues
    ref = np.random.default_rng(3)
    assert np.array_equal(np.concatenate([val, train]), ref.permutation(20))
    assert rng.random() == ref.random()
    assert len(validation_split(5, 0.01, np.random.default_rng(0))[0]) == 1
    with pytest.raises(ValueError, match="too small"):
        validation_split(1, 0.1, np.random.default_rng(0))


def test_training_empty_dataset(rng):
    cfg = RobotConfig(n_segments=1)
    model = small_model(rng, cfg)
    with pytest.raises(ValueError, match="too small"):
        train_shape_node(
            np.zeros((0, 2)), np.zeros((0, 10, 3)), ShapeTrainConfig(), cfg, model
        )


def test_training_rejects_datasets_off_the_model_grid(rng):
    cfg = RobotConfig(n_segments=1)
    q, points = sample_dataset(cfg, 8, rng, points_per_segment=5)
    model = small_model(rng, cfg)  # 10 steps per segment
    with pytest.raises(ValueError, match="steps per segment"):
        train_shape_node(q, points, ShapeTrainConfig(), cfg, model)
    with pytest.raises(ValueError, match="do not fit"):
        train_shape_node(q[:4], points, ShapeTrainConfig(), cfg, model)


def test_training_divergence_names_iteration(rng):
    cfg, q, points = make_training_setup(rng, n_samples=40)
    model = small_model(rng, cfg)
    model.params.weights[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="iteration 1"):
        train_shape_node(
            q, points, ShapeTrainConfig(batch_size=8, iterations=3), cfg, model=model
        )


def test_training_persistence_roundtrip_is_transparent(rng, tmp_path):
    cfg, q, points = make_training_setup(rng, n_samples=80)
    first = ShapeTrainConfig(batch_size=32, iterations=4, val_interval=2, seed=3)
    second = ShapeTrainConfig(batch_size=32, iterations=4, val_interval=2, seed=9)

    def leg_one():
        m = small_model(np.random.default_rng(11), cfg)
        m, _ = train_shape_node(q, points, first, cfg, model=m)
        return m

    # path A: save/load between the legs; path B: straight through
    ma = leg_one()
    save_shape_model(tmp_path / "m.json", ma, cfg)
    ma, cfg_loaded = load_shape_model(tmp_path / "m.json")
    assert cfg_loaded == cfg
    ma, _ = train_shape_node(q, points, second, cfg, model=ma)

    mb = leg_one()
    mb, _ = train_shape_node(q, points, second, cfg, model=mb)

    for wa, wb in zip(ma.params.weights, mb.params.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(ma.params.biases, mb.params.biases):
        assert np.array_equal(ba, bb)


def test_training_runs_float32_keeps_float64_state(rng, tmp_path, monkeypatch):
    cfg, q, points = make_training_setup(rng, n_samples=80)
    seen = []

    def spy(params, grads, lr):
        seen.extend(g.dtype for g in grads)
        return adam_step(params, grads, lr)

    monkeypatch.setattr(shape_node, "adam_step", spy)
    train_cfg = ShapeTrainConfig(batch_size=32, iterations=3, val_interval=2)
    model = small_model(np.random.default_rng(3), cfg)
    model, _ = train_shape_node(q, points, train_cfg, cfg, model=model)
    assert seen and set(seen) == {np.dtype(TRAIN_DTYPE)} == {np.dtype(np.float32)}
    p = model.params
    state = {
        "weights": p.weights, "biases": p.biases, "adam_m": p.adam_m, "adam_v": p.adam_v
    }
    for arrays in state.values():
        assert arrays and all(a.dtype == np.float64 for a in arrays)
    path = tmp_path / "m.json"
    save_shape_model(path, model, cfg)
    saved = json.loads(path.read_text())["params"]
    for key, arrays in state.items():
        for enc, a in zip(saved[key], arrays, strict=True):
            raw = base64.b64decode(enc["data"])
            assert len(raw) == 8 * a.size
            assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(a.shape), a)


def test_float32_training_gradient_matches_float64(rng):
    # float32 rounds at ~1.2e-7 relative per operation; over 2 segments of
    # 10 fixed-adams steps the per-array gradients agree to 2e-7..5e-7
    # (8 seeds), so 1e-5 leaves a 20x margin and still catches a float16
    # or a dropped term
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg)
    q, truth = sample_dataset(cfg, 32, rng)
    grads = {}
    for dtype in (np.float64, TRAIN_DTYPE):
        ro = rollout_shape(model, cfg, Tape(dtype), q)
        grads[dtype] = collect_mlp_grads(ad.backward(shape_loss_tensor(ro, truth)), ro.mt)
    for g32, g64 in zip(grads[TRAIN_DTYPE], grads[np.float64], strict=True):
        assert g32.dtype == np.float32
        assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)


def test_model_file_errors(rng, tmp_path):
    cfg = RobotConfig(n_segments=1)
    model = small_model(rng, cfg)
    path = tmp_path / "model.json"
    save_shape_model(path, model, cfg)

    loaded, loaded_cfg = load_shape_model(path)
    assert loaded.solver == model.solver
    assert loaded_cfg == cfg
    for wa, wb in zip(loaded.params.weights, model.params.weights):
        assert np.array_equal(wa, wb)

    (tmp_path / "garbage.json").write_text("{not json")
    with pytest.raises(ValueError):
        load_shape_model(tmp_path / "garbage.json")

    import json

    doc = json.loads(path.read_text())
    doc["robot_config"]["u_max"] = 12.0
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hash"):
        load_shape_model(tmp_path / "tampered.json")

    doc2 = json.loads(path.read_text())
    del doc2["params"]
    (tmp_path / "partial.json").write_text(json.dumps(doc2))
    with pytest.raises(ValueError):
        load_shape_model(tmp_path / "partial.json")

    doc3 = json.loads(path.read_text())
    doc3["format"] = "something-else"
    (tmp_path / "other.json").write_text(json.dumps(doc3))
    with pytest.raises(ValueError):
        load_shape_model(tmp_path / "other.json")


def test_int_robot_limits_round_trip(rng, tmp_path):
    # python ints for u_max and mismatch_amplitude are stored as floats,
    # so the saved hash matches the config the file loads back
    cfg = RobotConfig(n_segments=1, u_max=15, mismatch_amplitude=0)
    assert cfg == RobotConfig(n_segments=1, u_max=15.0, mismatch_amplitude=0.0)
    assert isinstance(cfg.u_max, float) and isinstance(cfg.mismatch_amplitude, float)
    path = tmp_path / "model.json"
    save_shape_model(path, small_model(rng, cfg), cfg)
    _, loaded_cfg = load_shape_model(path)
    assert loaded_cfg == cfg
    assert '"u_max": 15.0' in path.read_text()


def test_evaluate_shape_rmse_zero_and_noise(rng):
    cfg = RobotConfig(n_segments=1)
    model = small_model(rng, cfg)
    # truth manufactured from the model's own batched predictions: RMSE 0
    q = rng.uniform(cfg.q_min, cfg.q_max, size=(20, 2))
    pred = predict_shape_batch(model, q, cfg)
    res = evaluate_shape_rmse(model, q, pred, cfg)
    assert np.all(res.rmse_mm == 0.0)
    assert res.n_samples == 20

    sigma = 0.002
    big_q = rng.uniform(cfg.q_min, cfg.q_max, size=(400, 2))
    base = predict_shape_batch(model, big_q, cfg)
    noisy_pts = base + rng.normal(0.0, sigma, size=base.shape)
    res = evaluate_shape_rmse(model, big_q, noisy_pts, cfg)
    assert np.allclose(res.rmse_mm, sigma * 1000.0, rtol=0.05)
    assert np.allclose(res.std_mm, sigma * 1000.0, rtol=0.05)


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4])
def test_float32_rollout_with_taped_action_keeps_dtype(rng, n_segments, monkeypatch):
    # policy training tapes the action on a float32 tape; a float64
    # curvature value or action adjoint would turn the whole shape solve
    # float64, so every recorded value and every adjoint is checked
    cfg = RobotConfig(n_segments=n_segments)
    model = perturbed_model(rng, cfg)
    recorded = []
    record = Tape._record

    def spy(tape, value, parents, backfn):
        recorded.append(value.dtype)
        if backfn is not None:
            inner = backfn

            def backfn(grad):
                contribs = inner(grad)
                recorded.extend(c.dtype for c in contribs if c is not None)
                return contribs

        return record(tape, value, parents, backfn)

    monkeypatch.setattr(Tape, "_record", spy)
    signs = rng.choice([-1.0, 1.0], size=(3, 2 * n_segments))
    for q in (
        rng.uniform(-8.0, 8.0, size=(3, 2 * n_segments)),  # clamp inactive
        signs * rng.uniform(11.0, 15.0, size=(3, 2 * n_segments)),  # norms > u_max
    ):
        tape = Tape(np.float32)
        q_leaf = tape.tensor(q)
        ro = rollout_shape(model, cfg, tape, q_leaf)
        loss = ad.reduce_sum(ad.concat(ro.points, axis=1))
        grads = ad.backward(loss)
        assert q_leaf.nid in grads
        assert all(p.value.dtype == np.float32 for p in ro.points)
        assert all(g.dtype == np.float32 for g in grads.values())
    assert recorded and set(recorded) == {np.dtype(np.float32)}


def test_rollout_action_tensor_matches_array_path(rng):
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg, solver="rk4", steps_per_segment=5)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=(4, 4))
    tape = Tape()
    ro_arr = rollout_shape(model, cfg, tape, q)
    ro_ten = rollout_shape(model, cfg, tape, tape.tensor(q))
    for pa, pt in zip(ro_arr.points, ro_ten.points):
        assert np.array_equal(pa.value, pt.value)


def test_rollout_action_gradient_fd(rng):
    # rows both inside and beyond the curvature clamp, away from the edge
    cfg = RobotConfig(n_segments=2)
    model = perturbed_model(rng, cfg, solver="rk4", steps_per_segment=3)
    q = np.array(
        [
            [1.0, 2.0, -3.0, 4.0],
            [14.0, 8.0, -12.0, 10.0],
        ]
    )

    def total_of(points):
        out = None
        for p in points:
            term = ad.reduce_sum(p)
            out = term if out is None else ad.add(out, term)
        return out

    tape = Tape()
    qt = tape.tensor(q)
    loss = total_of(rollout_shape(model, cfg, tape, qt).points)
    grad = ad.grad_of(ad.backward(loss), qt)
    assert grad.shape == q.shape

    def value_loss(q_arr):
        t = Tape()
        ro = rollout_shape(model, cfg, t, q_arr)
        return float(sum(p.value.sum() for p in ro.points))

    fd = np.zeros_like(q)
    eps = 1e-6
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp = q.copy()
            qp[i, j] += eps
            qm = q.copy()
            qm[i, j] -= eps
            fd[i, j] = (value_loss(qp) - value_loss(qm)) / (2 * eps)
    assert rel_err(grad, fd) < 1e-5
