"""Ground-truth simulator: closed-form oracles, invariants, geometry."""

import numpy as np
import pytest

from helpers import arc_backbone
from shapectl.robot import (
    BackboneShape,
    ObstacleSpec,
    RobotConfig,
    action_to_curvature,
    apply_payload,
    backbone_arc_coords,
    forward_kinematics,
    min_obstacle_distance,
    reference_trajectory,
    sample_dataset,
)


def test_config_defaults_and_validation():
    cfg = RobotConfig(n_segments=3)
    assert cfg.segment_lengths == (0.1, 0.1, 0.1)
    assert cfg.total_length == pytest.approx(0.3)
    assert cfg.action_dim == 6
    assert cfg.q_min == -15.0 and cfg.q_max == 15.0
    with pytest.raises(ValueError):
        RobotConfig(n_segments=0)
    with pytest.raises(ValueError):
        RobotConfig(n_segments=5)
    with pytest.raises(ValueError):
        RobotConfig(n_segments=2, segment_lengths=(0.1,))
    with pytest.raises(ValueError):
        RobotConfig(n_segments=1, segment_lengths=(-0.1,))
    with pytest.raises(ValueError):
        RobotConfig(u_max=0.0)
    with pytest.raises(ValueError):
        RobotConfig(mismatch_amplitude=-0.1)
    for bad in (float("nan"), float("inf"), float("-inf")):
        for name in ("u_max", "mismatch_amplitude"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RobotConfig(**{name: bad})
        with pytest.raises(ValueError, match="segment lengths must be finite"):
            RobotConfig(n_segments=1, segment_lengths=(bad,))


def test_action_box_is_read_only_and_not_read_back():
    cfg = RobotConfig(n_segments=2, u_max=12.0)
    assert (cfg.q_min, cfg.q_max) == (-12.0, 12.0)
    with pytest.raises(AttributeError):
        cfg.q_min = -3.0
    with pytest.raises(TypeError):
        RobotConfig(q_min=-3.0)
    # u_max owns the bounds: the written dict holds no box, and reading
    # ignores one
    d = cfg.to_dict()
    assert not {"q_min", "q_max"} & set(d)
    assert RobotConfig.from_dict({**d, "q_min": -3.0, "q_max": 5.0}) == cfg


def test_config_roundtrip():
    cfg = RobotConfig(n_segments=2, segment_lengths=(0.1, 0.15), u_max=12.0)
    assert RobotConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("key", ["u_max", "mismatch_amplitude", "segment_lengths"])
@pytest.mark.parametrize(
    "value", ["15", True, float("inf"), float("nan")], ids=["str", "bool", "inf", "nan"]
)
def test_read_lengths_and_limits_are_json_numbers(key, value):
    # float("15") and float(True) would read as numbers; json reads
    # Infinity and NaN, which a config file cannot hold and the
    # constructor refuses
    d = RobotConfig(n_segments=2).to_dict()
    d[key] = [0.1, value] if key == "segment_lengths" else value
    name = "segment length" if key == "segment_lengths" else key
    if isinstance(value, float):
        message = f"{name}s? must be finite"
    else:
        message = f"{name} must be a number"
    with pytest.raises(ValueError, match=message):
        RobotConfig.from_dict(d)


def test_empty_segment_lengths_mean_the_default_only_in_the_constructor():
    cfg = RobotConfig(n_segments=2, segment_lengths=())
    assert cfg == RobotConfig(n_segments=2)
    assert cfg.segment_lengths == (0.1, 0.1)
    # a written config states every length and an integer segment count
    d = cfg.to_dict()
    for bad in ({"segment_lengths": []}, {"n_segments": 2.0}, {"n_segments": True}):
        with pytest.raises(ValueError):
            RobotConfig.from_dict({**d, **bad})


def test_curvature_vector_torsion_must_be_zero(rng):
    # the arc composition is written out for u_z = 0
    cfg = RobotConfig(n_segments=4)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=(20, 8))
    for mismatch in (False, True):
        u = action_to_curvature(cfg, q, mismatch=mismatch)
        assert np.all(u[..., 2] == 0.0)


def test_action_to_curvature_identity_within_norm():
    cfg = RobotConfig(n_segments=1)
    u = action_to_curvature(cfg, np.array([5.0, -3.0]), mismatch=False)
    assert np.allclose(u[0], [5.0, -3.0, 0.0])


def test_action_to_curvature_saturates():
    cfg = RobotConfig(n_segments=1)
    u = action_to_curvature(cfg, np.array([15.0, 15.0]), mismatch=False)
    assert np.linalg.norm(u[0]) == pytest.approx(15.0)
    # direction preserved
    assert u[0][0] == pytest.approx(u[0][1])


def test_action_to_curvature_bounds_error():
    cfg = RobotConfig(n_segments=1)
    with pytest.raises(ValueError):
        action_to_curvature(cfg, np.array([16.0, 0.0]), mismatch=False)
    with pytest.raises(ValueError):
        action_to_curvature(cfg, np.array([0.0, 0.0, 0.0]), mismatch=False)


def test_action_to_curvature_batch_matches_rows(rng):
    cfg = RobotConfig(n_segments=3)
    q = rng.uniform(-25.0, 25.0, size=(8, 6)).clip(cfg.q_min, cfg.q_max)
    for mismatch in (False, True):
        u = action_to_curvature(cfg, q, mismatch=mismatch)
        assert u.shape == (8, 3, 3)
        for b in range(8):
            row = action_to_curvature(cfg, q[b], mismatch=mismatch)
            assert np.array_equal(u[b], row)
    with pytest.raises(ValueError):
        action_to_curvature(cfg, np.full((1, 6), 20.0), mismatch=False)
    with pytest.raises(ValueError):
        action_to_curvature(cfg, np.zeros((2, 5)), mismatch=False)
    with pytest.raises(ValueError):
        action_to_curvature(cfg, np.zeros((2, 1, 6)), mismatch=False)


def test_mismatch_vanishes_at_zero_action():
    cfg = RobotConfig(n_segments=2)
    u = action_to_curvature(cfg, np.zeros(4), mismatch=True)
    assert np.all(u == 0.0)


def test_mismatch_example_pure_x_bend():
    cfg = RobotConfig(n_segments=1, mismatch_amplitude=0.1)
    u = action_to_curvature(cfg, np.array([10.0, 0.0]), mismatch=True)
    assert 9.0 <= u[0][0] <= 11.0
    assert -1.0 <= u[0][1] <= 1.0
    assert np.allclose(u[0], [10.0, 0.0, 0.0])


def test_mismatch_changes_mixed_bends(rng):
    cfg = RobotConfig(n_segments=1)
    q = np.array([8.0, 6.0])
    u_off = action_to_curvature(cfg, q, mismatch=False)
    u_on = action_to_curvature(cfg, q, mismatch=True)
    assert not np.allclose(u_off, u_on)


def test_curvature_norm_never_exceeds_bound(rng):
    cfg = RobotConfig(n_segments=3)
    for _ in range(50):
        q = rng.uniform(cfg.q_min, cfg.q_max, size=6)
        for mismatch in (False, True):
            u = action_to_curvature(cfg, q, mismatch=mismatch)
            assert np.all(np.linalg.norm(u, axis=1) <= cfg.u_max + 1e-12)


def test_zero_action_straight_robot():
    for n in range(1, 5):
        cfg = RobotConfig(n_segments=n)
        shape = forward_kinematics(cfg, np.zeros(2 * n))
        assert np.linalg.norm(shape.tip - [0.0, 0.0, cfg.total_length]) < 1e-9
        assert np.allclose(shape.points[:, :2], 0.0, atol=1e-12)


def test_single_arc_closed_form_example():
    cfg = RobotConfig(n_segments=1, mismatch_amplitude=0.0)
    shape = forward_kinematics(cfg, np.array([0.0, 10.0]))
    expected = np.array([(1.0 - np.cos(1.0)) / 10.0, 0.0, np.sin(1.0) / 10.0])
    assert np.linalg.norm(shape.tip - expected) < 1e-6


def test_forward_kinematics_matches_arc_composition(rng):
    # a zero mismatch amplitude simulates the commanded arc
    for n in range(1, 5):
        for amp in (0.0, 0.1):
            cfg = RobotConfig(n_segments=n, mismatch_amplitude=amp)
            for _ in range(6):
                q = rng.uniform(cfg.q_min, cfg.q_max, size=2 * n)
                curv = action_to_curvature(cfg, q, mismatch=amp > 0.0)
                shape = forward_kinematics(cfg, q)
                oracle = arc_backbone(curv, cfg.segment_lengths, 10)
                err = np.abs(shape.points - oracle).max()
                assert err < 1e-6, f"n={n} amplitude={amp}: {err}"


def test_straight_second_segment_is_tangent_line():
    cfg = RobotConfig(n_segments=2, mismatch_amplitude=0.0)
    shape = forward_kinematics(cfg, np.array([0.0, 10.0, 0.0, 0.0]))
    seg2 = shape.points[10:]
    d = seg2[1:] - seg2[:-1]
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    assert np.allclose(d, d[0], atol=1e-9)


def test_polyline_length_close_to_total(rng):
    cfg = RobotConfig(n_segments=3)
    for _ in range(10):
        q = rng.uniform(cfg.q_min, cfg.q_max, size=6)
        pts = forward_kinematics(cfg, q).points
        length = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        assert abs(length - cfg.total_length) / cfg.total_length < 0.01


def test_point_spacing_bound(rng):
    cfg = RobotConfig(n_segments=2)
    h = 0.1 / 10
    q = rng.uniform(cfg.q_min, cfg.q_max, size=4)
    pts = forward_kinematics(cfg, q).points
    spacing = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.all(spacing <= h * (1.0 + cfg.u_max * h))


def test_mirror_symmetry_without_mismatch(rng):
    # flipping the sign of every q_y bending channel mirrors the curve
    # across the y-z plane; flipping q_x mirrors across x-z
    cfg = RobotConfig(n_segments=3, mismatch_amplitude=0.0)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=6)
    base = forward_kinematics(cfg, q).points
    qy_flip = q.copy()
    qy_flip[1::2] *= -1.0
    mirrored = forward_kinematics(cfg, qy_flip).points
    assert np.array_equal(mirrored * np.array([-1.0, 1.0, 1.0]), base)
    qx_flip = q.copy()
    qx_flip[0::2] *= -1.0
    mirrored2 = forward_kinematics(cfg, qx_flip).points
    assert np.array_equal(mirrored2 * np.array([1.0, -1.0, 1.0]), base)


def test_tangent_continuity_at_segment_boundary(rng):
    # consecutive chords turn by at most ~u_max*h even across the joint;
    # a tangent kink there would turn far more
    cfg = RobotConfig(n_segments=2)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=4)
    pts = forward_kinematics(cfg, q).points
    chords = np.diff(pts, axis=0)
    chords /= np.linalg.norm(chords, axis=1, keepdims=True)
    cosines = np.einsum("ij,ij->i", chords[:-1], chords[1:])
    h = 0.1 / 10
    assert np.all(cosines >= np.cos(2.0 * cfg.u_max * h))


def test_backbone_arc_coords(rng):
    cfg = RobotConfig(n_segments=2, segment_lengths=(0.1, 0.2))
    s = backbone_arc_coords(cfg)
    assert s.shape == (21,)
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(0.3)
    assert np.all(np.diff(s) > 0)
    assert s[10] == pytest.approx(0.1)
    # the scalar loop it replaced, bit for bit: payload droop reads s
    for n in range(1, 5):
        lengths = tuple(rng.uniform(0.01, 0.5, n))
        want, start = [0.0], 0.0
        for length in lengths:
            want += [start + length * k / 10 for k in range(1, 11)]
            start += length
        got = backbone_arc_coords(RobotConfig(n_segments=n, segment_lengths=lengths))
        assert got.tolist() == want


def test_tip_is_last_point(rng):
    cfg = RobotConfig(n_segments=2)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=4)
    shape = forward_kinematics(cfg, q)
    assert np.array_equal(shape.tip, shape.points[-1])


def test_payload_identity_linearity_and_scale():
    cfg = RobotConfig(n_segments=3)
    shape = forward_kinematics(cfg, np.zeros(6))
    same = apply_payload(shape, 0.0, cfg.total_length)
    assert np.array_equal(same.points, shape.points)
    p10 = apply_payload(shape, 10.0, cfg.total_length)
    p20 = apply_payload(shape, 20.0, cfg.total_length)
    d10 = shape.points[-1, 2] - p10.points[-1, 2]
    d20 = shape.points[-1, 2] - p20.points[-1, 2]
    assert d20 == pytest.approx(2.0 * d10)
    assert d20 <= 0.10 * cfg.total_length
    assert np.array_equal(p20.points[:, :2], shape.points[:, :2])
    assert np.all(np.diff(shape.points[:, 2] - p20.points[:, 2]) >= 0.0)
    with pytest.raises(ValueError):
        apply_payload(shape, -1.0, cfg.total_length)
    # above PAYLOAD_MAX_GRAMS (20 g, valid above) is refused
    with pytest.raises(ValueError, match="payload must lie in"):
        apply_payload(shape, 20.5, cfg.total_length)
    with pytest.raises(ValueError):
        forward_kinematics(cfg, np.zeros(6), payload_grams=20.5)


def test_payload_via_forward_kinematics():
    cfg = RobotConfig(n_segments=2)
    a = forward_kinematics(cfg, np.zeros(4), payload_grams=20.0)
    b = apply_payload(forward_kinematics(cfg, np.zeros(4)), 20.0, cfg.total_length)
    assert np.allclose(a.points, b.points)


def test_dataset_determinism_and_count():
    cfg = RobotConfig(n_segments=1)
    q1, p1 = sample_dataset(cfg, 5, np.random.default_rng(3))
    q2, p2 = sample_dataset(cfg, 5, np.random.default_rng(3))
    assert q1.shape == (5, 2) and p1.shape == (5, 10, 3)
    assert np.array_equal(q1, q2)
    assert np.array_equal(p1, p2)
    q0, p0 = sample_dataset(cfg, 0, np.random.default_rng(0))
    assert q0.shape == (0, 2) and p0.shape == (0, 10, 3)


def test_dataset_shapes_reproducible_from_actions():
    cfg = RobotConfig(n_segments=2)
    q, points = sample_dataset(cfg, 3, np.random.default_rng(11))
    for qi, pts in zip(q, points):
        again = forward_kinematics(cfg, qi)
        assert np.array_equal(again.points[0], np.zeros(3))
        assert np.array_equal(pts, again.points[1:])


def test_dataset_action_marginals_uniform():
    cfg = RobotConfig(n_segments=1)
    q, _ = sample_dataset(cfg, 10_000, np.random.default_rng(21))
    edges = np.linspace(cfg.q_min, cfg.q_max, 11)
    for ch in range(2):
        counts, _ = np.histogram(q[:, ch], bins=edges)
        frac = counts / len(q)
        assert np.all(np.abs(frac - 0.1) < 0.02)


def test_reference_trajectory_shapes_and_bounds():
    L = 0.3
    cz = L - 0.02
    t = np.linspace(0.0, 100.0, 401)
    circle = reference_trajectory("circle", t, L, 100.0)
    assert np.allclose(np.linalg.norm(circle[:, :2], axis=1), 0.05, atol=1e-12)
    assert np.allclose(circle[:, 2], cz)
    assert np.allclose(circle[0], circle[-1], atol=1e-12)

    ellipse = reference_trajectory("ellipse", t, L, 100.0)
    assert np.max(np.abs(ellipse[:, 0])) == pytest.approx(0.05, abs=1e-6)
    assert np.max(np.abs(ellipse[:, 1])) == pytest.approx(0.03, abs=1e-6)

    s = reference_trajectory("s_shape", np.array([0.0]), L, 100.0)
    assert np.allclose(s[0], [0.03, 0.0, cz])

    helix = reference_trajectory("helix", t, L, 100.0)
    assert helix[:, 2].min() == pytest.approx(cz - 0.01)
    assert helix[:, 2].max() == pytest.approx(cz + 0.01)
    dz = np.diff(helix[:, 2])
    assert np.allclose(dz, dz[0])


def test_reference_square_geometry():
    L = 0.3
    t = np.linspace(0.0, 100.0, 201)
    sq = reference_trajectory("square", t, L, 100.0)
    assert np.allclose(sq[0, :2], [0.03, 0.03])
    assert np.allclose(sq[0], sq[-1], atol=1e-12)
    seglen = np.linalg.norm(np.diff(sq, axis=0), axis=1)
    assert seglen.sum() == pytest.approx(0.24, abs=1e-9)
    assert np.allclose(seglen, seglen[0], atol=1e-12)
    assert np.max(np.abs(sq[:, 0])) == pytest.approx(0.03)
    assert np.max(np.abs(sq[:, 1])) == pytest.approx(0.03)


def test_reference_square_just_before_zero_is_its_first_corner():
    # within the tolerance below 0, t / period mod 1 rounds up to 1
    g = reference_trajectory("square", np.array([-1e-20, 0.0]), 0.3, 100.0)
    assert g.tolist() == [[0.03, 0.03, 0.3 - 0.02]] * 2


def test_reference_trajectory_errors():
    with pytest.raises(ValueError):
        reference_trajectory("circle", np.array([-1.0]), 0.3, 100.0)
    with pytest.raises(ValueError):
        reference_trajectory("circle", np.array([101.0]), 0.3, 100.0)
    with pytest.raises(ValueError):
        reference_trajectory("lemniscate", np.array([0.0]), 0.3, 100.0)


def test_reference_trajectory_scalar_input():
    g = reference_trajectory("circle", 0.0, 0.3, 100.0)
    assert g.shape == (3,)
    assert np.allclose(g, [0.05, 0.0, 0.28])


def test_min_obstacle_distance_and_violation():
    cfg = RobotConfig(n_segments=1)
    shape = forward_kinematics(cfg, np.zeros(2))
    on_backbone = ObstacleSpec(center=np.array([0.0, 0.0, 0.05]))
    d = min_obstacle_distance(shape.points, on_backbone)
    assert d < 1e-9
    assert d * d < on_backbone.threshold_sq
    far = ObstacleSpec(center=np.array([1.0, 0.0, 0.0]))
    d = min_obstacle_distance(shape.points, far)
    assert d >= 1.0 - cfg.total_length
    assert d * d >= far.threshold_sq
    # brute force is the definition
    rng = np.random.default_rng(2)
    q = rng.uniform(cfg.q_min, cfg.q_max, size=2)
    pts = forward_kinematics(cfg, q).points
    o = ObstacleSpec(center=rng.standard_normal(3) * 0.05)
    brute = min(np.linalg.norm(p - o.center) for p in pts)
    assert min_obstacle_distance(pts, o) == pytest.approx(brute, rel=1e-12)


def test_obstacle_spec_validation():
    with pytest.raises(ValueError):
        ObstacleSpec(center=np.zeros(2))
    with pytest.raises(ValueError):
        ObstacleSpec(center=np.zeros(3), threshold_sq=0.0)
    spec = ObstacleSpec(center=np.zeros(3))
    assert spec.threshold_sq == pytest.approx(1e-4)


def test_backbone_shape_container():
    s = BackboneShape(s=np.array([0.0, 1.0]), points=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    assert np.array_equal(s.tip, [1.0, 1.0, 1.0])
