"""The batched sensor pass against a written-out per-frame reference.

``sensor_schedule`` senses every observation tick of an episode in chunks of
frames, and ``emulate_sensor`` is the same pass over one frame.  The
reference below senses one frame at a time through a ``RigidTransform``, a
transformed ``SurfacePointCloud``, ``compute_visible_set``, three scalar
``normal`` draws and ``weighted_pca``, as the sensor did before it was
batched.  The per-frame moments sum in another order, so the sets agree to
a tolerance; which frames have a set, and the draws taken, agree exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from egotrack import sim
from egotrack.geometry import (
    RigidTransform,
    backproject_pixels,
    compute_visible_set,
    place_sigma_points,
    project_points,
    transform_points,
    weighted_pca,
)
from egotrack.sim import (
    SENSOR_CHUNK_POINTS,
    CameraMotion,
    ObjectSpec,
    ScenarioConfig,
    SensorSpec,
    emulate_sensor,
    generate_scenario,
    sensor_schedule,
)

SETTINGS = settings(max_examples=30, deadline=None)
# Sets are within a few metres of the camera; the moments' summation order
# moves them by ~1e-14 m.
TOLERANCE_M = 1e-12


def ref_observation(bundle, k, rng):
    """Tick ``k``'s set, (7, 3), or None when nothing is visible."""
    cfg = bundle.config
    cam, spec = cfg.camera, cfg.sensor
    if spec.mode == "truth":
        if not bundle.visible[k]:
            return None
        pts = bundle.true_sets[k]
        if spec.pixel_std_u == 0.0 and spec.pixel_std_v == 0.0 and spec.depth_std == 0.0:
            return pts.copy()
    else:
        to_cam = RigidTransform(
            bundle.obj_to_cam_rotation[k], bundle.obj_to_cam_translation[k], "object", "camera"
        )
        cam_cloud = transform_points(bundle.cloud, to_cam)
        vis = compute_visible_set(cam_cloud, cam)
        if vis.size == 0:
            return None
        pts = cam_cloud.points[vis]
    du = rng.normal(0.0, spec.pixel_std_u)
    dv = rng.normal(0.0, spec.pixel_std_v)
    dz = rng.normal(0.0, spec.depth_std)
    pix, _ = project_points(cam, pts)
    moved = backproject_pixels(cam, pix + np.array([du, dv]), np.maximum(pts[:, 2] + dz, cam.near_z))
    if spec.mode == "truth":
        return moved
    return place_sigma_points(weighted_pca(moved, np.ones(len(moved))), bundle.alpha)


def _ticks(cfg):
    return np.arange(0, cfg.n_ticks + 1, cfg.obs_stride)


@SETTINGS
@given(
    shape=st.sampled_from(["sphere", "box", "cylinder"]),
    # Up to above the chunk budget, where every chunk holds one frame.
    samples=st.integers(64, SENSOR_CHUNK_POINTS + 2000),
    motion=st.sampled_from(["walking", "turning"]),
    noise=st.booleans(),
    mode=st.sampled_from(["cloud", "truth"]),
    obs_rate=st.sampled_from([5.0, 10.0, 25.0]),
    seed=st.integers(0, 2**16),
)
def test_schedule_equals_per_frame_reference(shape, samples, motion, noise, mode, obs_rate, seed):
    # A fast turn and a sideways target lose the target mid-episode, so some
    # frames see nothing.
    cfg = ScenarioConfig(
        seed=seed,
        duration=1.2,
        obs_rate=obs_rate,
        surface_samples=samples,
        camera_motion=CameraMotion(kind=motion, yaw_rate=2.5),
        target=ObjectSpec(shape=shape, rpy=(0.3, -0.2, 0.4), velocity=(0.0, -0.6, 0.05)),
        sensor=SensorSpec(mode=mode) if noise else SensorSpec(0.0, 0.0, 0.0, mode),
    )
    bundle = generate_scenario(cfg)
    ticks = _ticks(cfg)
    rng = np.random.default_rng(bundle.sensor_seed)
    batched = sim._observe(bundle, ticks, rng)
    ref_rng = np.random.default_rng(bundle.sensor_seed)
    assert len(batched) == len(ticks)
    for k, m in zip(ticks, batched):
        want = ref_observation(bundle, k, ref_rng)
        assert m.stamp == bundle.times[k] and m.available_at == m.stamp + bundle.latency
        assert (m.sset is None) == (want is None)
        if want is not None:
            assert np.abs(m.sset.points - want).max() <= TOLERANCE_M
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_every_schedule_row_is_its_one_frame_call():
    # Several chunks, the last one partial; the target leaves the image, so
    # some chunks mix seen and unseen frames.  One stream feeds the one-frame
    # calls in tick order, as it feeds the schedule.
    for mode in ("cloud", "truth"):
        cfg = ScenarioConfig(
            seed=4,
            duration=2.0,
            obs_rate=25.0,
            surface_samples=4000,
            camera_motion=CameraMotion(kind="turning", yaw_rate=1.5),
            target=ObjectSpec(shape="cylinder", velocity=(0.0, -0.4, 0.0)),
            sensor=SensorSpec(mode=mode),
        )
        bundle = generate_scenario(cfg)
        ticks = _ticks(cfg)
        chunk = SENSOR_CHUNK_POINTS // cfg.surface_samples
        assert len(ticks) > chunk > 1 and len(ticks) % chunk
        schedule = sensor_schedule(bundle)
        assert any(m.sset is None for m in schedule) and schedule[0].sset is not None
        rng = np.random.default_rng(bundle.sensor_seed)
        for k, m in zip(ticks, schedule):
            one = emulate_sensor(bundle, int(k), rng)
            assert (one.stamp, one.available_at) == (m.stamp, m.available_at)
            assert (one.sset is None) == (m.sset is None)
            if m.sset is not None:
                assert np.array_equal(one.sset.points, m.sset.points)
