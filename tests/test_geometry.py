import numpy as np
import pytest

from egotrack.errors import (
    DegenerateGeometryError,
    FrameMismatchError,
    InvalidDepthError,
    NumericalError,
)
from egotrack.geometry import (
    CameraModel,
    RigidTransform,
    SigmaPointSet,
    SurfacePointCloud,
    backproject_pixels,
    check_rotations,
    compute_visible_set,
    extract_sigma_points,
    project_points,
    rotation_about_axis,
    rotation_rpy,
    rotation_x,
    rotation_y,
    rotation_z,
    sigma_points_from_cloud,
    solid_angle_weights,
    transform_points,
    weighted_pca,
)


def random_rotation(rng):
    return rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


# Per-point references for the batched pinhole functions.


def ref_project_point(cam, p):
    """One camera-frame point's (pixel, in_fov), depth clamped to the near plane."""
    z = p[2] if p[2] >= cam.near_z else cam.near_z
    u = cam.fx * p[0] / z + cam.cx
    v = cam.fy * p[1] / z + cam.cy
    in_fov = p[2] >= cam.near_z and 0.0 <= u < cam.width and 0.0 <= v < cam.height
    return np.array([u, v]), bool(in_fov)


def ref_backproject_pixel(cam, pixel, depth):
    """One pixel's camera-frame point at a metric depth along the optical axis."""
    u, v = float(pixel[0]), float(pixel[1])
    return np.array([(u - cam.cx) * depth / cam.fx, (v - cam.cy) * depth / cam.fy, depth])


class TestRotations:
    def test_rpy_composition_order(self):
        got = rotation_rpy(0.1, 0.2, 0.3)
        want = rotation_z(0.3) @ rotation_y(0.2) @ rotation_x(0.1)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_rpy_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = rotation_rpy(*rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_stacked_angles_equal_scalar_calls(self):
        rng = np.random.default_rng(7)
        angles = rng.uniform(-np.pi, np.pi, (200, 3))
        stack = rotation_rpy(*angles.T)
        assert stack.shape == (200, 3, 3)
        for r, a in zip(stack, angles):
            assert np.array_equal(r, rotation_rpy(*a))
        # A scalar angle broadcasts against a stack of the others.
        for r, a in zip(rotation_rpy(0.0, angles[:, 1], angles[:, 2]), angles):
            assert np.array_equal(r, rotation_rpy(0.0, a[1], a[2]))
        axes = rng.normal(size=(200, 3))
        for r, axis, angle in zip(rotation_about_axis(axes, angles[:, 0]), axes, angles[:, 0]):
            assert np.array_equal(r, rotation_about_axis(axis, angle))

    def test_axis_angle_quarter_turn(self):
        got = rotation_about_axis([0.0, 0.0, 2.0], np.pi / 2.0)
        want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_zero_axis_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            rotation_about_axis([0.0, 0.0, 0.0], 0.3)
        with pytest.raises(DegenerateGeometryError):
            rotation_about_axis([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [0.3, 0.3])

    def test_stack_check_finds_one_bad_matrix(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_rotation(rng) for _ in range(50)])
        check_rotations(stack)
        scaled = stack.copy()
        scaled[17] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not orthonormal within 1e-9"):
            check_rotations(scaled)
        reflected = stack.copy()
        reflected[31] = -reflected[31]
        with pytest.raises(ValueError, match="determinant is not \\+1 within 1e-9"):
            check_rotations(reflected)
        missing = stack.copy()
        missing[5, 1, 2] = np.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            check_rotations(missing)


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3), "a", "b")
        back = t.inverse().compose(t)
        np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(back.translation, np.zeros(3), atol=1e-12)
        assert back.from_frame == "a" and back.to_frame == "a"

    def test_compose_frame_mismatch(self):
        a = RigidTransform.identity("a")
        c = RigidTransform.identity("c")
        with pytest.raises(FrameMismatchError):
            a.compose(c)

    def test_compose_applies_right_first(self):
        rng = np.random.default_rng(3)
        t1 = RigidTransform(random_rotation(rng), rng.normal(size=3), "a", "b")
        t2 = RigidTransform(random_rotation(rng), rng.normal(size=3), "b", "c")
        p = rng.normal(size=3)
        np.testing.assert_allclose(
            t2.compose(t1).apply_points(p), t2.apply_points(t1.apply_points(p)), atol=1e-12
        )

    def test_apply_points_matches_single(self):
        rng = np.random.default_rng(4)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(11, 3))
        batch = t.apply_points(pts)
        for i in range(11):
            np.testing.assert_allclose(batch[i], t.rotation @ pts[i] + t.translation, atol=1e-12)


class TestProjection:
    def test_camera_validation(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1.0)
        with pytest.raises(ValueError):
            CameraModel(near_z=0.0)

    def test_center_pixel(self):
        cam = CameraModel()
        pix, in_fov = project_points(cam, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(pix[0], [320.0, 240.0])
        assert in_fov[0]

    def test_roundtrip(self):
        cam = CameraModel()
        rng = np.random.default_rng(7)
        z = rng.uniform(0.5, 5.0, size=40)
        pts = np.stack([rng.uniform(-0.5, 0.5, 40) * z, rng.uniform(-0.4, 0.4, 40) * z, z], axis=1)
        pix, _ = project_points(cam, pts)
        back = backproject_pixels(cam, pix, z)
        np.testing.assert_allclose(back, pts, atol=1e-12)
        for i in range(40):
            np.testing.assert_allclose(back[i], ref_backproject_pixel(cam, pix[i], z[i]), atol=1e-12)

    def test_near_plane_clamp_keeps_pixel_finite(self):
        cam = CameraModel()
        pix, in_fov = project_points(cam, [0.1, 0.0, 0.01])
        assert not in_fov[0]
        # clamped to near_z = 0.05: u = 500 * 0.1 / 0.05 + 320
        assert pix[0, 0] == pytest.approx(1320.0)
        assert np.isfinite(pix).all()

    def test_behind_camera_not_in_fov(self):
        cam = CameraModel()
        _, in_fov = project_points(cam, [0.0, 0.0, -2.0])
        assert not in_fov[0]

    def test_fov_bounds_half_open(self):
        cam = CameraModel()
        # u = 0 is inside, u = width is outside
        left = [(0.0 - cam.cx) / cam.fx * 1.0, 0.0, 1.0]
        right = [(cam.width - cam.cx) / cam.fx * 1.0, 0.0, 1.0]
        assert project_points(cam, [left, right])[1].tolist() == [True, False]

    def test_backproject_depth_guard(self):
        cam = CameraModel()
        with pytest.raises(InvalidDepthError):
            backproject_pixels(cam, [[320.0, 240.0]], [0.01])
        # one shallow depth fails the whole batch
        with pytest.raises(InvalidDepthError):
            backproject_pixels(cam, [[320.0, 240.0], [320.0, 240.0]], [1.0, 0.01])

    def test_vectorized_matches_single(self):
        cam = CameraModel()
        rng = np.random.default_rng(8)
        pts = rng.normal(0.0, 2.0, size=(30, 3))
        pix, fov = project_points(cam, pts)
        for i in range(30):
            p1, f1 = ref_project_point(cam, pts[i])
            np.testing.assert_allclose(pix[i], p1, atol=1e-12)
            assert fov[i] == f1


class TestVisibility:
    def test_requires_normals(self):
        cloud = SurfacePointCloud(np.zeros((3, 3)) + [0, 0, 2])
        with pytest.raises(DegenerateGeometryError):
            compute_visible_set(cloud, CameraModel())

    def test_backface_is_strict(self):
        cam = CameraModel()
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        normals = np.array([
            [0.0, 0.0, -1.0],  # facing the camera
            [1.0, 0.0, 0.0],   # exactly tangential: n . p = 0, culled
            [0.0, 0.0, 1.0],   # facing away
        ])
        vis = compute_visible_set(SurfacePointCloud(pts, normals), cam)
        np.testing.assert_array_equal(vis, [0])

    def test_fov_and_order_preserved(self):
        cam = CameraModel()
        pts = np.array([
            [0.0, 0.0, 2.0],
            [50.0, 0.0, 2.0],   # far outside the image
            [0.1, 0.1, 3.0],
            [0.0, 0.0, -1.0],   # behind
        ])
        normals = np.tile([0.0, 0.0, -1.0], (4, 1))
        vis = compute_visible_set(SurfacePointCloud(pts, normals), cam)
        np.testing.assert_array_equal(vis, [0, 2])

    def test_solid_angle_weights_values(self):
        w = solid_angle_weights(np.array([[0.0, 0.0, 2.0]]), np.array([[0.0, 0.0, -1.0]]))
        assert w[0] == pytest.approx(2.0 / 8.0)
        w = solid_angle_weights(np.array([[0.0, 0.0, 2.0]]), np.array([[0.0, 0.0, 1.0]]))
        assert w[0] == 0.0

    def test_solid_angle_origin_guard(self):
        with pytest.raises(DegenerateGeometryError):
            solid_angle_weights(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))

    def test_normals_unit_check(self):
        with pytest.raises(ValueError):
            SurfacePointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))

    def test_transform_points_frame_check(self):
        cloud = SurfacePointCloud(np.zeros((1, 3)), None, "object")
        t = RigidTransform.identity("camera")
        with pytest.raises(FrameMismatchError):
            transform_points(cloud, t)


class TestWeightedPca:
    def test_two_point_example(self):
        res = weighted_pca(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(res.centroid, [0.5, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(res.eigenvalues, [0.75, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(res.eigenvectors[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(200, 3)) * [3.0, 1.0, 0.2]
        res = weighted_pca(pts, np.ones(200))
        assert res.eigenvalues[0] >= res.eigenvalues[1] >= res.eigenvalues[2] >= 0.0

    def test_rigid_invariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(150, 3)) * [2.0, 0.7, 0.1] + [1.0, -2.0, 5.0]
        w = rng.uniform(0.1, 3.0, 150)
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        a = weighted_pca(pts, w)
        b = weighted_pca(t.apply_points(pts), w)
        np.testing.assert_allclose(b.centroid, t.apply_points(a.centroid)[0], atol=1e-9)
        np.testing.assert_allclose(b.eigenvalues, a.eigenvalues, atol=1e-9)
        for k in range(3):
            mapped = t.rotation @ a.eigenvectors[:, k]
            dot = abs(float(mapped @ b.eigenvectors[:, k]))
            assert dot == pytest.approx(1.0, abs=1e-6)

    def test_weight_shifts_centroid(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        res = weighted_pca(pts, np.array([1.0, 9.0]))
        assert res.centroid[0] == pytest.approx(1.8)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateGeometryError):
            weighted_pca(np.zeros((2, 3)), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_pca(np.zeros((2, 3)), np.ones(3))

    def test_overflowing_covariance_is_a_numerical_error(self):
        pts = np.array([[0.0, 0.0, 1.0], [1e308, 0.0, 1.0], [-1e308, 1e308, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            weighted_pca(pts, np.ones(3))

    def test_sign_convention_is_stable(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 3))
        res = weighted_pca(pts, np.ones(60))
        for k in range(3):
            lead = np.argmax(np.abs(res.eigenvectors[:, k]))
            assert res.eigenvectors[lead, k] > 0.0


class TestSigmaPoints:
    def test_offsets_are_sqrt_eigenvalue(self):
        from egotrack.geometry import PcaResult

        centroid = np.array([1.0, 2.0, 3.0])
        pca = PcaResult(centroid, np.array([0.04, 0.01, 0.0025]), np.eye(3))
        sset = extract_sigma_points(pca, alpha=1.0)
        np.testing.assert_allclose(sset.points[0], centroid, atol=1e-15)
        for k, off in enumerate((0.2, 0.1, 0.05)):
            plus, minus = sset.points[1 + 2 * k], sset.points[2 + 2 * k]
            np.testing.assert_allclose(plus - centroid, off * np.eye(3)[k], atol=1e-15)
            np.testing.assert_allclose(plus + minus, 2.0 * centroid, atol=1e-15)

    def test_alpha_scales_offsets(self):
        from egotrack.geometry import PcaResult

        pca = PcaResult(np.zeros(3), np.array([1.0, 0.25, 0.04]), np.eye(3))
        s1 = extract_sigma_points(pca, alpha=1.0)
        s2 = extract_sigma_points(pca, alpha=1.5)
        np.testing.assert_allclose(s2.points[1:], 1.5 * s1.points[1:], atol=1e-15)

    def test_alpha_must_be_positive(self):
        from egotrack.geometry import PcaResult

        pca = PcaResult(np.zeros(3), np.ones(3), np.eye(3))
        with pytest.raises(ValueError):
            extract_sigma_points(pca, alpha=0.0)

    def test_set_shape_enforced(self):
        with pytest.raises(ValueError):
            SigmaPointSet(np.zeros((6, 3)))

    def test_from_cloud_none_when_hidden(self):
        cam = CameraModel()
        pts = np.tile([0.0, 0.0, -3.0], (10, 1))
        cloud = SurfacePointCloud(pts, np.tile([0.0, 0.0, -1.0], (10, 1)))
        assert sigma_points_from_cloud(cloud, cam) is None

    def test_from_cloud_without_normals_uses_fov_only(self):
        cam = CameraModel()
        rng = np.random.default_rng(12)
        pts = rng.normal(0.0, 0.05, size=(100, 3)) + [0.0, 0.0, 2.0]
        sset = sigma_points_from_cloud(SurfacePointCloud(pts), cam)
        assert sset is not None
        np.testing.assert_allclose(sset.points[0], pts.mean(axis=0), atol=1e-12)

    def test_from_cloud_unknown_weighting(self):
        cloud = SurfacePointCloud(np.zeros((1, 3)) + [0, 0, 2])
        with pytest.raises(ValueError):
            sigma_points_from_cloud(cloud, CameraModel(), weighting="bogus")

    def test_solid_angle_vs_uniform_differ_on_slanted_surface(self):
        cam = CameraModel()
        rng = np.random.default_rng(13)
        # plane slanted in depth: nearer points subtend more solid angle
        x = rng.uniform(-0.5, 0.5, 400)
        pts = np.stack([x, rng.uniform(-0.1, 0.1, 400), 2.0 + x], axis=1)
        normals = np.tile(np.array([-1.0, 0.0, -1.0]) / np.sqrt(2.0), (400, 1))
        cloud = SurfacePointCloud(pts, normals)
        s_solid = sigma_points_from_cloud(cloud, cam, weighting="solid_angle")
        s_uni = sigma_points_from_cloud(cloud, cam, weighting="uniform")
        assert s_solid.points[0][2] < s_uni.points[0][2]
