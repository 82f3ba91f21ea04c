"""Pinhole projection and ray fields."""

import numpy as np
import pytest

from mono3dkit import (
    CameraModel,
    backproject,
    project,
    ray_directions,
    ray_field,
)

CAM = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)


class TestCameraModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CameraModel(0.0, 500.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            CameraModel(500.0, -1.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            CameraModel(500.0, 500.0, 320.0, 240.0, 0, 480)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_intrinsics(self, field, value):
        intrinsics = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        with pytest.raises(ValueError, match=f"intrinsics must be finite, got .*{field}={value}"):
            CameraModel(**{**intrinsics, field: value})


class TestProjection:
    def test_principal_axis(self):
        uv = project(CAM, [0.0, 0.0, 2.0])
        assert np.allclose(uv, [320.0, 240.0])

    def test_known_offsets(self):
        # u = fx * x / z + cx, one focal length of lateral offset at z = 2.
        uv = project(CAM, [1.0, -1.0, 2.0])
        assert np.allclose(uv, [320.0 + 250.0, 240.0 - 250.0])

    def test_batched_shape(self):
        pts = np.random.default_rng(0).uniform(0.5, 2.0, size=(4, 5, 3))
        uv = project(CAM, pts)
        assert uv.shape == (4, 5, 2)

    def test_rejects_points_behind_camera(self):
        with pytest.raises(ValueError):
            project(CAM, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            project(CAM, [[0.0, 0.0, 1.0], [0.1, 0.2, -3.0]])

    def test_backproject_inverts_project(self):
        rng = np.random.default_rng(1)
        pts = np.stack(
            [
                rng.uniform(-3.0, 3.0, size=500),
                rng.uniform(-3.0, 3.0, size=500),
                rng.uniform(0.2, 50.0, size=500),
            ],
            axis=-1,
        )
        uv = project(CAM, pts)
        back = backproject(CAM, uv, pts[:, 2])
        assert np.allclose(back, pts, atol=1e-9)

    def test_backproject_depth_is_z(self):
        # z-depth convention: the third component equals the given depth
        # exactly, even far off-axis where ray length would differ.
        pt = backproject(CAM, [0.0, 0.0], 7.0)
        assert pt[2] == 7.0
        assert np.linalg.norm(pt) > 7.0

    def test_backproject_broadcasts_depth(self):
        px = np.array([[320.0, 240.0], [570.0, 240.0]])
        out = backproject(CAM, px, [2.0, 4.0])
        assert np.allclose(out[0], [0.0, 0.0, 2.0])
        assert np.allclose(out[1], [2.0, 0.0, 4.0])


class TestRays:
    def test_directions_are_unit(self):
        rng = np.random.default_rng(2)
        px = rng.uniform(0.0, 640.0, size=(100, 2))
        d = ray_directions(CAM, px)
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)

    def test_principal_ray(self):
        d = ray_directions(CAM, [320.0, 240.0])
        assert np.allclose(d, [0.0, 0.0, 1.0])

    def test_directions_match_backprojection(self):
        px = np.array([100.0, 400.0])
        d = ray_directions(CAM, px)
        pt = backproject(CAM, px, 5.0)
        assert np.allclose(d, pt / np.linalg.norm(pt))

    def test_field_native_resolution_samples_pixel_centers(self):
        field = ray_field(CAM)
        assert field.shape == (480, 640, 3)
        d = ray_directions(CAM, [10.5, 3.5])
        assert np.allclose(field[3, 10], d)

    def test_field_coarse_grid_covers_image(self):
        field = ray_field(CAM, resolution=(4, 2))
        assert field.shape == (2, 4, 3)
        # First cell center: (640/4) * 0.5 = 80, (480/2) * 0.5 = 120.
        assert np.allclose(field[0, 0], ray_directions(CAM, [80.0, 120.0]))

    def test_field_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ray_field(CAM, resolution=(0, 10))
