"""Pinhole projection, ray fields, and the spherical harmonic basis."""

import math

import numpy as np
import pytest

from mono3dkit import (
    CameraModel,
    RayField,
    backproject,
    project,
    ray_directions,
    ray_field,
    real_spherical_harmonics,
    sph_harm_count,
)

CAM = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)


class TestCameraModel:
    def test_intrinsics_matrix(self):
        k = CAM.intrinsics
        expected = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(k, expected)

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
        assert field.directions.shape == (480, 640, 3)
        assert (field.width, field.height) == (640, 480)
        d = ray_directions(CAM, [10.5, 3.5])
        assert np.allclose(field.directions[3, 10], d)

    def test_field_coarse_grid_covers_image(self):
        field = ray_field(CAM, resolution=(4, 2))
        assert field.directions.shape == (2, 4, 3)
        # First cell center: (640/4) * 0.5 = 80, (480/2) * 0.5 = 120.
        assert np.allclose(field.directions[0, 0], ray_directions(CAM, [80.0, 120.0]))

    def test_field_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ray_field(CAM, resolution=(0, 10))

    def test_rayfield_validates_unit_length(self):
        bad = np.full((2, 2, 3), 0.5)
        with pytest.raises(ValueError):
            RayField(directions=bad, width=2, height=2)


def uniform_sphere(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sphere_quadrature(n_theta=24, n_phi=72):
    """Gauss-Legendre x periodic-trapezoid nodes, exact for band-limited
    integrands up to well beyond degree 16."""
    z, wz = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - z**2)
    dirs = np.stack(
        [
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.outer(z, np.ones(n_phi)).ravel(),
        ],
        axis=-1,
    )
    w = np.outer(wz, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    return dirs, w


class TestSphericalHarmonics:
    def test_count(self):
        assert sph_harm_count(0) == 1
        assert sph_harm_count(1) == 4
        assert sph_harm_count(8) == 81

    def test_output_width_matches_count(self):
        d = uniform_sphere(10, 3)
        for degree in (0, 1, 3, 8):
            out = real_spherical_harmonics(d, max_degree=degree)
            assert out.shape == (10, sph_harm_count(degree))

    def test_degree_zero_is_constant(self):
        d = uniform_sphere(50, 4)
        out = real_spherical_harmonics(d, max_degree=0)
        assert np.allclose(out, 1.0 / (2.0 * math.sqrt(math.pi)))

    def test_degree_one_closed_forms(self):
        # Ordering l*l + l + m puts (1,-1), (1,0), (1,+1) at 1, 2, 3, and
        # without the Condon-Shortley phase these are c*y, c*z, c*x.
        d = uniform_sphere(200, 5)
        out = real_spherical_harmonics(d, max_degree=1)
        c = math.sqrt(3.0 / (4.0 * math.pi))
        assert np.allclose(out[:, 1], c * d[:, 1])
        assert np.allclose(out[:, 2], c * d[:, 2])
        assert np.allclose(out[:, 3], c * d[:, 0])

    def test_degree_two_closed_forms(self):
        d = uniform_sphere(200, 6)
        x, y, z = d[:, 0], d[:, 1], d[:, 2]
        out = real_spherical_harmonics(d, max_degree=2)
        assert np.allclose(out[:, 4], 0.5 * math.sqrt(15.0 / math.pi) * x * y)
        assert np.allclose(out[:, 5], 0.5 * math.sqrt(15.0 / math.pi) * y * z)
        assert np.allclose(out[:, 6], 0.25 * math.sqrt(5.0 / math.pi) * (3.0 * z**2 - 1.0))
        assert np.allclose(out[:, 7], 0.5 * math.sqrt(15.0 / math.pi) * x * z)
        assert np.allclose(out[:, 8], 0.25 * math.sqrt(15.0 / math.pi) * (x**2 - y**2))

    def test_orthonormality_under_exact_quadrature(self):
        dirs, w = sphere_quadrature()
        basis = real_spherical_harmonics(dirs, max_degree=8)
        gram = basis.T @ (basis * w[:, None])
        assert np.allclose(gram, np.eye(81), atol=1e-10)

    def test_addition_theorem(self):
        # Sum over m of Y_lm^2 equals (2l+1)/(4 pi) at every direction.
        d = uniform_sphere(300, 7)
        out = real_spherical_harmonics(d, max_degree=8)
        for degree in range(9):
            block = out[:, degree * degree : (degree + 1) * (degree + 1)]
            total = np.sum(block**2, axis=1)
            assert np.allclose(total, (2 * degree + 1) / (4.0 * math.pi), atol=1e-10)

    def test_poles(self):
        out = real_spherical_harmonics([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], max_degree=8)
        assert np.all(np.isfinite(out))
        for degree in range(9):
            base = degree * degree + degree
            expected = math.sqrt((2 * degree + 1) / (4.0 * math.pi))
            assert out[0, base] == pytest.approx(expected)
            assert out[1, base] == pytest.approx(expected * (-1.0) ** degree)
            for m in range(1, degree + 1):
                assert out[0, base + m] == 0.0
                assert out[0, base - m] == 0.0

    def test_input_normalized_internally(self):
        d = uniform_sphere(20, 8)
        scaled = d * np.linspace(0.5, 4.0, 20)[:, None]
        assert np.allclose(
            real_spherical_harmonics(d, 4), real_spherical_harmonics(scaled, 4)
        )

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            real_spherical_harmonics([[0.0, 0.0, 0.0]], max_degree=2)
