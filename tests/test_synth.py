"""Synthetic scenes: exact ray-cast depth, instance maps, annotations."""

import math

import numpy as np
import pytest

from mono3dkit import (
    Box3D,
    CameraModel,
    DatasetFile,
    SynthScene,
    SynthSpec,
    cloud_from_depth,
    iou3d,
    read_dataset,
    synth_scene,
    write_dataset,
)
from mono3dkit.camera import project
from mono3dkit import synth
from mono3dkit.geometry import matrix_to_quat, random_quaternion, yaw_to_matrix
from mono3dkit.synth import ray_box_depths

CAM = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)


def yaw_quat(yaw):
    return matrix_to_quat(yaw_to_matrix(yaw))


def aa_box(center, dims):
    return Box3D(np.array(center, dtype=float), np.array(dims, dtype=float), np.array([1.0, 0.0, 0.0, 0.0]))


class TestRayBoxDepths:
    def test_axis_aligned_front_face(self):
        box = aa_box([0.0, 0.0, 5.0], [2.0, 2.0, 2.0])
        t = ray_box_depths(np.array(0.0), np.array(0.0), box)
        assert t == pytest.approx(4.0, abs=1e-12)

    def test_oblique_hit_and_miss(self):
        box = aa_box([0.0, 0.0, 5.0], [2.0, 2.0, 2.0])
        # x(t) = dx * t; at the front face t = 4 the lateral offset decides
        dx = np.array([0.2, 0.5])
        t = ray_box_depths(dx, np.zeros(2), box)
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        assert np.isinf(t[1])

    def test_rotated_box_nearest_edge(self):
        # 45 degree yaw turns the footprint corner toward the camera
        box = Box3D(
            np.array([0.0, 0.0, 5.0]),
            np.array([2.0, 2.0, 2.0]),
            yaw_quat(math.pi / 4),
        )
        t = ray_box_depths(np.array(0.0), np.array(0.0), box)
        assert t == pytest.approx(5.0 - math.sqrt(2.0), abs=1e-12)

    def test_ray_origin_inside_box_returns_exit(self):
        box = aa_box([0.0, 0.0, 0.3], [2.0, 2.0, 2.0])
        t = ray_box_depths(np.array(0.0), np.array(0.0), box)
        assert t == pytest.approx(1.3, abs=1e-12)

    def test_box_behind_camera_misses(self):
        box = aa_box([0.0, 0.0, -5.0], [2.0, 2.0, 2.0])
        assert np.isinf(ray_box_depths(np.array(0.0), np.array(0.0), box))

    def test_parallel_ray_outside_slab_misses(self):
        box = aa_box([3.0, 0.0, 5.0], [2.0, 2.0, 2.0])
        assert np.isinf(ray_box_depths(np.array(0.0), np.array(0.0), box))

    def test_grid_shapes_preserved(self):
        box = aa_box([0.0, 0.0, 5.0], [2.0, 2.0, 2.0])
        dx, dy = np.meshgrid(np.linspace(-0.5, 0.5, 7), np.linspace(-0.5, 0.5, 5))
        t = ray_box_depths(dx, dy, box)
        assert t.shape == (5, 7)
        assert np.isfinite(t).any() and np.isinf(t).any()

    def test_unit_cube_silhouette_is_front_face_projection(self):
        # the nearest face (z = 3.5) sets the silhouette: 500 * 0.5 / 3.5
        # = 71.43 px from the principal point, a 142.9 px square
        cam = CameraModel(500.0, 500.0, 320.0, 240.0, 640, 480)
        box = aa_box([0.0, 0.0, 4.0], [1.0, 1.0, 1.0])
        u = (np.arange(cam.width) + 0.5 - cam.cx) / cam.fx
        v = (np.arange(cam.height) + 0.5 - cam.cy) / cam.fy
        dx, dy = np.meshgrid(u, v)
        mask = np.isfinite(ray_box_depths(dx, dy, box))
        cols = np.nonzero(mask.any(axis=0))[0]
        rows = np.nonzero(mask.any(axis=1))[0]
        side = 2.0 * 500.0 * 0.5 / 3.5
        assert abs((cols[-1] - cols[0] + 1) - side) <= 1.0
        assert abs((rows[-1] - rows[0] + 1) - side) <= 1.0
        # silhouette is a square centered on the principal point
        assert abs((cols[0] + cols[-1] + 1) / 2.0 - 320.0) <= 1e-9
        assert abs((rows[0] + rows[-1] + 1) / 2.0 - 240.0) <= 1e-9
        interior = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        assert interior.all()

    def test_matches_brute_force_sampling(self):
        # march along a few rays and compare first box entry against the slab test
        rng = np.random.default_rng(3)
        box = Box3D(np.array([0.3, 0.2, 4.0]), np.array([1.0, 0.8, 1.4]), yaw_quat(0.6))
        rot, half = box.rotation, box.dims / 2.0
        for _ in range(20):
            dx, dy = rng.uniform(-0.3, 0.3, size=2)
            t = float(ray_box_depths(np.array(dx), np.array(dy), box))
            zs = np.linspace(1e-3, 8.0, 200001)
            pts = np.stack([dx * zs, dy * zs, zs], axis=-1)
            local = (pts - box.center) @ rot
            inside = np.all(np.abs(local) <= half + 1e-12, axis=-1)
            if not inside.any():
                assert t > zs[-1] or np.isinf(t)
            else:
                assert t == pytest.approx(zs[np.argmax(inside)], abs=1e-3)


class TestSynthSpecValidation:
    def test_defaults_valid(self):
        SynthSpec()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SynthSpec(n_boxes=0)
        with pytest.raises(ValueError):
            SynthSpec(dims_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            SynthSpec(dims_range=(0.6, 0.5))
        with pytest.raises(ValueError):
            SynthSpec(height_range=(0.3, 0.2))
        with pytest.raises(ValueError):
            SynthSpec(depth_range=(2.0, 1.0))

    @pytest.mark.parametrize("floor_y", [float("nan"), float("inf"), -float("inf")])
    def test_floor_y_must_be_finite(self, floor_y):
        with pytest.raises(ValueError, match="floor_y must be finite"):
            SynthSpec(floor_y=floor_y)

    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(noise_sigma=sigma)


class TestSynthScene:
    def scene(self, seed=0, **kw):
        return synth_scene(SynthSpec(**kw), CAM, seed=seed)

    def test_output_shapes_and_types(self):
        sc = self.scene()
        assert isinstance(sc, SynthScene)
        assert sc.depth.shape == (960, 1280)
        assert sc.instance_map.shape == (960, 1280)
        assert sc.instance_map.dtype == np.uint16
        assert len(sc.boxes) == len(sc.masks) == len(sc.annotations) == 3

    def test_masks_match_instance_map(self):
        sc = self.scene()
        for k, mask in enumerate(sc.masks):
            assert mask.any()
            np.testing.assert_array_equal(mask, sc.instance_map == k + 1)
        assert not np.any(sc.instance_map > len(sc.boxes))

    def test_depth_positive_under_every_mask(self):
        sc = self.scene()
        for mask in sc.masks:
            assert np.all(sc.depth[mask] > 0)

    def test_masked_pixels_backproject_onto_box_surface(self):
        sc = self.scene(seed=2)
        cam = sc.image.camera
        for box, mask in zip(sc.boxes, sc.masks):
            rows, cols = np.nonzero(mask)
            z = sc.depth[rows, cols]
            x = (cols + 0.5 - cam.cx) / cam.fx * z
            y = (rows + 0.5 - cam.cy) / cam.fy * z
            local = (np.stack([x, y, z], axis=-1) - box.center) @ box.rotation
            slack = np.abs(local) - box.dims / 2.0
            # hit points sit exactly on one face, inside the other slabs
            assert np.max(slack) < 1e-9
            assert np.min(np.max(slack, axis=1)) > -1e-9

    def test_floor_pixels_backproject_to_plane(self):
        sc = self.scene()
        cam = sc.image.camera
        floor = (sc.depth > 0) & (sc.instance_map == 0)
        assert floor.any()
        rows, cols = np.nonzero(floor)
        y = (rows + 0.5 - cam.cy) / cam.fy * sc.depth[rows, cols]
        np.testing.assert_allclose(y, 1.2, atol=1e-9)

    def test_no_floor_means_background_is_zero(self):
        sc = self.scene(floor_y=None, n_boxes=1)
        covered = sc.depth > 0
        np.testing.assert_array_equal(covered, sc.instance_map > 0)

    def test_cloud_from_depth_consistency(self):
        sc = self.scene(seed=1)
        cloud = cloud_from_depth(sc.depth, sc.image.camera)
        assert cloud.points.shape[0] == int(np.count_nonzero(sc.depth > 0))
        np.testing.assert_allclose(
            cloud.points[:, 2], sc.depth[cloud.pixels[:, 0], cloud.pixels[:, 1]]
        )

    def test_boxes_disjoint_and_inside_margins(self):
        sc = self.scene(seed=4)
        for i, a in enumerate(sc.boxes):
            for b in sc.boxes[i + 1 :]:
                assert iou3d(a, b) == 0.0
            px = project(sc.image.camera, a.corners())
            assert px[:, 0].min() >= 8.0 and px[:, 0].max() <= 1280 - 8.0
            assert px[:, 1].min() >= 8.0 and px[:, 1].max() <= 960 - 8.0

    def test_boxes_rest_on_floor_with_yaw_only_rotation(self):
        sc = self.scene(seed=5)
        for box in sc.boxes:
            assert box.center[1] + box.dims[1] / 2.0 == pytest.approx(1.2, abs=1e-12)
            np.testing.assert_allclose(box.rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-12)

    def test_annotations_form_a_valid_dataset(self, tmp_path):
        sc = self.scene()
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        write_dataset(DatasetFile(images=[sc.image], annotations=sc.annotations), first)
        back = read_dataset(first)
        write_dataset(back, second)
        assert repr(read_dataset(second)) == repr(back)
        with open(first, "rb") as f, open(second, "rb") as g:
            assert f.read() == g.read()
        assert sc.image.id == "synth-000000"
        assert sc.image.source == "synthetic"
        for k, ann in enumerate(sc.annotations):
            assert ann.image_id == sc.image.id
            assert ann.category == "block"
            assert ann.quality == "good_fit"
            assert ann.instance == k + 1
            np.testing.assert_allclose(ann.center, sc.boxes[k].center)
            np.testing.assert_allclose(ann.dims, sc.boxes[k].dims)

    def test_annotation_box2d_is_projected_hull(self):
        sc = self.scene(seed=3)
        cam = sc.image.camera
        for box, ann in zip(sc.boxes, sc.annotations):
            px = project(cam, box.corners())
            assert ann.box2d[0] == pytest.approx(px[:, 0].min())
            assert ann.box2d[1] == pytest.approx(px[:, 1].min())
            assert ann.box2d[2] == pytest.approx(px[:, 0].max())
            assert ann.box2d[3] == pytest.approx(px[:, 1].max())

    def test_deterministic_per_seed(self):
        a = self.scene(seed=11)
        b = self.scene(seed=11)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.instance_map, b.instance_map)
        for ba, bb in zip(a.boxes, b.boxes):
            np.testing.assert_array_equal(ba.center, bb.center)
            np.testing.assert_array_equal(ba.dims, bb.dims)
            np.testing.assert_array_equal(ba.quaternion, bb.quaternion)

    def test_seeds_differ(self):
        a = self.scene(seed=11)
        b = self.scene(seed=12)
        assert not np.array_equal(a.depth, b.depth)

    def test_custom_image_id(self):
        sc = synth_scene(SynthSpec(n_boxes=1), CAM, seed=0, image_id="scene-a")
        assert sc.image.id == "scene-a"
        assert sc.annotations[0].id == "scene-a-obj000"

    def test_noise_perturbs_only_covered_pixels(self):
        clean = self.scene(seed=6, n_boxes=1)
        noisy = self.scene(seed=6, n_boxes=1, noise_sigma=0.01)
        covered = clean.depth > 0
        np.testing.assert_array_equal(noisy.depth == 0.0, ~covered)
        assert not np.array_equal(noisy.depth[covered], clean.depth[covered])
        assert noisy.depth[covered].min() >= 1e-3
        # layout itself is unchanged
        np.testing.assert_array_equal(clean.boxes[0].center, noisy.boxes[0].center)

    def test_categories_cycle(self):
        sc = self.scene(seed=0, categories=("mug", "bowl"))
        assert [a.category for a in sc.annotations] == ["mug", "bowl", "mug"]

    def test_placement_budget_exhaustion_raises(self):
        with pytest.raises(ValueError, match="placement failed"):
            self.scene(n_boxes=30, max_rejections=100)

    @pytest.mark.parametrize("clearance", [0.05, -0.05])
    def test_floor_check_is_the_lowest_box_bottom(self, clearance):
        # Box bottoms on the floor project at or below row cy + fy * floor_y / farthest depth.
        spec = SynthSpec(n_boxes=1, max_rejections=100)
        cy = 480.0 - 8.0 - clearance - 600.0 * spec.floor_y / spec.depth_range[1]
        camera = CameraModel(600.0, 600.0, 320.0, cy, 640, 480)
        if clearance < 0:
            with pytest.raises(ValueError, match=r"camera cannot see the floor: .* 1\.2 m below .*camera 640x480, fy 600"):
                synth_scene(spec, camera, seed=0)
        else:
            try:
                synth_scene(spec, camera, seed=0)
            except ValueError as exc:
                assert "placement failed" in str(exc)


def full_frame_render(boxes, spec, camera):
    """Depth and instance map with every box ray-cast over the whole image."""
    u = (np.arange(camera.width) + 0.5 - camera.cx) / camera.fx
    v = (np.arange(camera.height) + 0.5 - camera.cy) / camera.fy
    dx, dy = np.meshgrid(u, v)
    depth = np.full(dx.shape, np.inf)
    owner = np.full(dx.shape, -1)
    for k, box in enumerate(boxes):
        t = ray_box_depths(dx, dy, box)
        closer = t < depth
        depth[closer] = t[closer]
        owner[closer] = k
    if spec.floor_y is not None:
        with np.errstate(divide="ignore"):
            t_floor = np.where(dy > 1e-9, spec.floor_y / dy, np.inf)
        closer = t_floor < depth
        depth[closer] = t_floor[closer]
        owner[closer] = -2
    instance_map = np.zeros(dx.shape, dtype=np.uint16)
    for k in range(len(boxes)):
        instance_map[owner == k] = k + 1
    return np.where(np.isfinite(depth), depth, 0.0), instance_map


class TestWindowedRender:
    """synth_scene ray-casts each box only inside its padded projected box."""

    SMALL = CameraModel(300.0, 300.0, 160.0, 120.0, 320, 240)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_full_frame_render(self, seed):
        spec = SynthSpec(n_boxes=3)
        sc = synth_scene(spec, CAM, seed=seed)
        depth, instance_map = full_frame_render(sc.boxes, spec, CAM)
        assert np.array_equal(sc.depth, depth)
        assert np.array_equal(sc.instance_map, instance_map)

    def test_boxes_cut_by_the_image_border(self, monkeypatch):
        # Without the margin, and with boxes allowed 40 px past the border,
        # windows are clipped to the image on every side some scene reaches.
        monkeypatch.setattr(synth, "_MARGIN_PX", -40.0)
        reached = set()
        for seed in range(12):
            spec = SynthSpec(n_boxes=2, floor_y=None, depth_range=(1.0, 1.4))
            sc = synth_scene(spec, self.SMALL, seed=seed)
            depth, instance_map = full_frame_render(sc.boxes, spec, self.SMALL)
            assert np.array_equal(sc.depth, depth)
            assert np.array_equal(sc.instance_map, instance_map)
            for box in sc.boxes:
                px = project(self.SMALL, box.corners())
                beyond = (px[:, 0].min() < 0, px[:, 0].max() > 320, px[:, 1].min() < 0, px[:, 1].max() > 240)
                reached |= {side for side, out in zip("lrtb", beyond) if out}
        assert reached >= {"l", "r", "b"}
