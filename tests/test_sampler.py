"""Balanced split sampling: coverage, quota fill, patching, rare flags."""

import numpy as np
import pytest

from mono3dkit import (
    AnnotationRecord,
    DatasetFile,
    ImageRecord,
    SampleResult,
    SamplerTargets,
    sample_eval_split,
)
from mono3dkit.sampler import depth_quota_band


def make_image(id, source="coco"):
    return ImageRecord(id=id, width=640, height=480, fx=500.0, fy=500.0, cx=320.0, cy=240.0, source=source)


BAND_Z = {"near": 5.0, "mid": 20.0, "far": 50.0, "super_far": 120.0}


def make_annotation(id, image_id, category, band=None):
    kw = {}
    if band is not None:
        kw = dict(
            center=(0.0, 0.0, BAND_Z[band]),
            dims=(1.0, 1.0, 1.0),
            quaternion=(1.0, 0.0, 0.0, 0.0),
            quality="good_fit",
        )
    else:
        kw = dict(ignore3d=True)
    return AnnotationRecord(
        id=id, image_id=image_id, category=category, box2d=(0.0, 0.0, 10.0, 10.0), **kw
    )


class TestSamplerTargets:
    def test_default_quotas(self):
        t = SamplerTargets()
        assert t.depth_quotas == {"near": 0.50, "mid": 0.25, "far": 0.20, "super_far": 0.05}
        assert t.source_quotas == {"coco": 0.20, "lvis": 0.40, "objects365": 0.40}
        assert t.min_per_category == 3

    def test_quotas_must_sum_to_one(self):
        with pytest.raises(ValueError, match="depth quotas"):
            SamplerTargets(depth_quotas={"near": 0.5, "mid": 0.4})
        with pytest.raises(ValueError, match="source quotas"):
            SamplerTargets(source_quotas={"coco": 0.9, "lvis": 0.2})

    @pytest.mark.parametrize(
        "quotas, named",
        [
            ({"near": 0.5, "mid": 0.3, "far": 0.2}, r"missing \['super_far'\]"),
            ({"near": 0.5, "mid": 0.25, "far": 0.2, "superfar": 0.05}, r"unknown \['superfar'\]"),
        ],
        ids=["missing_band", "misspelled_band"],
    )
    def test_depth_quotas_name_every_band(self, quotas, named):
        with pytest.raises(ValueError, match="^depth quotas") as err:
            SamplerTargets(depth_quotas=quotas)
        err.match(named)

    def test_tolerance_on_quota_sum(self):
        SamplerTargets(depth_quotas={"near": 0.5 + 5e-10, "mid": 0.25, "far": 0.20, "super_far": 0.05})


class TestDepthQuotaBand:
    def test_boundaries(self):
        assert depth_quota_band(0.5) == "near"
        assert depth_quota_band(9.99) == "near"
        assert depth_quota_band(10.0) == "mid"
        assert depth_quota_band(35.0) == "mid"
        assert depth_quota_band(35.01) == "far"
        assert depth_quota_band(100.0) == "far"
        assert depth_quota_band(100.01) == "super_far"

    def test_labels_are_the_default_quota_keys(self):
        bands = {depth_quota_band(z) for z in (1.0, 20.0, 50.0, 200.0)}
        assert bands == set(SamplerTargets().depth_quotas)


class TestSetCover:
    def test_two_image_cover(self):
        # categories A:{img1}, B:{img1, img2}, C:{img2}
        ds = DatasetFile(
            images=[make_image("img1"), make_image("img2"), make_image("img3")],
            annotations=[
                make_annotation("a1", "img1", "A"),
                make_annotation("a2", "img1", "B"),
                make_annotation("a3", "img2", "B"),
                make_annotation("a4", "img2", "C"),
                make_annotation("a5", "img3", "B"),
            ],
        )
        res = sample_eval_split(ds, SamplerTargets(min_per_category=1))
        assert sorted(res.image_ids) == ["img1", "img2"]
        assert res.phase_sizes == (2, 2, 2)
        assert res.rare_categories == ()

    def test_full_coverage_on_scattered_pool(self):
        rng = np.random.default_rng(0)
        images = [make_image(f"im{i:03d}") for i in range(60)]
        annotations = []
        for i in range(60):
            for c in rng.choice(30, size=rng.integers(1, 4), replace=False):
                annotations.append(make_annotation(f"a{i}-{c}", f"im{i:03d}", f"cat{c:02d}"))
        ds = DatasetFile(images=images, annotations=annotations)
        res = sample_eval_split(ds, SamplerTargets(min_per_category=1), size=0, seed=3)
        chosen = set(res.image_ids)
        covered = {a.category for a in annotations if a.image_id in chosen}
        assert covered == {f"cat{c:02d}" for c in range(30)}

    def test_images_without_annotations_are_not_required(self):
        ds = DatasetFile(
            images=[make_image("img1"), make_image("img2")],
            annotations=[make_annotation("a1", "img1", "A")],
        )
        res = sample_eval_split(ds, SamplerTargets(min_per_category=1))
        assert res.image_ids == ["img1"]


class TestRareAndPatching:
    def pool(self):
        # "common" lives in 6 images, "scarce" in only 2
        images = [make_image(f"im{i}") for i in range(8)]
        annotations = [make_annotation(f"c{i}", f"im{i}", "common") for i in range(6)]
        annotations += [
            make_annotation("s6", "im6", "scarce"),
            make_annotation("s7", "im7", "scarce"),
        ]
        return DatasetFile(images=images, annotations=annotations)

    def test_scarce_category_flagged_not_patched(self):
        res = sample_eval_split(self.pool(), SamplerTargets(min_per_category=3))
        assert res.rare_categories == ("scarce",)
        # coverage picks one scarce image; patching must not add the other
        scarce_selected = [i for i in res.image_ids if i in ("im6", "im7")]
        assert len(scarce_selected) == 1

    def test_common_category_patched_to_minimum(self):
        res = sample_eval_split(self.pool(), SamplerTargets(min_per_category=3))
        common_selected = [i for i in res.image_ids if i in {f"im{k}" for k in range(6)}]
        assert len(common_selected) >= 3
        p1, p2, p3 = res.phase_sizes
        assert p1 <= p2 <= p3 == len(res.image_ids)

    def test_patching_respects_existing_selection(self):
        # with size covering everything, phase 3 has nothing to add
        res = sample_eval_split(self.pool(), SamplerTargets(min_per_category=3), size=8)
        assert res.phase_sizes[1] == res.phase_sizes[2] == 8


class TestBalancedFill:
    def pool(self, n=600):
        sources = ("coco", "lvis", "objects365")
        band_cycle = ["near"] * 10 + ["mid"] * 5 + ["far"] * 4 + ["super_far"]
        images, annotations = [], []
        for i in range(n):
            images.append(make_image(f"im{i:04d}", source=sources[i % 3]))
            annotations.append(
                make_annotation(f"a{i:04d}", f"im{i:04d}", "thing", band=band_cycle[i % 20])
            )
        return DatasetFile(images=images, annotations=annotations)

    def test_quotas_approached(self):
        res = sample_eval_split(self.pool(), size=200, seed=0)
        assert isinstance(res, SampleResult)
        assert len(res.image_ids) == 200
        assert res.source_proportions["coco"] == pytest.approx(0.20, abs=0.03)
        assert res.source_proportions["lvis"] == pytest.approx(0.40, abs=0.03)
        assert res.source_proportions["objects365"] == pytest.approx(0.40, abs=0.03)
        assert res.depth_proportions["near"] == pytest.approx(0.50, abs=0.03)
        assert res.depth_proportions["mid"] == pytest.approx(0.25, abs=0.03)
        assert res.depth_proportions["far"] == pytest.approx(0.20, abs=0.03)
        assert res.depth_proportions["super_far"] == pytest.approx(0.05, abs=0.03)

    def test_phase_sizes_and_sorted_ids(self):
        res = sample_eval_split(self.pool(), size=200, seed=0)
        assert res.phase_sizes == (1, 200, 200)
        assert res.image_ids == sorted(res.image_ids)

    def test_proportions_match_returned_ids(self):
        ds = self.pool(100)
        res = sample_eval_split(ds, size=40, seed=1)
        chosen = set(res.image_ids)
        src = {s: 0 for s in res.source_proportions}
        for im in ds.images:
            if im.id in chosen:
                src[im.source] += 1
        for s, v in src.items():
            assert res.source_proportions[s] == pytest.approx(v / len(chosen))
        bands = {b: 0 for b in res.depth_proportions}
        n_ann = 0
        for a in ds.annotations:
            if a.image_id in chosen and a.has_3d:
                bands[depth_quota_band(a.center[2])] += 1
                n_ann += 1
        for b, v in bands.items():
            assert res.depth_proportions[b] == pytest.approx(v / n_ann)

    def test_size_capped_by_pool(self):
        ds = self.pool(20)
        res = sample_eval_split(ds, size=500, seed=0)
        assert len(res.image_ids) == 20

    def test_size_zero_keeps_cover_only(self):
        res = sample_eval_split(self.pool(50), size=0, seed=0)
        assert res.phase_sizes[0] == res.phase_sizes[1]

    def test_deterministic_per_seed(self):
        a = sample_eval_split(self.pool(), size=150, seed=9)
        b = sample_eval_split(self.pool(), size=150, seed=9)
        assert a.image_ids == b.image_ids
        assert a.phase_sizes == b.phase_sizes

    def test_unknown_source_counts_nowhere(self):
        images = [make_image(f"im{i}", source="webcrawl") for i in range(4)]
        annotations = [make_annotation(f"a{i}", f"im{i}", "thing", band="near") for i in range(4)]
        res = sample_eval_split(DatasetFile(images=images, annotations=annotations), size=4)
        assert res.source_proportions == {"coco": 0.0, "lvis": 0.0, "objects365": 0.0}
        assert res.depth_proportions["near"] == 1.0


class TestEdgeCases:
    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty"):
            sample_eval_split(DatasetFile())

    def test_pool_without_3d_annotations(self):
        ds = DatasetFile(
            images=[make_image("im0"), make_image("im1")],
            annotations=[make_annotation("a0", "im0", "A")],
        )
        res = sample_eval_split(ds, SamplerTargets(min_per_category=1), size=2)
        assert set(res.depth_proportions.values()) == {0.0}
