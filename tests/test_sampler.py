"""Balanced split sampling: coverage, quota fill, patching, rare flags."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import sampler_pool

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

    def test_empty_selection_reports_zero_proportions(self):
        ds = DatasetFile(images=[make_image("im0"), make_image("im1")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sample_eval_split(ds, size=0)
        assert res.image_ids == []
        assert res.phase_sizes == (0, 0, 0)
        assert res.source_proportions == {"coco": 0.0, "lvis": 0.0, "objects365": 0.0}
        assert set(res.depth_proportions.values()) == {0.0}


def parent_image_stats(dataset, depth_keys, source_keys):
    """Per-image depth-band annotation counts and source one-hots."""
    images = sorted(dataset.images, key=lambda im: im.id)
    index = {im.id: i for i, im in enumerate(images)}
    n = len(images)
    band_idx = {b: k for k, b in enumerate(depth_keys)}
    source_idx = {s: k for k, s in enumerate(source_keys)}
    depth_counts = np.zeros((n, len(depth_keys)))
    source_onehot = np.zeros((n, len(source_keys)))
    categories_of = [set() for _ in range(n)]
    for im in images:
        if im.source in source_idx:
            source_onehot[index[im.id], source_idx[im.source]] = 1.0
    for a in dataset.annotations:
        i = index[a.image_id]
        categories_of[i].add(a.category)
        if a.has_3d:
            depth_counts[i, band_idx[depth_quota_band(float(a.center[2]))]] += 1.0
    return images, depth_counts, source_onehot, categories_of


def parent_l1_deviation(counts, totals, quotas):
    """L1 distance between achieved proportions and quotas, rowwise."""
    safe = np.maximum(totals, 1.0)
    props = counts / safe[:, None]
    return np.abs(props - quotas[None, :]).sum(axis=1)


def parent_sample_eval_split(dataset, targets=None, size=0, seed=0):
    """sample_eval_split as it was before the incidence matrix: per-image
    category sets, per-category frozensets and a tie-rank array; only the
    empty-selection source proportions are fixed to 0.0."""
    if not dataset.images:
        raise ValueError("cannot sample from an empty dataset")
    targets = targets or SamplerTargets()
    depth_keys = tuple(targets.depth_quotas)
    source_keys = tuple(targets.source_quotas)
    images, depth_counts, source_onehot, categories_of = parent_image_stats(dataset, depth_keys, source_keys)
    n = len(images)
    rng = np.random.default_rng(seed)
    tie_rank = rng.permutation(n)

    all_categories = sorted(set().union(*categories_of) if categories_of else set())
    images_per_category = {
        c: frozenset(i for i in range(n) if c in categories_of[i]) for c in all_categories
    }

    selected = np.zeros(n, dtype=bool)

    # Phase 1: greedy set cover over categories.
    uncovered = set(all_categories)
    while uncovered:
        gains = np.array(
            [0 if selected[i] else len(uncovered & categories_of[i]) for i in range(n)]
        )
        best_gain = gains.max()
        if best_gain == 0:
            break
        candidates = np.flatnonzero(gains == best_gain)
        pick = candidates[np.argmin(tie_rank[candidates])]
        selected[pick] = True
        uncovered -= categories_of[pick]
    phase1 = int(selected.sum())

    # Phase 2: greedy balanced fill against depth and source quotas.
    depth_quota = np.array([targets.depth_quotas[k] for k in depth_keys])
    source_quota = np.array([targets.source_quotas[k] for k in source_keys])
    cur_depth = depth_counts[selected].sum(axis=0)
    cur_source = source_onehot[selected].sum(axis=0)
    n_ann = float(depth_counts[selected].sum())
    n_img = float(selected.sum())
    while selected.sum() < min(size, n):
        open_idx = np.flatnonzero(~selected)
        cand_depth = cur_depth[None, :] + depth_counts[open_idx]
        cand_source = cur_source[None, :] + source_onehot[open_idx]
        cand_ann = n_ann + depth_counts[open_idx].sum(axis=1)
        cand_img = np.full(open_idx.shape, n_img + 1.0)
        score = parent_l1_deviation(cand_depth, cand_ann, depth_quota) + parent_l1_deviation(
            cand_source, cand_img, source_quota
        )
        best = score.min()
        candidates = open_idx[score <= best + 1e-12]
        pick = candidates[np.argmin(tie_rank[candidates])]
        selected[pick] = True
        cur_depth += depth_counts[pick]
        cur_source += source_onehot[pick]
        n_ann += depth_counts[pick].sum()
        n_img += 1.0
    phase2 = int(selected.sum())

    # Phase 3: patch under-represented categories or flag them rare.
    rare = []
    for c in all_categories:
        pool = images_per_category[c]
        if len(pool) < targets.min_per_category:
            rare.append(c)
            continue
        have = sum(1 for i in pool if selected[i])
        if have >= targets.min_per_category:
            continue
        missing = sorted((i for i in pool if not selected[i]), key=lambda i: tie_rank[i])
        for i in missing[: targets.min_per_category - have]:
            selected[i] = True
    phase3 = int(selected.sum())

    sel_idx = np.flatnonzero(selected)
    total_ann = depth_counts[sel_idx].sum()
    total_img = len(sel_idx)
    depth_props = {
        k: float(depth_counts[sel_idx, j].sum() / total_ann) if total_ann > 0 else 0.0
        for j, k in enumerate(depth_keys)
    }
    source_props = {
        k: float(source_onehot[sel_idx, j].sum() / total_img) if total_img > 0 else 0.0
        for j, k in enumerate(source_keys)
    }
    return SampleResult(
        image_ids=[images[i].id for i in sel_idx],
        rare_categories=tuple(sorted(rare)),
        depth_proportions=depth_props,
        source_proportions=source_props,
        phase_sizes=(phase1, phase2, phase3),
    )


@st.composite
def pools(draw):
    """Up to 12 images in shuffled order, unknown and missing sources, and
    0-4 annotations each over 5 categories, some without 3D."""
    n = draw(st.integers(1, 12))
    images = [
        make_image(f"im{i:02d}", source=draw(st.sampled_from(["coco", "lvis", "objects365", "webcrawl", None])))
        for i in draw(st.permutations(range(n)))
    ]
    annotations = []
    for im in images:
        cells = st.tuples(st.sampled_from("ABCDE"), st.sampled_from([None, *BAND_Z]))
        for category, band in draw(st.lists(cells, max_size=4)):
            annotations.append(make_annotation(f"a{len(annotations)}", im.id, category, band=band))
    return DatasetFile(images=images, annotations=annotations)


@st.composite
def signature_pools(draw):
    """50-300 images, each a copy of one of at most 6 signatures (a source
    and 1-3 annotations' depth bands), with categories drawn from 8. Few
    signatures over many rows run dry during the fill, and cover picks fall
    inside a signature's row run."""
    signatures = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["coco", "lvis", "objects365", "webcrawl"]),
                st.lists(st.sampled_from([None, *BAND_Z]), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    images, annotations = [], []
    for i in range(draw(st.integers(50, 300))):
        source, bands = signatures[draw(st.integers(0, len(signatures) - 1))]
        images.append(make_image(f"im{i:03d}", source=source))
        for band in bands:
            category = draw(st.sampled_from("ABCDEFGH"))
            annotations.append(make_annotation(f"a{len(annotations)}", images[-1].id, category, band=band))
    return DatasetFile(images=images, annotations=annotations)


class TestEqualsParent:
    """The incidence matrix in tie-break order selects exactly what the
    per-image sets and tie ranks did, ties included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool=pools(), min_per_category=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2**32 - 1))
    def test_same_result_on_generated_pools(self, pool, min_per_category, seed):
        targets = SamplerTargets(min_per_category=min_per_category)
        n = len(pool.images)
        for size in (0, n // 2, n + 5):
            got = sample_eval_split(pool, targets, size=size, seed=seed)
            assert repr(got) == repr(parent_sample_eval_split(pool, targets, size=size, seed=seed)), size

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pool=signature_pools(), min_per_category=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2**32 - 1))
    def test_same_result_on_few_signature_pools(self, pool, min_per_category, seed):
        targets = SamplerTargets(min_per_category=min_per_category)
        n = len(pool.images)
        for size in (0, n // 3, n, n + 5):
            got = sample_eval_split(pool, targets, size=size, seed=seed)
            assert repr(got) == repr(parent_sample_eval_split(pool, targets, size=size, seed=seed)), size

    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_result_on_c9_pool(self, seed):
        ds, _ = sampler_pool()
        got = sample_eval_split(ds, size=600, seed=seed)
        assert repr(got) == repr(parent_sample_eval_split(ds, size=600, seed=seed))
