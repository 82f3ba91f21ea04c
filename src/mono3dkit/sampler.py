"""Balanced evaluation-split sampling in three deterministic phases.

Phase 1 greedily covers every category present in the pool. Phase 2 fills
the split up to the requested size, each step adding the image whose
inclusion minimizes the L1 deviation of the running depth and source
distributions from their quotas (depth is measured over annotations, source
over images). Phase 3 patches categories below the minimum image count, and
flags the ones the pool cannot support as rare.

Ties at every step break by a seed-determined image order, so results are
reproducible given (pool, targets, size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import DatasetFile

__all__ = ["SamplerTargets", "SampleResult", "depth_quota_band", "sample_eval_split"]

_QUOTA_TOL = 1e-9
# The labels depth_quota_band returns; depth quotas must name exactly these.
_DEPTH_BANDS = ("near", "mid", "far", "super_far")


@dataclass
class SamplerTargets:
    """Target proportions and the per-category floor for an eval split."""

    depth_quotas: dict = field(
        default_factory=lambda: {"near": 0.50, "mid": 0.25, "far": 0.20, "super_far": 0.05}
    )
    source_quotas: dict = field(
        default_factory=lambda: {"coco": 0.20, "lvis": 0.40, "objects365": 0.40}
    )
    min_per_category: int = 3

    def __post_init__(self):
        for name, quotas in (("depth", self.depth_quotas), ("source", self.source_quotas)):
            total = sum(quotas.values())
            if abs(total - 1.0) > _QUOTA_TOL:
                raise ValueError(f"{name} quotas sum to {total}, expected 1")
        unknown = [k for k in self.depth_quotas if k not in _DEPTH_BANDS]
        missing = [b for b in _DEPTH_BANDS if b not in self.depth_quotas]
        if unknown or missing:
            raise ValueError(
                f"depth quotas must name the bands {list(_DEPTH_BANDS)}: unknown {unknown}, missing {missing}"
            )


@dataclass
class SampleResult:
    """Selected image ids plus the achieved balance diagnostics."""

    image_ids: list
    rare_categories: tuple
    depth_proportions: dict
    source_proportions: dict
    phase_sizes: tuple  # images selected by the end of each phase


def depth_quota_band(z: float) -> str:
    """near below 10, mid 10 to 35, far to 100, super_far beyond 100 m."""
    if z < 10.0:
        return "near"
    if z <= 35.0:
        return "mid"
    if z <= 100.0:
        return "far"
    return "super_far"


def _image_stats(dataset: DatasetFile, depth_keys, source_keys):
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


def _l1_deviation(counts: np.ndarray, totals: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """L1 distance between achieved proportions and quotas, rowwise."""
    safe = np.maximum(totals, 1.0)
    props = counts / safe[:, None]
    return np.abs(props - quotas[None, :]).sum(axis=1)


def sample_eval_split(
    dataset: DatasetFile,
    targets: SamplerTargets | None = None,
    size: int = 0,
    seed: int = 0,
) -> SampleResult:
    """Select a balanced evaluation split of roughly ``size`` images.

    ``size`` bounds phase 2 only; coverage (phase 1) and category patching
    (phase 3) may push the total above it. Categories whose entire pool
    holds fewer than ``min_per_category`` images are flagged rare and not
    force-patched.

    Raises:
        ValueError: empty dataset.
    """
    if not dataset.images:
        raise ValueError("cannot sample from an empty dataset")
    targets = targets or SamplerTargets()
    depth_keys = tuple(targets.depth_quotas)
    source_keys = tuple(targets.source_quotas)
    images, depth_counts, source_onehot, categories_of = _image_stats(dataset, depth_keys, source_keys)
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
        score = _l1_deviation(cand_depth, cand_ann, depth_quota) + _l1_deviation(
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
        k: float(source_onehot[sel_idx, j].sum() / total_img) for j, k in enumerate(source_keys)
    }
    return SampleResult(
        image_ids=[images[i].id for i in sel_idx],
        rare_categories=tuple(sorted(rare)),
        depth_proportions=depth_props,
        source_proportions=source_props,
        phase_sizes=(phase1, phase2, phase3),
    )
