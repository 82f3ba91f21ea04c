"""Balanced evaluation-split sampling in three deterministic phases.

Phase 1 greedily covers every category present in the pool. Phase 2 fills
the split up to the requested size, each step adding the image whose
inclusion minimizes the L1 deviation of the running depth and source
distributions from their quotas (depth is measured over annotations, source
over images). That deviation depends on an image only through its signature,
its (depth counts, source) pair, so each step scores every distinct signature
that still has an open image once, not every open image. Phase 3 patches
categories below the minimum image count, and flags the ones the pool cannot
support as rare.

Ties at every step break by a seed-determined image order, so results are
reproducible given (pool, targets, size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

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


def _l1_deviation(counts: np.ndarray, totals: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """L1 distance between achieved proportions and quotas, rowwise."""
    safe = np.maximum(totals, 1.0)
    props = counts / safe[:, None]
    return np.abs(props - quotas[None, :]).sum(axis=1)


def _proportions(counts: np.ndarray, total, keys) -> dict:
    """``counts / total`` by key; all 0.0 when ``total`` is 0."""
    return {k: float(counts[j] / total) if total > 0 else 0.0 for j, k in enumerate(keys)}


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
    band_idx = {b: k for k, b in enumerate(depth_keys)}
    source_idx = {s: k for k, s in enumerate(source_keys)}

    # Rows are the images in tie-break order: row r holds the image, in id
    # order, that the seeded permutation ranks r. The first best row is
    # therefore the tie winner in every phase.
    by_id = sorted(dataset.images, key=lambda im: im.id)
    n = len(by_id)
    images = [by_id[i] for i in np.argsort(np.random.default_rng(seed).permutation(n))]
    row = {im.id: r for r, im in enumerate(images)}
    categories = sorted({a.category for a in dataset.annotations})
    column = {c: k for k, c in enumerate(categories)}
    has = csr_matrix(
        (
            np.ones(len(dataset.annotations), dtype=np.int64),
            ([row[a.image_id] for a in dataset.annotations], [column[a.category] for a in dataset.annotations]),
        ),
        shape=(n, len(categories)),
    )
    has.data[:] = 1  # the constructor sums repeated (image, category) pairs
    depth_counts = np.zeros((n, len(depth_keys)))
    for a in dataset.annotations:
        if a.has_3d:
            depth_counts[row[a.image_id], band_idx[depth_quota_band(float(a.center[2]))]] += 1.0
    source_onehot = np.zeros((n, len(source_keys)))
    for r, im in enumerate(images):
        if im.source in source_idx:
            source_onehot[r, source_idx[im.source]] = 1.0

    selected = np.zeros(n, dtype=bool)

    # Phase 1: greedy set cover over categories. Each uncovered category has
    # an open image, and a selected image covers no uncovered one, so the
    # best gain is positive and never on a selected row.
    uncovered = np.ones(len(categories), dtype=np.int64)
    while uncovered.any():
        pick = np.argmax(has @ uncovered)
        selected[pick] = True
        uncovered[has.indices[has.indptr[pick] : has.indptr[pick + 1]]] = 0
    phase1 = int(selected.sum())

    # Phase 2: greedy balanced fill against depth and source quotas. Rows of
    # one signature score bit for bit alike, so each step scores the live
    # signatures once. Each signature queues its open rows in tie-break
    # order, so the first best row is the lowest queue head among the
    # signatures within 1e-12 of the best score.
    depth_quota = np.array([targets.depth_quotas[k] for k in depth_keys])
    source_quota = np.array([targets.source_quotas[k] for k in source_keys])
    cur_depth = depth_counts[selected].sum(axis=0)
    cur_source = source_onehot[selected].sum(axis=0)
    signatures, sig_of = np.unique(np.hstack([depth_counts, source_onehot]), axis=0, return_inverse=True)
    sig_depth, sig_source = np.hsplit(signatures, [len(depth_keys)])
    open_rows = np.flatnonzero(~selected)
    queue = open_rows[np.argsort(sig_of[open_rows], kind="stable")]
    queued = np.bincount(sig_of[open_rows], minlength=len(signatures))
    end = np.cumsum(queued)
    head = end - queued
    for step in range(phase1, min(size, n)):
        live = np.flatnonzero(head < end)
        cand_depth = cur_depth[None, :] + sig_depth[live]
        cand_source = cur_source[None, :] + sig_source[live]
        # Counts are integers, so these float totals are exact.
        cand_ann = cur_depth.sum() + sig_depth[live].sum(axis=1)
        cand_img = np.full(live.shape, step + 1.0)
        score = _l1_deviation(cand_depth, cand_ann, depth_quota) + _l1_deviation(
            cand_source, cand_img, source_quota
        )
        best = live[score <= score.min() + 1e-12]
        sig = best[np.argmin(queue[head[best]])]
        pick = queue[head[sig]]
        head[sig] += 1
        selected[pick] = True
        cur_depth += depth_counts[pick]
        cur_source += source_onehot[pick]
    phase2 = int(selected.sum())

    # Phase 3: patch under-represented categories or flag them rare. Each
    # column lists its images' rows in ascending, that is tie-break, order.
    members = has.tocsc()
    rare = []
    for k, c in enumerate(categories):
        pool = members.indices[members.indptr[k] : members.indptr[k + 1]]
        if len(pool) < targets.min_per_category:
            rare.append(c)
            continue
        have = np.count_nonzero(selected[pool])
        if have < targets.min_per_category:
            missing = pool[~selected[pool]]
            selected[missing[: targets.min_per_category - have]] = True
    phase3 = int(selected.sum())

    depth_sel = depth_counts[selected].sum(axis=0)
    source_sel = source_onehot[selected].sum(axis=0)
    return SampleResult(
        image_ids=sorted(images[r].id for r in np.flatnonzero(selected)),
        rare_categories=tuple(rare),
        depth_proportions=_proportions(depth_sel, depth_sel.sum(), depth_keys),
        source_proportions=_proportions(source_sel, selected.sum(), source_keys),
        phase_sizes=(phase1, phase2, phase3),
    )
