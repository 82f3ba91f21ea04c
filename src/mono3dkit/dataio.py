"""On-disk formats: dataset documents, depth maps, instance maps, size specs.

The dataset container is a single JSON document written in a canonical form
(sorted keys, fixed float formatting, 2-space indent) so that rewriting a
file is byte-stable and diffs stay readable. Depth and instance maps are
tiny binary formats with explicit magic, version, and dimensions; depth is
row-major float32 meters with 0.0 meaning invalid.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraModel, backproject
from .filters import SizeSpec
from .geometry import Box2D, Box3D

__all__ = [
    "DATASET_FORMAT",
    "DATASET_VERSION",
    "ImageRecord",
    "AnnotationRecord",
    "DatasetFile",
    "SceneCloud",
    "canonical_json",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_dataset",
    "write_dataset",
    "read_depth",
    "write_depth",
    "read_instance_map",
    "write_instance_map",
    "read_size_specs",
    "write_size_specs",
    "cloud_from_depth",
]

DATASET_FORMAT = "wd3d-dataset"
DATASET_VERSION = 1
SIZESPEC_FORMAT = "wd3d-sizespec"
_DEPTH_MAGIC = b"WD3D"
_INSTANCE_MAGIC = b"WD3I"
_BINARY_VERSION = 1
QUALITY_RATINGS = ("good_fit", "acceptable", "unacceptable")


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _canonical_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite numbers are not serializable")
    s = format(float(x), ".9g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _emit(obj, out: list, indent: int):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_canonical_number(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError("object keys must be strings")
            out.append(pad + "  " + json.dumps(k) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, %.9g floats, trailing newline."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def atomic_write_bytes(path: str, data: bytes):
    """Write via a temp file in the same directory, then rename over.

    The temp file is removed when the write or the rename fails.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Dataset document
# ---------------------------------------------------------------------------


@dataclass
class ImageRecord:
    """One image: identity, pixel size, pinhole intrinsics, origin tags."""

    id: str
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    depth_path: str | None = None
    source: str | None = None
    scene: str | None = None

    @property
    def camera(self) -> CameraModel:
        return CameraModel(self.fx, self.fy, self.cx, self.cy, self.width, self.height)


@dataclass
class AnnotationRecord:
    """One object annotation; 3D fields are present together or not at all."""

    id: str
    image_id: str
    category: str
    box2d: tuple  # (x0, y0, x1, y1)
    center: tuple | None = None
    dims: tuple | None = None
    quaternion: tuple | None = None
    ignore3d: bool = False
    quality: str | None = None
    s2d: float | None = None
    s3d: float | None = None
    instance: int | None = None

    @property
    def has_3d(self) -> bool:
        return self.center is not None

    def box3d(self) -> Box3D:
        if not self.has_3d:
            raise ValueError(f"annotation {self.id!r} has no 3D geometry")
        try:
            return Box3D(np.array(self.center), np.array(self.dims), np.array(self.quaternion))
        except ValueError as exc:
            raise ValueError(f"annotation {self.id!r}: {exc}") from exc

    def box2d_obj(self) -> Box2D:
        return Box2D(*self.box2d)


@dataclass
class DatasetFile:
    """A full dataset document: images plus annotations."""

    images: list = field(default_factory=list)
    annotations: list = field(default_factory=list)

    def image_by_id(self) -> dict:
        return {im.id: im for im in self.images}


def _check(cond: bool, what: str):
    if not cond:
        raise ValueError(what)


def _check_strings(name: str, record, keys, nullable: bool = False):
    """Each ``record.key`` is a string (or None when ``nullable``)."""
    for key in keys:
        value = getattr(record, key)
        if not (isinstance(value, str) or (nullable and value is None)):
            raise ValueError(f"{name}: {key} must be a string{' or null' if nullable else ''}, got {value!r}")


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def validate_dataset(ds: DatasetFile):
    """Schema invariants; error messages name the offending record."""
    seen = set()
    for im in ds.images:
        name = f"image {im.id!r}"
        _check_strings(name, im, ("id",))
        _check_strings(name, im, ("depth_path", "source", "scene"), nullable=True)
        _check(im.id not in seen, f"{name}: duplicate id")
        seen.add(im.id)
        _check(im.width > 0 and im.height > 0, f"{name}: non-positive size")
        _check(_finite((im.fx, im.fy, im.cx, im.cy)), f"{name}: non-finite intrinsics")
        _check(im.fx > 0 and im.fy > 0, f"{name}: non-positive focal length")
    ann_seen = set()
    for a in ds.annotations:
        name = f"annotation {a.id!r}"
        _check_strings(name, a, ("id", "image_id", "category"))
        _check(a.id not in ann_seen, f"{name}: duplicate id")
        ann_seen.add(a.id)
        _check(a.image_id in seen, f"{name}: references missing image {a.image_id!r}")
        _check(len(a.box2d) == 4, f"{name}: box2d has {len(a.box2d)} values, expected 4")
        _check(_finite(a.box2d), f"{name}: non-finite box2d")
        x0, y0, x1, y1 = a.box2d
        _check(x1 > x0 and y1 > y0, f"{name}: degenerate box2d")
        three_d = (a.center, a.dims, a.quaternion)
        _check(
            all(v is not None for v in three_d) or all(v is None for v in three_d),
            f"{name}: center, dims, quaternion must be present together",
        )
        if a.quality is not None:  # every rating is a string
            _check(a.quality in QUALITY_RATINGS, f"{name}: unknown quality {a.quality!r}")
        _check(_finite(v for v in (a.s2d, a.s3d) if v is not None), f"{name}: non-finite s2d or s3d")
        if a.instance is not None:  # a nonzero value of the uint16 instance map
            _check(
                isinstance(a.instance, int) and not isinstance(a.instance, bool) and 1 <= a.instance <= 65535,
                f"{name}: instance must be an integer in 1..65535, got {a.instance!r}",
            )
        if a.has_3d:
            _check(len(a.center) == 3 and len(a.dims) == 3 and len(a.quaternion) == 4, f"{name}: bad 3D field shapes")
            _check(_finite((*a.center, *a.dims, *a.quaternion)), f"{name}: non-finite center, dims or quaternion")
            _check(all(d > 0 for d in a.dims), f"{name}: non-positive dims")
            norm = math.sqrt(sum(q * q for q in a.quaternion))
            _check(abs(norm - 1.0) <= 1e-6, f"{name}: quaternion norm {norm:.8f} is not 1")
        should_ignore = (not a.has_3d) or a.quality == "unacceptable"
        _check(
            a.ignore3d == should_ignore,
            f"{name}: ignore3d must be {should_ignore} given its 3D fields and quality",
        )


def _image_to_obj(im: ImageRecord) -> dict:
    return {
        "id": im.id,
        "width": im.width,
        "height": im.height,
        "intrinsics": {"fx": im.fx, "fy": im.fy, "cx": im.cx, "cy": im.cy},
        "depth_path": im.depth_path,
        "source": im.source,
        "scene": im.scene,
    }


def _annotation_to_obj(a: AnnotationRecord) -> dict:
    obj = {
        "id": a.id,
        "image_id": a.image_id,
        "category": a.category,
        "box2d": [float(v) for v in a.box2d],
        "ignore3d": a.ignore3d,
        "quality": a.quality,
    }
    if a.has_3d:
        obj["center"] = [float(v) for v in a.center]
        obj["dims"] = [float(v) for v in a.dims]
        obj["quaternion"] = [float(v) for v in a.quaternion]
    for key in ("s2d", "s3d"):
        val = getattr(a, key)
        if val is not None:
            obj[key] = float(val)
    if a.instance is not None:
        obj["instance"] = int(a.instance)
    return obj


def write_dataset(ds: DatasetFile, path: str):
    validate_dataset(ds)
    doc = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "images": [_image_to_obj(im) for im in sorted(ds.images, key=lambda im: im.id)],
        "annotations": [_annotation_to_obj(a) for a in sorted(ds.annotations, key=lambda a: a.id)],
    }
    atomic_write_text(path, canonical_json(doc))


def _name_bad_number(record: str, obj: dict, fields):
    """Raise ValueError naming the record and the first field whose value its
    conversion rejects; ``fields`` holds (key, convert, value) triples. Returns
    when every value converts."""
    for key, convert, value in fields:
        try:
            convert(value)
        except (TypeError, ValueError):
            raise ValueError(f"{record} {obj['id']!r}: {key} must be numeric, got {value!r}") from None


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _parse_image(obj: dict) -> ImageRecord:
    intr = obj["intrinsics"]
    try:
        return ImageRecord(
            id=obj["id"],
            width=int(obj["width"]),
            height=int(obj["height"]),
            fx=float(intr["fx"]),
            fy=float(intr["fy"]),
            cx=float(intr["cx"]),
            cy=float(intr["cy"]),
            depth_path=obj.get("depth_path"),
            source=obj.get("source"),
            scene=obj.get("scene"),
        )
    except (TypeError, ValueError):
        fields = [(key, int, obj[key]) for key in ("width", "height")]
        fields += [(f"intrinsics.{key}", float, intr[key]) for key in ("fx", "fy", "cx", "cy")]
        _name_bad_number("image", obj, fields)
        raise


def _parse_annotation(obj: dict) -> AnnotationRecord:
    def optional(key, convert):
        v = obj.get(key)
        return convert(v) if v is not None else None

    try:
        return AnnotationRecord(
            id=obj["id"],
            image_id=obj["image_id"],
            category=obj["category"],
            box2d=_floats(obj["box2d"]),
            center=optional("center", _floats),
            dims=optional("dims", _floats),
            quaternion=optional("quaternion", _floats),
            ignore3d=bool(obj["ignore3d"]),
            quality=obj.get("quality"),
            s2d=optional("s2d", float),
            s3d=optional("s3d", float),
            instance=obj.get("instance"),  # checked, not converted, by validate_dataset
        )
    except (TypeError, ValueError):
        numbers = [(key, _floats) for key in ("box2d", "center", "dims", "quaternion")] + [("s2d", float), ("s3d", float)]
        fields = [(key, convert, obj[key]) for key, convert in numbers if obj.get(key) is not None]
        _name_bad_number("annotation", obj, fields)
        raise


def _read_document(path: str, fmt: str) -> dict:
    """The JSON object in ``path``, checked to carry ``"format": fmt``.

    Raises:
        ValueError: naming the path, for text that is not JSON, a top
            level that is not an object, or another format.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} document")
    return doc


def read_dataset(path: str) -> DatasetFile:
    """Parse and validate a dataset document.

    Raises:
        ValueError: naming the path, for a document of another format or
            version, a malformed record, or a failed schema check.
    """
    doc = _read_document(path, DATASET_FORMAT)
    try:
        if int(doc.get("version", 0)) > DATASET_VERSION:
            raise ValueError(f"unsupported version {doc['version']}")
        ds = DatasetFile(
            images=[_parse_image(o) for o in doc.get("images", [])],
            annotations=[_parse_annotation(o) for o in doc.get("annotations", [])],
        )
        validate_dataset(ds)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed record ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return ds


# ---------------------------------------------------------------------------
# Binary rasters
# ---------------------------------------------------------------------------


def _write_raster(path: str, magic: bytes, array: np.ndarray, dtype: str):
    h, w = array.shape
    header = magic + struct.pack("<HII", _BINARY_VERSION, w, h)
    atomic_write_bytes(path, header + array.astype(dtype).tobytes())


def _read_raster(path: str, magic: bytes, dtype: str, itemsize: int) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 14:
        raise ValueError(f"{path}: header is {len(blob)} bytes, expected 14")
    if blob[:4] != magic:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    version, w, h = struct.unpack("<HII", blob[4:14])
    if version != _BINARY_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    payload = blob[14:]
    if len(payload) != w * h * itemsize:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {w * h * itemsize}")
    return np.frombuffer(payload, dtype=dtype).reshape(h, w).copy()


def write_depth(path: str, depth: np.ndarray):
    """Depth map: 'WD3D', u16 version, u32 width, u32 height, f32 meters."""
    depth = np.asarray(depth, dtype=np.float32)
    if depth.ndim != 2:
        raise ValueError("depth must be a 2D array")
    if not np.isfinite(depth).all():
        raise ValueError("depth values must be finite")
    _write_raster(path, _DEPTH_MAGIC, depth, "<f4")


def read_depth(path: str) -> np.ndarray:
    depth = _read_raster(path, _DEPTH_MAGIC, "<f4", 4)
    if not np.isfinite(depth).all():
        raise ValueError(f"{path}: non-finite depth values")
    return depth


def write_instance_map(path: str, instances: np.ndarray):
    """Instance map: 'WD3I' header as depth, u16 ids, 0 = background."""
    inst = np.asarray(instances)
    if inst.ndim != 2:
        raise ValueError("instance map must be a 2D array")
    if inst.min() < 0 or inst.max() > np.iinfo(np.uint16).max:
        raise ValueError("instance ids must fit in uint16")
    _write_raster(path, _INSTANCE_MAGIC, inst, "<u2")


def read_instance_map(path: str) -> np.ndarray:
    return _read_raster(path, _INSTANCE_MAGIC, "<u2", 2)


# ---------------------------------------------------------------------------
# Size-spec file
# ---------------------------------------------------------------------------


def write_size_specs(specs: dict, path: str):
    """dict of category -> SizeSpec, one record per category."""
    records = []
    for name in sorted(specs):
        s = specs[name]
        records.append(
            {
                "category": name,
                "shortest": list(s.shortest),
                "middle": list(s.middle),
                "longest": list(s.longest),
                "max_depth_ratio": s.max_depth_ratio,
                "is_flat": s.is_flat,
                "is_elongated": s.is_elongated,
                "fixed_size": s.fixed_size,
            }
        )
    doc = {"format": SIZESPEC_FORMAT, "version": 1, "categories": records}
    atomic_write_text(path, canonical_json(doc))


def _parse_size_spec(obj: dict) -> SizeSpec:
    """One size-spec record: the category a string, each bound a pair of
    finite numbers, ``max_depth_ratio`` a finite number and each flag a JSON
    boolean.

    Raises:
        ValueError: naming the category and the field.
    """
    name = f"category {obj['category']!r}"
    if not isinstance(obj["category"], str):
        raise ValueError(f"{name}: category must be a string")

    def finite(key, value):
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"{name}: {key} must be a finite number, got {value!r}")
        return number

    def bounds(key):
        pair = obj[key]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{name}: {key} must be a [min, max] pair, got {pair!r}")
        return finite(key, pair[0]), finite(key, pair[1])

    def flag(key, default):
        value = obj.get(key, default)
        if not isinstance(value, bool):
            raise ValueError(f"{name}: {key} must be true or false, got {value!r}")
        return value

    return SizeSpec(
        category=obj["category"],
        shortest=bounds("shortest"),
        middle=bounds("middle"),
        longest=bounds("longest"),
        max_depth_ratio=finite("max_depth_ratio", obj["max_depth_ratio"]),
        is_flat=flag("is_flat", False),
        is_elongated=flag("is_elongated", False),
        fixed_size=flag("fixed_size", True),
    )


def read_size_specs(path: str) -> dict:
    """dict of category -> SizeSpec.

    Raises:
        ValueError: naming the path, for a document of another format or
            a malformed record.
    """
    doc = _read_document(path, SIZESPEC_FORMAT)
    out = {}
    try:
        for obj in doc.get("categories", []):
            spec = _parse_size_spec(obj)
            out[spec.category] = spec
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed record ({exc})") from exc
    return out


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


@dataclass
class SceneCloud:
    """Backprojected scene points with per-point pixel provenance.

    ``pixels[i]`` is the (row, col) of the depth pixel that produced
    ``points[i]``, which lets mask-based extraction select points.
    """

    points: np.ndarray  # (N, 3) float64
    pixels: np.ndarray  # (N, 2) int64, (row, col)
    flags: tuple = ()


def cloud_from_depth(depth: np.ndarray, camera: CameraModel) -> SceneCloud:
    """Backproject every valid (nonzero) depth pixel through its center."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (camera.height, camera.width):
        raise ValueError(
            f"depth is {depth.shape}, camera expects {(camera.height, camera.width)}"
        )
    rows, cols = np.nonzero(depth > 0)
    if rows.size == 0:
        return SceneCloud(np.zeros((0, 3)), np.zeros((0, 2), dtype=np.int64), flags=("empty",))
    px = np.column_stack([cols + 0.5, rows + 0.5])
    pts = backproject(camera, px, depth[rows, cols])
    return SceneCloud(pts, np.column_stack([rows, cols]).astype(np.int64))
