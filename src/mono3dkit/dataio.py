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
import sys
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
SIZESPEC_VERSION = 1
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


def _json_text(obj, pad: str) -> str:
    """Canonical text of ``obj``, whose closing bracket, if any, is indented by ``pad``."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _canonical_number(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("object keys must be strings")
        items = [f"{inner}{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in keys]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [inner + _json_text(item, inner) for item in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, %.9g floats, trailing newline."""
    return _json_text(obj, "") + "\n"


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


# What a field row's ``null`` says about None, and on read about an absent key:
_REQUIRED = "required"  # never None, never absent
_NULL = "null"  # null or absent reads as None; None is written as null
_OMIT = "omit"  # null or absent reads as None; None is left out
_DEFAULT = "default"  # never None; absent takes the record type's default

# One table of (key, kind, null) rows per record kind. ``kind`` is str, int,
# bool, float (a finite number, as a float), an int n (a list of n finite
# numbers, as a tuple of floats) or a table: an object of the record's fields.
_INTRINSICS_FIELDS = tuple((key, float, _REQUIRED) for key in ("fx", "fy", "cx", "cy"))
_IMAGE_FIELDS = (
    ("id", str, _REQUIRED),
    *[(key, int, _REQUIRED) for key in ("width", "height")],
    ("intrinsics", _INTRINSICS_FIELDS, _REQUIRED),
    *[(key, str, _NULL) for key in ("depth_path", "source", "scene")],
)
_ANNOTATION_FIELDS = (
    *[(key, str, _REQUIRED) for key in ("id", "image_id", "category")],
    ("box2d", 4, _REQUIRED),
    *[(key, n, _OMIT) for key, n in (("center", 3), ("dims", 3), ("quaternion", 4))],
    ("ignore3d", bool, _REQUIRED),
    ("quality", str, _NULL),
    *[(key, float, _OMIT) for key in ("s2d", "s3d")],
    ("instance", int, _OMIT),
)
_SIZE_SPEC_FIELDS = (
    ("category", str, _REQUIRED),
    *[(key, 2, _REQUIRED) for key in ("shortest", "middle", "longest")],
    ("max_depth_ratio", float, _REQUIRED),
    *[(key, bool, _DEFAULT) for key in ("is_flat", "is_elongated", "fixed_size")],
)

_MISSING = object()  # the value of a key the JSON object lacks
_KINDS = {str: "a string", int: "an integer", float: "a finite number", bool: "true or false", dict: "an object"}


def _number(value):
    """A finite Python or NumPy int or float (not a bool) as a float, else None."""
    if type(value) is not float:
        if type(value) is int and abs(value) <= sys.float_info.max or isinstance(value, (np.integer, np.floating)):
            value = float(value)
        else:
            return None
    return value if math.isfinite(value) else None


def _field(value, key: str, kind, null: str, prefix: str):
    """``value`` of the field ``key``, checked against its row and converted:
    numbers to floats, lists of numbers to tuples of floats. Nothing else is
    coerced: bools are neither integers nor numbers.

    Raises:
        ValueError: ``prefix`` (e.g. ``"image 'im0': "``), then the field,
            the kind and the value.
    """
    if value is None:
        if null is _NULL or null is _OMIT:
            return None
    elif type(value) is kind:
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float:
        number = _number(value)
        if number is not None:
            return number
    elif type(kind) is int:
        if type(value) is np.ndarray:
            value = value.tolist()
        if type(value) in (list, tuple) and len(value) == kind:
            numbers = tuple(map(_number, value))
            if None not in numbers:
                return numbers
    expected = f"{kind} finite numbers" if type(kind) is int else _KINDS[kind]
    got = "but is missing" if value is _MISSING else f"got {list(value) if type(value) is tuple else value!r}"
    raise ValueError(f"{prefix}{key} must be {expected}{' or null' if null is _NULL or null is _OMIT else ''}, {got}")


def _read_fields(obj: dict, table: tuple, prefix: str, values: dict) -> dict:
    """``values`` with the fields of the JSON object ``obj`` added by key,
    each checked against its row of ``table``."""
    for key, kind, null in table:
        value = obj.get(key, _MISSING)
        if value is _MISSING and null is not _REQUIRED:
            continue
        if type(kind) is tuple:
            _read_fields(_field(value, key, dict, null, prefix), kind, f"{prefix}{key}.", values)
        else:
            values[key] = _field(value, key, kind, null, prefix)
    return values


def _write_fields(rec, table: tuple, prefix: str, values: dict) -> dict:
    """The JSON object of the record ``rec``, each field checked against its
    row of ``table``; ``values`` gets the converted fields by key."""
    obj = {}
    for key, kind, null in table:
        if type(kind) is tuple:
            obj[key] = _write_fields(rec, kind, f"{prefix}{key}.", values)
        else:
            values[key] = value = _field(getattr(rec, key), key, kind, null, prefix)
            if value is not None or null is not _OMIT:
                obj[key] = value
    return obj


def _image(values: dict) -> ImageRecord:
    """The image of checked fields, under its rules: positive size and focal length."""
    im = ImageRecord(**values)
    if not (im.width > 0 and im.height > 0):
        raise ValueError(f"image {im.id!r}: non-positive size")
    if not (im.fx > 0 and im.fy > 0):
        raise ValueError(f"image {im.id!r}: non-positive focal length")
    return im


def _annotation(values: dict) -> AnnotationRecord:
    """The annotation of checked fields, under the rules between them."""
    a = AnnotationRecord(**values)
    x0, y0, x1, y1 = a.box2d
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"annotation {a.id!r}: degenerate box2d")
    if len({v is None for v in (a.center, a.dims, a.quaternion)}) > 1:
        raise ValueError(f"annotation {a.id!r}: center, dims, quaternion must be present together")
    if a.quality is not None and a.quality not in QUALITY_RATINGS:
        raise ValueError(f"annotation {a.id!r}: unknown quality {a.quality!r}")
    # instance is a nonzero value of the uint16 instance map
    if a.instance is not None and not 1 <= a.instance <= 65535:
        raise ValueError(f"annotation {a.id!r}: instance must be an integer in 1..65535, got {a.instance!r}")
    if a.has_3d:
        if not all(d > 0 for d in a.dims):
            raise ValueError(f"annotation {a.id!r}: non-positive dims")
        norm = math.sqrt(sum(q * q for q in a.quaternion))
        if not abs(norm - 1.0) <= 1e-6:
            raise ValueError(f"annotation {a.id!r}: quaternion norm {norm:.8f} is not 1")
    should_ignore = (not a.has_3d) or a.quality == "unacceptable"
    if a.ignore3d != should_ignore:
        raise ValueError(f"annotation {a.id!r}: ignore3d must be {should_ignore} given its 3D fields and quality")
    return a


# Record kinds: (name in messages, field table, the typed record of checked
# fields under its rules). A record is named by its first field.
_IMAGE = ("image", _IMAGE_FIELDS, _image)
_ANNOTATION = ("annotation", _ANNOTATION_FIELDS, _annotation)
_SIZE_SPEC = ("category", _SIZE_SPEC_FIELDS, lambda values: SizeSpec(**values))


def _read_record(obj: dict, kind: tuple):
    """The typed record of the JSON object ``obj`` of kind ``kind``, named only in an error."""
    name, table, typed = kind
    try:
        values = _read_fields(obj, table, "", {})
    except ValueError as exc:
        raise ValueError(f"{name} {obj.get(table[0][0])!r}: {exc}") from exc
    return typed(values)


def _write_record(rec, kind: tuple) -> dict:
    """The JSON object of the record ``rec`` of kind ``kind``, checked as
    :func:`_read_record` checks what it reads."""
    name, table, typed = kind
    values: dict = {}
    obj = _write_fields(rec, table, f"{name} {getattr(rec, table[0][0])!r}: ", values)
    typed(values)
    return obj


def _unique(records, kind: tuple) -> dict:
    """The checked records of kind ``kind`` (an iterable, taken in order) by
    their first field, which no two may share."""
    name, table, _ = kind
    key = table[0][0]
    out = {}
    for rec in records:
        value = getattr(rec, key)
        if value in out:
            raise ValueError(f"{name} {value!r}: duplicate {key}")
        out[value] = rec
    return out


def _dataset_of(images, annotations) -> DatasetFile:
    """The dataset of checked image and annotation records, under the rules
    across records: ids are unique and every annotation's image exists."""
    images, annotations = _unique(images, _IMAGE), _unique(annotations, _ANNOTATION)
    for a in annotations.values():
        if a.image_id not in images:
            raise ValueError(f"annotation {a.id!r}: references missing image {a.image_id!r}")
    return DatasetFile(list(images.values()), list(annotations.values()))


def write_dataset(ds: DatasetFile, path: str):
    """Write ``ds`` in canonical form; a record that :func:`read_dataset`
    would refuse raises ValueError, naming it, before anything is written."""
    images = [_write_record(im, _IMAGE) for im in ds.images]
    annotations = [_write_record(a, _ANNOTATION) for a in ds.annotations]
    # a string converts to itself, so the given records carry the checked ids
    _dataset_of(ds.images, ds.annotations)
    doc = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "images": sorted(images, key=lambda o: o["id"]),
        "annotations": sorted(annotations, key=lambda o: o["id"]),
    }
    atomic_write_text(path, canonical_json(doc))


def _read_document(path: str, fmt: str, version: int, *sections: str) -> list:
    """The record lists ``sections`` (absent ones empty) of the JSON
    document in ``path``.

    Raises:
        ValueError: naming the path, for text that is not JSON, a top
            level that is not an object, another format, a version that is
            not an integer from 1 to ``version``, or a section that is not
            a list of objects.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} document")
    if not 1 <= _field(doc.get("version", _MISSING), "version", int, _REQUIRED, f"{path}: ") <= version:
        raise ValueError(f"{path}: unsupported version {doc['version']}")
    lists = []
    for section in sections:
        records = doc.get(section, [])
        if type(records) is not list:
            raise ValueError(f"{path}: {section} must be a list, got {records!r}")
        for i, obj in enumerate(records):
            if type(obj) is not dict:
                raise ValueError(f"{path}: {section}[{i}] must be an object, got {obj!r}")
        lists.append(records)
    return lists


def read_dataset(path: str) -> DatasetFile:
    """Parse and validate a dataset document.

    Raises:
        ValueError: naming the path, for a document of another format or
            version, a field of the wrong JSON kind, or a failed schema
            check; a record's error names the record and the field.
    """
    images, annotations = _read_document(path, DATASET_FORMAT, DATASET_VERSION, "images", "annotations")
    try:
        return _dataset_of(
            (_read_record(obj, _IMAGE) for obj in images), (_read_record(obj, _ANNOTATION) for obj in annotations)
        )
    except ValueError as exc:
        raise ValueError(f"{path}: malformed record ({exc})") from exc


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
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError("depth must be a 2D array")
    # Checked before the cast, which would turn a value beyond float32 into inf.
    if not (np.abs(depth) <= np.finfo(np.float32).max).all():
        raise ValueError("depth values must be finite and within float32 range")
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
    """One record per SizeSpec of ``specs`` (category -> SizeSpec), by
    category; a spec that :func:`read_size_specs` would refuse raises
    ValueError, naming it, before anything is written."""
    categories = [_write_record(spec, _SIZE_SPEC) for spec in specs.values()]
    _unique(specs.values(), _SIZE_SPEC)
    categories.sort(key=lambda o: o["category"])
    doc = {"format": SIZESPEC_FORMAT, "version": SIZESPEC_VERSION, "categories": categories}
    atomic_write_text(path, canonical_json(doc))


def read_size_specs(path: str) -> dict:
    """dict of category -> SizeSpec; an absent flag takes its default.

    Raises:
        ValueError: naming the path, for a document of another format or
            version, a field of the wrong JSON kind, or a category given
            twice; a record's error names the category and the field.
    """
    (records,) = _read_document(path, SIZESPEC_FORMAT, SIZESPEC_VERSION, "categories")
    try:
        return _unique((_read_record(obj, _SIZE_SPEC) for obj in records), _SIZE_SPEC)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed record ({exc})") from exc


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
