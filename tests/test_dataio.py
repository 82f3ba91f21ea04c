"""Dataset files, canonical JSON, binary rasters, and cloud backprojection."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mono3dkit import (
    AnnotationRecord,
    Box2D,
    Box3D,
    CameraModel,
    DatasetFile,
    ImageRecord,
    SamplerTargets,
    SizeSpec,
    canonical_json,
    cloud_from_depth,
    read_dataset,
    read_depth,
    read_instance_map,
    read_size_specs,
    sample_eval_split,
    write_dataset,
    write_depth,
    write_instance_map,
    write_size_specs,
)
from mono3dkit.camera import backproject
from mono3dkit.cli import detections_from_dataset, ground_truths_from_dataset, main
from mono3dkit.dataio import (
    _ANNOTATION_FIELDS,
    _IMAGE_FIELDS,
    _SIZE_SPEC_FIELDS,
    DATASET_FORMAT,
    QUALITY_RATINGS,
    SIZESPEC_FORMAT,
    _canonical_number,
    atomic_write_bytes,
    atomic_write_text,
)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def reference_emit(obj, out: list, indent: int):
    """The token-list canonical JSON emitter that ``canonical_json`` replaced,
    kept as the reference its bytes and errors are compared against."""
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
            reference_emit(obj[k], out, indent + 1)
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
            reference_emit(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_canonical_json(obj) -> str:
    out: list = []
    reference_emit(obj, out, 0)
    return "".join(out) + "\n"


def text_or_error(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan and inf included: both writers must refuse them alike
    st.floats(min_value=-1e10, max_value=1e10),  # where %.9g and repr part ways
    st.text(max_size=8),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.sampled_from([object(), {1, 2}, b"raw"]),  # types neither writer serializes
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int32]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)
JSON_DOCUMENTS = st.one_of(
    JSON_VALUES,
    st.dictionaries(st.integers(0, 3), JSON_VALUES, min_size=1, max_size=2),  # refused: keys are not strings
)


class TestCanonicalJson:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(obj=JSON_DOCUMENTS)
    def test_matches_the_reference_emitter(self, obj):
        assert text_or_error(canonical_json, obj) == text_or_error(reference_canonical_json, obj)

    def test_sorted_keys_indent_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [1.5, 2]})
        assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'

    def test_whole_floats_keep_a_decimal_point(self):
        assert canonical_json(1.0) == "1.0\n"
        assert canonical_json(-3.0) == "-3.0\n"
        # 9 significant digits, then the ".0" restores float-ness
        assert canonical_json(123456789.1) == "123456789.0\n"

    def test_short_decimals_render_exactly(self):
        assert canonical_json(0.1) == "0.1\n"
        assert canonical_json(2.5) == "2.5\n"

    def test_exponent_forms_left_alone(self):
        assert canonical_json(2e-10) == "2e-10\n"
        assert canonical_json(1e20) == "1e+20\n"

    def test_ints_and_bools_and_null(self):
        assert canonical_json(7) == "7\n"
        assert canonical_json(True) == "true\n"
        assert canonical_json(False) == "false\n"
        assert canonical_json(None) == "null\n"

    def test_bool_not_confused_with_int(self):
        # dict key order must also sort, and True must not print as 1
        assert canonical_json({"x": True}) == '{\n  "x": true\n}\n'

    def test_empty_containers(self):
        assert canonical_json({}) == "{}\n"
        assert canonical_json([]) == "[]\n"
        assert canonical_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"v": np.float64(0.5), "n": np.int32(3), "a": np.arange(2)})
        assert text == '{\n  "a": [\n    0,\n    1\n  ],\n  "n": 3,\n  "v": 0.5\n}\n'

    def test_string_escaping_via_json(self):
        assert canonical_json('he said "hi"') == '"he said \\"hi\\""\n'

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1: "a"})

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_insertion_order_does_not_matter(self):
        a = canonical_json({"x": 1, "y": 2, "z": 3})
        b = canonical_json({"z": 3, "x": 1, "y": 2})
        assert a == b

    def test_nested_indentation(self):
        text = canonical_json({"o": {"k": [1]}})
        assert text == '{\n  "o": {\n    "k": [\n      1\n    ]\n  }\n}\n'


class TestAtomicWrite:
    def test_bytes_roundtrip_and_no_temp_left(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write_bytes(str(path), b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"
        assert os.listdir(tmp_path) == ["x.bin"]

    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "x.txt"
        atomic_write_text(str(path), "héllo\n")
        assert path.read_text(encoding="utf-8") == "héllo\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"

    def test_failed_rename_removes_temp(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(str(target), b"data")
        assert os.listdir(tmp_path) == ["dir"]


# ---------------------------------------------------------------------------
# Dataset documents
# ---------------------------------------------------------------------------


def make_image(id="im0", **kw):
    base = dict(width=640, height=480, fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    base.update(kw)
    return ImageRecord(id=id, **base)


def make_annotation(id="a0", image_id="im0", **kw):
    base = dict(category="box", box2d=(10.0, 20.0, 110.0, 120.0))
    base.update(kw)
    return AnnotationRecord(id=id, image_id=image_id, **base)


def full_annotation(id="a0", image_id="im0", **kw):
    # quaternion (0.8, 0, 0.6, 0) has norm exactly 1 and survives %.9g
    base = dict(
        center=(0.25, -0.5, 3.0),
        dims=(0.5, 1.0, 2.0),
        quaternion=(0.8, 0.0, 0.6, 0.0),
        quality="good_fit",
        s2d=0.75,
        s3d=0.5,
        instance=4,
    )
    base.update(kw)
    return make_annotation(id=id, image_id=image_id, **base)


def sample_dataset():
    images = [make_image("im1"), make_image("im0", width=1280, height=960)]
    annotations = [
        full_annotation("a1", "im1"),
        make_annotation("a0", "im0", ignore3d=True),
        full_annotation("a2", "im1", quality="unacceptable", ignore3d=True),
    ]
    return DatasetFile(images=images, annotations=annotations)


class TestRecordHelpers:
    def test_image_camera_property(self):
        cam = make_image().camera
        assert isinstance(cam, CameraModel)
        assert (cam.fx, cam.fy, cam.cx, cam.cy) == (500.0, 500.0, 320.0, 240.0)
        assert (cam.width, cam.height) == (640, 480)

    def test_annotation_box_accessors(self):
        a = full_annotation()
        assert a.has_3d
        b3 = a.box3d()
        assert isinstance(b3, Box3D)
        np.testing.assert_allclose(b3.center, [0.25, -0.5, 3.0])
        b2 = a.box2d_obj()
        assert isinstance(b2, Box2D)
        assert (b2.x1, b2.y1, b2.x2, b2.y2) == (10.0, 20.0, 110.0, 120.0)

    def test_box3d_requires_geometry(self):
        a = make_annotation(ignore3d=True)
        assert not a.has_3d
        with pytest.raises(ValueError):
            a.box3d()


class TestValidateDataset:
    """The dataset rules, as ``write_dataset`` applies them before it writes
    anything; ``read_dataset`` parses with the same code."""

    @pytest.fixture(autouse=True)
    def out_dir(self, tmp_path):
        self.tmp_path = tmp_path

    def write(self, ds):
        write_dataset(ds, str(self.tmp_path / "ds.json"))

    def test_valid_dataset_passes(self):
        self.write(sample_dataset())
        assert os.listdir(self.tmp_path) == ["ds.json"]

    def check(self, ds, message_part):
        with pytest.raises(ValueError, match=re.escape(message_part)):
            self.write(ds)
        assert os.listdir(self.tmp_path) == []

    def test_duplicate_image_id(self):
        ds = DatasetFile(images=[make_image("im0"), make_image("im0")])
        self.check(ds, "duplicate id")

    def test_non_positive_image_size(self):
        ds = DatasetFile(images=[make_image("im0", width=0)])
        self.check(ds, "non-positive size")

    def test_non_positive_focal_length(self):
        ds = DatasetFile(images=[make_image("im0", fx=0.0)])
        self.check(ds, "non-positive focal")

    def test_duplicate_annotation_id(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[make_annotation("a0", ignore3d=True), make_annotation("a0", ignore3d=True)],
        )
        self.check(ds, "duplicate id")

    def test_missing_image_reference(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[make_annotation(image_id="im9", ignore3d=True)])
        self.check(ds, "missing image")

    def test_degenerate_box2d(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[make_annotation(box2d=(10.0, 20.0, 10.0, 120.0), ignore3d=True)],
        )
        self.check(ds, "degenerate box2d")

    def test_partial_3d_fields(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[make_annotation(center=(0.0, 0.0, 1.0), ignore3d=True)],
        )
        self.check(ds, "annotation 'a0': center, dims, quaternion must be present together")

    def test_unknown_quality(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[full_annotation(quality="great")])
        self.check(ds, "unknown quality")

    def test_quality_ratings_constant(self):
        assert QUALITY_RATINGS == ("good_fit", "acceptable", "unacceptable")

    def test_bad_3d_shapes(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[full_annotation(center=(0.0, 1.0))],
        )
        self.check(ds, "annotation 'a0': center must be 3 finite numbers or null, got [0.0, 1.0]")

    def test_non_positive_dims(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[full_annotation(dims=(0.5, -1.0, 2.0))])
        self.check(ds, "non-positive dims")

    def test_box2d_length_checked_before_unpacking(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[make_annotation(box2d=(1.0, 2.0, 3.0), ignore3d=True)])
        self.check(ds, "annotation 'a0': box2d must be 4 finite numbers, got [1.0, 2.0, 3.0]")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("box2d", "box2d must be 4 finite numbers"),
            ("center", "center must be 3 finite numbers or null"),
            ("dims", "dims must be 3 finite numbers or null"),
            ("quaternion", "quaternion must be 4 finite numbers or null"),
            ("s2d", "s2d must be a finite number or null"),
            ("s3d", "s3d must be a finite number or null"),
        ],
        ids=[f"{field}-non-finite" for field in ("box2d", "center", "dims", "quaternion", "s2d", "s3d")],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_annotation_fields_name_the_record(self, field, message, bad):
        good = full_annotation("a7")
        value = getattr(good, field)
        value = bad if isinstance(value, float) else (bad, *value[1:])
        ds = DatasetFile(images=[make_image("im0")], annotations=[full_annotation("a7", **{field: value})])
        self.check(ds, f"annotation 'a7': {message}")

    @pytest.mark.parametrize("key", ["fx", "fy", "cx", "cy"])
    def test_non_finite_intrinsics_name_the_image(self, key):
        ds = DatasetFile(images=[make_image("im3", **{key: math.nan})])
        self.check(ds, f"image 'im3': intrinsics.{key} must be a finite number, got nan")

    def test_non_unit_quaternion(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[full_annotation(quaternion=(0.8, 0.0, 0.6001, 0.0))],
        )
        self.check(ds, "quaternion norm")

    def test_quaternion_tolerance_is_loose_enough(self):
        # norm off by < 1e-6 still validates (serialized values are rounded)
        q = (0.8, 0.0, 0.6 + 4e-7, 0.0)
        ds = DatasetFile(images=[make_image("im0")], annotations=[full_annotation(quaternion=q)])
        self.write(ds)

    def test_ignore3d_must_be_true_without_geometry(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[make_annotation(ignore3d=False)])
        self.check(ds, "ignore3d must be True")

    def test_ignore3d_must_be_true_for_unacceptable(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[full_annotation(quality="unacceptable", ignore3d=False)],
        )
        self.check(ds, "ignore3d must be True")

    def test_ignore3d_must_be_false_for_good_geometry(self):
        ds = DatasetFile(images=[make_image("im0")], annotations=[full_annotation(ignore3d=True)])
        self.check(ds, "ignore3d must be False")


SAMPLE_DATASET_SHA256 = "e0764a2c93f8df5c0f34b511f827272bb7bbbf2ac8643bb84551edd8f09fb369"


class TestDatasetRoundtrip:
    def test_records_survive(self, tmp_path):
        path = str(tmp_path / "ds.json")
        ds = sample_dataset()
        write_dataset(ds, path)
        back = read_dataset(path)
        assert sorted(back.images, key=lambda im: im.id) == sorted(ds.images, key=lambda im: im.id)
        assert sorted(back.annotations, key=lambda a: a.id) == sorted(ds.annotations, key=lambda a: a.id)

    def test_file_is_sorted_and_tagged(self, tmp_path):
        path = str(tmp_path / "ds.json")
        write_dataset(sample_dataset(), path)
        import json

        doc = json.loads(open(path).read())
        assert doc["format"] == DATASET_FORMAT
        assert doc["version"] == 1
        assert [im["id"] for im in doc["images"]] == ["im0", "im1"]
        assert [a["id"] for a in doc["annotations"]] == ["a0", "a1", "a2"]

    def test_write_is_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ds = sample_dataset()
        write_dataset(ds, p1)
        # shuffled record order writes the same bytes
        ds2 = DatasetFile(images=ds.images[::-1], annotations=ds.annotations[::-1])
        write_dataset(ds2, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_optional_fields_omitted(self, tmp_path):
        path = str(tmp_path / "ds.json")
        write_dataset(
            DatasetFile(images=[make_image()], annotations=[make_annotation(ignore3d=True)]),
            path,
        )
        import json

        ann = json.loads(open(path).read())["annotations"][0]
        for absent in ("center", "dims", "quaternion", "s2d", "s3d", "instance"):
            assert absent not in ann

    def test_write_validates_first(self, tmp_path):
        path = str(tmp_path / "ds.json")
        bad = DatasetFile(images=[make_image()], annotations=[make_annotation(ignore3d=False)])
        with pytest.raises(ValueError):
            write_dataset(bad, path)
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "index, field, value, message",
        [
            (None, "width", 640.0, "image 'im1': width must be an integer, got 640.0"),
            (None, "id", 5, "image 5: id must be a string, got 5"),
            (None, "source", 3, "image 'im1': source must be a string or null, got 3"),
            (1, "ignore3d", 1, "annotation 'a0': ignore3d must be true or false, got 1"),
            (0, "box2d", "1234", "annotation 'a1': box2d must be 4 finite numbers, got '1234'"),
            (0, "s2d", True, "annotation 'a1': s2d must be a finite number or null, got True"),
            (0, "ignore3d", np.True_, "annotation 'a1': ignore3d must be true or false, got np.True_"),
        ],
        ids=["width", "id", "source", "ignore3d", "box2d-text", "s2d-bool", "ignore3d-numpy-bool"],
    )
    def test_write_refuses_what_read_refuses(self, tmp_path, index, field, value, message):
        ds = sample_dataset()
        setattr(ds.images[0] if index is None else ds.annotations[index], field, value)
        with pytest.raises(ValueError, match=re.escape(message)):
            write_dataset(ds, str(tmp_path / "ds.json"))
        assert os.listdir(tmp_path) == []

    def test_valid_records_write_pinned_bytes(self, tmp_path):
        path = tmp_path / "ds.json"
        write_dataset(sample_dataset(), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SAMPLE_DATASET_SHA256

    def test_numpy_reals_write_as_floats(self, tmp_path):
        path = tmp_path / "ds.json"
        ds = sample_dataset()
        ds.annotations[0].box2d = np.array(ds.annotations[0].box2d, dtype=np.float32)
        ds.annotations[0].s3d = np.float64(ds.annotations[0].s3d)
        write_dataset(ds, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAMPLE_DATASET_SHA256
        a1 = next(a for a in read_dataset(str(path)).annotations if a.id == "a1")
        assert repr((a1.box2d, a1.s3d)) == "((10.0, 20.0, 110.0, 120.0), 0.5)"

    def test_equal_records_write_equal_bytes(self, tmp_path):
        ints = DatasetFile(
            images=[make_image(fx=500, fy=500, cx=320, cy=240)],
            annotations=[make_annotation(box2d=(10, 20, 110, 120), ignore3d=True, s2d=1)],
        )
        floats = DatasetFile(images=[make_image()], annotations=[make_annotation(ignore3d=True, s2d=1.0)])
        assert ints == floats
        write_dataset(ints, str(tmp_path / "ints.json"))
        write_dataset(floats, str(tmp_path / "floats.json"))
        assert (tmp_path / "ints.json").read_bytes() == (tmp_path / "floats.json").read_bytes()

    @pytest.mark.parametrize(
        "fields",
        [{"dims": (1.0, 1.0, 1.0)}, {"center": (0.0, 0.0, 1.0), "dims": (1.0, 1.0, 1.0)}],
        ids=["dims", "center-dims"],
    )
    def test_write_names_a_partial_3d_record(self, tmp_path, fields):
        ds = DatasetFile(images=[make_image()], annotations=[make_annotation("a3", ignore3d=True, **fields)])
        with pytest.raises(ValueError, match=re.escape("annotation 'a3': center, dims, quaternion must be present together")):
            write_dataset(ds, str(tmp_path / "ds.json"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("box2d", (1.0, "x", 30.0, 40.0), "box2d must be 4 finite numbers, got [1.0, 'x', 30.0, 40.0]"),
            ("box2d", None, "box2d must be 4 finite numbers, got None"),
            ("center", (0.0, None, 1.0), "center must be 3 finite numbers or null, got [0.0, None, 1.0]"),
            ("s2d", "high", "s2d must be a finite number or null, got 'high'"),
        ],
        ids=["box2d-text", "box2d-none", "center-none", "s2d-text"],
    )
    def test_write_names_a_value_that_does_not_convert(self, tmp_path, field, value, message):
        ds = sample_dataset()
        setattr(ds.annotations[0], field, value)
        with pytest.raises(ValueError, match=re.escape(f"annotation 'a1': {message}")):
            write_dataset(ds, str(tmp_path / "ds.json"))
        assert os.listdir(tmp_path) == []

    def test_read_rejects_wrong_format(self, tmp_path):
        path = str(tmp_path / "ds.json")
        atomic_write_text(path, canonical_json({"format": "other", "version": 1}))
        with pytest.raises(ValueError, match="not a"):
            read_dataset(path)

    def test_read_rejects_future_version(self, tmp_path):
        path = str(tmp_path / "ds.json")
        atomic_write_text(path, canonical_json({"format": DATASET_FORMAT, "version": 2}))
        with pytest.raises(ValueError, match="unsupported version"):
            read_dataset(path)

    def test_read_flags_malformed_records(self, tmp_path):
        path = str(tmp_path / "ds.json")
        doc = {"format": DATASET_FORMAT, "version": 1, "images": [{"id": "im0"}], "annotations": []}
        atomic_write_text(path, canonical_json(doc))
        with pytest.raises(ValueError, match="malformed record"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "text", ["[]", '"wd3d-dataset"', "{not json", '{"format": "wd3d-dataset", "version": "x"}']
    )
    def test_read_errors_name_the_path(self, tmp_path, text):
        path = str(tmp_path / "ds.json")
        atomic_write_text(path, text)
        with pytest.raises(ValueError, match="ds.json: "):
            read_dataset(path)

    def test_read_validates_content(self, tmp_path):
        path = str(tmp_path / "ds.json")
        doc = {
            "format": DATASET_FORMAT,
            "version": 1,
            "images": [],
            "annotations": [
                {
                    "id": "a0",
                    "image_id": "ghost",
                    "category": "box",
                    "box2d": [0.0, 0.0, 1.0, 1.0],
                    "ignore3d": True,
                    "quality": None,
                }
            ],
        }
        atomic_write_text(path, canonical_json(doc))
        with pytest.raises(ValueError, match="missing image"):
            read_dataset(path)


def small_pool(n_images=300, seed=0):
    """A pool for the sampler: images of three sources, each with one to
    three annotations of 40 categories across the depth bands, some 2D-only."""
    rng = np.random.default_rng(seed)
    images, annotations = [], []
    for i in range(n_images):
        source = ("coco", "lvis", "objects365")[rng.integers(3)]
        images.append(make_image(f"im{i:04d}", source=source))
        for k in range(rng.integers(1, 4)):
            category = f"cat{rng.integers(40):02d}"
            if rng.random() < 0.2:
                annotations.append(make_annotation(f"a{i:04d}-{k}", f"im{i:04d}", category=category, ignore3d=True))
            else:
                z = float(rng.choice([5.0, 20.0, 50.0, 120.0]))
                fields = dict(center=(0.0, 0.0, z), s2d=None, s3d=None, instance=None)
                annotations.append(full_annotation(f"a{i:04d}-{k}", f"im{i:04d}", category=category, **fields))
    return DatasetFile(images=images, annotations=annotations)


class TestRecordOrderInvariance:
    def test_shuffled_records_read_to_the_same_split_and_bytes(self, tmp_path):
        path = tmp_path / "pool.json"
        write_dataset(small_pool(), str(path))
        split = sample_eval_split(read_dataset(str(path)), SamplerTargets(), size=60, seed=3)
        doc = json.loads(path.read_text())
        rng = np.random.default_rng(1)
        for k in range(3):
            shuffled_path = tmp_path / f"shuffled{k}.json"
            for section in ("images", "annotations"):
                doc[section] = [doc[section][i] for i in rng.permutation(len(doc[section]))]
            shuffled_path.write_text(json.dumps(doc))
            shuffled = read_dataset(str(shuffled_path))
            assert sample_eval_split(shuffled, SamplerTargets(), size=60, seed=3) == split
            write_dataset(shuffled, str(shuffled_path))
            assert shuffled_path.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# Binary rasters
# ---------------------------------------------------------------------------


class TestDepthRaster:
    def test_roundtrip_is_exact(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 10.0, size=(7, 5)).astype(np.float32).astype(np.float64)
        write_depth(path, depth)
        back = read_depth(path)
        assert back.shape == (7, 5)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, depth.astype(np.float32))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        write_depth(path, np.ones((2, 3)))
        blob = open(path, "rb").read()
        assert blob[:4] == b"WD3D"
        version, w, h = struct.unpack("<HII", blob[4:14])
        assert (version, w, h) == (1, 3, 2)
        assert len(blob) == 14 + 2 * 3 * 4

    def test_requires_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_depth(str(tmp_path / "d"), np.ones(5))

    def test_rejects_non_finite_on_write(self, tmp_path):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            write_depth(str(tmp_path / "d"), bad)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_rejects_values_beyond_float32_without_a_warning(self, tmp_path, value):
        bad = np.ones((2, 2))
        bad[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="within float32 range"):
                write_depth(str(tmp_path / "d"), bad)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        atomic_write_bytes(path, b"JUNK" + struct.pack("<HII", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValueError, match="bad magic"):
            read_depth(path)

    def test_rejects_future_version(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        write_depth(path, np.ones((2, 2)))
        blob = bytearray(open(path, "rb").read())
        blob[4:6] = struct.pack("<H", 2)
        atomic_write_bytes(path, bytes(blob))
        with pytest.raises(ValueError, match="unsupported version"):
            read_depth(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        write_depth(path, np.ones((2, 2)))
        blob = open(path, "rb").read()
        atomic_write_bytes(path, blob[:-4])
        with pytest.raises(ValueError, match="payload"):
            read_depth(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        atomic_write_bytes(path, b"WD3D\x01\x00")
        with pytest.raises(ValueError, match="d.wd3d: header is 6 bytes"):
            read_depth(path)

    def test_rejects_non_finite_on_read(self, tmp_path):
        path = str(tmp_path / "d.wd3d")
        payload = np.array([[np.inf]], dtype="<f4").tobytes()
        atomic_write_bytes(path, b"WD3D" + struct.pack("<HII", 1, 1, 1) + payload)
        with pytest.raises(ValueError, match="non-finite"):
            read_depth(path)


class TestInstanceRaster:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "i.wd3i")
        inst = np.array([[0, 1, 2], [65535, 4, 0]], dtype=np.int64)
        write_instance_map(path, inst)
        back = read_instance_map(path)
        assert back.dtype == np.uint16
        np.testing.assert_array_equal(back, inst.astype(np.uint16))

    def test_magic_differs_from_depth(self, tmp_path):
        path = str(tmp_path / "i.wd3i")
        write_instance_map(path, np.zeros((2, 2), dtype=np.int64))
        assert open(path, "rb").read()[:4] == b"WD3I"
        with pytest.raises(ValueError, match="bad magic"):
            read_depth(path)

    def test_requires_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_instance_map(str(tmp_path / "i"), np.zeros(4, dtype=np.int64))

    def test_rejects_out_of_range_ids(self, tmp_path):
        for bad in (-1, 65536):
            arr = np.zeros((2, 2), dtype=np.int64)
            arr[0, 0] = bad
            with pytest.raises(ValueError, match="uint16"):
                write_instance_map(str(tmp_path / "i"), arr)


RASTERS = {
    "depth": (write_depth, read_depth, np.arange(1.0, 7.0).reshape(2, 3)),
    "instance": (write_instance_map, read_instance_map, np.array([[0, 1, 2], [65535, 4, 0]])),
}
# A mutation of a raster file: cut it to a length, flip one bit, or set one header byte.
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 37)),
    st.tuples(st.just("flip"), st.integers(0, 8 * 38 - 1)),
    st.tuples(st.just("header"), st.integers(0, 13), st.integers(0, 255)),
)


class TestRasterFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raster=st.sampled_from(sorted(RASTERS)), mutation=MUTATIONS)
    def test_mutated_raster_reads_or_is_named(self, raster, mutation):
        write, read, array = RASTERS[raster]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"r.{raster}")
            write(path, array)
            blob = bytearray(open(path, "rb").read())
            if mutation[0] == "truncate":
                blob = blob[: mutation[1]]
            elif mutation[0] == "flip":
                position = mutation[1] // 8 % len(blob)
                blob[position] ^= 1 << mutation[1] % 8
            else:
                blob[mutation[1]] = mutation[2]
            atomic_write_bytes(path, bytes(blob))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = read(path)
                except ValueError as exc:
                    assert str(exc).startswith(f"{path}: ")
                else:
                    width, height = struct.unpack("<II", blob[6:14])
                    assert type(got) is np.ndarray and got.shape == (height, width)


# ---------------------------------------------------------------------------
# Size-spec files
# ---------------------------------------------------------------------------


CAR_SPEC = dict(category="car", shortest=(1.2, 1.8), middle=(1.4, 2.0), longest=(3.5, 5.5), max_depth_ratio=4.0)


class TestSizeSpecFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "specs.json")
        specs = {
            "car": SizeSpec("car", (1.2, 1.8), (1.4, 2.0), (3.5, 5.5), 4.0),
            "rug": SizeSpec("rug", (0.005, 0.03), (0.5, 2.0), (0.5, 3.0), 6.0, is_flat=True, fixed_size=False),
        }
        write_size_specs(specs, path)
        back = read_size_specs(path)
        assert back == specs

    def test_file_format_tag(self, tmp_path):
        path = str(tmp_path / "specs.json")
        write_size_specs({}, path)
        import json

        doc = json.loads(open(path).read())
        assert doc["format"] == SIZESPEC_FORMAT
        assert doc["categories"] == []

    def test_rejects_wrong_format(self, tmp_path):
        path = str(tmp_path / "specs.json")
        atomic_write_text(path, canonical_json({"format": DATASET_FORMAT, "version": 1}))
        with pytest.raises(ValueError, match="not a"):
            read_size_specs(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"category": "car"},
            {"category": "car", "shortest": [1.0], "middle": [1, 2], "longest": [1, 2], "max_depth_ratio": 1},
        ],
    )
    def test_malformed_record_names_the_path(self, tmp_path, record):
        path = str(tmp_path / "specs.json")
        atomic_write_text(path, canonical_json({"format": SIZESPEC_FORMAT, "version": 1, "categories": [record]}))
        with pytest.raises(ValueError, match="specs.json: malformed record"):
            read_size_specs(path)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("shortest", [2.5, 1.0], "shortest: min 2.5 exceeds max 1.0"),
            ("middle", [0.7, 0.3], "middle: min 0.7 exceeds max 0.3"),
            ("longest", [4.0, 2.0], "longest: min 4.0 exceeds max 2.0"),
            ("max_depth_ratio", -1.0, "max_depth_ratio must be positive, got -1.0"),
            ("max_depth_ratio", 0.0, "max_depth_ratio must be positive, got 0.0"),
        ],
    )
    def test_bad_bound_names_record_and_bound(self, tmp_path, field, value, error):
        path = str(tmp_path / "specs.json")
        record = {"category": "car", "shortest": [0.1, 1.0], "middle": [0.1, 1.0], "longest": [0.1, 1.0], "max_depth_ratio": 4.0}
        record[field] = value
        atomic_write_text(path, canonical_json({"format": SIZESPEC_FORMAT, "version": 1, "categories": [record]}))
        with pytest.raises(ValueError) as exc:
            read_size_specs(path)
        assert str(exc.value) == f"{path}: malformed record (category 'car': {error})"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("is_flat", 1, "category 'car': is_flat must be true or false, got 1"),
            ("shortest", ("0.1", "0.2"), "category 'car': shortest must be 2 finite numbers, got ['0.1', '0.2']"),
            ("max_depth_ratio", True, "category 'car': max_depth_ratio must be a finite number, got True"),
        ],
        ids=["is_flat-int", "shortest-text", "max_depth_ratio-bool"],
    )
    def test_write_refuses_what_read_refuses(self, tmp_path, field, value, message):
        spec = SizeSpec(**{**CAR_SPEC, field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            write_size_specs({"car": spec}, str(tmp_path / "specs.json"))
        assert os.listdir(tmp_path) == []

    def test_write_refuses_a_category_given_twice(self, tmp_path):
        specs = {"car": SizeSpec(**CAR_SPEC), "truck": SizeSpec(**CAR_SPEC)}
        with pytest.raises(ValueError, match=re.escape("category 'car': duplicate category")):
            write_size_specs(specs, str(tmp_path / "specs.json"))
        assert os.listdir(tmp_path) == []

    def test_equal_specs_write_equal_bytes(self, tmp_path):
        ints = SizeSpec("car", (1, 2), (1, 3), (3, 5), 4)
        floats = SizeSpec("car", (1.0, 2.0), (1.0, 3.0), (3.0, 5.0), 4.0)
        assert ints == floats
        write_size_specs({"car": ints}, str(tmp_path / "ints.json"))
        write_size_specs({"car": floats}, str(tmp_path / "floats.json"))
        assert (tmp_path / "ints.json").read_bytes() == (tmp_path / "floats.json").read_bytes()

    def test_duplicate_category_names_it(self, tmp_path):
        path = str(tmp_path / "specs.json")
        first = {"category": "car", "shortest": [1.2, 1.8], "middle": [1.4, 2.0], "longest": [3.5, 5.5], "max_depth_ratio": 4.0}
        second = {**first, "shortest": [1.0, 2.0]}
        atomic_write_text(path, canonical_json({"format": SIZESPEC_FORMAT, "version": 1, "categories": [first, second]}))
        with pytest.raises(ValueError, match=r"specs.json: malformed record \(category 'car': duplicate category\)"):
            read_size_specs(path)


# ---------------------------------------------------------------------------
# Reader field kinds: one field of a valid record replaced by a value of each
# JSON kind either reads back as that value or fails naming record and field
# ---------------------------------------------------------------------------

VALID_RECORDS = {
    "images": {
        "id": "im0", "width": 64, "height": 48, "intrinsics": {"fx": 50.0, "fy": 50.0, "cx": 32.0, "cy": 24.0},
        "depth_path": None, "source": None, "scene": None,
    },
    "annotations": {
        "id": "a0", "image_id": "im0", "category": "block", "box2d": [10.0, 10.0, 30.0, 30.0], "ignore3d": True,
        "quality": None,
    },
    "categories": {
        "category": "block", "shortest": [0.1, 1.0], "middle": [0.1, 1.0], "longest": [0.1, 1.0], "max_depth_ratio": 4.0,
    },
}
# (section, field, JSON kind: a type or n for a list of n finite numbers, nullable)
FIELD_KINDS = [
    ("images", "id", str, False),
    ("images", "width", int, False),
    ("images", "height", int, False),
    ("images", "intrinsics", dict, False),
    *[("images", f"intrinsics.{key}", float, False) for key in ("fx", "fy", "cx", "cy")],
    *[("images", key, str, True) for key in ("depth_path", "source", "scene")],
    *[("annotations", key, str, False) for key in ("id", "image_id", "category")],
    ("annotations", "box2d", 4, False),
    *[("annotations", key, n, True) for key, n in (("center", 3), ("dims", 3), ("quaternion", 4))],
    ("annotations", "ignore3d", bool, False),
    ("annotations", "quality", str, True),
    *[("annotations", key, float, True) for key in ("s2d", "s3d")],
    ("annotations", "instance", int, True),
    ("categories", "category", str, False),
    *[("categories", key, 2, False) for key in ("shortest", "middle", "longest")],
    ("categories", "max_depth_ratio", float, False),
    *[("categories", key, bool, False) for key in ("is_flat", "is_elongated", "fixed_size")],
]
# One value of each JSON kind: string, integer, number, boolean, null, NaN, list, object.
VALUE_POOL = ["im0", 7, 2.5, True, None, math.nan, [1.5, 2.5], {}]


def of_kind(value, kind, nullable) -> bool:
    if value is None:
        return nullable
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    if type(kind) is int:
        return type(value) is list and len(value) == kind and all(of_kind(v, float, False) for v in value)
    return type(value) is kind


def as_read(value, kind):
    """``value`` as the reader returns a field of ``kind``: numbers as floats."""
    if value is not None and kind is float:
        return float(value)
    if value is not None and type(kind) is int:
        return tuple(map(float, value))
    return value


class TestReaderFieldKinds:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(field=st.sampled_from(FIELD_KINDS), value=st.sampled_from(VALUE_POOL))
    def test_value_reads_back_or_is_named(self, field, value):
        section, key, kind, nullable = field
        records = {name: dict(record) for name, record in VALID_RECORDS.items()}
        record = records[section]
        if key.startswith("intrinsics."):
            record["intrinsics"] = {**record["intrinsics"], key.split(".")[1]: value}
        else:
            record[key] = value
        name = {"images": "image", "annotations": "annotation", "categories": "category"}[section]
        name += f" {record['category' if section == 'categories' else 'id']!r}: "
        with tempfile.TemporaryDirectory() as tmp:
            dataset, specs = os.path.join(tmp, "ds.json"), os.path.join(tmp, "specs.json")
            with open(dataset, "w") as f:
                images, annotations = [records["images"]], [records["annotations"]]
                json.dump({"format": DATASET_FORMAT, "version": 1, "images": images, "annotations": annotations}, f)
            with open(specs, "w") as f:
                json.dump({"format": SIZESPEC_FORMAT, "version": 1, "categories": [records["categories"]]}, f)
            path = specs if section == "categories" else dataset
            try:
                if section == "categories":
                    got = getattr(read_size_specs(specs)[record["category"]], key)
                else:
                    got = getattr(getattr(read_dataset(dataset), section)[0], key.split(".")[-1])
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ") and name in str(exc) and key in str(exc)
            else:
                assert of_kind(value, kind, nullable)
                assert repr(got) == repr(as_read(value, kind))

            # lift reads both files; the valid annotation has no instance id to lift.
            argv = ["lift", dataset, "--depth-dir", tmp, "--masks-dir", tmp, "--size-spec", specs]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = main([*argv, "--output", os.path.join(tmp, "out.json")])
            assert rc in (0, 2), stderr.getvalue()


def table_keys(table) -> set:
    """Every key of a field table, with those of the objects it nests."""
    return {key for key, _, _ in table} | {k for _, kind, _ in table if type(kind) is tuple for k in table_keys(kind)}


def readme_record_bullet(kind: str) -> str:
    """The README "File formats" bullet of one record kind, to the next bullet or paragraph."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## File formats\n")[1].split("\n## ")[0]
    match = re.search(rf"^ *- \*\*{kind}\*\*:(.*?)(?=^ *- |^$)", section, re.M | re.S)
    assert match, f"README File formats has no {kind} bullet"
    return match.group(1)


class TestReadmeFileFormats:
    @pytest.mark.parametrize(
        "kind, table",
        [("Image", _IMAGE_FIELDS), ("Annotation", _ANNOTATION_FIELDS), ("Category", _SIZE_SPEC_FIELDS)],
        ids=["image", "annotation", "category"],
    )
    def test_bullet_names_every_field_and_no_other(self, kind, table):
        named = set(re.findall(r"`([a-z][a-z0-9_]*)`", readme_record_bullet(kind)))
        assert named == table_keys(table)


# ---------------------------------------------------------------------------
# Depth backprojection
# ---------------------------------------------------------------------------


class TestCloudFromDepth:
    CAM = CameraModel(500.0, 400.0, 320.0, 240.0, 640, 480)

    def test_single_pixel_backprojects_through_center(self):
        depth = np.zeros((480, 640))
        depth[100, 200] = 2.0
        cloud = cloud_from_depth(depth, self.CAM)
        assert cloud.points.shape == (1, 3)
        expected = backproject(self.CAM, np.array([200.5, 100.5]), 2.0)
        np.testing.assert_allclose(cloud.points[0], expected)
        # hand formula: x = (u - cx) / fx * z
        np.testing.assert_allclose(
            cloud.points[0],
            [(200.5 - 320.0) / 500.0 * 2.0, (100.5 - 240.0) / 400.0 * 2.0, 2.0],
        )

    def test_pixel_provenance_is_row_col(self):
        depth = np.zeros((480, 640))
        depth[100, 200] = 2.0
        depth[7, 9] = 1.0
        cloud = cloud_from_depth(depth, self.CAM)
        assert cloud.pixels.dtype == np.int64
        got = {tuple(p) for p in cloud.pixels}
        assert got == {(100, 200), (7, 9)}

    def test_zero_pixels_skipped(self):
        depth = np.zeros((480, 640))
        depth[10:20, 30:40] = 1.5
        cloud = cloud_from_depth(depth, self.CAM)
        assert cloud.points.shape == (100, 3)
        np.testing.assert_allclose(cloud.points[:, 2], 1.5)
        assert cloud.flags == ()

    def test_empty_depth_flagged(self):
        cloud = cloud_from_depth(np.zeros((480, 640)), self.CAM)
        assert cloud.points.shape == (0, 3)
        assert cloud.pixels.shape == (0, 2)
        assert cloud.flags == ("empty",)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="camera expects"):
            cloud_from_depth(np.ones((640, 480)), self.CAM)


# ---------------------------------------------------------------------------
# Evaluation bridges (they live in the CLI, their only caller)
# ---------------------------------------------------------------------------


class TestEvaluationBridges:
    def test_detections_skip_2d_only_annotations(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[full_annotation("a0"), make_annotation("a1", ignore3d=True)],
        )
        dets = detections_from_dataset(ds)
        assert len(dets) == 1
        d = dets[0]
        assert (d.image_id, d.category, d.s2d, d.s3d) == ("im0", "box", 0.75, 0.5)
        np.testing.assert_allclose(d.box3d.center, [0.25, -0.5, 3.0])
        assert d.box2d.x2 == 110.0

    def test_detections_require_scores(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[full_annotation("a0", s2d=None)],
        )
        with pytest.raises(ValueError, match="need s2d and s3d"):
            detections_from_dataset(ds)

    def test_ground_truths_cover_every_annotation(self):
        ds = sample_dataset()
        gts = ground_truths_from_dataset(ds)
        assert len(gts) == len(ds.annotations)
        by_image = {(g.image_id, g.ignore3d) for g in gts}
        assert ("im0", True) in by_image

    def test_ignored_ground_truth_has_no_box3d(self):
        ds = DatasetFile(
            images=[make_image("im0")],
            annotations=[
                full_annotation("a0"),
                full_annotation("a1", quality="unacceptable", ignore3d=True),
                make_annotation("a2", ignore3d=True),
            ],
        )
        gts = ground_truths_from_dataset(ds)
        withbox = [g for g in gts if g.box3d is not None]
        assert len(withbox) == 1
        assert not withbox[0].ignore3d
        assert all(g.box3d is None for g in gts if g.ignore3d)

    @pytest.mark.parametrize("convert", [detections_from_dataset, ground_truths_from_dataset])
    def test_bad_geometry_names_the_annotation(self, convert):
        bad = full_annotation("a0", center=(math.nan, 0.0, 3.0))
        ds = DatasetFile(images=[make_image("im0")], annotations=[bad])
        with pytest.raises(ValueError, match="annotation 'a0': box center must be finite"):
            convert(ds)
