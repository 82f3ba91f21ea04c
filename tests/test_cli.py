"""CLI subcommands: flags, exit codes, output files, determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from mono3dkit import (
    AnnotationRecord,
    CameraModel,
    DatasetFile,
    ImageRecord,
    SizeSpec,
    synth_scene,
    write_dataset,
    write_size_specs,
)
from mono3dkit.cli import main
from mono3dkit.dataio import write_depth, write_instance_map
from mono3dkit.synth import SynthSpec

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def eval_pair(tmp_path):
    """Ground truth and byte-identical perfect predictions for two objects."""
    image = ImageRecord(id="im0", width=640, height=480, fx=500.0, fy=500.0, cx=320.0, cy=240.0)

    def ann(id, center, box2d, scores):
        kw = dict(s2d=scores[0], s3d=scores[1]) if scores else {}
        return AnnotationRecord(
            id=id,
            image_id="im0",
            category="mug",
            box2d=box2d,
            center=center,
            dims=(1.0, 1.0, 1.0),
            quaternion=IDENTITY,
            **kw,
        )

    def build(path, scores):
        ds = DatasetFile(
            images=[image],
            annotations=[
                ann("a0", (0.0, 0.0, 5.0), (100.0, 100.0, 200.0, 200.0), scores),
                ann("a1", (2.0, 0.0, 5.0), (300.0, 100.0, 400.0, 200.0), scores),
            ],
        )
        write_dataset(ds, str(path))

    gt = tmp_path / "gt.json"
    pred = tmp_path / "pred.json"
    build(gt, None)
    build(pred, (0.9, 0.8))
    return str(gt), str(pred)


class TestIou:
    BOX = ["0", "0", "5", "1", "1", "1", "1", "0", "0", "0"]

    def test_identical_boxes(self, capsys):
        rc = main(["iou", "--box-a", *self.BOX, "--box-b", *self.BOX, "--mc-samples", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "exact 1.000000, mc 1.000 (n=2000)\n"

    def test_disjoint_boxes(self, capsys):
        other = ["9", "0", "5", "1", "1", "1", "1", "0", "0", "0"]
        rc = main(["iou", "--box-a", *self.BOX, "--box-b", *other, "--mc-samples", "2000"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("exact 0.000000, mc 0.000")

    def test_mc_close_to_exact_on_partial_overlap(self, capsys):
        other = ["0.5", "0", "5", "1", "1", "1", "1", "0", "0", "0"]
        rc = main(["iou", "--box-a", *self.BOX, "--box-b", *other, "--mc-samples", "200000"])
        assert rc == 0
        out = capsys.readouterr().out
        exact = float(out.split(",")[0].split()[1])
        mc = float(out.split("mc ")[1].split()[0])
        assert exact == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert mc == pytest.approx(exact, abs=0.01)

    def test_invalid_box_is_user_error(self, capsys):
        bad = ["0", "0", "5", "0", "1", "1", "1", "0", "0", "0"]  # zero width
        rc = main(["iou", "--box-a", *bad, "--box-b", *self.BOX])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_mc_samples_rejected(self, capsys, count):
        rc = main(["iou", "--box-a", *self.BOX, "--box-b", *self.BOX, "--mc-samples", count])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--mc-samples" in captured.err
        assert captured.out == ""

    def test_wrong_arity_rejected_by_parser(self, capsys):
        assert main(["iou", "--box-a", "1", "2", "--box-b", *self.BOX]) == 2
        assert capsys.readouterr().err.startswith("error: argument --box-a: expected 10 arguments")

    def test_unknown_flag_rejected(self, capsys):
        assert main(["iou", "--box-a", *self.BOX, "--box-b", *self.BOX, "--turbo"]) == 2
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --turbo")


class TestSynthCommand:
    def run(self, out_dir):
        return main(["synth", "--scenes", "2", "--boxes", "2", "--seed", "7", "--out-dir", str(out_dir)])

    def test_writes_scene_files(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        assert self.run(out) == 0
        assert capsys.readouterr().out == f"wrote 2 scene(s) to {out}\n"
        names = sorted(os.listdir(out))
        assert names == [
            "dataset.json",
            "synth-000007.wd3d",
            "synth-000007.wd3i",
            "synth-000008.wd3d",
            "synth-000008.wd3i",
            "synth-config.json",
        ]
        doc = json.loads((out / "dataset.json").read_text())
        assert len(doc["images"]) == 2
        assert len(doc["annotations"]) == 4
        im = doc["images"][0]
        assert (im["width"], im["height"]) == (960, 720)
        assert im["intrinsics"]["fx"] == 450.0
        assert im["depth_path"] == "synth-000007.wd3d"

    def test_deterministic_and_thread_independent(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert self.run(first) == 0
        assert self.run(second) == 0
        hashes = {n: file_hash(first / n) for n in os.listdir(first) if n != "synth-config.json"}
        assert hashes == {n: file_hash(second / n) for n in os.listdir(second) if n != "synth-config.json"}

    def test_failed_write_removes_what_the_run_created(self, tmp_path, capsys, monkeypatch):
        def refuse(ds, path):
            raise OSError(f"{path}: disk full")

        monkeypatch.setattr("mono3dkit.dataio.write_dataset", refuse)
        out = tmp_path / "scenes"
        assert self.run(out) == 2
        assert "disk full" in capsys.readouterr().err
        assert not out.exists()
        out.mkdir()
        (out / "keep.txt").write_text("not ours")
        assert self.run(out) == 2
        assert os.listdir(out) == ["keep.txt"]

    def test_config_echo(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        assert self.run(out) == 0
        cfg = json.loads((out / "synth-config.json").read_text())["config"]
        assert cfg["seed"] == 7
        assert cfg["boxes"] == 2
        assert cfg["noise_sigma"] == 0.0
        assert "command" not in cfg

    def test_no_floor_flag(self, tmp_path, capsys):
        out = tmp_path / "bare"
        rc = main(["synth", "--scenes", "1", "--boxes", "1", "--out-dir", str(out), "--no-floor"])
        assert rc == 0
        from mono3dkit import read_depth, read_instance_map

        depth = read_depth(str(out / "synth-000000.wd3d"))
        inst = read_instance_map(str(out / "synth-000000.wd3i"))
        np.testing.assert_array_equal(depth > 0, inst > 0)


class TestSampleCommand:
    def pool(self, tmp_path):
        images = [
            ImageRecord(id=i, width=64, height=48, fx=50.0, fy=50.0, cx=32.0, cy=24.0)
            for i in ("img1", "img2")
        ]
        anns = [
            AnnotationRecord(id="a1", image_id="img1", category="A", box2d=(0.0, 0.0, 5.0, 5.0), ignore3d=True),
            AnnotationRecord(id="a2", image_id="img1", category="B", box2d=(0.0, 0.0, 5.0, 5.0), ignore3d=True),
            AnnotationRecord(id="a3", image_id="img2", category="B", box2d=(0.0, 0.0, 5.0, 5.0), ignore3d=True),
            AnnotationRecord(id="a4", image_id="img2", category="C", box2d=(0.0, 0.0, 5.0, 5.0), ignore3d=True),
        ]
        path = tmp_path / "pool.json"
        write_dataset(DatasetFile(images=images, annotations=anns), str(path))
        return str(path)

    def test_two_image_cover_printed(self, tmp_path, capsys):
        rc = main(["sample", self.pool(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected 2 images: img1 img2" in out
        # every category here is below the default minimum of 3 images
        assert "rare categories: A B C" in out

    def test_output_file(self, tmp_path, capsys):
        res = tmp_path / "split.json"
        rc = main(["sample", self.pool(tmp_path), "--output", str(res), "--seed", "5"])
        assert rc == 0
        doc = json.loads(res.read_text())
        assert doc["image_ids"] == ["img1", "img2"]
        assert doc["rare_categories"] == ["A", "B", "C"]
        assert doc["phase_sizes"] == [2, 2, 2]
        assert doc["config"]["seed"] == 5

    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["sample", str(tmp_path / "ghost.json")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_dataset(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        rc = main(["sample", str(path)])
        assert rc == 2


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path, capsys):
        gt, pred = eval_pair(tmp_path)
        out_json = tmp_path / "result.json"
        table = tmp_path / "table.txt"
        rc = main(["eval", gt, pred, "--output", str(out_json), "--table", str(table)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "overall AP 1.0000" in stdout
        assert "ODS 1.0000" in stdout
        assert "mug" in stdout
        assert table.read_text() == stdout
        doc = json.loads(out_json.read_text())
        assert doc["overall_ap"] == 1.0
        assert doc["ods"] == 1.0
        assert doc["mate"] == 0.0
        assert doc["per_category_ap"] == {"mug": 1.0}
        assert doc["match_counts"] == {"tp": 2, "fp": 0, "neutral": 0}
        assert doc["mode"] == "iou"

    def test_defaults_echoed(self, tmp_path, capsys):
        gt, pred = eval_pair(tmp_path)
        out_json = tmp_path / "result.json"
        assert main(["eval", gt, pred, "--output", str(out_json)]) == 0
        cfg = json.loads(out_json.read_text())["config"]
        assert cfg["nms_iou"] == 0.6
        assert cfg["score_thresh"] == 0.05
        assert cfg["max_dets"] == 100
        assert cfg["mode"] == "iou"

    def test_dist_mode(self, tmp_path, capsys):
        gt, pred = eval_pair(tmp_path)
        out_json = tmp_path / "result.json"
        assert main(["eval", gt, pred, "--mode", "dist", "--output", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["mode"] == "dist"
        assert doc["overall_ap"] == 1.0

    def test_symmetric_categories_file(self, tmp_path, capsys):
        gt, pred = eval_pair(tmp_path)
        sym = tmp_path / "sym.txt"
        sym.write_text("mug\n\n")
        out_json = tmp_path / "result.json"
        rc = main(["eval", gt, pred, "--symmetric-categories", str(sym), "--output", str(out_json)])
        assert rc == 0
        assert json.loads(out_json.read_text())["overall_ap"] == 1.0

    def test_missing_prediction_file_no_partial_output(self, tmp_path, capsys):
        gt, _ = eval_pair(tmp_path)
        out_json = tmp_path / "result.json"
        rc = main(["eval", gt, str(tmp_path / "ghost.json"), "--output", str(out_json)])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err
        assert not out_json.exists()

    def test_predictions_without_scores(self, tmp_path, capsys):
        gt, _ = eval_pair(tmp_path)
        out_json = tmp_path / "result.json"
        rc = main(["eval", gt, gt, "--output", str(out_json)])
        assert rc == 2
        assert "need s2d and s3d" in capsys.readouterr().err
        assert not out_json.exists()


class TestLiftCommand:
    CAM = CameraModel(600.0, 600.0, 640.0, 480.0, 1280, 960)

    def scene_inputs(self, tmp_path, ghost=False):
        scene = synth_scene(SynthSpec(n_boxes=1), self.CAM, seed=3)
        depth_dir = tmp_path / "depth"
        masks_dir = tmp_path / "masks"
        depth_dir.mkdir()
        masks_dir.mkdir()
        write_depth(str(depth_dir / "scene.wd3d"), scene.depth)
        write_instance_map(str(masks_dir / f"{scene.image.id}.wd3i"), scene.instance_map)
        scene.image.depth_path = "scene.wd3d"
        annotations = []
        for ann in scene.annotations:
            annotations.append(
                AnnotationRecord(
                    id=ann.id,
                    image_id=ann.image_id,
                    category=ann.category,
                    box2d=ann.box2d,
                    ignore3d=True,
                    instance=ann.instance,
                )
            )
        if ghost:
            annotations.append(
                AnnotationRecord(
                    id="zzz-ghost",
                    image_id=scene.image.id,
                    category="block",
                    box2d=(5.0, 5.0, 50.0, 50.0),
                    ignore3d=True,
                    instance=40,
                )
            )
        ds_path = tmp_path / "dataset.json"
        write_dataset(DatasetFile(images=[scene.image], annotations=annotations), str(ds_path))
        return scene, str(ds_path), str(depth_dir), str(masks_dir)

    def test_lifts_synthetic_scene(self, tmp_path, capsys):
        scene, ds_path, depth_dir, masks_dir = self.scene_inputs(tmp_path)
        out = tmp_path / "cand.json"
        rc = main(["lift", ds_path, "--depth-dir", depth_dir, "--masks-dir", masks_dir, "--output", str(out)])
        assert rc == 0
        assert "lifted 1/1" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        (rec,) = doc["candidates"]
        assert rec["status"] == "optimized"
        assert rec["generator"] == "ransac_pca"
        assert rec["filter"]["passed"] is True
        assert rec["ignore3d"] is False
        gt = scene.boxes[0]
        assert np.linalg.norm(np.array(rec["center"]) - gt.center) <= 0.1
        got = np.sort(np.array(rec["dims"]))
        want = np.sort(gt.dims)
        assert np.max(np.abs(got - want) / want) <= 0.1

    def test_failed_object_logged_and_run_continues(self, tmp_path, capsys):
        _, ds_path, depth_dir, masks_dir = self.scene_inputs(tmp_path, ghost=True)
        out = tmp_path / "cand.json"
        rc = main(["lift", ds_path, "--depth-dir", depth_dir, "--masks-dir", masks_dir, "--output", str(out)])
        assert rc == 0
        assert "lifted 1/2" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        by_id = {r["annotation_id"]: r for r in doc["candidates"]}
        ghost = by_id["zzz-ghost"]
        assert ghost["status"] == "failed"
        assert ghost["ignore3d"] is True
        assert "error" in ghost

    def test_size_spec_applied(self, tmp_path, capsys):
        _, ds_path, depth_dir, masks_dir = self.scene_inputs(tmp_path)
        specs = {"block": SizeSpec("block", (0.1, 0.6), (0.1, 0.7), (0.1, 0.8), 5.0)}
        spec_path = tmp_path / "specs.json"
        write_size_specs(specs, str(spec_path))
        out = tmp_path / "cand.json"
        rc = main(
            [
                "lift",
                ds_path,
                "--depth-dir",
                depth_dir,
                "--masks-dir",
                masks_dir,
                "--size-spec",
                str(spec_path),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        (rec,) = json.loads(out.read_text())["candidates"]
        assert rec["filter"]["passed"] is True
        assert "no_spec" not in rec["filter"]["flags"]

    def test_deterministic_output(self, tmp_path, capsys):
        _, ds_path, depth_dir, masks_dir = self.scene_inputs(tmp_path)
        out = tmp_path / "cand.json"
        args = ["lift", ds_path, "--depth-dir", depth_dir, "--masks-dir", masks_dir, "--output", str(out)]
        assert main(args) == 0
        first = file_hash(out)
        assert main(args) == 0
        assert file_hash(out) == first

    def test_missing_depth_file(self, tmp_path, capsys):
        _, ds_path, depth_dir, masks_dir = self.scene_inputs(tmp_path)
        os.remove(os.path.join(depth_dir, "scene.wd3d"))
        rc = main(["lift", ds_path, "--depth-dir", depth_dir, "--masks-dir", masks_dir])
        assert rc == 2
        assert "no such depth file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Bad input files and flag values: exit 2, a message naming the file, record
# or flag, nothing on stdout, no temp file or synth directory left behind
# ---------------------------------------------------------------------------


def small_lift_inputs(tmp_path, depth_bytes=None, inst_shape=(48, 64)):
    """A one-object dataset with its rasters; returns the lift argv."""
    image = ImageRecord(
        id="im0", width=64, height=48, fx=50.0, fy=50.0, cx=32.0, cy=24.0, depth_path="im0.wd3d"
    )
    ann = AnnotationRecord(
        id="a0", image_id="im0", category="block", box2d=(10.0, 10.0, 30.0, 30.0), ignore3d=True, instance=1
    )
    ds = tmp_path / "dataset.json"
    write_dataset(DatasetFile(images=[image], annotations=[ann]), str(ds))
    depth_dir = tmp_path / "depth"
    masks_dir = tmp_path / "masks"
    depth_dir.mkdir()
    masks_dir.mkdir()
    depth = np.full((48, 64), 2.0)
    write_depth(str(depth_dir / "im0.wd3d"), depth)
    if depth_bytes is not None:
        (depth_dir / "im0.wd3d").write_bytes(depth_bytes)
    inst = np.zeros(inst_shape, dtype=np.uint16)
    inst[10:30, 10:30] = 1
    write_instance_map(str(masks_dir / "im0.wd3i"), inst)
    return [
        "lift", str(ds), "--depth-dir", str(depth_dir), "--masks-dir", str(masks_dir),
        "--output", str(tmp_path / "cand.json"),
    ]


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def list_dataset(tmp_path):
    return write_text(tmp_path, "list.json", "[]")


def case_eval_list_gt(tmp_path):
    _, pred = eval_pair(tmp_path)
    bad = list_dataset(tmp_path)
    return ["eval", bad, pred, "--output", str(tmp_path / "r.json")], bad


def case_lift_list_dataset(tmp_path):
    argv = small_lift_inputs(tmp_path)
    bad = list_dataset(tmp_path)
    return ["lift", bad, *argv[2:]], bad


def case_sample_list_dataset(tmp_path):
    bad = list_dataset(tmp_path)
    return ["sample", bad, "--output", str(tmp_path / "split.json")], bad


def case_sample_not_json(tmp_path):
    bad = write_text(tmp_path, "garbage.json", "{not json")
    return ["sample", bad], bad


def case_size_spec_wrong_format(tmp_path):
    spec = write_text(tmp_path, "spec.json", '{"format": "wd3d-dataset", "version": 1}')
    return [*small_lift_inputs(tmp_path), "--size-spec", spec], spec


def case_size_spec_missing_field(tmp_path):
    doc = {"format": "wd3d-sizespec", "version": 1, "categories": [{"category": "block"}]}
    spec = write_text(tmp_path, "spec.json", json.dumps(doc))
    return [*small_lift_inputs(tmp_path), "--size-spec", spec], spec


def case_truncated_depth_payload(tmp_path):
    header = b"WD3D" + (1).to_bytes(2, "little") + (64).to_bytes(4, "little") + (48).to_bytes(4, "little")
    argv = small_lift_inputs(tmp_path, depth_bytes=header + bytes(6))
    return argv, str(tmp_path / "depth" / "im0.wd3d")


def case_truncated_depth_header(tmp_path):
    argv = small_lift_inputs(tmp_path, depth_bytes=b"WD3D\x01\x00")
    return argv, str(tmp_path / "depth" / "im0.wd3d")


def case_instance_map_shape(tmp_path):
    argv = small_lift_inputs(tmp_path, inst_shape=(24, 32))
    return argv, str(tmp_path / "masks" / "im0.wd3i")


def edit_first(path, section, **fields):
    """Overwrite fields of the first record in ``section`` of a dataset file."""
    doc = json.loads(open(path).read())
    doc[section][0].update(fields)
    with open(path, "w") as f:
        json.dump(doc, f)


def case_nan_gt_center(tmp_path):
    gt, pred = eval_pair(tmp_path)
    edit_first(gt, "annotations", center=[float("nan"), 0.0, 5.0])
    return ["eval", gt, pred, "--output", str(tmp_path / "r.json")], "annotation 'a0'"


def case_sample_three_value_box2d(tmp_path):
    gt, _ = eval_pair(tmp_path)
    edit_first(gt, "annotations", box2d=[100.0, 100.0, 200.0])
    return ["sample", gt], "annotation 'a0'"


def case_sample_nan_center(tmp_path):
    gt, _ = eval_pair(tmp_path)
    edit_first(gt, "annotations", center=[0.0, float("nan"), 5.0])
    return ["sample", gt], "annotation 'a0'"


def case_lift_nan_center(tmp_path):
    argv = small_lift_inputs(tmp_path)
    nan_3d = dict(center=[0.0, 0.0, float("nan")], dims=[1.0, 1.0, 1.0], quaternion=[1.0, 0.0, 0.0, 0.0])
    edit_first(argv[1], "annotations", ignore3d=False, **nan_3d)
    return argv, "annotation 'a0'"


def case_lift_integer_annotation_id(tmp_path):
    argv = small_lift_inputs(tmp_path)
    edit_first(argv[1], "annotations", id=5)
    return argv, "annotation 5: id must be a string"


def case_sample_integer_category(tmp_path):
    gt, _ = eval_pair(tmp_path)
    edit_first(gt, "annotations", category=7)
    return ["sample", gt], "annotation 'a0': category must be a string"


def case_lift_integer_depth_path(tmp_path):
    argv = small_lift_inputs(tmp_path)
    edit_first(argv[1], "images", depth_path=3)
    return argv, "image 'im0': depth_path must be a string or null"


def case_sample_list_source(tmp_path):
    gt, _ = eval_pair(tmp_path)
    edit_first(gt, "images", source=["x"])
    return ["sample", gt], "image 'im0': source must be a string or null"


def case_symmetric_categories_not_text(tmp_path):
    gt, pred = eval_pair(tmp_path)
    sym = tmp_path / "sym.txt"
    sym.write_bytes(b"mug\n\xff\xfe\n")
    return ["eval", gt, pred, "--symmetric-categories", str(sym), "--output", str(tmp_path / "r.json")], str(sym)


FLAG_COMMANDS = {"--grid-size": "lift", "--max-dets": "eval", "--nms-iou": "eval", "--score-thresh": "eval"}


def command_argv(command, tmp_path):
    """A valid argv for ``command`` to append one bad flag to."""
    if command == "lift":
        return small_lift_inputs(tmp_path)
    if command == "eval":
        gt, pred = eval_pair(tmp_path)
        return ["eval", gt, pred, "--output", str(tmp_path / "r.json")]
    if command == "iou":
        return ["iou", "--box-a", *TestIou.BOX, "--box-b", *TestIou.BOX]
    return ["synth", "--out-dir", str(tmp_path / "synth")]


def case_flag(flag, value, command=None):
    """``flag value`` on ``command``; by default the subcommand that owns the flag, else synth."""

    def build(tmp_path):
        return [*command_argv(command or FLAG_COMMANDS.get(flag, "synth"), tmp_path), flag, value], flag

    suffix = f"_{command}" if command else ""
    build.__name__ = f"case_flag_{flag.strip('-').replace('-', '_')}_{value}{suffix}"
    return build


def case_synth_placement_fails(tmp_path):
    # No 3-box layout fits inside the margins of a 64 x 48 image.
    camera = ["--width", "64", "--height", "48", "--fx", "50", "--fy", "50", "--cx", "32", "--cy", "24"]
    return ["synth", "--boxes", "3", *camera, "--out-dir", str(tmp_path / "synth")], "scene seed 0"


def case_output_is_directory(tmp_path):
    gt, pred = eval_pair(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    return ["eval", gt, pred, "--output", str(out)], str(out)


BAD_INPUT_CASES = [
    case_eval_list_gt,
    case_lift_list_dataset,
    case_sample_list_dataset,
    case_sample_not_json,
    case_size_spec_wrong_format,
    case_size_spec_missing_field,
    case_truncated_depth_payload,
    case_truncated_depth_header,
    case_instance_map_shape,
    case_nan_gt_center,
    case_sample_three_value_box2d,
    case_sample_nan_center,
    case_lift_nan_center,
    case_lift_integer_annotation_id,
    case_sample_integer_category,
    case_lift_integer_depth_path,
    case_sample_list_source,
    case_symmetric_categories_not_text,
    case_flag("--grid-size", "4"),
    case_flag("--grid-size", "0"),
    case_flag("--max-dets", "0"),
    case_flag("--max-dets", "-1"),
    case_flag("--boxes", "0"),
    case_flag("--fx", "0"),
    case_flag("--noise-sigma", "-1"),
    case_flag("--seed", "-1", "lift"),
    case_flag("--seed", "-1", "iou"),
    case_flag("--scenes", "-1"),
    case_flag("--scenes", "0"),
    case_flag("--nms-iou", "7"),
    case_flag("--score-thresh", "5"),
    case_synth_placement_fails,
    case_output_is_directory,
]


@pytest.mark.parametrize("case", BAD_INPUT_CASES, ids=lambda c: c.__name__[len("case_"):])
def test_bad_input_exits_2_and_names_it(case, tmp_path, capsys):
    argv, needle = case(tmp_path)
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.startswith("error: ")
    assert needle in captured.err
    assert captured.out == ""
    assert list(tmp_path.rglob("*.tmp-*")) == []
    assert not (tmp_path / "synth").exists()
