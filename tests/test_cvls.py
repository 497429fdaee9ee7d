"""CVLS container: round-trips, validation, corruption handling."""

import json
import struct

import numpy as np
import pytest

from cvloc.cvls import MAGIC, load_scene, save_scene
from cvloc.errors import FormatError

from conftest import tiny_problem


@pytest.fixture()
def scene_file(tmp_path):
    problem = tiny_problem()
    path = tmp_path / "scene.cvls"
    save_scene(path, problem)
    return path, problem


def _payload_offset(blob: bytes) -> int:
    _, _, meta_len = struct.unpack_from("<4sHI", blob)
    return struct.calcsize("<4sHI") + meta_len


def _meta(blob: bytes) -> dict:
    header = struct.calcsize("<4sHI")
    _, _, meta_len = struct.unpack_from("<4sHI", blob)
    return json.loads(blob[header:header + meta_len])


def _with_meta(blob: bytes, meta) -> bytes:
    """The same file with its metadata replaced by ``meta``."""
    new_meta = json.dumps(meta, separators=(",", ":")).encode()
    return (struct.pack("<4sHI", MAGIC, 1, len(new_meta)) + new_meta
            + blob[_payload_offset(blob):])


def _rewrite_meta(blob: bytes, edit) -> bytes:
    """The same file with ``edit`` applied to its metadata dict."""
    meta = _meta(blob)
    edit(meta)
    return _with_meta(blob, meta)


class TestRoundTrip:
    def test_arrays_bit_identical(self, scene_file):
        path, problem = scene_file
        loaded = load_scene(path)
        for lvl in range(problem.level_count):
            assert np.array_equal(loaded.sat_pyramid.feature(lvl).data,
                                  problem.sat_pyramid.feature(lvl).data)
            assert np.array_equal(loaded.sat_pyramid.attention(lvl).data,
                                  problem.sat_pyramid.attention(lvl).data)
            assert np.array_equal(loaded.grd_pyramid.feature(lvl).data,
                                  problem.grd_pyramid.feature(lvl).data)
        assert np.array_equal(loaded.points.points,
                              problem.points.points.astype(np.float32).astype(np.float64))

    def test_metadata_round_trips(self, scene_file):
        path, problem = scene_file
        loaded = load_scene(path)
        assert loaded.georef == problem.georef
        assert loaded.intrinsics == problem.intrinsics
        assert loaded.gt_pose.lateral == problem.gt_pose.lateral
        assert loaded.gt_pose.longitudinal == problem.gt_pose.longitudinal
        assert loaded.gt_pose.yaw == pytest.approx(problem.gt_pose.yaw, abs=1e-15)
        assert loaded.ctx.height == problem.ctx.height
        assert np.allclose(loaded.ctx.cam_to_gps.rotation,
                           problem.ctx.cam_to_gps.rotation)

    def test_save_load_save_bytes_stable(self, scene_file, tmp_path):
        path, _ = scene_file
        loaded = load_scene(path)
        second = tmp_path / "again.cvls"
        save_scene(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_save_deterministic(self, tmp_path):
        problem = tiny_problem()
        p1, p2 = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(p1, problem)
        save_scene(p2, problem)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    def test_bad_magic(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XVLS"
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_scene(bad)

    def test_bad_version(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 99)
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_scene(bad)

    def test_truncated_payload(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = path.read_bytes()[:-20]
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(blob)
        with pytest.raises(FormatError, match="truncated"):
            load_scene(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(b"CV")
        with pytest.raises(FormatError):
            load_scene(bad)

    def test_attention_out_of_range(self, scene_file, tmp_path):
        path, problem = scene_file
        blob = bytearray(path.read_bytes())
        fmap = problem.sat_pyramid.feature(0)
        att_offset = _payload_offset(bytes(blob)) + fmap.data.size * 4
        struct.pack_into("<f", blob, att_offset, 1.5)
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"attention out of \[0,1\]"):
            load_scene(bad)

    def test_nan_in_features(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, _payload_offset(bytes(blob)), float("nan"))
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_scene(bad)

    def test_garbage_metadata(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        header = struct.calcsize("<4sHI")
        blob[header:header + 2] = b"{{"
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="JSON"):
            load_scene(bad)

    def test_missing_metadata_field(self, scene_file, tmp_path):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(_rewrite_meta(path.read_bytes(),
                                      lambda meta: meta["georef"].pop("gamma")))
        with pytest.raises(FormatError, match="georef.gamma"):
            load_scene(bad)

    @pytest.mark.parametrize("edit, field", [
        (lambda meta: meta.update(point_count="abc"), "point_count"),
        (lambda meta: meta["levels"]["satellite"][0].update(h="x"),
         "levels.satellite[0]"),
        # whole-number floats and booleans are rejected, not truncated
        (lambda meta: meta["georef"].update(zoom=18.7), "georef.zoom"),
        (lambda meta: meta["georef"].update(zoom=True), "georef.zoom"),
        (lambda meta: meta["georef"].update(scale=2.0), "georef.scale"),
        (lambda meta: meta["intrinsics"].update(width=17.5), "intrinsics.width"),
        (lambda meta: meta["intrinsics"].update(height=True), "intrinsics.height"),
        (lambda meta: meta["levels"]["satellite"][0].update(w=16.0),
         "levels.satellite[0]"),
        (lambda meta: meta["levels"]["ground"][0].update(c=True), "levels.ground[0]"),
        (lambda meta: meta.update(point_count=3.0), "point_count"),
        (lambda meta: meta.update(point_count=True), "point_count"),
    ], ids=["point_count", "level_h", "zoom_fraction", "zoom_bool", "scale_float",
            "width_fraction", "height_bool", "level_w_float", "level_c_bool",
            "point_count_float", "point_count_bool"])
    def test_non_integer_metadata_field(self, scene_file, tmp_path, edit, field):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(_rewrite_meta(path.read_bytes(), edit))
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("replace, field", [
        (lambda meta: 5, "metadata"),
        (lambda meta: {**meta, "levels": 5}, "levels"),
        (lambda meta: {**meta, "levels": {**meta["levels"], "satellite": 5}},
         "levels.satellite"),
        (lambda meta: {**meta, "levels": {"satellite": [], "ground": []}},
         "levels.satellite"),
    ], ids=["root", "levels", "level_table", "empty_tables"])
    def test_malformed_metadata_structure(self, scene_file, tmp_path, replace, field):
        path, _ = scene_file
        blob = path.read_bytes()
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(_with_meta(blob, replace(_meta(blob))))
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert err.value.field == field

    def test_error_names_offending_field(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, len(blob) - 4, float("inf"))
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert err.value.field == "points"
