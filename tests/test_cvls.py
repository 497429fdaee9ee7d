"""CVLS container: round-trips, validation, corruption handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _old_pose_context(meta: dict) -> dict:
    """Give ``meta`` the pose_context that files written while the attitude
    and camera mount were stored carry, at the defaults every scene had, and
    return it."""
    meta["pose_context"] = {"roll_deg": 0.0, "pitch_deg": 0.0, "cam_to_gps": [
        1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]}
    return meta["pose_context"]


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
        assert "pose_context" not in _meta(path.read_bytes())

    def test_save_load_save_bytes_stable(self, scene_file, tmp_path):
        path, _ = scene_file
        loaded = load_scene(path)
        second = tmp_path / "again.cvls"
        save_scene(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    # Files written before the georef became (center_px, gamma) also carry
    # the tile fields, and older files a pose_context, with the camera
    # height in files written before it went. The tile fields and the
    # height are ignored, whatever their values; the pose_context holds
    # its defaults.
    @pytest.mark.parametrize("section, old_keys", [
        ("georef", {"latitude_deg": 65.25, "zoom": 15, "scale": 2}),
        ("georef", {"latitude_deg": 65.25, "zoom": 18.7, "scale": 2}),
        ("georef", {"latitude_deg": 65.25, "zoom": True, "scale": 2}),
        ("georef", {"latitude_deg": 65.25, "zoom": 15, "scale": 2.0}),
        ("pose_context", {}),
        ("pose_context", {"height_m": 1.65}),
        ("pose_context", {"height_m": None}),
        ("pose_context", {"height_m": "x"}),
        ("pose_context", {"height_m": float("-inf")}),
    ], ids=["tile_keys", "zoom_fraction", "zoom_bool", "scale_float",
            "pose_context_default", "height_number", "height_null", "height_str",
            "height_inf"])
    def test_old_georef_keys_ignored(self, scene_file, tmp_path, section, old_keys):
        path, problem = scene_file
        old = tmp_path / "old.cvls"

        def edit(meta):
            if section == "pose_context":
                _old_pose_context(meta)
            meta[section].update(old_keys)

        old.write_bytes(_rewrite_meta(path.read_bytes(), edit))
        loaded = load_scene(old)
        assert loaded.georef == problem.georef
        again = tmp_path / "again.cvls"
        save_scene(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_georef_has_only_projection_keys(self, scene_file):
        path, _ = scene_file
        assert set(_meta(path.read_bytes())["georef"]) == {"center_px", "gamma"}

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
        (lambda meta: meta["intrinsics"].update(width=17.5), "intrinsics.width"),
        (lambda meta: meta["intrinsics"].update(height=True), "intrinsics.height"),
        (lambda meta: meta["levels"]["satellite"][0].update(w=16.0),
         "levels.satellite[0]"),
        (lambda meta: meta["levels"]["ground"][0].update(c=True), "levels.ground[0]"),
        (lambda meta: meta.update(point_count=3.0), "point_count"),
        (lambda meta: meta.update(point_count=True), "point_count"),
    ], ids=["point_count", "level_h", "width_fraction", "height_bool", "level_w_float", "level_c_bool",
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

    @pytest.mark.parametrize("edit, field", [
        (lambda meta: meta["georef"].update(gamma="0.2"), "georef.gamma"),
        (lambda meta: meta["intrinsics"].update(fx=True), "intrinsics.fx"),
        (lambda meta: meta["gt_pose"].update(yaw_deg=[0.0]), "gt_pose.yaw_deg"),
        (lambda meta: meta["georef"].update(center_px=10**400), "georef.center_px"),
        (lambda meta: _old_pose_context(meta)["cam_to_gps"].__setitem__(0, "1"),
         "pose_context.cam_to_gps"),
        (lambda meta: _old_pose_context(meta)["cam_to_gps"].__setitem__(5, True),
         "pose_context.cam_to_gps"),
        # an older file's pose_context loads only at its defaults
        (lambda meta: _old_pose_context(meta).update(roll_deg=0.5),
         "pose_context.roll_deg"),
        (lambda meta: _old_pose_context(meta).update(pitch_deg=-1),
         "pose_context.pitch_deg"),
        (lambda meta: _old_pose_context(meta)["cam_to_gps"].__setitem__(3, 0.25),
         "pose_context.cam_to_gps"),
    ], ids=["gamma_str", "fx_bool", "yaw_list", "center_overflow",
            "cam_str", "cam_bool", "roll_nonzero", "pitch_nonzero", "cam_not_identity"])
    def test_non_number_metadata_field(self, scene_file, tmp_path, edit, field):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(_rewrite_meta(path.read_bytes(), edit))
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["georef"].update(center_px=float("nan")),
        lambda meta: meta["georef"].update(gamma=float("inf")),
        lambda meta: meta["intrinsics"].update(fy=float("inf")),
        lambda meta: _old_pose_context(meta).update(roll_deg=float("nan")),
    ], ids=["center_nan", "gamma_inf", "fy_inf", "roll_nan"])
    def test_non_finite_metadata_value(self, scene_file, tmp_path, edit):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(_rewrite_meta(path.read_bytes(), edit))
        with pytest.raises(FormatError, match="finite") as err:
            load_scene(bad)
        assert err.value.field == "metadata"

    @pytest.mark.parametrize("array, field", [
        ("satellite attention", "satellite level 0 attention"),
        ("ground features", "ground level 0 features"),
    ])
    def test_nan_payload_names_array(self, scene_file, tmp_path, array, field):
        path, problem = scene_file
        sat_feat = problem.sat_pyramid.feature(0).data.size * 4
        sat_att = problem.sat_pyramid.attention(0).data.size * 4
        skip = sat_feat if array == "satellite attention" else sat_feat + sat_att
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, _payload_offset(bytes(blob)) + skip, float("nan"))
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite") as err:
            load_scene(bad)
        assert err.value.field == field


@pytest.fixture(scope="module")
def tiny_scene_copy(tmp_path_factory):
    """The bytes of a saved tiny scene, and a path to write altered copies to."""
    folder = tmp_path_factory.mktemp("fuzz")
    save_scene(folder / "scene.cvls", tiny_problem())
    return (folder / "scene.cvls").read_bytes(), folder / "copy.cvls"


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupted_file_loads_or_raises_format_error(tiny_scene_copy, data):
    """Overwritten bytes in one section, a cut or trailing bytes: the loader
    returns a scene or raises FormatError, never another exception."""
    original, path = tiny_scene_copy
    blob = bytearray(original)
    payload = _payload_offset(original)
    sections = {"header": (0, 10), "metadata": (10, payload),
                "payload": (payload, len(blob))}
    kind = data.draw(st.sampled_from([*sections, "cut", "tail"]), label="kind")
    if kind == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="end"):]
    elif kind == "tail":
        blob += data.draw(st.binary(min_size=1, max_size=16), label="tail")
    else:
        lo, hi = sections[kind]
        for _ in range(data.draw(st.integers(1, 4), label="overwrites")):
            blob[data.draw(st.integers(lo, hi - 1), label="at")] = data.draw(
                st.integers(0, 255), label="byte")
    path.write_bytes(bytes(blob))
    try:
        load_scene(path)
    except FormatError:
        pass
