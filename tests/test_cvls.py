"""CVLS container: round-trips, validation, corruption handling."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvloc.cvls import load_scene, save_scene
from cvloc.errors import FormatError

from conftest import (CVLS_HEADER, cvls_meta, cvls_payload_offset, cvls_rewrite_meta,
                      cvls_with_meta, tiny_problem)


@pytest.fixture()
def scene_file(tmp_path):
    problem = tiny_problem()
    path = tmp_path / "scene.cvls"
    save_scene(path, problem)
    return path, problem


#: Each metadata object of a one-level scene: the path of keys and indices
#: that reaches it, the prefix of the field that names one of its keys, and
#: the keys the writer writes.
_OBJECTS = {
    "root": ((), "", ["georef", "intrinsics", "gt_pose", "levels", "point_count"]),
    "georef": (("georef",), "georef.", ["center_px", "gamma"]),
    "intrinsics": (("intrinsics",), "intrinsics.",
                   ["fx", "fy", "cx", "cy", "width", "height"]),
    "gt_pose": (("gt_pose",), "gt_pose.", ["lateral_m", "longitudinal_m", "yaw_deg"]),
    "levels": (("levels",), "levels.", ["satellite", "ground"]),
    "satellite_level": (("levels", "satellite", 0), "levels.satellite[0].", ["h", "w", "c"]),
    "ground_level": (("levels", "ground", 0), "levels.ground[0].", ["h", "w", "c"]),
}


def _object(meta: dict, name: str) -> dict:
    """The metadata object ``name`` of ``_OBJECTS`` within ``meta``."""
    obj = meta
    for step in _OBJECTS[name][0]:
        obj = obj[step]
    return obj


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
        assert "pose_context" not in cvls_meta(path.read_bytes())

    def test_save_load_save_bytes_stable(self, scene_file, tmp_path):
        path, _ = scene_file
        loaded = load_scene(path)
        second = tmp_path / "again.cvls"
        save_scene(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_georef_has_only_projection_keys(self, scene_file):
        path, _ = scene_file
        assert set(cvls_meta(path.read_bytes())["georef"]) == {"center_px", "gamma"}

    def test_save_deterministic(self, tmp_path):
        problem = tiny_problem()
        p1, p2 = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(p1, problem)
        save_scene(p2, problem)
        assert p1.read_bytes() == p2.read_bytes()


#: Values of gt_pose.lateral_m whose JSON spellings are 3 to 6 characters
#: long, so a scene's payload starts at every residue mod 4 across them.
_LATERALS = (0.0, 0.25, 0.125, 0.0625)


def _with_lateral(blob: bytes, lateral: float) -> bytes:
    return cvls_rewrite_meta(blob, lambda meta: meta["gt_pose"].update(lateral_m=lateral))


def _file_maps(blob: bytes) -> list:
    """The float32 feature and attention arrays the file holds, satellite
    levels then ground levels, each level's features before its attention."""
    meta = cvls_meta(blob)
    offset = cvls_payload_offset(blob)
    arrays = []
    for view in ("satellite", "ground"):
        for level in meta["levels"][view]:
            for shape in ((level["h"], level["w"], level["c"]), (level["h"], level["w"])):
                count = math.prod(shape)
                arrays.append(np.frombuffer(blob, "<f4", count, offset).reshape(shape))
                offset += 4 * count
    return arrays


class TestPayloadLayout:
    """The payload starts wherever the metadata ends; the loaded maps are
    aligned all the same, and the errors name absolute file offsets."""

    def test_maps_aligned_and_read_only_at_every_payload_offset(self, scene_file,
                                                                tmp_path):
        path, _ = scene_file
        residues = set()
        for i, lateral in enumerate(_LATERALS):
            blob = _with_lateral(path.read_bytes(), lateral)
            residues.add(cvls_payload_offset(blob) % 4)
            copy = tmp_path / f"lateral{i}.cvls"
            copy.write_bytes(blob)
            loaded = load_scene(copy)
            arrays = [m.data for pyramid in (loaded.sat_pyramid, loaded.grd_pyramid)
                      for level in pyramid.levels for m in level]
            expected = _file_maps(blob)
            assert len(arrays) == len(expected) == 4
            for got, want in zip(arrays, expected):
                assert got.flags.aligned and not got.flags.writeable
                assert got.dtype == np.float32
                assert np.array_equal(got, want)
        assert residues == {0, 1, 2, 3}

    @pytest.mark.parametrize("shift", range(4))
    def test_cut_inside_payload_names_its_file_offset(self, scene_file, tmp_path, shift):
        # the tiny scene's payload starts at byte 283 + shift; the ground
        # features follow 2048 bytes of satellite features and 1024 of attention
        path, _ = scene_file
        blob = _with_lateral(path.read_bytes(), _LATERALS[shift])
        bad = tmp_path / "cut.cvls"
        bad.write_bytes(blob[:5000 + shift])
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert str(err.value) == ("ground level 0 features: payload truncated, "
                                  f"need 2312 bytes at offset {3355 + shift}")

    @pytest.mark.parametrize("shift", range(4))
    def test_trailing_bytes_counted(self, scene_file, tmp_path, shift):
        path, _ = scene_file
        bad = tmp_path / "tail.cvls"
        bad.write_bytes(_with_lateral(path.read_bytes(), _LATERALS[shift]) + b"\0" * 7)
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert str(err.value) == "payload: 7 trailing bytes after payload"


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

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_not_a_regular_file(self):
        with pytest.raises(FormatError, match="is not a regular file"):
            load_scene(os.devnull)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(b"CV")
        with pytest.raises(FormatError):
            load_scene(bad)

    def test_attention_out_of_range(self, scene_file, tmp_path):
        path, problem = scene_file
        blob = bytearray(path.read_bytes())
        fmap = problem.sat_pyramid.feature(0)
        att_offset = cvls_payload_offset(bytes(blob)) + fmap.data.size * 4
        struct.pack_into("<f", blob, att_offset, 1.5)
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"attention out of \[0,1\]"):
            load_scene(bad)

    def test_nan_in_features(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, cvls_payload_offset(bytes(blob)), float("nan"))
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_scene(bad)

    def test_garbage_metadata(self, scene_file, tmp_path):
        path, _ = scene_file
        blob = bytearray(path.read_bytes())
        blob[CVLS_HEADER.size:CVLS_HEADER.size + 2] = b"{{"
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="JSON"):
            load_scene(bad)

    def test_missing_metadata_field(self, scene_file, tmp_path):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_rewrite_meta(path.read_bytes(),
                                          lambda meta: meta["georef"].pop("gamma")))
        with pytest.raises(FormatError, match="georef.gamma"):
            load_scene(bad)

    # Files older than the (center_px, gamma) georef carry the map tile's
    # keys, and older ones a pose_context, which held height_m before that
    # went. Every older file carries level_order, whose one value was
    # finest_first. Such a file, or one with any other extra key, is
    # regenerated.
    @pytest.mark.parametrize("name, key, value", [
        ("georef", "latitude_deg", 65.25),
        ("georef", "zoom", 15),
        ("georef", "scale", 2),
        ("root", "pose_context", {"roll_deg": 0.0, "pitch_deg": 0.0, "cam_to_gps": [
            1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]}),
        ("root", "pose_context", {"roll_deg": 0.0, "pitch_deg": 0.0, "height_m": 1.65}),
        ("root", "level_order", "finest_first"),
        *((name, "extra", 0.0) for name in _OBJECTS),
    ], ids=["latitude_deg", "zoom", "scale", "pose_context", "pose_context_height_m",
            "level_order", *(f"unknown_{name}" for name in _OBJECTS)])
    def test_old_or_unknown_key_names_it(self, scene_file, tmp_path, name, key, value):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_rewrite_meta(
            path.read_bytes(), lambda meta: _object(meta, name).update({key: value})))
        with pytest.raises(FormatError, match="unknown key; regenerate the scene with "
                                               "`cvloc synth`") as err:
            load_scene(bad)
        assert err.value.field == _OBJECTS[name][1] + key

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, (_, _, keys) in _OBJECTS.items() for key in keys])
    def test_missing_key_names_it(self, scene_file, tmp_path, name, key):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_rewrite_meta(path.read_bytes(),
                                          lambda meta: _object(meta, name).pop(key)))
        with pytest.raises(FormatError, match="missing key; regenerate the scene with "
                                               "`cvloc synth`") as err:
            load_scene(bad)
        assert err.value.field == _OBJECTS[name][1] + key

    def test_deeply_nested_metadata(self, scene_file, tmp_path):
        # deeper than the JSON parser's recursion limit
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_with_meta(path.read_bytes(), b"[" * 200000 + b"]" * 200000))
        with pytest.raises(FormatError, match="JSON") as err:
            load_scene(bad)
        assert err.value.field == "metadata"

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
        bad.write_bytes(cvls_rewrite_meta(path.read_bytes(), edit))
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
        bad.write_bytes(cvls_with_meta(blob, replace(cvls_meta(blob))))
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
        # finite values under which the points' pixel coordinates are not
        (lambda meta: meta["georef"].update(gamma=1e-320), "payload"),
        (lambda meta: meta["intrinsics"].update(fx=1e308), "payload"),
    ], ids=["gamma_str", "fx_bool", "yaw_list", "center_overflow",
            "gamma_subnormal", "fx_overflow"])
    def test_non_number_metadata_field(self, scene_file, tmp_path, edit, field):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_rewrite_meta(path.read_bytes(), edit))
        with pytest.raises(FormatError) as err:
            load_scene(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["georef"].update(center_px=float("nan")),
        lambda meta: meta["georef"].update(gamma=float("inf")),
        lambda meta: meta["intrinsics"].update(fy=float("inf")),
    ], ids=["center_nan", "gamma_inf", "fy_inf"])
    def test_non_finite_metadata_value(self, scene_file, tmp_path, edit):
        path, _ = scene_file
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(cvls_rewrite_meta(path.read_bytes(), edit))
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
        struct.pack_into("<f", blob, cvls_payload_offset(bytes(blob)) + skip, float("nan"))
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
    payload = cvls_payload_offset(original)
    sections = {"header": (0, CVLS_HEADER.size),
                "metadata": (CVLS_HEADER.size, payload),
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


#: Any JSON value: NaN, the infinities and integers beyond the float range
#: included.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**1024, 2**1100)
    | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_edited_metadata_loads_or_raises_format_error(tiny_scene_copy, data):
    """One metadata object loses a key, gains a key, or has a key set to any
    JSON value: the loader returns a scene or raises FormatError, never
    another exception."""
    original, path = tiny_scene_copy
    meta = cvls_meta(original)
    obj = _object(meta, data.draw(st.sampled_from(sorted(_OBJECTS)), label="object"))
    edit = data.draw(st.sampled_from(["delete", "add", "set"]), label="edit")
    if edit == "delete":
        del obj[data.draw(st.sampled_from(sorted(obj)), label="key")]
    else:
        key = data.draw(st.text(max_size=8) if edit == "add" else st.sampled_from(sorted(obj)),
                        label="key")
        obj[key] = data.draw(_JSON_VALUES, label="value")
    path.write_bytes(cvls_with_meta(original, meta))
    try:
        load_scene(path)
    except FormatError:
        pass
