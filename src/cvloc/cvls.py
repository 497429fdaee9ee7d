"""CVLS scene container: binary serialization of alignment problems.

Layout (little-endian throughout):

    magic           4 bytes  b"CVLS"
    version         u16      currently 1
    metadata_len    u32
    metadata        UTF-8 JSON (georef, intrinsics, gt_pose, level table
                    per view, point_count, level_order); the georef holds
                    center_px and gamma. Older files also carry the
                    georef's latitude_deg, zoom and scale keys, which are
                    ignored, and a pose_context (roll_deg, pitch_deg,
                    cam_to_gps, height_m), which loads only at its
                    defaults: a level vehicle with the camera at its origin
    payload         per view (satellite first, then ground), per level
                    (finest first): feature float32 row-major (h, w, c),
                    attention float32 row-major (h, w); finally points
                    float32 (N, 3)

Angles in the metadata are degrees; everything in memory is radians.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CvlocError, DomainError, FormatError, require_int, require_number
from .features import AttentionMap, FeatureMap, FeaturePyramid
from .geometry import CameraIntrinsics, PointSet, Pose3, SatelliteGeoref
from .problem import AlignmentProblem

MAGIC = b"CVLS"
VERSION = 1

_HEADER = struct.Struct("<4sHI")

#: The pose_context values every scene written with one had: roll and pitch
#: in degrees, and the row-major 3x4 camera-to-body transform.
_POSE_CONTEXT_DEFAULTS = {"roll_deg": [0.0], "pitch_deg": [0.0],
                          "cam_to_gps": np.eye(3, 4).reshape(-1).tolist()}


def _level_table(pyramid: FeaturePyramid) -> list[dict]:
    return [{"h": f.height, "w": f.width, "c": f.channels} for f, _ in pyramid.levels]


def _metadata(problem: AlignmentProblem) -> dict:
    return {
        "georef": {
            "center_px": problem.georef.center_px,
            "gamma": problem.georef.gamma,
        },
        "intrinsics": {
            "fx": problem.intrinsics.fx,
            "fy": problem.intrinsics.fy,
            "cx": problem.intrinsics.cx,
            "cy": problem.intrinsics.cy,
            "width": problem.intrinsics.width,
            "height": problem.intrinsics.height,
        },
        "gt_pose": problem.gt_pose.to_dict(),
        "levels": {
            "satellite": _level_table(problem.sat_pyramid),
            "ground": _level_table(problem.grd_pyramid),
        },
        "point_count": problem.points.count,
        "level_order": "finest_first",
    }


def save_scene(path, problem: AlignmentProblem) -> None:
    """Write an alignment problem to a CVLS file."""
    meta = json.dumps(_metadata(problem), separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(meta)))
        fh.write(meta)
        for pyramid in (problem.sat_pyramid, problem.grd_pyramid):
            for fmap, amap in pyramid.levels:
                fh.write(np.ascontiguousarray(fmap.data, dtype="<f4").tobytes())
                fh.write(np.ascontiguousarray(amap.data, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(problem.points.points, dtype="<f4").tobytes())


def _require(meta: dict, key: str, section: str, check=None, *args,
             field: str | None = None):
    """``meta[key]``, through ``check(key, value, *args)`` if given. A missing
    key raises FormatError naming ``section.key``, a failed check (for
    ``require_int``, a float, even 2.0, a boolean or a string) names
    ``field``, ``section.key`` by default."""
    if not isinstance(meta, dict):
        raise FormatError(f"expected an object, got {type(meta).__name__}", field=section)
    if key not in meta:
        raise FormatError("missing field", field=f"{section}.{key}")
    if check is None:
        return meta[key]
    try:
        return check(key, meta[key], *args)
    except (DomainError, OverflowError) as exc:
        raise FormatError(str(exc), field=field or f"{section}.{key}") from exc


def _check_pose_context(pc) -> None:
    """Raise unless an older file's ``pose_context`` holds its defaults; its
    ``height_m`` is ignored. A non-finite number raises DomainError, any
    other bad value FormatError naming its key."""
    for key, default in _POSE_CONTEXT_DEFAULTS.items():
        field = f"pose_context.{key}"
        value = _require(pc, key, "pose_context")
        values = value if key == "cam_to_gps" else [value]
        if not (isinstance(values, list) and len(values) == len(default)):
            raise FormatError(f"{key} must hold {len(default)} numbers", field=field)
        try:
            values = [require_number(key, x) for x in values]
        except (DomainError, OverflowError) as exc:
            raise FormatError(str(exc), field=field) from exc
        if not all(math.isfinite(x) for x in values):
            raise DomainError(f"{key} must be finite, got {value}")
        if values != default:
            raise FormatError(f"got {value}, but only a level vehicle with the camera at "
                              f"its origin is modelled (roll and pitch 0, the identity "
                              f"mount)", field=field)


def _take(buffer: bytes, offset: int, shape: tuple, what: str, cls):
    """``cls`` on the float32 array of ``shape`` at ``offset``, and the offset
    after it; a short payload or the type's CvlocError names ``what``."""
    count = math.prod(shape)
    nbytes = count * 4
    if offset + nbytes > len(buffer):
        raise FormatError(f"payload truncated, need {nbytes} bytes at offset {offset}",
                          field=what)
    arr = np.frombuffer(buffer, dtype="<f4", count=count, offset=offset)
    try:
        return cls(arr.reshape(shape)), offset + nbytes
    except CvlocError as exc:
        raise FormatError(str(exc), field=what) from exc


def _read_pyramid(buffer: bytes, offset: int, table: list, view: str):
    if not isinstance(table, list) or not table:
        raise FormatError("expected a non-empty list of levels", field=f"levels.{view}")
    levels = []
    for i, entry in enumerate(table):
        field = f"levels.{view}[{i}]"
        h, w, c = (_require(entry, key, field, require_int, 1, field=field)
                   for key in "hwc")
        fmap, offset = _take(buffer, offset, (h, w, c), f"{view} level {i} features",
                             FeatureMap)
        amap, offset = _take(buffer, offset, (h, w), f"{view} level {i} attention",
                             AttentionMap)
        levels.append((fmap, amap))
    return FeaturePyramid(tuple(levels)), offset


def load_scene(path) -> AlignmentProblem:
    """Read a CVLS file back into an alignment problem.

    Validates the magic, version, metadata, dimensions, payload size, and
    value ranges; raises :class:`FormatError` naming the offending field.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("file shorter than header", field="header")
    magic, version, meta_len = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", field="magic")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", field="version")
    if _HEADER.size + meta_len > len(blob):
        raise FormatError("metadata truncated", field="metadata")
    try:
        meta = json.loads(blob[_HEADER.size:_HEADER.size + meta_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON or an overlong integer
        raise FormatError(f"metadata is not valid JSON: {exc}", field="metadata") from exc

    g = _require(meta, "georef", "metadata")
    k = _require(meta, "intrinsics", "metadata")
    gt = _require(meta, "gt_pose", "metadata")
    tables = _require(meta, "levels", "metadata")
    point_count = _require(meta, "point_count", "metadata", require_int, 1,
                           field="point_count")
    order = meta.get("level_order", "finest_first")
    if order != "finest_first":
        raise FormatError(f"unsupported level order {order!r}", field="level_order")

    try:
        georef = SatelliteGeoref(
            center_px=_require(g, "center_px", "georef", require_number),
            gamma=_require(g, "gamma", "georef", require_number))
        intrinsics = CameraIntrinsics(
            fx=_require(k, "fx", "intrinsics", require_number),
            fy=_require(k, "fy", "intrinsics", require_number),
            cx=_require(k, "cx", "intrinsics", require_number),
            cy=_require(k, "cy", "intrinsics", require_number),
            width=_require(k, "width", "intrinsics", require_int, 1),
            height=_require(k, "height", "intrinsics", require_int, 1))
        if "pose_context" in meta:
            _check_pose_context(meta["pose_context"])
        gt_pose = Pose3(
            lateral=_require(gt, "lateral_m", "gt_pose", require_number),
            longitudinal=_require(gt, "longitudinal_m", "gt_pose", require_number),
            yaw=math.radians(_require(gt, "yaw_deg", "gt_pose", require_number)))
    except FormatError:
        raise
    except CvlocError as exc:
        raise FormatError(f"invalid metadata value: {exc}", field="metadata") from exc

    offset = _HEADER.size + meta_len
    sat_pyr, offset = _read_pyramid(blob, offset, _require(tables, "satellite", "levels"),
                                    "satellite")
    grd_pyr, offset = _read_pyramid(blob, offset, _require(tables, "ground", "levels"),
                                    "ground")
    points, offset = _take(blob, offset, (point_count, 3), "points", PointSet)
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after payload",
                          field="payload")

    try:
        return AlignmentProblem(
            sat_pyramid=sat_pyr, georef=georef, grd_pyramid=grd_pyr,
            intrinsics=intrinsics, points=points, gt_pose=gt_pose)
    except CvlocError as exc:
        raise FormatError(f"inconsistent scene: {exc}", field="payload") from exc
