"""CVLS scene container: binary serialization of alignment problems.

Layout (little-endian throughout):

    magic           4 bytes  b"CVLS"
    version         u16      currently 1
    metadata_len    u32
    metadata        UTF-8 JSON (georef, intrinsics, pose_context, gt_pose,
                    level table per view, point_count, level_order)
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

from .errors import CvlocError, DomainError, FormatError, require_int
from .features import AttentionMap, FeatureMap, FeaturePyramid
from .geometry import (CameraIntrinsics, PointSet, Pose3, PoseContext,
                       RigidTransform, SatelliteGeoref)
from .problem import AlignmentProblem

MAGIC = b"CVLS"
VERSION = 1

_HEADER = struct.Struct("<4sHI")


def _level_table(pyramid: FeaturePyramid) -> list[dict]:
    return [{"h": f.height, "w": f.width, "c": f.channels} for f, _ in pyramid.levels]


def _metadata(problem: AlignmentProblem) -> dict:
    ctx = problem.ctx
    cam = np.hstack([ctx.cam_to_gps.rotation, ctx.cam_to_gps.translation[:, None]])
    return {
        "georef": {
            "center_px": problem.georef.center_px,
            "gamma": problem.georef.gamma,
            "latitude_deg": problem.georef.latitude_deg,
            "zoom": problem.georef.zoom,
            "scale": problem.georef.scale,
        },
        "intrinsics": {
            "fx": problem.intrinsics.fx,
            "fy": problem.intrinsics.fy,
            "cx": problem.intrinsics.cx,
            "cy": problem.intrinsics.cy,
            "width": problem.intrinsics.width,
            "height": problem.intrinsics.height,
        },
        "pose_context": {
            "roll_deg": math.degrees(ctx.roll),
            "pitch_deg": math.degrees(ctx.pitch),
            "height_m": ctx.height,
            "cam_to_gps": [float(x) for x in cam.reshape(-1)],
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


def _require(meta: dict, key: str, section: str):
    if not isinstance(meta, dict):
        raise FormatError(f"expected an object, got {type(meta).__name__}", field=section)
    if key not in meta:
        raise FormatError("missing field", field=f"{section}.{key}")
    return meta[key]


def _require_int(meta: dict, key: str, section: str, minimum: int,
                 field: str | None = None) -> int:
    """An integer field >= ``minimum``; a float (even 2.0), a boolean or a
    string raises FormatError naming ``field`` (``section.key`` by default)
    instead of being truncated."""
    value = _require(meta, key, section)
    try:
        require_int(key, value, minimum)
    except DomainError as exc:
        raise FormatError(str(exc), field=field or f"{section}.{key}") from exc
    return value


def _take(buffer: bytes, offset: int, count: int, what: str) -> tuple[np.ndarray, int]:
    nbytes = count * 4
    if offset + nbytes > len(buffer):
        raise FormatError(f"payload truncated, need {nbytes} bytes at offset {offset}",
                          field=what)
    arr = np.frombuffer(buffer, dtype="<f4", count=count, offset=offset)
    if not np.all(np.isfinite(arr)):
        raise FormatError("non-finite values", field=what)
    return arr, offset + nbytes


def _read_pyramid(buffer: bytes, offset: int, table: list, view: str):
    if not isinstance(table, list) or not table:
        raise FormatError("expected a non-empty list of levels", field=f"levels.{view}")
    levels = []
    for i, entry in enumerate(table):
        field = f"levels.{view}[{i}]"
        h, w, c = (_require_int(entry, key, field, 1, field=field) for key in "hwc")
        feat_raw, offset = _take(buffer, offset, h * w * c, f"{view} level {i} features")
        att_raw, offset = _take(buffer, offset, h * w, f"{view} level {i} attention")
        if att_raw.size and (att_raw.min() < 0.0 or att_raw.max() > 1.0):
            raise FormatError("attention out of [0,1]", field=f"{view} level {i} attention")
        levels.append((FeatureMap(feat_raw.reshape(h, w, c)),
                       AttentionMap(att_raw.reshape(h, w))))
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"metadata is not valid JSON: {exc}", field="metadata") from exc

    g = _require(meta, "georef", "metadata")
    k = _require(meta, "intrinsics", "metadata")
    pc = _require(meta, "pose_context", "metadata")
    gt = _require(meta, "gt_pose", "metadata")
    tables = _require(meta, "levels", "metadata")
    point_count = _require_int(meta, "point_count", "metadata", 1, field="point_count")
    order = meta.get("level_order", "finest_first")
    if order != "finest_first":
        raise FormatError(f"unsupported level order {order!r}", field="level_order")

    try:
        georef = SatelliteGeoref(
            center_px=float(_require(g, "center_px", "georef")),
            gamma=float(_require(g, "gamma", "georef")),
            latitude_deg=float(_require(g, "latitude_deg", "georef")),
            zoom=_require_int(g, "zoom", "georef", 0),
            scale=_require_int(g, "scale", "georef", 1))
        intrinsics = CameraIntrinsics(
            fx=float(_require(k, "fx", "intrinsics")),
            fy=float(_require(k, "fy", "intrinsics")),
            cx=float(_require(k, "cx", "intrinsics")),
            cy=float(_require(k, "cy", "intrinsics")),
            width=_require_int(k, "width", "intrinsics", 1),
            height=_require_int(k, "height", "intrinsics", 1))
        cam = np.asarray(_require(pc, "cam_to_gps", "pose_context"),
                         dtype=np.float64)
        if cam.shape != (12,):
            raise FormatError("cam_to_gps must hold 12 floats",
                              field="pose_context.cam_to_gps")
        cam = cam.reshape(3, 4)
        ctx = PoseContext(
            roll=math.radians(float(_require(pc, "roll_deg", "pose_context"))),
            pitch=math.radians(float(_require(pc, "pitch_deg", "pose_context"))),
            height=float(_require(pc, "height_m", "pose_context")),
            cam_to_gps=RigidTransform(cam[:, :3], cam[:, 3]))
        gt_pose = Pose3(
            lateral=float(_require(gt, "lateral_m", "gt_pose")),
            longitudinal=float(_require(gt, "longitudinal_m", "gt_pose")),
            yaw=math.radians(float(_require(gt, "yaw_deg", "gt_pose"))))
    except FormatError:
        raise
    except (CvlocError, ValueError, TypeError) as exc:
        raise FormatError(f"invalid metadata value: {exc}", field="metadata") from exc

    offset = _HEADER.size + meta_len
    sat_pyr, offset = _read_pyramid(blob, offset, _require(tables, "satellite", "levels"),
                                    "satellite")
    grd_pyr, offset = _read_pyramid(blob, offset, _require(tables, "ground", "levels"),
                                    "ground")
    pts_raw, offset = _take(blob, offset, point_count * 3, "points")
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after payload",
                          field="payload")

    try:
        return AlignmentProblem(
            sat_pyramid=sat_pyr, georef=georef, grd_pyramid=grd_pyr,
            intrinsics=intrinsics, points=PointSet(pts_raw.reshape(point_count, 3)),
            ctx=ctx, gt_pose=gt_pose)
    except CvlocError as exc:
        raise FormatError(f"inconsistent scene: {exc}", field="payload") from exc
