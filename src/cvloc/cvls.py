"""CVLS scene container: binary serialization of alignment problems.

Layout (little-endian throughout):

    magic           4 bytes  b"CVLS"
    version         u16      currently 1
    metadata_len    u32
    metadata        UTF-8 JSON (georef, intrinsics, gt_pose, level table
                    per view, point_count); the georef holds center_px
                    and gamma
    payload         per view (satellite first, then ground), per level
                    (finest first): feature float32 row-major (h, w, c),
                    attention float32 row-major (h, w); finally points
                    float32 (N, 3)

The payload starts at byte 10 + metadata_len, which need not be a multiple
of 4. The reader reads it, without a copy, into a fresh buffer that numpy
allocates aligned; every section is a whole number of float32 values, so
every loaded array starts aligned and the lookups never take numpy's
unaligned path. Each loaded map is a read-only view of that buffer.

The reader accepts exactly the keys the writer writes: a missing or an
unknown key, such as one an older file carries, raises FormatError naming
it. Angles in the metadata are degrees; everything in memory is radians.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from stat import S_ISREG
from typing import get_type_hints

import numpy as np

from .errors import CvlocError, DomainError, FormatError, require_int, require_number
from .features import AttentionMap, FeatureMap, FeaturePyramid
from .geometry import CameraIntrinsics, PointSet, Pose3, SatelliteGeoref
from .problem import AlignmentProblem

MAGIC = b"CVLS"
VERSION = 1

_HEADER = struct.Struct("<4sHI")

#: The keys of each metadata object and the types of their values. An int
#: is a size or a count, so it must be >= 1.
_ROOT = {"georef": dict, "intrinsics": dict, "gt_pose": dict, "levels": dict,
         "point_count": int}
_GEOREF = get_type_hints(SatelliteGeoref)
_INTRINSICS = get_type_hints(CameraIntrinsics)
_GT_POSE = dict.fromkeys(("lateral_m", "longitudinal_m", "yaw_deg"), float)
_LEVELS = {"satellite": list, "ground": list}
_LEVEL = dict.fromkeys("hwc", int)


def _level_table(pyramid: FeaturePyramid) -> list[dict]:
    return [{"h": f.height, "w": f.width, "c": f.channels} for f, _ in pyramid.levels]


def _metadata(problem: AlignmentProblem) -> dict:
    return {
        "georef": dataclasses.asdict(problem.georef),
        "intrinsics": dataclasses.asdict(problem.intrinsics),
        "gt_pose": problem.gt_pose.to_dict(),
        "levels": {
            "satellite": _level_table(problem.sat_pyramid),
            "ground": _level_table(problem.grd_pyramid),
        },
        "point_count": problem.points.count,
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


def _fields(obj, section: str, types: dict, field: str | None = None) -> dict:
    """The values of ``obj``, an object whose keys must be exactly those of
    ``types``. A missing or unknown key raises FormatError naming
    ``section.key``, the bare key at the root (``section`` ""). An ``int``
    value goes through ``require_int`` and a ``float`` through
    ``require_number``; a failed check names ``field``, ``section.key`` by
    default. Other values are returned as they are."""
    if not isinstance(obj, dict):
        raise FormatError(f"expected an object, got {type(obj).__name__}",
                          field=section or "metadata")
    prefix = f"{section}." if section else ""
    for key in [*types, *obj]:
        if (key in types) != (key in obj):
            raise FormatError(f"{'missing' if key in types else 'unknown'} key; "
                              "regenerate the scene with `cvloc synth`", field=prefix + key)
    values = {}
    for key, kind in types.items():
        try:
            values[key] = (require_int(key, obj[key], 1) if kind is int else
                           require_number(key, obj[key]) if kind is float else obj[key])
        except (DomainError, OverflowError) as exc:
            raise FormatError(str(exc), field=field or prefix + key) from exc
    return values


def _take(payload: np.ndarray, base: int, offset: int, shape: tuple, what: str, cls):
    """``cls`` on the float32 array of ``shape`` at file offset ``offset``, and
    the offset after it; ``payload`` holds the file from offset ``base`` on. A
    short payload or the type's CvlocError names ``what``."""
    count = math.prod(shape)
    nbytes = count * 4
    if offset + nbytes > base + payload.size:
        raise FormatError(f"payload truncated, need {nbytes} bytes at offset {offset}",
                          field=what)
    arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset - base)
    try:
        return cls(arr.reshape(shape)), offset + nbytes
    except CvlocError as exc:
        raise FormatError(str(exc), field=what) from exc


def _read_pyramid(payload: np.ndarray, base: int, offset: int, table: list, view: str):
    if not isinstance(table, list) or not table:
        raise FormatError("expected a non-empty list of levels", field=f"levels.{view}")
    levels = []
    for i, entry in enumerate(table):
        field = f"levels.{view}[{i}]"
        h, w, c = _fields(entry, field, _LEVEL, field=field).values()
        fmap, offset = _take(payload, base, offset, (h, w, c),
                             f"{view} level {i} features", FeatureMap)
        amap, offset = _take(payload, base, offset, (h, w),
                             f"{view} level {i} attention", AttentionMap)
        levels.append((fmap, amap))
    return FeaturePyramid(tuple(levels)), offset


def load_scene(path) -> AlignmentProblem:
    """Read a CVLS file back into an alignment problem.

    Validates the magic, version, metadata, dimensions, payload size, and
    value ranges; raises :class:`FormatError` naming the offending field.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not S_ISREG(info.st_mode):  # a pipe or device has no size to read by
            raise FormatError(f"{os.fsdecode(path)} is not a regular file")
        size = info.st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError("file shorter than header", field="header")
        magic, version, meta_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}", field="magic")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", field="version")
        base = _HEADER.size + meta_len
        if base > size:
            raise FormatError("metadata truncated", field="metadata")
        meta_bytes = fh.read(meta_len)
        # the one copy of the payload, in memory numpy allocates aligned; a
        # file cut while it is read ends where the read ended
        payload = np.empty(size - base, dtype=np.uint8)
        payload = payload[:fh.readinto(payload)]
    payload.setflags(write=False)
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    # bad UTF-8, bad JSON, an overlong integer, or nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"metadata is not valid JSON: {exc}", field="metadata") from exc

    root = _fields(meta, "", _ROOT)
    try:  # _fields translates; the value types check the values
        georef = SatelliteGeoref(**_fields(root["georef"], "georef", _GEOREF))
        intrinsics = CameraIntrinsics(**_fields(root["intrinsics"], "intrinsics",
                                                _INTRINSICS))
        gt = _fields(root["gt_pose"], "gt_pose", _GT_POSE)
        gt_pose = Pose3(gt["lateral_m"], gt["longitudinal_m"], math.radians(gt["yaw_deg"]))
    except DomainError as exc:
        raise FormatError(f"invalid metadata value: {exc}", field="metadata") from exc

    tables = _fields(root["levels"], "levels", _LEVELS)
    sat_pyr, offset = _read_pyramid(payload, base, base, tables["satellite"], "satellite")
    grd_pyr, offset = _read_pyramid(payload, base, offset, tables["ground"], "ground")
    points, offset = _take(payload, base, offset, (root["point_count"], 3), "points",
                           PointSet)
    if offset != base + payload.size:
        raise FormatError(f"{base + payload.size - offset} trailing bytes after payload",
                          field="payload")

    try:
        return AlignmentProblem(
            sat_pyramid=sat_pyr, georef=georef, grd_pyramid=grd_pyr,
            intrinsics=intrinsics, points=points, gt_pose=gt_pose)
    except CvlocError as exc:
        raise FormatError(f"inconsistent scene: {exc}", field="payload") from exc
