"""Feature and attention pyramids with sub-pixel lookup.

Feature maps are stored row-major (height, width, channels); lookup
coordinates are (u, v) with u along width and v along height. Lookups use
bilinear interpolation; ``bilinear_lookup_many`` also returns the analytic
spatial gradient of the interpolant, which downstream Jacobians chain with
the projection geometry, and ``bilinear_values_many`` skips it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

#: Pixel vectors with an L2 norm below this stay zero under normalization.
ZERO_NORM_EPS = 1e-12


def _map_array(data, what: str, layout: str) -> np.ndarray:
    """``data`` as a finite, contiguous, read-only float32/float64 array."""
    arr = np.asarray(data)
    if arr.ndim != len(layout.split("x")):
        raise ContractError(f"{what} data must be {layout}, got shape {arr.shape}")
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} data contains non-finite values")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureMap:
    """Dense per-pixel feature map, shape (height, width, channels).

    The data must be finite; it is stored contiguous and read-only, as
    float32 or float64 (other dtypes are cast to float64).
    ``normalize_features`` returns a map whose pixels have unit norm.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _map_array(self.data, "feature", "HxWxC"))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class AttentionMap:
    """Per-pixel confidence in [0, 1], shape (height, width)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _map_array(self.data, "attention", "HxW")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DomainError("attention out of [0,1]")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeaturePyramid:
    """Ordered (FeatureMap, AttentionMap) pairs, finest level first."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels)
        if len(levels) < 1:
            raise ContractError("pyramid needs at least one level")
        for i, (feat, att) in enumerate(levels):
            if (feat.height, feat.width) != (att.height, att.width):
                raise ContractError(
                    f"level {i}: attention {att.height}x{att.width} does not match "
                    f"features {feat.height}x{feat.width}")
        object.__setattr__(self, "levels", levels)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def feature(self, level: int) -> FeatureMap:
        return self.levels[level][0]

    def attention(self, level: int) -> AttentionMap:
        return self.levels[level][1]


@dataclass(frozen=True)
class SparseAlignment:
    """Per-point residuals and weights of one cross-view evaluation.

    Rows with ``valid_mask`` False carry zero residual and zero weight, so
    masked points contribute exactly nothing to downstream sums.
    """

    residuals: np.ndarray
    weights: np.ndarray
    valid_mask: np.ndarray


def normalize_features(fmap: FeatureMap) -> FeatureMap:
    """L2-normalize every pixel's channel vector.

    Computed in float64 and returned in the input's dtype. Pixels with norm
    at or below ``ZERO_NORM_EPS`` are left zero rather than inflated, so
    empty regions cannot fake correspondence.
    """
    data = fmap.data.astype(np.float64)
    norms = np.linalg.norm(data, axis=-1, keepdims=True)
    zero = norms <= ZERO_NORM_EPS
    out = np.where(zero, 0.0, data / np.where(zero, 1.0, norms))
    return FeatureMap(out.astype(fmap.data.dtype))


def bilinear_weights(shape_hw: tuple[int, int], uv: np.ndarray):
    """Flat corner indices and interpolation weights for bilinear lookup.

    Returns (idx, weights, fu, fv, in_bounds):
        idx: (4, N) row indices into the map flattened to (h*w, ...), corners
            in the order (v0, u0), (v0, u1), (v1, u0), (v1, u1).
        weights: (4, N) interpolation weights of those corners.
        fu, fv: (N,) fractional offsets of uv inside its cell.
        in_bounds: (N,) True where uv lies in [0, w-1] x [0, h-1].

    Coordinates are clamped so indices stay legal; callers zero the rows
    outside ``in_bounds``.
    """
    h, w = shape_hw
    uv = np.asarray(uv, dtype=np.float64)
    u = np.clip(uv[:, 0], 0.0, w - 1.0)
    v = np.clip(uv[:, 1], 0.0, h - 1.0)
    # Clamping moves exactly the coordinates outside the map.
    in_bounds = (u == uv[:, 0]) & (v == uv[:, 1])
    # The cell's corner as whole floats, so fu and fv need no int cast.
    u0 = np.minimum(np.floor(u), max(w - 2, 0))
    v0 = np.minimum(np.floor(v), max(h - 2, 0))
    fu = u - u0
    fv = v - v0
    col0 = u0.astype(np.intp)
    col1 = np.minimum(col0 + 1, w - 1)
    row0 = v0.astype(np.intp) * w
    row1 = np.minimum(row0 + w, (h - 1) * w)
    idx = np.stack([row0 + col0, row0 + col1, row1 + col0, row1 + col1])
    w11 = fu * fv
    weights = np.stack([1.0 - fu - fv + w11, fu - w11, fv - w11, w11])
    return idx, weights, fu, fv, in_bounds


def _corner_sum(data: np.ndarray, uv: np.ndarray, corners):
    """Corners, float64 corner texels and bilinear values of a lookup.

    The one home of the four-corner sum that value-only and gradient
    lookups share. Returns (corners, texels (4, N, c), values (N, c)); the
    values are not yet zeroed outside the map.
    """
    h, w, c = data.shape
    if corners is None:
        corners = bilinear_weights((h, w), uv)
    idx, wts = corners[:2]
    # (4, N, c): all four corners in one gather by flat row index.
    texels = np.take(data.reshape(h * w, c), idx, axis=0).astype(np.float64)
    # Each einsum adds its products in k order from +0.0, rounding every
    # product and every sum as the written-out w0*f00 + w1*f01 + ... does,
    # but with no temporaries. That holds while numpy's einsum kernels use
    # no FMA (none in its x86-64-v2 baseline); tests compare the two forms.
    return corners, texels, np.einsum("kn,knc->nc", wts, texels)


def bilinear_values_many(data: np.ndarray, uv: np.ndarray, corners=None):
    """Bilinear values at uv without gradients: (values (N, c), in_bounds (N,)).

    The values of ``bilinear_lookup_many`` to the bit, for callers that
    never read the gradients; arguments as there.
    """
    corners, _, values = _corner_sum(data, uv, corners)
    in_bounds = corners[4]
    if not in_bounds.all():
        values[~in_bounds] = 0.0
    return values, in_bounds


def bilinear_lookup_many(data: np.ndarray, uv: np.ndarray, corners=None):
    """Vectorized bilinear lookup with analytic spatial gradients.

    Args:
        data: (h, w, c) array.
        uv: (N, 2) sub-pixel coordinates.
        corners: ``bilinear_weights((h, w), uv)``, when the caller already
            built it for another lookup on a map of the same size; built
            from ``uv`` when omitted.

    Returns:
        values: (N, c) interpolated values, zero where out of bounds.
        grads: (N, c, 2) d(value)/d(u, v), zero where out of bounds. It is a
            transposed view of one (2, N, c) buffer, so each derivative is
            written as one contiguous (N, c) plane.
        in_bounds: (N,) True where uv lies in [0, w-1] x [0, h-1].
    """
    corners, texels, values = _corner_sum(data, uv, corners)
    _, _, fu, fv, in_bounds = corners
    # d/du = (1-fv)*(f01-f00) + fv*(f11-f10), d/dv = (1-fu)*(f10-f00) + fu*(f11-f01)
    planes = np.empty((2,) + values.shape)
    np.einsum("kn,knc->nc", (1.0 - fv, fv), texels[1::2] - texels[::2], out=planes[0])
    np.einsum("kn,knc->nc", (1.0 - fu, fu), texels[2:] - texels[:2], out=planes[1])
    grads = planes.transpose(1, 2, 0)

    if not in_bounds.all():
        outside = ~in_bounds
        values[outside] = 0.0
        grads[outside] = 0.0
    return values, grads, in_bounds


def attention_lookup_many(amap: AttentionMap, uv: np.ndarray, corners=None):
    """Bilinear attention values at uv; returns (values (N,), in_bounds (N,)).

    The one-channel case of ``bilinear_values_many``, so a one-channel map
    gives the same values to the bit. ``corners`` is as there: the
    ``bilinear_weights`` of a map of the same size, shared with a feature
    lookup at the same ``uv``.
    """
    values, in_bounds = bilinear_values_many(amap.data[:, :, None], uv, corners)
    return values[:, 0], in_bounds
