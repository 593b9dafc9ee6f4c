"""Rigid transforms, pinhole projection, visibility, and sigma-point extraction.

Conventions used throughout:
  * camera frame: +Z optical axis into the scene, +X right, +Y down, meters
  * pixel coordinates: u right, v down, origin at the top-left corner
  * rotations are 3x3 orthonormal matrices with determinant +1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometryError, FrameMismatchError, InvalidDepthError, NumericalError,
                     check_fields)

# Orthonormality tolerance for accepting a rotation matrix.
ROTATION_TOL = 1e-9
# Covariance eigenvalues below this are treated as indefinite rather than roundoff.
EIGENVALUE_FLOOR = -1e-12
# Points in a sigma-point set: the centroid and a +/- pair per principal axis.
N_POINTS = 7

_EYE3 = np.eye(3)


def _vec3(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(3)


def _matrices(*entries) -> np.ndarray:
    """Nine row-major entries (scalars or arrays that broadcast) as ``(..., 3, 3)``."""
    entries = np.broadcast_arrays(*entries)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def dots(a, b) -> np.ndarray:
    """Row-wise dot products over a last axis of 3 (or any length); leading
    axes broadcast.  Each equals the 1-D ``a @ b``, and so the dot product
    ``np.linalg.norm`` takes of one vector, bit for bit."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norms(v) -> np.ndarray:
    """Euclidean length of each row; equals ``np.linalg.norm`` of that row bit for bit."""
    return np.sqrt(dots(v, v))


def rotation_x(angle) -> np.ndarray:
    """Rotation about x; an array of angles gives a ``(..., 3, 3)`` stack."""
    c, s = np.cos(angle), np.sin(angle)
    return _matrices(1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c)


def rotation_y(angle) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return _matrices(c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)


def rotation_z(angle) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return _matrices(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def rotation_rpy(roll, pitch, yaw) -> np.ndarray:
    """Intrinsic roll-pitch-yaw composed as Rz(yaw) @ Ry(pitch) @ Rx(roll);
    angles may be arrays that broadcast."""
    return rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis.

    ``axis`` may be a stack ``(..., 3)`` with ``angle`` shaped ``(...)``.
    """
    a = np.asarray(axis, dtype=float)
    n = norms(a)
    if np.any(n == 0.0):
        raise DegenerateGeometryError("rotation axis has zero norm")
    x, y, z = np.moveaxis(a / n[..., None], -1, 0)
    k = _matrices(0.0, -z, y, z, 0.0, -x, -y, x, 0.0)
    s = np.sin(angle)[..., None, None]
    c = np.cos(angle)[..., None, None]
    return _EYE3 + s * k + (1.0 - c) * (k @ k)


def rotate(rotations: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """R v for stacks of rotations ``(..., 3, 3)`` and vectors ``(..., 3)``.

    Each product rounds as the single ``R @ v`` does; ``v @ R.T`` would not.
    """
    return (rotations @ vectors[..., None])[..., 0]


def check_rotations(rotations: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a ``(..., 3, 3)`` stack is
    orthonormal with determinant +1, both within ROTATION_TOL.  The tests
    are written so that a NaN entry fails them."""
    r = np.asarray(rotations, dtype=float)
    if not np.abs(np.swapaxes(r, -1, -2) @ r - _EYE3).max() <= ROTATION_TOL:
        raise ValueError("rotation matrix is not orthonormal within 1e-9")
    if not np.abs(np.linalg.det(r) - 1.0).max() <= ROTATION_TOL:
        raise ValueError("rotation matrix determinant is not +1 within 1e-9")


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) map taking coordinates in ``from_frame`` to ``to_frame``: p' = R p + t."""

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: str = "camera"
    to_frame: str = "camera"

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = _vec3(self.translation)
        check_rotations(r)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(frame: str = "camera") -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), frame, frame)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation, self.to_frame, self.from_frame)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self o other: apply ``other`` first, then ``self``."""
        if other.to_frame != self.from_frame:
            raise FrameMismatchError(
                f"cannot compose {self.from_frame}<-{other.to_frame}: frames differ"
            )
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
            other.from_frame,
            self.to_frame,
        )

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics with an image bound and a near plane."""

    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480
    near_z: float = 0.05

    def __post_init__(self):
        check_fields(self, positive=("fx", "fy", "width", "height", "near_z"))


def project_points(cam: CameraModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points; returns (pixels (N,2), in_fov (N,)).

    Points closer than the near plane (including behind the camera) are never
    in the field of view.  For those the pixel is still finite: it is computed
    with the depth clamped to the near plane so callers get a usable direction
    instead of an overflow.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    z = np.maximum(pts[:, 2], cam.near_z)
    u = cam.fx * pts[:, 0] / z + cam.cx
    v = cam.fy * pts[:, 1] / z + cam.cy
    in_fov = (
        (pts[:, 2] >= cam.near_z)
        & (u >= 0.0)
        & (u < cam.width)
        & (v >= 0.0)
        & (v < cam.height)
    )
    return np.stack([u, v], axis=1), in_fov


def backproject_pixels(cam: CameraModel, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Invert the pinhole model at given metric depths along the optical axis."""
    pix = np.asarray(pixels, dtype=float).reshape(-1, 2)
    d = np.asarray(depths, dtype=float).reshape(-1)
    if np.any(d < cam.near_z):
        raise InvalidDepthError("some depths are in front of the near plane")
    x = (pix[:, 0] - cam.cx) * d / cam.fx
    y = (pix[:, 1] - cam.cy) * d / cam.fy
    return np.stack([x, y, d], axis=1)


@dataclass
class SurfacePointCloud:
    """Sampled object surface: points and their unit outward normals."""

    points: np.ndarray
    normals: np.ndarray
    frame: str = "camera"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if self.normals.shape[0] != self.points.shape[0]:
            raise ValueError("points and normals must have the same length")
        check_unit_normals(self.normals)

    def __len__(self) -> int:
        return self.points.shape[0]


def transform_points(cloud: SurfacePointCloud, t: RigidTransform) -> SurfacePointCloud:
    """Map a cloud into another frame; normals rotate, points rotate and translate."""
    if cloud.frame != t.from_frame:
        raise FrameMismatchError(
            f"cloud is in frame {cloud.frame!r} but transform expects {t.from_frame!r}"
        )
    return SurfacePointCloud(
        cloud.points @ t.rotation.T + t.translation, cloud.normals @ t.rotation.T, t.to_frame
    )


def check_unit_normals(normals: np.ndarray) -> None:
    """Raise ValueError unless every row of a ``(..., 3)`` stack has unit norm within 1e-6."""
    lengths = np.sqrt(np.square(normals) @ np.ones(3))
    if not np.abs(lengths - 1.0).max() <= 1e-6:
        raise ValueError("normals must have unit norm within 1e-6")


def visibility(
    points: np.ndarray, normals: np.ndarray, cam: CameraModel
) -> tuple[np.ndarray, np.ndarray]:
    """Which camera-frame points face the camera and land inside the image,
    and every point's pixel, for stacks ``(..., 3)`` of points and normals.

    Back-face test is strict: n . p < 0.  Returns the mask ``(...)`` and the
    pixels ``(..., 2)`` of ``project_points``.  Each point's result does not
    depend on the others, so a stack of frames gives each frame's own.
    """
    lead = points.shape[:-1]
    flat = points.reshape(-1, 3)
    facing = np.einsum("ij,ij->i", normals.reshape(-1, 3), flat) < 0.0
    pixels, in_fov = project_points(cam, flat)
    return (facing & in_fov).reshape(lead), pixels.reshape(lead + (2,))


def compute_visible_set(cloud: SurfacePointCloud, cam: CameraModel) -> np.ndarray:
    """Indices of points that face the camera and land inside the image
    (see ``visibility``), in the input ordering."""
    return np.nonzero(visibility(cloud.points, cloud.normals, cam)[0])[0]


@dataclass(frozen=True)
class PcaResult:
    """Weighted first and second moments: centroid, eigenvalues (descending),
    and unit eigenvectors stored as matrix columns.  A stack of frames holds
    them along leading axes: ``(..., 3)``, ``(..., 3)`` and ``(..., 3, 3)``."""

    centroid: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def principal_axes(centroid: np.ndarray, cov: np.ndarray) -> PcaResult:
    """Eigen-decompose covariances ``(..., 3, 3)`` about their centroids ``(..., 3)``.

    Eigenvalues come out sorted descending.  Eigenvector signs are fixed by
    making the largest-magnitude component of each column positive (lowest
    index on ties) so repeated runs and independent implementations agree up
    to roundoff.  Raises NumericalError when a covariance is not finite or an
    eigenvalue lies below EIGENVALUE_FLOOR.
    """
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    if not np.all(np.isfinite(cov)):
        raise NumericalError("point covariance is not finite")
    # eigh returns the eigenvalues ascending, so reversing sorts them descending.
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[..., ::-1], evecs[..., ::-1]
    if evals.min() < EIGENVALUE_FLOOR:
        raise NumericalError(f"covariance eigenvalue {float(evals.min())!r} below roundoff floor")
    evals = np.maximum(evals, 0.0)
    lead = np.argmax(np.abs(evecs), axis=-2)
    flip = np.take_along_axis(evecs, lead[..., None, :], axis=-2) < 0.0
    return PcaResult(centroid, evals, np.where(flip, -evecs, evecs))


def weighted_pca(points: np.ndarray, weights: np.ndarray) -> PcaResult:
    """Weighted centroid and principal axes (see ``principal_axes``) of a 3D point set."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != pts.shape[0]:
        raise ValueError("points and weights must have the same length")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateGeometryError("total weight must be positive")
    centroid = (w @ pts) / total
    centered = pts - centroid
    return principal_axes(centroid, (centered * w[:, None]).T @ centered / total)


def segment_pca(points: np.ndarray, counts: np.ndarray) -> PcaResult:
    """Uniform-weight centroid and principal axes of consecutive segments.

    ``points`` ``(M, 3)`` holds the segments one after another and
    ``counts`` (each positive) their lengths; the result is stacked, one
    frame per segment.  Each segment is summed on its own, so a frame's
    moments do not depend on the other segments; they group the additions
    differently from ``weighted_pca`` with unit weights and agree with it to
    rounding.
    """
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    # Component rows (3, M): every sum runs along one contiguous row.
    rows = np.ascontiguousarray(points.T)
    centroid = np.add.reduceat(rows, starts, axis=1) / counts
    centered = rows - np.repeat(centroid, counts, axis=1)
    cov = np.add.reduceat(centered[:, None] * centered[None], starts, axis=2) / counts
    return principal_axes(centroid.T, np.moveaxis(cov, 2, 0))


@dataclass
class SigmaPointSet:
    """``N_POINTS`` ordered points: centroid first, then +/- pairs per principal axis.

    Index 0 is the centroid; indices (2k-1, 2k) are centroid +/- offset along
    axis k in descending-eigenvalue order.
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(N_POINTS, 3)


def place_sigma_points(pca: PcaResult, alpha: float) -> np.ndarray:
    """The 7-point summary mu, mu +/- alpha*sqrt(lambda_k)*e_k of each frame
    of ``pca``, shaped ``(..., 7, 3)``."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    evals = np.asarray(pca.eigenvalues, dtype=float)
    if evals.min() < EIGENVALUE_FLOOR:
        raise NumericalError(f"eigenvalue {float(evals.min())!r} below roundoff floor")
    evals = np.maximum(evals, 0.0)
    centroid = pca.centroid[..., None, :]
    # Row k is the offset along eigenvector column k.
    offsets = (alpha * np.sqrt(evals))[..., :, None] * np.swapaxes(pca.eigenvectors, -1, -2)
    pairs = np.stack([centroid + offsets, centroid - offsets], axis=-2)
    return np.concatenate([centroid, pairs.reshape(pairs.shape[:-3] + (6, 3))], axis=-2)
