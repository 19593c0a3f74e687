"""Linearization of based maps from the square [-1,1]^2.

The forward map splits a based square map alpha into
  v1(s1)      = transport of d(alpha)/ds1 (s1, 0) along the s1-axis curve,
  v2(s1, s2)  = transport of d(alpha)/ds2 (s1, s2), first along the s2-line
                (fixed s1) to s2 = 0, then along the s1-axis curve to the
                basepoint,
both expressed in a fixed basis at the basepoint.  The transport order is
fixed: the s1-transport is applied after the s2-transport, never averaged.
The axis curve goes through the forward core of linearize.  All s2-lines
then go through one call of the batched transport core, each starting from
the axis frame at its node: because parallel transport is linear, v2's
components in the basepoint basis are the line velocity's components in
the line's transported frame, which one batched solve gives for every
sample.

The inverse first realizes v1 as the axis curve gamma1 with the inverse
core (keeping the transported frame along it), then solves the coupled
position+frame system along the s2-direction for all s1 nodes in one batch.
Because parallel transport is linear, v2's coefficients in the basepoint
basis are also its coefficients in the transported frame at (s1, 0), so the
per-line solves can reuse v2 directly.

A CubeSample stores its samples as 2-D arrays (geometry.Samples), which
both maps read and write directly; a row is the s2-line's 1-D Samples.

n is fixed at 2; the per-line structure is what a higher-n recursion would
iterate, but only the square case is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (Frame, ManifoldModel, Point, Samples,
                       require_independent_columns)
from .linearize import (TangentCurve, _p_forward_detailed, _solve_inverse_batch,
                        p_inverse_detailed)
from .numerics import Grid
from .transport import SampledCurve, _transport_columns, _velocities


@dataclass(frozen=True)
class CubeSample:
    """An (N1+1) x (N2+1) grid of points sampling a map [-1,1]^2 -> M.

    `points`, given as 2-D Samples or as rows of Points, is stored as 2-D
    Samples; points[i][j] is the sample at (grid1.nodes[i], grid2.nodes[j]).
    The basepoint sits at the (s1, s2) = (0, 0) node pair.
    """

    grid1: Grid
    grid2: Grid
    points: Samples

    def __post_init__(self):
        points = Samples.of(self.points, ndim=2)
        if points.coords.shape[:2] != (self.grid1.nodes.size,
                                       self.grid2.nodes.size):
            raise ValidationError(
                "cube needs one row per grid1 node, one sample per grid2 node")
        object.__setattr__(self, "points", points)

    @property
    def base_indices(self) -> tuple[int, int]:
        return self.grid1.base_node(), self.grid2.base_node()

    @property
    def basepoint(self) -> Point:
        i0, j0 = self.base_indices
        return self.points[i0][j0]


@dataclass(frozen=True)
class CubeLinearization:
    """The two tangent-space components of a linearized square map."""

    base: Point
    frame0: Frame
    grid1: Grid
    grid2: Grid
    v1: np.ndarray            # (N1+1, m)
    v2: np.ndarray            # (N1+1, N2+1, m)

    def __post_init__(self):
        n1 = self.grid1.nodes.size
        n2 = self.grid2.nodes.size
        m = self.base.coords.size
        v1 = np.asarray(self.v1, dtype=float)
        v2 = np.asarray(self.v2, dtype=float)
        if v1.shape != (n1, m) or v2.shape != (n1, n2, m):
            raise ValidationError("v1/v2 shapes must match the grids")
        if self.frame0.base.chart_id != self.base.chart_id or \
                not np.allclose(self.frame0.base.coords, self.base.coords,
                                atol=1e-12):
            raise ValidationError("frame0 must be based at the basepoint")
        for name, arr in (("v1", v1), ("v2", v2)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _axis_curve(alpha: CubeSample) -> SampledCurve:
    i0, j0 = alpha.base_indices
    pts = alpha.points
    return SampledCurve(grid=alpha.grid1,
                        points=Samples([row[j0] for row in pts.charts],
                                       pts.coords[:, j0]),
                        order=2, base_index=i0)


def p2_forward(model: ManifoldModel, alpha: CubeSample,
               frame0: Frame | None = None, substeps: int = 2) -> CubeLinearization:
    """Linearize a sampled square map into (v1, v2) at its basepoint."""
    _, j0 = alpha.base_indices
    frame0, v1, (charts, coords, cols, _), _ = _p_forward_detailed(
        model, _axis_curve(alpha), frame0, substeps)

    # Every s2-line starts from the axis frame at its node, re-expressed in
    # the chart its base sample is stored in; v2 is then the line's
    # velocities in its transported frame.
    lines = alpha.points
    starts = [row[j0] for row in lines.charts]
    frames = cols.copy()
    moved = [i for i, c in enumerate(starts) if c != charts[i]]
    if moved:
        frames[moved] = np.stack([
            model.transition_jacobian(Point(charts[i], coords[i]), starts[i])
            for i in moved]) @ cols[moved]
    _, _, line_cols, vel, _ = _transport_columns(
        model, alpha.grid2, lines.charts, lines.coords,
        _velocities(model, alpha.grid2, lines.charts, lines.coords),
        starts, frames, j0, substeps)
    require_independent_columns(line_cols)
    v2 = np.linalg.solve(line_cols, vel[..., None])[..., 0]

    return CubeLinearization(base=frame0.base, frame0=frame0,
                             grid1=alpha.grid1, grid2=alpha.grid2,
                             v1=v1, v2=v2)


def p2_inverse(model: ManifoldModel, lin: CubeLinearization,
               substeps: int = 2) -> CubeSample:
    """Reconstruct the square map: realize v1 as the axis curve, transport
    v2 out along it for free via the solved frame, then solve the
    s2-direction system for every s1 node."""
    v1_curve = TangentCurve(base=lin.base, frame0=lin.frame0, grid=lin.grid1,
                            components=lin.v1)
    charts0, coords0, frames0, _ = p_inverse_detailed(model, v1_curve,
                                                      substeps=substeps)
    charts, coords, _, _ = _solve_inverse_batch(
        model, charts0, coords0, frames0, lin.grid2,
        np.asarray(lin.v2), substeps=substeps)
    return CubeSample(grid1=lin.grid1, grid2=lin.grid2,
                      points=Samples(charts, coords))
