"""Linearization of based maps from the square [-1,1]^2.

The forward map splits a based square map alpha into
  v1(s1)      = transport of d(alpha)/ds1 (s1, 0) along the s1-axis curve,
  v2(s1, s2)  = transport of d(alpha)/ds2 (s1, s2), first along the s2-line
                (fixed s1) to s2 = 0, then along the s1-axis curve to the
                basepoint,
both expressed in a fixed basis at the basepoint.  The transport order is
fixed: the s1-transport is applied after the s2-transport, never averaged.
The axis curve and each s2-line go through the forward core of linearize.

The inverse first realizes v1 as the axis curve gamma1 with the inverse
core (keeping the transported frame along it), then solves the coupled
position+frame system along the s2-direction for all s1 nodes in one batch.
Because parallel transport is linear, v2's coefficients in the basepoint
basis are also its coefficients in the transported frame at (s1, 0), so the
per-line solves can reuse v2 directly.

n is fixed at 2; the per-line structure is what a higher-n recursion would
iterate, but only the square case is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Frame, ManifoldModel, Point
from .linearize import (TangentCurve, _p_forward_detailed, _solve_inverse_batch,
                        p_inverse_detailed)
from .numerics import Grid
from .transport import SampledCurve


@dataclass(frozen=True)
class CubeSample:
    """An (N1+1) x (N2+1) grid of points sampling a map [-1,1]^2 -> M.

    points[i][j] is the sample at (grid1.nodes[i], grid2.nodes[j]); the
    basepoint sits at the (s1, s2) = (0, 0) node pair.
    """

    grid1: Grid
    grid2: Grid
    points: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.points)
        if len(rows) != self.grid1.nodes.size:
            raise ValidationError("cube needs one row per grid1 node")
        if any(len(row) != self.grid2.nodes.size for row in rows):
            raise ValidationError("cube rows must match grid2 length")
        object.__setattr__(self, "points", rows)

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
    return SampledCurve(grid=alpha.grid1,
                        points=tuple(row[j0] for row in alpha.points),
                        order=2, base_index=i0)


def p2_forward(model: ManifoldModel, alpha: CubeSample,
               frame0: Frame | None = None, substeps: int = 2) -> CubeLinearization:
    """Linearize a sampled square map into (v1, v2) at its basepoint."""
    _, j0 = alpha.base_indices
    frame0, v1, (charts, _, cols, _), _ = _p_forward_detailed(
        model, _axis_curve(alpha), frame0, substeps)

    n1 = alpha.grid1.nodes.size
    n2 = alpha.grid2.nodes.size
    v2 = np.empty((n1, n2, model.dim))
    for i in range(n1):
        line = SampledCurve(grid=alpha.grid2, points=alpha.points[i],
                            order=2, base_index=j0)
        line_frame, comps, _, _ = _p_forward_detailed(model, line, None,
                                                      substeps)
        w = comps @ line_frame.columns.T      # vectors at alpha(s1, 0)
        if line.basepoint.chart_id != charts[i]:
            jac = model.transition_jacobian(line.basepoint, charts[i])
            w = w @ jac.T
        v2[i] = np.linalg.solve(cols[i], w.T).T

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
    rows = tuple(
        tuple(Point(charts[i][j], coords[i, j])
              for j in range(lin.grid2.nodes.size))
        for i in range(lin.grid1.nodes.size))
    return CubeSample(grid1=lin.grid1, grid2=lin.grid2, points=rows)
