"""Flow-built local trivializations.

A carrier field for a pair (p, q) with d(p, q) < r0(p)/2 is the compactly
supported vector field whose value at m is the derivative at t = 0 of
t -> exp_p(m' + t q') (primes are logs at p), faded out by a smooth radial
cutoff between r0(p)/2 and 2 r0(p)/3.  Its time-1 flow phi_{p,q} moves p to
q and is a diffeomorphism, which is what trivializes the evaluation bundle:
curves over p are carried to curves over m by composing with phi_{p,m}.
In normal coordinates y = log_p(m) the field is rho(|y|_{g_p}) q', a
constant vector faded by the radial bump (the flow of Milnor's homogeneity
lemma), so the flow runs there: one log_from pass in and one exp_from pass
out, with no oracle call inside the time loop.

Mapping-space charts identify curves near a reference curve with tangent
sections through nodewise exp/log, and arc-length normalization selects the
unit-speed representative of an immersed curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (NonFiniteState, NotImmersed, OutOfInjectivityRange,
                     ValidationError)
from .geometry import ManifoldModel, Point, Samples, Tangent, chart_groups
from .numerics import (Grid, lagrange_integral_weights, lagrange_weights,
                       rk4_step)
from .transport import (SampledCurve, _coords_in, _foreign_entries,
                        curve_speeds)

FLOW_STEPS_PER_UNIT_TIME = 64


# ---------------------------------------------------------------------------
# Carrier field and its flow
# ---------------------------------------------------------------------------

def smooth_step(x):
    """The standard smooth 0-to-1 step built from exp(-1/x), elementwise:
    0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):     # rarely: most flow points are inside r_in, x >= 1
        # at x = 5e-324, -1 / x overflows to -inf, whose exp is the exact 0
        with np.errstate(under="ignore", over="ignore"):
            a = np.exp(-1.0 / x[mid])
            b = np.exp(-1.0 / (1.0 - x[mid]))
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class CarrierFieldSpec:
    """A (p, q) pair with its cutoff radii and the cached log of q at p."""

    model: ManifoldModel
    p: Point
    q: Point
    r_in: float
    r_out: float
    q_prime: Tangent


def make_carrier(model: ManifoldModel, p: Point, q: Point) -> CarrierFieldSpec:
    """Carrier data for the pair (p, q); requires d(p, q) < r0(p) / 2."""
    r0 = model.r0(p)
    d = model.dist_oracle(p, q)
    if not d < 0.5 * r0:    # a NaN distance fails too
        raise OutOfInjectivityRange(
            f"d(p, q) = {d:.6f} must stay below r0/2 = {0.5 * r0:.6f}")
    return CarrierFieldSpec(model=model, p=p, q=q,
                            r_in=0.5 * r0, r_out=2.0 * r0 / 3.0,
                            q_prime=model.log_oracle(p, q))


_FD_STEP = 1e-5


def _bump_many(spec: CarrierFieldSpec, d: np.ndarray) -> np.ndarray:
    return smooth_step((spec.r_out - d) / (spec.r_out - spec.r_in))


def carrier_field_many(spec: CarrierFieldSpec, chart_id: str,
                       coords: np.ndarray) -> np.ndarray:
    """Field components at a batch of points in one chart; exactly zero
    outside the outer cutoff radius: one log_from pass, then one exp_from
    call on a (2, K, m) stack, which rounds as two (K, m) calls do."""
    model = spec.model
    oracle = model._require_oracle()
    d, m_prime = oracle.log_from(model, spec.p, chart_id, coords)
    step = _FD_STEP * spec.q_prime.components
    plus, minus = oracle.exp_from(
        model, spec.p, np.stack((m_prime + step, m_prime - step)), chart_id)
    rho = _bump_many(spec, d)
    return np.where((d < spec.r_out)[:, None],
                    rho[:, None] * (plus - minus) / (2.0 * _FD_STEP), 0.0)


def carrier_field(spec: CarrierFieldSpec, m: Point) -> Tangent:
    """Field value at m: exactly zero outside the outer cutoff radius."""
    comps = carrier_field_many(spec, m.chart_id, m.coords[None, :])
    return Tangent(m, comps[0])


def _flow_many(spec: CarrierFieldSpec, charts: list, coords: np.ndarray,
               time: float):
    """RK4 flow of a batch of points (independent trajectories) in
    max(16, ceil(64 |time|)) steps, run in normal coordinates y = log_p(m),
    where the carrier field is rho(|y|_{g_p}) q': one log_from pass per
    chart on the way in, RK4 on the points inside r_out, one exp_from pass
    per chart back into each point's start chart.  A point beyond r_out, or
    whose y does not move, keeps its chart and coordinates bit for bit; the
    moved points that end off their chart's interior go through
    select_chart one by one, in order."""
    if time == 0.0:
        return charts, coords
    steps = max(16, int(math.ceil(FLOW_STEPS_PER_UNIT_TIME * abs(time))))
    h = time / steps
    model, p = spec.model, spec.p
    oracle = model._require_oracle()
    groups = chart_groups(charts)
    d = np.empty(len(coords))
    y0 = np.empty_like(coords)
    for cid, idx in groups.items():
        d[idx], y0[idx] = oracle.log_from(model, p, cid, coords[idx])
    near = d < spec.r_out
    g = model.metric(p.chart_id, p.coords)
    q_prime = spec.q_prime.components

    def carrier(_, y):
        rho = _bump_many(spec, np.sqrt(np.vecdot(y @ g, y)))
        return rho[:, None] * q_prime

    y = y0[near]
    for _ in range(steps):
        y = rk4_step(carrier, y, h, None, None, None)
    y1 = y0.copy()
    y1[near] = y
    moved = np.any(y1 != y0, axis=1)
    groups = {cid: idx[moved[idx]] for cid, idx in groups.items()}
    for cid, idx in groups.items():
        coords[idx] = oracle.exp_from(model, p, y1[idx], cid)
    if not np.all(np.isfinite(coords)):
        raise NonFiniteState("carrier flow became non-finite")
    for i in model.off_interior(groups, coords):
        to = model.select_chart(Point(charts[i], coords[i]))
        charts[i], coords[i] = to.chart_id, to.coords
    return charts, coords


def flow_points(spec: CarrierFieldSpec, points, time: float) -> list[Point]:
    """RK4 flow of the carrier field for a signed time, of points in one
    batch, in normal coordinates at p (see _flow_many); a point that ends
    off its start chart's interior moves to the chart select_chart picks."""
    if not points:
        return []
    charts, coords = _flow_many(spec, [m.chart_id for m in points],
                                np.stack([m.coords for m in points]), time)
    return list(map(Point, charts, coords))


def flow(spec: CarrierFieldSpec, m: Point, time: float) -> Point:
    """flow_points for a single point."""
    return flow_points(spec, [m], time)[0]


def phi(spec: CarrierFieldSpec, m: Point) -> Point:
    """Time-1 flow; phi(spec, p) lands on q."""
    return flow(spec, m, 1.0)


# ---------------------------------------------------------------------------
# Evaluation-bundle trivialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivializationChart:
    """Trivialization machinery over a base point p."""

    model: ManifoldModel
    p: Point


def _flow_curve(spec: CarrierFieldSpec, gamma: SampledCurve,
                time: float) -> SampledCurve:
    charts, coords = _flow_many(spec, list(gamma.points.charts),
                                gamma.points.coords.copy(), time)
    return replace(gamma, points=Samples(charts, coords))


def trivialize(chart: TrivializationChart, m: Point,
               gamma: SampledCurve) -> SampledCurve:
    """Carry a curve over p to a curve over m by composing with phi_{p,m}."""
    return _flow_curve(make_carrier(chart.model, chart.p, m), gamma, 1.0)


def untrivialize(chart: TrivializationChart,
                 sigma: SampledCurve) -> tuple[Point, SampledCurve]:
    """Inverse trivialization: read off the fiber point sigma(base) and pull
    the curve back over p with the reversed flow."""
    m = sigma.basepoint
    back = _flow_curve(make_carrier(chart.model, chart.p, m), sigma, -1.0)
    return m, back


# ---------------------------------------------------------------------------
# Mapping-space charts (nodewise exp/log around a reference curve)
# ---------------------------------------------------------------------------

def mapping_chart_in(model: ManifoldModel, gamma_ref: SampledCurve,
                     f: SampledCurve) -> tuple[Tangent, ...]:
    """Section of the tangent bundle along gamma_ref representing f."""
    if f.grid.nodes.size != gamma_ref.grid.nodes.size:
        raise ValidationError("curves must share their grid")
    model._require_oracle()
    dists = model.point_distances(gamma_ref.points, f.points)
    far = np.flatnonzero(~(dists < model.r0())).tolist()
    if far:
        j = far[0]
        raise OutOfInjectivityRange(
            f"node {j}: d = {dists[j]:.6f} exceeds r0 = {model.r0():.6f}",
            node=j)
    return tuple(map(model.log_oracle, gamma_ref.points, f.points))


def mapping_chart_out(model: ManifoldModel, gamma_ref: SampledCurve,
                      section) -> SampledCurve:
    """Curve represented by a tangent section along gamma_ref."""
    section = tuple(section)
    if len(section) != gamma_ref.grid.nodes.size:
        raise ValidationError("section needs one tangent per node")
    points = tuple(model.exp_oracle(ref, vec)
                   for ref, vec in zip(gamma_ref.points, section))
    return SampledCurve(grid=gamma_ref.grid, points=points,
                        order=gamma_ref.order, base_index=gamma_ref.base_index)


# ---------------------------------------------------------------------------
# Arc-length normalization (unit-speed representative)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _interval_integral_rows() -> np.ndarray:
    """(3, 4) read-only weights that integrate, over one grid interval in
    units of h, the cubic through a 4-node window; row r is for a window
    starting r nodes left of the interval's left node."""
    rows = np.stack([lagrange_integral_weights(np.arange(4) - r, 0.0, 1.0)
                     for r in range(3)])
    rows.flags.writeable = False
    return rows


def _window_starts(k: np.ndarray, n: int) -> np.ndarray:
    """First node of the 4-node window of each interval k of an n-node grid."""
    return np.clip(k - 1, 0, n - 4)


def _hermite(s, ds, h, k, u):
    """Cubic Hermite values at local u in [0, 1] of intervals k of width h,
    from the node values s and the node slopes ds."""
    a = 1 - u
    return ((1 + 2 * u) * (a * a) * s[k] + u * (a * a) * h * ds[k]
            + u * u * (3 - 2 * u) * s[k + 1] + u * u * (u - 1) * h * ds[k + 1])


def _invert_arclength(s, ds, h, targets):
    """Interval and local u in [0, 1] where the piecewise Hermite arc length
    reaches each target: bracketed Newton with a central-difference slope,
    each target frozen once its update falls below 1e-15 (at most 60
    iterations)."""
    k = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, s.size - 2)
    u = np.full(targets.size, 0.5)
    lo = np.zeros(targets.size)
    hi = np.ones(targets.size)
    live = np.arange(targets.size)
    for _ in range(60):
        kl, ul, tl = k[live], u[live], targets[live]
        val = _hermite(s, ds, h, kl, ul)
        below = val < tl
        lo[live] = np.where(below, ul, lo[live])
        hi[live] = np.where(below, hi[live], ul)
        du = (_hermite(s, ds, h, kl, np.minimum(ul + 1e-7, 1.0))
              - _hermite(s, ds, h, kl, np.maximum(ul - 1e-7, 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ul + (tl - val) / (du / 2e-7)
        u_new = np.where((du > 0) & (lo[live] < newton) & (newton < hi[live]),
                         newton, 0.5 * (lo[live] + hi[live]))
        u[live] = u_new
        live = live[~(np.abs(u_new - ul) < 1e-15)]
        if live.size == 0:
            break
    return k, u


def arclength_normalize(model: ManifoldModel, gamma: SampledCurve,
                        immersion_floor: float = 1e-6) -> SampledCurve:
    """Reparametrize an immersed curve to unit speed.

    Arc length is measured from the base node; the output is resampled on a
    uniform grid over the curve's total signed length with the same node
    count, so output(0) = gamma(0) and the speed is 1 up to grid error.

    All nodes are handled at once: the cumulative arc length integrates the
    windowed cubic speed model with three cached weight rows, one bracketed
    Newton over all targets inverts its cubic Hermite interpolant, and the
    curve is resampled by windowed cubic Lagrange interpolation in the chart
    of each target's interval, re-expressing only the window entries stored
    in another chart.
    """
    grid = gamma.grid
    n = grid.nodes.size
    pts = gamma.points
    speeds = curve_speeds(model, gamma)
    if not np.all(np.isfinite(speeds)):
        raise NonFiniteState(
            f"speed at node {int(np.argmin(np.isfinite(speeds)))} is not "
            "finite")
    if speeds.min() <= immersion_floor:
        worst = int(np.argmin(speeds))
        raise NotImmersed(
            f"speed {speeds[worst]:.3e} at node {worst} is below the "
            f"immersion floor {immersion_floor:.3e}", node=worst)

    # cumulative arc length by integrating the windowed cubic speed model
    h = grid.h
    k = np.arange(n - 1)
    w = _window_starts(k, n)
    window = np.arange(4)
    rows = _interval_integral_rows()[k - w]
    per_interval = (rows[:, None, :] @ speeds[w[:, None] + window][:, :, None])
    s = np.concatenate(([0.0], np.cumsum(h * per_interval[:, 0, 0])))
    s -= s[gamma.base_index]

    new_grid = Grid.regular(float(s[0]), float(s[-1]), n - 1)
    k, u = _invert_arclength(s, speeds, h, new_grid.nodes)
    t = grid.nodes[k] + u * h

    # resample in the chart of each target's grid interval
    j = np.clip(np.searchsorted(grid.nodes, t, side="right") - 1, 0, n - 2)
    index = _window_starts(j, n)[:, None] + window
    charts = np.asarray(pts.charts)[j].tolist()
    windows = pts.coords[index]
    for r, i in _foreign_entries(pts.charts, charts, index):
        windows[r, i] = _coords_in(model, pts.charts, pts.coords, index[r, i],
                                   charts[r])
    wts = lagrange_weights((grid.nodes[index] - grid.nodes[j][:, None]) / h,
                           (t - grid.nodes[j]) / h)
    coords = (wts[:, None, :] @ windows)[:, 0]
    base = int(np.argmin(np.abs(new_grid.nodes)))
    return SampledCurve(grid=new_grid, points=Samples(charts, coords),
                        order=gamma.order, base_index=base)
