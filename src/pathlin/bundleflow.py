"""Flow-built local trivializations.

A carrier field for a pair (p, q) with d(p, q) < r0(p)/2 is the compactly
supported vector field whose value at m is the derivative at t = 0 of
t -> exp_p(m' + t q') (primes are logs at p), faded out by a smooth radial
cutoff between r0(p)/2 and 2 r0(p)/3.  Its time-1 flow phi_{p,q} moves p to
q and is a diffeomorphism, which is what trivializes the evaluation bundle:
curves over p are carried to curves over m by composing with phi_{p,m}.

Mapping-space charts identify curves near a reference curve with tangent
sections through nodewise exp/log, and arc-length normalization selects the
unit-speed representative of an immersed curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import (NonFiniteState, NotImmersed, OutOfInjectivityRange,
                     ValidationError)
from .geometry import (INSIDE, ManifoldModel, Point, Samples, Tangent,
                       chart_groups)
from .numerics import (Grid, lagrange_integral_weights, lagrange_weights,
                       rk4_step)
from .transport import SampledCurve, _coords_in, _velocities

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
    if np.any(mid):
        with np.errstate(under="ignore"):
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
    if d >= 0.5 * r0:
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
    outside the outer cutoff radius."""
    model = spec.model
    oracle = model._require_oracle()
    d = oracle.dist_from(model, spec.p, chart_id, coords)
    out = np.zeros_like(coords)
    near = d < spec.r_out
    if np.any(near):
        m_prime = oracle.log_from(model, spec.p, chart_id, coords[near])
        step = _FD_STEP * spec.q_prime.components
        plus = oracle.exp_from(model, spec.p, m_prime + step, chart_id)
        minus = oracle.exp_from(model, spec.p, m_prime - step, chart_id)
        rho = _bump_many(spec, d[near])
        out[near] = rho[:, None] * (plus - minus) / (2.0 * _FD_STEP)
    return out


def carrier_field(spec: CarrierFieldSpec, m: Point) -> Tangent:
    """Field value at m: exactly zero outside the outer cutoff radius."""
    comps = carrier_field_many(spec, m.chart_id, m.coords[None, :])
    return Tangent(m, comps[0])


def _flow_many(spec: CarrierFieldSpec, charts: list, coords: np.ndarray,
               time: float, steps: int | None):
    """RK4 flow of a batch of points (independent trajectories), grouped by
    chart per stage; charts switch per element at step boundaries."""
    if time == 0.0:
        return charts, coords
    if steps is None:
        steps = max(16, int(math.ceil(FLOW_STEPS_PER_UNIT_TIME * abs(time))))
    model = spec.model
    h = time / steps
    k = coords.shape[0]
    # the field is autonomous: every RK4 stage is evaluated in the chart
    carrier = partial(carrier_field_many, spec)
    groups = chart_groups(charts)
    for _ in range(steps):
        for cid, idx in groups.items():
            coords[idx] = rk4_step(carrier, coords[idx], h, cid, cid, cid)
        if not np.all(np.isfinite(coords)):
            raise NonFiniteState("carrier flow became non-finite")
        switched = False
        for i in range(k):
            if model.chart(charts[i]).domain_test(coords[i]) != INSIDE:
                moved = model.select_chart(Point(charts[i], coords[i]))
                if moved.chart_id != charts[i]:
                    charts[i] = moved.chart_id
                    coords[i] = moved.coords
                    switched = True
        if switched:
            groups = chart_groups(charts)
    return charts, coords


def flow(spec: CarrierFieldSpec, m: Point, time: float,
         steps: int | None = None) -> Point:
    """RK4 flow of the carrier field for a signed time, switching charts when
    the trajectory reaches a margin."""
    charts, coords = _flow_many(spec, [m.chart_id], m.coords[None, :].copy(),
                                time, steps)
    return Point(charts[0], coords[0])


def phi(spec: CarrierFieldSpec, m: Point, steps: int | None = None) -> Point:
    """Time-1 flow; phi(spec, p) lands on q at the default resolution."""
    return flow(spec, m, 1.0, steps)


# ---------------------------------------------------------------------------
# Evaluation-bundle trivialization
# ---------------------------------------------------------------------------

@dataclass
class TrivializationChart:
    """Trivialization machinery over a base point p.

    The carrier cache is keyed by the fiber point and flow resolution; reads
    may be concurrent and population is idempotent, so results are
    deterministic regardless of interleaving.
    """

    model: ManifoldModel
    p: Point
    steps: int = FLOW_STEPS_PER_UNIT_TIME
    _carriers: dict = field(default_factory=dict, repr=False)

    def carrier(self, m: Point) -> CarrierFieldSpec:
        key = (m.chart_id, tuple(m.coords), self.steps)
        spec = self._carriers.get(key)
        if spec is None:
            spec = make_carrier(self.model, self.p, m)
            self._carriers[key] = spec
        return spec


def _flow_curve(spec: CarrierFieldSpec, gamma: SampledCurve, time: float,
                steps: int) -> SampledCurve:
    charts, coords = _flow_many(spec, list(gamma.points.charts),
                                gamma.points.coords.copy(), time, steps)
    return replace(gamma, points=Samples(charts, coords))


def trivialize(chart: TrivializationChart, m: Point,
               gamma: SampledCurve) -> SampledCurve:
    """Carry a curve over p to a curve over m by composing with phi_{p,m}."""
    return _flow_curve(chart.carrier(m), gamma, 1.0, chart.steps)


def untrivialize(chart: TrivializationChart,
                 sigma: SampledCurve) -> tuple[Point, SampledCurve]:
    """Inverse trivialization: read off the fiber point sigma(base) and pull
    the curve back over p with the reversed flow."""
    m = sigma.basepoint
    back = _flow_curve(chart.carrier(m), sigma, -1.0, chart.steps)
    return m, back


# ---------------------------------------------------------------------------
# Mapping-space charts (nodewise exp/log around a reference curve)
# ---------------------------------------------------------------------------

def mapping_chart_in(model: ManifoldModel, gamma_ref: SampledCurve,
                     f: SampledCurve) -> tuple[Tangent, ...]:
    """Section of the tangent bundle along gamma_ref representing f."""
    if f.grid.nodes.size != gamma_ref.grid.nodes.size:
        raise ValidationError("curves must share their grid")
    out = []
    for j, (ref, target) in enumerate(zip(gamma_ref.points, f.points)):
        d = model.dist_oracle(ref, target)
        if d >= model.r0(ref):
            raise OutOfInjectivityRange(
                f"node {j}: d = {d:.6f} exceeds r0 = {model.r0(ref):.6f}",
                node=j)
        out.append(model.log_oracle(ref, target))
    return tuple(out)


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

def arclength_normalize(model: ManifoldModel, gamma: SampledCurve,
                        immersion_floor: float = 1e-6) -> SampledCurve:
    """Reparametrize an immersed curve to unit speed.

    Arc length is measured from the base node; the output is resampled on a
    uniform grid over the curve's total signed length with the same node
    count, so output(0) = gamma(0) and the speed is 1 up to grid error.
    """
    grid = gamma.grid
    n = grid.nodes.size
    pts = gamma.points
    speeds = model.g_norms(pts.charts, pts.coords, _velocities(
        model, grid, [pts.charts], pts.coords[None])[0])
    if speeds.min() <= immersion_floor:
        worst = int(np.argmin(speeds))
        raise NotImmersed(
            f"speed {speeds[worst]:.3e} at node {worst} is below the "
            f"immersion floor {immersion_floor:.3e}", node=worst)

    # cumulative arc length by integrating the windowed cubic speed model
    h = grid.h
    s = np.zeros(n)
    for k in range(n - 1):
        w = int(np.clip(k - 1, 0, n - 4))
        positions = np.arange(4) + (w - k)
        weights = lagrange_integral_weights(positions, 0.0, 1.0)
        s[k + 1] = s[k] + h * float(weights @ speeds[w:w + 4])
    s -= s[gamma.base_index]

    def s_of(k: int, u: float) -> float:
        # cubic Hermite of the arc length on interval k, local u in [0, 1]
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        return (h00 * s[k] + h10 * h * speeds[k]
                + h01 * s[k + 1] + h11 * h * speeds[k + 1])

    def invert(target: float) -> float:
        k = int(np.clip(np.searchsorted(s, target, side="right") - 1, 0, n - 2))
        lo, hi = 0.0, 1.0
        u = 0.5
        for _ in range(60):
            val = s_of(k, u)
            if val < target:
                lo = u
            else:
                hi = u
            du = s_of(k, min(u + 1e-7, 1.0)) - s_of(k, max(u - 1e-7, 0.0))
            slope = du / 2e-7 if du > 0 else 0.0
            if slope > 0:
                step = (target - val) / slope
                u_new = u + step
                if not lo < u_new < hi:
                    u_new = 0.5 * (lo + hi)
            else:
                u_new = 0.5 * (lo + hi)
            if abs(u_new - u) < 1e-15:
                u = u_new
                break
            u = u_new
        return grid.nodes[k] + u * h

    def sample(t: float) -> tuple[str, np.ndarray]:
        j = int(np.clip(np.searchsorted(grid.nodes, t, side="right") - 1,
                        0, n - 2))
        w = int(np.clip(j - 1, 0, n - 4))
        chart = pts.charts[j]
        window = np.stack([_coords_in(model, pts.charts, pts.coords, w + i,
                                      chart) for i in range(4)])
        positions = (grid.nodes[w:w + 4] - grid.nodes[j]) / h
        wts = lagrange_weights(positions, (t - grid.nodes[j]) / h)
        return chart, wts @ window

    new_grid = Grid.regular(float(s[0]), float(s[-1]), n - 1)
    charts, coords = zip(*(sample(invert(u)) for u in new_grid.nodes))
    base = int(np.argmin(np.abs(new_grid.nodes)))
    return SampledCurve(grid=new_grid, points=Samples(charts, coords),
                        order=gamma.order, base_index=base)
