"""The four benchmark workloads: seeded inputs, one op each, per-op checks.

A workload builds a pool of inputs from the seed during set-up.  The
harness runs ops round-robin over the pool; an op calls the public pathlin
API and returns its outputs, and `check` verifies them afterwards, outside
the op's timed interval.  Ops look functions up through their modules at
call time, so the tracer's wrappers (and test perturbations) take effect.

Tolerances are the ones the acceptance suite pins for the same quantities.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pathlin import cli, cubemaps, fileio, linearize, models
from pathlin.geometry import Point, Tangent
from pathlin.numerics import Grid

MODELS = ("euclidean2", "hyperbolic2", "sphere2", "torus2")

ROUNDTRIP_TOL = 1e-5         # criterion 1, pointwise and component roundtrip
CUBE_TOL = 1e-4              # criterion 8
UNIT_SPEED_TOL = 1e-4        # criterion 11
TRIVIALIZE_TOL = 1e-5        # criterion 9

# Stereographic radius where a sphere chart's margin band starts, as the
# polar angle from that chart's pole: r = tan(theta / 2) = 2.
_SPHERE_MARGIN_ANGLE = 2.0 * math.atan(2.0)
# A torus chart is INSIDE while each coordinate stays within 3*pi/4 of the
# chart center.
_TORUS_MARGIN_OFFSET = 0.75 * math.pi


@dataclass
class Item:
    """One pooled input.  `stratum` (the model name) groups ops of similar
    cost for the latency statistics."""

    stratum: str
    nodes: int
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of a per-op check."""

    ok: bool
    error_to_tol: float
    switched: bool
    problem: str = ""


def _bernstein_cubic(coeffs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Cubic Bernstein polynomial with (4, m) coefficients over the span of
    the nodes, evaluated at every node."""
    u = (nodes - nodes[0]) / (nodes[-1] - nodes[0])
    basis = np.stack([(1 - u) ** 3, 3 * u * (1 - u) ** 2,
                      3 * u * u * (1 - u), u ** 3], axis=1)
    return basis @ coeffs


def _random_chart(model, rng) -> str:
    ids = sorted(model.charts)
    return ids[int(rng.integers(len(ids)))]


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _point_distances(model, points_a, points_b) -> float:
    return max(model.point_distance(a, b) for a, b in zip(points_a, points_b))


def _charts_of(points) -> set:
    return {p.chart_id for p in points}


class Workload:
    """Interface of a workload; `cleanup` runs after every op's check."""

    name = ""

    def build(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> Outcome:
        raise NotImplementedError

    def cleanup(self, item: Item) -> None:
        pass


# ---------------------------------------------------------------------------
# curves / switching: the p_inverse + p_forward roundtrip
# ---------------------------------------------------------------------------

class _Roundtrip(Workload):
    """Shared op and check of `curves` and `switching`: realize a tangent
    curve with p_inverse, linearize the result back with p_forward."""

    def op(self, item: Item):
        model = models.get_model(item.stratum)
        v = item.data["tangent"]
        curve = linearize.p_inverse(model, v)
        report = linearize.p_forward(model, curve, v.frame0)
        return curve, report

    def check(self, item: Item, out) -> Outcome:
        model = models.get_model(item.stratum)
        v = item.data["tangent"]
        curve, report = out
        comp_err = _max_abs(report.tangent_curve.components, v.components)
        # pointwise half of the roundtrip: the returned components must
        # realize the curve the op produced (criterion 1's comparison)
        again = linearize.p_inverse(model, report.tangent_curve)
        dist_err = _point_distances(model, curve.points, again.points)
        switched = bool(report.switch_log) or len(_charts_of(curve.points)) > 1
        worst = max(comp_err, dist_err) / ROUNDTRIP_TOL
        if worst >= 1.0:
            return Outcome(False, worst, switched,
                           f"roundtrip error {worst * ROUNDTRIP_TOL:.3e}")
        if item.data["must_switch"] and not switched:
            return Outcome(False, worst, switched,
                           "curve crosses a chart margin but no chart switch "
                           "was recorded")
        return Outcome(True, worst, switched)


class Curves(_Roundtrip):
    """Seeded cubic tangent curves at N = 400 over all four models, on
    one-sided and two-sided grids, that never reach a chart margin."""

    name = "curves"

    def __init__(self, n: int = 400, repeats: int = 2):
        self.n = n
        self.repeats = repeats

    def build(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 1])
        grids = (Grid.regular(0.0, 1.0, self.n),
                 Grid.regular(-1.0, 1.0, self.n))
        pool = []
        for _ in range(self.repeats):
            for grid in grids:
                for name in MODELS:
                    model = models.get_model(name)
                    chart = _random_chart(model, rng)
                    lo, hi = model.charts[chart].sample_box
                    if name == "sphere2":
                        # |x| <= 0.92 is 0.72 rad of geodesic distance from
                        # the margin; |v| <= 0.45 * sqrt(2) per unit time
                        lo, hi = np.full(2, -0.65), np.full(2, 0.65)
                    base = Point(chart, rng.uniform(lo, hi))
                    frame0 = model.orthonormal_frame(base)
                    coeffs = rng.uniform(-0.45, 0.45, size=(4, model.dim))
                    comps = _bernstein_cubic(coeffs, grid.nodes)
                    v = linearize.TangentCurve(base, frame0, grid, comps)
                    pool.append(Item(name, grid.nodes.size,
                                     {"tangent": v, "must_switch": False}))
        return pool


class Switching(_Roundtrip):
    """Long two-sided curves (2 to 3 rad) on sphere2 and torus2, each built to
    cross a chart margin: the forward half runs 0.25 to 0.45 rad past it."""

    name = "switching"

    def __init__(self, n: int = 800, per_model: int = 4):
        self.n = n
        self.per_model = per_model

    def build(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 2])
        grid = Grid.regular(-1.0, 1.0, self.n)
        pool = []
        for _ in range(self.per_model):
            for name in ("sphere2", "torus2"):
                model = models.get_model(name)
                speed = rng.uniform(1.0, 1.5)
                to_margin = speed - rng.uniform(0.25, 0.45)
                if name == "sphere2":
                    base, direction = self._sphere_start(model, rng, to_margin)
                else:
                    base, direction = self._torus_start(model, rng, to_margin)
                frame0 = model.orthonormal_frame(base)
                # in the orthonormal frame of a conformal or flat metric the
                # components point along the coordinate direction
                ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
                t = grid.nodes
                wiggle = 0.04 * speed * np.stack(
                    [np.sin(2.0 * t + ph[0]), np.cos(3.0 * t + ph[1])], axis=1)
                comps = speed * direction[None, :] + wiggle
                v = linearize.TangentCurve(base, frame0, grid, comps)
                pool.append(Item(name, grid.nodes.size,
                                 {"tangent": v, "must_switch": True}))
        return pool

    @staticmethod
    def _sphere_start(model, rng, to_margin):
        """Base point at geodesic distance `to_margin` from its chart's margin,
        heading away from the chart's pole (tilted by at most 0.15 rad)."""
        chart = _random_chart(model, rng)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        radius = math.tan(0.5 * (_SPHERE_MARGIN_ANGLE - to_margin))
        outward = np.array([math.cos(azimuth), math.sin(azimuth)])
        tilt = rng.uniform(-0.15, 0.15)
        c, s = math.cos(tilt), math.sin(tilt)
        direction = np.array([[c, -s], [s, c]]) @ outward
        return Point(chart, radius * outward), direction

    @staticmethod
    def _torus_start(model, rng, to_margin):
        """Base point `to_margin` short of the chart's margin along a random
        direction (the torus is flat, so the curve runs straight)."""
        chart = _random_chart(model, rng)
        center = model.charts[chart].center
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        reach = _TORUS_MARGIN_OFFSET / float(np.max(np.abs(direction)))
        return Point(chart, center + (reach - to_margin) * direction), direction


# ---------------------------------------------------------------------------
# squares: p2_inverse + p2_forward
# ---------------------------------------------------------------------------

# Half-widths of the box around the chart center that holds the squares
# basepoint.  With |v1| <= 0.71 and |v2| <= 0.85 a sample lies at most
# 1.56 from the basepoint, so no sample reaches a chart margin: on the
# sphere |x| <= 0.29 is 1.66 rad from it, on the torus the margin is
# 3*pi/4 - 0.5 = 1.86 away.  Chart switching is the `switching` workload's.
_SQUARES_BASE_BOX = {"euclidean2": 3.0, "hyperbolic2": 0.55,
                     "sphere2": 0.2, "torus2": 0.5}


class Squares(Workload):
    """Seeded affine (v1, v2) at 100 x 100 on each model (criterion 8's
    construction at a quarter of its resolution)."""

    name = "squares"

    def __init__(self, n: int = 100, per_model: int = 2):
        self.n = n
        self.per_model = per_model

    def build(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 3])
        grid1 = Grid.regular(-1.0, 1.0, self.n)
        grid2 = Grid.regular(-1.0, 1.0, self.n)
        pool = []
        for name in MODELS * self.per_model:
            model = models.get_model(name)
            chart = _random_chart(model, rng)
            center = model.charts[chart].center
            base = Point(chart, center + rng.uniform(-1.0, 1.0, size=2)
                         * _SQUARES_BASE_BOX[name])
            frame0 = model.orthonormal_frame(base)
            a = rng.uniform(-0.25, 0.25, size=(2, model.dim))
            b = rng.uniform(-0.2, 0.2, size=(3, model.dim))
            v1 = a[0][None, :] + a[1][None, :] * grid1.nodes[:, None]
            v2 = (b[0][None, None, :]
                  + b[1][None, None, :] * grid1.nodes[:, None, None]
                  + b[2][None, None, :] * grid2.nodes[None, :, None])
            lin = cubemaps.CubeLinearization(base, frame0, grid1, grid2, v1, v2)
            pool.append(Item(name, grid1.nodes.size * grid2.nodes.size,
                             {"lin": lin}))
        return pool

    def op(self, item: Item):
        model = models.get_model(item.stratum)
        lin = item.data["lin"]
        alpha = cubemaps.p2_inverse(model, lin)
        return alpha, cubemaps.p2_forward(model, alpha, lin.frame0)

    def check(self, item: Item, out) -> Outcome:
        lin = item.data["lin"]
        alpha, back = out
        err = max(_max_abs(back.v1, lin.v1), _max_abs(back.v2, lin.v2))
        switched = len({p.chart_id for row in alpha.points for p in row}) > 1
        worst = err / CUBE_TOL
        if worst >= 1.0:
            return Outcome(False, worst, switched,
                           f"cube roundtrip error {err:.3e}")
        return Outcome(True, worst, switched)


# ---------------------------------------------------------------------------
# files: one curve file through seven CLI commands
# ---------------------------------------------------------------------------

def _point_arg(point: Point) -> str:
    x, y = (float(c) for c in point.coords)
    return f"{point.chart_id}:{x!r},{y!r}"


def _read_points(path: Path) -> list[Point]:
    payload = json.loads(path.read_text())
    return [Point(s["chart"], np.asarray(s["coords"], dtype=float))
            for s in payload["samples"]]


class Files(Workload):
    """Pre-written N = 200 curve files, two per model, sent through the CLI
    in process: linearize, synthesize, roundtrip, normalize, polyfit,
    trivialize and trivialize --inverse, each with --report."""

    name = "files"

    def __init__(self, workdir: Path, n: int = 200, per_model: int = 2):
        self.workdir = Path(workdir)
        self.n = n
        self.per_model = per_model

    def build(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 4])
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        grid = Grid.regular(0.0, 1.0, self.n)
        pool = []
        for k, name in enumerate(MODELS * self.per_model):
            model = models.get_model(name)
            chart = _random_chart(model, rng)
            lo, hi = model.charts[chart].sample_box
            base = Point(chart, rng.uniform(lo, hi))
            frame0 = model.orthonormal_frame(base)
            ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
            # criterion 11's immersed curve: speed stays within [0.45, 0.95]
            comps = np.stack([0.7 + 0.15 * np.sin(3.0 * grid.nodes + ph[0]),
                              0.2 * np.cos(2.0 * grid.nodes + ph[1])], axis=1)
            curve = linearize.p_inverse(
                model, linearize.TangentCurve(base, frame0, grid, comps))
            path = self.workdir / f"{k}_curve.json"
            fileio.dump_json(fileio.curve_to_json(model, curve), path)
            step = rng.normal(size=model.dim)
            step *= 0.3 / model.g_norm(Tangent(base, step))
            fiber = model.exp_oracle(base, Tangent(base, step))
            pool.append(Item(name, grid.nodes.size, {
                "prefix": str(self.workdir / f"{k}_"),
                "points": curve.points,
                "base": _point_arg(base),
                "fiber": _point_arg(fiber),
            }))
        return pool

    @staticmethod
    def commands(item: Item) -> list[list[str]]:
        p = item.data["prefix"]
        return [
            ["linearize", p + "curve.json", "-o", p + "tangent.json",
             "--report", p + "r_linearize.json"],
            ["synthesize", p + "tangent.json", "-o", p + "synth.json",
             "--report", p + "r_synthesize.json"],
            ["roundtrip", p + "curve.json", "--report", p + "r_roundtrip.json"],
            ["normalize", p + "curve.json", "-o", p + "unit.json",
             "--report", p + "r_normalize.json"],
            ["polyfit", p + "curve.json", "--degree", "4",
             "--report", p + "r_polyfit.json"],
            ["trivialize", p + "curve.json", "--fiber", item.data["fiber"],
             "-o", p + "sigma.json", "--report", p + "r_trivialize.json"],
            ["trivialize", p + "sigma.json", "--inverse",
             "--base", item.data["base"], "-o", p + "back.json",
             "--report", p + "r_untrivialize.json"],
        ]

    def op(self, item: Item):
        codes = []
        sink = io.StringIO()
        for argv in self.commands(item):
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    codes.append(cli.run(argv))
            except SystemExit as exc:      # argparse rejects its arguments
                codes.append(exc.code)
            if codes[-1] != 0:
                break
        return codes

    def check(self, item: Item, codes) -> Outcome:
        model = models.get_model(item.stratum)
        p = item.data["prefix"]
        reports = {}
        if len(codes) < len(self.commands(item)):
            return Outcome(False, math.inf, False,
                           f"command {len(codes)} exited with {codes[-1]}")
        for argv, code in zip(self.commands(item), codes):
            report_path = argv[argv.index("--report") + 1]
            if code != 0:
                return Outcome(False, math.inf, False,
                               f"{argv[0]} exited with {code}")
            reports[report_path] = json.loads(Path(report_path).read_text())
        for path, report in reports.items():
            failed = [k for k, ok in report["passes"].items() if not ok]
            if failed:
                return Outcome(False, math.inf, False,
                               f"{Path(path).name}: {', '.join(failed)} failed")
        original = item.data["points"]
        synth_err = _point_distances(model, original,
                                     _read_points(Path(p + "synth.json")))
        triv_err = _point_distances(model, original,
                                    _read_points(Path(p + "back.json")))
        metrics_rt = reports[p + "r_roundtrip.json"]["metrics"]
        metrics_norm = reports[p + "r_normalize.json"]["metrics"]
        worst = max(synth_err / ROUNDTRIP_TOL,
                    metrics_rt["max_distance"] / ROUNDTRIP_TOL,
                    metrics_norm["unit_speed_deviation"] / UNIT_SPEED_TOL,
                    triv_err / TRIVIALIZE_TOL)
        # the flows of trivialize can move samples to another chart too
        charts = _charts_of(original).union(*(
            _charts_of(_read_points(Path(p + name)))
            for name in ("synth.json", "unit.json", "sigma.json", "back.json")))
        switched = bool(reports[p + "r_linearize.json"]["switch_log"]) or \
            len(charts) > 1
        if worst >= 1.0:
            return Outcome(False, worst, switched,
                           f"error {worst:.3f} x its tolerance")
        return Outcome(True, worst, switched)

    def cleanup(self, item: Item) -> None:
        """Remove the op's outputs, so that a command which exits 0 without
        writing cannot pass on a file left by an earlier op."""
        for argv in self.commands(item):
            for flag in ("-o", "--report"):
                if flag in argv:
                    Path(argv[argv.index(flag) + 1]).unlink(missing_ok=True)


def make(name: str, workdir: Path) -> Workload:
    """The workload called `name` at its benchmark sizes."""
    if name == "files":
        return Files(workdir)
    return {"curves": Curves, "switching": Switching,
            "squares": Squares}[name]()
