"""Command-line front end: matrix inspection, flow runs, CSV and SVG emission.

Exit codes: 0 success, 2 argument error, 3 input parse error, 4 numeric
range error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import circulant, spectral_flow, svg, yau_flow
from .integrate import (
    DivergenceError,
    IntegratorConfig,
    PolyharmonicKind,
    YauKind,
    integrate as run_rk4,
)
from .polygon import (
    Polygon,
    PolygonFormatError,
    energy,
    format_float,
    load_polygon,
    polygon_doc,
)


class CliArgumentError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


T0, RATIO, COUNT = 0.05, 1.6, 8  # the default schedule of flow and yau


def geometric_schedule(t0=T0, ratio=RATIO, count=COUNT) -> tuple[float, ...]:
    """The sample times ``t0 * ratio**j`` for j = 0..count-1."""
    return tuple(t0 * ratio**j for j in range(count))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflow",
        description="Semi-discrete polyharmonic and Yau difference flows on closed polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser(
        "matrix",
        help="print the difference-matrix power, flow matrix, and eigenvalues",
        description="Prints three lines: the first row of M^m, the first row "
        "of the flow matrix (-1)^(m+1) M^m, and the flow eigenvalues.",
    )
    p_matrix.add_argument("--n", type=_positive_int, required=True, help="vertex count")
    p_matrix.add_argument("--m", type=_positive_int, required=True, help="flow order")

    def add_schedule(p):
        p.add_argument("--times", help="comma-separated strictly increasing times")
        p.add_argument("--t0", type=_positive_float, default=T0, help="first geometric time")
        p.add_argument("--ratio", type=_positive_float, default=RATIO, help="geometric ratio > 1")
        p.add_argument("--count", type=_positive_int, default=COUNT, help="number of samples")

    def add_render(p):
        p.add_argument("--csv", dest="csv_path", help="write the trajectory table here")
        p.add_argument("--svg", dest="svg_path", help="write the figure here")
        p.add_argument("--stroke-width", type=_positive_float, default=None)

    p_flow = sub.add_parser("flow", help="evolve a polygon by the homogeneous flow")
    p_flow.add_argument("--input", dest="input_path", required=True)
    p_flow.add_argument("--m", type=_positive_int, required=True)
    add_schedule(p_flow)
    add_render(p_flow)

    p_yau = sub.add_parser("yau", help="flow a polygon toward a target polygon")
    p_yau.add_argument("--input", dest="input_path", required=True)
    p_yau.add_argument("--target", dest="target_path", required=True)
    p_yau.add_argument("--m", type=_positive_int, required=True)
    p_yau.add_argument(
        "--strategy", choices=("duplicate", "midpoint"), default="midpoint",
        help="vertex-count reconciliation strategy",
    )
    p_yau.add_argument("--solid-target", action="store_true", help="draw the target undashed")
    add_schedule(p_yau)
    add_render(p_yau)

    p_analyze = sub.add_parser("analyze", help="spectral report for a polygon")
    p_analyze.add_argument("--input", dest="input_path", required=True)
    p_analyze.add_argument("--m", type=_positive_int, required=True)
    p_analyze.add_argument("--json", dest="json_path", help="write the report here instead of stdout")

    p_int = sub.add_parser("integrate", help="RK4 oracle run, reports deviation from the closed form")
    p_int.add_argument("--input", dest="input_path", required=True)
    p_int.add_argument("--m", type=_positive_int, required=True)
    p_int.add_argument("--target", dest="target_path", help="integrate the difference flow toward this polygon")
    p_int.add_argument("--dt", type=_positive_float, default=1e-3)
    p_int.add_argument("--T", dest="t_final", type=_positive_float, default=1.0)
    p_int.add_argument("--csv", dest="csv_path", help="write the RK4 trajectory table here")
    p_int.add_argument(
        "--strategy", choices=("duplicate", "midpoint"), default="midpoint",
        help="vertex-count reconciliation strategy (with --target)",
    )
    return parser


def resolve_schedule(args: argparse.Namespace) -> tuple[float, ...]:
    if args.times is not None:
        try:
            times = tuple(float(tok) for tok in args.times.split(","))
        except ValueError:
            raise CliArgumentError(f"could not parse --times {args.times!r}") from None
    else:
        try:
            times = geometric_schedule(args.t0, args.ratio, args.count)
        except OverflowError:  # float ** raises where float * would give inf
            raise CliArgumentError("time schedule must be finite") from None
    if not all(math.isfinite(t) for t in times):
        raise CliArgumentError("time schedule must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CliArgumentError("time schedule must be strictly increasing")
    return times


def load_flow_polygon(path) -> Polygon:
    poly = load_polygon(path)
    if poly.n < 3:
        raise PolygonFormatError(f"flows need n >= 3 vertices, got {poly.n}")
    return poly


def _write_trajectory_rows(fh, times, polygons) -> None:
    p = polygons[0].p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    for t, poly in zip(times, polygons):
        for j, row in enumerate(poly.vertices):
            cells = [format_float(t), str(j)] + [format_float(c) for c in row]
            fh.write(",".join(cells) + "\n")


def write_trajectory_csv(path, times, polygons) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_trajectory_rows(fh, times, polygons)


def _power_of_m(n: int, m: int) -> circulant.CirculantMatrix:
    """``M^m``, with its size and exact-entry refusals as argument errors."""
    try:
        return circulant.power_of_m(n, m)
    except (ValueError, OverflowError) as exc:
        raise CliArgumentError(str(exc)) from exc


def cmd_matrix(args: argparse.Namespace) -> int:
    power = _power_of_m(args.n, args.m)
    sign = circulant.flow_sign(args.m)
    eigen = circulant.eigen_system(args.n, args.m)
    print(" ".join(str(b) for b in power.first_row))
    print(" ".join(str(sign * b) for b in power.first_row))
    print(" ".join(format_float(v) for v in eigen.eigenvalues))
    return 0


def _emit_samples(args, times, solution, initial, target=None, dash_target=True):
    """Sample the solution at ``times`` and write the CSV and SVG asked for,
    or the CSV table on stdout when neither is.  A figure of non-planar
    polygons is refused before anything is evaluated or written."""
    if args.svg_path and initial.p != 2:
        raise CliArgumentError(f"--svg needs planar polygons (p = 2), got p = {initial.p}")
    samples = [solution.polygon_at(t) for t in times]
    if args.csv_path:
        write_trajectory_csv(args.csv_path, times, samples)
        print(f"wrote {args.csv_path}")
    if args.svg_path:
        layers = svg.figure_layers(samples, initial, target, args.stroke_width, dash_target)
        svg.write(layers, args.svg_path)
        print(f"wrote {args.svg_path}")
    if not args.csv_path and not args.svg_path:
        _write_trajectory_rows(sys.stdout, times, samples)


def cmd_flow(args: argparse.Namespace) -> int:
    times = resolve_schedule(args)
    x0 = load_flow_polygon(args.input_path)
    _emit_samples(args, times, spectral_flow.flow_solution(x0, args.m), x0)
    return 0


def cmd_yau(args: argparse.Namespace) -> int:
    times = resolve_schedule(args)
    x0 = load_flow_polygon(args.input_path)
    target = load_flow_polygon(args.target_path)
    try:
        problem, solution = yau_flow.yau_flow_between(x0, target, args.m, args.strategy)
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from exc
    _emit_samples(args, times, solution, problem.initial, problem.target, not args.solid_target)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    x0 = load_flow_polygon(args.input_path)
    dec = spectral_flow.decompose(x0)
    verdict = spectral_flow.classify_self_similar(dec, args.m)
    masses = dec.pair_masses()
    report = {
        "n": x0.n,
        "p": x0.p,
        "m": args.m,
        "energy": energy(x0, args.m),
        "centroid": [float(c) for c in dec.alpha[0]],
        "modes": [
            {
                "k": k,
                "mass": float(masses[k]),
                "rate": circulant.flow_eigenvalue(x0.n, args.m, k),
                "alpha": [float(a) for a in dec.alpha[k]],
                "beta": [float(b) for b in dec.beta[k]],
            }
            for k in range(dec.half + 1)
        ],
        "self_similar": None
        if verdict is None
        else {"mode": verdict.mode, "rate": verdict.rate, "trivial": verdict.is_trivial},
    }
    try:
        k_fwd, fwd = spectral_flow.rescaled_limit(dec, args.m, "forward")
        k_anc, anc = spectral_flow.rescaled_limit(dec, args.m, "ancient")
        report["dominant_mode"] = k_fwd
        report["forward_limit"] = polygon_doc(fwd)
        report["ancient_mode"] = k_anc
        report["ancient_limit"] = polygon_doc(anc)
    except spectral_flow.DegenerateModeError:
        report["dominant_mode"] = None
        report["forward_limit"] = None
        report["ancient_mode"] = None
        report["ancient_limit"] = None
    text = json.dumps(report, indent=2)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json_path}")
    else:
        print(text)
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    x0 = load_flow_polygon(args.input_path)
    _power_of_m(x0.n, args.m)  # refuse an order past the exact M^m budget before any work
    if args.target_path:
        target = load_flow_polygon(args.target_path)
        try:
            problem, exact = yau_flow.yau_flow_between(x0, target, args.m, args.strategy)
        except ValueError as exc:
            raise PolygonFormatError(str(exc)) from exc
        x0 = problem.initial
        kind = YauKind(m=args.m, target=problem.target)
        reference = exact.polygon_at(args.t_final)
    else:
        kind = PolyharmonicKind(m=args.m)
        reference = spectral_flow.solve(x0, args.m, args.t_final)
    config = IntegratorConfig(dt=args.dt, t_final=args.t_final, kind=kind)
    trajectory = run_rk4(x0, config)
    if args.csv_path:
        write_trajectory_csv(args.csv_path, trajectory.times, trajectory.polygons)
        print(f"wrote {args.csv_path}")
    deviation = float(
        abs(trajectory.final().vertices - reference.vertices).max()
    )
    print(f"max |rk4 - exact| at T={format_float(args.t_final)}: {format_float(deviation)}")
    return 0


_HANDLERS = {
    "matrix": cmd_matrix,
    "flow": cmd_flow,
    "yau": cmd_yau,
    "analyze": cmd_analyze,
    "integrate": cmd_integrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolygonFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (spectral_flow.FlowRangeError, DivergenceError, OverflowError) as exc:
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
