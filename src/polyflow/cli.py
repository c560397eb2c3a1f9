"""Command-line front end: matrix inspection, flow runs, CSV and SVG emission.

Exit codes: 0 success, 2 argument error, 3 input parse error (or an
unwritable output path or a closed stdout), 4 numeric range error or out of
memory.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

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
    indices = [f",{j}," for j in range(max(poly.n for poly in polygons))]
    for t, poly in zip(times, polygons):
        # repr of the float64 cells is format_float, taken a whole sample at a time
        cells = list(map(repr, poly.vertices.ravel().tolist()))
        rows = map(",".join, zip(*[iter(cells)] * p))
        stamp = format_float(t)
        fh.write("".join([f"{stamp}{j}{row}\n" for j, row in zip(indices, rows)]))


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
    eigenvalues = circulant.eigen_system(args.n, args.m)
    print(" ".join(str(b) for b in power.first_row))
    print(" ".join(str(sign * b) for b in power.first_row))
    print(" ".join(format_float(v) for v in eigenvalues))
    return 0


def _check_destinations(*paths) -> None:
    """Refuse an output path that cannot be opened for writing because its
    folder is missing, is not a directory or is read-only, or because the
    path is a directory, before any output is written."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise NotADirectoryError(f"cannot write {path}: {folder} is not a directory")
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise PermissionError(f"cannot write {path}")


def _emit_samples(args, times, solution, initial, target=None, dash_target=True):
    """Sample the solution at ``times`` and write the CSV and SVG asked for,
    or the CSV table on stdout when neither is.  A figure of non-planar
    polygons and an unwritable destination are refused before anything is
    evaluated or written."""
    if args.svg_path and initial.p != 2:
        raise CliArgumentError(f"--svg needs planar polygons (p = 2), got p = {initial.p}")
    _check_destinations(args.csv_path, args.svg_path)
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


def _flow_toward_target(args: argparse.Namespace, x0: Polygon):
    """Load ``--target`` and reconcile x0 with it: the problem and its exact
    solution.  Polygons of different dimensions are an input error."""
    target = load_flow_polygon(args.target_path)
    try:
        return yau_flow.yau_flow_between(x0, target, args.m, args.strategy)
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from exc


def cmd_yau(args: argparse.Namespace) -> int:
    times = resolve_schedule(args)
    problem, solution = _flow_toward_target(args, load_flow_polygon(args.input_path))
    _emit_samples(args, times, solution, problem.initial, problem.target, not args.solid_target)
    return 0


def _json_floats(values, pad: str) -> str:
    """A non-empty number list in the indent-2 layout, its items at ``pad``."""
    items = f",\n{pad}".join(map(repr, values))
    return f"[\n{pad}{items}\n{pad[2:]}]"


def _json_polygon(x: Polygon | None) -> str:
    """A polygon, or None, as a member of the report."""
    if x is None:
        return "null"
    cells = list(map(repr, x.vertices.ravel().tolist()))
    rows = "\n      ],\n      [\n        ".join(map(",\n        ".join, zip(*[iter(cells)] * x.p)))
    return f'{{\n    "dim": {x.p},\n    "vertices": [\n      [\n        {rows}\n      ]\n    ]\n  }}'


def _analyze_json(x0: Polygon, m: int, source: str) -> str:
    """The ``analyze`` report of x0 as ``json.dumps(report, indent=2)`` writes
    it, laid out by its schema: ``indent`` sends ``json`` to its pure-Python
    encoder, which costs twice as much.

    After every library error, a number beyond float range raises
    FlowRangeError, naming the input ``source``.  Only the energy and the
    mode masses can be one: ``decompose`` refuses a non-finite centroid or
    spectrum, ``flow_eigenvalue`` raises OverflowError instead of returning
    inf and ``Polygon`` refuses non-finite vertices.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dec = spectral_flow.decompose(x0)
        verdict = spectral_flow.classify_self_similar(dec, m)
        total = energy(x0, m)
        masses = dec.pair_masses().tolist()
        rates = [circulant.flow_eigenvalue(x0.n, m, k) for k in range(dec.half + 1)]
        try:
            k_fwd, fwd = spectral_flow.rescaled_limit(dec, m, "forward")
            k_anc, anc = spectral_flow.rescaled_limit(dec, m, "ancient")
        except spectral_flow.DegenerateModeError:
            k_fwd = fwd = k_anc = anc = None
    if not math.isfinite(total) or not all(map(math.isfinite, masses)):
        raise spectral_flow.FlowRangeError(
            f"the analyze report of {source} holds a number beyond float range"
        )
    modes = ",\n".join(
        f'    {{\n      "k": {k},\n      "mass": {mass!r},\n      "rate": {rate!r},\n'
        f'      "alpha": {_json_floats(alpha, " " * 8)},\n'
        f'      "beta": {_json_floats(beta, " " * 8)}\n    }}'
        for k, (mass, rate, alpha, beta) in enumerate(
            zip(masses, rates, dec.alpha.tolist(), dec.beta.tolist())
        )
    )
    if verdict is not None:
        verdict = (
            f'{{\n    "mode": {verdict.mode},\n    "rate": {verdict.rate!r},\n'
            f'    "trivial": {"true" if verdict.is_trivial else "false"}\n  }}'
        )
    members = (
        ("n", x0.n),
        ("p", x0.p),
        ("m", m),
        ("energy", repr(total)),
        ("centroid", _json_floats(dec.alpha[0].tolist(), "    ")),
        ("modes", f"[\n{modes}\n  ]"),
        ("self_similar", verdict),
        ("dominant_mode", k_fwd),
        ("forward_limit", _json_polygon(fwd)),
        ("ancient_mode", k_anc),
        ("ancient_limit", _json_polygon(anc)),
    )
    body = ",\n".join(f'  "{key}": {"null" if text is None else text}' for key, text in members)
    return f"{{\n{body}\n}}"


def cmd_analyze(args: argparse.Namespace) -> int:
    text = _analyze_json(load_flow_polygon(args.input_path), args.m, args.input_path)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json_path}")
    else:
        print(text)
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    if not math.isfinite(args.t_final / args.dt):
        raise CliArgumentError("the step count --T / --dt must be finite")
    x0 = load_flow_polygon(args.input_path)
    _power_of_m(x0.n, args.m)  # refuse an order past the exact M^m budget before any work
    if args.target_path:
        problem, exact = _flow_toward_target(args, x0)
        x0 = problem.initial
        kind = YauKind(m=args.m, target=problem.target)
        reference = exact.polygon_at(args.t_final)
    else:
        kind = PolyharmonicKind(m=args.m)
        reference = spectral_flow.solve(x0, args.m, args.t_final)
    config = IntegratorConfig(dt=args.dt, t_final=args.t_final, kind=kind)
    trajectory = run_rk4(x0, config, keep_steps=bool(args.csv_path))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first ``main`` call and reused: parsing
    leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout was closed: the exit-time flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except (PolygonFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (spectral_flow.FlowRangeError, DivergenceError, OverflowError) as exc:
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
