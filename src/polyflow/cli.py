"""Command-line front end: matrix inspection, flow runs, CSV and SVG emission.

Exit codes: 0 success, 2 argument error, 3 input parse error (or an
unwritable output path or a closed stdout), 4 numeric range error or out of
memory.  ``main`` refuses every output destination right after parsing,
before any input is read, and then one that names an input or another
destination (exit 2); ``flow`` and ``yau`` refuse ``--svg`` on a
non-planar input right after loading it.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import circulant, spectral_flow, svg, yau_flow
from .integrate import (
    DivergenceError,
    IntegratorConfig,
    PolyharmonicKind,
    StiffnessWarning,
    YauKind,
    integrate as run_rk4,
)
from .polygon import (
    Polygon,
    PolygonFormatError,
    energy,
    format_float,
    format_vertices,
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


def _write_trajectory_rows(fh, times, polygons, rows=None) -> None:
    """The trajectory table, one ``write`` per sample.  ``rows`` holds each
    sample's ``format_vertices`` text when it has been made already; without
    it each sample is formatted as it is written."""
    p = polygons[0].p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    indices = [f",{j}," for j in range(max(poly.n for poly in polygons))]
    if rows is None:
        rows = map(format_vertices, polygons)
    for t, sample in zip(times, rows):
        stamp = format_float(t)
        fh.write("".join([f"{stamp}{j}{row}\n" for j, row in zip(indices, sample)]))


def write_trajectory_csv(path, times, polygons, rows=None) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_trajectory_rows(fh, times, polygons, rows)


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
    """Refuse an output path (None when not asked for) that cannot be opened
    for writing because it is empty, its folder is missing, is not a
    directory or is read-only, or because the path is a directory."""
    for path in paths:
        if path is None:
            continue
        if not path:
            raise FileNotFoundError("cannot write to an empty path")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise NotADirectoryError(f"cannot write {path}: {folder} is not a directory")
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise PermissionError(f"cannot write {path}")


_INPUT_FLAGS = (("--input", "input_path"), ("--target", "target_path"))
_OUTPUT_FLAGS = (("--csv", "csv_path"), ("--svg", "svg_path"), ("--json", "json_path"))


def _file_key(path) -> tuple:
    """What names the file ``path`` opens: its device and inode when it
    exists, as ``os.path.samefile`` compares them; else its folder's device
    and inode and its own name, after a dangling link is followed.  A path
    in a missing folder, which only an input can be, is its own key."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        pass
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        folder = os.stat(os.path.dirname(path) or ".")
    except OSError:
        return (path,)
    return folder.st_dev, folder.st_ino, os.path.basename(path)


def _check_distinct(args: argparse.Namespace) -> None:
    """Refuse a destination that names an input or another destination.
    Each path is looked up once: a real path costs a system call per folder
    level, a noticeable share of a small job."""
    named = {}  # file key -> the first flag and path naming that file
    for flags in (_INPUT_FLAGS, _OUTPUT_FLAGS):
        for flag, dest in flags:
            path = vars(args).get(dest)
            if not path:
                continue
            key = _file_key(path)
            if key in named and flags is _OUTPUT_FLAGS:
                raise CliArgumentError(f"{flag} {path} names the same file as {' '.join(named[key])}")
            named.setdefault(key, (flag, path))


def _emit_samples(args, times, solution, initial, target=None, dash_target=True):
    """Sample the solution at ``times`` and write the CSV and SVG asked for,
    or the CSV table on stdout when neither is; ``main`` has checked both
    destinations and ``cmd_flow`` that a figure's polygons are planar.  Each
    sample is formatted once: with a figure, its vertex rows are made first
    and go into both writers; without one, the table formats a sample at a
    time."""
    samples = solution.polygon_at(times)
    rows = list(map(format_vertices, samples)) if args.svg_path else None
    if args.csv_path:
        write_trajectory_csv(args.csv_path, times, samples, rows)
        print(f"wrote {args.csv_path}")
    if args.svg_path:
        document = svg.render(samples, initial, target, args.stroke_width, dash_target, rows)
        svg.write(document, args.svg_path)
        print(f"wrote {args.svg_path}")
    if not args.csv_path and not args.svg_path:
        _write_trajectory_rows(sys.stdout, times, samples)


def cmd_flow(args: argparse.Namespace) -> int:
    """``flow``, and ``yau`` toward its ``--target``."""
    times = resolve_schedule(args)
    x0 = load_flow_polygon(args.input_path)
    if args.svg_path and x0.p != 2:
        raise CliArgumentError(f"--svg needs planar polygons (p = 2), got p = {x0.p}")
    if args.command == "flow":
        _emit_samples(args, times, spectral_flow.flow_solution(x0, args.m), x0)
    else:
        problem, solution = _flow_toward_target(args, x0)
        _emit_samples(args, times, solution, problem.initial, problem.target, not args.solid_target)
    return 0


def _flow_toward_target(args: argparse.Namespace, x0: Polygon):
    """Load ``--target`` and reconcile x0 with it: the problem and its exact
    solution.  Polygons of different dimensions are an input error."""
    target = load_flow_polygon(args.target_path)
    try:
        return yau_flow.yau_flow_between(x0, target, args.m, args.strategy)
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from exc


def _json_floats(values, pad: str) -> str:
    """A non-empty number list in the indent-2 layout, its items at ``pad``."""
    items = f",\n{pad}".join(map(repr, values))
    return f"[\n{pad}{items}\n{pad[2:]}]"


def _json_polygon(x: Polygon | None) -> str:
    """A polygon, or None, as a member of the report."""
    if x is None:
        return "null"
    rows = "\n      ],\n      [\n        ".join(format_vertices(x, ",\n        "))
    return f'{{\n    "dim": {x.p},\n    "vertices": [\n      [\n        {rows}\n      ]\n    ]\n  }}'


def _analyze_json(x0: Polygon, m: int, source: str) -> str:
    """The ``analyze`` report of x0 as ``json.dumps(report, indent=2)`` writes
    it, laid out by its schema: ``indent`` sends ``json`` to its pure-Python
    encoder, which costs twice as much.

    After every library error, a number beyond float range raises
    FlowRangeError, naming the input ``source``.  Only the energy and the
    mode masses can be one: ``decompose`` refuses a non-finite centroid or
    spectrum, ``flow_eigenvalues`` raises OverflowError instead of returning
    inf and ``Polygon`` refuses non-finite vertices.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dec = spectral_flow.decompose(x0)
        verdict = spectral_flow.classify_self_similar(dec, m)
        total = energy(x0, m)
        masses = dec.pair_masses().tolist()
        rates = circulant.flow_eigenvalues(x0.n, m).tolist()
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
    x0 = load_flow_polygon(args.input_path)
    text = _analyze_json(x0, args.m, args.input_path)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json_path}")
    else:
        print(text)
    return 0


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as the one line ``warning: <message>`` on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def cmd_integrate(args: argparse.Namespace) -> int:
    if not math.isfinite(args.t_final / args.dt):
        raise CliArgumentError("the step count --T / --dt must be finite")
    x0 = load_flow_polygon(args.input_path)
    if args.m > circulant.M_MAX:  # refused as `matrix` refuses it, before any work; run_rk4 builds M^m
        _power_of_m(x0.n, args.m)
    if args.target_path:
        problem, exact = _flow_toward_target(args, x0)
        x0 = problem.initial
        kind = YauKind(m=args.m, target=problem.target)
        reference = exact.polygon_at(args.t_final)
    else:
        kind = PolyharmonicKind(m=args.m)
        reference = spectral_flow.solve(x0, args.m, args.t_final)
    config = IntegratorConfig(dt=args.dt, t_final=args.t_final, kind=kind)
    with warnings.catch_warnings():  # restores the filters and the display on the way out
        warnings.simplefilter("always", StiffnessWarning)
        warnings.showwarning = _warning_line
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
    "yau": cmd_flow,
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
        _check_destinations(*(vars(args).get(dest) for _, dest in _OUTPUT_FLAGS))
        _check_distinct(args)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, whatever its buffering, not at exit
        return code
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
