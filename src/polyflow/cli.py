"""Command-line front end: matrix inspection, flow runs, CSV and SVG emission.

Exit codes: 0 success, 2 argument error, 3 input parse error (or an
unwritable output path or a closed stdout), 4 numeric range error or out of
memory.  Right after parsing, before any input is read, ``main`` refuses
an unwritable destination, a link that leads into a missing folder or to
itself among them, and then one that names an input or another destination
(exit 2); ``flow`` and ``yau`` refuse ``--svg`` on a non-planar input right
after loading it.

Every number it writes follows the one formatter rule of
:func:`polygon.format_floats`.

Each subcommand's options are declared once, in ``_COMMANDS``: flag,
namespace attribute, conversion, default, whether required, choices,
whether it names an input or an output file, and help text.  ``main``
parses a plain argv from that declaration (``_plain_args``): a subcommand,
then exact option strings, each but ``--solid-target`` followed by one
value that does not start with ``-``, every value converting and among its
choices, and every required flag given.  That takes about 5 us where
argparse takes 33-68 (2-vCPU Xeon VM, Python 3.11).  Every other argv
(abbreviations, ``--flag=value``, ``-h``, values that look negative, bad
values, missing flags) goes to the argparse tree that :func:`build_parser`
builds from the same declaration at the first such argv, and that later
ones reuse, so every refusal, its message and its exit code are
argparse's.  A run of plain argvs never imports argparse.  The path checks
take the declared input and output options.

A subcommand imports only the modules it runs: ``integrate`` loads the RK4
module :mod:`polyflow.integrate`, ``yau`` and ``integrate --target`` load
:mod:`polyflow.yau_flow`, and ``--svg`` loads :mod:`polyflow.svg`, each in
the function that first calls it.  ``matrix``, ``flow`` and ``analyze``
load none of the three.  Two private modules are compiled the same way:
``analyze`` loads its report writer :mod:`polyflow._report`, and a
``midpoint`` reconciliation that grows a polygon loads
:mod:`polyflow._reconcile`.  No call runs both, and without a bytecode
cache each costs 1-1.5 and 2-3 ms to compile, against ~0.1 ms for the
import of a module file.  orjson is loaded by the first JSON input of a
run that writes a float array, to parse it, or else by the first such
array: ``integrate`` without ``--csv`` writes none, so it never loads
orjson.  It parses its JSON inputs with ``json`` alone (``json_only``)
while orjson is not loaded, and with orjson once an earlier call in the
same process, or its caller, has loaded it: the two parsers give the same
bits and the same messages.

A job is milliseconds of numpy, so a call is mostly its process start-up:
on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) importing numpy takes
70-110 ms, and ``from polyflow import cli`` after it about 24 ms without a
bytecode cache and 8.6 ms with one (medians of 15 fresh processes).  A
plain argv then spares argparse's import and tree, 5-9 ms in a fresh
process (12 runs).  Every numeric range error, ``FlowRangeError`` and
``DivergenceError`` among them, is an ``OverflowError`` (exit 4).
"""
from __future__ import annotations

import errno
import functools
import math
import os
import stat
import sys
import warnings
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import circulant, spectral_flow
from .polygon import (
    Polygon,
    PolygonFormatError,
    format_floats,
    format_samples,
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
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


# One option of a subcommand.  ``convert`` makes its value from the text
# after the flag; None marks a flag that takes no value and stores True.
# ``path`` is "input" for a file the command reads and "output" for one it
# writes.  (A typing.NamedTuple class takes 0.5 ms more to define.)
_Option = namedtuple(
    "_Option", "flag dest convert default required choices path help", defaults=(str, None, False, None, None, None)
)
_Command = namedtuple("_Command", "help options description", defaults=(None,))

_INPUT = _Option("--input", "input_path", required=True, path="input")
_ORDER = _Option("--m", "m", _positive_int, required=True)
_SCHEDULE = (
    _Option("--times", "times", help="comma-separated strictly increasing times; "
            "a negative first time needs the = form, --times=-0.2,0.1"),
    _Option("--t0", "t0", _positive_float, T0, help="first geometric time"),
    _Option("--ratio", "ratio", _positive_float, RATIO, help="geometric ratio > 1"),
    _Option("--count", "count", _positive_int, COUNT, help="number of samples"),
)
_RENDER = (
    _Option("--csv", "csv_path", path="output", help="write the trajectory table here"),
    _Option("--svg", "svg_path", path="output", help="write the figure here"),
    _Option("--stroke-width", "stroke_width", _positive_float),
)
_STRATEGIES = ("duplicate", "midpoint")

# Every subcommand and its options, in the order ``-h`` lists them: the
# plain-argv parse, the argparse tree and the path checks all read this.
# Inputs are declared before outputs, so a path clash names the output.
_COMMANDS = {
    "matrix": _Command(
        "print the difference-matrix power, flow matrix, and eigenvalues",
        (
            _Option("--n", "n", _positive_int, required=True, help="vertex count"),
            _Option("--m", "m", _positive_int, required=True, help="flow order"),
        ),
        "Prints three lines: the first row of M^m, the first row "
        "of the flow matrix (-1)^(m+1) M^m, and the flow eigenvalues.",
    ),
    "flow": _Command("evolve a polygon by the homogeneous flow", (_INPUT, _ORDER, *_SCHEDULE, *_RENDER)),
    "yau": _Command(
        "flow a polygon toward a target polygon",
        (
            _INPUT,
            _Option("--target", "target_path", required=True, path="input"),
            _ORDER,
            _Option("--strategy", "strategy", default="midpoint", choices=_STRATEGIES,
                    help="vertex-count reconciliation strategy"),
            _Option("--solid-target", "solid_target", None, False, help="draw the target undashed"),
            *_SCHEDULE,
            *_RENDER,
        ),
    ),
    "analyze": _Command(
        "spectral report for a polygon",
        (_INPUT, _ORDER, _Option("--json", "json_path", path="output",
                                 help="write the report here instead of stdout")),
    ),
    "integrate": _Command(
        "RK4 oracle run, reports deviation from the closed form",
        (
            _INPUT,
            _ORDER,
            _Option("--target", "target_path", path="input",
                    help="integrate the difference flow toward this polygon"),
            _Option("--dt", "dt", _positive_float, 1e-3),
            _Option("--T", "t_final", _positive_float, 1.0),
            _Option("--csv", "csv_path", path="output", help="write the RK4 trajectory table here"),
            _Option("--strategy", "strategy", default="midpoint", choices=_STRATEGIES,
                    help="vertex-count reconciliation strategy (with --target)"),
        ),
    ),
}
_FLAGS = {name: {option.flag: option for option in command.options} for name, command in _COMMANDS.items()}


def build_parser():
    """The argparse tree of ``_COMMANDS``, for the argvs that
    :func:`_plain_args` declines.  argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polyflow",
        description="Semi-discrete polyharmonic and Yau difference flows on closed polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        for option in command.options:
            if option.convert is None:
                p.add_argument(option.flag, dest=option.dest, action="store_true",
                               default=option.default, help=option.help)
            else:
                p.add_argument(option.flag, dest=option.dest, type=option.convert, default=option.default,
                               required=option.required, choices=option.choices, help=option.help)
    return parser


def resolve_schedule(args: SimpleNamespace) -> tuple[float, ...]:
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


def load_flow_polygon(path, json_only: bool = False) -> Polygon:
    """The polygon at ``path``, of n >= 3 vertices.  ``json_only`` is
    :func:`polygon.load_polygon_json`'s: a run that writes no float array
    parses JSON with ``json`` alone while orjson is not loaded, and so
    never imports it."""
    poly = load_polygon(path, json_only=json_only)
    if poly.n < 3:
        raise PolygonFormatError(f"flows need n >= 3 vertices, got {poly.n}")
    return poly


def _write_trajectory_rows(fh, times, samples, rows=None) -> None:
    """The trajectory table, one ``write`` per sample.  The samples are
    polygons, or an RK4 trajectory's state blocks (see ``format_samples``).
    ``rows`` holds each sample's ``format_samples`` rows when they have been
    made already; without it ``format_samples`` formats the samples a block
    at a time as they are written.  A sample's text is one join over its
    lines' pieces (stamp, vertex index, row, newline): the index and newline
    pieces are laid in once per vertex count, and the stamps and rows by
    one slice assignment each per sample."""
    first = samples[0]
    p = first.shape[-1] if isinstance(first, np.ndarray) else first.p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    if rows is None:
        rows = format_samples(samples)
    pieces = []
    for stamp, sample in zip(format_floats(times), rows):
        k = len(sample)
        if len(pieces) != 4 * k:
            pieces = ["\n"] * (4 * k)
            pieces[1::4] = [f",{j}," for j in range(k)]
        pieces[::4] = [stamp] * k
        pieces[2::4] = sample
        fh.write("".join(pieces))


def write_trajectory_csv(path, times, samples, rows=None) -> None:
    """The trajectory table in a file, through a 64 KiB buffer: an RK4 table
    of a few MB takes one system ``write`` per 64 KiB, not per 8 KiB."""
    with open(path, "w", newline="\n", buffering=2**16) as fh:
        _write_trajectory_rows(fh, times, samples, rows)


def _power_of_m(n: int, m: int) -> circulant.CirculantMatrix:
    """``M^m``, with its size and exact-entry refusals as argument errors."""
    try:
        return circulant.power_of_m(n, m)
    except (ValueError, OverflowError) as exc:
        raise CliArgumentError(str(exc)) from exc


def cmd_matrix(args: SimpleNamespace) -> int:
    power = _power_of_m(args.n, args.m)
    sign = circulant.flow_sign(args.m)
    eigenvalues = circulant.eigen_system(args.n, args.m)
    print(" ".join(str(b) for b in power.first_row))
    print(" ".join(str(sign * b) for b in power.first_row))
    print(" ".join(format_floats(eigenvalues)))
    return 0


def _check_paths(args: SimpleNamespace, options) -> None:
    """Refuse an output path that cannot be opened for writing (exit 3),
    then one that names an input or another output (exit 2), of the paths
    that ``options`` declare.  One lookup
    per path: ``lstat``, ``stat`` where a link leads, the folder's ``stat``
    only for a file not made yet, and ``access`` for an output.  A file is
    keyed by its device and inode, one not made yet by its folder's and its
    own name, and a dangling link by the file that writing through it makes."""
    named, clash = {}, None  # file key -> the first flag and path naming that file
    for option in options:
        if not option.path:
            continue
        flag, path, writes = option.flag, getattr(args, option.dest), option.path == "output"
        if path == "" and writes:
            raise FileNotFoundError("cannot write to an empty path")
        if not path:
            continue
        made, st = path, None  # the name a new file is made under; the file
        try:
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                st = os.stat(path)
        except OSError as exc:
            if st is not None:  # a link that leads nowhere, or in a loop to no name at all
                made = None if exc.errno == errno.ELOOP else os.path.realpath(path)
            st = None
        key = checked = None  # the file's key; the path ``access`` checks, None if unwritable
        if st is not None:
            key, checked = (st.st_dev, st.st_ino), None if stat.S_ISDIR(st.st_mode) else path
        elif made:
            folder = os.path.dirname(made) or "."
            try:
                st = os.stat(folder)
            except OSError:
                pass
            if st is not None and stat.S_ISDIR(st.st_mode):
                key, checked = (st.st_dev, st.st_ino, os.path.basename(made)), folder
            elif writes:
                raise NotADirectoryError(f"cannot write {path}: {folder} is not a directory")
        if writes and not (checked and os.access(checked, os.W_OK)):
            raise PermissionError(f"cannot write {path}")
        if writes and key in named:
            clash = clash or f"{flag} {path} names the same file as {' '.join(named[key])}"
        named.setdefault(key, (flag, path))
    if clash:
        raise CliArgumentError(clash)


def _emit_samples(args, times, solution, initial, target=None, dash_target=True):
    """Sample the solution at ``times`` and write the CSV and SVG asked for,
    or the CSV table on stdout when neither is; ``main`` has checked both
    destinations and ``cmd_flow`` that a figure's polygons are planar.  Each
    sample is formatted once: with a figure, its vertex rows are made first
    and go into both writers, so the table is the same bytes with or without
    it; without one, the table formats a block of samples at a time.  The
    figure is rendered before the table is written, so that a figure refused
    for a number beyond float range leaves no file."""
    samples = solution.polygon_at(times)
    rows = list(format_samples(samples)) if args.svg_path else None
    if args.svg_path:
        from . import svg

        document = svg.render(samples, initial, target, args.stroke_width, dash_target, rows)
    if args.csv_path:
        write_trajectory_csv(args.csv_path, times, samples, rows)
        print(f"wrote {args.csv_path}")
    if args.svg_path:
        svg.write(document, args.svg_path)
        print(f"wrote {args.svg_path}")
    if not args.csv_path and not args.svg_path:
        _write_trajectory_rows(sys.stdout, times, samples)


def cmd_flow(args: SimpleNamespace) -> int:
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


def _flow_toward_target(args: SimpleNamespace, x0: Polygon, json_only: bool = False):
    """Load ``--target`` and reconcile x0 with it: the problem and its exact
    solution.  Polygons of different dimensions are an input error."""
    from .yau_flow import yau_flow_between

    target = load_flow_polygon(args.target_path, json_only)
    try:
        return yau_flow_between(x0, target, args.m, args.strategy)
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from exc


def cmd_analyze(args: SimpleNamespace) -> int:
    from ._report import _analyze_json

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


def cmd_integrate(args: SimpleNamespace) -> int:
    from . import integrate

    if not math.isfinite(args.t_final / args.dt):
        raise CliArgumentError("the step count --T / --dt must be finite")
    # no table, no float array written: orjson stays unloaded, unless an earlier run loaded it
    json_only = not args.csv_path and "orjson" not in sys.modules
    x0 = load_flow_polygon(args.input_path, json_only)
    if args.m > circulant.M_MAX:  # refused as `matrix` refuses it, before any work; the integrator builds M^m
        _power_of_m(x0.n, args.m)
    if args.target_path:
        problem, exact = _flow_toward_target(args, x0, json_only)
        x0 = problem.initial
        kind = integrate.YauKind(m=args.m, target=problem.target)
        reference = exact.polygon_at(args.t_final)
    else:
        kind = integrate.PolyharmonicKind(m=args.m)
        reference = spectral_flow.solve(x0, args.m, args.t_final)
    config = integrate.IntegratorConfig(dt=args.dt, t_final=args.t_final, kind=kind)
    with warnings.catch_warnings():  # restores the filters and the display on the way out
        warnings.simplefilter("always", integrate.StiffnessWarning)
        warnings.showwarning = _warning_line
        trajectory = integrate.integrate(x0, config, keep_steps=bool(args.csv_path))
    if args.csv_path:
        write_trajectory_csv(args.csv_path, trajectory.times, trajectory.blocks)
        print(f"wrote {args.csv_path}")
    deviation = float(
        abs(trajectory.final().vertices - reference.vertices).max()
    )
    # repr, not format_floats: a run without --csv never imports orjson
    print(f"max |rk4 - exact| at T={args.t_final!r}: {deviation!r}")
    return 0


_HANDLERS = {
    "matrix": cmd_matrix,
    "flow": cmd_flow,
    "yau": cmd_flow,
    "analyze": cmd_analyze,
    "integrate": cmd_integrate,
}


@functools.cache
def _parser():
    """The argparse tree, built by the first ``main`` call whose argv
    :func:`_plain_args` declines, and reused: parsing leaves no state on it."""
    return build_parser()


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv``, if it is plain: a
    subcommand, then exact option strings of ``_COMMANDS``, each but a flag
    without ``convert`` followed by one value that does not start with
    ``-``, every value converted and among its choices, every required
    option given.  A repeated option keeps its last value.  None for any
    other argv."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = flags.get(flag)
        if option is None:
            return None
        if option.convert is None:
            given[option.dest] = True
            continue
        value = next(tokens, None)
        if not isinstance(value, str) or value.startswith("-"):
            return None
        try:
            value = option.convert(value)
        except Exception:  # argparse repeats the conversion and words the refusal
            return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
    options = _COMMANDS[argv[0]].options
    if not all(option.dest in given for option in options if option.required):
        return None
    args = SimpleNamespace(command=argv[0], **{option.dest: option.default for option in options})
    vars(args).update(given)
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = _parser().parse_args(argv, SimpleNamespace())
    try:
        _check_paths(args, _COMMANDS[args.command].options)
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
    except OverflowError as exc:  # FlowRangeError and DivergenceError among them
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
