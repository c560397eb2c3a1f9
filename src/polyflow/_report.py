"""The ``polyflow analyze`` report writer: one schema-shaped writer that reads
the decomposition, the self-similar verdict and the limits and lays out the
JSON text, with no intermediate dict.

:func:`cli.cmd_analyze` imports this module at its first call, so that the
other subcommands do not compile it.  It reads each library function from
its module at each call (``polygon.energy``, ``spectral_flow.decompose``),
so a function rebound in its module after this import is the one called.
"""
from __future__ import annotations

import math
from itertools import islice

import numpy as np

from . import circulant, polygon, spectral_flow


def _json_floats(cells, pad: str) -> str:
    """A non-empty list of formatted numbers in the indent-2 layout, its
    items at ``pad``."""
    items = f",\n{pad}".join(cells)
    return f"[\n{pad}{items}\n{pad[2:]}]"


def _json_polygon(cells: list, p: int) -> str:
    """A polygon from its vertices' cells, or null for no cells, as a member of the report."""
    if not cells:
        return "null"
    vertices = map(",\n        ".join, zip(*[iter(cells)] * p))
    rows = "\n      ],\n      [\n        ".join(vertices)
    return f'{{\n    "dim": {p},\n    "vertices": [\n      [\n        {rows}\n      ]\n    ]\n  }}'


def _analyze_json(x0: polygon.Polygon, m: int, source: str) -> str:
    """The ``analyze`` report of x0 as ``json.dumps(report, indent=2)`` writes
    it, laid out by its schema: ``indent`` sends ``json`` to its pure-Python
    encoder, which costs twice as much.

    After every library error, a number beyond float range raises
    FlowRangeError, naming the input ``source``.  Only the energy and the
    mode masses can be one: ``decompose`` refuses a non-finite centroid or
    spectrum, ``flow_eigenvalues`` raises OverflowError instead of returning
    inf and ``Polygon`` refuses non-finite vertices.

    Every number is a cell of one ``format_floats`` call over all arrays,
    sliced apart: the centroid is the first p cells of alpha, and the
    verdict's rate is its mode's rate cell, bitwise ``flow_eigenvalue``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dec = spectral_flow.decompose(x0)
        verdict = spectral_flow.classify_self_similar(dec, m)
        total = polygon.energy(x0, m)
        rates = circulant.flow_eigenvalues(x0.n, m)
        try:
            k_fwd, fwd = spectral_flow.rescaled_limit(dec, m, "forward")
            k_anc, anc = spectral_flow.rescaled_limit(dec, m, "ancient")
        except spectral_flow.DegenerateModeError:
            k_fwd = fwd = k_anc = anc = None
    if not (math.isfinite(total) and np.isfinite(dec.masses).all()):
        raise spectral_flow.FlowRangeError(
            f"the analyze report of {source} holds a number beyond float range"
        )
    limits = () if fwd is None else (fwd.vertices, anc.vertices)  # no cells: null limits
    cells = iter(polygon.format_floats(np.concatenate((dec.alpha, dec.beta, dec.masses, rates, total, *limits), axis=None)))
    h, p = len(rates), x0.p
    alpha_cells, beta_cells, mass_cells, rate_cells, (energy_cell,), fwd_cells, anc_cells = (
        list(islice(cells, size)) for size in (h * p, h * p, h, h, 1, x0.n * p, x0.n * p)
    )
    # one mode's pieces, its cells left empty: the template times h, filled by strided slices
    row = ",\n        "
    template = ['    {\n      "k": ', "", ',\n      "mass": ', "", ',\n      "rate": ', "", ',\n      "alpha": [\n        ']
    template += ["", row] * (p - 1) + ["", '\n      ],\n      "beta": [\n        ']
    template += ["", row] * (p - 1) + ["", "\n      ]\n    },\n"]
    size = len(template)
    pieces = template * h
    pieces[1::size], pieces[3::size], pieces[5::size] = map(str, range(h)), mass_cells, rate_cells
    for j in range(p):
        pieces[7 + 2 * j :: size], pieces[7 + 2 * (p + j) :: size] = alpha_cells[j::p], beta_cells[j::p]
    pieces[-1] = "\n      ]\n    }"  # the last mode is followed by no comma
    modes = "".join(pieces)
    if verdict is not None:
        verdict = (
            f'{{\n    "mode": {verdict.mode},\n    "rate": {rate_cells[verdict.mode]},\n'
            f'    "trivial": {"true" if verdict.is_trivial else "false"}\n  }}'
        )
    members = (
        ("n", x0.n),
        ("p", p),
        ("m", m),
        ("energy", energy_cell),
        ("centroid", _json_floats(alpha_cells[:p], "    ")),
        ("modes", f"[\n{modes}\n  ]"),
        ("self_similar", verdict),
        ("dominant_mode", k_fwd),
        ("forward_limit", _json_polygon(fwd_cells, p)),
        ("ancient_mode", k_anc),
        ("ancient_limit", _json_polygon(anc_cells, p)),
    )
    body = ",\n".join(f'  "{key}": {"null" if text is None else text}' for key, text in members)
    return f"{{\n{body}\n}}"
