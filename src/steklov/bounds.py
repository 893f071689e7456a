"""Lower bounds for the first nonzero Steklov eigenvalue.

Three bounds are computed from four boundary quantities: the minimum edge
weight w0, the minimum boundary measure m0, the total boundary measure V_B
and the boundary hop-diameter d_B.

  unit form       |B| / ((|B|-1)^2 d_B)   (valid for unit weights with no
                                           boundary-boundary edges)
  general form    w0 / (d_B V_B)
  extended form   w0 V_B / ((V_B - m0)^2 d_B)

The extended form dominates the general one and reduces to the unit form on
unit-weighted graphs; it needs no assumption on boundary-boundary edges.
With fewer than two boundary vertices sigma_2 is +inf by convention and all
bounds are reported as +inf (vacuous).  Every function here reads the one
report kept per graph on ``g.analysis``, so the spectrum and d_B behind it
are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graph import GraphError, WeightedBoundaryGraph, json_number
from .spectral import NumericsError, steklov_spectrum

INF = float("inf")


@dataclass(frozen=True)
class BoundReport:
    """Boundary quantities, the three bounds, sigma_2 and the residual gap."""

    w0: float
    m0: float
    VB: float
    dB: int
    bound_unit: float
    bound_unit_applicable: bool
    bound_general: float
    bound_extended: float
    sigma2: float
    gap_extended: float

    def to_json_dict(self) -> dict:
        return {
            f.name: json_number(v) if isinstance(v, float) else v
            for f in fields(self)
            for v in [getattr(self, f.name)]
        }


def bound_formulas(
    w0: float, m0: float, VB: float, dB: int, nb: int
) -> tuple[float, float, float]:
    """(unit, general, extended) bounds from the boundary quantities and |B|.

    Every bound is +inf (vacuous) when ``nb < 2``; over arrays, elementwise.
    """
    if np.ndim(nb) == 0 and nb < 2:
        return INF, INF, INF
    return (
        nb / ((nb - 1) ** 2 * dB),
        w0 / (dB * VB),
        w0 * VB / ((VB - m0) ** 2 * dB),
    )


def compute_bound_report(g: WeightedBoundaryGraph) -> BoundReport:
    """The bound report of g, computed; :func:`bound_report` reads it once
    per graph from ``g.analysis``.

    With |B| <= 1, d_B is 0, every bound is +inf and sigma_2 is +inf.
    """
    analysis = g.analysis
    bm = g.measures[analysis.bidx]
    w0 = float(g.edge_arrays[2].min(initial=INF))
    with np.errstate(over="ignore"):  # an infinite V_B is reported below
        VB = float(bm.sum())
    m0, dB = float(bm.min(initial=INF)), analysis.boundary_hops[0]
    sigma2 = steklov_spectrum(g).sigma(2)
    nb = len(g.boundary)
    if nb >= 2:
        _require_in_range(VB=VB, **{"(V_B - m0)^2": (VB - m0) * (VB - m0)})
    b_unit, b_general, b_extended = bound_formulas(w0, m0, VB, dB, nb)
    if nb >= 2:
        _require_in_range(bound_unit=b_unit, bound_general=b_general,
                          bound_extended=b_extended, sigma2=sigma2)
    return BoundReport(
        w0=w0, m0=m0, VB=VB, dB=dB,
        bound_unit=b_unit, bound_unit_applicable=_unit_applicable(g),
        bound_general=b_general, bound_extended=b_extended,
        sigma2=sigma2, gap_extended=float(sigma2 - b_extended),
    )


def _require_in_range(**values: float) -> None:
    """Raise :class:`NumericsError` for the first value that is zero or not
    finite: an overflow or underflow of binary64 at this scale."""
    for name, value in values.items():
        if not 0.0 < abs(value) < INF:
            raise NumericsError(f"{name} = {value!r} is out of binary64 range")


def bound_report(g: WeightedBoundaryGraph) -> BoundReport:
    """All bounds plus the computed sigma_2 and its gap over the extended bound.

    ``gap_extended`` is ``sigma2 - bound_extended`` in float arithmetic, so a
    report for |B| < 2 (both values +inf) carries gap NaN.  The report is
    computed once per graph and kept on ``g.analysis``.
    """
    return g.analysis.bound_report


def boundary_quantities(
    g: WeightedBoundaryGraph,
) -> tuple[float, float, float, int]:
    """(w0, m0, V_B, d_B) for a connected graph with at least 2 boundary vertices."""
    if len(g.boundary) < 2:
        raise GraphError("boundary quantities need at least 2 boundary vertices")
    r = bound_report(g)
    return r.w0, r.m0, r.VB, r.dB


def has_boundary_edge(g: WeightedBoundaryGraph) -> bool:
    """True iff some edge joins two boundary vertices."""
    u, v, _ = g.edge_arrays
    return bool((g.boundary_mask[u] & g.boundary_mask[v]).any())


def _unit_applicable(g: WeightedBoundaryGraph) -> bool:
    return len(g.boundary) >= 2 and g.is_unit_weighted() and not has_boundary_edge(g)

