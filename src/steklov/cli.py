"""Command-line front end: JSON graphs in, JSON analysis out.

Exit codes are a stable contract: 0 for a successful analysis (including
"not rigid") or a verify run with no violations, 1 when verify finds
violations, 2 for usage or input errors.  Standard output carries only JSON;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import bound_report
from .corpus import (RANDOM_N_MAX, CorpusSpec, count_class_rows, count_exhaustive_instances,
                     iter_violations)
from .graph import (
    Check,
    GraphError,
    WeightedBoundaryGraph,
    _first_fault,
    _json_columns,
    _number_column,
    graph_to_json,
    load_json,
    parse_graph,
)
from .rigidity import (
    EQUALITY_TOL,
    ToothSet,
    check_rigidity,
    comb_graph,
    random_comb,
    report_json,
)
from .spectral import NumericsError, harmonic_extension, steklov_spectrum


@functools.cache  # parse_args leaves the parser as it found it, so one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Steklov spectra, sigma_2 lower bounds and equality "
        "certification for weighted graphs with boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Steklov eigenvalues of a graph")
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("bounds", help="boundary quantities and sigma_2 bounds")
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("rigidity", help="equality check and structural certificate")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--tol", type=float, default=EQUALITY_TOL,
                   help="tolerance for numeric equality of sigma_2 with the "
                        "extended bound, relative to the bound")
    p.add_argument("--weight-tol", type=float, default=0.0,
                   help="relative tolerance for stored weight/measure "
                        "comparisons (default: bitwise equality)")

    p = sub.add_parser("harmonic", help="harmonic extension of boundary values")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--values", required=True,
                   help="JSON file mapping boundary labels to values")

    p = sub.add_parser("generate-comb", help="build a certified equality instance")
    p.add_argument("--path-len", type=int, required=True)
    p.add_argument("--path-weight", type=float, required=True)
    p.add_argument("--endpoint-mass", type=float, required=True)
    p.add_argument("--teeth", help="teeth JSON file (otherwise random teeth)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="brute-force corpus verification")
    p.add_argument("--mode", choices=("random", "exhaustive"), required=True)
    p.add_argument("--n-max", type=int, default=6,
                   help=f"largest n: 2..7 exhaustive, 2..{RANDOM_N_MAX} random")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-only", action="store_true")
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> WeightedBoundaryGraph:
    return parse_graph(_read_text(path))


def _emit(doc) -> None:
    print(json.dumps(doc, allow_nan=False), flush=True)


def _number(value, what: str) -> float:
    """A JSON number as a finite binary64; anything else is an input error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphError(f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise GraphError(f"{what} is too large for binary64") from None
    if not math.isfinite(value):  # JSON readers accept NaN and Infinity
        raise GraphError(f"{what} must be finite, got {value!r}")
    return value


def _parse_values_file(g: WeightedBoundaryGraph, path: str) -> dict[int, float]:
    doc = load_json(_read_text(path), "values file: ")
    if not isinstance(doc, dict):
        raise GraphError("values file: must be a JSON object of label -> number")
    values: dict[int, float] = {}
    for label, value in doc.items():
        if label not in g.label_to_id:
            raise GraphError(f"values file: unknown vertex {label!r}")
        values[g.label_to_id[label]] = _number(value, f"values file: value for {label!r}")
    return values


def _tooth_ids(column, ids: dict[str, int], where: str) -> tuple[list[int], Check]:
    """The tooth ids a column of labels names, with the check that each
    label names a tooth vertex."""
    known = [isinstance(label, str) and label in ids for label in column]
    return [ids[label] if k else -1 for label, k in zip(column, known)], (
        ~np.array(known, dtype=bool),
        lambda i: f"teeth file: {where}[{i}]: unknown tooth vertex {column[i]!r}")


def _parse_teeth_file(path: str) -> ToothSet:
    """Teeth document: {"vertices": [{"id","m"}], "edges": [{"u","v","w"}],
    "attachments": [{"v","path_index","w"}]}.  Rows are validated column by
    column like those of a graph document, and the first offending row of
    each array is reported."""
    doc = load_json(_read_text(path), "teeth file: ")
    if not isinstance(doc, dict):
        raise GraphError("teeth file: top level must be an object")
    extra = set(doc) - {"vertices", "edges", "attachments"}
    if extra:
        raise GraphError(f"teeth file: unknown field {sorted(extra)[0]!r}")
    for key in ("vertices", "edges", "attachments"):
        if not isinstance(doc.setdefault(key, []), list):
            raise GraphError(f"teeth file: {key} must be an array")
    labels, measures = _json_columns(doc["vertices"], ("id", "m"), {"id": str},
                                     "teeth file: vertices")
    ids: dict[str, int] = {}
    repeat = np.array([ids.setdefault(label, i) != i for i, label in enumerate(labels)],
                      dtype=bool)
    m, m_checks = _number_column(measures, "measure", "teeth file: vertices")
    _first_fault([(repeat, lambda i: f"teeth file: duplicate tooth vertex {labels[i]!r}"),
                  *m_checks])

    tails, heads, weights = _json_columns(doc["edges"], ("u", "v", "w"), {},
                                          "teeth file: edges")
    (u, u_check), (v, v_check) = (_tooth_ids(c, ids, "edges") for c in (tails, heads))
    w, w_checks = _number_column(weights, "weight", "teeth file: edges")
    _first_fault([u_check, v_check, *w_checks])

    teeth, indices, weights = _json_columns(doc["attachments"], ("v", "path_index", "w"),
                                            {}, "teeth file: attachments")
    not_int = np.array([isinstance(p, bool) or not isinstance(p, int) for p in indices],
                       dtype=bool)
    t, t_check = _tooth_ids(teeth, ids, "attachments")
    aw, aw_checks = _number_column(weights, "weight", "teeth file: attachments")
    _first_fault([
        (not_int, lambda i: f"teeth file: attachments[{i}]: path_index must be an integer"),
        t_check, *aw_checks])
    return ToothSet(measures=tuple(m.tolist()), edges=tuple(zip(u, v, w.tolist())),
                    attachments=tuple(zip(t, indices, aw.tolist())))


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    _emit(steklov_spectrum(g).to_json_dict(g))
    return 0


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    _emit(bound_report(g).to_json_dict())
    return 0


def _cmd_rigidity(args) -> int:
    g = _load_graph(args.graph)
    report = check_rigidity(g, tol=args.tol, weight_tol=args.weight_tol)
    _emit(report_json(g, report))
    return 0


def _cmd_harmonic(args) -> int:
    g = _load_graph(args.graph)
    values = _parse_values_file(g, args.values)
    u = harmonic_extension(g, values)
    _emit({lab: float(u[i]) for i, lab in enumerate(g.labels)})
    return 0


def _cmd_generate_comb(args) -> int:
    if args.teeth is not None:
        teeth = _parse_teeth_file(args.teeth)
        g = comb_graph(
            path_len=args.path_len,
            path_weight=args.path_weight,
            endpoint_mass=args.endpoint_mass,
            teeth=teeth,
        )
    else:
        g = random_comb(
            path_len=args.path_len,
            path_weight=args.path_weight,
            endpoint_mass=args.endpoint_mass,
            seed=args.seed,
        )
        print(f"generate-comb: seed={args.seed}", file=sys.stderr)
    print(graph_to_json(g))
    return 0


def _cmd_verify(args) -> int:
    spec = CorpusSpec(
        mode=args.mode,
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        unit_only=args.unit_only,
    )
    violations = 0
    for violations, record in enumerate(iter_violations(spec), 1):  # each as it is found
        _emit(record.to_json_dict())
    summary = {"summary": True, "mode": spec.mode, "instances": spec.samples}
    if spec.mode == "exhaustive":
        summary["instances"] = count_exhaustive_instances(spec.n_max)
        summary["class_rows"] = count_class_rows(spec.n_max)
    summary.update(violations=violations, seed=spec.seed)
    print(json.dumps(summary), file=sys.stderr)
    return 1 if violations else 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "bounds": _cmd_bounds,
    "rigidity": _cmd_rigidity,
    "harmonic": _cmd_harmonic,
    "generate-comb": _cmd_generate_comb,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphError, NumericsError) as exc:
        print(f"steklov: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"steklov: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
