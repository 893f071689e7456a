"""Command-line front end: JSON graphs in, JSON analysis out.

Exit codes are a stable contract: 0 for a successful analysis (including
"not rigid") or a verify run with no violations, 1 when verify finds
violations, 2 for usage or input errors.  Standard output carries only JSON;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import bound_report
from .corpus import CorpusSpec, count_exhaustive_instances, verify_corpus
from .graph import (
    GraphError,
    WeightedBoundaryGraph,
    boundary_vector,
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
    p.add_argument("--n-max", type=int, default=6)
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
    print(json.dumps(doc, allow_nan=False))


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


_TOOTH_VERTEX_KEYS = {"id", "m"}
_TOOTH_EDGE_KEYS = {"u", "v", "w"}
_TOOTH_ATTACH_KEYS = {"v", "path_index", "w"}


def _parse_teeth_file(path: str) -> ToothSet:
    """Teeth document: {"vertices": [{"id","m"}], "edges": [{"u","v","w"}],
    "attachments": [{"v","path_index","w"}]}."""
    doc = load_json(_read_text(path), "teeth file: ")
    if not isinstance(doc, dict):
        raise GraphError("teeth file: top level must be an object")
    extra = set(doc) - {"vertices", "edges", "attachments"}
    if extra:
        raise GraphError(f"teeth file: unknown field {sorted(extra)[0]!r}")
    for key in ("vertices", "edges", "attachments"):
        if not isinstance(doc.setdefault(key, []), list):
            raise GraphError(f"teeth file: {key} must be an array")
    ids: dict[str, int] = {}
    measures: list[float] = []
    for i, row in enumerate(doc["vertices"]):
        if not isinstance(row, dict) or set(row) != _TOOTH_VERTEX_KEYS:
            raise GraphError(f"teeth file: vertices[{i}] must have fields id, m")
        if not isinstance(row["id"], str):
            raise GraphError(f"teeth file: vertices[{i}]: id must be a string")
        if row["id"] in ids:
            raise GraphError(f"teeth file: duplicate tooth vertex {row['id']!r}")
        ids[row["id"]] = len(measures)
        measures.append(_number(row["m"], f"teeth file: vertices[{i}]: m"))

    def tooth_id(label, where):
        if not isinstance(label, str) or label not in ids:
            raise GraphError(f"teeth file: {where}: unknown tooth vertex {label!r}")
        return ids[label]

    edges = []
    for i, row in enumerate(doc["edges"]):
        if not isinstance(row, dict) or set(row) != _TOOTH_EDGE_KEYS:
            raise GraphError(f"teeth file: edges[{i}] must have fields u, v, w")
        edges.append(
            (
                tooth_id(row["u"], f"edges[{i}]"),
                tooth_id(row["v"], f"edges[{i}]"),
                _number(row["w"], f"teeth file: edges[{i}]: w"),
            )
        )
    attachments = []
    for i, row in enumerate(doc["attachments"]):
        if not isinstance(row, dict) or set(row) != _TOOTH_ATTACH_KEYS:
            raise GraphError(
                f"teeth file: attachments[{i}] must have fields v, path_index, w"
            )
        if isinstance(row["path_index"], bool) or not isinstance(row["path_index"], int):
            raise GraphError(f"teeth file: attachments[{i}]: path_index must be an integer")
        attachments.append(
            (tooth_id(row["v"], f"attachments[{i}]"), row["path_index"],
             _number(row["w"], f"teeth file: attachments[{i}]: w"))
        )
    return ToothSet(
        measures=tuple(measures), edges=tuple(edges), attachments=tuple(attachments)
    )


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
    u = harmonic_extension(g, boundary_vector(g, values))
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
    records = verify_corpus(spec)
    for record in records:
        print(json.dumps(record.to_json_dict(), allow_nan=False))
    instances = (
        spec.samples if spec.mode == "random"
        else count_exhaustive_instances(spec.n_max)
    )
    summary = {
        "summary": True,
        "mode": spec.mode,
        "instances": instances,
        "violations": len(records),
        "seed": spec.seed,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 1 if records else 0


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
