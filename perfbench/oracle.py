"""Reference answers for the benchmark, written with numpy and scipy only.

Nothing here imports ``steklov``: graphs are read back from the JSON files
the program is given, the Steklov matrix is the Schur complement formed with
an explicit inverse of the interior block, the spectrum comes from the
generalized symmetric problem ``S v = sigma M_B v``, and boundary distances
come from a breadth-first search out of the boundary vertices.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np
import scipy.linalg

# Relative tolerances, each against the natural scale of its quantity.
EIG_RTOL = 1e-8       # eigenvalues, against the largest eigenvalue
FORMULA_RTOL = 1e-12  # closed-form bounds from exactly known quantities
HARMONIC_RTOL = 1e-8  # harmonic extension, against the largest boundary value
COMB_RTOL = 1e-8      # sigma_2 of a comb against 2 w / (m L)


class GraphOracle:
    """Dense reference analysis of one graph JSON document."""

    def __init__(self, text: str):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path

        doc = json.loads(text)
        labels = sorted(row["id"] for row in doc["vertices"])
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        self.labels = labels
        self.measures = np.empty(n)
        is_boundary = np.zeros(n, dtype=bool)
        for row in doc["vertices"]:
            i = index[row["id"]]
            self.measures[i] = float(row["m"])
            is_boundary[i] = row["boundary"]
        u = np.array([index[row["u"]] for row in doc["edges"]], dtype=np.intp)
        v = np.array([index[row["v"]] for row in doc["edges"]], dtype=np.intp)
        w = np.array([float(row["w"]) for row in doc["edges"]])
        self.boundary = np.flatnonzero(is_boundary)
        self.interior = np.flatnonzero(~is_boundary)
        self.edges = (u, v, w)

        lap = np.zeros((n, n))
        np.add.at(lap, (u, v), -w)
        np.add.at(lap, (v, u), -w)
        lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
        b, o = self.boundary, self.interior
        l_bb = lap[np.ix_(b, b)]
        if len(o):
            l_ob = lap[np.ix_(o, b)]
            self._interior_map = np.linalg.inv(lap[np.ix_(o, o)]) @ l_ob
            schur = l_bb - l_ob.T @ self._interior_map
        else:
            self._interior_map = np.zeros((0, len(b)))
            schur = l_bb
        schur = 0.5 * (schur + schur.T)
        self.mass_b = self.measures[b]
        self.eigenvalues = scipy.linalg.eigh(
            schur, np.diag(self.mass_b), eigvals_only=True
        )

        adj = coo_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])), shape=(n, n))
        hops = shortest_path(adj.tocsr(), unweighted=True, indices=b)
        self.d_b = int(hops[:, b].max())

        nb = len(b)
        self.w0 = float(w.min())
        self.m0 = float(self.mass_b.min())
        self.v_b = float(self.mass_b.sum())
        self.bound_unit = nb / ((nb - 1) ** 2 * self.d_b)
        self.bound_general = self.w0 / (self.d_b * self.v_b)
        self.bound_extended = self.w0 * self.v_b / ((self.v_b - self.m0) ** 2 * self.d_b)
        unit = bool(np.all(self.measures == 1.0) and np.all(w == 1.0))
        self.bound_unit_applicable = unit and not np.any(is_boundary[u] & is_boundary[v])

    @property
    def sigma2(self) -> float:
        return float(self.eigenvalues[1])

    def harmonic(self, values: dict) -> np.ndarray:
        """Harmonic extension of boundary values given as label -> number."""
        f = np.array([values[self.labels[i]] for i in self.boundary])
        out = np.empty(len(self.labels))
        out[self.boundary] = f
        out[self.interior] = -self._interior_map @ f
        return out


def _close(a: float, b: float, rtol: float, scale: float) -> bool:
    return abs(a - b) <= rtol * scale


def check_cli_output(
    command: str,
    oracle: GraphOracle,
    stdout: str,
    values: dict | None = None,
    comb: tuple[float, float, int] | None = None,
) -> list[str]:
    """Mismatches between one CLI answer and the reference; empty means correct.

    ``comb`` is ``(path_weight, endpoint_mass, path_len)`` for graphs built as
    combs, which must attain equality with ``sigma_2 = 2 w / (m L)``.
    """
    doc = json.loads(stdout)
    eig_scale = float(np.abs(oracle.eigenvalues).max())
    bad: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    def sigma2_and_bound(report: dict) -> None:
        expect(_close(report["sigma2"], oracle.sigma2, EIG_RTOL, eig_scale), "sigma2")
        expect(
            _close(report["bound_extended"], oracle.bound_extended, FORMULA_RTOL,
                   oracle.bound_extended),
            "bound_extended",
        )

    if command == "spectrum":
        expect(doc["boundary"] == [oracle.labels[i] for i in oracle.boundary], "boundary")
        got = np.asarray(doc["eigenvalues"], dtype=float)
        expect(
            got.shape == oracle.eigenvalues.shape
            and bool(np.all(np.abs(got - oracle.eigenvalues) <= EIG_RTOL * eig_scale)),
            "eigenvalues",
        )
    elif command == "bounds":
        expect(doc["dB"] == oracle.d_b, "dB")
        expect(doc["w0"] == oracle.w0, "w0")
        expect(doc["m0"] == oracle.m0, "m0")
        expect(_close(doc["VB"], oracle.v_b, FORMULA_RTOL, oracle.v_b), "VB")
        for key, ref in (("bound_unit", oracle.bound_unit),
                         ("bound_general", oracle.bound_general)):
            expect(_close(doc[key], ref, FORMULA_RTOL, ref), key)
        expect(doc["bound_unit_applicable"] == oracle.bound_unit_applicable,
               "bound_unit_applicable")
        sigma2_and_bound(doc)
        expect(
            _close(doc["gap_extended"], oracle.sigma2 - oracle.bound_extended,
                   EIG_RTOL, eig_scale),
            "gap_extended",
        )
    elif command == "rigidity":
        sigma2_and_bound(doc)
        if comb is None:
            expect(not doc["cond_boundary"] and not doc["certified_equality"],
                   "certified_equality")
            expect(not doc["equality"], "equality")
        else:
            weight, mass, length = comb
            expect(doc["certified_equality"] is True, "certified_equality")
            expect(doc["equality"] is True, "equality")
            exact = 2.0 * weight / (mass * length)
            expect(_close(oracle.sigma2, exact, COMB_RTOL, exact), "oracle comb sigma2")
            expect(_close(doc["sigma2"], exact, COMB_RTOL, exact), "comb sigma2")
            witness = doc["witness"] or {}
            expect(witness.get("vertices") == oracle.labels[: length + 1], "witness")
    elif command == "harmonic":
        ref = oracle.harmonic(values)
        got = np.array([doc.get(lab, np.nan) for lab in oracle.labels], dtype=float)
        scale = max(abs(v) for v in values.values())
        expect(
            len(doc) == len(oracle.labels)
            and bool(np.all(np.abs(got - ref) <= HARMONIC_RTOL * scale)),
            "harmonic values",
        )
    else:
        bad.append(f"unknown command {command}")
    return bad


def connected_labeled_graphs(n: int) -> int:
    """Connected labeled simple graphs on n vertices (OEIS A001187)."""
    counts = [0, 1]
    for m in range(2, n + 1):
        total = 2 ** comb(m, 2)
        for k in range(1, m):
            total -= comb(m - 1, k - 1) * counts[k] * 2 ** comb(m - k, 2)
        counts.append(total)
    return counts[n]


def exhaustive_instance_count(n_max: int) -> int:
    """Connected labeled graphs on 2..n_max vertices times boundary subsets of size >= 2."""
    return sum(
        connected_labeled_graphs(n) * (2**n - n - 1) for n in range(2, n_max + 1)
    )
