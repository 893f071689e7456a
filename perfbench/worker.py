"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this file in a fresh interpreter for every set-up it
measures.  Nothing heavy is imported before the set-up clock starts, so
``setup_s`` covers importing the program (numpy and scipy included),
generating the inputs with steklov's own generators and one warm-up op.

An op is one instance analysed: on ``single_graph`` one in-process
``steklov.cli.main`` call on one graph file, on the corpora one labeled
instance verified.  Corpus ops run in batches, one ``verify_corpus`` call
each, and a batch's latency is shared out evenly over its instances.

The process prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# single_graph inputs.  Sizes are fixed so that the cost of an op does not
# depend on the seed; the seed draws weights, measures, teeth and edges.
GRID_SIDES = (20, 25, 30)           # weighted k x k grids, perimeter boundary
COMB_LENGTHS = (80, 120, 160)       # random combs, |B| = 2, unique geodesic
COMB_MAX_TOOTH = 3                  # small teeth keep the diameter near L
HEAVY_GRAPHS = ((400, 300, 0.03), (400, 300, 0.04), (400, 300, 0.05))  # n, |B|, p
COMMANDS = ("bounds", "spectrum", "rigidity", "harmonic")
VALUE_RANGE = (0.5, 2.0)            # weights and measures

RANDOM_BATCH = 100                  # random instances per verify_corpus call
RANDOM_WARMUP = 1000                # random instances in the warm-up call
RANDOM_N_MAX = 30
RANDOM_TRACE_BATCHES = 20
EXHAUSTIVE_N_MAX = 6
EXHAUSTIVE_WARMUP_N_MAX = 5


def import_program():
    """Import steklov from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import steklov
    import steklov.cli

    if Path(steklov.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"steklov imported from {steklov.__file__}, not from {src}")
    return steklov


class Outcome:
    """What one op, or one batch of ops, returned."""

    __slots__ = ("seconds", "instances", "output")

    def __init__(self, seconds: float, instances: int, output: str):
        self.seconds = seconds
        self.instances = instances
        self.output = output


def _error(exc: BaseException) -> str:
    return "error: " + "".join(traceback.format_exception_only(type(exc), exc)).strip()


class SingleGraph:
    """CLI calls on grids, combs and boundary-heavy random graphs."""

    def __init__(self, steklov, seed: int, workdir: Path):
        import numpy as np

        self.steklov = steklov
        rng = np.random.default_rng([seed, 0])
        self.graphs: dict[str, dict] = {}
        for k in GRID_SIDES:
            self._add(f"grid{k}", self._grid(k, rng), workdir, rng)
        for length in COMB_LENGTHS:
            weight, mass = (float(x) for x in rng.uniform(*VALUE_RANGE, size=2))
            g = steklov.random_comb(
                path_len=length, path_weight=weight, endpoint_mass=mass,
                seed=rng, max_tooth_vertices=COMB_MAX_TOOTH,
            )
            self._add(f"comb{length}", g, workdir, rng, comb=(weight, mass, length))
        for i, (n, nb, p) in enumerate(HEAVY_GRAPHS):
            g = steklov.random_graph(n, p, VALUE_RANGE, VALUE_RANGE, nb, rng)
            self._add(f"heavy{i}", g, workdir, rng)
        self.round = [
            (name, command) for name in self.graphs for command in COMMANDS
        ]

    def _grid(self, k: int, rng):
        vid = lambda i, j: i * k + j  # noqa: E731
        edges = [(vid(i, j), vid(i, j + 1)) for i in range(k) for j in range(k - 1)]
        edges += [(vid(i, j), vid(i + 1, j)) for i in range(k - 1) for j in range(k)]
        weights = rng.uniform(*VALUE_RANGE, size=len(edges))
        boundary = [vid(i, j) for i in range(k) for j in range(k)
                    if i in (0, k - 1) or j in (0, k - 1)]
        return self.steklov.graph_from_arrays(
            measures=rng.uniform(*VALUE_RANGE, size=k * k),
            boundary=boundary,
            edges=[(a, b, float(w)) for (a, b), w in zip(edges, weights)],
        )

    def _add(self, name, g, workdir: Path, rng, comb=None) -> None:
        path = workdir / f"{name}.json"
        path.write_text(self.steklov.graph_to_json(g))
        values = {g.labels[b]: float(x)
                  for b, x in zip(g.boundary, rng.standard_normal(len(g.boundary)))}
        values_path = workdir / f"{name}.values.json"
        values_path.write_text(json.dumps(values))
        self.graphs[name] = {"path": str(path), "values_path": str(values_path),
                             "values": values, "comb": comb}

    def warmup_op(self):
        return (f"grid{GRID_SIDES[-1]}", "bounds")

    def rounds(self, worker: int):
        while True:
            yield self.round

    def trace_ops(self):
        return list(self.round)

    def key(self, op) -> str:
        return "/".join(op)

    def instances(self, op) -> int:
        return 1

    def run(self, op) -> Outcome:
        name, command = op
        info = self.graphs[name]
        argv = [command, info["path"]]
        if command == "harmonic":
            argv += ["--values", info["values_path"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.steklov.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = _error(exc)
            seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds, 1, f"exit {code}: {err.getvalue().strip()}")
        return Outcome(seconds, 1, out.getvalue())

    def failed_instances(self, op, output: str, count: int) -> tuple[int, list[str]]:
        """Instances among ``count`` identical outputs of ``op`` that are wrong."""
        from oracle import check_cli_output

        name, command = op
        info = self.graphs[name]
        try:
            problems = check_cli_output(
                command, self._oracle(name), output,
                values=info["values"], comb=info["comb"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output ({_error(exc)})"]
        return (count if problems else 0), problems

    def _oracle(self, name: str):
        from oracle import GraphOracle

        info = self.graphs[name]
        if "oracle" not in info:
            info["oracle"] = GraphOracle(Path(info["path"]).read_text())
        return info["oracle"]


class Corpus:
    """``verify_corpus`` batches; every instance must pass every check."""

    def __init__(self, steklov, seed: int, mode: str):
        self.steklov = steklov
        self.seed = seed
        self.mode = mode

    def spec(self, *path: int, samples: int = RANDOM_BATCH, n_max: int = EXHAUSTIVE_N_MAX):
        """Corpus spec whose seed is derived from the benchmark seed and ``path``."""
        import numpy as np

        corpus_seed = int(np.random.SeedSequence([self.seed, *path]).generate_state(1)[0])
        if self.mode == "random":
            return self.steklov.CorpusSpec(
                mode="random", n_max=RANDOM_N_MAX, samples=samples,
                seed=corpus_seed,
            )
        return self.steklov.CorpusSpec(
            mode="exhaustive", n_max=n_max, unit_only=True,
            seed=corpus_seed,
        )

    def instances(self, spec) -> int:
        if spec.mode == "random":
            return spec.samples
        # The labeled count, so an engine that covers the same set by another
        # route (isomorph-free, say) is credited with the same instances.
        from oracle import exhaustive_instance_count

        return exhaustive_instance_count(spec.n_max)

    def warmup_op(self):
        # A random-mode process keeps speeding up for about two seconds after
        # its first batch, so its warm-up batch is larger than a timed one.
        # The exhaustive warm-up runs the same engine on the n <= 5 corpus:
        # the full corpus would add 7 s to every set-up.
        return self.spec(1, 0, samples=RANDOM_WARMUP, n_max=EXHAUSTIVE_WARMUP_N_MAX)

    def rounds(self, worker: int):
        batch = 0
        while True:
            yield [self.spec(2, worker, batch)]
            batch += 1

    def trace_ops(self):
        count = RANDOM_TRACE_BATCHES if self.mode == "random" else 2
        return [self.spec(3, batch) for batch in range(count)]

    def key(self, op) -> str:
        return f"{op.mode}/{op.seed}"

    def run(self, op) -> Outcome:
        instances = self.instances(op)
        start = perf_counter()
        try:
            records = self.steklov.verify_corpus(op)
        except Exception as exc:
            return Outcome(perf_counter() - start, instances, _error(exc))
        seconds = perf_counter() - start
        return Outcome(
            seconds, instances,
            json.dumps([r.to_json_dict() for r in records], sort_keys=True),
        )

    def failed_instances(self, op, output: str, count: int) -> tuple[int, list[str]]:
        instances = self.instances(op)
        if output.startswith("error: "):
            return count * instances, [output]
        problems = []
        if op.mode == "exhaustive":
            claimed = self.steklov.count_exhaustive_instances(op.n_max)
            if claimed != instances:
                problems.append(f"program counts {claimed} instances, not {instances}")
                return count * instances, problems
        records = json.loads(output)
        bad = {r["index"] for r in records}
        problems.extend(f"violation {r['check']} at instance {r['index']}" for r in records)
        return count * len(bad), problems


def make_workload(name: str, steklov, seed: int, workdir: Path):
    if name == "single_graph":
        return SingleGraph(steklov, seed, workdir)
    if name == "random_corpus":
        return Corpus(steklov, seed, "random")
    if name == "exhaustive_unit":
        return Corpus(steklov, seed, "exhaustive")
    raise ValueError(f"unknown workload {name!r}")


class Outputs:
    """Distinct outputs per op, with how often each was seen."""

    def __init__(self):
        self.seen: dict[str, tuple[object, dict[str, int]]] = {}

    def add(self, workload, op, output: str) -> None:
        _, counts = self.seen.setdefault(workload.key(op), (op, {}))
        counts[output] = counts.get(output, 0) + 1

    def check(self, workload) -> tuple[int, int, list[str]]:
        """(ops attempted, ops failed, first problems found)."""
        attempted = failed = 0
        problems: list[str] = []
        for key, (op, counts) in self.seen.items():
            for output, count in counts.items():
                bad, found = workload.failed_instances(op, output, count)
                attempted += count * workload.instances(op)
                failed += bad
                problems.extend(f"{key}: {p}" for p in found[:3])
        return attempted, failed, problems[:20]

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {key: counts for key, (_, counts) in self.seen.items()}


def blas_stamp() -> dict:
    """BLAS libraries loaded into this process, their build and thread count."""
    import ctypes

    import numpy as np

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = Path(path).name.lower()
            if "blas" in name and ".cpython-" not in name and path.startswith("/"):
                libs.add(path)
    loaded = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        loaded.append(entry)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_blas": f"{blas.get('name')} {blas.get('version')}", "loaded": loaded}


def stamp(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_stamp(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def measure(workload, share: float, worker: int) -> tuple[dict, list[Outputs]]:
    """Run whole rounds of timed ops until ``share`` seconds have passed."""
    outputs = Outputs()
    samples: list[float] = []
    instances = 0
    busy = 0.0
    start = perf_counter()
    for round_ops in workload.rounds(worker):
        for op in round_ops:
            outcome = workload.run(op)
            outputs.add(workload, op, outcome.output)
            samples.append(outcome.seconds / outcome.instances)
            instances += outcome.instances
            busy += outcome.seconds
        if perf_counter() - start >= share:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {"samples": samples, "instances": instances, "busy_s": busy,
               "peak_rss_mb": peak_rss_mb}
    return summary, [outputs]


def trace(workload) -> tuple[dict, list[Outputs]]:
    """Run each trace op untraced and traced, alternating which goes first."""
    from tracing import Tracer, traced_names

    ops = workload.trace_ops()
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    outputs = {"untraced": Outputs(), "traced": Outputs()}
    for i, op in enumerate(ops):
        for label in ("untraced", "traced")[:: 1 if i % 2 == 0 else -1]:
            context = tracer if label == "traced" else contextlib.nullcontext()
            with context:
                start = perf_counter()
                output = workload.run(op).output
                walls[label] += perf_counter() - start
            outputs[label].add(workload, op, output)
    per_op = sum(workload.instances(op) for op in ops)
    metrics = {}
    for name in traced_names():
        metrics[f"{name}.calls_per_op"] = (tracer.calls[name] / per_op, "count")
        metrics[f"{name}.self_s_per_op"] = (tracer.self_s[name] / per_op, "s")
    for fn, flops in tracer.flops.items():
        metrics[f"kernel.{fn}.gflop_per_op"] = (flops / 1e9 / per_op, "GFLOP")
    overhead = walls["traced"] - walls["untraced"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / walls["untraced"], "ratio")
    self_total = sum(tracer.self_s.values())
    checks = []
    if self_total > walls["traced"]:
        checks.append(f"self times sum to {self_total:.6f} s, over the traced wall "
                      f"{walls['traced']:.6f} s")
    if outputs["traced"].as_dict() != outputs["untraced"].as_dict():
        checks.append("traced outputs differ from untraced outputs")
    summary = {"metrics": metrics, "checks": checks, "walls": walls,
               "self_total_s": self_total, "ops": per_op}
    return summary, list(outputs.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, default=0.0,
                        help="seconds of timed ops for this process")
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    steklov = import_program()
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, steklov, args.seed, workdir)
        warm = Outputs()
        warm_op = workload.warmup_op()
        warm.add(workload, warm_op, workload.run(warm_op).output)
        setup_s = perf_counter() - start

        if args.trace:
            result, seen = trace(workload)
        else:
            result, seen = measure(workload, args.share, args.worker)
        result.update(setup_s=setup_s, stamp=stamp(args.seed),
                      attempted=0, failed=0, problems=[])
        for outputs in (warm, *seen):
            attempted, failed, problems = outputs.check(workload)
            result["attempted"] += attempted
            result["failed"] += failed
            result["problems"] += problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
