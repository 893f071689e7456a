"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each ``steklov`` module, at every
name under which a ``steklov`` module holds them, with wrappers that count
calls and record self time (duration minus the time of wrapped calls made
inside it).  The ``kernel`` layer is the LAPACK entry points the code calls:
``cho_factor`` and ``cho_solve`` as imported into ``steklov.spectral``, and
``numpy.linalg.eigh``, ``eigvalsh`` and ``solve``.  For kernel calls the
tracer also adds up an operation count computed from the argument shapes.
Nothing in ``src/`` is changed; :meth:`Tracer.uninstall` restores every name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from math import prod
from time import perf_counter

import numpy as np

# Layer name -> (module that defines or imports the function, function names).
LAYERS = {
    "cli": ("steklov.cli", ("main",)),
    "graph": ("steklov.graph", (
        "parse_graph", "graph_from_arrays", "is_connected",
        "hop_distance_matrix", "all_geodesics",
    )),
    "spectral": ("steklov.spectral", (
        "laplacian", "steklov_system", "steklov_spectrum", "harmonic_extension",
    )),
    "kernel": None,
    "bounds": ("steklov.bounds", ("bound_report", "boundary_quantities")),
    "rigidity": ("steklov.rigidity", ("check_rigidity", "is_comb_over")),
    "corpus": ("steklov.corpus", ("verify_corpus", "check_instance", "random_graph")),
}
KERNEL_SOURCES = {
    "cho_factor": "steklov.spectral",
    "cho_solve": "steklov.spectral",
    "eigh": "numpy.linalg",
    "eigvalsh": "numpy.linalg",
    "solve": "numpy.linalg",
}


def _batch(shape) -> int:
    return prod(shape[:-2])


def _columns(shape) -> int:
    return 1 if len(shape) == 1 else shape[-1]


# Floating-point operations of one call, from the shapes of its arguments.
# These are the standard dense counts (Golub & Van Loan, "Matrix
# Computations"): Cholesky n^3/3, LU 2n^3/3, two triangular solves 2n^2 per
# right-hand side, symmetric eigenvalues 4n^3/3 and with eigenvectors 9n^3.
def _flops_cho_factor(a, *args, **kwargs):
    n = np.shape(a)[-1]
    return n**3 / 3


def _flops_cho_solve(c_and_lower, b, *args, **kwargs):
    n = np.shape(c_and_lower[0])[-1]
    return 2 * n**2 * _columns(np.shape(b))


def _flops_eigh(a, *args, **kwargs):
    shape = np.shape(a)
    return _batch(shape) * 9 * shape[-1] ** 3


def _flops_eigvalsh(a, *args, **kwargs):
    shape = np.shape(a)
    return _batch(shape) * 4 * shape[-1] ** 3 / 3


def _flops_solve(a, b, *args, **kwargs):
    shape, b_shape = np.shape(a), np.shape(b)
    n = shape[-1]
    columns = 1 if len(b_shape) == 1 else b_shape[-1]
    return _batch(shape) * (2 * n**3 / 3 + 2 * n**2 * columns)


KERNEL_FLOPS = {
    "cho_factor": _flops_cho_factor,
    "cho_solve": _flops_cho_solve,
    "eigh": _flops_eigh,
    "eigvalsh": _flops_eigvalsh,
    "solve": _flops_solve,
}


def traced_names() -> list[str]:
    """Every traced function as ``<layer>.<fn>``, in layer order."""
    names = []
    for layer, spec in LAYERS.items():
        fns = KERNEL_SOURCES if spec is None else spec[1]
        names.extend(f"{layer}.{fn}" for fn in fns)
    return names


class Tracer:
    """Counts, self times and kernel operation counts of wrapped functions."""

    def __init__(self):
        self.calls = dict.fromkeys(traced_names(), 0)
        self.self_s = dict.fromkeys(traced_names(), 0.0)
        self.flops = dict.fromkeys(KERNEL_FLOPS, 0.0)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, flops=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        kernel = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                if flops is not None:
                    self.flops[kernel] += flops(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a steklov module names it."""
        targets = []
        for layer, spec in LAYERS.items():
            if spec is None:
                for fn, source in KERNEL_SOURCES.items():
                    targets.append((f"kernel.{fn}", importlib.import_module(source), fn,
                                    KERNEL_FLOPS[fn]))
            else:
                module, fns = spec
                source = importlib.import_module(module)
                targets.extend((f"{layer}.{fn}", source, fn, None) for fn in fns)
        holders = [
            mod for key, mod in list(sys.modules.items())
            if key == "steklov" or key.startswith("steklov.")
        ]
        for name, source, attr, flops in targets:
            original = getattr(source, attr)
            wrapper = self._wrap(name, original, flops)
            for holder in {id(m): m for m in [source, *holders]}.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
