"""Spans and counters recorded around calls into cylvar's modules.

The tracer replaces module attributes at the points where callers look them
up, so the program itself is unchanged: ``optimizer.minimize`` and
``hamiltonian.energy`` as the optimizer and the CLI call them, the
quadrature, trial-function and Kummer-root helpers as ``hamiltonian`` binds
them, the Kummer series and the 2D eigensolver inside their own modules, and
``write_csv`` as the CLI binds it.  Spans stay in memory until ``dump``;
self time is derived from child spans afterwards.  Pool workers run in other
processes, so a traced scan must run with ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter

import cylvar.cli
from cylvar import hamiltonian, hydrogen2d, optimizer, specfun


def _energy_hook(counts, result):
    counts["hamiltonian.energy.invalid"] += not math.isfinite(result.total)


def _evaluate_hook(counts, result):
    counts["trialfn.evaluate.nodes"] += result.psi.size
    counts["trialfn.evaluate.bytes"] += (result.psi.nbytes
                                         + result.dpsi_drho.nbytes
                                         + result.dpsi_dz.nbytes)


def _grid_hook(counts, result):
    counts["quadrature.cylinder_grid.bytes"] += sum(a.nbytes for a in result)


def _minimize_hook(counts, result):
    counts["optimizer.minimize.evals"] += result.evals
    counts["optimizer.minimize.converged"] += result.converged


# (span name, module, attribute, result hook); a span name of a layer is
# "<module>.<function>" of the function's home module.
SPAN_TARGETS = (
    ("cli.main", cylvar.cli, "main", None),
    ("records.write_csv", cylvar.cli, "write_csv", None),
    ("optimizer.minimize", optimizer, "minimize", _minimize_hook),
    ("hamiltonian.energy", hamiltonian, "energy", _energy_hook),
    ("hamiltonian.observables", hamiltonian, "observables", None),
    ("hamiltonian.reference_energy", hamiltonian, "reference_energy", None),
    ("quadrature.cylinder_grid", hamiltonian, "cylinder_grid", _grid_hook),
    ("trialfn.evaluate", hamiltonian, "evaluate", _evaluate_hook),
    ("specfun.landau_cylinder_energy", hamiltonian,
     "landau_cylinder_energy", None),
    ("hydrogen2d.ground_energy_2d", hydrogen2d, "ground_energy_2d", None),
)

# Called hundreds of times per Kummer root in microseconds each: counted,
# not spanned, so the trace stays small and cheap.
COUNT_TARGETS = (
    ("specfun.kummer_m", specfun, "kummer_m"),
)


class Tracer:
    """Spans ``[name, start, end, parent index]`` plus per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _spanned(self, name, fn, hook):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counts, result)
            return result
        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, module, attr, hook in SPAN_TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._spanned(name, saved[-1][2], hook))
            for name, module, attr in COUNT_TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counted(name, saved[-1][2]))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def span_totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - inner
        return {name: tuple(t) for name, t in totals.items()}

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, s - t0, e - t0, p]
                                 for n, s, e, p in self.spans],
                       "counts": dict(self.counts)}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, points: int, traced_s: float,
                  untraced_s: float, parallel_efficiency: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``."""
    spans = tracer.span_totals()
    c = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    energy_calls = calls("hamiltonian.energy")
    roots = calls("specfun.landau_cylinder_energy")
    m = {}
    for name in ("quadrature.cylinder_grid", "trialfn.evaluate",
                 "hamiltonian.energy", "hamiltonian.observables",
                 "hamiltonian.reference_energy", "optimizer.minimize",
                 "specfun.landau_cylinder_energy",
                 "hydrogen2d.ground_energy_2d"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".busy_s"] = (busy(name), "s")
    for name in ("trialfn.evaluate", "hamiltonian.energy",
                 "specfun.landau_cylinder_energy",
                 "hydrogen2d.ground_energy_2d"):
        m[name + ".us_per_call"] = (1e6 * _ratio(busy(name), calls(name)),
                                    "us")
    m["quadrature.cylinder_grid.bytes_computed"] = (
        c["quadrature.cylinder_grid.bytes"], "bytes")
    m["quadrature.grids_per_eval"] = (
        _ratio(calls("quadrature.cylinder_grid"), energy_calls), "count")
    m["trialfn.evaluate.bytes_computed"] = (c["trialfn.evaluate.bytes"],
                                            "bytes")
    m["trialfn.nodes_per_s"] = (
        _ratio(c["trialfn.evaluate.nodes"], busy("trialfn.evaluate")), "1/s")
    m["hamiltonian.energy.self_s"] = (self_s("hamiltonian.energy"), "s")
    m["hamiltonian.energy.invalid_frac"] = (
        _ratio(c["hamiltonian.energy.invalid"], energy_calls), "ratio")
    m["optimizer.evals_per_point"] = (_ratio(energy_calls, points), "count")
    m["optimizer.useful_eval_frac"] = (
        _ratio(c["optimizer.minimize.evals"], energy_calls), "ratio")
    m["optimizer.converged_frac"] = (
        _ratio(c["optimizer.minimize.converged"],
               calls("optimizer.minimize")), "ratio")
    m["optimizer.parallel_efficiency"] = (parallel_efficiency, "ratio")
    m["specfun.landau_cylinder_energy.failed"] = (
        c["specfun.landau_cylinder_energy.failed"], "count")
    m["specfun.kummer_m.calls"] = (c["specfun.kummer_m.calls"], "count")
    m["specfun.kummer_evals_per_root"] = (
        _ratio(c["specfun.kummer_m.calls"], roots), "count")
    m["hydrogen2d.ground_energy_2d.failed"] = (
        c["hydrogen2d.ground_energy_2d.failed"], "count")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["records.write_csv.busy_s"] = (busy("records.write_csv"), "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m
