"""Span tracer that wraps spinpaths' public layer calls from the outside.

``Tracer`` patches each target named in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent span, request id) and, for a few
targets, an exact count taken from the call's arguments or result.  A
function imported elsewhere with ``from .x import y`` is a separate
binding, so every ``spinpaths`` module attribute that is the original
object is replaced, and put back by ``uninstall``.

Spans are kept in memory for the request in flight; ``end_request`` folds
them into per-name inclusive time and call counts and per-layer self time
(a span's duration minus the time its child spans cover), then drops them.
A layer is the module part of the span name (``qpoly.mul`` -> ``qpoly``).
``Point`` methods are too fine-grained to wrap; their time lands in the
self time of whichever layer calls them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); names in COUNT_ONLY count calls without a span
TARGETS = [
    ("spinpaths.cli", "main", "cli.main"),
    ("spinpaths.partition", "forward_table", "partition.forward_table"),
    ("spinpaths.partition", "backward_table", "partition.backward_table"),
    ("spinpaths.partition", "partition_dp", "partition.partition_dp"),
    ("spinpaths.partition", "partition_bruteforce", "partition.partition_bruteforce"),
    ("spinpaths.partition", "interface_closed_form", "partition.interface_closed_form"),
    ("spinpaths.partition", "translated_interface", "partition.translated_interface"),
    ("spinpaths.partition", "pinned_rep1", "partition.pinned_rep1"),
    ("spinpaths.partition", "pinned_rep2", "partition.pinned_rep2"),
    ("spinpaths.partition", "pinned_via_convolution", "partition.pinned_via_convolution"),
    ("spinpaths.partition", "rec1_sides", "partition.rec1_sides"),
    ("spinpaths.partition", "rec1_readings", "partition.rec1_readings"),
    ("spinpaths.partition", "rec2_rhs", "partition.rec2_rhs"),
    ("spinpaths.partition", "pinning_distribution", "partition.pinning_distribution"),
    ("spinpaths.partition", "verify_average_representation", "partition.ave"),
    ("spinpaths.qpoly", "LaurentPoly.__mul__", "qpoly.mul"),
    ("spinpaths.qpoly", "LaurentPoly.__rmul__", "qpoly.mul"),
    ("spinpaths.qpoly", "LaurentPoly.__add__", "qpoly.add"),
    ("spinpaths.qpoly", "LaurentPoly.__radd__", "qpoly.add"),
    ("spinpaths.qpoly", "LaurentPoly.div_exact", "qpoly.div_exact"),
    ("spinpaths.qpoly", "LaurentPoly.evaluate", "qpoly.evaluate"),
    ("spinpaths.qpoly", "qsquare_factorial_product", "qpoly.qsquare_factorial_product"),
    ("spinpaths.weights", "InterfaceXXZ.bond_weight", "weights.bond_weight"),
    ("spinpaths.weights", "PinnedRep1.bond_weight", "weights.bond_weight"),
    ("spinpaths.weights", "PinnedRep2.bond_weight", "weights.bond_weight"),
    ("spinpaths.weights", "CustomTable.bond_weight", "weights.bond_weight"),
    ("spinpaths.weights", "scheme_from_name", "weights.scheme_from_name"),
    ("spinpaths.lattice", "Bond.__post_init__", "lattice.bond_allocs"),
    ("spinpaths.lattice", "horizontal_bond", "lattice.horizontal_bond"),
    ("spinpaths.lattice", "vertical_bond", "lattice.vertical_bond"),
    ("spinpaths.lattice", "sphere", "lattice.sphere"),
    ("spinpaths.lattice", "enumerate_paths", "lattice.enumerate_paths"),
    ("spinpaths.lattice", "LatticePath.__post_init__", "lattice.LatticePath"),
    ("spinpaths.lattice", "LatticePath.text", "lattice.LatticePath.text"),
    ("spinpaths.lattice", "LatticePath.bonds", "lattice.LatticePath.bonds"),
    ("spinpaths.correlations", "conditioned_partition", "correlations.conditioned_partition"),
    ("spinpaths.correlations", "crossing_probability", "correlations.crossing_probability"),
    ("spinpaths.correlations", "magnetization_profile", "correlations.magnetization_profile"),
    ("spinpaths.sampler", "SamplerState.__init__", "sampler.SamplerState"),
    ("spinpaths.sampler", "sample_path", "sampler.sample_path"),
    ("spinpaths.sampler", "sample_step_matrix", "sampler.sample_step_matrix"),
    ("spinpaths.sampler", "estimate_crossing", "sampler.estimate_crossing"),
    ("spinpaths.spin", "sector_configs", "spin.sector_configs"),
    ("spinpaths.spin", "amplitude", "spin.amplitude"),
    ("spinpaths.spin", "norm_squared", "spin.norm_squared"),
    ("spinpaths.spin", "build_hamiltonian", "spin.build_hamiltonian"),
    ("spinpaths.spin", "verify_ground_state", "spin.verify_ground_state"),
]

COUNT_ONLY = {"lattice.bond_allocs"}


def _cells(tr, args, result):
    tr.counts["partition.sweep_cells"] += len(result.values)


def _poly_peaks(tr, args, result):
    terms = getattr(result, "_terms", None)
    if terms:
        tr.peak("qpoly.peak_terms", len(terms))
        tr.peak("qpoly.peak_coeff_bits", max(map(int.bit_length, map(abs, terms.values()))))


def _one_draw(tr, args, result):
    tr.counts["sampler.draws"] += 1


def _batch_draws(tr, args, result):
    tr.counts["sampler.draws"] += args[1]


def _oracle_dim(tr, args, result):
    tr.peak("spin.oracle_dim_max", result.dimension)


# exact counts taken at a span's boundary, from its arguments or result
HOOKS = {
    "partition.forward_table": _cells,
    "partition.backward_table": _cells,
    "qpoly.mul": _poly_peaks,
    "qpoly.add": _poly_peaks,
    "qpoly.div_exact": _poly_peaks,
    "sampler.sample_path": _one_draw,
    "sampler.sample_step_matrix": _batch_draws,
    "spin.build_hamiltonian": _oracle_dim,
}


class Tracer:
    """In-memory spans and exact counts over the patched spinpaths layers."""

    def __init__(self):
        self.spans: list = []           # (name, start, end, parent index, request id)
        self.current = -1               # index of the open span, -1 at top level
        self.request_id = -1
        self.counts: Counter = Counter()    # exact counts, including call counts
        self.inclusive: defaultdict = defaultdict(float)  # span name -> seconds
        self.self_time: defaultdict = defaultdict(float)  # layer -> seconds
        self._restore: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spinpaths" or n.startswith("spinpaths.")]
        for mod_name, path, name in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrap = self._counter if name in COUNT_ONLY else self._span
            wrapper = wrap(original, name)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _span(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        spans = self.spans

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = self.current
            self.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.current = parent
                spans[idx] = (name, start, end, parent, self.request_id)
            if hook is not None:
                # a pseudo-span keeps the hook's cost out of the caller's self time
                mark = clock()
                hook(self, args, result)
                spans.append(("trace.hook", mark, clock(), parent, self.request_id))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def peak(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self.spans.clear()
        self.current = -1

    def end_request(self) -> None:
        """Fold the request's spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            self.inclusive[name] += dur
            self.counts[name] += 1
            self.self_time[name.split(".", 1)[0]] += dur - child[k]
        spans.clear()

    def reset(self) -> None:
        self.counts.clear()
        self.inclusive.clear()
        self.self_time.clear()

    def layer_metrics(self) -> dict[str, float | int]:
        """The per-layer metrics over everything folded since the last reset."""
        c, t, s = self.counts, self.inclusive, self.self_time
        return {
            "cli.self_s": s["cli"],
            "cli.output_bytes": c["cli.output_bytes"],
            "partition.sweep_calls": c["partition.forward_table"] + c["partition.backward_table"],
            "partition.sweep_cells": c["partition.sweep_cells"],
            "partition.sweep_s": t["partition.forward_table"] + t["partition.backward_table"],
            "partition.closed_form_s": t["partition.interface_closed_form"],
            "partition.ave_s": t["partition.ave"],
            "qpoly.mul_calls": c["qpoly.mul"],
            "qpoly.mul_s": t["qpoly.mul"],
            "qpoly.add_s": t["qpoly.add"],
            "qpoly.evaluate_calls": c["qpoly.evaluate"],
            "qpoly.evaluate_s": t["qpoly.evaluate"],
            "qpoly.div_exact_s": t["qpoly.div_exact"],
            "qpoly.peak_terms": c["qpoly.peak_terms"],
            "qpoly.peak_coeff_bits": c["qpoly.peak_coeff_bits"],
            "weights.bond_weight_calls": c["weights.bond_weight"],
            "weights.bond_weight_s": t["weights.bond_weight"],
            "lattice.bond_allocs": c["lattice.bond_allocs"],
            "lattice.sphere_calls": c["lattice.sphere"],
            "lattice.self_s": s["lattice"],
            "correlations.self_s": s["correlations"],
            "sampler.tables_built": c["sampler.SamplerState"],
            "sampler.table_build_s": t["sampler.SamplerState"],
            "sampler.draws": c["sampler.draws"],
            "sampler.draw_s": t["sampler.sample_path"] + t["sampler.sample_step_matrix"],
            "spin.oracle_dim_max": c["spin.oracle_dim_max"],
            "spin.oracle_build_s": t["spin.build_hamiltonian"],
            "spin.residual_s": t["spin.verify_ground_state"],
            "spin.norm_s": t["spin.norm_squared"],
        }


# names of layer_metrics() whose values are exact counts, not times
EXACT_COUNTS = ("cli.output_bytes", "partition.sweep_calls", "partition.sweep_cells",
                "qpoly.mul_calls", "qpoly.evaluate_calls", "qpoly.peak_terms",
                "qpoly.peak_coeff_bits", "weights.bond_weight_calls", "lattice.bond_allocs",
                "lattice.sphere_calls", "sampler.tables_built", "sampler.draws",
                "spin.oracle_dim_max")
