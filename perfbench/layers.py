"""Per-layer spans for the traced benchmark run.

``install`` wraps the public functions of each ``modpforms`` layer from
outside the package: every module attribute bound to one of them, names
bound by ``from ... import`` included, is replaced by a wrapper that
records a span (layer name, parent span, start, end) and counts calls in
memory.  Only the traced run installs it; the untraced run imports the
package unchanged.
"""

import functools
import importlib
import sys
import time
from collections import Counter


def _sparse_ops(dense, exps, coefs, p, out_len):
    return len(exps) * out_len


def _dense_ops(a, b, p, out_len):
    return min(len(a), out_len) * min(len(b), out_len)


# layer name -> functions ("module.function") whose calls are its spans
SPANS = {
    "kernels.mul_sparse": ["kernels.mul_sparse"],
    "kernels.mul_dense": ["kernels.mul_dense"],
    "kernels.sigma_sieve": ["kernels.sigma_sieve"],
    "kernels.count_segments": ["kernels.count_segments", "kernels.count_segments_masked"],
    "series.delta_power": ["series.delta_power"],
    "series.eisenstein": ["series.eisenstein"],
    "series.mul": ["series.mul"],
    "series.power": ["series.power"],
    "series.linear_combine": ["series.linear_combine"],
    "expr.evaluate": ["expr.evaluate"],
    "basis.miller_basis": ["basis.miller_basis"],
    "basis.to_coordinates": ["basis.to_coordinates"],
    "hecke": [
        "hecke.apply_T_ell",
        "hecke.apply_T_m",
        "hecke.apply_S_m",
        "hecke.apply_U_m",
        "hecke.apply_V_m",
        "hecke.apply_W",
        "hecke.apply_operator",
    ],
    "linalg.rref": ["linalg.rref"],
    "module.build_module": ["module.build_module"],
    "module.decompose": ["module.decompose"],
    "module.strict_nilpotence_order": ["module.strict_nilpotence_order"],
    "module.gamma_group": ["module.gamma_group"],
    "densities.squarefull_buckets": ["densities.squarefull_buckets"],
    "densities.euler_constant_C": ["densities.euler_constant_C"],
    "densities.profile": ["densities.profile"],
    "counting.coefficient_table": ["counting.coefficient_table"],
    "counting.count_pi": ["counting.count_pi", "counting.count_pi_sf"],
    "counting.oracle_components": ["counting.oracle_components"],
    "counting.decomposition_oracle": ["counting.decomposition_oracle"],
    "counting.oracle_check": ["counting.oracle_check"],
}

# functions too small and too frequent for a span: calls are counted only
COUNTED = {"linalg.matvec": ["linalg.matvec"]}

# work counted from the arguments of each call
OPS = {"kernels.mul_sparse": _sparse_ops, "kernels.mul_dense": _dense_ops}

# sizes read from each call's result: (layer, metric suffix, size, combine)
RESULT_SIZES = {
    "module.build_module": ("max_dim", lambda module: module.dim, max),
    "counting.decomposition_oracle": ("indices", len, lambda a, b: a + b),
}

# the per-layer metrics the traced run reports, with their units
METRICS = [
    ("kernels.mul_sparse.self_s", "s"),
    ("kernels.mul_sparse.calls", "count"),
    ("kernels.mul_sparse.ops", "ops"),
    ("kernels.mul_dense.self_s", "s"),
    ("kernels.mul_dense.calls", "count"),
    ("kernels.mul_dense.ops", "ops"),
    ("kernels.sigma_sieve.self_s", "s"),
    ("kernels.sigma_sieve.calls", "count"),
    ("kernels.count_segments.self_s", "s"),
    ("series.delta_power.self_s", "s"),
    ("series.delta_power.calls", "count"),
    ("series.eisenstein.self_s", "s"),
    ("series.mul.self_s", "s"),
    ("series.power.self_s", "s"),
    ("series.linear_combine.self_s", "s"),
    ("expr.evaluate.self_s", "s"),
    ("expr.evaluate.calls", "count"),
    ("basis.miller_basis.self_s", "s"),
    ("basis.miller_basis.calls", "count"),
    ("basis.to_coordinates.self_s", "s"),
    ("hecke.self_s", "s"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.matvec.calls", "count"),
    ("module.build_module.self_s", "s"),
    ("module.build_module.calls", "count"),
    ("module.build_module.max_dim", "count"),
    ("module.decompose.self_s", "s"),
    ("module.strict_nilpotence_order.self_s", "s"),
    ("module.gamma_group.self_s", "s"),
    ("densities.squarefull_buckets.self_s", "s"),
    ("densities.euler_constant_C.self_s", "s"),
    ("densities.profile.self_s", "s"),
    ("counting.coefficient_table.self_s", "s"),
    ("counting.count_pi.self_s", "s"),
    ("counting.oracle_components.self_s", "s"),
    ("counting.decomposition_oracle.self_s", "s"),
    ("counting.decomposition_oracle.indices", "count"),
    ("counting.oracle_check.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
]


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # [layer, parent index or -1, start, end]
        self.counts = Counter()  # "<layer>.<metric>" -> number
        self._open = []

    def span(self, layer, fn):
        ops = OPS.get(layer)
        size = RESULT_SIZES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [layer, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._open.pop()
            self.counts[layer + ".calls"] += 1
            if ops:
                self.counts[layer + ".ops"] += ops(*args, **kwargs)
            if size:
                key = f"{layer}.{size[0]}"
                self.counts[key] = size[2](self.counts[key], size[1](result))
            return result

        return wrapper

    def counted(self, layer, fn):
        key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self, command_s):
        """Per-layer self times and counts of one command of command_s seconds.

        A span's self time is its duration minus its children's; the
        command time no span covers is ``cli.self_s``, so the self times
        add up to command_s.
        """
        out = Counter(self.counts)
        children = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        roots = 0.0
        for (layer, parent, start, end), inner in zip(self.spans, children):
            out[layer + ".self_s"] += end - start - inner
            if parent < 0:
                roots += end - start
        out["cli.self_s"] += command_s - roots
        out["trace.wall_s"] += command_s
        return dict(out)


def install(recorder):
    """Wrap every listed function wherever a modpforms module binds it."""
    importlib.import_module("modpforms.cli")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "modpforms"]
    for table, make in ((SPANS, recorder.span), (COUNTED, recorder.counted)):
        for layer, targets in table.items():
            for target in targets:
                module_name, name = target.rsplit(".", 1)
                original = getattr(sys.modules[f"modpforms.{module_name}"], name)
                wrapper = make(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
