"""Spans and counters recorded around the library's public functions.

The wrappers live here, in the benchmark, and are installed at every import
site: the modules import functions by name (`deform` holds its own
reference to `linfty.d_t_matrix`, `cli` to `operators.check_trb`, ...), so a
function is replaced in every module namespace that refers to it, and a
method on its class.  Nothing under `src/` is edited.

A span is (name, start, end, parent span, job).  Functions called millions
of times per job (Cochain evaluation) are aggregated instead: their calls and
time are summed per name and charged to the enclosing span as child time, so
self times still add up.  `iter_unshuffles` is a generator; its terms are
counted and its time stays with the caller.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exactlin", "multilin", "liealg", "operators", "linfty", "deform", "tgcs", "nslie", "instances", "cli")


def _rref_hook(tr, args, result):
    m = args[0]
    tr.counts["exactlin.rref.cells"] += m.rows * m.cols
    tr.counts["exactlin.rref.nnz"] += sum(1 for x in m.entries if x)


def _rank_hook(tr, args, result):
    m = args[0]
    tr.distinct.add((m.rows, m.cols, m.entries))


def _cells_hook(key):
    def hook(tr, args, result):
        tr.counts[key] += result.rows * result.cols

    return hook


def _nijenhuis_hook(tr, args, result):
    if tr.open_names["deform.rigidity_probe"]:
        tr.counts["deform.nijenhuis_attempts"] += 1
        tr.counts["deform.nijenhuis_hits"] += bool(result.ok)


def _load_hook(tr, args, result):
    tr.counts["instances.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, mode, hook); mode is "span", "hot" or "terms"
SPEC = (
    ("twistrb.exactlin", "Matrix.rref", "exactlin.rref", "span", _rref_hook),
    ("twistrb.exactlin", "Matrix.rank", "exactlin.rank", "span", _rank_hook),
    ("twistrb.exactlin", "Matrix.kernel_basis", "exactlin.kernel_basis", "span", None),
    ("twistrb.exactlin", "Matrix.solve", "exactlin.solve", "span", None),
    ("twistrb.exactlin", "Matrix.invert", "exactlin.invert", "span", None),
    ("twistrb.exactlin", "Matrix.__matmul__", "exactlin.matmul", "span", None),
    ("twistrb.multilin", "iter_unshuffles", "multilin.unshuffle", "terms", None),
    ("twistrb.multilin", "Cochain.eval_mixed", "multilin.eval_mixed", "hot", None),
    ("twistrb.multilin", "Cochain.skew_eval", "multilin.skew_eval", "hot", None),
    ("twistrb.liealg", "ce_differential", "liealg.ce_differential", "span", _cells_hook("liealg.ce_differential.cells")),
    ("twistrb.liealg", "_differential_matrix", "liealg._differential_matrix", "span", None),
    ("twistrb.liealg", "ce_differential_cochain", "liealg.ce_differential_cochain", "span", None),
    ("twistrb.liealg", "cohomology_dims_from_matrices", "liealg.cohomology_dims_from_matrices", "span", None),
    ("twistrb.liealg", "ce_cohomology_representatives", "liealg.ce_cohomology_representatives", "span", None),
    ("twistrb.liealg", "validate_lie", "liealg.validate_lie", "span", None),
    ("twistrb.liealg", "validate_rep", "liealg.validate_rep", "span", None),
    ("twistrb.liealg", "is_two_cocycle", "liealg.is_two_cocycle", "span", None),
    ("twistrb.liealg", "lie_algebra_from_cochain", "liealg.lie_algebra_from_cochain", "span", None),
    ("twistrb.operators", "check_trb", "operators.check_trb", "span", None),
    ("twistrb.operators", "graph_subalgebra_check", "operators.graph_subalgebra_check", "span", None),
    ("twistrb.operators", "induced_bracket_cochain", "operators.induced_bracket_cochain", "span", None),
    ("twistrb.operators", "induced_action_matrices", "operators.induced_action_matrices", "span", None),
    ("twistrb.operators", "trb_setup", "operators.trb_setup", "span", None),
    ("twistrb.operators", "gauge_transform", "operators.gauge_transform", "span", None),
    ("twistrb.operators", "reynolds_check", "operators.reynolds_check", "span", None),
    ("twistrb.operators", "r_matrix_check", "operators.r_matrix_check", "span", None),
    ("twistrb.operators", "twisted_semidirect", "operators.twisted_semidirect", "span", None),
    ("twistrb.linfty", "bracket2", "linfty.bracket2", "span", None),
    ("twistrb.linfty", "bracket3", "linfty.bracket3", "span", None),
    ("twistrb.linfty", "d_t_matrix", "linfty.d_t_matrix", "span", _cells_hook("linfty.d_t_matrix.cells")),
    ("twistrb.linfty", "mc_defect", "linfty.mc_defect", "span", None),
    ("twistrb.linfty", "cohomology_of_t_dims", "linfty.cohomology_of_t_dims", "span", None),
    ("twistrb.deform", "rigidity_probe", "deform.rigidity_probe", "span", None),
    ("twistrb.deform", "nijenhuis_element_check", "deform.nijenhuis_element_check", "span", _nijenhuis_hook),
    ("twistrb.deform", "deformation_equation_defects", "deform.deformation_equation_defects", "span", None),
    ("twistrb.tgcs", "tgcs_check_components", "tgcs.components", "span", None),
    ("twistrb.tgcs", "tgcs_check_direct", "tgcs.direct", "span", None),
    ("twistrb.nslie", "ns_check", "nslie.ns_check", "span", None),
    ("twistrb.nslie", "ns_from_trb", "nslie.ns_from_trb", "span", None),
    ("twistrb.instances", "load_instance", "instances.load_instance", "span", _load_hook),
)

NAME, START, END, PARENT, JOB, CHILD = range(6)


class Tracer:
    """Records spans and counters of one traced pass at a time."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self._extra: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.hot_calls: Counter = Counter()
        self.hot_time: defaultdict = defaultdict(float)
        self.distinct: set = set()
        self.job = ""

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, 0.0])
        self.stack.append(idx)
        self.open_names[name] += 1
        self.spans[idx][START] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        rec = self.spans[idx]
        rec[END] = end
        self.stack.pop()
        self.open_names[rec[NAME]] -= 1
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += end - rec[START]

    def _wrap(self, fn, name: str, mode: str, hook):
        tracer = self
        if mode == "terms":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                items = list(fn(*args, **kwargs))
                tracer.counts[name + ".terms"] += len(items)
                return iter(items)

            return counted
        if mode == "hot":

            @functools.wraps(fn)
            def summed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t0
                    tracer.hot_calls[name] += 1
                    tracer.hot_time[name] += d
                    if tracer.stack:
                        tracer.spans[tracer.stack[-1]][CHILD] += d

            return summed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return spanned

    # -- installation ----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Replace each function at every import site and each method on its class."""
        replace: dict[int, tuple[object, object]] = {}
        for modname, attr, name, mode, hook in SPEC:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._restore.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, name, mode, hook))
            else:
                orig = getattr(mod, attr)
                replace[id(orig)] = (orig, self._wrap(orig, name, mode, hook))
            self._originals[id(orig)] = orig
        self._extra = list(extra_modules)
        for mod in self._sites():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def _sites(self) -> list:
        """Every module that may hold a function by name: the library's and the extras."""
        return [m for n, m in sys.modules.items() if n == "twistrb" or n.startswith("twistrb.")] + self._extra

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def unwrapped(self) -> list[str]:
        """Module names, and items of module-level dicts, lists and tuples, that
        still hold an unwrapped function: calls through them would go untraced
        and their time would be charged to the caller."""
        found = []
        for mod in self._sites():
            for key, value in vars(mod).items():
                items = [(key, value)]
                if isinstance(value, dict):
                    items += [(f"{key}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, (list, tuple)):
                    items += [(f"{key}[{k}]", v) for k, v in enumerate(value)]
                for where, v in items:
                    if id(v) in self._originals and self._originals[id(v)] is v:
                        found.append(f"{mod.__name__}.{where}")
        return found

    # -- summaries -------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Per-function and per-layer figures of the pass just recorded."""
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        roots = 0.0
        min_self = 0.0
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] += 1
            self_time[name] += dur - rec[CHILD]
            min_self = min(min_self, dur - rec[CHILD])
            if rec[PARENT] < 0:
                roots += dur
            if not self._nested_in_same(rec):
                inclusive[name] += dur
        for name, t in self.hot_time.items():
            calls[name] += self.hot_calls[name]
            inclusive[name] += t
            self_time[name] += t
        layers = {layer: 0.0 for layer in LAYERS}
        layers["harness"] = wall - roots
        for name, t in self_time.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "layers": layers,
            "counts": dict(self.counts),
            "distinct_ranks": len(self.distinct),
            "wall_s": wall,
            "spans": len(self.spans),
            "min_span_self_s": min_self,
        }

    def _nested_in_same(self, rec) -> bool:
        parent = rec[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == rec[NAME]:
                return True
            parent = self.spans[parent][PARENT]
        return False
