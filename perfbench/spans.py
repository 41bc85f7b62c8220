"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public entry points of each knothom module
(the layers) in place, in every knothom namespace that holds them, so a
CLI operation runs unchanged but leaves a span per call into a layer:
name, start, end, parent span and operation id.  Counts (generators,
nonzero entries, cancellations) are taken at the same boundaries, after
the span has closed, so counting costs no layer time.  A call into a
layer that is already open on the stack (materialize building a degree,
induced_map inside maps_equal_on_homology) is not a new span: every
layer time is the time of its outermost calls.  ``uninstall`` restores
the originals.  Spans and counts stay in memory until ``dump``.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

OP = "cli.op"


def _nnz(chain_map):
    return sum(len(col) for blk in chain_map.blocks.values()
               for col in blk.values())


def _count_cube(args, result):
    return {"complexes.builds": 1, "complexes.gens": args[0].total_rank()}


def _count_degree(args, result):
    return {"complexes.d_nnz": sum(len(col) for col in result.values())}


def _count_homology(args, result):
    counts = {"homology.builds": 1}
    redn = getattr(args[0], "redn", None)
    if redn is not None:
        counts["homology.cancellations"] = (
            redn.original.total_rank() - redn.red.total_rank()) // 2
        counts["homology.map_nnz"] = sum(
            _nnz(m) for m in (redn.incl, redn.proj, redn.homotopy)
            if m is not None)
    return counts


def _count_move_maps(args, result):
    return {"cobordism.map_nnz": sum(_nnz(f) for f in result)}


def targets():
    """(owner, attribute, span name, counter) for every traced entry point.

    Owners are classes for methods and modules for functions; functions
    are also patched in every other knothom module that imported them.
    """
    cobordism, complexes, homology = (
        importlib.import_module("knothom." + name)
        for name in ("cobordism", "complexes", "homology"))
    return (
        (complexes.CubeComplex, "__init__", "complexes.build", _count_cube),
        (complexes.CubeComplex, "_build_degree", "complexes.build",
         _count_degree),
        (complexes.ChainComplex, "materialize", "complexes.build", None),
        (complexes, "compose", "complexes.compose", None),
        (homology.HomologyData, "__init__", "homology.eliminate",
         _count_homology),
        (homology, "reduce_complex", "homology.reduce", None),
        (homology.HomologyData, "summary", "homology.present", None),
        (homology, "maps_equal_on_homology", "homology.induced", None),
        (homology, "induced_map", "homology.induced", None),
        (cobordism, "decoration_chain_map", "cobordism.decoration", None),
        (cobordism, "saddle_chain_map", "cobordism.decoration", None),
        (cobordism, "load_movie", "cobordism.parse", None),
        (cobordism.Movie, "__init__", "cobordism.parse", None),
        (cobordism.Movie, "chain_maps", "cobordism.move_maps",
         _count_move_maps),
    )


LAYERS = ("complexes.build", "complexes.compose", "homology.eliminate",
          "homology.reduce", "homology.present", "homology.induced", "cobordism.decoration",
          "cobordism.parse", "cobordism.move_maps")
COUNTS = ("complexes.gens", "complexes.d_nnz", "complexes.builds",
          "homology.cancellations", "homology.map_nnz", "homology.builds",
          "cobordism.map_nnz")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id]
        self.counts = []    # (op id, counter name, value)
        self._stack = []
        self._open = {}     # span name -> open depth
        self._op = None
        self._patches = []
        self.op_keys = []   # op id -> operation key

    # -- patching --------------------------------------------------------

    def install(self):
        knothom_modules = [m for name, m in sorted(sys.modules.items())
                           if name == "knothom" or name.startswith("knothom.")]
        for owner, attr, name, counter in targets():
            original = owner.__dict__.get(attr)
            if original is None:
                print("perfbench: no %s.%s to trace" % (owner.__name__, attr),
                      file=sys.stderr)
                continue
            wrapped = self._wrap(original, name, counter)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in knothom_modules if m is not owner
                            and getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if tracer._open.get(name):
                result = fn(*args, **kwargs)
            else:
                idx = tracer._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._end(idx)
            if counter is not None:
                op = tracer._op
                for key, value in counter(args, result).items():
                    tracer.counts.append((op, key, value))
            return result
        return traced

    # -- spans -----------------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        return idx

    def _end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def begin_op(self, key):
        """Open the span of one operation; its id is its index in op_keys."""
        self._op = len(self.op_keys)
        self.op_keys.append(key)
        return self._begin(OP)

    def end_op(self, idx):
        self._end(idx)
        self._op = None

    # -- aggregation -----------------------------------------------------

    def layer_times(self, ops):
        """{layer: [total s, self s]} over the given op ids; the op span's
        self time is reported as ``cli``."""
        ops = set(ops)
        child_time = {}
        for name, start, end, parent, op in self.spans:
            if op in ops and parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {layer: [0.0, 0.0] for layer in LAYERS + ("cli",)}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            dur = end - start
            key = "cli" if name == OP else name
            out[key][0] += dur
            out[key][1] += dur - child_time.get(idx, 0.0)
        return out

    def count_totals(self, ops):
        ops = set(ops)
        out = dict.fromkeys(COUNTS, 0)
        for op, key, value in self.counts:
            if op in ops:
                out[key] += value
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": self.counts,
                       "ops": self.op_keys}, fh)
