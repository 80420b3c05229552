"""Per-layer tracing of tidyscale from outside the program.

`Tracer.install` wraps the public functions, methods and constructors of
each tidyscale module.  A wrapped name is replaced in every tidyscale
module namespace that binds it, because padic and invariants import
kernels with `from .exactmath import ...`.  Each call records a span
(name, start, end, parent) into flat arrays kept in memory; `uninstall`
puts every original attribute back.

A span's self time is its duration minus the durations of its direct
children.  The benchmark opens one root span per job, so the self times of
all spans add up to the job wall time: the root spans' self time is the
part of a job that no wrapped function covers, reported as unattributed.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "exactmath", "padic", "invariants", "torus", "finprod")

# Per-element accessors of finite groups are called O(|E|^2) times by a
# windowed-subgroup constructor; a span around each would cost more than the
# call, so their time stays with the caller.
UNWRAPPED = frozenset({
    "finprod.FiniteGroup.mul",
    "finprod.FiniteGroup.inv",
    "finprod.FiniteGroup.index_of",
})

JOB = "job"


def _matrix_dim(args):
    m = args[0]
    if hasattr(m, "rows"):
        return max(m.rows, m.cols)
    return len(m)


def _dim(args, result):
    return "matrix_dim", _matrix_dim(args)


# Size counters read from call arguments and results: span name -> function
# of (args, result) giving (counter, size).
SIZES = {
    "exactmath.mat_mul": _dim,
    "exactmath.mat_inverse": _dim,
    "exactmath.rat_kernel": _dim,
    "exactmath.charpoly": _dim,
    "exactmath.factor_over_q": lambda a, r: ("matrix_dim", len(a[0]) - 1),
    "exactmath.hermite_form": _dim,
    "exactmath.hermite_form_with_transform": _dim,
    "exactmath.kernel_basis": _dim,
    "exactmath.smith_decomposition": _dim,
    "exactmath.smith_invariants": _dim,
    "finprod.WindowedSubgroup.__init__": lambda a, r: ("elements", len(a[4])),
    "torus.pattern_residues": lambda a, r: (f"residues.level{a[2]}", len(r)),
}


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self.stack = [-1]
        self.depth = [0]
        self.patches = []
        self.size_max = defaultdict(int)
        self.size_sum = defaultdict(int)
        self.size_calls = defaultdict(int)

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every public callable of the tidyscale layers."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "tidyscale" or k.startswith("tidyscale.")]
        for layer in LAYERS:
            module = sys.modules[f"tidyscale.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch_everywhere(modules, attr, obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, f"{layer}.{attr}")

    def _patch_everywhere(self, modules, attr, fn, name):
        if name in UNWRAPPED or inspect.isgeneratorfunction(fn):
            return
        wrapper = self._wrap(fn, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.patches.append((module, key, fn))
                    setattr(module, key, wrapper)

    def _patch_class(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(raw, name)
            else:
                continue
            self.patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def _sid(self, name):
        self.names.append(name)
        self.depth.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        sid = self._sid(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        outer, stack, depth = self.outer, self.stack, self.depth
        clock = time.perf_counter_ns
        measure = SIZES.get(name)
        size_max, size_sum, size_calls = self.size_max, self.size_sum, self.size_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(sid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            outer.append(depth[sid] == 0)
            depth[sid] += 1
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[sid] -= 1
            if measure is not None:
                counter, size = measure(args, result)
                size_max[counter] = max(size_max[counter], size)
                size_sum[counter] += size
                size_calls[counter] += 1
            return result

        return wrapper

    def job(self, call):
        """Run `call` inside a root span."""
        i = len(self.kind)
        self.kind.append(0)
        self.parent.append(-1)
        self.start.append(0)
        self.end.append(0)
        self.outer.append(1)
        self.stack.append(i)
        self.start[i] = time.perf_counter_ns()
        try:
            return call()
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    # -- results --------------------------------------------------------

    def summary(self):
        """Calls, self and total nanoseconds per span name, and per layer."""
        n = len(self.kind)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        children = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for i in range(n):
            name = self.names[kind[i]]
            duration = end[i] - start[i]
            calls[name] += 1
            self_ns[name] += duration - children[i]
            if self.outer[i]:
                total_ns[name] += duration
        layer_ns = defaultdict(int)
        for name, ns in self_ns.items():
            if name != JOB:
                layer_ns[name.split(".", 1)[0]] += ns
        return {
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "total_ns": dict(total_ns),
            "layer_self_ns": {layer: layer_ns.get(layer, 0) for layer in LAYERS},
            "unattributed_ns": self_ns.get(JOB, 0),
            "job_wall_ns": total_ns.get(JOB, 0),
        }

    def write(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        rows = zip(self.kind, self.start, self.end, self.parent)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["name", "start_ns", "end_ns", "parent"],\n')
            handle.write(' "names": ' + json.dumps(self.names) + ',\n "spans": [\n')
            first = True
            for k, s, e, p in rows:
                handle.write(("" if first else ",\n") + f"[{k},{s},{e},{p}]")
                first = False
            handle.write("\n]}\n")
