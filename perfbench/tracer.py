"""Outside-in tracing: wrap the public functions of each charideals layer.

Every public function defined in a layer module is wrapped in each layer
namespace that binds it (`reduce` lives in both ztideal and graph_ideals),
so calls are caught whichever import path the caller used.  Each wrapper
records calls, inclusive seconds, self seconds (inclusive minus the wrapped
calls made inside it) and, for a few functions, how many results counted as
a "hit".  Records are kept per binding and per defining function; a metric
named after a defining module (isomorphism.find_induced) sums every binding,
one named after a using module (graph_ideals.det_int) is that binding only.
"""

import importlib
import inspect
from time import perf_counter
from types import FunctionType

LAYERS = ("graph_ideals", "ztideal", "intlinalg", "isomorphism", "mining",
          "classify", "graphs", "cli")

# what counts as a hit, for the *_frac metrics
_HITS = {
    "graph_ideals.characteristic_ideal": lambda r: r.is_trivial(),
    "ztideal.GroebnerBuilder.add": bool,
    "isomorphism.find_induced": lambda r: r is not None,
}

# metric name -> (record key, field); frac fields divide hits by calls
PER_LAYER = {}
for _key, _fields in (
        ("graph_ideals.characteristic_ideal", ("calls", "self_s", "unit_frac")),
        ("graph_ideals.det_int", ("calls", "s")),
        ("graph_ideals.algebraic_corank", ("calls", "s")),
        ("graph_ideals.all_k_minors_in_ideal", ("calls", "self_s")),
        ("ztideal.GroebnerBuilder.add", ("calls", "self_s", "grew_frac")),
        ("ztideal.reduce", ("calls", "s")),
        ("intlinalg.snf_diagonal", ("calls", "s")),
        ("intlinalg.delta_sequence", ("calls", "s")),
        ("isomorphism.canonical_form", ("calls", "s")),
        ("isomorphism.find_induced", ("calls", "s", "hit_frac")),
        ("mining.mine", ("self_s",)),
        ("classify.classify", ("calls", "self_s")),
        ("graphs.parse_graph6", ("calls", "s")),
        ("graphs.to_graph6", ("calls", "s")),
        ("cli.main", ("self_s",))):
    for _field in _fields:
        PER_LAYER[f"{_key}.{_field}"] = (_key, _field)


class Tracer:
    def __init__(self):
        self.records = {}   # key -> [calls, inclusive_s, self_s, hits]
        self._stack = []    # child-time accumulators of the open calls
        self._patched = []  # (owner, name, original)
        self.definers = set()

    def _record(self, key):
        return self.records.setdefault(key, [0, 0.0, 0.0, 0])

    def _wrap(self, fn, keys):
        recs = [self._record(k) for k in keys]
        hit = _HITS.get(keys[-1])
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                for rec in recs:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child
            if hit is not None and hit(result):
                for rec in recs:
                    rec[3] += 1
            return result

        return wrapper

    def install(self):
        prefix = "charideals."
        modules = {name: importlib.import_module(prefix + name) for name in LAYERS}
        defined_in = set(prefix + name for name in LAYERS)
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, FunctionType)
                        or obj.__module__ not in defined_in
                        or inspect.isgeneratorfunction(obj)):
                    continue
                binding = f"{name}.{attr}"
                definer = obj.__module__[len(prefix):] + "." + obj.__qualname__
                self.definers.add(definer)
                keys = [definer] if binding == definer else [binding, definer]
                self._patch(mod, attr, self._wrap(obj, keys))
        builder = modules["ztideal"].GroebnerBuilder
        self.definers.add("ztideal.GroebnerBuilder.add")
        self._patch(builder, "add", self._wrap(builder.add, ["ztideal.GroebnerBuilder.add"]))

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self):
        """Records plus the summed self time, as plain JSON-ready data."""
        wrapped = sum(self.records[k][2] for k in self.definers if k in self.records)
        return {"records": self.records, "self_s": wrapped}


def merge(total, snap):
    """Add one process's snapshot into a running total of the same shape."""
    total["self_s"] = total.get("self_s", 0.0) + snap["self_s"]
    records = total.setdefault("records", {})
    for key, rec in snap["records"].items():
        acc = records.setdefault(key, [0, 0.0, 0.0, 0])
        for i, v in enumerate(rec):
            acc[i] += v
    return total


def layer_metrics(records):
    out = {}
    for metric, (key, field) in PER_LAYER.items():
        calls, incl, self_s, hits = records.get(key, (0, 0.0, 0.0, 0))
        if field == "calls":
            out[metric] = (calls, "count")
        elif field == "s":
            out[metric] = (incl, "s")
        elif field == "self_s":
            out[metric] = (self_s, "s")
        else:
            out[metric] = (hits / calls if calls else 0.0, "ratio")
    return out
