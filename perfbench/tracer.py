"""Span tracing from outside the package.

`Tracer` replaces every public function and public method of the `posp`
modules with a wrapper that records one span per call: name, start, end,
parent span, and the request id where the arguments carry one.  Spans are
kept in flat arrays in memory and written out after the run.  The package
itself is not changed; `Tracer.uninstall()` puts the original objects back.

`sim` and `protocol` bind `prf`, `forward`, `encode_fields` and others by
name (`from .crypto import prf`), so patching `posp.crypto.prf` alone would
miss their calls.  `install()` therefore replaces every binding of a wrapped
function in every module namespace.
"""

from __future__ import annotations

import gc
import gzip
import inspect
import time
from array import array
from collections import Counter

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from posp import cli, crypto, econ, model, protocol, sim

MODULES = (crypto, model, protocol, sim, econ, cli)
LAYERS = tuple(m.__name__.rpartition(".")[2] for m in MODULES)

# The scalar Q16.16 helpers run ~4,000 times per `forward` on wide_model.
# Wrapping them would make the `forward` span time the tracer, not the model.
SKIP = {"model.fixed_mul", "model.relu", "model.Fixed"}

# Parameters whose value is, or carries as `.reqid`, the request id.
_REQID_ATTR_PARAMS = ("resp", "outcome")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reqids: list[bytes] = []
        self._reqid_ids: dict[bytes, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        # counts taken at the span boundary
        self.verify_false = 0
        self.errors = 0
        self.forward_repeats = 0
        self._forward_inputs: set = set()
        self.settle_deltas = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict = {}  # original function -> its wrapper
        for module, layer in zip(MODULES, LAYERS):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if qual in SKIP:
                    continue
                if inspect.isfunction(obj) and obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, qual)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, qual)
        # rebind every name that refers to a wrapped function, in every module
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, cls, qual: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _reqid_id(self, reqid) -> int:
        i = self._reqid_ids.get(reqid)
        if i is None:
            i = self._reqid_ids[reqid] = len(self.reqids)
            self.reqids.append(reqid)
        return i

    def _reqid_getter(self, fn):
        """A function of (args, kwargs) giving the request id, or None."""
        params = list(inspect.signature(fn).parameters)
        for pname in ("reqid",) + _REQID_ATTR_PARAMS:
            if pname not in params:
                continue
            pos = params.index(pname)
            attr = pname != "reqid"

            def get(args, kwargs, pos=pos, pname=pname, attr=attr):
                value = args[pos] if len(args) > pos else kwargs.get(pname)
                if attr:
                    value = getattr(value, "reqid", None)
                return value if isinstance(value, bytes) else None
            return get
        return None

    def _observer(self, name: str):
        """Counts that need a call's arguments or result, or None."""
        if name == "crypto.PublicKey.verify":
            def observe(args, kwargs, result):
                if result is False:
                    self.verify_false += 1
        elif name == "model.forward":
            def observe(args, kwargs, result):
                # a model is fixed by its seed and dims; ids of dead models recur
                model_, x = args[0], args[1]
                key = (model_.seed, model_.dims, tuple(v.raw for v in x))
                if key in self._forward_inputs:
                    self.forward_repeats += 1
                else:
                    self._forward_inputs.add(key)
        elif name == "protocol.SettlementContract.settle":
            def observe(args, kwargs, result):
                self.settle_deltas += len(args[1])
        else:
            return None
        return observe

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        get_reqid = self._reqid_getter(fn)
        observe = self._observer(name)
        names, parents, reqs = self.name, self.parent, self.req
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        protocol_error = protocol.ProtocolError

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            req = -1
            if get_reqid is not None:
                reqid = get_reqid(args, kwargs)
                if reqid is not None:
                    req = self._reqid_id(reqid)
            if req < 0 and parent >= 0:
                req = reqs[parent]
            names.append(nid)
            parents.append(parent)
            reqs.append(req)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except protocol_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # -- results -----------------------------------------------------------

    @staticmethod
    def span_cost_ns(calls: int = 100_000) -> float:
        """What one span adds to a call: a wrapped no-op against a bare one.
        Unlike traced against untraced rounds, this does not depend on how
        loaded the machine was a minute earlier."""
        def noop():
            return None
        wrapped = Tracer()._wrap(noop, "noop")
        clock = time.perf_counter_ns
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        return (clock() - start - bare) / calls

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path) -> None:
        """Gzipped TSV, one span per line: index, name, start_ns, end_ns,
        parent index (-1 for a root) and request index (-1 for none).  The
        request ids, in index order, follow as `#reqid <index> <hex>` lines."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\treq\n")
            for i, (n, s, e, p, r) in enumerate(zip(self.name, self.start, self.end,
                                                    self.parent, self.req)):
                fh.write(f"{i}\t{names[n]}\t{s}\t{e}\t{p}\t{r}\n")
            for i, reqid in enumerate(self.reqids):
                fh.write(f"#reqid {i} {reqid.hex()}\n")


class SpanSummary:
    """Per-name call counts, inclusive and self times, and parent->child call
    counts.  A span's self time is its duration minus the time its child
    spans cover.  No public `posp` function calls itself, so a name's
    inclusive time is the sum of its spans' durations."""

    def __init__(self, tracer: Tracer):
        names, parent, label = tracer.name, tracer.parent, tracer.names
        n = len(names)
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child_ns = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child_ns[parent[i]] += dur[i]
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.pairs: Counter = Counter()  # (parent name, child name) -> calls
        self.root_ns = 0
        # a parent's index is below its children's, so one pass can tell
        # which spans run inside the Monte Carlo estimator
        est = tracer._name_ids.get("sim.estimate_strategy_payoff", -2)
        prf = tracer._name_ids.get("crypto.prf", -2)
        under_est = bytearray(n)
        self.prf_under_estimate = 0
        for i in range(n):
            name = label[names[i]]
            p = parent[i]
            self.calls[name] += 1
            self.incl_ns[name] += dur[i]
            self.self_ns[name] += dur[i] - child_ns[i]
            if p < 0:
                self.root_ns += dur[i]
                continue
            self.pairs[(label[names[p]], name)] += 1
            under_est[i] = under_est[p] or names[p] == est
            if names[i] == prf and under_est[i]:
                self.prf_under_estimate += 1
        self.spans = n
        self.self_sum_ns = sum(self.self_ns.values())

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer)
