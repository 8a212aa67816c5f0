"""Spans around kcprobe's layer functions, installed from outside the program.

``Tracer.install`` replaces every binding of each named function: the
defining module, every kcprobe module that imported it with ``from .x
import f``, the ``kcprobe`` namespace and, for methods, the class.  A name
that cannot be found raises ``TraceTargetMissing``.  ``uninstall`` puts the
originals back and checks that no wrapper is left anywhere, so untraced
measurements run unwrapped code.

Spans are kept in memory, one stack per thread.  A task submitted to a
``ThreadPoolExecutor`` runs inside an ``executor.task`` span whose parent is
the span that submitted it, so work done on a worker thread is charged to
the worker, not to the submitting command.  The counters below are fed by
hooks that run after a wrapped call, inside a ``trace.hook`` span of their
own, so their cost is covered time of the caller and no layer's self time.
Calls made inside ``paused()`` are not recorded.  ``summary`` turns the
spans into per-function call counts and self times (a span's duration minus
the part of it that its child spans cover) plus the counters.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_MARK = "__perfbench_wrapped__"
TASK = "executor.task"
HOOK = "trace.hook"  # counted as covered time, never reported

# (metric prefix, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("model.protocol_build", "kcprobe.model", "MeasurementProtocol.__init__"),
    ("model.induced_kraus", "kcprobe.model", "induced_kraus"),
    ("model.prefix_drop", "kcprobe.model", "MeasurementProtocol.prefix"),
    ("model.prefix_drop", "kcprobe.model", "MeasurementProtocol.drop_step"),
    ("linalg.unitary_from_hamiltonian", "kcprobe.linalg", "unitary_from_hamiltonian"),
    ("linalg.check_density", "kcprobe.linalg", "check_density"),
    ("linalg.orthonormalize_hs", "kcprobe.linalg", "orthonormalize_hs"),
    ("sequences.kc_defect_operator", "kcprobe.sequences", "kc_defect_operator"),
    ("sequences.check_kc_all", "kcprobe.sequences", "check_kc_all"),
    ("sequences.full_distribution", "kcprobe.sequences", "full_distribution"),
    ("sequences.kc_defect_state", "kcprobe.sequences", "kc_defect_state"),
    ("sequences.history_operator", "kcprobe.sequences", "history_operator"),
    ("sequences.joint_probability", "kcprobe.sequences", "joint_probability"),
    ("oracle.naive_sequence_probability", "kcprobe.oracle", "naive_sequence_probability"),
    ("oracle.naive_kc_defect", "kcprobe.oracle", "naive_kc_defect"),
    ("oracle.effect_product_probability", "kcprobe.oracle", "effect_product_probability"),
    ("oracle.oracle_compare", "kcprobe.oracle", "oracle_compare"),
    ("witnesses.delta_2_1", "kcprobe.witnesses", "delta_2_1"),
    ("witnesses.delta_3_2", "kcprobe.witnesses", "delta_3_2"),
    ("witnesses.lg_check", "kcprobe.witnesses", "lg_check"),
    ("witnesses.witness_report", "kcprobe.witnesses", "witness_report"),
    ("scenarios.nv_center_model", "kcprobe.scenarios", "nv_center_model"),
    ("scenarios.random_model", "kcprobe.scenarios", "random_model"),
    ("scenarios.counterexample_search", "kcprobe.scenarios", "counterexample_search"),
    ("config.load_run_config", "kcprobe.config", "load_run_config"),
    ("config.build_experiment", "kcprobe.config", "build_experiment"),
    ("serialize.fingerprint", "kcprobe.serialize", "fingerprint"),
    ("serialize.write_json", "kcprobe.serialize", "write_json"),
    ("cli.main", "kcprobe.cli", "main"),
    ("algebra.algebra_report", "kcprobe.algebra", "algebra_report"),
    ("algebra.generate_algebra", "kcprobe.algebra", "generate_algebra"),
    ("algebra.commutant_basis", "kcprobe.algebra", "commutant_basis"),
    ("algebra.is_commutative", "kcprobe.algebra", "is_commutative"),
    ("algebra.effect_nondegenerate", "kcprobe.algebra", "effect_nondegenerate"),
)

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TARGETS] + [TASK]))
# Counters fed by hooks; ``distinct`` ones hold sets of content digests.
COUNTERS = (
    "model.protocol_build.distinct",
    "linalg.unitary_from_hamiltonian.distinct",
    "sequences.full_distribution.sequences",
    "sequences.full_distribution.enumerated",
    "sequences.check_kc_all.entries",
    "scenarios.counterexample_search.candidates",
    "scenarios.counterexample_search.findings",
    "algebra.commutant_basis.svd_bytes",
)


class TraceTargetMissing(RuntimeError):
    pass


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _protocol_key(p) -> bytes:
    model = p.model
    return _digest(
        model.step_time,
        *(h.tobytes() for h in model.hamiltonians),
        p.preparation.amplitudes.tobytes(),
        *(b.states.tobytes() for b in p.step_bases),
        p.effective_step_times(),
    )


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list = []
        self._paused = False
        self.reset()

    def reset(self) -> None:
        self.spans = []  # (span id, parent id, name, start, end)
        self.counters = {name: (set() if name.endswith(".distinct") else 0) for name in COUNTERS}

    @contextlib.contextmanager
    def paused(self):
        """Run kcprobe calls unrecorded, on every thread, e.g. output checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # --- span recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, parent, fn, args, kwargs):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def count(args, kwargs, result):
            with tracer._lock:
                hook(tracer.counters, args, kwargs, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            result = tracer._timed(name, None, fn, args, kwargs)
            if hook is not None:
                tracer._timed(HOOK, None, count, (args, kwargs, result), {})
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            if tracer._paused:
                return submit(pool, fn, *args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0

            def task(*a, **k):
                return tracer._timed(TASK, parent, fn, a, k)

            return submit(pool, task, *args, **kwargs)

        setattr(traced_submit, _MARK, submit)
        return traced_submit

    # --- installing wrappers ----------------------------------------------

    def _hooks(self) -> dict:
        def protocol_build(c, args, kwargs, result):
            c["model.protocol_build.distinct"].add(_protocol_key(args[0]))

        def unitary(c, args, kwargs, result):
            h = args[0] if args else kwargs["h"]
            t = args[1] if len(args) > 1 else kwargs["t"]
            c["linalg.unitary_from_hamiltonian.distinct"].add(_digest(h.tobytes(), float(t)))

        def full_distribution(c, args, kwargs, result):
            bound = full_distribution_sig.bind(*args, **kwargs)
            p, n = bound.arguments["protocol"], bound.arguments["n"]
            c["sequences.full_distribution.sequences"] += p.probe_dim**n
            c["sequences.full_distribution.enumerated"] += len(result.table)

        def check_kc_all(c, args, kwargs, result):
            c["sequences.check_kc_all.entries"] += len(result.entries)

        def counterexample_search(c, args, kwargs, result):
            bound = search_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            c["scenarios.counterexample_search.candidates"] += (
                len(a["include"]) + a["trials"]
            ) * len(a["t_grid"])
            c["scenarios.counterexample_search.findings"] += len(result)

        def commutant_basis(c, args, kwargs, result):
            # Full SVD of the (k d^2, d^2) commutator stack: stack, U, s and V^H.
            d2 = result.generators[0].shape[0] ** 2
            rows = len(result.generators) * d2
            size = 16 * (rows * d2 + rows * rows + d2 * d2) + 8 * d2
            c["algebra.commutant_basis.svd_bytes"] = max(c["algebra.commutant_basis.svd_bytes"], size)

        from kcprobe import scenarios, sequences

        full_distribution_sig = inspect.signature(sequences.full_distribution)
        search_sig = inspect.signature(scenarios.counterexample_search)
        return {
            "MeasurementProtocol.__init__": protocol_build,
            "unitary_from_hamiltonian": unitary,
            "full_distribution": full_distribution,
            "check_kc_all": check_kc_all,
            "counterexample_search": counterexample_search,
            "commutant_basis": commutant_basis,
        }

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {mod for _, mod, _ in TARGETS}
        for mod in sorted(modules):
            importlib.import_module(mod)
        package = [m for n, m in sorted(sys.modules.items()) if n == "kcprobe" or n.startswith("kcprobe.")]
        hooks = self._hooks()
        try:
            for name, mod, attr in TARGETS:
                owner = sys.modules[mod]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        raise TraceTargetMissing(f"{mod}.{attr} does not exist")
                    orig = vars(cls)[meth]
                    self._patch(cls, meth, orig, self._wrap(name, orig, hooks.get(attr)))
                    continue
                orig = getattr(owner, attr, None)
                if not callable(orig):
                    raise TraceTargetMissing(f"{mod}.{attr} does not exist")
                wrapper = self._wrap(name, orig, hooks.get(attr))
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._patch(module, key, orig, wrapper)
            submit = vars(ThreadPoolExecutor)["submit"]
            self._patch(ThreadPoolExecutor, "submit", submit, self._wrap_submit(submit))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        leftovers = wrapped_bindings()
        if leftovers:
            raise RuntimeError(f"wrappers left after uninstall: {leftovers}")

    # --- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self seconds, plus the counters."""
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        calls = dict.fromkeys((*SPAN_NAMES, HOOK), 0)
        self_s = dict.fromkeys((*SPAN_NAMES, HOOK), 0.0)
        for sid, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            calls[name] += 1
            self_s[name] += end - start - covered
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters)}


def wrapped_bindings() -> list:
    """Names in kcprobe modules, their classes and the executor still bound to a wrapper."""
    found = []
    owners = [ThreadPoolExecutor]
    for name, module in list(sys.modules.items()):
        if name == "kcprobe" or name.startswith("kcprobe."):
            owners.append(module)
            owners.extend(v for v in vars(module).values() if inspect.isclass(v))
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if hasattr(value, _MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, by name, with units."""
    out = {}
    counters = summary["counters"]
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (summary["calls"][name], "count")
        if name != "model.prefix_drop":
            out[f"{name}.self_s"] = (summary["self_s"][name], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    builds = summary["calls"]["model.protocol_build"]
    out["model.protocol_build.distinct_ratio"] = (
        ratio(len(counters["model.protocol_build.distinct"]), builds), "ratio")
    unitaries = summary["calls"]["linalg.unitary_from_hamiltonian"]
    out["linalg.unitary_from_hamiltonian.distinct_ratio"] = (
        ratio(len(counters["linalg.unitary_from_hamiltonian.distinct"]), unitaries), "ratio")
    out["sequences.full_distribution.sequences"] = (counters["sequences.full_distribution.sequences"], "count")
    out["scenarios.counterexample_search.hit_ratio"] = (
        ratio(counters["scenarios.counterexample_search.findings"],
              counters["scenarios.counterexample_search.candidates"]), "ratio")
    out["algebra.commutant_basis.svd_bytes"] = (counters["algebra.commutant_basis.svd_bytes"], "bytes")
    return out


def invariant_violations(summary: dict) -> list:
    """Count identities that hold when every call was captured."""
    problems = []
    counters = summary["counters"]
    entries = counters["sequences.check_kc_all.entries"]
    if summary["calls"]["sequences.kc_defect_operator"] != entries:
        problems.append(
            f"sequences.kc_defect_operator.calls = {summary['calls']['sequences.kc_defect_operator']}"
            f" but check_kc_all returned {entries} entries"
        )
    asked = counters["sequences.full_distribution.sequences"]
    got = counters["sequences.full_distribution.enumerated"]
    if asked != got:
        problems.append(f"full_distribution asked for {asked} sequences, enumerated {got}")
    return problems
