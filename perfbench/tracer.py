"""Span tracing of qteleport from outside the package.

``Tracer.install`` wraps every public function of the six layer modules,
plus ``StateVector.__init__`` and ``BitChain.__post_init__``, and rebinds
each wrapper in every ``qteleport.*`` namespace that holds the original, so
calls made inside the package are seen.  A span records name, start, end,
parent span and op id.  Spans stay in memory, in flat arrays, until the run
ends; ``layer_metrics`` then derives per-op numbers from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("bitchain", "statevector", "gates", "teleport", "verify", "cli")
CTORS = (("statevector", "StateVector", "__init__"), ("bitchain", "BitChain", "__post_init__"))


def _gate_bytes(args, result) -> int:
    return args[0].amplitudes.nbytes + result.amplitudes.nbytes


def _alloc_bytes(args, result) -> int:
    return args[0].amplitudes.nbytes


# Array bytes computed from the sizes of the arrays a call reads and returns.
BYTE_COUNTERS = {
    "gates.apply_gate": _gate_bytes,
    "gates.apply_cnot": _gate_bytes,
    "statevector.StateVector.__init__": _alloc_bytes,
}

# metric -> (unit, kind, spans).  "calls" counts spans with one of the names;
# "seconds" sums the spans with one of the names that no other span with one
# of the names encloses; "self", "bytes" and "errors" take a module.
LAYER_METRICS: dict[str, tuple[str, str, object]] = {
    "gates.apply_gate.calls": ("count", "calls", ("gates.apply_gate",)),
    "gates.apply_gate.s": ("s", "seconds", ("gates.apply_gate",)),
    "gates.apply_cnot.calls": ("count", "calls", ("gates.apply_cnot",)),
    "gates.apply_cnot.s": ("s", "seconds", ("gates.apply_cnot",)),
    "gates.hadamard_layer.s": ("s", "seconds", ("gates.hadamard_layer",)),
    "gates.pauli_correction.s": (
        "s",
        "seconds",
        ("gates.apply_pauli_correction", "gates.apply_pauli_correction_inverse"),
    ),
    "gates.bytes_computed": ("B", "bytes", "gates"),
    "statevector.ctor.calls": ("count", "calls", ("statevector.StateVector.__init__",)),
    "statevector.alloc_bytes_computed": ("B", "bytes", "statevector"),
    "statevector.measure.s": (
        "s",
        "seconds",
        (
            "statevector.measure_subset",
            "statevector.project_onto_outcome",
            "statevector.probabilities_of_subset",
        ),
    ),
    "statevector.tensor.s": ("s", "seconds", ("statevector.tensor",)),
    "statevector.state_to_dict.s": ("s", "seconds", ("statevector.state_to_dict",)),
    "teleport.teleport.calls": ("count", "calls", ("teleport.teleport",)),
    "teleport.trace_to_json.s": ("s", "seconds", ("teleport.trace_to_json",)),
    "bitchain.ctor.calls": ("count", "calls", ("bitchain.BitChain.__post_init__",)),
    "verify.oracle.s": (
        "s",
        "seconds",
        (
            "verify.bell_closed_form",
            "verify.post_cnot_closed_form",
            "verify.pre_measurement_closed_form",
            "verify.outcome_branches",
            "verify.reassemble_from_branches",
            "verify.two_qubit_table_state",
            "gates.hadamard_closed_form",
        ),
    ),
}
for _module in MODULES:
    LAYER_METRICS[f"{_module}.self_s"] = ("s", "self", _module)
    LAYER_METRICS[f"{_module}.errors"] = ("count", "errors", _module)


class Tracer:
    """Wraps the package's public functions while installed; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_modules: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.ops = 0
        self.op_id = -1
        self.errors = dict.fromkeys(MODULES, 0)
        self.bytes = dict.fromkeys(MODULES, 0)
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self, op_id: int) -> None:
        """Wrap everything for one op; ``uninstall`` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.op_id = op_id
        self.ops += 1
        originals = {}
        for module in MODULES:
            namespace = sys.modules.get(f"qteleport.{module}")
            if namespace is None:
                continue
            for attr, obj in vars(namespace).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == namespace.__name__
                ):
                    originals[id(obj)] = (obj, f"{module}.{attr}", module)
        for module, cls_name, attr in CTORS:
            cls = getattr(sys.modules.get(f"qteleport.{module}"), cls_name, None)
            if cls is not None and attr in vars(cls):
                fn = vars(cls)[attr]
                self._patch(cls, attr, self._wrapper(fn, f"{module}.{cls_name}.{attr}", module))
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != "qteleport" and not mod_name.startswith("qteleport."):
                continue
            for attr, obj in list(vars(namespace).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(namespace, attr, self._wrapper(*entry))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, fn, name: str, module: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name_id = len(self.names)
        self.names.append(name)
        self.name_modules.append(module)
        count_bytes = BYTE_COUNTERS.get(name)
        clock = time.perf_counter
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[index] = clock()
                stack.pop()
                self.errors[module] += 1
                raise
            end[index] = clock()
            stack.pop()
            if count_bytes is not None:
                self.bytes[module] += count_bytes(args, result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays; ``name`` indexes ``names``."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "names": np.array(self.names, dtype=str),
            "name_modules": np.array(self.name_modules, dtype=str),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def layer_metrics(self, metrics=LAYER_METRICS) -> dict[str, float]:
        """Per-op values of each metric, averaged over the traced ops.

        A name that was never wrapped, because the package no longer
        defines it, yields 0.
        """
        spans = self.spans()
        parent = spans["parent"]
        duration = spans["end"] - spans["start"]
        own_time = self_times(parent, duration)
        name_ids = {name: i for i, name in enumerate(self.names)}
        name_module = np.array([MODULES.index(m) for m in self.name_modules], dtype=np.int64)
        span_module = name_module[spans["name"]]
        module_self = np.bincount(span_module, weights=own_time, minlength=len(MODULES))
        ops = max(self.ops, 1)
        values = {}
        for metric, (_, kind, target) in metrics.items():
            if kind in ("calls", "seconds"):
                ids = [name_ids[n] for n in target if n in name_ids]
                member = np.isin(spans["name"], ids)
                if kind == "calls":
                    total = float(member.sum())
                else:
                    total = float(duration[member & ~_enclosed(member, parent)].sum())
            elif kind == "self":
                total = float(module_self[MODULES.index(target)])
            elif kind == "bytes":
                total = float(self.bytes[target])
            else:
                total = float(self.errors[target])
            values[metric] = total / ops
        return values


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def _enclosed(member: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Whether some ancestor of each span is a member."""
    enclosed = np.zeros_like(member)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        enclosed[live] |= member[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return enclosed
