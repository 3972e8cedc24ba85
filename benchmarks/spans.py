"""Outside tracing: wrap the public functions of opertuple's layers.

Every public function defined in a traced module is replaced by a wrapper in
every ``opertuple`` module namespace that binds it, so calls made through a
name imported with ``from .x import f`` are traced too. Spans live in flat
arrays in memory (name, parent, op id, start, end, outcome) and are written
once, when the run ends.

A call of a function from directly inside its own span (the recursion in
``enumerate_multiindices``) is not a new span: the caller asked for one
enumeration, and that is what ``calls`` counts.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "multiindex",
    "tuples",
    "defects",
    "linalg",
    "spectra",
    "minverse",
    "tuplefile",
    "reports",
    "cli",
)

# Whether a call did useful work, recorded on the span: a null space that
# confirms an eigenvalue is non-empty.
OUTCOMES = {"linalg.null_space_basis": lambda basis: basis.shape[1] > 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False  # spans are recorded only while an op runs

    def __len__(self) -> int:
        return len(self.name)

    def name_index(self, qualname: str) -> int:
        if qualname not in self._index:
            self._index[qualname] = len(self.names)
            self.names.append(qualname)
        return self._index[qualname]

    def record(self, qualname: str, parent: int, op: int, start: float, end: float, outcome: int = -1) -> int:
        sid = len(self.name)
        self.name.append(self.name_index(qualname))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        self.outcome.append(outcome)
        return sid

    def wrap(self, qualname: str, fn):
        ix = self.name_index(qualname)
        outcome = OUTCOMES.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if not self.active or (stack and self.name[stack[-1]] == ix):
                return fn(*args, **kwargs)
            sid = len(self.name)
            self.name.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.outcome.append(-1)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if outcome is not None:
                self.outcome[sid] = int(bool(outcome(result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of LAYERS wherever opertuple binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"opertuple.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "opertuple" or mod_name.startswith("opertuple.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def extend(self, doc: dict, op: int) -> None:
        """Append the spans another process wrote with ``to_dict``."""
        offset = len(self.name)
        for name, parent, start, end, outcome in zip(
            doc["name"], doc["parent"], doc["start"], doc["end"], doc["outcome"]
        ):
            self.record(doc["names"][name], parent + offset if parent >= 0 else -1, op, start, end, outcome)

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "outcome": list(self.outcome),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\toutcome\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t{self.names[self.name[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t{self.outcome[sid]}\n"
                )


class Layers:
    """Per-name totals over the spans in [lo, hi): calls, busy and self seconds."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.confirmed = 0
        self.confirm_attempts = 0
        child = [0.0] * (hi - lo)
        for sid in range(hi - 1, lo - 1, -1):
            duration = tracer.end[sid] - tracer.start[sid]
            parent = tracer.parent[sid]
            if parent >= lo:
                child[parent - lo] += duration
            name = tracer.names[tracer.name[sid]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child[sid - lo]
            if name == "linalg.null_space_basis" and parent >= 0 and (
                tracer.names[tracer.name[parent]] == "spectra.joint_point_spectrum"
            ):
                self.confirm_attempts += 1
                self.confirmed += tracer.outcome[sid] == 1
