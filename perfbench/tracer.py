"""Span tracing by wrapping the library's module-level names.

The pipeline looks its collaborators up as module globals at call time
(``allpass.mirror`` calls ``det_roots``, ``classify``, ``spectral_eval`` ...
through its own namespace), so replacing those attributes with timing
wrappers records a span at every layer boundary without touching ``src/``.
:class:`Tracer` is a context manager: it installs the wrappers on entry and
puts every original back on exit, also when the traced code raises.

Spans (name, start, end, parent, op) are kept in compact arrays in memory and
written once, by :meth:`Tracer.save`, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

# (module, attribute, span name).  The package-level names are the ones the
# benchmark itself calls; the rest are the globals the pipeline looks up.
TARGETS = (
    ("allpass", "mirror_all_inside", "mirror.mirror_all_inside"),
    ("allpass", "b2_consecutive_from_w", "blaschke.b2_consecutive_from_w"),
    ("allpass", "b2_polynomial", "blaschke.b2_polynomial"),
    ("allpass", "build_b2", "statespace.build_b2"),
    ("allpass", "elementary", "blaschke.elementary"),
    ("allpass", "squared", "blaschke.squared"),
    ("allpass", "verify_allpass", "blaschke.verify_allpass"),
    ("allpass.cli", "main", "cli.main"),
    ("allpass.cli", "det_roots", "roots.det_roots"),
    ("allpass.cli", "mirror_all_inside", "mirror.mirror_all_inside"),
    ("allpass.cli", "mirror_set", "mirror.mirror_set"),
    ("allpass.jsonio", "poly_from_json", "jsonio.read"),
    ("allpass.jsonio", "poly_to_json", "jsonio.write"),
    ("allpass.jsonio", "record_to_json", "jsonio.write"),
    ("allpass.jsonio", "report_to_json", "jsonio.write"),
    ("allpass.jsonio", "dumps", "jsonio.write"),
    ("allpass.mirror", "mirror_once", "mirror.mirror_once"),
    ("allpass.mirror", "det_roots", "roots.det_roots"),
    ("allpass.mirror", "classify", "roots.classify"),
    ("allpass.mirror", "spectral_eval", "polymat.spectral_eval"),
    ("allpass.mirror", "elementary", "blaschke.elementary"),
    ("allpass.mirror", "squared", "blaschke.squared"),
    ("allpass.mirror", "b2_consecutive", "blaschke.b2_consecutive"),
    ("allpass.mirror", "b2_polynomial", "blaschke.b2_polynomial"),
    ("allpass.mirror", "build_b2", "statespace.build_b2"),
    ("allpass.blaschke", "b2_consecutive", "blaschke.b2_consecutive"),
    ("allpass.blaschke", "solve_stein", "statespace.solve_stein"),
    ("allpass.roots", "det_poly", "polymat.det_poly"),
    ("allpass.roots", "poly_roots", "polymat.poly_roots"),
    ("allpass.statespace", "solve_stein", "statespace.solve_stein"),
    ("allpass.statespace", "structural_blocks", "statespace.structural_blocks"),
)

# spans whose first argument and result are kept to verify detection later
CAPTURED = frozenset({"roots.det_roots"})


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.captures: list = []
        self.op_id = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, fn, span: str):
        nid = self._id(span)
        capture = span in CAPTURED

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if capture:
                self.captures.append((self.op_id, args[0], result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for mod_name, attr, span in self.targets:
            try:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def summary(self, n_ops: int) -> dict:
        """Per-name ``calls``, ``ms`` (inclusive) and ``self_ms``, per op."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = {
                "calls": float(sel.sum()) * per_op,
                "ms": 1e3 * float(dur[sel].sum()) * per_op,
                "self_ms": 1e3 * float(own[sel].sum()) * per_op,
            }
        return out

    def ops_with(self, span: str) -> set:
        """Ops that recorded at least one span of this name."""
        if span not in self._ids:
            return set()
        sel = np.frombuffer(self.name, dtype=np.int32) == self._ids[span]
        return set(np.frombuffer(self.op, dtype=np.int32)[sel].tolist())

    def count_in(self, span: str, ops: set) -> int:
        if span not in self._ids or not ops:
            return 0
        sel = np.frombuffer(self.name, dtype=np.int32) == self._ids[span]
        op = np.frombuffer(self.op, dtype=np.int32)[sel]
        return int(np.isin(op, list(ops)).sum())

    def to_json(self) -> dict:
        """The spans as plain lists, for a traced child process to hand back."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }

    def absorb(self, spans: dict, op_id: int):
        """Append the spans a traced child process recorded, under ``op_id``."""
        base = len(self.start)
        ids = [self._id(n) for n in spans["names"]]
        for nid, parent, start, end in zip(
            spans["name"], spans["parent"], spans["start"], spans["end"]
        ):
            self.name.append(ids[nid])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
            self.start.append(start)
            self.end.append(end)

    def save(self, path: str):
        """Write every span once, as arrays plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
