"""Span tracing of wqent's public functions, installed from outside the package.

Modules bind each other's names (``from .linalg import hermitian_eig``), so a
public function is wrapped in every ``wqent.*`` namespace that holds the same
object, found by identity. A class is timed through its ``__init__``; data
records (dataclasses, named tuples, exceptions) are left alone. Spans
stay in memory as (name, start, end, parent) and are written out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self, package: str = "wqent"):
        self.package = package
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def span(self, name: str):
        return _Span(self, self._name_index(name))

    def _open(self, idx: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([idx, time.perf_counter(), 0.0, parent])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        idx = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every public function and class of the package; return span names."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        wrapped: dict[int, object] = {}
        found = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                short = mod.__name__.split(".")[-1]
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
                    found.append(f"{short}.{obj.__name__}")
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, BaseException) and not dataclasses.is_dataclass(obj)):
                    init = vars(obj)["__init__"]
                    self._patches.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._wrap(init, f"{short}.{obj.__name__}"))
                    found.append(f"{short}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        return found

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def roots(self) -> list[int]:
        """For each span, the index of its outermost ancestor."""
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):  # parents precede children
            if s[3] >= 0:
                root[i] = root[s[3]]
        return root

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "idx", "sid")

    def __init__(self, tracer: Tracer, idx: int):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        self.sid = self.tracer._open(self.idx)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False
