"""Spans recorded around calls into the library, from outside it.

A :class:`Tracer` wraps functions; each call through a wrapper is a
span (name, start, end, parent).  Per-name totals are kept as the spans
close: calls, inclusive and self time (inclusive minus the time covered
by child spans), exceptions raised, cache misses of ``lru_cache``
functions, and an optional count of items the call produced.  The first
``keep`` spans are also kept whole in memory and written out at the end.

:func:`instrument` installs the wrappers by replacing module attributes,
so every call resolved through those attributes is traced: the entry
points the benchmark calls, and the names that ``hopf`` and ``lattice``
import from the layers below them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

# Called by the benchmark itself: (module, function, item count or None).
ENTRY_POINTS = (
    ("insertion", "p_symbol", None),
    ("insertion", "q_symbol", None),
    ("insertion", "p_shape", None),
    ("insertion", "class_of_pair", len),
    ("insertion", "baxter_representative", None),
    ("perms", "is_baxter", None),
    ("congruence", "congruence_class", len),
    ("hopf", "p_product", lambda element: len(element.terms)),
    ("hopf", "p_coproduct", None),
    ("hopf", "dual_product", None),
    ("hopf", "dual_coproduct", None),
    ("hopf", "e_product", None),
    ("hopf", "h_product", None),
    ("cli", "main", None),
)

# Modules whose imports from the layers below are traced where they are used.
IMPORTERS = ("hopf", "lattice")
IMPORTED_FROM = ("insertion", "words", "lattice", "exactlin")
# Text helpers and sub-microsecond helpers stay unwrapped.
UNTRACED = {"size", "tree_str", "tamari_vector", "word_str", "rational_str"}
ITEM_COUNTS = {"shifted_shuffle": len}


class Tracer:
    def __init__(self, keep=200_000):
        self.keep = keep
        self.names = []
        self._ids = {}
        self.calls, self.total_s, self.self_s = [], [], []
        self.errors, self.misses, self.items = [], [], []
        self.spans = []  # (index, name id, start, end, parent index or -1)
        self.opened = 0
        self._stack = []  # [index, start, child seconds]
        self._wrappers = {}

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.total_s, self.self_s,
                           self.errors, self.misses, self.items):
                column.append(0)
        return nid

    def wrap(self, fn, name, count=None):
        """A traced stand-in for ``fn``; one wrapper per function."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        nid = self._name_id(name)
        cache_info = getattr(fn, "cache_info", None)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info().misses if cache_info else 0
            stack.append([self.opened, clock(), 0.0])
            self.opened += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(nid, clock())
                self.errors[nid] += 1
                raise
            end = clock()
            did_work = cache_info is None or cache_info().misses > before
            if not did_work:
                self._close(nid, end)
            else:
                self._close(nid, end, 1 if cache_info else 0, count(out) if count else 0)
            return out

        self._wrappers[fn] = traced
        return traced

    def _close(self, nid, end, missed=0, items=0):
        index, start, child = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        self.misses[nid] += missed
        self.items[nid] += items
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index < self.keep:
            self.spans.append((index, nid, start, end, parent[0] if parent else -1))

    def totals(self):
        return {
            name: {
                "calls": self.calls[i], "total_s": self.total_s[i],
                "self_s": self.self_s[i], "errors": self.errors[i],
                "misses": self.misses[i], "items": self.items[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """Write the kept spans as gzipped JSON lines: a header, then one
        ``[index, name, start, end, parent]`` line per span."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"names": self.names, "spans": self.opened,
                                  "kept": len(self.spans)}) + "\n")
            for index, nid, start, end, parent in sorted(self.spans):
                out.write(f"[{index},{nid},{start:.9f},{end:.9f},{parent}]\n")


def instrument(tracer, baxter_modules, extra=()):
    """Replace library attributes by traced wrappers.

    ``baxter_modules`` maps short module names to the imported modules;
    ``extra`` lists further (module, attribute, span name) to wrap, such
    as the verify suites.  Names missing from the library are skipped.
    """
    for mod, attr, count in ENTRY_POINTS:
        module = baxter_modules[mod]
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(fn, f"{mod}.{attr}", count))
    for mod in IMPORTERS:
        module = baxter_modules[mod]
        for attr, fn in list(vars(module).items()):
            home = getattr(fn, "__module__", "") or ""
            short = home.rpartition(".")[2]
            if (short in IMPORTED_FROM and short != mod and callable(fn)
                    and not isinstance(fn, type) and attr not in UNTRACED):
                setattr(module, attr,
                        tracer.wrap(fn, f"{short}.{attr}", ITEM_COUNTS.get(attr)))
    for holder, key, name in extra:
        holder[key] = tracer.wrap(holder[key], name)
