"""Span collector for the traced run.

A profile hook, set from the benchmark around calls into the package, turns
calls of selected functions (matched by module and function name) into spans.
Each span records its duration and the part of it covered by tracked child
spans, so a label's self time is its duration minus that part.  Spans are kept
per thread and summed when the run ends; nothing inside the package changes.
"""

from __future__ import annotations

import os
import sys
import threading
from time import perf_counter

_UNSEEN = object()


class Tracer:
    """Context manager: profile hook on this thread and on threads started
    inside the block.

    labels maps (module name, function name) to a span label; module names are
    files of the package directory pkg_dir.  Only Python functions are seen:
    numpy's Generator draws are compiled methods and raise no profile event.
    """

    def __init__(self, pkg_dir: str, labels: dict):
        self._pkg = os.path.realpath(pkg_dir) + os.sep
        self._labels = labels
        self._codes = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []          # (is_main_thread, {label: [calls, total, self]})
        self._main = threading.get_ident()

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)
        return False

    def _classify(self, code):
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self._pkg):
            return None
        module = os.path.splitext(os.path.basename(path))[0]
        return self._labels.get((module, code.co_name))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.stats = {}
            with self._lock:
                self._per_thread.append((threading.get_ident() == self._main,
                                         self._local.stats))
        return stack

    def _close(self, stack, now):
        label, _, start, child = stack.pop()
        dur = now - start
        rec = self._local.stats.setdefault(label, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if stack:
            stack[-1][3] += dur

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            label = self._codes.get(code, _UNSEEN)
            if label is _UNSEEN:
                label = self._codes[code] = self._classify(code)
            if label is not None:
                self._stack().append([label, frame, perf_counter(), 0.0])
        elif event == "return":
            stack = getattr(self._local, "stack", None)
            if stack and stack[-1][1] is frame:
                self._close(stack, perf_counter())

    def summary(self, main_only: bool = False) -> dict:
        """{label: (calls, total_s, self_s)} summed over threads (or over the
        thread that entered the block only)."""
        out = {}
        with self._lock:
            threads = list(self._per_thread)
        for is_main, stats in threads:
            if main_only and not is_main:
                continue
            for label, (calls, total, self_s) in stats.items():
                c, t, s = out.get(label, (0, 0.0, 0.0))
                out[label] = (c + calls, t + total, s + self_s)
        return out
