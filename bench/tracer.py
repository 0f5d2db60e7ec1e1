"""Spans recorded around the calls one absadmm module makes into another.

A wrapper replaces a name in the *calling* module's namespace (for example
``absadmm.solvers.y_step``), so only calls made through that binding are
timed.  A name that does not exist is listed in ``absent`` and skipped, so the
tracer keeps working after a later change deletes or merges a function.

Pool workers started by fork inherit the wrappers.  A worker keeps its own
spans and appends them to ``<sink_dir>/spans-<pid>.jsonl`` each time its
outermost span closes; the parent reads those files with ``collect``.
"""

import functools
import glob
import importlib
import json
import mmap
import os
import struct
import time


class Tracer:
    def __init__(self, sink_dir):
        self.sink_dir = sink_dir
        self.main_pid = self.owner = os.getpid()
        self.spans = []  # (name, id, parent_id, start, end, extra)
        self.stack = []
        self.next_id = 0
        self.absent = []

    def _adopt(self):
        # first span in a forked worker: drop the parent's in-flight state
        if os.getpid() != self.owner:
            self.owner = os.getpid()
            self.spans, self.stack, self.next_id = [], [], 0

    def wrap(self, module, attr, span, annotate=None):
        """Replace ``module.attr`` by a timing wrapper; tolerate a missing name."""
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._adopt()
            sid = f"{self.owner}:{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
            extra = annotate(args, kwargs, out) if annotate else None
            self.spans.append((span, sid, parent, t0, t1, extra))
            if not self.stack and self.owner != self.main_pid:
                self._flush()
            return out

        setattr(mod, attr, wrapper)

    def _flush(self):
        path = os.path.join(self.sink_dir, f"spans-{self.owner}.jsonl")
        with open(path, "a") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def collect(self):
        """All spans of this process and of every worker that flushed."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.sink_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans


class FirstCallStamp:
    """perf_counter time of the first call through a wrapped name.

    The value lives in an anonymous shared mapping, so a call made in a
    forked pool worker is seen by the parent.  Nothing else is recorded.
    """

    def __init__(self):
        self._buf = mmap.mmap(-1, 8)
        self._buf[:] = struct.pack("d", 0.0)

    @property
    def value(self):
        return struct.unpack("d", self._buf[:])[0]

    def hook(self, module, attr):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        buf = self._buf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if struct.unpack("d", buf[:])[0] == 0.0:
                buf[:] = struct.pack("d", time.perf_counter())
            return fn(*args, **kwargs)

        setattr(mod, attr, wrapper)

