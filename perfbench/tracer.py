"""Span tracing of ridecrypt's public functions, installed from outside.

``instrument`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent span, thread) and, for a few calls,
an exact work counter. The library's source is never edited: functions are
rebound in every ridecrypt module namespace that holds them, because the
modules import each other's functions by name, and methods are rebound on
their class.

Spans stay in memory, one buffer per thread, until ``Tracer.save`` writes
them out. ``Tracer.summary`` turns them into inclusive time, self time and
call counts per span name.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from collections import Counter

import numpy as np

#: Functions traced, as (layer, function name); each is rebound wherever a
#: ridecrypt module holds it.
FUNCTIONS = [
    ("roadnet", "generate_grid_network"),
    ("roadnet", "rne_distance"),
    ("codec", "decompose"),
    ("codec", "recompose"),
    ("codec", "weighted_difference"),
    ("codec", "encode_signed"),
    ("codec", "decode_signed"),
    ("crypto", "prf_h"),
    ("crypto", "prf_f"),
    ("crypto", "issue_system_keys"),
    ("protocol", "rider_encrypt"),
    ("protocol", "driver_encrypt"),
    ("protocol", "sp_compute_distance"),
    ("attack", "run_attack"),
    ("attack", "recover_rider_vector"),
    ("attack", "recover_driver_vectors"),
    ("attack", "deanonymize"),
    ("harness", "run_experiment"),
    ("harness", "run_synthetic_sessions"),
    ("harness", "derive_seed"),
]

#: Methods traced, as (layer, class name, method name).
METHODS = [
    ("roadnet", "RoadNetwork", "diameter"),
    ("roadnet", "RoadNetwork", "embedding_table"),
    ("roadnet", "RoadNetwork", "distances_from"),
    ("crypto", "CollisionWatchdog", "observe"),
    ("protocol", "ServiceProvider", "match_response"),
    ("attack", "DifferenceLedger", "record_matches"),
    ("attack", "DifferenceLedger", "is_unique"),
]

#: The party whose PRF evaluations a protocol call performs.
PRF_PARTIES = {
    "protocol.rider_encrypt": "rider",
    "protocol.driver_encrypt": "driver",
    "protocol.match_response": "sp",
}


class _Buffer:
    """Spans of one thread, in start order, as parallel typed arrays."""

    __slots__ = ("thread", "name", "start", "end", "parent", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # index into this buffer, -1 at the root
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records a span ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        local = self._local
        new_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            index = len(buf.name)
            stack = buf.stack
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(index)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as columns; ``parent`` indexes the same columns."""
        names, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.frombuffer(buf.name, dtype=np.int32))
            starts.append(np.frombuffer(buf.start, dtype=np.float64))
            ends.append(np.frombuffer(buf.end, dtype=np.float64))
            threads.append(np.full(len(buf.name), buf.thread, dtype=np.uint64))
            offset += len(buf.name)
        return {
            "name": np.concatenate(names),
            "start": np.concatenate(starts),
            "end": np.concatenate(ends),
            "parent": np.concatenate(parents),
            "thread": np.concatenate(threads),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children, which on one thread never overlap each other.
        """
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, cols["parent"][has_parent], duration[has_parent])
        size = len(self.names)
        count = np.bincount(cols["name"], minlength=size)
        total = np.bincount(cols["name"], weights=duration, minlength=size)
        own = np.bincount(cols["name"], weights=duration - child_time, minlength=size)
        return {
            name: {"calls": int(count[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())


def instrument(tracer: Tracer) -> None:
    """Rebind every traced function and method of ridecrypt to a wrapper."""
    from ridecrypt import attack, codec, crypto, harness, protocol, roadnet

    modules = {
        "roadnet": roadnet,
        "codec": codec,
        "crypto": crypto,
        "protocol": protocol,
        "attack": attack,
        "harness": harness,
    }
    counters = tracer.counters
    watchdog = crypto.watchdog

    def counted(name, fn):
        # Exact work counts gathered at the same boundary as the span; the
        # counting itself sits outside the span so it is not timed there.
        party = PRF_PARTIES.get(name)
        if party is not None:
            key = "crypto.prf_evals." + party

            def with_prf(*args, **kwargs):
                before = watchdog.evaluations
                try:
                    result = fn(*args, **kwargs)
                finally:
                    counters[key] += watchdog.evaluations - before
                if name == "protocol.rider_encrypt":
                    counters["protocol.requests"] += 1
                    counters["protocol.request_bytes"] += sum(
                        len(group.nonce)
                        + sum(len(e.c1) + len(e.c2) for e in group.entries)
                        for group in result.groups
                    )
                elif name == "protocol.driver_encrypt":
                    counters["protocol.responses"] += 1
                    counters["protocol.response_bytes"] += sum(
                        len(e.c1) + len(e.c2) for e in result.entries
                    )
                return result

            return functools.wraps(fn)(with_prf)
        if name == "attack.record_matches":

            def with_entries(self, driver_id, matches):
                counters["attack.ledger_entries"] += len(matches)
                return fn(self, driver_id, matches)

            return functools.wraps(fn)(with_entries)
        return fn

    for layer, attr in FUNCTIONS:
        original = getattr(modules[layer], attr)
        name = f"{layer}.{attr}"
        wrapped = counted(name, tracer.wrap(name, original))
        for module in modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{attr}"
        setattr(cls, attr, counted(name, tracer.wrap(name, getattr(cls, attr))))
