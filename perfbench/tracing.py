"""Host-time spans around each layer's entry points, from outside the program.

The traced run patches the entry points listed in :func:`_layers` with
wrappers that record a span -- name, start, end, parent -- in flat
in-memory arrays; nothing under ``src/repro`` is changed and the untraced
run installs no wrapper at all.  Spans are written out once, at the end.

Every ``*.s`` / ``*.self_s`` layer time is *self* time: a span's duration
less the time its direct child spans cover.  The self times of all spans
therefore partition the traced wall time between layers.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from array import array
from time import perf_counter_ns


def _layers():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro import minicc, signing
    from repro.core import pipeline
    from repro.e1000e.device import E1000EDevice
    from repro.ir import verifier
    from repro.kernel.kernel import Kernel
    from repro.kernel.module_loader import ModuleLoader
    from repro.net.syscalls import RawPacketSocket
    from repro.passes import (
        DCEPass,
        GuardInjectionPass,
        GuardOptPass,
        Mem2RegPass,
        PeepholePass,
    )
    from repro.passes.absint import ModuleVerifier
    from repro.policy.manager import PolicyManager
    from repro.policy.module import CaratPolicyModule
    from repro.vblk.blkdev import BlockRequestQueue
    from repro.vblk.device import VblkDevice
    from repro.vm.compiled import _Translator

    layers = [
        (pipeline, "compile_module", "compile"),
        (minicc, "compile_source", "minicc"),
        (verifier, "verify_module", "ir.verify"),
        (signing, "sign_module", "signing"),
        (ModuleVerifier, "run", "absint"),
        (Kernel, "insmod", "insmod"),
        (ModuleLoader, "_apply_verification", "insmod.reverify"),
        (Kernel, "rmmod", "rmmod"),
        (_Translator, "translate", "vm.translate"),
        (Kernel, "run_function", "vm.exec"),
        (CaratPolicyModule, "_guard", "policy.check"),
        (PolicyManager, "add_region", "policy.mutate"),
        (PolicyManager, "remove_region", "policy.mutate"),
        (E1000EDevice, "mmio_read", "e1000e.mmio"),
        (E1000EDevice, "mmio_write", "e1000e.mmio"),
        (VblkDevice, "mmio_read", "vblk.mmio"),
        (VblkDevice, "mmio_write", "vblk.mmio"),
        (RawPacketSocket, "sendmsg", "net.sendmsg"),
        (BlockRequestQueue, "pread", "blk.submit"),
        (BlockRequestQueue, "pwrite", "blk.submit"),
        (BlockRequestQueue, "fsync", "blk.submit"),
    ]
    for cls in (Mem2RegPass, PeepholePass, DCEPass, GuardInjectionPass,
                GuardOptPass):
        layers.append((cls, "run", f"passes.{cls.name}"))
    return layers


#: A span opened directly inside ``insmod.reverify`` under this name is
#: not recorded, so the certificate re-check's analysis re-run stays in
#: ``insmod.reverify`` and ``absint`` means compile-time analysis only.
SKIP_INSIDE = {"absint": "insmod.reverify"}


class Tracer:
    """Span recorder.  Spans never cross a yield of the round-robin
    scheduler (each wrapped call returns within one CPU turn), so one
    stack of open spans suffices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Per-call facts the compile span hook records:
        #: (start_ns, compile key, guards_proven, guards_dynamic).
        self.compiles: list[tuple[int, tuple, int, int]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, after=None):
        nid = self.name_id(name)
        skip = self.name_id(SKIP_INSIDE[name]) if name in SKIP_INSIDE else -1
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            if skip >= 0 and stack and names[stack[-1]] == skip:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(starts[idx], args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, extra=()) -> None:
        """Wrap every layer entry point (plus ``extra`` triples).  A
        module-level function is replaced in every ``repro`` module that
        imported it by name, so callers that bound it at import time see
        the wrapper too."""
        for owner, attr, name in list(_layers()) + list(extra):
            fn = owner.__dict__[attr]
            after = self._after_compile if name == "compile" else None
            wrapper = self.wrap(fn, name, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for modname, mod in list(sys.modules.items()):
                if modname != "repro" and not modname.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_compile(self, start_ns, args, kwargs, result) -> None:
        source = args[0] if args else kwargs.get("source")
        opts = args[1] if len(args) > 1 else kwargs.get("options")
        digest = (hashlib.sha256(source.encode()).hexdigest()
                  if isinstance(source, str) else id(source))
        key = (digest, opts.resolved_opt_level(), opts.protect, opts.module_name)
        stats = result.stats
        self.compiles.append(
            (start_ns, key, stats.guards_proven, stats.guards_dynamic))

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def nesting_violations(self) -> int:
        """Spans left open, or reaching outside their parent's interval."""
        starts, ends, parents = self.start, self.end, self.parent
        bad = 0
        for i in range(len(starts)):
            p = parents[i]
            if ends[i] < starts[i] or (
                    p >= 0 and (starts[i] < starts[p] or ends[i] > ends[p])):
                bad += 1
        return bad

    def self_times(self, since_ns: int) -> dict[str, list[int]]:
        """``name -> [count, self_ns]`` over the spans starting at or
        after ``since_ns``."""
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        n = len(starts)
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        agg: dict[str, list[int]] = {}
        for i in range(n):
            if starts[i] >= since_ns:
                entry = agg.setdefault(self.names[names[i]], [0, 0])
                entry[0] += 1
                entry[1] += ends[i] - starts[i] - child[i]
        return agg

    def write(self, path) -> None:
        """Spans as gzip: one JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self),
                  "arrays": ["name:H", "start:q", "end:q", "parent:i"],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                f.write(arr.tobytes())


def read_spans(path) -> dict:
    """Load a file written by :meth:`Tracer.write`."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        out = {"names": header["names"]}
        for spec in header["arrays"]:
            field, code = spec.split(":")
            arr = array(code)
            arr.frombytes(f.read(n * arr.itemsize))
            out[field] = arr
    return out
