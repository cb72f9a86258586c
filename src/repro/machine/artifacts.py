"""Process-wide, content-addressed memo of machine-code analysis artifacts.

Typeflow results, version-analysis contexts and check-site facts are pure
functions of a code object's *content*: its target, its function name,
its instruction stream, the kinds of its deopt points and the maps it
depends on.  Re-optimisation rebuilds identical code after a deopt, and
every engine of a differential run (seven tiers, two ISAs) compiles the
same bodies again, so the same analysis used to run many times over.
This module keys each artifact by a digest of that content instead of
by object identity:

* :func:`content_key` digests everything the analyses read and caches
  the digest on the code object (code objects are immutable once
  generation finishes);
* :func:`memoized` returns the artifact of one kind for a key, building
  it on a miss;
* :func:`compile_source` is the same idea for the Python sources the
  tiers generate: identical source means identical bytecode.

Entries are never invalidated — content that changes is a different key
— and both memos are bounded LRUs, so a long fuzz fleet keeps a fixed
number of artifacts alive.  Every caller gets the same object, so an
artifact is read-only once built, and it must hold no reference to an
engine, executor, heap or code object: a cached entry would otherwise
keep a finished engine alive.  :func:`clear` exists for tests that swap
the analysis' transfer function and must not see results computed with
the real one.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple, TypeVar

__all__ = [
    "ARTIFACT_CAPACITY",
    "SOURCE_CAPACITY",
    "clear",
    "compile_source",
    "content_key",
    "memoized",
]

T = TypeVar("T")

#: analysis artifacts kept (three kinds per code body: typeflow result,
#: version analysis, check-site facts)
ARTIFACT_CAPACITY = 256
#: compiled tier sources kept (one per code object, trace set, version
#: body and version dispatcher)
SOURCE_CAPACITY = 2048


class _LRU:
    """A dict bounded to ``capacity`` entries, evicting the least
    recently used."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[object]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_ARTIFACTS = _LRU(ARTIFACT_CAPACITY)
_SOURCES = _LRU(SOURCE_CAPACITY)


def _exact(value: object) -> object:
    """Floats by their bit pattern, so ``-0.0`` and ``0.0`` (and NaN
    payloads) stay distinct; everything else as is."""
    if type(value) is float:
        return ("f64", struct.pack("<d", value).hex())
    return value


def _instr_record(instr) -> Tuple:
    """Every field of a ``MachineInstr`` except ``uid`` and ``comment``."""
    return (
        int(instr.op), instr.dst, instr.s1, instr.s2, _exact(instr.imm),
        instr.mem, instr.target, int(instr.cc), instr.args, instr.aux,
        instr.check_id, instr.shared_with_main, instr.is_deopt_branch,
        instr.returns_float,
    )


def _map_record(a_map) -> Tuple:
    instance_type = getattr(a_map, "instance_type", None)
    elements_kind = getattr(a_map, "elements_kind", None)
    return (
        getattr(a_map, "address", -1),
        getattr(instance_type, "name", ""),
        getattr(elements_kind, "name", ""),
    )


def content_key(code) -> str:
    """Digest of every input the machine-code analyses read, computed
    once and cached on ``code._content_key``."""
    key = getattr(code, "_content_key", None)
    if key is not None:
        return key
    function = getattr(getattr(code.shared, "info", None), "name", "?")
    points = getattr(code, "deopt_points", {}) or {}
    content = (
        code.target.name,
        function,
        tuple(_instr_record(instr) for instr in code.instrs),
        tuple(sorted((cid, p.kind.name) for cid, p in points.items())),
        tuple(sorted(_map_record(m) for m in
                     getattr(code, "map_dependencies", ()) or ())),
    )
    key = hashlib.blake2b(repr(content).encode(), digest_size=20).hexdigest()
    code._content_key = key
    return key


def memoized(kind: str, code, build: Callable[[], T]) -> T:
    """The ``kind`` artifact of ``code``'s content, built by ``build()``
    on a miss.  ``build`` must return an object that references no
    engine-side state (see the module docstring)."""
    key = (kind, content_key(code))
    value = _ARTIFACTS.get(key)
    if value is None:
        value = build()
        _ARTIFACTS.put(key, value)
    return value


def compile_source(source: str, filename: str, compiler=compile):
    """``compiler(source, filename, "exec")``, memoized by source text.

    The generated source embeds every literal (operands, costs, SMI
    bounds, predictor mask), so identical source means identical
    bytecode.  Tier modules pass their own ``compile`` binding so that
    a module-level rebinding of it (a call counter) still sees every
    real compilation.
    """
    compiled = _SOURCES.get(source)
    if compiled is None:
        compiled = compiler(source, filename, "exec")
        _SOURCES.put(source, compiled)
    return compiled


def clear() -> None:
    """Drop every memoized artifact and compiled source (tests only)."""
    _ARTIFACTS.clear()
    _SOURCES.clear()
