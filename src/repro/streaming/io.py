"""Plain-text persistence for instances and streams.

The format is deliberately simple and diff-friendly::

    # optional comment lines
    setcover <n> <m>
    <set_id> <element>
    <set_id> <element>
    ...

One edge per line; sets with no edges are empty sets.  This is the
interchange format used by the examples and accepted by the CLI.

The loader parses the edge body with ``np.loadtxt`` straight into the
instance's CSR arrays.  The original line-by-line parser is kept as
the scalar reference: any input the fast path cannot vouch for (a
``loadtxt`` error, a line count it cannot account for, an id out of
range) is handed to it, so malformed files fail with exactly its
error types and line numbers.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.errors import InvalidInstanceError
from repro.streaming.instance import (
    SetCoverInstance,
    csr_from_pairs,
    instance_from_edges,
)
from repro.types import Edge

PathLike = Union[str, Path]

_HEADER = "setcover"
#: Edges formatted per ``%`` operation when writing; bounds the
#: temporary ints and text a large instance needs.
_WRITE_CHUNK = 1 << 14


def dump_instance(instance: SetCoverInstance, target: Union[PathLike, TextIO]) -> None:
    """Write ``instance`` in the text format to a path or open text file."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            _write(instance, handle)
    else:
        _write(instance, target)


def _write(instance: SetCoverInstance, handle: TextIO) -> None:
    if instance.name:
        handle.write(f"# {instance.name}\n")
    handle.write(f"{_HEADER} {instance.n} {instance.m}\n")
    set_ids, elements = instance.columns()
    for start in range(0, len(set_ids), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        pairs = np.column_stack((set_ids[start:stop], elements[start:stop]))
        handle.write(("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))


def load_instance(source: Union[PathLike, TextIO]) -> SetCoverInstance:
    """Read an instance written by :func:`dump_instance`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read(handle)
    return _read(source)


def _read(handle: TextIO) -> SetCoverInstance:
    text = handle.read()
    instance = _read_columns(text)
    if instance is None:
        return _read_reference(io.StringIO(text))
    return instance


def _read_columns(text: str) -> Optional[SetCoverInstance]:
    """Fast parse of ``text``, or ``None`` where the reference must decide."""
    header = _scan_header(text)
    if header is None:
        return None
    n, m, name, body_start = header
    pairs = _parse_body(text[body_start:])
    if pairs is None or n <= 0 or m <= 0:
        return None
    set_ids, elements = pairs[:, 0], pairs[:, 1]
    if pairs.size and (
        set_ids.min() < 0 or set_ids.max() >= m
        or elements.min() < 0 or elements.max() >= n
    ):
        return None
    indptr, indices = csr_from_pairs(n, m, set_ids, elements)
    return SetCoverInstance.from_csr(n, indptr, indices, name=name)


def _scan_header(text: str) -> Optional[Tuple[int, int, str, int]]:
    """``(n, m, name, body offset)`` as the reference reads them, or ``None``."""
    name = ""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end + 1
        line = text[pos:end].strip()
        pos = end
        if not line:
            continue
        if line.startswith("#"):
            if not name:
                name = line.lstrip("#").strip()
            continue
        parts = line.split()
        if parts[0] != _HEADER or len(parts) != 3:
            return None
        try:
            return int(parts[1]), int(parts[2]), name, pos
        except ValueError:
            return None
    return None


def _parse_body(body: str) -> Optional[np.ndarray]:
    """``int64[k, 2]`` edge pairs of ``body``, or ``None`` if unsure.

    ``loadtxt`` and the reference's ``split``/``int`` agree on ASCII
    text whose every line holds two integers.  Anything else (non-ASCII
    digits ``loadtxt`` misreads, comment or blank lines, ``1_000``,
    which ``int`` accepts) is left to the reference.
    """
    if not body or body.isspace():
        return np.empty((0, 2), dtype=np.int64)
    if not body.isascii():
        return None
    try:
        pairs = np.loadtxt(
            io.StringIO(body), dtype=np.int64, ndmin=2, comments=None
        )
    except (ValueError, OverflowError):
        return None
    lines = body.count("\n") + (not body.endswith("\n"))
    if pairs.shape != (lines, 2):
        return None
    return pairs


def _read_reference(handle: TextIO) -> SetCoverInstance:
    """The scalar line parser: the reference for :func:`_read`."""
    name = ""
    header: Tuple[int, int] = (0, 0)
    edges: List[Tuple[int, int]] = []
    saw_header = False
    for line_no, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not saw_header and not name:
                name = line.lstrip("#").strip()
            continue
        parts = line.split()
        if not saw_header:
            if parts[0] != _HEADER or len(parts) != 3:
                raise InvalidInstanceError(
                    f"line {line_no}: expected '{_HEADER} <n> <m>' header, got "
                    f"{line!r}"
                )
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise InvalidInstanceError(
                    f"line {line_no}: non-integer header fields in {line!r}"
                ) from None
            saw_header = True
            continue
        if len(parts) != 2:
            raise InvalidInstanceError(
                f"line {line_no}: expected '<set_id> <element>', got {line!r}"
            )
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidInstanceError(
                f"line {line_no}: non-integer edge fields in {line!r}"
            ) from None
    if not saw_header:
        raise InvalidInstanceError("missing 'setcover <n> <m>' header")
    n, m = header
    return instance_from_edges(n, m, edges, name=name)


def dumps_instance(instance: SetCoverInstance) -> str:
    """Serialise ``instance`` to a string."""
    buffer = io.StringIO()
    _write(instance, buffer)
    return buffer.getvalue()


def loads_instance(text: str) -> SetCoverInstance:
    """Parse an instance from a string produced by :func:`dumps_instance`."""
    return _read(io.StringIO(text))


def dump_stream(edges: Iterable[Edge], target: Union[PathLike, TextIO]) -> None:
    """Write an ordered edge sequence, one ``set element`` pair per line."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            for edge in edges:
                handle.write(f"{edge.set_id} {edge.element}\n")
    else:
        for edge in edges:
            target.write(f"{edge.set_id} {edge.element}\n")


def load_stream(source: Union[PathLike, TextIO]) -> List[Edge]:
    """Read an ordered edge sequence written by :func:`dump_stream`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_stream(handle)
    return _read_stream(source)


def _read_stream(handle: TextIO) -> List[Edge]:
    edges: List[Edge] = []
    for line_no, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInstanceError(
                f"line {line_no}: expected '<set_id> <element>', got {line!r}"
            )
        edges.append(Edge(int(parts[0]), int(parts[1])))
    return edges
