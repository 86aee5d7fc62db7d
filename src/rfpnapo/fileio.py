"""Small file/serialization helpers shared by the text and binary formats.

read_records is the one reader loop of both text formats, the pair file and the corpus TSV.
"""
from __future__ import annotations

import hashlib
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import MissingInputError, ParseError


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round trip)."""
    return f"{float(x):.17g}"


def row_format(width: int, sep: str) -> str:
    """A %-format for width floats: row_format(n, sep) % tuple(row) == sep.join(map(fmt17, row))."""
    return sep.join(["%.17g"] * width)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def require_file(path: str, what: str = "input") -> str:
    if not os.path.isfile(path):
        raise MissingInputError(f"{what} not found: {path}")
    return path


def write_bytes(path: str, chunks: Iterable[bytes]) -> None:
    """Replace path with the chunks, one after another, atomically, creating parent dirs.

    The chunks go to a temp file in the target directory as they come, are
    fsynced, and os.replace puts the file in place: a reader sees the
    previous file or the whole new one, never a truncated write. A failed
    write leaves the previous file as it was and removes the temp file.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, lines: Iterable[str]) -> None:
    """Write each line and a "\n" as UTF-8, atomically; the text is never held whole."""
    write_bytes(path, (f"{line}\n".encode("utf-8") for line in lines))


def read_lines(path: str, what: str = "input") -> list[str]:
    """The lines of a UTF-8 text file, split as str.splitlines splits them.

    That is at \n, \r\n and \r as text-mode open reads them, and at the other
    Unicode line boundaries as well. A byte that is not UTF-8 raises
    ParseError on its 1-based line, counted the same way.
    """
    require_file(path, what)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{what} is not UTF-8 (byte 0x{data[exc.start]:02x})", line=line) from None
    del data  # the bytes need not live beside the text and its lines
    return text.splitlines()


def first_fault(rules: Sequence[tuple[np.ndarray, Callable[[int], str]]]) -> tuple[int, str] | None:
    """(row, reason) of the first row that breaks a rule, or None if no row does.

    Each rule is (bad, reason): bad an (n,) bool array marking the rows that
    break it, reason(row) its text. A row that breaks several rules gets the
    reason of the first of them in the list.
    """
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(reason(row) for mask, reason in rules if mask[row])


def read_records(lines: list[str], width: int, split: Callable, fault: Callable) -> tuple[list, np.ndarray]:
    """(heads, values) of the record lines of a text file: lines[1:], empty lines skipped.

    split(line) gives a line's cells, its width numbers last, and raises
    ValueError with the reason for a wrong field or column count; heads[i]
    holds record i's cells before its numbers; width is at least 1. A line's
    numbers become row i of the (n, width) matrix values by one np.array call,
    which converts each str with float(), so "1_0", "\u0661" and surrounding
    whitespace are numbers. With no record line, values is (0, width), and a
    width numpy cannot hold even there raises ParseError on line 1.

    Reading stops at the first line whose counts or numbers fail.
    fault(heads, values) then applies the format's value rules to the rows
    before it, as its writer does, and returns the first bad row and its
    reason, or None. A value fault wins, else that line's fault stands: the
    ParseError names the file's first bad line. A reason reads after "has" in
    the writer's message ("a non-finite cond value"); the ParseError drops its article.
    """
    records = [(lineno, raw) for lineno, raw in enumerate(lines[1:], start=2) if raw != ""]
    heads: list[list[str]] = []
    if not records:
        try:
            return heads, np.empty((0, width))
        except ValueError:  # numpy bounds a row's size even in an array of no rows
            raise ParseError(f"a record of {width} numbers is past numpy's size limit", line=1) from None
    rows: list[np.ndarray] = []
    error = None
    for lineno, raw in records:
        try:
            cells = split(raw)
            rows.append(np.array(cells[len(cells) - width :], dtype=np.float64))
        except ValueError as exc:
            error = ParseError(str(exc), line=lineno)
            break
        heads.append(cells[: len(cells) - width])
    values = np.array(rows)
    found = fault(heads, values) if heads else None
    if found is not None:
        row, reason = found
        raise ParseError(reason.removeprefix("an ").removeprefix("a "), line=records[row][0])
    if error is not None:
        raise error
    return heads, values
