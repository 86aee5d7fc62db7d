"""Small file/serialization helpers shared by the text and binary formats."""
from __future__ import annotations

import hashlib
import os
from typing import Iterable

import numpy as np

from .errors import MissingInputError, ParseError

# The text readers convert this many numbers at a time: a token list costs
# about 190 bytes per number while it lives, so it stays one block long.
BLOCK_VALUES = 1 << 13


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round trip)."""
    return f"{float(x):.17g}"


def row_format(width: int, sep: str) -> str:
    """A %-format for width floats: row_format(n, sep) % tuple(row) == sep.join(map(fmt17, row))."""
    return sep.join(["%.17g"] * width)


def parse_float(token: str, line: int | None = None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad float {token!r}", line=line) from None


def parse_floats(tokens: list[str]) -> np.ndarray | None:
    """float() of every token as one float64 array; None if some token is not a number.

    np.array converts each str with float(), so it accepts exactly the
    spellings parse_float accepts ("1_0", "\u0661", surrounding whitespace).
    """
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return None


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
