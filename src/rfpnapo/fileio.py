"""Small file/serialization helpers shared by the text and binary formats."""
from __future__ import annotations

import hashlib
import os

from .errors import MissingInputError, ParseError


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round trip)."""
    return f"{float(x):.17g}"


def parse_float(token: str, line: int | None = None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad float {token!r}", line=line) from None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def require_file(path: str, what: str = "input") -> str:
    if not os.path.isfile(path):
        raise MissingInputError(f"{what} not found: {path}")
    return path


def write_bytes(path: str, data: bytes) -> None:
    """Replace path with data atomically, creating parent dirs.

    The bytes go to a temp file in the target directory, are fsynced, and
    os.replace puts the file in place: a reader sees the previous file or the
    whole new one, never a truncated write. A failed write leaves the previous
    file as it was and removes the temp file.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, content: str) -> None:
    """Write UTF-8 text as given (LF line endings stay LF), atomically."""
    write_bytes(path, content.encode("utf-8"))


def read_text(path: str, what: str = "input") -> str:
    """Read a UTF-8 text file with universal newlines, as text-mode open does.

    A byte that is not UTF-8 raises ParseError on its 1-based line, counted as
    str.splitlines counts them.
    """
    require_file(path, what)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{what} is not UTF-8 (byte 0x{data[exc.start]:02x})", line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
