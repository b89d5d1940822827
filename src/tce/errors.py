"""Exception types shared by the library and the command-line driver, and their file opener."""

from contextlib import contextmanager


class ToolError(Exception):
    """Base class for errors that carry a CLI exit code."""

    exit_code = 1


class ConfigError(ToolError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class DataError(ToolError):
    """Malformed or incomplete input data."""

    exit_code = 3


class InfeasibleError(ToolError):
    """A computation cannot proceed: bad geometry, too little history, ..."""

    exit_code = 4


@contextmanager
def open_input(path, error: type[ToolError], **kwargs):
    """``open(path, **kwargs)``, for reading or, with a writing ``mode``, for
    writing; failing to open, read, decode or write the file raises ``error``
    naming it."""
    verb = "read" if kwargs.get("mode", "r").startswith("r") else "write"
    try:
        with open(path, **kwargs) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, FileNotFoundError) and verb == "read":
            raise error(f"{path}: file not found") from None
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"{path}: cannot {verb} ({reason})") from None
