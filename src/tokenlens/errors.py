"""Exception types shared across the toolkit.

Everything user-triggerable raises ToolkitError so the CLI can map it to exit
code 1; genuine bugs surface as ordinary Python exceptions. Input files are
parsed inside reading(path), the one place that puts a file's path in front of
what is wrong with it. OovCharacterError is the one subclass: premium and
select_oov_chars catch it by type, because a character the vocabulary cannot
represent is a finding there, not a failure.
"""

from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for expected, user-reportable failures."""


@contextmanager
def reading(path: str):
    """Frame the parse of one input file: a ToolkitError, ValueError (JSON
    syntax, UTF-8 decoding, numpy reshape), OverflowError or RecursionError
    (JSON nested deeper than the decoder goes) raised inside is re-raised as
    a ToolkitError that starts with path. OSError passes through; it already
    names the file."""
    try:
        yield
    except (ToolkitError, ValueError, OverflowError, RecursionError) as exc:
        raise ToolkitError(f"{path}: {exc}") from None


class OovCharacterError(ToolkitError):
    """Text contains a character the vocabulary cannot represent."""

    def __init__(self, char: str, offset: int):
        self.char = char
        self.offset = offset
        super().__init__(f"character {char!r} (U+{ord(char):04X}) at offset {offset} is not in the vocabulary")

