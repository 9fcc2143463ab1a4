"""Exception types shared across the toolkit.

Everything user-triggerable raises ToolkitError (or a subclass) so the CLI can
map it to exit code 1; genuine bugs surface as ordinary Python exceptions.
Input files are parsed inside reading(path), the one place that puts a file's
path in front of what is wrong with it.
"""

from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for expected, user-reportable failures."""


@contextmanager
def reading(path: str):
    """Frame the parse of one input file: a ToolkitError, ValueError (JSON
    syntax, UTF-8 decoding, numpy reshape) or OverflowError raised inside is
    re-raised as a ToolkitError that starts with path. OSError passes through;
    it already names the file."""
    try:
        yield
    except (ToolkitError, ValueError, OverflowError) as exc:
        raise ToolkitError(f"{path}: {exc}") from None


class CorpusDecodeError(ToolkitError):
    """Input file is not valid UTF-8. Carries the byte offset of the fault."""

    def __init__(self, path: str, byte_offset: int, reason: str):
        self.path = path
        self.byte_offset = byte_offset
        super().__init__(f"{path}: invalid UTF-8 at byte offset {byte_offset}: {reason}")


class LineCountMismatchError(ToolkitError):
    """Parallel files disagree on line count."""

    def __init__(self, english_path: str, target_path: str, n_english: int, n_target: int):
        self.n_english = n_english
        self.n_target = n_target
        super().__init__(
            f"parallel line counts differ: {english_path} has {n_english}, "
            f"{target_path} has {n_target}"
        )


class OovCharacterError(ToolkitError):
    """Text contains a character the vocabulary cannot represent."""

    def __init__(self, char: str, offset: int):
        self.char = char
        self.offset = offset
        super().__init__(f"character {char!r} (U+{ord(char):04X}) at offset {offset} is not in the vocabulary")

