"""Exception taxonomy shared by every stage of the pipeline.

``DataError`` subclasses indicate problems with input data (exit code 65 at
the CLI); ``InternalError`` subclasses indicate bugs or I/O failures on our
side (exit code 70). Missing input files surface as the interpreter's own
``FileNotFoundError`` and map to exit code 66.
"""

import os
from typing import Callable


class DriveTriadError(Exception):
    """Base class for all errors raised by this package."""


class DataError(DriveTriadError):
    """Input data is malformed, inconsistent, or unusable.

    ``path`` names the input file at fault when one file is; the CLI puts
    it in front of the error line.
    """

    path: str | os.PathLike | None = None


class InternalError(DriveTriadError):
    """Invariant violation or environment failure, not a data problem."""


# --- track logs / geodesy ---------------------------------------------------

class EmptyTrack(DataError):
    """GPX input contained no track points."""


class MissingTimestamp(DataError):
    """A track point has no time element."""


class NonMonotoneTrack(DataError):
    """Track point timestamps decrease."""


# --- transcripts / sidecars -------------------------------------------------

class ParseError(DataError):
    """Input bytes could not be parsed into the expected structure."""


class EncodingError(DataError):
    """A text input's bytes are not valid UTF-8 (a leading byte-order mark
    is allowed)."""


class EmptyTranscript(DataError):
    """Transcript contained no segments at all; one with only wordless
    segments is read, and each of them is dropped with a warning."""


class InvalidFps(DataError):
    """Video sidecar declares a non-positive or non-finite frame rate."""


class InvalidAnchor(DataError):
    """A stream cannot be placed on the UTC timeline: relative times with no
    anchor, or an anchor or offset that moves an instant before the epoch or
    past 9999-12-31T23:59:59.999Z."""


# --- classification ---------------------------------------------------------

class LexiconError(DataError):
    """A lexicon override is a JSON object but no lexicon: a key that names
    nothing, a value of the wrong type, or a pattern that does not compile.
    Bytes that are not a JSON object raise EncodingError or ParseError."""


# --- synchronization / segmentation ----------------------------------------

class NoUsableEvents(DataError):
    """No instruction event to work on: every segment fell outside the
    usable time range or had no words, or segment_actions got no events."""


# --- emission ---------------------------------------------------------------

class InternalOrderingError(InternalError):
    """Events handed to segment_actions, or records handed to the emitter,
    were not sorted by event time."""


class IoError(InternalError):
    """A write to a file, a directory or standard output failed."""


def parse_input(path: str | os.PathLike | None, parse: Callable, *args):
    """``parse(*args)``, with a DataError it raises marked as coming from
    the input file ``path``."""
    try:
        return parse(*args)
    except DataError as exc:
        exc.path = path
        raise
