"""Parsers for the three input streams.

* GPX 1.0/1.1 track logs (the action stream),
* transcript segment files in three formats (the language stream),
* a JSON video sidecar describing start time / fps / frame count
  (the vision stream; media files are never opened here).

Parsers are pure functions of their byte input.
"""

from __future__ import annotations

import pyexpat
import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from .classifier import has_word
from .core import (
    MAX_INSTANT_MS, GeoPoint, TrackLog, check_value, member, parse_float,
    parse_iso8601_ms, read_object, read_text,
)
from .errors import (
    DataError,
    EmptyTrack,
    EmptyTranscript,
    EncodingError,
    InvalidAnchor,
    InvalidFps,
    MissingTimestamp,
    NonMonotoneTrack,
    ParseError,
)

TRANSCRIPT_FORMATS = ("segment-json", "srt", "plain-lines")


@dataclass(frozen=True, slots=True, init=False)
class TranscriptSegment:
    """One stretch of transcribed speech, in seconds relative to audio start.

    Readers and synth build one per segment or cue, so the class has slots
    and one storing constructor in place of the generated one, as GeoPoint
    has; it checks nothing, as the generated one did not.
    """

    start_s: float
    end_s: float
    text: str

    def __init__(self, start_s: float, end_s: float, text: str) -> None:
        _SET_START(self, start_s)
        _SET_END(self, end_s)
        _SET_TEXT(self, text)


_SET_START = TranscriptSegment.start_s.__set__
_SET_END = TranscriptSegment.end_s.__set__
_SET_TEXT = TranscriptSegment.text.__set__


@dataclass(frozen=True)
class Transcript:
    """Transcript segments in start order plus an optional anchor.

    Segments that hold a word never overlap; a wordless one may overlap any.
    """

    segments: tuple[TranscriptSegment, ...]
    audio_start_ms: int | None = None

    def shifted(self, offset_ms: int) -> "Transcript":
        if offset_ms == 0 or self.audio_start_ms is None:
            return self
        return Transcript(self.segments, self.audio_start_ms + offset_ms)


@dataclass(frozen=True)
class VideoIndex:
    """Maps wall time to frame indices without touching the media file;
    refuses a member of the wrong type (ValueError), a bad fps (InvalidFps),
    frame_count (ParseError) or start (InvalidAnchor), so a ``shifted`` copy
    is checked too."""

    start_ms: int
    fps: float
    frame_count: int

    def __post_init__(self) -> None:
        for name, kind in (("start_ms", "int"), ("fps", "number"), ("frame_count", "int")):
            check_value(name, kind, getattr(self, name))
        # One comparison rejects zero, negatives, NaN, the infinities and
        # ints too large to become a float.
        if not 0 < self.fps <= sys.float_info.max:
            raise InvalidFps(f"fps must be positive and finite, got {self.fps}")
        object.__setattr__(self, "fps", float(self.fps))
        if self.frame_count < 0:
            raise ParseError(f"frame_count must be non-negative, got {self.frame_count}")
        # With at most 2**53 frames, a frame position too large for a float
        # lies past the last frame, where frame_index_at gives None.
        if self.frame_count > 2**53:
            raise ParseError("frame_count must be at most 2**53")
        if not 0 <= self.start_ms <= MAX_INSTANT_MS:
            where = "before the epoch" if self.start_ms < 0 else "after 9999-12-31T23:59:59.999Z"
            raise InvalidAnchor(f"video start lands {where}: {self.start_ms} ms")

    def shifted(self, offset_ms: int) -> "VideoIndex":
        if offset_ms == 0:
            return self
        return VideoIndex(self.start_ms + offset_ms, self.fps, self.frame_count)


class _TrackTarget:
    """XMLParser target that builds each trkpt's GeoPoint at its end tag.

    It keeps only the open trkpts and the text of their direct ele/time
    children, never the document tree. ``slots`` holds, per trkpt in
    start-tag order, its GeoPoint or the DataError its checks raised; an
    error is stored rather than raised so that a malformed document still
    wins. A child's text is ElementTree's ``.text``: the character data
    before its first sub-element.
    """

    def __init__(self) -> None:
        self.slots: list[GeoPoint | DataError | None] = []
        # Per open element: [index, lat, lon, [(child name, text chunks)]]
        # for a trkpt, None for anything else; the first entry stands for
        # the document's parent.
        self._open: list[list | None] = [None]
        # The chunks of the ele/time text being read, if any.
        self._text: list[str] | None = None

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        self._text = None
        name = tag.rpartition("}")[2]
        parent = self._open[-1]
        if parent is not None and (name == "ele" or name == "time"):
            self._text = []
            parent[3].append((name, self._text))
        if name == "trkpt":
            self._open.append([len(self.slots), attrib.get("lat"), attrib.get("lon"), []])
            self.slots.append(None)
        else:
            self._open.append(None)

    def data(self, text: str) -> None:
        if self._text is not None:
            self._text.append(text)

    def end(self, tag: str) -> None:
        self._text = None
        point = self._open.pop()
        if point is not None:
            try:
                self.slots[point[0]] = _build_point(*point)
            except DataError as exc:
                self.slots[point[0]] = exc


def _build_point(
    index: int, lat_text: str | None, lon_text: str | None, children: list
) -> GeoPoint:
    """Trkpt ``index`` from its attributes and its (ele|time, text chunks)
    children, in document order; the last ele or time with text wins."""
    if lat_text is None or lon_text is None:
        raise ParseError(f"trkpt {index}: missing lat/lon attribute")
    ele_m: float | None = None
    t_ms: int | None = None
    for name, chunks in children:
        if not chunks:
            continue
        text = "".join(chunks)
        if name == "ele":
            try:
                ele_m = parse_float(text)
            except ValueError as exc:
                raise ParseError(f"trkpt {index}: bad ele {text!r}") from exc
        else:
            t_ms = parse_iso8601_ms(text)
    if t_ms is None:
        raise MissingTimestamp(f"trkpt {index} has no time element")
    try:
        return GeoPoint(parse_float(lat_text), parse_float(lon_text), t_ms, ele_m)
    except ValueError as exc:
        raise ParseError(f"trkpt {index}: {exc}") from exc


# What follows "<trkpt" in a plain trkpt: lat and lon, in that order and
# in double quotes, an optional ele, then the time, whitespace allowed
# between tags. A number holds only [-+.0-9eE], which float reads as
# parse_float does, and an instant only [-+.:0-9TZ], so no text needs an
# entity or a strip.
_PLAIN_BODY = (
    r'\s+lat="([-+.0-9eE]+)"\s+lon="([-+.0-9eE]+)"\s*>\s*'
    r"(?:<ele>([-+.0-9eE]+)</ele>\s*)?"
    r"<time>([-+.:0-9TZ]+)</time>\s*</trkpt>"
)
_PLAIN_TRKPT = re.compile("<trkpt" + _PLAIN_BODY, re.ASCII)
_OTHER_TRKPT = re.compile(f"<trkpt(?!{_PLAIN_BODY})", re.ASCII)
# A UTF-8 byte-order mark and an XML declaration that names UTF-8 or no
# encoding; any other declaration is left in place for the "<?" check.
_UTF8_PROLOG = re.compile(
    rb"(?:\xef\xbb\xbf)?"
    rb"(?:<\?xml\s+version=([\"'])1\.[0-9]+\1"
    rb"(?:\s+encoding=([\"'])(?i:utf-8)\2)?"
    rb"(?:\s+standalone=([\"'])(?:yes|no)\3)?\s*\?>)?"
)
_EXPAT_SLICE = 1 << 16


def _is_well_formed(data: bytes) -> bool:
    """Whether expat, with the namespace handling ElementTree uses, reads
    ``data`` without error; the bytes are fed in slices, so expat never
    holds a copy of the whole document."""
    parser = pyexpat.ParserCreate(namespace_separator="}")
    view = memoryview(data)
    try:
        for start in range(0, len(view), _EXPAT_SLICE):
            parser.Parse(view[start:start + _EXPAT_SLICE], False)
        parser.Parse(b"", True)
    except pyexpat.ExpatError:
        return False
    return True


def _scan_plain_gpx(data: bytes) -> TrackLog | None:
    """``parse_gpx``'s result for a plain document, read by regex, or None
    where the streaming parser must read it.

    A plain document is well-formed UTF-8 with no comment, CDATA section,
    DOCTYPE or processing instruction, none of which could then hide or
    invent a trkpt, and every "trkpt" in its text belongs to a
    ``_PLAIN_TRKPT`` match. Every other shape, and every document the
    stream would refuse, is declined, so the stream owns every error. A
    "<trkpt" that is not plain is looked for before any point is built,
    and expat checks only a document the scan has read whole.
    """
    prolog_end = _UTF8_PROLOG.match(data).end()
    # "!" and "?" are rare, so these one-byte searches clear most documents
    # much faster than a search for "<!" or "<?". A NUL byte is never
    # well-formed UTF-8 XML, but to expat a document that opens with one is
    # UTF-16, in which ASCII bytes spell other characters.
    if (
        (b"!" in data and b"<!" in data)
        or (data.find(b"?", prolog_end) >= 0 and data.find(b"<?", prolog_end) >= 0)
        or b"\0" in data
    ):
        return None
    try:
        text = read_text(data)
    except EncodingError:
        return None
    if _OTHER_TRKPT.search(text):
        return None
    try:
        points = [
            GeoPoint(
                float(lat), float(lon), parse_iso8601_ms(stamp),
                None if ele is None else float(ele),
            )
            for lat, lon, ele, stamp in map(re.Match.groups, _PLAIN_TRKPT.finditer(text))
        ]
        # A match holds the word twice, in its start and its end tag.
        if not points or 2 * len(points) != text.count("trkpt"):
            return None
        track = TrackLog(tuple(points))
    except (ValueError, DataError):
        return None
    return track if _is_well_formed(data) else None


def parse_gpx(data: bytes) -> TrackLog:
    """Parse GPX bytes into a TrackLog.

    Collects every trkpt across all trk/trkseg elements in document order.
    Each point must carry lat/lon attributes and a time child; a point
    without time is a hard error rather than a silent gap, because gaps
    corrupt interpolation downstream. A plain document is read by one
    regex scan (``_scan_plain_gpx``); any other is read as a stream of
    parser events. Neither builds a tree, so beyond the input bytes and
    their text memory grows with the number of fixes, not with the number
    of elements.
    """
    track = _scan_plain_gpx(data)
    if track is not None:
        return track
    target = _TrackTarget()
    parser = ET.XMLParser(target=target)
    try:
        parser.feed(data)
        parser.close()
    except ET.ParseError as exc:
        raise ParseError(f"malformed GPX XML: {exc}") from exc
    except (LookupError, ValueError) as exc:
        # expat asks Python for the declared encoding's decoder, which may
        # not exist, not be a text codec, or not map bytes one to one.
        raise ParseError(f"GPX XML declares an unsupported encoding: {exc}") from exc

    points = target.slots
    for index, point in enumerate(points):
        if not isinstance(point, GeoPoint):
            raise point
        if index and point.t_ms < points[index - 1].t_ms:
            raise NonMonotoneTrack(
                f"trkpt {index}: time goes backwards "
                f"({points[index - 1].t_ms} -> {point.t_ms})"
            )
    if not points:
        raise EmptyTrack("GPX contains no trkpt elements")
    return TrackLog(tuple(points))


# Hours, then minutes and seconds from 00 to 59, then milliseconds.
_SRT_TIME = re.compile(
    r"(\d{1,2}):([0-5]\d):([0-5]\d)[,.](\d{1,3})\s*-->\s*(\d{1,2}):([0-5]\d):([0-5]\d)[,.](\d{1,3})",
    re.ASCII,
)

# One segment as a format's parser yields it: (where, start, end, text), with
# "where" naming the block, line or segment for an error message. Rows come
# in file order as they are read, so the first bad segment is the one named.
_Row = tuple[str, float, float, str]


def _parse_srt(text: str) -> Iterator[_Row]:
    blocks = re.split(r"\n\s*\n", text.strip())
    for block_no, block in enumerate(blocks, start=1):
        lines = [stripped for line in block.split("\n") if (stripped := line.strip())]
        if not lines:
            continue
        if lines[0].isascii() and lines[0].isdigit():
            del lines[0]
        if not lines:
            raise ParseError(f"srt block {block_no}: no timing line")
        match = _SRT_TIME.fullmatch(lines[0])
        if match is None:
            raise ParseError(f"srt block {block_no}: bad timing line {lines[0]!r}")
        h, m, s, ms, h2, m2, s2, ms2 = match.groups()
        yield (
            f"srt block {block_no}",
            int(h) * 3600 + int(m) * 60 + int(s) + int(ms.ljust(3, "0")) / 1000.0,
            int(h2) * 3600 + int(m2) * 60 + int(s2) + int(ms2.ljust(3, "0")) / 1000.0,
            " ".join(lines[1:]),
        )


def _parse_segment_json(data: bytes) -> tuple[Iterator[_Row], int | None]:
    """The segment rows, each read as it is iterated, and the anchor."""
    doc = read_object(data)
    try:
        segments = member(doc, "segments", "list")
        # The anchor is optional, and null means absent.
        anchor_ms = None
        if doc.get("audio_start_utc") is not None:
            anchor_ms = parse_iso8601_ms(member(doc, "audio_start_utc", "str"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return (_segment_row(i, raw) for i, raw in enumerate(segments)), anchor_ms


def _segment_row(i: int, raw: object) -> _Row:
    try:
        start, end = member(raw, "start", "number"), member(raw, "end", "number")
        return f"segment {i}", start, end, member(raw, "text", "str")
    except ValueError as exc:
        raise ParseError(f"segment {i}: {exc}") from exc


def _parse_plain_lines(text: str) -> Iterator[_Row]:
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ParseError(f"line {line_no}: expected start<TAB>end<TAB>text")
        try:
            start_s = parse_float(parts[0])
            end_s = parse_float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: bad timing {parts[:2]!r}") from exc
        yield f"line {line_no}", start_s, end_s, parts[2]


def _merge_overlaps(segments: list[TranscriptSegment]) -> tuple[TranscriptSegment, ...]:
    """Sort by start and merge overlapping segments that hold a word.

    Speech-to-text tools occasionally emit overlaps; merging keeps the event
    timeline simple. Text concatenates with a single space, the merged
    segment keeps the min start and max end. Touching segments stay separate.
    A segment with no word (by the classifier's token rule) is never merged,
    so it stays its own segment and is dropped later with a warning. Each
    merged group's texts are joined once, so a chain of n overlapping
    segments costs time linear in its text.
    """
    ordered = sorted(segments, key=attrgetter("start_s", "end_s"))
    wordless = {text for text in {seg.text for seg in segments} if not has_word(text)}
    merged: list[TranscriptSegment] = []
    groups: dict[int, list[str]] = {}  # index in merged -> the texts merged there
    last = -1  # index in merged of the latest segment with a word
    for seg in ordered:
        if seg.text in wordless:
            merged.append(seg)
        elif last >= 0 and seg.start_s < merged[last].end_s:
            prev = merged[last]
            merged[last] = TranscriptSegment(prev.start_s, max(prev.end_s, seg.end_s), prev.text)
            groups.setdefault(last, [prev.text]).append(seg.text)
        else:
            last = len(merged)
            merged.append(seg)
    for i, texts in groups.items():
        merged[i] = TranscriptSegment(merged[i].start_s, merged[i].end_s, " ".join(texts))
    return tuple(merged)


def parse_transcript(data: bytes, format: str) -> Transcript:
    """Parse transcript bytes in one of TRANSCRIPT_FORMATS.

    Whatever the source format, every segment must have
    ``0 <= start <= end <= the largest float``, and the result is sorted by
    start time with each text stripped and overlapping segments that hold a
    word merged. A segment with no words, blank ones too, is kept, so that
    the stage that labels it drops it with a warning. An input with no
    segments at all raises EmptyTranscript. Only segment-json may carry its
    own wall-clock anchor ("audio_start_utc").
    """
    anchor_ms = None
    if format == "segment-json":
        rows, anchor_ms = _parse_segment_json(data)
    elif format == "srt":
        rows = _parse_srt(read_text(data))
    elif format == "plain-lines":
        rows = _parse_plain_lines(read_text(data))
    else:
        raise ValueError(f"unknown transcript format: {format!r}")
    segments = []
    for where, start, end, text in rows:
        # One chained comparison also rejects NaN, the infinities and ints
        # too large to become a float.
        if not 0 <= start <= end <= sys.float_info.max:
            raise ParseError(f"{where}: bad timing [{start}, {end}]")
        segments.append(TranscriptSegment(float(start), float(end), text.strip()))
    if not segments:
        raise EmptyTranscript("no transcript segments")
    return Transcript(_merge_overlaps(segments), anchor_ms)


def parse_video_meta(data: bytes) -> VideoIndex:
    """Parse the video sidecar: {"start_time": ISO-8601, "fps": n, "frame_count": n}."""
    doc = read_object(data)
    try:
        start_ms = parse_iso8601_ms(member(doc, "start_time", "str"))
        fps = member(doc, "fps", "number")
        frame_count = member(doc, "frame_count", "int")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return VideoIndex(start_ms, fps, frame_count)


def absolutize(transcript: Transcript) -> list[tuple[int, str]]:
    """Anchor relative segment starts to wall time.

    Each segment maps to (audio_start + round(start_s * 1000), text) in
    input order. A transcript with no anchor, or any result before the
    epoch or past MAX_INSTANT_MS, raises InvalidAnchor.
    """
    audio_start_ms = transcript.audio_start_ms
    if audio_start_ms is None:
        raise InvalidAnchor(
            "transcript has relative times but no audio start anchor was given"
        )
    events = []
    # A segment is named by its start: the segments were sorted and merged
    # on reading, so their order is not the file's.
    for seg in transcript.segments:
        # Compare before rounding: round() takes no NaN or infinity.
        if not seg.start_s * 1000 <= MAX_INSTANT_MS:
            raise InvalidAnchor(f"segment at {seg.start_s} s lands after 9999-12-31T23:59:59.999Z")
        t_ms = audio_start_ms + round(seg.start_s * 1000)
        if t_ms < 0:
            raise InvalidAnchor(f"segment at {seg.start_s} s lands before the epoch: {t_ms} ms")
        if t_ms > MAX_INSTANT_MS:
            raise InvalidAnchor(
                f"segment at {seg.start_s} s lands after 9999-12-31T23:59:59.999Z: {t_ms} ms"
            )
        events.append((t_ms, seg.text))
    return events
