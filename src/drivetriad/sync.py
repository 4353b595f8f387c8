"""Alignment of transcript, track, and video streams onto one UTC timeline.

Each spoken instruction becomes an InstructionEvent anchored at the
segment's onset time, carrying the interpolated position, heading, and
video frame index at that instant. All three streams come in on the shared
clock: ``run_pipeline`` shifts each one once, and the transcript carries
its own anchor.

Events that cannot be placed (more than TOLERANCE_MS, 5 s,
outside the track's time span, or with unusable text) are dropped, but
every drop is reported in the returned warning list — nothing disappears
silently. The 5 s is part of the fixed rule: no caller sets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import Classification, CommandClass, Evidence, Lexicon, classify
from .core import (
    TOLERANCE_MS,
    GeoPoint,
    TrackLog,
    format_iso8601_ms,
    heading_at,
    interpolate_position,
)
from .errors import (
    AfterVideoEnd,
    BeforeVideoStart,
    EmptyInstruction,
    NoUsableEvents,
    OutOfTrackSpan,
)
from .ingest import Transcript, VideoIndex, absolutize

@dataclass(frozen=True)
class InstructionEvent:
    """One spoken instruction pinned to time, place, heading, and frame;
    its classes are those its evidence names, as ``classify`` gives them."""

    id: int
    t_ms: int
    text: str
    evidence: tuple[Evidence, ...]
    geo: GeoPoint
    heading_deg: float | None
    frame_index: int | None

    @property
    def classes(self) -> frozenset[CommandClass]:
        return frozenset(e.command_class for e in self.evidence)


def frame_index_at(video: VideoIndex, t_ms: int) -> int:
    """Map a UTC instant to a frame number: floor((t - start) / 1000 * fps).

    Out-of-range instants raise BeforeVideoStart / AfterVideoEnd. A
    zero-frame video has no valid frame, so it always raises.
    """
    if video.frame_count == 0:
        raise AfterVideoEnd(
            f"video has no frames (query at {format_iso8601_ms(t_ms)})"
        )
    if t_ms < video.start_ms:
        raise BeforeVideoStart(
            f"instant {format_iso8601_ms(t_ms)} precedes video start "
            f"{format_iso8601_ms(video.start_ms)}"
        )
    # Multiply before dividing: (dt * fps) is exact for integral fps, so
    # whole-second boundaries never land a float ulp below the frame line.
    # Test the bound before flooring (floor(x) >= n exactly when x >= n):
    # a huge fps makes the position infinite, which floor cannot take.
    position = (t_ms - video.start_ms) * video.fps / 1000.0
    if position >= video.frame_count:
        shown = math.floor(position) if math.isfinite(position) else position
        raise AfterVideoEnd(
            f"instant {format_iso8601_ms(t_ms)} maps to frame {shown}, "
            f"past the last frame {video.frame_count - 1}"
        )
    return math.floor(position)


def build_events(
    transcript: Transcript,
    track: TrackLog,
    video: VideoIndex | None = None,
    lex: Lexicon | None = None,
) -> tuple[list[InstructionEvent], list[str]]:
    """Classify and place every transcript segment on the shared timeline.

    The transcript's own ``audio_start_ms`` anchors its relative times
    (InvalidAnchor if it has none); ``track`` and ``video`` must already be
    on that clock. Returns the events sorted by time with ids 0..n-1, plus
    warnings: one per dropped segment in time order, then the ``event N:``
    notes (no heading, no video frame) in id order. Raises NoUsableEvents
    when nothing survives.
    """
    # Events are numbered as they are placed, so place them in time order;
    # the sort is stable, so equal instants keep their input order.
    timed = absolutize(transcript)
    timed.sort(key=lambda pair: pair[0])
    warnings: list[str] = []
    notes: list[str] = []
    events: list[InstructionEvent] = []
    # Navigation prompts are templated, so a text comes back many times in
    # one drive: each distinct text is classified once (None: no words).
    labels: dict[str, Classification | None] = {}
    for t_ms, text in timed:
        if text not in labels:
            try:
                labels[text] = classify(text, lex)
            except EmptyInstruction:
                labels[text] = None
        labeled = labels[text]
        if labeled is None:
            warnings.append(
                f"segment at {format_iso8601_ms(t_ms)} has no classifiable "
                f"text ({text!r}); dropped"
            )
            continue
        try:
            geo = interpolate_position(track, t_ms)
        except OutOfTrackSpan:
            warnings.append(
                f"segment at {format_iso8601_ms(t_ms)} is outside the track "
                f"span (tolerance {TOLERANCE_MS} ms); dropped"
            )
            continue
        event_id = len(events)
        heading = heading_at(track, t_ms)
        if heading is None:
            notes.append(f"event {event_id}: heading undefined: track is degenerate here")
        frame: int | None = None
        if video is not None:
            try:
                frame = frame_index_at(video, t_ms)
            except (BeforeVideoStart, AfterVideoEnd) as exc:
                notes.append(f"event {event_id}: no video frame: {exc}")
        events.append(
            InstructionEvent(
                event_id, t_ms, text, labeled.evidence, geo, heading, frame
            )
        )
    if not events:
        raise NoUsableEvents(
            "no transcript segment could be placed on the track timeline"
        )
    return events, warnings + notes
