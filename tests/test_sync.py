"""Timeline synchronization: frame arithmetic and event placement."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import drivetriad.sync
from drivetriad import (
    Transcript,
    TranscriptSegment,
    VideoIndex,
    build_events,
    classify,
    frame_index_at,
)
from drivetriad.core import MAX_INSTANT_MS
from drivetriad.errors import InvalidAnchor, NoUsableEvents

from helpers import reference_frame_index_at, straight_north_track, track_from


def transcript(*rows, anchor=None):
    return Transcript(
        tuple(TranscriptSegment(s, e, t) for s, e, t in rows), audio_start_ms=anchor
    )


# Integral rates, the NTSC rates, and rates tiny and huge enough that a
# frame position underflows or overflows.
_FPS = (
    st.sampled_from([29.97, 30000 / 1001, 60000 / 1001, 5e-324, 1e-300, 1e306, 1e308])
    | st.integers(1, 240).map(float)
    | st.floats(min_value=1e-300, max_value=1e308, allow_nan=False)
)


class TestFrameIndexAt:
    VIDEO = VideoIndex(start_ms=1_000_000, fps=30.0, frame_count=3000)

    def test_start_is_frame_zero(self):
        assert frame_index_at(self.VIDEO, 1_000_000) == 0

    def test_one_second_at_30fps(self):
        assert frame_index_at(self.VIDEO, 1_001_000) == 30

    def test_just_under_one_second(self):
        assert frame_index_at(self.VIDEO, 1_000_999) == 29

    def test_exact_multiple_has_no_float_drift(self):
        # 300 ms at 10 fps must be exactly frame 3 (0.3*10 would give
        # 2.999... if computed as (ms/1000)*fps).
        video = VideoIndex(start_ms=0, fps=10.0, frame_count=100)
        assert frame_index_at(video, 300) == 3

    def test_fractional_fps(self):
        # Frame 30 starts at 30/29.97 s ~ 1001.001 ms, so 1001 ms is still
        # inside frame 29 and 1002 ms is inside frame 30.
        video = VideoIndex(start_ms=0, fps=29.97, frame_count=100_000)
        assert frame_index_at(video, 1001) == 29
        assert frame_index_at(video, 1002) == 30

    @pytest.mark.parametrize(
        "fps, t_ms, frame",
        [
            (29.97, 99_999, 2996),
            (29.97, 100_000, 2997),
            (30000 / 1001, 1000, 29),
            (30000 / 1001, 1001, 30),
            (30000 / 1001, 2002, 60),
        ],
    )
    def test_ntsc_frames_start_on_the_decimal_rate(self, fps, t_ms, frame):
        # Frame 2997 at 29.97 fps starts at 100 s, and frame 30 at
        # 30000/1001 fps at 1.001 s. The float's own binary ratio puts each
        # a frame lower, so exact arithmetic on it would move them.
        video = VideoIndex(start_ms=0, fps=fps, frame_count=100_000)
        assert frame_index_at(video, t_ms) == frame

    def test_before_start_is_none(self):
        assert frame_index_at(self.VIDEO, 999_999) is None

    def test_past_end_is_none(self):
        # Frame 3000 would start at +100 s; the last valid frame is 2999.
        assert frame_index_at(self.VIDEO, 1_100_000) is None

    def test_huge_fps_is_past_end_not_overflow(self):
        # 5 s at 1e308 fps is an infinite frame position.
        video = VideoIndex(start_ms=0, fps=1e308, frame_count=10)
        assert frame_index_at(video, 5_000) is None

    def test_overflow_past_the_largest_frame_count_is_none(self):
        # 5 s at 1e306 fps overflows to an infinite position, and frame
        # 5e306 is past the last of 2**53 frames.
        video = VideoIndex(start_ms=0, fps=1e306, frame_count=2**53)
        assert frame_index_at(video, 5_000) is None
        assert frame_index_at(video, 0) == 0

    def test_last_millisecond_of_final_frame(self):
        assert frame_index_at(self.VIDEO, 1_099_999) == 2999

    def test_zero_frames_is_always_none(self):
        empty = VideoIndex(start_ms=0, fps=30.0, frame_count=0)
        assert frame_index_at(empty, 0) is None
        assert frame_index_at(empty, 5_000) is None

    @given(data=st.data())
    def test_matches_the_reference_rule(self, data):
        # The frames of the rule that raised where the video holds none,
        # and None exactly where it raised.
        fps = data.draw(_FPS, label="fps")
        frame_count = data.draw(
            st.sampled_from([0, 1, 30, 2**53]) | st.integers(0, 2**53), label="frame_count"
        )
        start_ms = data.draw(st.integers(0, MAX_INSTANT_MS), label="start_ms")
        video = VideoIndex(start_ms, fps, frame_count)
        # Instants anywhere, and instants beside the first millisecond of a
        # frame (the video's end among them), where float and exact
        # arithmetic part: frame 30 at 30000/1001 fps starts at 1001 ms.
        frame = data.draw(
            st.integers(0, 100) | st.integers(0, frame_count) | st.just(frame_count),
            label="frame",
        )
        frame_ms = frame * 1000 / fps
        offsets = st.integers(-10**4, 10**13)
        if frame_ms < 10**15:
            offsets |= st.integers(-1, 1).map(lambda d: round(frame_ms) + d)
        offset = data.draw(offsets, label="offset")
        t_ms = start_ms + offset
        try:
            expected = reference_frame_index_at(video, t_ms)
        except ValueError:
            expected = None
        assert frame_index_at(video, t_ms) == expected


class TestBuildEvents:
    def _track(self):
        # 60 s of driving north, one fix per second.
        return straight_north_track(n=61, start_ms=1_000_000)

    def test_basic_placement(self):
        events, warnings = build_events(
            transcript(
                (5.0, 6.0, "Turn left."), (20.0, 21.0, "Continue for half a mile."),
                anchor=1_000_000,
            ),
            self._track(),
        )
        assert warnings == []
        assert [e.id for e in events] == [0, 1]
        assert [e.t_ms for e in events] == [1_005_000, 1_020_000]
        assert {c.value for c in events[0].classes} == {"Turn"}
        assert events[0].geo.t_ms == 1_005_000
        assert events[0].heading_deg == pytest.approx(0.0, abs=1e-6)

    def test_embedded_anchor_used_when_no_explicit(self):
        t = transcript((5.0, 6.0, "Turn left."), anchor=1_000_000)
        events, _ = build_events(t, self._track())
        assert events[0].t_ms == 1_005_000

    def test_no_anchor_anywhere_rejected(self):
        with pytest.raises(InvalidAnchor):
            build_events(transcript((5.0, 6.0, "Turn left.")), self._track())

    def test_gps_offset_shifts_track(self):
        # Track shifted +5 s: an event at +2 s now precedes the track start
        # by 3 s, still within the fixed 5 s tolerance, so it clamps to
        # the first fix.
        events, _ = build_events(
            transcript((2.0, 3.0, "Turn left."), anchor=1_000_000),
            self._track().shifted(5_000),
        )
        assert events[0].geo.lat_deg == 0.0

    def test_out_of_span_dropped_with_warning(self):
        events, warnings = build_events(
            transcript(
                (5.0, 6.0, "Turn left."), (500.0, 501.0, "Turn right."), anchor=1_000_000
            ),
            self._track(),
        )
        assert len(events) == 1
        assert len(warnings) == 1
        assert "outside the track span" in warnings[0]

    @pytest.mark.parametrize(
        "t_ms, fix, warning",
        [
            (995_000, 0, None),
            (994_999, None, "1970-01-01T00:16:34.999Z"),
            (1_065_000, -1, None),
            (1_065_001, None, "1970-01-01T00:17:45.001Z"),
        ],
        ids=["5000-before-start", "5001-before-start", "5000-after-end", "5001-after-end"],
    )
    def test_tolerance_is_five_seconds(self, t_ms, fix, warning):
        # The track spans 1_000_000..1_060_000 ms. A cue at most 5 s outside
        # it is placed at the nearest fix; one more millisecond drops it.
        track = self._track()
        events, warnings = build_events(
            transcript((t_ms / 1000, t_ms / 1000 + 1, "Turn right."),
                       (1030.0, 1031.0, "Turn left."), anchor=0),
            track,
        )
        edge = [e for e in events if e.text == "Turn right."]
        if warning is None:
            assert warnings == []
            assert [(e.t_ms, e.geo.lat_deg, e.geo.lon_deg) for e in edge] == [
                (t_ms, track.points[fix].lat_deg, track.points[fix].lon_deg)
            ]
        else:
            assert edge == []
            assert warnings == [
                f"segment at {warning} is outside the track span "
                "(tolerance 5000 ms); dropped"
            ]

    def test_unclassifiable_text_dropped_with_warning(self):
        # "..." normalizes to nothing; it cannot be placed as an event.
        events, warnings = build_events(
            transcript(
                (5.0, 6.0, "Turn left."), (10.0, 11.0, "..."), anchor=1_000_000
            ),
            self._track(),
        )
        assert len(events) == 1
        assert any("no classifiable" in w for w in warnings)

    def test_unmatched_text_survives_with_empty_classes(self):
        # Real words with no navigation cue still become an event; empty
        # class sets are counted, not discarded.
        events, warnings = build_events(
            transcript((5.0, 6.0, "Nice weather today."), anchor=1_000_000),
            self._track(),
        )
        assert warnings == []
        assert events[0].classes == frozenset()

    def test_nothing_usable_raises(self):
        with pytest.raises(NoUsableEvents):
            build_events(
                transcript((500.0, 501.0, "Turn left."), anchor=1_000_000),
                self._track(),
            )

    def test_degenerate_heading_warns_on_event(self):
        # All fixes at the same place: position interpolates fine, heading
        # cannot be derived.
        parked = track_from([(10.0, 20.0)] * 10, start_ms=1_000_000)
        events, warnings = build_events(
            transcript((3.0, 4.0, "Turn left."), anchor=1_000_000),
            parked,
        )
        assert warnings == ["event 0: heading undefined: track is degenerate here"]
        assert events[0].heading_deg is None

    def test_frame_index_attached(self):
        video = VideoIndex(start_ms=1_000_000, fps=30.0, frame_count=10_000)
        events, _ = build_events(
            transcript((5.0, 6.0, "Turn left."), anchor=1_000_000),
            self._track(),
            video=video,
        )
        assert events[0].frame_index == 150

    def test_video_offset_shifts_frames(self):
        video = VideoIndex(start_ms=1_000_000, fps=30.0, frame_count=10_000)
        events, _ = build_events(
            transcript((5.0, 6.0, "Turn left."), anchor=1_000_000),
            self._track(),
            video=video.shifted(1_000),
        )
        # Video now starts 1 s later, so the event is 4 s into it.
        assert events[0].frame_index == 120

    def test_event_outside_video_keeps_event_with_warning(self):
        video = VideoIndex(start_ms=1_000_000, fps=30.0, frame_count=30)  # 1 s long
        events, warnings = build_events(
            transcript((5.0, 6.0, "Turn left."), anchor=1_000_000),
            self._track(),
            video=video,
        )
        assert warnings == ["event 0: no video frame at 1970-01-01T00:16:45.000Z"]
        assert len(events) == 1
        assert events[0].frame_index is None

    def test_no_video_means_no_frame(self):
        events, _ = build_events(
            transcript((5.0, 6.0, "Turn left."), anchor=1_000_000),
            self._track(),
        )
        assert events[0].frame_index is None

    def test_ids_follow_time_order(self):
        # Segments given out of order still come back sorted with 0..n-1.
        events, _ = build_events(
            transcript(
                (30.0, 31.0, "Turn right."), (5.0, 6.0, "Turn left."), anchor=1_000_000
            ),
            self._track(),
        )
        assert [e.id for e in events] == [0, 1]
        assert events[0].text == "Turn left."
        assert events[0].t_ms < events[1].t_ms

    def test_unsorted_segments_are_placed_and_warned_in_time_order(self):
        # Drops are reported in time order, then the notes in id order; equal
        # instants keep their input order.
        video = VideoIndex(start_ms=1_010_000, fps=30.0, frame_count=10_000)
        events, warnings = build_events(
            transcript(
                (500.0, 501.0, "Turn right."),
                (20.0, 21.0, "Keep left."),
                (10.0, 11.0, "..."),
                (5.0, 6.0, "Bear right."),
                (20.0, 21.0, "Turn left."),
                anchor=1_000_000,
            ),
            self._track(),
            video=video,
        )
        assert [(e.id, e.text) for e in events] == [
            (0, "Bear right."), (1, "Keep left."), (2, "Turn left.")
        ]
        assert [w.split(" ")[0:3] for w in warnings] == [
            ["segment", "at", "1970-01-01T00:16:50.000Z"],
            ["segment", "at", "1970-01-01T00:25:00.000Z"],
            ["event", "0:", "no"],
        ]
        assert "no classifiable text" in warnings[0]
        assert "outside the track span" in warnings[1]

    def test_repeated_text_is_classified_once(self, monkeypatch):
        calls = Counter()

        def counted(text, lex=None):
            calls[text] += 1
            return classify(text, lex)

        monkeypatch.setattr(drivetriad.sync, "classify", counted)
        rows = [
            (5.0, 6.0, "Turn left."), (10.0, 11.0, "..."),
            (15.0, 16.0, "In 500 feet, turn right."), (20.0, 21.0, "Turn left."),
            (25.0, 26.0, "..."), (30.0, 31.0, "Turn left."),
        ]
        events, warnings = build_events(
            transcript(*rows, anchor=1_000_000), self._track()
        )
        assert calls == {"Turn left.": 1, "...": 1, "In 500 feet, turn right.": 1}
        # Each event carries what classifying its own text gives.
        for event in events:
            labeled = classify(event.text)
            assert (event.classes, event.evidence) == (labeled.classes, labeled.evidence)
        lefts = [e for e in events if e.text == "Turn left."]
        assert len(lefts) == 3
        assert all(e.evidence is lefts[0].evidence for e in lefts)
        # Every occurrence of the wordless text is dropped with its own time.
        assert warnings == [
            "segment at 1970-01-01T00:16:50.000Z has no classifiable text ('...'); dropped",
            "segment at 1970-01-01T00:17:05.000Z has no classifiable text ('...'); dropped",
        ]
