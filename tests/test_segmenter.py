"""Action segmentation, maneuver labels, and stated-vs-observed checks."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from drivetriad import (
    GeoPoint,
    Maneuver,
    TrackLog,
    build_events,
    classify,
    haversine_distance,
    load_lexicon,
    make_triads,
    segment_actions,
)
from drivetriad.classifier import read_statement
from drivetriad.core import (
    TrackProfile, Turn, initial_bearing, signed_bearing_delta, track_profile,
)
from drivetriad.errors import InternalOrderingError, NoUsableEvents
from drivetriad.segmenter import (
    JITTER_FLOOR_M,
    ActionSegment,
    _step_lengths,
    cardinal_check,
    classify_maneuver,
    collect_mismatches,
    consistency_check,
    net_bearing_change,
)
from drivetriad.sync import InstructionEvent
from drivetriad.synth import RoutePlan, generate_route, parse_legs

from helpers import straight_north_track, track_from

# A 100 s synth drive, and cue instants that put windows of several
# lengths on it, one starting before the track.
_VIDEO_TRACK = generate_route(RoutePlan(parse_legs("600R,500L,400"), seed=3, noise_sigma_m=3.0))
_VIDEO_CUES_MS = (-2_000, 9_000, 30_500, 31_000, 64_250, 90_000)


def event(id, t_ms, text="Turn left.", lex=None):
    labeled = classify(text, lex)
    return InstructionEvent(
        id=id,
        t_ms=t_ms,
        text=text,
        evidence=labeled.evidence,
        statement=read_statement(labeled.evidence),
        geo=GeoPoint(0.0, 0.0, t_ms),
        heading_deg=None,
        frame_index=None,
    )


def bearing_change(waypoints):
    """net_bearing_change given the steps that segment_actions measures."""
    return net_bearing_change(waypoints, _step_lengths(waypoints))


class TestNetBearingChange:
    def test_collinear_is_zero(self):
        points = [GeoPoint(i * 0.001, 0.0, i * 1000) for i in range(5)]
        assert bearing_change(points) == pytest.approx(0.0, abs=1e-9)

    def test_east_then_south_is_plus_90(self):
        corner = [
            GeoPoint(0.001, 0.0, 0),
            GeoPoint(0.001, 0.001, 1000),
            GeoPoint(0.0, 0.001, 2000),
        ]
        assert bearing_change(corner) == pytest.approx(90.0, abs=0.01)

    def test_east_then_north_is_minus_90(self):
        corner = [
            GeoPoint(0.0, 0.0, 0),
            GeoPoint(0.0, 0.001, 1000),
            GeoPoint(0.001, 0.001, 2000),
        ]
        assert bearing_change(corner) == pytest.approx(-90.0, abs=0.01)

    def test_telescopes_to_final_minus_initial(self):
        # Many small wiggles: net change equals last-bearing minus
        # first-bearing regardless of the path between.
        zigzag = [
            GeoPoint(0.0000, 0.0000, 0),
            GeoPoint(0.0010, 0.0001, 1000),
            GeoPoint(0.0020, -0.0001, 2000),
            GeoPoint(0.0030, 0.0002, 3000),
            GeoPoint(0.0040, 0.0002, 4000),
        ]
        from drivetriad import initial_bearing
        from drivetriad.core import signed_bearing_delta

        first = initial_bearing(zigzag[0], zigzag[1])
        last = initial_bearing(zigzag[-2], zigzag[-1])
        assert bearing_change(zigzag) == pytest.approx(
            signed_bearing_delta(first, last), abs=1e-9
        )

    def test_empty_rejected(self):
        assert bearing_change([]) is None

    def test_two_points_rejected(self):
        assert bearing_change([GeoPoint(0, 0, 0), GeoPoint(0.001, 0, 1000)]) is None

    def test_jitter_floor_filters_parked_noise(self):
        # ~0.55 m zigzag around a fixed spot: everything under the 1 m
        # floor collapses, leaving too little geometry.
        eps = 0.000005
        parked = [
            GeoPoint(eps * (i % 2), 0.0, i * 1000) for i in range(6)
        ]
        assert bearing_change(parked) is None


def reference_bearing_change(waypoints):
    """net_bearing_change as it measured each point from the last kept one
    with a haversine of its own, whatever the step before it."""
    kept = [waypoints[0]]
    for point in waypoints[1:]:
        if haversine_distance(kept[-1], point) >= JITTER_FLOOR_M:
            kept.append(point)
    if len(kept) < 3:
        return None
    bearings = [initial_bearing(a, b) for a, b in zip(kept, kept[1:])]
    total = 0.0
    for before, after in zip(bearings, bearings[1:]):
        total += signed_bearing_delta(before, after)
    return total


# Steps of up to about 2 m, a third of them under the 1 m jitter floor, so
# that runs of folded points are common.
_CRAWL = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=40
)


class TestStepReuse:
    @given(_CRAWL)
    def test_matches_a_haversine_per_point(self, offsets):
        # A step is reused only where the point before was kept; after a
        # folded point the distance is measured from the last kept one.
        waypoints = [GeoPoint(40.0, -105.0, 0)]
        for i, (dlat, dlon) in enumerate(offsets, start=1):
            last = waypoints[-1]
            waypoints.append(GeoPoint(
                last.lat_deg + dlat * 1e-6, last.lon_deg + dlon * 1e-6, i * 100
            ))
        assert bearing_change(waypoints) == reference_bearing_change(waypoints)

    def test_window_bearing_changes_match_on_a_crawl(self):
        # 1 m/s at 2 Hz with 0.3 m noise: most steps fall under the floor.
        plan = RoutePlan(parse_legs("60R,40L,60"), speed_mps=1.0, sample_hz=2.0,
                         noise_sigma_m=0.3, seed=3)
        track = generate_route(plan)
        times = range(track.start_ms, track.end_ms, 15_000)
        segments, _ = segment_actions([event(i, t) for i, t in enumerate(times)], track)
        assert len(segments) > 5
        for segment in segments:
            expected = reference_bearing_change(segment.waypoints)
            if expected is None:
                assert segment.maneuver is Maneuver.UNKNOWN
            else:
                assert segment.net_bearing_change_deg == expected


class TestClassifyManeuver:
    @pytest.mark.parametrize(
        "net,expected",
        [
            (0.0, Maneuver.STRAIGHT),
            (29.999, Maneuver.STRAIGHT),
            (-29.999, Maneuver.STRAIGHT),
            (30.0, Maneuver.RIGHT_TURN),
            (-30.0, Maneuver.LEFT_TURN),
            (90.0, Maneuver.RIGHT_TURN),
            (-90.0, Maneuver.LEFT_TURN),
            (149.999, Maneuver.RIGHT_TURN),
            (-149.999, Maneuver.LEFT_TURN),
            (150.0, Maneuver.UTURN),
            (-150.0, Maneuver.UTURN),
            (170.0, Maneuver.UTURN),
            (180.0, Maneuver.UTURN),
            (None, Maneuver.UNKNOWN),
        ],
    )
    def test_thresholds(self, net, expected):
        assert classify_maneuver(net) is expected


class TestSegmentActions:
    def test_windows_tile_to_track_end(self):
        track = straight_north_track(n=121, start_ms=0)  # 120 s
        events = [event(0, 0), event(1, 60_000)]
        segments, warnings = segment_actions(events, track)
        assert warnings == []
        assert [(s.t_start_ms, s.t_end_ms) for s in segments] == [
            (0, 60_000),
            (60_000, 120_000),
        ]

    def test_single_event_spans_rest_of_track(self):
        track = straight_north_track(n=31, start_ms=5_000)
        segments, _ = segment_actions([event(0, 10_000)], track)
        assert [(s.t_start_ms, s.t_end_ms) for s in segments] == [(10_000, 35_000)]

    def test_abutment_with_many_events(self):
        track = straight_north_track(n=100, start_ms=0)
        events = [event(i, t) for i, t in enumerate([0, 17_000, 40_000, 71_500])]
        segments, _ = segment_actions(events, track)
        for left, right in zip(segments, segments[1:]):
            assert left.t_end_ms == right.t_start_ms
        assert segments[-1].t_end_ms == track.end_ms

    def test_empty_events_rejected(self):
        with pytest.raises(NoUsableEvents):
            segment_actions([], straight_north_track())

    def test_out_of_order_events_rejected(self):
        track = straight_north_track(n=30)
        with pytest.raises(InternalOrderingError):
            segment_actions([event(0, 9_000), event(1, 3_000)], track)

    def test_collapsed_window_warns_and_skips(self):
        # Second event sits exactly at the track end: its window clamps to
        # nothing and is reported, not silently dropped.
        track = straight_north_track(n=11, start_ms=0)  # ends at 10 s
        events = [event(0, 0), event(1, 10_000)]
        segments, warnings = segment_actions(events, track)
        assert len(segments) == 1
        assert len(warnings) == 1
        assert "empty after clamping" in warnings[0]
        assert "event 1" in warnings[0]

    def test_waypoints_are_boundaries_plus_interior(self):
        track = straight_north_track(n=11, start_ms=0)
        segments, _ = segment_actions([event(0, 2_500)], track)
        seg = segments[0]
        assert seg.waypoints[0].t_ms == 2_500
        assert seg.waypoints[-1].t_ms == 10_000
        interior_times = [p.t_ms for p in seg.waypoints[1:-1]]
        assert interior_times == [3_000, 4_000, 5_000, 6_000, 7_000, 8_000, 9_000]

    def test_distance_at_least_endpoint_separation(self):
        track = track_from(
            [(0.0, 0.0), (0.001, 0.0), (0.001, 0.001), (0.002, 0.001)]
        )
        segments, _ = segment_actions([event(0, 0)], track)
        seg = segments[0]
        direct = haversine_distance(seg.waypoints[0], seg.waypoints[-1])
        assert seg.distance_m >= direct * (1 - 1e-9)

    def test_straight_drive_is_straight(self):
        track = straight_north_track(n=61)
        segments, _ = segment_actions([event(0, 0, "Continue for half a mile.")], track)
        assert segments[0].maneuver is Maneuver.STRAIGHT
        assert segments[0].net_bearing_change_deg == pytest.approx(0.0, abs=1e-6)

    def test_right_corner_is_right_turn(self):
        coords = [(0.001 * i, 0.0) for i in range(5)] + [
            (0.004, 0.001 * i) for i in range(1, 5)
        ]
        track = track_from(coords)
        segments, _ = segment_actions([event(0, 0, "Turn right.")], track)
        assert segments[0].maneuver is Maneuver.RIGHT_TURN
        assert segments[0].net_bearing_change_deg == pytest.approx(90.0, abs=0.1)

    def test_mirror_symmetry(self):
        # Mirroring longitudes negates every bearing delta: rights become
        # lefts with the same magnitude.
        coords = [(0.001 * i, 0.0) for i in range(5)] + [
            (0.004, 0.001 * i) for i in range(1, 5)
        ]
        mirrored = [(lat, -lon) for lat, lon in coords]
        s1, _ = segment_actions([event(0, 0)], track_from(coords))
        s2, _ = segment_actions([event(0, 0)], track_from(mirrored))
        assert s1[0].net_bearing_change_deg == pytest.approx(
            -s2[0].net_bearing_change_deg, abs=1e-6
        )
        assert s1[0].maneuver is Maneuver.RIGHT_TURN
        assert s2[0].maneuver is Maneuver.LEFT_TURN

    def test_parked_window_is_unknown(self):
        track = track_from([(10.0, 20.0)] * 10)
        segments, warnings = segment_actions([event(0, 0)], track)
        assert segments[0].maneuver is Maneuver.UNKNOWN
        assert segments[0].net_bearing_change_deg == 0.0
        assert any("too little usable motion" in w for w in warnings)

    def test_frames_attached_when_video_given(self):
        from drivetriad import VideoIndex

        # The window runs from 2 s to the track's end at 10 s.
        track = straight_north_track(n=11, start_ms=0)
        covering = VideoIndex(start_ms=0, fps=30.0, frame_count=301)
        segments, warnings = segment_actions([event(0, 2_000)], track, video=covering)
        assert (segments[0].frame_start, segments[0].frame_end) == (60, 300)
        assert warnings == []
        # A 250-frame video ends at 8.333 s, and one that starts at 3 s
        # misses the window's first second: neither gets a frame range,
        # and one note says how much of the window the video covers.
        for video, covered in (
            (VideoIndex(start_ms=0, fps=30.0, frame_count=250), "[0.000 s, 6.333 s)"),
            (VideoIndex(start_ms=3_000, fps=30.0, frame_count=301), "[1.000 s, 8.000 s]"),
        ):
            segments, warnings = segment_actions([event(0, 2_000)], track, video=video)
            assert (segments[0].frame_start, segments[0].frame_end) == (None, None)
            assert warnings == [
                f"event 0: no frame range: the video covers {covered} of this "
                "8.000 s action window"
            ]

    def test_window_past_the_last_frame_ends_open(self):
        from drivetriad import VideoIndex

        # 30 frames at 30000/1001 fps end at 1.001 s, where frame 30 would
        # start: a window ending there has no end frame, and its note leaves
        # the window's end out of what the video covers.
        track = straight_north_track(n=11, start_ms=0)
        video = VideoIndex(start_ms=0, fps=30000 / 1001, frame_count=30)
        segments, warnings = segment_actions([event(0, 0), event(1, 1_001)], track, video=video)
        assert (segments[0].frame_start, segments[0].frame_end) == (None, None)
        assert [w for w in warnings if w.startswith("event 0: no frame range")] == [
            "event 0: no frame range: the video covers [0.000 s, 1.001 s) of this "
            "1.001 s action window"
        ]

    def test_zero_frame_video_leaves_frames_unset(self):
        from drivetriad import VideoIndex

        track = straight_north_track(n=11, start_ms=0)
        video = VideoIndex(start_ms=0, fps=30.0, frame_count=0)
        segments, warnings = segment_actions([event(0, 0), event(1, 5_000)], track, video=video)
        assert [(s.frame_start, s.frame_end) for s in segments] == [(None, None)] * 2
        assert warnings == [
            "event 0: no frame range: the video covers none of this 5.000 s action window",
            "event 1: no frame range: the video covers none of this 5.000 s action window",
        ]

    @given(
        start_ms=st.integers(min_value=-120_000, max_value=120_000),
        frame_count=st.integers(min_value=0, max_value=4_000),
    )
    def test_frame_range_is_exact_or_absent(self, start_ms, frame_count):
        from drivetriad import VideoIndex
        from drivetriad.sync import frame_index_at

        track = _VIDEO_TRACK
        video = VideoIndex(track.start_ms + start_ms, 30.0, frame_count)
        events = [event(i, track.start_ms + t_ms) for i, t_ms in enumerate(_VIDEO_CUES_MS)]
        segments, warnings = segment_actions(events, track, video=video)
        notes = [w for w in warnings if "no frame range" in w]
        uncovered = 0
        for segment in segments:
            # At 30 fps the video holds t exactly when 0 <= (t - start) * 30
            # < frame_count * 1000, in integers.
            covered = all(
                0 <= (t - video.start_ms) * 30 < frame_count * 1000
                for t in (segment.t_start_ms, segment.t_end_ms)
            )
            if covered:
                assert (segment.frame_start, segment.frame_end) == (
                    frame_index_at(video, segment.t_start_ms),
                    frame_index_at(video, segment.t_end_ms),
                )
            else:
                uncovered += 1
                assert (segment.frame_start, segment.frame_end) == (None, None)
                mine = [n for n in notes if n.startswith(f"event {segment.event_id}: ")]
                assert len(mine) == 1
        assert len(notes) == uncovered

    def test_window_totals_add_left_to_right(self):
        # From Python 3.12 on, sum() of floats is compensated; the totals
        # must not depend on that, so they are added left to right. A noisy
        # 10 Hz drive has windows where the two ways of adding differ.
        plan = RoutePlan(parse_legs("400R,300L,500R,400"), sample_hz=10.0,
                         noise_sigma_m=3.0, seed=5)
        track = generate_route(plan)
        times = range(track.start_ms, track.end_ms, 20_000)
        events = [event(i, t) for i, t in enumerate(times)]
        segments, _ = segment_actions(events, track)

        def left_to_right(values):
            total = 0.0
            for value in values:
                total += value
            return total

        compensated_differs = set()
        for segment in segments:
            points = segment.waypoints
            steps = [haversine_distance(a, b) for a, b in zip(points, points[1:])]
            kept = [points[0]]
            for point in points[1:]:
                if haversine_distance(kept[-1], point) >= JITTER_FLOOR_M:
                    kept.append(point)
            bearings = [initial_bearing(a, b) for a, b in zip(kept, kept[1:])]
            deltas = [signed_bearing_delta(a, b) for a, b in zip(bearings, bearings[1:])]
            assert segment.distance_m == left_to_right(steps)
            assert segment.net_bearing_change_deg == left_to_right(deltas)
            if math.fsum(steps) != left_to_right(steps):
                compensated_differs.add("distance")
            if math.fsum(deltas) != left_to_right(deltas):
                compensated_differs.add("bearing")
        assert compensated_differs == {"distance", "bearing"}


class TestConsistency:
    def _pair(self, text, maneuver, net=90.0, lex=None):
        ev = event(0, 0, text, lex)
        seg = ActionSegment(
            event_id=0,
            t_start_ms=0,
            t_end_ms=10_000,
            waypoints=(GeoPoint(0, 0, 0), GeoPoint(0.001, 0, 5_000), GeoPoint(0.001, 0.001, 10_000)),
            net_bearing_change_deg=net,
            distance_m=200.0,
            maneuver=maneuver,
            frame_start=None,
            frame_end=None,
        )
        return ev, seg

    def test_agreeing_turn_passes(self):
        ev, seg = self._pair("Turn left onto Oak Street.", Maneuver.LEFT_TURN, -90.0)
        assert consistency_check(ev, seg) is None

    def test_opposite_turn_flagged(self):
        ev, seg = self._pair("Turn left onto Oak Street.", Maneuver.RIGHT_TURN)
        assert consistency_check(ev, seg) == "event 0: stated left, observed right"

    def test_right_stated_left_observed(self):
        ev, seg = self._pair("Turn right.", Maneuver.LEFT_TURN, -90.0)
        assert consistency_check(ev, seg) == "event 0: stated right, observed left"

    def test_no_side_stated_passes(self):
        ev, seg = self._pair("Continue for half a mile.", Maneuver.RIGHT_TURN)
        assert consistency_check(ev, seg) is None

    def test_both_sides_stated_passes(self):
        ev, seg = self._pair("Turn left then turn right.", Maneuver.RIGHT_TURN)
        assert consistency_check(ev, seg) is None

    def test_straight_never_mismatches(self):
        ev, seg = self._pair("Turn left.", Maneuver.STRAIGHT, 0.0)
        assert consistency_check(ev, seg) is None

    def test_uturn_never_mismatches(self):
        ev, seg = self._pair("Turn left.", Maneuver.UTURN, 180.0)
        assert consistency_check(ev, seg) is None

    def test_unknown_never_mismatches(self):
        ev, seg = self._pair("Turn left.", Maneuver.UNKNOWN, 0.0)
        assert consistency_check(ev, seg) is None

    def test_keep_left_counts_as_stated_side(self):
        ev, seg = self._pair("Keep left at the fork.", Maneuver.RIGHT_TURN)
        assert consistency_check(ev, seg) == "event 0: stated left, observed right"

    @pytest.mark.parametrize(
        "text, stated",
        [("Turn left way.", "left"), ("Turn left's way.", None)],
        ids=["side-token", "side-word-inside-a-token"],
    )
    def test_stated_side_is_a_whole_classifier_token(self, text, stated):
        # A "*" gap carries any token into TURN evidence; only a token the
        # classifier reads as exactly "left" or "right" states a side.
        lex = load_lexicon(json.dumps({"Turn": ["turn * way"]}).encode())
        ev, seg = self._pair(text, Maneuver.RIGHT_TURN, lex=lex)
        turn_evidence = [e.matched for e in ev.evidence if e.command_class.value == "Turn"]
        assert turn_evidence == [text.rstrip(".")]
        expected = stated and f"event 0: stated {stated}, observed right"
        assert consistency_check(ev, seg) == expected

    def test_collect_mismatches(self):
        # Lines come in triad order, and an agreeing triad writes none.
        ev1, seg1 = self._pair("Turn left.", Maneuver.RIGHT_TURN)
        segments = [seg1]
        for id, maneuver, net in [
            (1, Maneuver.RIGHT_TURN, 90.0),
            (2, Maneuver.LEFT_TURN, -90.0),
        ]:
            segments.append(ActionSegment(
                event_id=id,
                t_start_ms=60_000 * id,
                t_end_ms=60_000 * (id + 1),
                waypoints=seg1.waypoints,
                net_bearing_change_deg=net,
                distance_m=100.0,
                maneuver=maneuver,
                frame_start=None,
                frame_end=None,
            ))
        events = [ev1, event(1, 60_000, "Turn right."), event(2, 120_000, "Turn right.")]
        triads = make_triads(events, segments)
        # No text states a cardinal, so the profile is never read.
        assert collect_mismatches(triads, track_profile(TrackLog(()))) == ([
            "event 0: stated left, observed right",
            "event 2: stated right, observed left",
        ], [])


def bearing_profile(bearing_deg, turn_at_ms=None):
    """A profile of two 50 m steps, the first due north and the second at
    ``bearing_deg``, with a turn between them at ``turn_at_ms``."""
    rad = math.radians(bearing_deg)
    points = ((0.0, 0.0), (0.0, 50.0), (50.0 * math.sin(rad), 50.0 + 50.0 * math.cos(rad)))
    turns = () if turn_at_ms is None else (Turn(turn_at_ms, 1, 1),)
    return TrackProfile((0, 4_000, 8_000), points, turns)


class TestCardinalCheck:
    def _pair(self, text, t_end_ms=10_000):
        ev = event(0, 0, text)
        seg = ActionSegment(0, 0, t_end_ms, (), 0.0, 100.0, Maneuver.STRAIGHT, None, None)
        return ev, seg

    @pytest.mark.parametrize(
        "bearing, line",
        [
            (44.9, None),
            (315.1, None),
            (45.2, "event 0: stated North, observed bearing 45.2"),
            (268.04, "event 0: stated North, observed bearing 268.0"),
        ],
    )
    def test_more_than_45_degrees_off_is_flagged(self, bearing, line):
        ev, seg = self._pair("Head North on Oak Street.")
        # Past the turn the profile holds ``bearing``; before it, north.
        assert cardinal_check(ev, seg, bearing_profile(bearing, 4_000)) == (line, None)
        assert cardinal_check(ev, seg, bearing_profile(bearing)) == (None, None)

    def test_a_turn_after_the_window_is_not_read(self):
        ev, seg = self._pair("Head East on Oak Street.", t_end_ms=3_999)
        line, _ = cardinal_check(ev, seg, bearing_profile(90.0, 4_000))
        assert line == "event 0: stated East, observed bearing 0.0"

    def test_bearing_rounds_within_the_compass(self):
        # 359.97 degrees reads 0.0, not 360.0.
        ev, seg = self._pair("Head South on Oak Street.")
        line, _ = cardinal_check(ev, seg, bearing_profile(359.97, 4_000))
        assert line == "event 0: stated South, observed bearing 0.0"

    def test_no_step_after_the_cue_is_a_warning(self):
        ev, seg = self._pair("Head West on Oak Street.")
        ev = dataclasses.replace(ev, t_ms=4_001)
        assert cardinal_check(ev, seg, bearing_profile(270.0)) == (
            None,
            "event 0: stated West unchecked: the track profile has no step after the cue",
        )

    def test_no_stated_cardinal_is_not_checked(self):
        ev, seg = self._pair("Turn left onto Oak Street.")
        assert cardinal_check(ev, seg, track_profile(TrackLog(()))) == (None, None)

    def test_side_line_comes_first(self):
        ev, seg = self._pair("Turn left and head East on Oak Street.")
        seg = dataclasses.replace(seg, maneuver=Maneuver.RIGHT_TURN)
        assert collect_mismatches(make_triads([ev], [seg]), bearing_profile(270.0, 4_000)) == ([
            "event 0: stated left, observed right",
            "event 0: stated East, observed bearing 270.0",
        ], [])
