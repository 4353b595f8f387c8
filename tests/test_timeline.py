"""Time queries on a track: cached fix times, bisected brackets and windows.

Every query is checked against a brute-force reference that scans the
whole track, on tracks with duplicate timestamps and at query times that
land on fixes, between them, and past either end of the span.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from drivetriad import GeoPoint, TrackLog, interpolate_position, segment_actions
from drivetriad.classifier import read_statement
from drivetriad.core import TOLERANCE_MS, _bracket, heading_at, initial_bearing
from drivetriad.sync import InstructionEvent

# A few nearby positions, so tracks often hold coincident fixes (a stopped
# vehicle) next to real motion.
_POSITIONS = [(40.0, -105.0), (40.0001, -105.0), (40.0001, -104.9999), (40.0002, -105.0001)]


@st.composite
def tracks(draw):
    """Tracks of 2-40 fixes whose time steps are often zero (duplicates)."""
    n = draw(st.integers(min_value=2, max_value=40))
    steps = draw(st.lists(st.sampled_from([0, 0, 1, 7, 500, 1000]), min_size=n - 1, max_size=n - 1))
    coords = draw(st.lists(st.sampled_from(_POSITIONS), min_size=n, max_size=n))
    t = draw(st.integers(min_value=TOLERANCE_MS * 3, max_value=TOLERANCE_MS * 3 + 10_000))
    points = [GeoPoint(*coords[0], t)]
    for step, coord in zip(steps, coords[1:]):
        t += step
        points.append(GeoPoint(*coord, t))
    return TrackLog(tuple(points))


def query_times(log: TrackLog):
    """Times on a fix, one ms either side of one, or anywhere from well
    before the start to well after the end (clamped and rejected regions)."""
    times = [p.t_ms for p in log.points]
    on_fix = st.sampled_from(times)
    near_fix = st.builds(lambda t, d: t + d, on_fix, st.sampled_from([-1, 1]))
    anywhere = st.integers(
        min_value=times[0] - 2 * TOLERANCE_MS, max_value=times[-1] + 2 * TOLERANCE_MS
    )
    return st.one_of(on_fix, near_fix, anywhere)


# --- brute-force reference: linear scans over the points --------------------


def ref_bracket(log, t_ms, tolerance_ms):
    pts = log.points
    if len(pts) < 2:
        return None
    first, last = pts[0].t_ms, pts[-1].t_ms
    if t_ms < first:
        if first - t_ms > tolerance_ms:
            return None
        return first, 0, 1
    if t_ms > last:
        if t_ms - last > tolerance_ms:
            return None
        return last, len(pts) - 2, len(pts) - 1
    i = next(k for k, p in enumerate(pts) if p.t_ms >= t_ms)
    if pts[i].t_ms == t_ms:
        lo = i if i < len(pts) - 1 else i - 1
        return t_ms, lo, lo + 1
    return t_ms, i - 1, i


def ref_interpolate(log, t_ms, tolerance_ms):
    bracket = ref_bracket(log, t_ms, tolerance_ms)
    if bracket is None:
        return None
    clamped, lo, hi = bracket
    a, b = log.points[lo], log.points[hi]
    if clamped == a.t_ms:
        return GeoPoint(a.lat_deg, a.lon_deg, t_ms, a.ele_m)
    if clamped == b.t_ms:
        return GeoPoint(b.lat_deg, b.lon_deg, t_ms, b.ele_m)
    frac = (clamped - a.t_ms) / (b.t_ms - a.t_ms)
    return GeoPoint(
        a.lat_deg + frac * (b.lat_deg - a.lat_deg),
        a.lon_deg + frac * (b.lon_deg - a.lon_deg),
        t_ms,
    )


def ref_heading(log, t_ms, tolerance_ms):
    bracket = ref_bracket(log, t_ms, tolerance_ms)
    if bracket is None:
        return None
    _, lo, hi = bracket
    pts = log.points
    while True:
        a, b = pts[lo], pts[hi]
        if a.lat_deg != b.lat_deg or a.lon_deg != b.lon_deg:
            return initial_bearing(a, b)
        if hi < len(pts) - 1:
            hi += 1
        elif lo > 0:
            lo -= 1
        else:
            return None


def ref_interior(log, t_start, t_end):
    return tuple(p for p in log.points if t_start < p.t_ms < t_end)


# --- properties ---------------------------------------------------------------


@st.composite
def track_and_queries(draw):
    log = draw(tracks())
    return log, draw(st.lists(query_times(log), min_size=1, max_size=10))


class TestCachedTimes:
    @given(tracks())
    def test_times_mirror_points(self, log):
        assert log.times == tuple(p.t_ms for p in log.points)

    @given(tracks(), st.integers(min_value=-1000, max_value=1000))
    def test_shifted_log_has_shifted_times(self, log, offset):
        assert log.shifted(offset).times == tuple(t + offset for t in log.times)

    def test_equality_hash_and_repr_ignore_times(self):
        pts = (GeoPoint(0, 0, 0), GeoPoint(0, 0.1, 1000))
        a, b = TrackLog(pts), TrackLog(list(pts))
        assert a == b and hash(a) == hash(b)
        assert "times" not in repr(a)
        assert repr(a) == f"TrackLog(points={pts!r})"
        compared = [f.name for f in dataclasses.fields(TrackLog) if f.compare]
        assert compared == ["points"]

    def test_times_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            TrackLog((GeoPoint(0, 0, 0),), times=(0,))


class TestQueriesMatchLinearScan:
    @given(track_and_queries())
    def test_bracket(self, case):
        log, queries = case
        for t in queries:
            assert _bracket(log, t) == ref_bracket(log, t, TOLERANCE_MS)

    @given(track_and_queries())
    def test_interpolate_position(self, case):
        log, queries = case
        for t in queries:
            assert interpolate_position(log, t) == ref_interpolate(log, t, TOLERANCE_MS)

    @given(track_and_queries())
    def test_heading_at(self, case):
        log, queries = case
        for t in queries:
            assert heading_at(log, t) == ref_heading(log, t, TOLERANCE_MS)


class TestNoPositionIsNone:
    """A query with no answer returns None, and only such a query does."""

    @given(
        st.lists(st.sampled_from(_POSITIONS), min_size=0, max_size=3),
        st.integers(min_value=0, max_value=4 * TOLERANCE_MS),
        st.integers(min_value=0, max_value=2000),
        st.data(),
    )
    def test_none_exactly_outside_the_clamped_span(self, coords, start, step, data):
        log = TrackLog(tuple(
            GeoPoint(*coord, start + i * step) for i, coord in enumerate(coords)
        ))
        t = data.draw(st.integers(min_value=0, max_value=start + 6 * TOLERANCE_MS))
        outside = len(log) < 2 or not (
            log.start_ms - TOLERANCE_MS <= t <= log.end_ms + TOLERANCE_MS
        )
        assert (interpolate_position(log, t) is None) == outside
        if outside:
            assert heading_at(log, t) is None


def _event(id, t_ms):
    return InstructionEvent(
        id=id,
        t_ms=t_ms,
        text="Continue.",
        evidence=(),
        statement=read_statement(()),
        geo=GeoPoint(0, 0, t_ms),
        heading_deg=None,
        frame_index=None,
    )


class TestWindowInteriors:
    @given(track_and_queries())
    def test_waypoints_match_linear_scan(self, case):
        log, queries = case
        events = [_event(i, t) for i, t in enumerate(sorted(queries))]
        segments, _ = segment_actions(events, log)
        for seg in segments:
            assert seg.waypoints[1:-1] == ref_interior(log, seg.t_start_ms, seg.t_end_ms)
            assert seg.waypoints[0] == ref_interpolate(log, seg.t_start_ms, TOLERANCE_MS)
            assert seg.waypoints[-1] == ref_interpolate(log, seg.t_end_ms, TOLERANCE_MS)

    def test_duplicate_timestamps_on_a_boundary_stay_outside(self):
        pts = tuple(
            GeoPoint(40.0 + i * 0.0001, -105.0, t)
            for i, t in enumerate([0, 1000, 1000, 1000, 2000, 3000, 3000, 4000])
        )
        log = TrackLog(pts)
        segments, _ = segment_actions([_event(0, 1000), _event(1, 3000)], log)
        first, second = segments
        assert first.waypoints[1:-1] == (pts[4],)
        assert second.waypoints[1:-1] == ()
