"""Core types, time arithmetic, and spherical geodesy."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from drivetriad import (
    GeoPoint,
    TrackLog,
    haversine_distance,
    initial_bearing,
    interpolate_position,
)
from drivetriad.core import (
    EARTH_RADIUS_M,
    MAX_INSTANT_MS,
    PROFILE_STEP_M,
    format_iso8601_ms,
    heading_at,
    normalize_bearing,
    parse_iso8601_ms,
    signed_bearing_delta,
    track_profile,
)
from drivetriad.errors import InvalidAnchor, NonMonotoneTrack, ParseError

from helpers import (
    circular_diff_deg, oracle_bearing, oracle_distance, reference_iso8601_ms, track_from,
)


def P(lat, lon, t=0, ele=None):
    return GeoPoint(lat, lon, t, ele)


@dataclasses.dataclass(frozen=True)
class _ReferencePoint:
    """GeoPoint as a plain frozen dataclass checked in __post_init__: an
    int coordinate is stored as a float."""

    lat_deg: float
    lon_deg: float
    t_ms: int
    ele_m: float | None = None

    def __post_init__(self) -> None:
        for name in ("lat_deg", "lon_deg", "ele_m"):
            value = getattr(self, name)
            if type(value) is int:
                object.__setattr__(self, name, float(value))
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg}")
        if self.lon_deg == 180.0:
            object.__setattr__(self, "lon_deg", -180.0)
        if not -180.0 <= self.lon_deg < 180.0:
            raise ValueError(f"longitude out of range: {self.lon_deg}")
        if self.t_ms < 0:
            raise ValueError(f"negative timestamp: {self.t_ms}")
        if self.t_ms > MAX_INSTANT_MS:
            raise ValueError(
                f"timestamp after 9999-12-31T23:59:59.999Z: {self.t_ms}"
            )
        if self.ele_m is not None and not math.isfinite(self.ele_m):
            raise ValueError(f"elevation is not finite: {self.ele_m}")


def _outcome(cls, args):
    """The point ``cls`` builds from ``args``, or its ValueError's text."""
    try:
        return cls(*args)
    except ValueError as exc:
        return str(exc)


# Few distinct values, so that two drawn points are often equal.
_EDGES = st.sampled_from([
    0, 1, -0.0, 0.0, 1.5, 90, -90.0, 180, 180.0, -180.0, 200.0,
    math.nan, math.inf, -math.inf,
])
_POINT_ARGS = st.tuples(
    st.one_of(_EDGES, st.floats(-100, 100), st.integers(-100, 100)),
    st.one_of(_EDGES, st.floats(-200, 200), st.integers(-200, 200)),
    st.sampled_from([-1, 0, 0, 5, 5, MAX_INSTANT_MS, MAX_INSTANT_MS + 1]),
    st.one_of(st.none(), _EDGES, st.floats()),
)


class TestTimestamps:
    def test_parse_utc_z(self):
        assert parse_iso8601_ms("2024-06-01T12:00:00Z") == 1_717_243_200_000

    def test_parse_millis(self):
        assert parse_iso8601_ms("2024-06-01T12:00:00.123Z") == 1_717_243_200_123

    def test_parse_offset(self):
        # 14:00 at +02:00 is 12:00 UTC
        assert (
            parse_iso8601_ms("2024-06-01T14:00:00+02:00") == 1_717_243_200_000
        )

    def test_parse_naive_is_utc(self):
        assert parse_iso8601_ms("2024-06-01T12:00:00") == 1_717_243_200_000

    def test_parse_rounds_microseconds_to_nearest_ms(self):
        assert parse_iso8601_ms("1970-01-01T00:00:00.001500Z") == 2
        assert parse_iso8601_ms("1970-01-01T00:00:00.000400Z") == 0

    @pytest.mark.parametrize(
        "text, t_ms",
        [
            ("2024-06-01T12:00:00.5Z", 1_717_243_200_500),
            ("20240601T120000Z", 1_717_243_200_000),
            ("2024-06-01T12:00:00,25Z", 1_717_243_200_250),
            ("2024-W22-6T12:00:00Z", 1_717_243_200_000),
        ],
        ids=["one-digit-fraction", "basic-format", "comma-fraction", "week-date"],
    )
    def test_parse_iso_spellings_of_python_3_11(self, text, t_ms):
        # datetime.fromisoformat takes these from Python 3.11 on, the
        # oldest version the package supports.
        assert parse_iso8601_ms(text) == t_ms

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_iso8601_ms("yesterday at noon")

    def test_parse_rejects_pre_epoch(self):
        with pytest.raises(ParseError):
            parse_iso8601_ms("1969-12-31T23:59:59Z")

    @pytest.mark.parametrize(
        "text", ["9999-12-31T23:59:59.9995Z", "9999-12-31T23:59:59-01:00"]
    )
    def test_parse_rejects_past_9999(self, text):
        with pytest.raises(ParseError, match="after 9999-12-31"):
            parse_iso8601_ms(text)

    def test_last_instant_roundtrips(self):
        assert format_iso8601_ms(MAX_INSTANT_MS) == "9999-12-31T23:59:59.999Z"
        assert parse_iso8601_ms("9999-12-31T23:59:59.999Z") == MAX_INSTANT_MS

    def test_format(self):
        assert format_iso8601_ms(1_717_243_200_123) == "2024-06-01T12:00:00.123Z"
        assert format_iso8601_ms(0) == "1970-01-01T00:00:00.000Z"

    @given(st.integers(min_value=0, max_value=4_000_000_000_000))
    def test_format_parse_roundtrip(self, t_ms):
        assert parse_iso8601_ms(format_iso8601_ms(t_ms)) == t_ms

    @given(st.integers(min_value=0, max_value=MAX_INSTANT_MS))
    def test_format_matches_reference(self, t_ms):
        assert format_iso8601_ms(t_ms) == reference_iso8601_ms(t_ms)


class TestGeoPoint:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            P(90.5, 0)
        with pytest.raises(ValueError):
            P(-91, 0)

    def test_longitude_bounds_and_fold(self):
        assert P(0, 180.0).lon_deg == -180.0
        with pytest.raises(ValueError):
            P(0, 200)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(0, 0, -1)

    def test_time_past_9999_rejected(self):
        assert GeoPoint(0, 0, MAX_INSTANT_MS).t_ms == MAX_INSTANT_MS
        with pytest.raises(ValueError, match="^timestamp after 9999-12-31"):
            GeoPoint(0, 0, MAX_INSTANT_MS + 1)

    @pytest.mark.parametrize("t_ms", [1.9, 2.0, True, "3", None])
    def test_time_must_be_an_integer(self, t_ms):
        with pytest.raises(ValueError, match=f"^t_ms must be an integer, got {t_ms!r}$"):
            GeoPoint(40.0, -105.0, t_ms)

    def test_bool_coordinates_rejected(self):
        with pytest.raises(ValueError, match="^lat_deg must be a finite number, got True$"):
            GeoPoint(True, False, 0)

    def test_int_coordinates_are_stored_as_floats(self):
        point = GeoPoint(1, -2, 3, 4)
        assert [type(v) for v in (point.lat_deg, point.lon_deg, point.ele_m)] == [float] * 3
        assert repr(point) == "GeoPoint(lat_deg=1.0, lon_deg=-2.0, t_ms=3, ele_m=4.0)"
        assert GeoPoint(0, 180, 0).lon_deg == -180.0

    @pytest.mark.parametrize("ele", [math.nan, math.inf, -math.inf])
    def test_non_finite_elevation_rejected(self, ele):
        with pytest.raises(ValueError, match="elevation is not finite"):
            GeoPoint(0, 0, 0, ele)

    def test_missing_elevation_allowed(self):
        assert GeoPoint(0, 0, 0).ele_m is None

    def test_frozen_value_type(self):
        point = GeoPoint(1.0, 2.0, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.lat_deg = 0.0
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(point)] == [
            (f.name, f.type, f.default) for f in dataclasses.fields(_ReferencePoint)
        ]
        assert dataclasses.replace(point, ele_m=5.0) == GeoPoint(1.0, 2.0, 3, 5.0)
        assert GeoPoint(lat_deg=1.0, lon_deg=2.0, t_ms=3) == point
        # A point is no tuple, though it holds the same values.
        assert point != (1.0, 2.0, 3, None)

    @given(st.lists(_POINT_ARGS, min_size=2, max_size=2))
    def test_matches_frozen_dataclass_reference(self, pair):
        # The slotted class with its own constructor behaves as the plain
        # frozen dataclass with a __post_init__ check that it replaced.
        built = [(_outcome(GeoPoint, args), _outcome(_ReferencePoint, args))
                 for args in pair]
        for new, ref in built:
            if isinstance(ref, str):
                assert new == ref
            else:
                assert repr(new) == repr(ref).replace("_ReferencePoint", "GeoPoint")
                assert hash(new) == hash(ref)
        (new_a, ref_a), (new_b, ref_b) = built
        if not isinstance(ref_a, str) and not isinstance(ref_b, str):
            assert (new_a == new_b) == (ref_a == ref_b)


class TestTrackLog:
    def test_rejects_decreasing_time(self):
        with pytest.raises(NonMonotoneTrack):
            TrackLog((P(0, 0, 1000), P(0, 0.1, 500)))

    def test_allows_equal_times(self):
        log = TrackLog((P(0, 0, 1000), P(0, 0.1, 1000)))
        assert len(log) == 2

    def test_span_and_shift(self):
        log = track_from([(0, 0), (0, 0.1)], start_ms=100, step_ms=900)
        assert (log.start_ms, log.end_ms) == (100, 1000)
        moved = log.shifted(-50)
        assert (moved.start_ms, moved.end_ms) == (50, 950)
        assert log.shifted(0) is log

    @pytest.mark.parametrize(
        "offset_ms, message",
        [
            (-101, "an offset of -101 ms moves the track start before the epoch"),
            (MAX_INSTANT_MS - 999, f"an offset of {MAX_INSTANT_MS - 999} ms moves the "
             "track past 9999-12-31T23:59:59.999Z"),
        ],
        ids=["before-epoch", "past-9999"],
    )
    def test_shift_out_of_range_is_refused(self, offset_ms, message):
        log = track_from([(0, 0), (0, 0.1)], start_ms=100, step_ms=900)
        with pytest.raises(InvalidAnchor) as caught:
            log.shifted(offset_ms)
        assert str(caught.value) == message

    def test_shift_to_the_range_ends_is_kept(self):
        log = track_from([(0, 0), (0, 0.1)], start_ms=100, step_ms=900)
        assert log.shifted(-100).start_ms == 0
        assert log.shifted(MAX_INSTANT_MS - 1000).end_ms == MAX_INSTANT_MS


class TestHaversine:
    def test_one_millidegree_of_latitude(self):
        # R * dphi for dphi = 0.001 degrees
        expected = EARTH_RADIUS_M * math.radians(0.001)
        assert haversine_distance(P(0, 0), P(0.001, 0)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_antipodal_is_half_circumference(self):
        assert haversine_distance(P(0, 0), P(0, 180)) == pytest.approx(
            math.pi * EARTH_RADIUS_M, rel=1e-12
        )

    def test_zero_distance(self):
        assert haversine_distance(P(12.5, -33.25), P(12.5, -33.25)) == 0.0

    @given(
        st.floats(min_value=-89, max_value=89),
        st.floats(min_value=-179.9, max_value=179.9),
        st.floats(min_value=-89, max_value=89),
        st.floats(min_value=-179.9, max_value=179.9),
    )
    def test_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = P(lat1, lon1), P(lat2, lon2)
        d1 = haversine_distance(a, b)
        d2 = haversine_distance(b, a)
        assert d1 >= 0
        assert d1 == pytest.approx(d2, abs=1e-6)


class TestBearing:
    def test_cardinal_directions(self):
        assert initial_bearing(P(0, 0), P(1, 0)) == pytest.approx(0.0, abs=1e-9)
        assert initial_bearing(P(0, 0), P(0, 1)) == pytest.approx(90.0, abs=1e-9)
        assert initial_bearing(P(0, 0), P(-1, 0)) == pytest.approx(180.0, abs=1e-9)
        assert initial_bearing(P(0, 0), P(0, -1)) == pytest.approx(270.0, abs=1e-9)

    def test_coincident_points_have_no_bearing(self):
        assert initial_bearing(P(10, 20), P(10, 20)) is None

    @given(
        st.sampled_from([-90.0, -45.5, 0.0, 10.0, 89.999999, 90.0]),
        st.sampled_from([-180.0, -0.000001, 0.0, 20.0, 179.999999]),
        st.sampled_from([-90.0, -45.5, 0.0, 10.0, 89.999999, 90.0]),
        st.sampled_from([-180.0, -0.000001, 0.0, 20.0, 179.999999]),
    )
    def test_none_exactly_for_coincident_points(self, lat1, lon1, lat2, lon2):
        bearing = initial_bearing(P(lat1, lon1), P(lat2, lon2))
        assert (bearing is None) == (lat1 == lat2 and lon1 == lon2)
        if bearing is not None:
            assert 0.0 <= bearing < 360.0

    def test_matches_vector_oracle_on_samples(self):
        pairs = [
            (40.0, -105.0, 40.1, -104.9),
            (-33.9, 151.2, -33.8, 151.3),
            (51.5, -0.1, 48.9, 2.3),
            (0.01, 0.01, -0.01, -0.01),
        ]
        for lat1, lon1, lat2, lon2 in pairs:
            got = initial_bearing(P(lat1, lon1), P(lat2, lon2))
            want = oracle_bearing(lat1, lon1, lat2, lon2)
            assert circular_diff_deg(got, want) < 1e-6


class TestNormalizeAndDelta:
    def test_normalize(self):
        assert normalize_bearing(360.0) == 0.0
        assert normalize_bearing(-90.0) == 270.0
        assert normalize_bearing(725.0) == 5.0
        assert normalize_bearing(359.5) == 359.5

    def test_delta_wraps_through_north(self):
        assert signed_bearing_delta(350, 10) == pytest.approx(20.0)
        assert signed_bearing_delta(10, 350) == pytest.approx(-20.0)

    def test_half_turn_is_positive(self):
        assert signed_bearing_delta(0, 180) == 180.0
        assert signed_bearing_delta(180, 0) == 180.0

    @given(
        st.floats(min_value=0, max_value=360, exclude_max=True),
        st.floats(min_value=0, max_value=360, exclude_max=True),
    )
    def test_delta_range_and_consistency(self, a, b):
        d = signed_bearing_delta(a, b)
        assert -180.0 < d <= 180.0
        assert circular_diff_deg(normalize_bearing(a + d), normalize_bearing(b)) < 1e-6


class TestInterpolation:
    def test_two_point_midpoint_is_exact(self):
        log = track_from([(40.0, -105.0), (41.0, -104.0)], step_ms=2000)
        mid = interpolate_position(log, 1000)
        assert mid.lat_deg == 40.5
        assert mid.lon_deg == -104.5
        assert mid.t_ms == 1000

    def test_exact_hit_reproduces_point(self):
        log = track_from([(1.0, 2.0), (1.5, 2.5), (2.0, 3.0)])
        hit = interpolate_position(log, 1000)
        assert (hit.lat_deg, hit.lon_deg, hit.t_ms) == (1.5, 2.5, 1000)

    def test_clamps_within_tolerance(self):
        log = track_from([(1.0, 2.0), (2.0, 3.0)], start_ms=10_000)
        before = interpolate_position(log, 7_000)
        assert (before.lat_deg, before.lon_deg) == (1.0, 2.0)
        after = interpolate_position(log, 14_500)
        assert (after.lat_deg, after.lon_deg) == (2.0, 3.0)

    def test_rejects_beyond_tolerance(self):
        log = track_from([(1.0, 2.0), (2.0, 3.0)], start_ms=10_000)
        assert interpolate_position(log, 1_000) is None
        assert interpolate_position(log, 17_000) is None

    def test_single_point_track_rejected(self):
        log = TrackLog((P(0, 0, 0),))
        assert interpolate_position(log, 0) is None

    def test_elevation_needs_both_ends(self):
        log = TrackLog((P(0, 0, 0, ele=100.0), P(1, 0, 2000, ele=200.0)))
        assert interpolate_position(log, 1000).ele_m == 150.0
        log2 = TrackLog((P(0, 0, 0, ele=100.0), P(1, 0, 2000)))
        assert interpolate_position(log2, 1000).ele_m is None

    def test_crossing_the_antimeridian_takes_the_short_way(self):
        log = track_from([(0.0, 179.9999), (0.0, -179.9999)], step_ms=1000)
        mid = interpolate_position(log, 500)
        assert mid.lon_deg == -180.0
        assert haversine_distance(mid, log.points[0]) < 12.0
        back = track_from([(10.0, -179.9), (10.0, 179.9)], step_ms=4000)
        assert interpolate_position(back, 1000).lon_deg == pytest.approx(-179.95)
        assert interpolate_position(back, 3000).lon_deg == pytest.approx(179.95)

    @given(
        st.floats(-85.0, 85.0),
        st.floats(-180.0, 180.0, exclude_max=True),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.integers(min_value=1, max_value=999),
    )
    def test_stays_between_the_bracketing_fixes(self, lat, lon, dlat, dlon, t):
        # Longitudes wrap, so some pairs straddle the antimeridian.
        a = P(lat, lon, 0)
        b = P(lat + dlat, (lon + dlon + 180.0) % 360.0 - 180.0, 1000)
        point = interpolate_position(TrackLog((a, b)), t)
        span = haversine_distance(a, b)
        assert haversine_distance(a, point) <= span + 1e-6
        assert haversine_distance(b, point) <= span + 1e-6

    @given(st.integers(min_value=0, max_value=9000))
    def test_interpolated_time_is_query_time(self, t):
        log = track_from([(0, 0), (0.001, 0.001)], step_ms=9000)
        assert interpolate_position(log, t).t_ms == t


class TestHeadingAt:
    def test_straight_segment(self):
        log = track_from([(0, 0), (0.001, 0)], step_ms=1000)
        assert heading_at(log, 500) == pytest.approx(0.0, abs=1e-9)

    def test_skips_coincident_bracket(self):
        # Stationary in the middle; heading should come from real motion.
        log = track_from([(0, 0), (0.001, 0), (0.001, 0), (0.002, 0)])
        assert heading_at(log, 1500) == pytest.approx(0.0, abs=1e-6)

    def test_all_coincident_has_no_heading(self):
        log = track_from([(0.5, 0.5)] * 4)
        assert heading_at(log, 1500) is None


class TestAgainstOracle:
    def test_regional_pairs(self):
        # Spot-check before the larger randomized sweep in the
        # acceptance tests: a few city-scale hops on three continents.
        pairs = [
            (40.0150, -105.2705, 40.0274, -105.2519),
            (35.6762, 139.6503, 35.6895, 139.6917),
            (-26.2041, 28.0473, -26.1952, 28.0341),
        ]
        for lat1, lon1, lat2, lon2 in pairs:
            a, b = P(lat1, lon1), P(lat2, lon2)
            assert haversine_distance(a, b) == pytest.approx(
                oracle_distance(lat1, lon1, lat2, lon2), rel=1e-9
            )
            assert (
                circular_diff_deg(
                    initial_bearing(a, b), oracle_bearing(lat1, lon1, lat2, lon2)
                )
                < 1e-6
            )


def walk(origin, steps):
    """A track from ``origin`` (lat, lon) along (bearing, metres) steps, one
    fix a second, each step laid on the plane at the origin."""
    lat0, lon0 = origin
    x = y = 0.0
    coords = [origin]
    for bearing, length in steps:
        x += length * math.sin(math.radians(bearing))
        y += length * math.cos(math.radians(bearing))
        lon = lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
        coords.append((lat0 + math.degrees(y / EARTH_RADIUS_M), (lon + 180.0) % 360.0 - 180.0))
    return track_from(coords)


class TestTrackProfile:
    @given(st.lists(
        st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 30.0)), min_size=0, max_size=60,
    ))
    def test_keeps_each_fix_40_m_past_the_last_kept(self, steps):
        log = walk((40.0, -105.0), steps)
        profile = track_profile(log)
        kept = {t // 1000 for t in profile.times}
        assert 0 in kept
        last = log.points[0]
        for i, point in enumerate(log.points[1:], start=1):
            gap = oracle_distance(last.lat_deg, last.lon_deg, point.lat_deg, point.lon_deg)
            # The plane and the sphere agree to well under 5 cm over 2 km.
            if i in kept:
                assert gap > PROFILE_STEP_M - 0.05
                last = point
            else:
                assert gap < PROFILE_STEP_M + 0.05
        assert len(profile.points) == len(kept)

    def test_short_tracks_have_no_step(self):
        for log in (TrackLog(()), track_from([(1.0, 2.0)]), track_from([(1.0, 2.0)] * 5)):
            profile = track_profile(log)
            assert profile.turns == ()
            assert profile.exit_bearing(0, 10_000) is None

    def test_steps_cross_the_antimeridian_the_short_way(self):
        # Due east across 180 degrees at the equator, 50 m a fix.
        log = walk((0.0, 179.999), [(90.0, 50.0)] * 10)
        assert log.points[-1].lon_deg < 0.0
        profile = track_profile(log)
        assert len(profile.points) == 11
        assert profile.exit_bearing(0, 0) == pytest.approx(90.0)
        assert profile.exit_bearing(9000, 9000) == pytest.approx(90.0)
        assert profile.turns == ()

    @pytest.mark.parametrize("after", [90.0, 270.0, 180.0], ids=["right", "left", "u-turn"])
    def test_one_turn_at_the_corner(self, after):
        # 492 m north, then 492 m on, 41 m a fix: the turn's point is the
        # corner's fix, and the track holds the new bearing after it.
        log = walk((40.0, -105.0), [(0.0, 41.0)] * 12 + [(after, 41.0)] * 12)
        profile = track_profile(log)
        (located,) = profile.turns
        assert (located.t_ms, located.vertex) == (12_000, 12)
        assert profile.points[12] == pytest.approx((0.0, 492.0))
        assert profile.exit_bearing(0, log.end_ms) == pytest.approx(after)
        # With no turn in the stretch, the bearing is the one at its start.
        assert profile.exit_bearing(0, 11_999) == pytest.approx(0.0)
        assert profile.exit_bearing(13_000, log.end_ms) == pytest.approx(after)

    def test_a_corner_between_kept_fixes_is_one_turn(self):
        # 10 m a fix: the kept step across the corner cuts it, and the
        # turn's point lies within a kept step of the corner.
        log = walk((40.0, -105.0), [(0.0, 10.0)] * 50 + [(90.0, 10.0)] * 50)
        profile = track_profile(log)
        (located,) = profile.turns
        x, y = profile.points[located.vertex]
        assert math.hypot(x, y - 500.0) <= PROFILE_STEP_M
        assert abs(signed_bearing_delta(90.0, profile.exit_bearing(0, log.end_ms))) < 45.0

    def test_a_gentle_bend_is_no_turn(self):
        # 60 degrees over 600 m: no step changes bearing by 20 degrees.
        log = walk((40.0, -105.0), [(i * 1.0, 10.0) for i in range(60)])
        assert track_profile(log).turns == ()
