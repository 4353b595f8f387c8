"""Triad serialization, deterministic JSONL output, and manifests."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from drivetriad import (
    CommandClass,
    GeoPoint,
    Maneuver,
    classify,
    export_triads,
    make_triads,
    read_triads,
)
from drivetriad.core import MAX_INSTANT_MS, member
from drivetriad.emitter import (
    TRIADS_FILENAME,
    VlaTriad,
    _geo_from,
    _geo_members,
    _waypoint,
    build_manifest,
    config_digest,
    manifest_input,
    serialize_triad,
    write_manifest,
)
from drivetriad.errors import (
    EncodingError,
    InternalError,
    InternalOrderingError,
    IoError,
    ParseError,
    parse_input,
)
from drivetriad.classifier import read_statement
from drivetriad.segmenter import ActionSegment
from drivetriad.sync import InstructionEvent


def make_event(id=0, t_ms=1_000_000, text="Turn left onto Oak Street.", frame=120):
    labeled = classify(text)
    return InstructionEvent(
        id=id,
        t_ms=t_ms,
        text=text,
        evidence=labeled.evidence,
        statement=read_statement(labeled.evidence),
        geo=GeoPoint(40.0123456, -105.2705, t_ms, ele_m=1625.5),
        heading_deg=271.25,
        frame_index=frame,
    )


def make_segment(event_id=0, t_start=1_000_000, t_end=1_030_000):
    waypoints = (
        GeoPoint(40.0123456, -105.2705, t_start),
        GeoPoint(40.0133456, -105.2705, (t_start + t_end) // 2),
        GeoPoint(40.0133456, -105.2695, t_end),
    )
    return ActionSegment(
        event_id=event_id,
        t_start_ms=t_start,
        t_end_ms=t_end,
        waypoints=waypoints,
        net_bearing_change_deg=89.993,
        distance_m=196.4,
        maneuver=Maneuver.RIGHT_TURN,
        frame_start=0,
        frame_end=899,
    )


def make_triad(id=0, t_ms=1_000_000):
    event = make_event(id, t_ms)
    segment = make_segment(id, t_ms, t_ms + 30_000)
    return VlaTriad(event, segment)


def outcome(function, *args):
    """What ``function`` returns, or the type and text of what it raises."""
    try:
        return function(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


# Waypoint member values at the edges of the one-step reader: -4e-7
# renders as -0.000000, which is written 0.000000; an int renders as a
# float would; 180 folds to -180; a bool, a string, a list, null and the
# non-finite values are refused.
EDGE_VALUES = [
    -0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, 1.5, 0, 7, 2**70, True, False, "1",
    None, [], 180.0, 180, -180.0, 90.5, -90.5, -1, math.nan, math.inf, -math.inf,
]
_EDGES = st.sampled_from(EDGE_VALUES)
_DROP = object()  # an edit that removes the member

# Values a GeoPoint holds at the edges of the one-step writer: ints, -0,
# values either side of the -0.000000 fold (-5e-7 renders as -0.000000,
# -5.000001e-7 as -0.000001), and ones whose text holds "0.000000" after a
# minus sign that is not the fold's.
_WRITER_EDGES = [
    0, 7, -90, 90, -0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, -5.000001e-7, -1e-6,
    -9e-6, -0.5, 1.5, -10.0000004, -10.0000005, 10.0000004, -1e-300,
]
_WRITER_LONGITUDES = [
    *_WRITER_EDGES, -100.0000004, 180, 180.0, -180, -180.0, -179.9999996,
]


def written_by_members(point) -> str:
    """A waypoint with each value written by ``_float6``, as the event's
    geo is."""
    return '{"t_ms": %d, %s}' % (point.t_ms, _geo_members(point))


def check_waypoint_written(**members) -> None:
    """The point built from ``members`` is written as ``written_by_members``
    writes it; a value no GeoPoint holds is refused when it is built."""
    members = {"lat_deg": 1.5, "lon_deg": 2.5, "t_ms": 3, "ele_m": 4.5, **members}
    try:
        point = GeoPoint(**members)
    except ValueError:
        return
    assert _waypoint(point) == written_by_members(point)


def check_waypoint_read(waypoint) -> None:
    """read_triads gives the point, or the ParseError, that reading each
    member of the first waypoint through member() gives."""
    expected = outcome(lambda w: _geo_from(w, member(w, "t_ms", "int")), waypoint)
    record = json.loads(serialize_triad(make_triad()))
    record["action"]["waypoints"][0] = waypoint
    got = outcome(read_triads, json.dumps(record).encode())
    if isinstance(expected, GeoPoint):
        assert repr(got[0].action.waypoints[0]) == repr(expected)
    else:
        assert got == (ParseError, f"line 1: {expected[1]}")


def edited(waypoint: dict, key: str, value) -> dict:
    copy = dict(waypoint)
    if value is _DROP:
        copy.pop(key, None)
    else:
        copy[key] = value
    return copy


class TestStructures:
    def test_make_triads_pairs_by_id(self):
        events = [make_event(0), make_event(1, 1_030_000)]
        segments = [make_segment(0), make_segment(1, 1_030_000, 1_060_000)]
        triads = make_triads(events, segments)
        assert [t.event.id for t in triads] == [0, 1]
        assert [t.action for t in triads] == segments

    def test_make_triads_skips_event_without_segment(self):
        # segment_actions warns about the empty window; pairing adds nothing.
        events = [make_event(0), make_event(1, 1_030_000), make_event(2, 1_060_000)]
        segments = [make_segment(0), make_segment(2, 1_060_000, 1_090_000)]
        triads = make_triads(events, segments)
        assert [t.event.id for t in triads] == [0, 2]
        assert [t.action for t in triads] == segments


class TestSerializeTriad:
    def test_top_level_key_order(self):
        obj = json.loads(serialize_triad(make_triad()))
        assert list(obj) == [
            "id",
            "t_utc_ms",
            "text",
            "classes",
            "evidence",
            "geo",
            "heading_deg",
            "frame_index",
            "action",
        ]
        assert list(obj["geo"]) == ["lat", "lon", "ele"]
        assert list(obj["action"]) == [
            "t_start_ms",
            "t_end_ms",
            "maneuver",
            "net_bearing_change_deg",
            "distance_m",
            "waypoints",
            "frame_start",
            "frame_end",
        ]
        assert list(obj["action"]["waypoints"][0]) == ["t_ms", "lat", "lon", "ele"]
        assert list(obj["evidence"][0]) == ["class", "start", "end", "matched"]

    def test_values_survive(self):
        obj = json.loads(serialize_triad(make_triad()))
        assert obj["id"] == 0
        assert obj["t_utc_ms"] == 1_000_000
        assert obj["text"] == "Turn left onto Oak Street."
        assert obj["classes"] == ["Road", "Turn"]
        assert obj["geo"]["lat"] == pytest.approx(40.012346, abs=1e-9)
        assert obj["heading_deg"] == pytest.approx(271.25)
        assert obj["action"]["maneuver"] == "RightTurn"
        assert obj["action"]["frame_end"] == 899

    def test_six_decimal_fixed_point(self):
        line = serialize_triad(make_triad())
        assert '"lat": 40.012346' in line
        assert '"heading_deg": 271.250000' in line

    def test_negative_zero_flushed(self):
        event = make_event()
        seg = make_segment()
        seg = ActionSegment(
            event_id=0,
            t_start_ms=seg.t_start_ms,
            t_end_ms=seg.t_end_ms,
            waypoints=seg.waypoints,
            net_bearing_change_deg=-0.0,
            distance_m=seg.distance_m,
            maneuver=Maneuver.STRAIGHT,
            frame_start=None,
            frame_end=None,
        )
        line = serialize_triad(VlaTriad(event, seg))
        assert '"net_bearing_change_deg": 0.000000' in line
        assert "-0.000000" not in line

    def test_none_fields_render_null(self):
        event = make_event(frame=None)
        event = InstructionEvent(
            id=0,
            t_ms=event.t_ms,
            text=event.text,
            evidence=event.evidence,
            statement=event.statement,
            geo=GeoPoint(40.0, -105.0, event.t_ms),  # no elevation
            heading_deg=None,
            frame_index=None,
        )
        seg = make_segment()
        obj = json.loads(serialize_triad(VlaTriad(event, seg)))
        assert obj["heading_deg"] is None
        assert obj["frame_index"] is None
        assert obj["geo"]["ele"] is None

    def test_non_finite_rejected(self):
        seg = make_segment()
        seg = ActionSegment(
            event_id=0,
            t_start_ms=seg.t_start_ms,
            t_end_ms=seg.t_end_ms,
            waypoints=seg.waypoints,
            net_bearing_change_deg=float("nan"),
            distance_m=seg.distance_m,
            maneuver=seg.maneuver,
            frame_start=None,
            frame_end=None,
        )
        with pytest.raises(InternalError):
            serialize_triad(VlaTriad(make_event(), seg))

    def test_waypoint_writer_matches_geo_members_on_every_edge(self):
        for name in ("lat_deg", "lon_deg", "ele_m"):
            for value in (*EDGE_VALUES, *_WRITER_LONGITUDES):
                check_waypoint_written(**{name: value})

    @given(
        t_ms=st.sampled_from([0, 1, MAX_INSTANT_MS]) | st.integers(0, MAX_INSTANT_MS),
        lat=st.sampled_from(_WRITER_EDGES) | st.floats(-90, 90) | st.integers(-90, 90),
        lon=(st.sampled_from(_WRITER_LONGITUDES) | st.floats(-180, 180)
             | st.integers(-180, 180)),
        ele=(st.none() | st.sampled_from([*_WRITER_EDGES, 1e300, 2**70])
             | st.floats(allow_nan=False, allow_infinity=False)
             | st.integers(-10**9, 10**9)),
    )
    def test_waypoint_writer_matches_geo_members(self, t_ms, lat, lon, ele):
        # Every value drawn here makes a point.
        point = GeoPoint(lat, lon, t_ms, ele)
        assert _waypoint(point) == written_by_members(point)

    @pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf, "1"])
    @pytest.mark.parametrize("name", ["lat_deg", "lon_deg", "ele_m"])
    def test_waypoint_writer_rejects_a_non_number(self, name, value):
        # No waypoint holds one: the point is refused when it is built.
        members = {"lat_deg": 1.0, "lon_deg": 2.0, "t_ms": 3, "ele_m": 4.0, name: value}
        with pytest.raises(ValueError):
            GeoPoint(**members)

    @pytest.mark.parametrize("value", [[], None], ids=["list", "null"])
    @pytest.mark.parametrize("name", ["lat_deg", "lon_deg"])
    def test_geo_point_refuses_a_list_or_null_coordinate(self, name, value):
        members = {"lat_deg": 1.0, "lon_deg": 2.0, "t_ms": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got "):
            GeoPoint(**members)


class TestExportTriads:
    def test_writes_lf_jsonl(self, tmp_path):
        triads = [make_triad(0, 1_000_000), make_triad(1, 1_030_000)]
        path = export_triads(triads, tmp_path)
        data = path.read_bytes()
        assert path.name == "triads.jsonl"
        assert data.count(b"\n") == 2
        assert b"\r" not in data

    def test_rerun_byte_identical(self, tmp_path):
        triads = [make_triad(0, 1_000_000), make_triad(1, 1_030_000)]
        first = export_triads(triads, tmp_path).read_bytes()
        second = export_triads(triads, tmp_path).read_bytes()
        assert first == second

    def test_empty_export_is_empty_file(self, tmp_path):
        path = export_triads([], tmp_path)
        assert path.read_bytes() == b""

    def test_out_of_order_rejected(self, tmp_path):
        triads = [make_triad(0, 2_000_000), make_triad(1, 1_000_000)]
        with pytest.raises(InternalOrderingError):
            export_triads(triads, tmp_path)

    def test_unwritable_target_raises_io_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        with pytest.raises(IoError):
            export_triads([make_triad()], blocker)

    def test_file_that_cannot_be_opened_stays(self, tmp_path):
        # Only a file the write opened is removed after a failure: this link
        # could be unlinked, but open fails, so it is not the run's file.
        link = tmp_path / TRIADS_FILENAME
        link.symlink_to(tmp_path / "missing" / "triads.jsonl")
        with pytest.raises(IoError) as info:
            export_triads([make_triad()], tmp_path)
        assert str(info.value).startswith(f"cannot write {link}: ")
        assert link.is_symlink()


class TestReadTriads:
    def test_roundtrip(self, tmp_path):
        originals = [make_triad(0, 1_000_000), make_triad(1, 1_030_000)]
        data = export_triads(originals, tmp_path).read_bytes()
        loaded = read_triads(data)
        assert len(loaded) == 2
        for orig, back in zip(originals, loaded):
            assert back.event.id == orig.event.id
            assert back.event.t_ms == orig.event.t_ms
            assert back.event.text == orig.event.text
            assert back.event.classes == orig.event.classes
            assert back.event.evidence == orig.event.evidence
            # Floats come back at the serialized 6-decimal precision.
            assert back.event.geo.lat_deg == pytest.approx(
                orig.event.geo.lat_deg, abs=5e-7
            )
            assert back.action.maneuver is orig.action.maneuver
            assert back.action.frame_start == orig.action.frame_start
            assert len(back.action.waypoints) == len(orig.action.waypoints)

    def test_every_evidence_subset_roundtrips(self, tmp_path):
        # An event's classes are those its evidence names, so every line
        # export_triads writes is one read_triads takes back, whichever
        # evidence items an event keeps (two Turn items, one class).
        event = make_event(text="In 500 feet, turn left onto Oak Street.")
        assert len(event.evidence) == 4
        for size in range(len(event.evidence) + 1):
            for kept in itertools.combinations(event.evidence, size):
                triad = VlaTriad(dataclasses.replace(event, evidence=kept), make_segment())
                data = export_triads([triad], tmp_path).read_bytes()
                classes = {ev.command_class for ev in kept}
                assert json.loads(data)["classes"] == sorted(c.value for c in classes)
                [back] = read_triads(data)
                assert (back.event.evidence, back.event.classes) == (kept, classes)
                assert export_triads([back], tmp_path).read_bytes() == data

    def test_classes_is_not_a_constructor_argument(self):
        # Only the evidence is stored; the classes are read from it.
        assert "classes" not in {f.name for f in dataclasses.fields(InstructionEvent)}
        assert make_event().classes == {CommandClass.TURN, CommandClass.ROAD}

    def test_reserialization_is_identity(self, tmp_path):
        # Serialized floats are already at emission precision, so a
        # read-back plus re-export reproduces the bytes exactly.
        originals = [make_triad(0, 1_000_000)]
        first = export_triads(originals, tmp_path).read_bytes()
        second = export_triads(read_triads(first), tmp_path).read_bytes()
        assert first == second

    def test_corrupt_line_names_location(self, tmp_path):
        data = export_triads([make_triad()], tmp_path).read_bytes()
        corrupted = data + b'{"id": 1, "nope": true}\n'
        with pytest.raises(ParseError, match="^line 2: "):
            read_triads(corrupted)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_only_a_line_end_ends_a_record(self, tmp_path, separator):
        # JSON strings may hold these raw; str.splitlines() would break there.
        record = json.loads(export_triads([make_triad()], tmp_path).read_bytes())
        # Appended, so every evidence span still reads its match.
        text = record["text"] + f"{separator}now."
        record["text"] = text
        data = json.dumps(record, ensure_ascii=False).encode() + b"\n"
        [triad] = read_triads(data)
        assert triad.event.text == text

    def test_non_json_rejected(self):
        with pytest.raises(ParseError, match="^line 1: "):
            read_triads(b"not json at all\n")

    def test_non_utf8_names_source(self):
        with pytest.raises(EncodingError, match="^input is not valid UTF-8") as info:
            parse_input("run1.jsonl", read_triads, b"\xff\xfe")
        assert info.value.path == "run1.jsonl"

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"geo": {', b'"geo": [1], "x": {'),
            (b'"action": {', b'"action": [1], "x": {'),
            (b'"id": 0', b'"id": Infinity'),
            (b'"t_utc_ms": 1000000', b'"t_utc_ms": -Infinity'),
            (b'"lat": 40.012346', b'"lat": 1' + b"0" * 400),
        ],
        ids=["geo-not-object", "action-not-object", "inf-id", "inf-time", "huge-lat"],
    )
    def test_malformed_values_name_the_line(self, tmp_path, old, new):
        data = export_triads([make_triad()], tmp_path).read_bytes()
        assert old in data
        with pytest.raises(ParseError, match="^line 1: "):
            read_triads(data.replace(old, new, 1))

    def test_waypoint_reader_matches_member_route_on_every_edit(self):
        waypoint = {"t_ms": 5, "lat": 1.5, "lon": 2.5, "ele": 3.5}
        check_waypoint_read(waypoint)
        for key in (*waypoint, "extra"):
            for value in (_DROP, *EDGE_VALUES):
                check_waypoint_read(edited(waypoint, key, value))
        for value in EDGE_VALUES:
            check_waypoint_read(value)

    @given(
        st.fixed_dictionaries({
            "t_ms": st.integers(0, 2**45),
            "lat": st.floats(-90, 90) | st.floats(),
            "lon": st.floats(-180, 180) | st.floats(),
            "ele": st.none() | st.floats(),
        }),
        st.lists(st.tuples(
            st.sampled_from(["t_ms", "lat", "lon", "ele", "extra"]),
            st.one_of(st.just(_DROP), _EDGES, st.floats(), st.integers()),
        ), max_size=2),
    )
    def test_waypoint_reader_matches_member_route(self, waypoint, edits):
        for key, value in edits:
            waypoint = edited(waypoint, key, value)
        check_waypoint_read(waypoint)

    @pytest.mark.parametrize(
        "classes",
        [["Road"], ["Destination", "Road", "Turn"], ["Road", "Turn", "Road"]],
        ids=["missing", "extra", "repeated"],
    )
    def test_classes_must_be_the_evidence_classes_each_once(self, tmp_path, classes):
        # The writer's classes are those of the evidence, each once.
        data = export_triads([make_triad()], tmp_path).read_bytes()
        old = b'"classes": ["Road", "Turn"]'
        assert old in data
        edited = data.replace(old, b'"classes": ' + json.dumps(classes).encode(), 1)
        with pytest.raises(ParseError) as info:
            read_triads(edited)
        assert str(info.value) == (
            f"line 1: classes {classes!r} are not the evidence's classes, each once"
        )

    def test_inverted_frame_range_rejected(self, tmp_path):
        data = export_triads([make_triad()], tmp_path).read_bytes()
        inverted = data.replace(b'"frame_start": 0', b'"frame_start": 900')
        with pytest.raises(ParseError, match=r"^line 1: frame range inverted: \[900, 899\]"):
            read_triads(inverted)

    @pytest.mark.parametrize(
        "null_end, ends", [("frame_start", "[None, 899]"), ("frame_end", "[0, None]")]
    )
    def test_half_null_frame_range_rejected(self, tmp_path, null_end, ends):
        # A frame range is exact or absent: pipeline writes both ends or neither.
        record = json.loads(export_triads([make_triad()], tmp_path).read_bytes())
        record["action"][null_end] = None
        with pytest.raises(ParseError) as info:
            read_triads(json.dumps(record).encode() + b"\n")
        assert str(info.value) == f"line 1: frame range has one null end: {ends}"

    def test_empty_evidence_span_rejected(self, tmp_path):
        # classify never writes an empty span, so a reader refuses one.
        data = export_triads([make_triad()], tmp_path).read_bytes()
        record = json.loads(data)
        record["evidence"].append(
            {"class": record["evidence"][0]["class"], "start": 0, "end": 0, "matched": ""}
        )
        with pytest.raises(ParseError) as info:
            read_triads(json.dumps(record).encode() + b"\n")
        assert str(info.value) == "line 1: evidence [0, 0] is not '' in the text"

    @pytest.mark.parametrize(
        "line",
        [b'{"id": ' + b"9" * 5000 + b"}", b"[" * 200_000 + b"]" * 200_000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_limits_are_parse_errors(self, line):
        with pytest.raises(ParseError, match="^line 1: "):
            read_triads(line + b"\n")


class TestManifest:
    def _manifest(self):
        inputs = [
            manifest_input("/data/track.gpx", "track", b"gpx bytes"),
            manifest_input("/data/words.json", "transcript", b"transcript bytes"),
        ]
        return build_manifest(
            inputs=inputs,
            config_sha256=config_digest({"tolerance_ms": 5000}),
            event_count=4,
            segment_count=4,
            warnings=("event 2: no video frame",),
        )

    def test_digests_are_stable(self):
        assert manifest_input("a", "track", b"x") == manifest_input("a", "track", b"x")
        assert manifest_input("a", "track", b"x") == {
            "path": "a",
            "role": "track",
            "sha256": hashlib.sha256(b"x").hexdigest(),
        }

    def test_digest_tracks_content(self):
        a = manifest_input("/data/track.gpx", "track", b"v1")
        b = manifest_input("/data/track.gpx", "track", b"v2")
        assert a["sha256"] != b["sha256"]

    @pytest.mark.parametrize("path", ["track.gpx", "/long/abs/path/track.gpx", "../run/track.gpx"])
    def test_path_is_recorded_as_its_basename(self, path):
        # Where the command was run from is no part of an input's provenance.
        assert manifest_input(path, "track", b"x")["path"] == "track.gpx"

    def test_config_digest_is_order_insensitive(self):
        a = config_digest({"a": 1, "b": 2})
        b = config_digest({"b": 2, "a": 1})
        assert a == b
        assert a != config_digest({"a": 1, "b": 3})

    def test_render_key_order(self, tmp_path):
        obj = json.loads(write_manifest(self._manifest(), tmp_path).read_text())
        assert list(obj) == [
            "tool_version",
            "created_at_utc_ms",
            "inputs",
            "config_sha256",
            "event_count",
            "segment_count",
            "warnings",
        ]
        assert obj["inputs"][0]["role"] == "track"
        assert obj["event_count"] == 4

    def test_render_is_byte_identical(self, tmp_path):
        a = write_manifest(self._manifest(), tmp_path).read_bytes()
        b = write_manifest(self._manifest(), tmp_path).read_bytes()
        assert a == b
        # The manifest records no clock.
        assert json.loads(a)["created_at_utc_ms"] is None

    def test_write_manifest(self, tmp_path):
        path = write_manifest(self._manifest(), tmp_path)
        assert path.name == "manifest.json"
        text = path.read_text()
        assert text.startswith('{\n  "tool_version": ') and text.endswith("\n}\n")
        assert json.loads(text)["warnings"] == ["event 2: no video frame"]
