"""Parsers for GPX tracks, transcripts, and video sidecars."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from drivetriad import (
    GeoPoint,
    RoutePlan,
    TrackLog,
    Transcript,
    TranscriptSegment,
    VideoIndex,
    generate_instructions,
    parse_gpx,
    parse_legs,
    parse_transcript,
    parse_video_meta,
)
from drivetriad.classifier import has_word
from drivetriad.core import MAX_INSTANT_MS, parse_float, parse_iso8601_ms, read_text
from drivetriad import ingest
from drivetriad.ingest import absolutize
from drivetriad.synth import write_gpx
from drivetriad.errors import (
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

GPX_11 = b"""<?xml version="1.0" encoding="UTF-8"?>
<gpx version="1.1" creator="test" xmlns="http://www.topografix.com/GPX/1/1">
  <trk><trkseg>
    <trkpt lat="40.0" lon="-105.0"><ele>1600.0</ele><time>2024-06-01T12:00:00Z</time></trkpt>
    <trkpt lat="40.001" lon="-105.0"><time>2024-06-01T12:00:10Z</time></trkpt>
  </trkseg></trk>
</gpx>
"""

GPX_10 = b"""<?xml version="1.0"?>
<gpx version="1.0" xmlns="http://www.topografix.com/GPX/1/0">
  <trk><trkseg>
    <trkpt lat="1.0" lon="2.0"><time>2024-06-01T12:00:00Z</time></trkpt>
    <trkpt lat="1.1" lon="2.0"><time>2024-06-01T12:00:05Z</time></trkpt>
  </trkseg></trk>
</gpx>
"""

GPX_NO_NS = b"""<gpx><trk><trkseg>
  <trkpt lat="5" lon="6"><time>2024-06-01T12:00:00Z</time></trkpt>
  <trkpt lat="5.1" lon="6"><time>2024-06-01T12:00:01Z</time></trkpt>
</trkseg></trk></gpx>
"""


class TestParseGpx:
    def test_gpx_11_with_elevation(self):
        log = parse_gpx(GPX_11)
        assert len(log) == 2
        assert log.points[0].lat_deg == 40.0
        assert log.points[0].ele_m == 1600.0
        assert log.points[1].ele_m is None
        assert log.points[1].t_ms - log.points[0].t_ms == 10_000

    def test_gpx_10_namespace(self):
        assert len(parse_gpx(GPX_10)) == 2

    def test_namespace_free_gpx(self):
        assert len(parse_gpx(GPX_NO_NS)) == 2

    def test_multiple_segments_concatenate(self):
        data = b"""<gpx><trk>
          <trkseg><trkpt lat="0" lon="0"><time>2024-01-01T00:00:00Z</time></trkpt></trkseg>
          <trkseg><trkpt lat="0.1" lon="0"><time>2024-01-01T00:00:05Z</time></trkpt></trkseg>
        </trk></gpx>"""
        assert len(parse_gpx(data)) == 2

    def test_missing_lat_rejected(self):
        data = b'<gpx><trk><trkseg><trkpt lon="1"><time>2024-01-01T00:00:00Z</time></trkpt></trkseg></trk></gpx>'
        with pytest.raises(ParseError):
            parse_gpx(data)

    def test_missing_time_rejected(self):
        data = b'<gpx><trk><trkseg><trkpt lat="1" lon="1"/></trkseg></trk></gpx>'
        with pytest.raises(MissingTimestamp):
            parse_gpx(data)

    def test_decreasing_time_rejected(self):
        data = b"""<gpx><trk><trkseg>
          <trkpt lat="0" lon="0"><time>2024-01-01T00:00:10Z</time></trkpt>
          <trkpt lat="0.1" lon="0"><time>2024-01-01T00:00:05Z</time></trkpt>
        </trkseg></trk></gpx>"""
        with pytest.raises(NonMonotoneTrack):
            parse_gpx(data)

    def test_empty_gpx_rejected(self):
        with pytest.raises(EmptyTrack):
            parse_gpx(b"<gpx><trk><trkseg></trkseg></trk></gpx>")

    def test_malformed_xml_rejected(self):
        with pytest.raises(ParseError):
            parse_gpx(b"<gpx><trk>")

    @pytest.mark.parametrize("ele", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_elevation_names_trkpt(self, ele):
        data = GPX_11.replace(b"<ele>1600.0</ele>", b"").replace(
            b'<time>2024-06-01T12:00:10Z', b"<ele>" + ele.encode() + b'</ele><time>2024-06-01T12:00:10Z'
        )
        with pytest.raises(ParseError, match="trkpt 1: elevation is not finite"):
            parse_gpx(data)

    def test_non_utf8_rejected(self):
        with pytest.raises(EncodingError):
            parse_transcript(b"\xff\xfe broken", "plain-lines")


def _local_name(tag):
    return tag.rsplit("}", 1)[-1]


def reference_parse_gpx(data):
    """parse_gpx as a loop over a whole ElementTree, the reference that the
    streaming parser must equal."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ParseError(f"malformed GPX XML: {exc}") from exc
    points = []
    for elem in root.iter():
        if _local_name(elem.tag) != "trkpt":
            continue
        index = len(points)
        lat_text = elem.get("lat")
        lon_text = elem.get("lon")
        if lat_text is None or lon_text is None:
            raise ParseError(f"trkpt {index}: missing lat/lon attribute")
        ele_m = None
        t_ms = None
        for child in elem:
            name = _local_name(child.tag)
            if name == "ele" and child.text is not None:
                try:
                    ele_m = parse_float(child.text)
                except ValueError as exc:
                    raise ParseError(f"trkpt {index}: bad ele {child.text!r}") from exc
            elif name == "time" and child.text is not None:
                t_ms = parse_iso8601_ms(child.text)
        if t_ms is None:
            raise MissingTimestamp(f"trkpt {index} has no time element")
        try:
            point = GeoPoint(parse_float(lat_text), parse_float(lon_text), t_ms, ele_m)
        except ValueError as exc:
            raise ParseError(f"trkpt {index}: {exc}") from exc
        if points and point.t_ms < points[-1].t_ms:
            raise NonMonotoneTrack(
                f"trkpt {index}: time goes backwards ({points[-1].t_ms} -> {point.t_ms})"
            )
        points.append(point)
    if not points:
        raise EmptyTrack("GPX contains no trkpt elements")
    return TrackLog(tuple(points))


def outcome(parse, data):
    try:
        return parse(data).points
    except DataError as exc:
        return (type(exc), str(exc))


# Draws repeat the well-formed values, so that many documents parse whole
# and the rest fail at varied points.
_STAMPS = ["2024-01-01T00:00:00Z", "2024-01-01T00:00:05.5Z"] * 4 + [
    "1969-12-31T23:59:59Z",
    "bad",
]
_ELES = ["12.5", "-3"] * 3 + ["x", "nan", "1_0", " "]
# What may sit inside a text: markup that ElementTree's .text reads through,
# and a sub-element, after which the rest is that sub-element's tail.
_SPLICES = ["", "", "", "<!--c-->", "<?pi x?>", "<![CDATA[]]>", "<x/>", "<x>0</x>"]


@st.composite
def _text(draw, values):
    value = draw(st.sampled_from(values))
    cut = draw(st.integers(0, len(value)))
    head, tail = value[:cut], value[cut:]
    if draw(st.booleans()):
        head = f"<![CDATA[{head}]]>"
    return head + draw(st.sampled_from(_SPLICES)) + tail


@st.composite
def _trkpt(draw, p, depth=0):
    attrs = ""
    lat = draw(st.sampled_from(["1.5"] * 8 + ["95", None]))
    lon = draw(st.sampled_from(["2"] * 8 + ["180", "1_0", None]))
    if lat is not None:
        attrs += f' lat="{lat}"'
    if lon is not None:
        attrs += f' lon="{lon}"'
    kinds = ["time"] * 4 + ["ele", "empty", "extensions", "other"]
    if depth < 2:
        kinds.append("trkpt")
    body = ""
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "time":
            body += f"<{p}time>{draw(_text(_STAMPS))}</{p}time>"
        elif kind == "ele":
            body += f"<{p}ele>{draw(_text(_ELES))}</{p}ele>"
        elif kind == "empty":
            body += draw(
                st.sampled_from(
                    [f"<{p}time/>", f"<{p}ele></{p}ele>", f"<{p}time><!--c--></{p}time>"]
                )
            )
        elif kind == "extensions":
            body += f"<{p}extensions><{p}time>{draw(_text(_STAMPS))}</{p}time></{p}extensions>"
        elif kind == "other":
            body += f"<{p}name>n</{p}name>"
        else:
            body += draw(_trkpt(p, depth + 1))
        body += draw(st.sampled_from(["", " ", "\n  "]))
    return f"<{p}trkpt{attrs}>{body}</{p}trkpt>"


# Values for the scan's shape. A track that draws the later stamp, or the
# last one, before another goes backwards.
_PLAIN_NUMBERS = ["1.5", "-0.25", "+2e1", "40.000012902383396"] * 8 + ["95", "1e999", "-", "1_0"]
_PLAIN_STAMPS = ["2024-01-01T00:00:05.5Z"] * 12 + [
    "2024-01-01T00:00:06.000Z",
    "2024-13-01T00:00:00Z",
    "2024-01-01T00:00:00Z",
]
_GAPS = ["", " ", "\n      "]
_PLAIN_POINT = '<trkpt lat="1.5" lon="2"><time>2024-01-01T00:00:00Z</time></trkpt>'
# Each near-miss turns a plain document into one a step off the scan's
# shape, or hides a plain trkpt where it is not an element.
_NEAR_MISSES = {
    "single-quotes": lambda d: d.replace('lat="1.5"', "lat='1.5'", 1),
    "swapped-attributes": lambda d: d.replace('lat="1.5" lon="2"', 'lon="2" lat="1.5"', 1),
    "extra-attribute": lambda d: d.replace('lon="2">', 'lon="2" hdop="1">', 1),
    "amp-in-time": lambda d: d.replace("Z</time>", "Z&amp;</time>", 1),
    "char-ref-in-time": lambda d: d.replace("00Z</time>", "0&#48;Z</time>", 1),
    "crlf-and-bom": lambda d: "\ufeff" + d.replace("\n", "\r\n"),
    "latin-1-declaration": lambda d: d.replace('encoding="UTF-8"', 'encoding="ISO-8859-1"'),
    "lowercase-utf-8": lambda d: d.replace('encoding="UTF-8"', 'encoding="utf-8"'),
    "comment": lambda d: d.replace("<trkseg>", f"<trkseg><!--{_PLAIN_POINT}-->"),
    "cdata": lambda d: d.replace("<trkseg>", f"<trkseg><![CDATA[{_PLAIN_POINT}]]>"),
    "pi": lambda d: d.replace("<trkseg>", f"<trkseg><?keep {_PLAIN_POINT}?>"),
    "trkpt-in-name": lambda d: d.replace("<name>synth</name>", "<name>trkpt</name>"),
    "g-prefix": lambda d: d.replace("<trkpt", '<g:trkpt xmlns:g="urn:g"', 1).replace(
        "</trkpt>", "</g:trkpt>", 1
    ),
    "empty-ele": lambda d: d.replace("<time>", "<ele></ele><time>", 1),
    "blank-ele": lambda d: d.replace("<time>", "<ele> </ele><time>", 1),
    "backwards": lambda d: d.replace("T00:00:00Z", "T00:00:09Z", 1),
    "truncated": lambda d: d[:-20],
    "underscore-in-number": lambda d: d.replace('lat="1.5"', 'lat="1_5"', 1),
    "unbound-prefix": lambda d: d.replace("</trkseg>", "<g:x/></trkseg>"),
    "extensions": lambda d: d.replace("</time></trkpt>", "</time><extensions/></trkpt>"),
    "extensions-on-last": lambda d: "</time><extensions/></trkpt>".join(
        d.rsplit("</time></trkpt>", 1)
    ),
}


def _plain_gpx(points):
    """A document in the scan's shape, laid out as synth writes one."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">\n'
        "  <trk>\n    <name>synth</name>\n    <trkseg>\n"
        + "".join(f"      {point}\n" for point in points)
        + "    </trkseg>\n  </trk>\n</gpx>\n"
    )


@st.composite
def _plain_trkpt(draw):
    lat, lon = draw(st.sampled_from(_PLAIN_NUMBERS)), draw(st.sampled_from(_PLAIN_NUMBERS))
    ele = draw(st.sampled_from([None] * 12 + _PLAIN_NUMBERS[:8] + ["1e999", "e"]))
    stamp = draw(st.sampled_from(_PLAIN_STAMPS))
    gaps = [draw(st.sampled_from(_GAPS)) for _ in range(3)]
    ele_tag = "" if ele is None else f"<ele>{ele}</ele>{gaps[1]}"
    return (
        f'<trkpt lat="{lat}" lon="{lon}">{gaps[0]}{ele_tag}'
        f"<time>{stamp}</time>{gaps[2]}</trkpt>"
    )


@st.composite
def _plain_document(draw):
    points = draw(st.lists(_plain_trkpt(), max_size=4))
    doc = _plain_gpx([_PLAIN_POINT, *points])
    if draw(st.integers(0, 2)) == 0:
        doc = draw(st.sampled_from(list(_NEAR_MISSES.values())))(doc)
    return doc.encode("utf-8")


@st.composite
def _markup_documents(draw):
    """Documents that vary the markup around each trkpt: prefixes, a
    default namespace and every trkpt body ``_trkpt`` draws."""
    p, declaration = draw(
        st.sampled_from([
            ("", ""),
            ("", ' xmlns="http://www.topografix.com/GPX/1/1"'),
            ("g:", ' xmlns:g="http://www.topografix.com/GPX/1/1"'),
        ])
    )
    points = "".join(draw(st.lists(_trkpt(p), max_size=4)))
    doc = f"<{p}gpx{declaration}><{p}trk><{p}trkseg>{points}</{p}trkseg></{p}trk></{p}gpx>"
    return doc.encode("utf-8")


def _truncated(documents):
    return st.tuples(documents, st.sampled_from([0] * 12 + [1, 9, 60])).map(
        lambda drawn: drawn[0][: len(drawn[0]) - drawn[1]]
    )


# About half of the documents have the scan's shape or are a near miss of it.
_gpx_documents = _truncated(st.one_of(_plain_document(), _markup_documents()))


class TestStreamingParse:
    """parse_gpx reads parser events, or scans a plain document; either way
    it must equal the tree-based reference."""

    @settings(max_examples=400)
    @given(data=_gpx_documents)
    def test_equals_tree_reference(self, data):
        assert outcome(parse_gpx, data) == outcome(reference_parse_gpx, data)

    # The stream reads every document the scan declines, so the markup
    # variants keep their own run at full strength.
    @settings(max_examples=300)
    @given(data=_truncated(_markup_documents()))
    def test_markup_variants_equal_tree_reference(self, data):
        assert outcome(parse_gpx, data) == outcome(reference_parse_gpx, data)

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("<time>2024-01-01<!--c-->T00:00:00Z</time>", 1_704_067_200_000),
            ("<time>2024-01-01T00:00:00Z<x/>junk</time>", 1_704_067_200_000),
            ("<extensions><time>2024-01-01T00:00:00Z</time></extensions>", None),
            ("<time>2024-01-01T00:00:00Z</time><time/><time>2024-01-01T00:00:05Z</time>",
             1_704_067_205_000),
        ],
        ids=["comment", "tail-after-sub-element", "wrapped-time", "last-time-wins"],
    )
    def test_time_text_is_element_text(self, body, expected):
        data = f'<gpx><trkpt lat="1" lon="2">{body}</trkpt></gpx>'.encode()
        if expected is None:
            with pytest.raises(MissingTimestamp, match="trkpt 0 has no time element"):
                parse_gpx(data)
        else:
            assert parse_gpx(data).points[0].t_ms == expected

    def test_nested_points_number_by_start_tag(self):
        data = b"""<gpx><trkpt lat="1" lon="2"><time>2024-01-01T00:00:00Z</time>
          <trkpt lat="3" lon="4"><time>2024-01-01T00:00:05Z</time></trkpt></trkpt></gpx>"""
        assert [p.lat_deg for p in parse_gpx(data).points] == [1.0, 3.0]

    def test_malformed_document_beats_point_errors(self):
        data = b'<gpx><trkpt lon="2"/><trkpt lat="1" lon="2"><time>bad</time></trkpt>'
        with pytest.raises(ParseError, match="malformed GPX XML: no element found"):
            parse_gpx(data)

    def test_undefined_entity_is_malformed(self):
        data = (
            b'<!DOCTYPE gpx SYSTEM "x.dtd"><gpx><trkpt lat="1" lon="2">'
            b"<time>&foo;</time></trkpt></gpx>"
        )
        with pytest.raises(ParseError, match="undefined entity &foo;"):
            parse_gpx(data)

    @pytest.mark.parametrize("streamed", [False, True], ids=["regex-scan", "stream"])
    def test_peak_memory_is_bounded_by_the_fixes_kept(self, streamed):
        # A 2,667-fix track: the parse may briefly hold at most three times
        # what the returned TrackLog keeps, whatever the document's size.
        # An <extensions/> in each trkpt sends the document to the stream.
        corpus = generate_instructions(
            RoutePlan(legs=parse_legs("2000R,2000L"), sample_hz=10.0), "distance-heavy"
        )
        data = write_gpx(corpus.track, "memory").encode()
        if streamed:
            data = data.replace(b"</trkpt>", b"<extensions/></trkpt>")
        assert (ingest._scan_plain_gpx(data) is None) == streamed
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            track = parse_gpx(data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(track) == 2667
        assert peak - base <= 3 * (kept - base)


def _synth_gpx(sample_hz):
    corpus = generate_instructions(
        RoutePlan(legs=parse_legs("2000R,2000L"), sample_hz=sample_hz), "distance-heavy"
    )
    return write_gpx(corpus.track, "synth").encode()


def _traced_peak(parse, data):
    """The tracemalloc peak of ``parse(data)`` above what was held before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        parse(data)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class _StreamUsed(Exception):
    pass


class _RaisingTarget:
    def __init__(self):
        raise _StreamUsed


# Two plain trkpts, the second with an ele, in the layout synth writes.
_TABLE_GPX = _plain_gpx([
    _PLAIN_POINT,
    '<trkpt lat="1.6" lon="2"><ele>12.5</ele><time>2024-01-01T00:00:05Z</time></trkpt>',
])


class TestPlainScan:
    """A plain document is read by the regex scan; every other shape, and
    every error, is left to the streaming parser."""

    @pytest.mark.parametrize(
        "data",
        [_synth_gpx(1.0), _synth_gpx(10.0), GPX_11],
        ids=["synth-1hz", "synth-10hz", "gpx-11-with-elevation"],
    )
    def test_plain_document_takes_the_scan(self, data, monkeypatch):
        expected = reference_parse_gpx(data)
        monkeypatch.setattr(ingest, "_TrackTarget", _RaisingTarget)
        assert parse_gpx(data) == expected

    def test_declined_document_takes_the_stream(self, monkeypatch):
        data = _NEAR_MISSES["comment"](_TABLE_GPX).encode()
        monkeypatch.setattr(ingest, "_TrackTarget", _RaisingTarget)
        with pytest.raises(_StreamUsed):
            parse_gpx(data)

    @pytest.mark.parametrize("odd", [0, 1, 2], ids=["first", "middle", "last"])
    def test_trkpt_not_plain_declines_before_any_point(self, odd, monkeypatch):
        # Wherever the trkpt that is not plain stands, no point is built
        # and expat never reads the document.
        points = [
            f'<trkpt lat="1.5" lon="2"><time>2024-01-01T00:00:0{i}Z</time></trkpt>'
            for i in range(3)
        ]
        points[odd] = points[odd].replace("</time>", "</time><extensions/>")
        data = _plain_gpx(points).encode()
        monkeypatch.setattr(ingest, "GeoPoint", _RaisingTarget)
        monkeypatch.setattr(ingest, "_is_well_formed", _RaisingTarget)
        assert ingest._scan_plain_gpx(data) is None

    def test_utf16_text_is_not_markup(self):
        # expat reads a document that opens with "<" and a NUL byte as
        # UTF-16, where the ASCII bytes of a plain trkpt are only text.
        hidden = _PLAIN_POINT + " " * (len(_PLAIN_POINT) % 2)
        data = "<g>".encode("utf-16-le") + hidden.encode() + "</g>".encode("utf-16-le")
        assert outcome(parse_gpx, data) == outcome(reference_parse_gpx, data) == (
            EmptyTrack, "GPX contains no trkpt elements"
        )

    @pytest.mark.parametrize(
        "near_miss, taken",
        [
            ("single-quotes", False),
            ("swapped-attributes", False),
            ("extra-attribute", False),
            ("amp-in-time", False),
            ("char-ref-in-time", False),
            ("crlf-and-bom", True),
            ("latin-1-declaration", False),
            ("lowercase-utf-8", True),
            ("comment", False),
            ("cdata", False),
            ("pi", False),
            ("trkpt-in-name", False),
            ("g-prefix", False),
            ("empty-ele", False),
            ("blank-ele", False),
            ("backwards", False),
            ("truncated", False),
            ("underscore-in-number", False),
            ("unbound-prefix", False),
            ("extensions", False),
            ("extensions-on-last", False),
        ],
        ids=lambda value: value if isinstance(value, str) else ("scan" if value else "stream"),
    )
    def test_near_miss_equals_reference(self, near_miss, taken):
        data = _NEAR_MISSES[near_miss](_TABLE_GPX).encode()
        assert outcome(parse_gpx, data) == outcome(reference_parse_gpx, data)
        assert (ingest._scan_plain_gpx(data) is not None) == taken

    def test_scan_peak_is_no_higher_than_the_stream(self, monkeypatch):
        data = _synth_gpx(10.0)
        scan_peak = _traced_peak(parse_gpx, data)
        monkeypatch.setattr(ingest, "_scan_plain_gpx", lambda data: None)
        assert scan_peak <= _traced_peak(parse_gpx, data)


class TestParseSrt:
    SRT = b"""1
00:00:01,500 --> 00:00:03,000
Turn left onto Oak Street.

2
00:00:05.000 --> 00:00:06,250
Continue straight
for two miles.
"""

    def test_blocks_and_timing(self):
        t = parse_transcript(self.SRT, "srt")
        assert len(t.segments) == 2
        first, second = t.segments
        assert first.start_s == pytest.approx(1.5)
        assert first.end_s == pytest.approx(3.0)
        assert first.text == "Turn left onto Oak Street."
        # Multi-line payloads join with a space, dot-millis accepted.
        assert second.start_s == pytest.approx(5.0)
        assert second.text == "Continue straight for two miles."

    def test_index_line_optional(self):
        data = b"00:00:00,000 --> 00:00:01,000\nHello there.\n"
        t = parse_transcript(data, "srt")
        assert t.segments[0].text == "Hello there."

    def test_missing_timing_rejected(self):
        with pytest.raises(ParseError):
            parse_transcript(b"1\nJust some words\n", "srt")

    @pytest.mark.parametrize(
        "timing",
        ["00:99:99,000 --> 01:99:99,5", "00:00:59,000 --> 00:00:60,000",
         "00:60:00,000 --> 01:00:00,000"],
    )
    def test_minutes_and_seconds_above_59_are_a_bad_timing_line(self, timing):
        data = f"1\n{timing}\nTurn left.\n".encode()
        with pytest.raises(ParseError, match=r"^srt block 1: bad timing line "):
            parse_transcript(data, "srt")

    def test_largest_fields_read(self):
        data = b"1\n99:59:59,999 --> 99:59:59,999\nTurn left.\n"
        [segment] = parse_transcript(data, "srt").segments
        assert segment.start_s == segment.end_s == 359_999.999

    def test_end_before_start_rejected(self):
        with pytest.raises(ParseError, match=r"^srt block 1: bad timing \[5\.0, 1\.0\]$"):
            parse_transcript(
                b"1\n00:00:05,000 --> 00:00:01,000\nBackwards.\n", "srt"
            )



# --- the SRT reader before each cue was read in one pass, as reference -------

# Minutes and seconds run from 00 to 59, as in the reader.
_REF_SRT_TIME = re.compile(
    r"(\d{1,2}):([0-5]\d):([0-5]\d)[,.](\d{1,3})\s*-->\s*(\d{1,2}):([0-5]\d):([0-5]\d)[,.](\d{1,3})",
    re.ASCII,
)


def _ref_srt_seconds(h, m, s, ms):
    return int(h) * 3600 + int(m) * 60 + int(s) + int(ms.ljust(3, "0")) / 1000.0


def _ref_srt_rows(text):
    blocks = re.split(r"\n\s*\n", text.strip())
    for block_no, block in enumerate(blocks, start=1):
        lines = [line.strip() for line in block.split("\n") if line.strip()]
        if not lines:
            continue
        if lines[0].isascii() and lines[0].isdigit():
            lines = lines[1:]
        if not lines:
            raise ParseError(f"srt block {block_no}: no timing line")
        match = _REF_SRT_TIME.fullmatch(lines[0])
        if match is None:
            raise ParseError(f"srt block {block_no}: bad timing line {lines[0]!r}")
        yield (
            f"srt block {block_no}",
            _ref_srt_seconds(*match.groups()[:4]),
            _ref_srt_seconds(*match.groups()[4:]),
            " ".join(lines[1:]),
        )


def ref_parse_srt(data):
    """parse_transcript(data, "srt") as it read a transcript before: a
    location string per row, every text stripped again, and has_word called
    once per segment."""
    segments = []
    for where, start, end, text in _ref_srt_rows(read_text(data)):
        if not 0 <= start <= end <= sys.float_info.max:
            raise ParseError(f"{where}: bad timing [{start}, {end}]")
        segments.append(TranscriptSegment(float(start), float(end), text.strip()))
    if not segments:
        raise EmptyTranscript("no transcript segments")
    merged = []
    last = -1
    for seg in sorted(segments, key=lambda s: (s.start_s, s.end_s)):
        if not has_word(seg.text):
            merged.append(seg)
        elif last >= 0 and seg.start_s < merged[last].end_s:
            prev = merged[last]
            merged[last] = TranscriptSegment(
                prev.start_s, max(prev.end_s, seg.end_s), prev.text + " " + seg.text
            )
        else:
            last = len(merged)
            merged.append(seg)
    return Transcript(tuple(merged), None)


def _outcome(parse, data):
    try:
        return parse(data)
    except DataError as exc:
        return type(exc), str(exc)


# Whitespace that str.strip and the regex \s both take, none of it a line
# break to split("\n"): a blank line may hold any of it.
_SPACES = st.text(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000"]),
                  max_size=3)


@st.composite
def _srt_timing(draw):
    """A timing line, its end mostly no earlier than its start: 1-2 hour
    digits, 1-3 millisecond digits after "," or ".", spaced arrows or not."""

    def time(seconds):
        hours = draw(st.sampled_from(["0", "00"]))
        millis = draw(st.sampled_from(["0", "5", "25", "250", "007", "999"]))
        return f"{hours}:00:{seconds:02d}{draw(st.sampled_from(',.'))}{millis}"

    start = draw(st.integers(0, 8))
    end = max(0, start + draw(st.sampled_from([1] * 8 + [2, 3, 0, -1])))
    arrow = draw(st.sampled_from([" --> ", "-->", " \t--> "]))
    return time(start) + arrow + time(end)


_SRT_BAD_TIMING = st.sampled_from([
    "00:00:01,000 -> 00:00:02,000", "0:0:01,000 --> 0:00:02,000", "00:00:01,0000 --> 00:00:02,000",
    "00:00:01 --> 00:00:02", "100:00:01,000 --> 00:00:02,000", "00:00:01,000-->",
    "00:00:01,000 --> 00:00:02,000 X1", "٠٠:00:01,000 --> 00:00:02,000",
    "00:99:99,000 --> 01:99:99,5", "00:00:60,000 --> 00:01:00,000",
])
_SRT_TEXT = st.sampled_from(["Turn left.", "...", "  Keep right  ", "Go\x0b", "¿?", "In 0.3 miles", "\x85"])


@st.composite
def _srt_block(draw):
    lines = []
    index = draw(st.sampled_from([None, "7", "12"] * 3 + ["١", "3a"]))
    if index is not None:
        lines.append(index)
    kind = draw(st.sampled_from(["good"] * 14 + ["bad", "none"]))
    if kind == "good":
        lines.append(draw(_srt_timing()))
    elif kind == "bad":
        lines.append(draw(_SRT_BAD_TIMING))
    lines += draw(st.lists(_SRT_TEXT, max_size=2))
    return [draw(_SPACES) + line + draw(_SPACES) for line in lines]


@st.composite
def _srt_documents(draw):
    blocks = draw(st.lists(_srt_block(), min_size=1, max_size=6))
    parts = []
    for block in blocks:
        parts.append("\n".join(block))
        # Usually a blank line between blocks, which may hold whitespace;
        # sometimes none, so two blocks run together.
        gap = draw(st.lists(_SPACES, min_size=0, max_size=2))
        parts.append("\n" + "".join(line + "\n" for line in gap))
    text = draw(_SPACES) + "".join(parts)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return text.replace("\n", newline).encode()


class TestSrtAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(data=_srt_documents())
    def test_same_segments_and_errors(self, data):
        assert _outcome(lambda d: parse_transcript(d, "srt"), data) == _outcome(ref_parse_srt, data)

    @pytest.mark.parametrize("blank", [" ", "\x0b", "\x85", "\xa0", "\u2028"])
    def test_blank_line_of_whitespace_separates_cues(self, blank):
        data = (f"1\n00:00:01,000 --> 00:00:02,000\nTurn left.\n{blank}\n"
                f"{blank}00:00:03.5 --> 00:00:04.25\nStop.\n").encode()
        got = parse_transcript(data, "srt")
        assert got == ref_parse_srt(data)
        assert [(s.start_s, s.end_s, s.text) for s in got.segments] == [
            (1.0, 2.0, "Turn left."), (3.5, 4.25, "Stop."),
        ]

    def test_index_only_block_names_its_number(self):
        data = b"1\n00:00:01,000 --> 00:00:02,000\nGo.\n\n2\n"
        with pytest.raises(ParseError, match=r"^srt block 2: no timing line$"):
            parse_transcript(data, "srt")
        assert _outcome(ref_parse_srt, data) == (ParseError, "srt block 2: no timing line")


class TestParseSegmentJson:
    def test_basic(self):
        data = json.dumps(
            {
                "segments": [
                    {"start": 0.5, "end": 2.0, "text": "Turn right."},
                    {"start": 3, "end": 4, "text": "Stop."},
                ]
            }
        ).encode()
        t = parse_transcript(data, "segment-json")
        assert len(t.segments) == 2
        assert t.audio_start_ms is None

    def test_embedded_anchor(self):
        data = json.dumps(
            {
                "audio_start_utc": "2024-06-01T12:00:00Z",
                "segments": [{"start": 1.0, "end": 2.0, "text": "Go."}],
            }
        ).encode()
        t = parse_transcript(data, "segment-json")
        assert t.audio_start_ms == 1_717_243_200_000

    def test_bad_anchor_type_rejected(self):
        data = json.dumps(
            {"audio_start_utc": 12345, "segments": [{"start": 0, "end": 1, "text": "x"}]}
        ).encode()
        with pytest.raises(ParseError):
            parse_transcript(data, "segment-json")

    def test_error_names_offending_segment(self):
        data = json.dumps(
            {
                "segments": [
                    {"start": 0, "end": 1, "text": "ok"},
                    {"start": 2, "end": 1, "text": "bad"},
                ]
            }
        ).encode()
        with pytest.raises(ParseError, match="segment 1"):
            parse_transcript(data, "segment-json")

    def test_negative_start_rejected(self):
        data = json.dumps(
            {"segments": [{"start": -1, "end": 1, "text": "x"}]}
        ).encode()
        with pytest.raises(ParseError):
            parse_transcript(data, "segment-json")

    @pytest.mark.parametrize(
        "number", ["NaN", "Infinity", "-Infinity", "1e309", "1" + "0" * 400]
    )
    def test_non_finite_time_names_segment(self, number):
        data = (
            '{"segments": [{"start": 0, "end": 1, "text": "ok"}, '
            f'{{"start": {number}, "end": {number}, "text": "bad"}}]}}'
        ).encode()
        with pytest.raises(ParseError, match="segment 1: bad timing"):
            parse_transcript(data, "segment-json")

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_transcript(b"[1, 2, 3]", "segment-json")

    def test_empty_segments_rejected(self):
        with pytest.raises(EmptyTranscript):
            parse_transcript(b'{"segments": []}', "segment-json")


class TestParsePlainLines:
    def test_tab_separated(self):
        data = b"0.0\t2.0\tTurn left.\n# a comment\n\n3.5\t5.0\tThen stop.\n"
        t = parse_transcript(data, "plain-lines")
        assert len(t.segments) == 2
        assert t.segments[1].start_s == pytest.approx(3.5)
        assert t.segments[1].text == "Then stop."

    def test_bad_number_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_transcript(b"0\t1\tok\nzero\tone\tbad\n", "plain-lines")

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_time_names_line(self, number):
        data = f"0\t1\tok\n{number}\t{number}\tbad\n".encode()
        with pytest.raises(ParseError, match="line 2: bad timing"):
            parse_transcript(data, "plain-lines")

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError):
            parse_transcript(b"0.0\tno text column\n", "plain-lines")

    @pytest.mark.parametrize(
        "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_line_end_ends_a_line(self, separator):
        # str.splitlines() also breaks at these; a line ends at LF, CRLF or CR.
        data = f"0.0\t1.0\tTurn left{separator}onto Oak Street.\n2.0\t3.0\tStop.\n"
        t = parse_transcript(data.encode(), "plain-lines")
        assert [s.text for s in t.segments] == [
            f"Turn left{separator}onto Oak Street.", "Stop."
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_transcript(b"", "csv")


class TestMergeOverlaps:
    def test_overlapping_segments_merge(self):
        data = json.dumps(
            {
                "segments": [
                    {"start": 0.0, "end": 2.0, "text": "Turn left"},
                    {"start": 1.5, "end": 3.0, "text": "onto Oak Street."},
                    {"start": 5.0, "end": 6.0, "text": "Then stop."},
                ]
            }
        ).encode()
        t = parse_transcript(data, "segment-json")
        assert len(t.segments) == 2
        merged = t.segments[0]
        assert merged.start_s == 0.0
        assert merged.end_s == 3.0
        assert merged.text == "Turn left onto Oak Street."

    def test_touching_segments_stay_separate(self):
        data = json.dumps(
            {
                "segments": [
                    {"start": 0.0, "end": 2.0, "text": "One."},
                    {"start": 2.0, "end": 4.0, "text": "Two."},
                ]
            }
        ).encode()
        t = parse_transcript(data, "segment-json")
        assert len(t.segments) == 2

    def test_out_of_order_input_is_sorted(self):
        data = json.dumps(
            {
                "segments": [
                    {"start": 5.0, "end": 6.0, "text": "Later."},
                    {"start": 0.0, "end": 1.0, "text": "Earlier."},
                ]
            }
        ).encode()
        t = parse_transcript(data, "segment-json")
        assert [s.text for s in t.segments] == ["Earlier.", "Later."]

    def test_each_chain_becomes_one_segment(self):
        # Two chains of overlapping segments, a wordless one inside the
        # first: each chain is one segment, its texts joined in start order.
        lines = [f"{i}\t{i + 1.5}\tw{i}" for i in range(2000)]
        lines.append("500.25\t500.5\t...")
        lines += [f"{i}\t{i + 1.5}\tv{i}" for i in range(3000, 3500)]
        t = parse_transcript("\n".join(lines).encode(), "plain-lines")
        assert [(s.start_s, s.end_s, s.text) for s in t.segments] == [
            (0.0, 2000.5, " ".join(f"w{i}" for i in range(2000))),
            (500.25, 500.5, "..."),
            (3000.0, 3500.5, " ".join(f"v{i}" for i in range(3000, 3500))),
        ]


class TestParseVideoMeta:
    GOOD = json.dumps(
        {"start_time": "2024-06-01T12:00:00Z", "fps": 29.97, "frame_count": 54000}
    ).encode()

    def test_good_sidecar(self):
        v = parse_video_meta(self.GOOD)
        assert v.start_ms == 1_717_243_200_000
        assert v.fps == pytest.approx(29.97)
        assert v.frame_count == 54000

    def test_missing_field_named_in_error(self):
        data = json.dumps({"start_time": "2024-06-01T12:00:00Z", "fps": 30}).encode()
        with pytest.raises(ParseError, match="^missing field 'frame_count'$"):
            parse_video_meta(data)

    @pytest.mark.parametrize(
        "fps",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_fps_rejected(self, fps):
        data = (
            '{"start_time": "2024-06-01T12:00:00Z", "fps": %s, "frame_count": 10}' % fps
        ).encode()
        with pytest.raises(InvalidFps, match="positive and finite"):
            parse_video_meta(data)

    def test_zero_fps_rejected(self):
        data = json.dumps(
            {"start_time": "2024-06-01T12:00:00Z", "fps": 0, "frame_count": 10}
        ).encode()
        with pytest.raises(InvalidFps):
            parse_video_meta(data)

    def test_negative_frame_count_rejected(self):
        data = json.dumps(
            {"start_time": "2024-06-01T12:00:00Z", "fps": 30, "frame_count": -1}
        ).encode()
        with pytest.raises(ParseError):
            parse_video_meta(data)

    def test_frame_count_of_401_digits_rejected(self):
        data = b'{"start_time": "2024-06-01T12:00:00Z", "fps": 30, "frame_count": 1%s}' % (
            b"0" * 400
        )
        with pytest.raises(ParseError, match=r"^frame_count must be at most 2\*\*53$"):
            parse_video_meta(data)

    def test_shifted(self):
        v = parse_video_meta(self.GOOD)
        assert v.shifted(250).start_ms == v.start_ms + 250
        assert v.shifted(0) is v


class TestVideoIndex:
    """VideoIndex holds its own rule, so a bad value fails where it is made."""

    @pytest.mark.parametrize(
        "fps", [math.nan, math.inf, 0, -1], ids=["nan", "inf", "zero", "negative"]
    )
    def test_bad_fps_is_refused(self, fps):
        with pytest.raises(InvalidFps, match=f"^fps must be positive and finite, got {fps}$"):
            VideoIndex(start_ms=0, fps=fps, frame_count=10)

    def test_fps_is_stored_as_a_float(self):
        video = VideoIndex(start_ms=0, fps=30, frame_count=10)
        assert type(video.fps) is float and video.fps == 30.0

    def test_negative_frame_count_is_refused(self):
        with pytest.raises(ParseError, match="^frame_count must be non-negative, got -1$"):
            VideoIndex(start_ms=0, fps=30.0, frame_count=-1)

    @pytest.mark.parametrize(
        "fps, frame_count",
        [(1e308, 10**400), (1e306, 10**307), (30.0, 2**53 + 1)],
        ids=["1e400", "1e307", "2**53+1"],
    )
    def test_frame_count_above_2_53_is_refused(self, fps, frame_count):
        # Past 2**53, a frame position too large for a float could still
        # name one of the video's frames.
        with pytest.raises(ParseError, match=r"^frame_count must be at most 2\*\*53$"):
            VideoIndex(start_ms=0, fps=fps, frame_count=frame_count)

    def test_frame_count_of_2_53_is_accepted(self):
        assert VideoIndex(start_ms=0, fps=30.0, frame_count=2**53).frame_count == 2**53

    @pytest.mark.parametrize(
        "start_ms, message",
        [
            (-1, "video start lands before the epoch: -1 ms"),
            (MAX_INSTANT_MS + 1, "video start lands after 9999-12-31T23:59:59.999Z: "
             f"{MAX_INSTANT_MS + 1} ms"),
        ],
        ids=["before-epoch", "past-9999"],
    )
    def test_start_out_of_range_is_refused(self, start_ms, message):
        with pytest.raises(InvalidAnchor) as caught:
            VideoIndex(start_ms=start_ms, fps=30.0, frame_count=10)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "start_ms, fps, frame_count, message",
        [
            (0, 30.0, 2.5, "frame_count must be an integer, got 2.5"),
            (0.5, True, 10, "start_ms must be an integer, got 0.5"),
            (0, True, 10, "fps must be a number, got True"),
            (True, 30.0, 10, "start_ms must be an integer, got True"),
        ],
        ids=["float-frame-count", "float-start", "bool-fps", "bool-start"],
    )
    def test_member_of_wrong_type_is_refused(self, start_ms, fps, frame_count, message):
        with pytest.raises(ValueError) as caught:
            VideoIndex(start_ms, fps, frame_count)
        assert str(caught.value) == message

    def test_range_ends_are_kept(self):
        for start_ms in (0, MAX_INSTANT_MS):
            assert VideoIndex(start_ms, 30.0, 10).start_ms == start_ms

    @pytest.mark.parametrize(
        "offset_ms", [-1_717_243_200_001, MAX_INSTANT_MS], ids=["before-epoch", "past-9999"]
    )
    def test_shift_out_of_range_is_refused(self, offset_ms):
        video = VideoIndex(start_ms=1_717_243_200_000, fps=30.0, frame_count=10)
        with pytest.raises(InvalidAnchor, match="^video start lands "):
            video.shifted(offset_ms)


@dataclasses.dataclass(frozen=True)
class _ReferenceSegment:
    """TranscriptSegment as the plain frozen dataclass it once was."""

    start_s: float
    end_s: float
    text: str


_SEGMENT_ARGS = st.tuples(st.floats(), st.floats(), st.text(max_size=8))


class TestTranscriptSegment:
    def test_frozen_value_type(self):
        segment = TranscriptSegment(1.0, 2.0, "Go.")
        for attempt in (
            lambda: setattr(segment, "text", "Stop."),
            lambda: delattr(segment, "start_s"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                attempt()
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(segment)] == [
            (f.name, f.type, f.default) for f in dataclasses.fields(_ReferenceSegment)
        ]
        assert TranscriptSegment(start_s=1.0, end_s=2.0, text="Go.") == segment
        assert dataclasses.replace(segment, text="Stop.") == TranscriptSegment(1.0, 2.0, "Stop.")
        # A segment is no tuple, though it holds the same values.
        assert segment != (1.0, 2.0, "Go.")

    @given(st.lists(_SEGMENT_ARGS, min_size=2, max_size=2))
    def test_matches_frozen_dataclass_reference(self, pair):
        # The slotted class with its own constructor behaves as the plain
        # frozen dataclass it replaced.
        built = [(TranscriptSegment(*args), _ReferenceSegment(*args)) for args in pair]
        for new, ref in built:
            assert repr(new) == repr(ref).replace("_ReferenceSegment", "TranscriptSegment")
            assert hash(new) == hash(ref)
            assert (new.start_s, new.end_s, new.text) == (ref.start_s, ref.end_s, ref.text)
        (new_a, ref_a), (new_b, ref_b) = built
        assert (new_a == new_b) == (ref_a == ref_b)


class TestTranscriptShifted:
    SEGMENTS = (TranscriptSegment(5.0, 6.0, "Turn left."),)

    def test_moves_the_anchor(self):
        moved = Transcript(self.SEGMENTS, 1_000_000).shifted(2_000)
        assert moved == Transcript(self.SEGMENTS, 1_002_000)
        assert absolutize(moved) == [(1_007_000, "Turn left.")]

    def test_zero_shift_is_the_same_object(self):
        t = Transcript(self.SEGMENTS, 1_000_000)
        assert t.shifted(0) is t

    def test_no_anchor_is_the_same_object(self):
        # A transcript with no anchor stays unplaceable; absolutize refuses it.
        t = Transcript(self.SEGMENTS)
        assert t.shifted(2_000) is t


class TestAbsolutize:
    def _transcript(self, anchor=1_000_000):
        return Transcript(
            (
                TranscriptSegment(0.5, 2.0, "Turn left."),
                TranscriptSegment(3.25, 4.0, "Then stop."),
            ),
            anchor,
        )

    def test_anchoring_and_rounding(self):
        rows = absolutize(self._transcript())
        assert rows == [
            (1_000_500, "Turn left."),
            (1_003_250, "Then stop."),
        ]

    def test_offset_applies(self):
        rows = absolutize(self._transcript().shifted(-200))
        assert rows[0][0] == 1_000_300

    def test_no_anchor_rejected(self):
        with pytest.raises(
            InvalidAnchor,
            match="^transcript has relative times but no audio start anchor was given$",
        ):
            absolutize(self._transcript(None))

    def test_pre_epoch_rejected(self):
        with pytest.raises(
            InvalidAnchor, match="^segment at 0.5 s lands before the epoch: -999500 ms$"
        ):
            absolutize(self._transcript(0).shifted(-1_000_000))

    def test_last_instant_accepted(self):
        rows = absolutize(self._transcript(MAX_INSTANT_MS - 3_250))
        assert rows[-1][0] == MAX_INSTANT_MS

    @pytest.mark.parametrize(
        "start_s, offset_ms",
        [(1e15, 0), (1e306, 0), (float("inf"), 0), (float("nan"), 0), (0.5, 10**16)],
        ids=["past-9999", "product-overflows", "inf", "nan", "offset"],
    )
    def test_instant_past_9999_rejected(self, start_s, offset_ms):
        transcript = Transcript((TranscriptSegment(start_s, start_s, "Go."),), 1_000_000)
        with pytest.raises(InvalidAnchor) as caught:
            absolutize(transcript.shifted(offset_ms))
        assert str(caught.value).startswith(
            f"segment at {start_s} s lands after 9999-12-31T23:59:59.999Z"
        )
