"""Byte-identity guard: sha-256 digests of every CLI artifact on fixed inputs.

Three small synth drives (one per style, 3 m noise, with a video sidecar)
go through ``classify`` under the default lexicon and one override,
``pipeline`` and ``stats``; each of ``pipeline``'s four files is hashed
as written, ``manifest.json`` included. A hand-written SRT adds texts the
synth styles never say: lanes, lights, destinations, "arrived at" a road
and cardinals inside road names. Any change to a digest below is a change
to the program's output bytes and must be made on purpose.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from drivetriad import STYLES, RoutePlan, generate_instructions, parse_legs, write_corpus
from drivetriad.cli import EXIT_OK, main

LEGS = "600R,500L,700U,400R,300L,500"

OVERRIDE = {
    "version": "golden-override",
    "Turn": ["turn", "left", "right", "bear * <cardinal>"],
    "LaneInformation": ["use the * lane", "<num> lanes", "keep in * lane"],
    "Destination": ["destination", "you have arrived"],
    "road_suffixes": ["parkway"],
    "distance_units": ["yards"],
}

EXTRA_SRT = """\
1
00:00:01,000 --> 00:00:02,000
Head north on North Lake Road, then use the right two lanes.

2
00:00:03,000 --> 00:00:04,000
Go past the next set of traffic lights toward Elm Parkway.

3
00:00:05,000 --> 00:00:06,000
In a quarter of a mile, your destination will be on the left.

4
00:00:07,000 --> 00:00:08,000
Arrived at Lake Road. Arrived at Mesa Coffee. Go West Elm Street to Northbound Avenue.

5
00:00:09,000 --> 00:00:10,000
Keep in the left lane, bear slightly west; 300 yards, then a U-turn at the roundabout.
"""

GOLDEN = {
    "cardinal-heavy/classify": (
        "8bd32cbdc83fa2ac5fdbf47c0ea98e193aa9473c9f6d20c68d99176d8c137bea"
    ),
    "cardinal-heavy/classify-override": (
        "b18a87aed67ef036390ce586b3c2d2a1ccdf651c3589aa4e94f9acbba81576ce"
    ),
    "cardinal-heavy/manifest.json": (
        "adbb9e23dc40eaec6eb3f9d787ea7d706953e4cd332e1c0e440c719e4b5fca2e"
    ),
    "cardinal-heavy/mismatches.txt": (
        "09e1961bf66d13fc51d00b3c8bf40d8c976409e9ec715d708d6fe0e926cfdec1"
    ),
    "cardinal-heavy/report.txt": (
        "105a20f37ad89f624e25f20a8c65cf201a135f6aa29c562db8c7bb697f1e23fb"
    ),
    "cardinal-heavy/triads.jsonl": (
        "db2aa1aa97fcfbb581c3d3ad5d67afbebdda9e040ab14ea5da14ed73f01b9670"
    ),
    "distance-heavy/classify": (
        "6a6e2c5b2e5b921e97bc18991458b640c972c90fc963480c2860f4b41160de21"
    ),
    "distance-heavy/classify-override": (
        "aa8315bdb3807cc40a7d5838249d49b456e3e535e468be7c28d6d9925a8bb621"
    ),
    "distance-heavy/manifest.json": (
        "a8c9e20252e8ca7f0188db9e562818f6637c0a083cb349258b2847a66a763c03"
    ),
    "distance-heavy/mismatches.txt": (
        "09e1961bf66d13fc51d00b3c8bf40d8c976409e9ec715d708d6fe0e926cfdec1"
    ),
    "distance-heavy/report.txt": (
        "2732e658361c5ddb6c2a5fd32329734407075edb26a42dae9bf0a6af1e5fb8e8"
    ),
    "distance-heavy/triads.jsonl": (
        "63ff3b527cb682ded9be262eb808d5a45e47e71a51d0ffac729c08534f744ce3"
    ),
    "extra/classify": (
        "326a30225268964ad5d6d354a320b63dbbca3ca389dc5a78dad3699d6918c641"
    ),
    "extra/classify-override": (
        "221507b806e96e77072e845e0a72bcf97e7f8b43b4bc35f90c834af3e43a4e9d"
    ),
    "static-object-heavy/classify": (
        "bf248dd1a25456b6b4828428eb46bbc987d3311ba5b34c52044362119ec46915"
    ),
    "static-object-heavy/classify-override": (
        "4a101bf839ad3b38be7f0c72b3934b9497cae4416c52980aab983c0d14a836d7"
    ),
    "static-object-heavy/manifest.json": (
        "dcf0fb572bc5d38258c2c7dde3feb00a2fc969c6199a55b0fc4b07999894fdc8"
    ),
    "static-object-heavy/mismatches.txt": (
        "09e1961bf66d13fc51d00b3c8bf40d8c976409e9ec715d708d6fe0e926cfdec1"
    ),
    "static-object-heavy/report.txt": (
        "634415952e971149093f7fb0686d00a1555466b1efe3dc40c29b0b5e4f18931d"
    ),
    "static-object-heavy/triads.jsonl": (
        "ae62460b70aa8a12cc724cd9860b866c5b3c43d3661d315474cb54508dc210df"
    ),
    "stats": (
        "e79fe6cc1eecef0f21217cae3d5565ee2bfff801c7c2f799d65c1855a7c5aa5e"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(args) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in args])
    assert code == EXIT_OK, err.getvalue()
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    lexicon = root / "lexicon.json"
    lexicon.write_text(json.dumps(OVERRIDE))
    extra = root / "extra.srt"
    extra.write_text(EXTRA_SRT)
    found = {}
    transcripts = [("extra", extra, "srt")]
    for style in STYLES:
        plan = RoutePlan(parse_legs(LEGS), seed=11, noise_sigma_m=3.0)
        files = write_corpus(generate_instructions(plan, style), root / style)
        # The voice says left where the drive turns right once, so the
        # mismatches file is not empty.
        voice = files["transcript.json"]
        voice.write_text(voice.read_text().replace("right", "left", 1))
        transcripts.append((style, files["transcript.json"], "segment-json"))
        out = root / f"{style}-out"
        _run(["pipeline", "--gpx", files["track.gpx"], "--transcript",
              files["transcript.json"], "--video-meta", files["video_meta.json"],
              "--out", out, "--source-label", style])
        for artifact in ("triads.jsonl", "manifest.json", "report.txt", "mismatches.txt"):
            found[f"{style}/{artifact}"] = _sha((out / artifact).read_bytes())
    for name, path, fmt in transcripts:
        base = ["classify", "--transcript", path, "--transcript-format", fmt]
        found[f"{name}/classify"] = _sha(_run(base))
        found[f"{name}/classify-override"] = _sha(_run(base + ["--lexicon", lexicon]))
    found["stats"] = _sha(
        _run(["stats"] + [f"{s}={root / f'{s}-out' / 'triads.jsonl'}" for s in STYLES])
    )
    return found


def test_every_artifact_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_digest_unchanged(digests, artifact):
    assert digests[artifact] == GOLDEN[artifact]
