"""Byte pins for what synth writes, and for the instant format it writes.

``write_corpus``'s four files are hashed for six plans: the three golden
drives (one per style), a 10 Hz noisy drive with a U-turn, a leg under the
150 m cue lead and a straight run-out, a noise-free 0.5 Hz drive from a
southern origin, and a 200 m leg, whose cue leads its turn by the full
150 m and says so. The GPX coordinates are written as ``repr``, so a change
in the last bit of one sample changes a digest here, where ``triads.jsonl``
(rounded to 6 decimals) would not show it.

The module needs neither pytest nor hypothesis, so it also runs as a plain
script on a Python that has neither: ``PYTHONPATH=src python
tests/test_synth_bytes.py``.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from pathlib import Path

from drivetriad import GeoPoint, RoutePlan, generate_instructions, parse_legs, write_corpus
from drivetriad.core import MAX_INSTANT_MS, format_iso8601_ms

from helpers import reference_iso8601_ms

GOLDEN_LEGS = "600R,500L,700U,400R,300L,500"

PLANS = {
    "golden-distance": (
        RoutePlan(parse_legs(GOLDEN_LEGS), seed=11, noise_sigma_m=3.0),
        "distance-heavy",
    ),
    "golden-static": (
        RoutePlan(parse_legs(GOLDEN_LEGS), seed=11, noise_sigma_m=3.0),
        "static-object-heavy",
    ),
    "golden-cardinal": (
        RoutePlan(parse_legs(GOLDEN_LEGS), seed=11, noise_sigma_m=3.0),
        "cardinal-heavy",
    ),
    "10hz-uturn-short-leg": (
        RoutePlan(
            parse_legs("400R,120L,500U,300R,600"),
            sample_hz=10.0,
            noise_sigma_m=3.0,
            seed=5,
        ),
        "cardinal-heavy",
    ),
    "0.5hz-noise-free": (
        RoutePlan(
            parse_legs("800R,300L,900"),
            origin=GeoPoint(-33.86, 151.21, 1_717_243_200_000),
            speed_mps=12.5,
            sample_hz=0.5,
            seed=2,
        ),
        "static-object-heavy",
    ),
    "200m-leg": (
        RoutePlan(parse_legs("500R,200L,600"), seed=3),
        "distance-heavy",
    ),
}

FILES = ("ground_truth.json", "track.gpx", "transcript.json", "video_meta.json")

DIGESTS = {
    "golden-distance/ground_truth.json": (
        "6501ff8723c68be929c7fd55013d35a5ddb7607d9240ffd11ee2dbbcc6525a9a"
    ),
    "golden-distance/track.gpx": (
        "5d89dd50f71cbaab3797948e16547391342089287a2d47baf78be512455eb639"
    ),
    "golden-distance/transcript.json": (
        "276a49851af74cca9162f81c6cccd705ef76313f3ea2cab3e23f544c0b822777"
    ),
    "golden-distance/video_meta.json": (
        "a6201066b3afc8462c4cf4797a01d4152e278b955b0aa2e58c0c16d723ed9406"
    ),
    "golden-static/ground_truth.json": (
        "4ac060aaf53739b2a6da868de470436a4fafdde50306ea477d7ae80579643528"
    ),
    "golden-static/track.gpx": (
        "5d89dd50f71cbaab3797948e16547391342089287a2d47baf78be512455eb639"
    ),
    "golden-static/transcript.json": (
        "fe4306e5ec8d0402709a5c00dfe95da1f1867e885fbc4b61d8181cdcbdbde49b"
    ),
    "golden-static/video_meta.json": (
        "a6201066b3afc8462c4cf4797a01d4152e278b955b0aa2e58c0c16d723ed9406"
    ),
    "golden-cardinal/ground_truth.json": (
        "daeb3ea6241f4fda99a81ab47905550dc72605a085cd0966ff13d416e5a81b97"
    ),
    "golden-cardinal/track.gpx": (
        "5d89dd50f71cbaab3797948e16547391342089287a2d47baf78be512455eb639"
    ),
    "golden-cardinal/transcript.json": (
        "536066c12d1a2ae975639699e05a08c8ac738581dc353d8590baf274f8e99883"
    ),
    "golden-cardinal/video_meta.json": (
        "a6201066b3afc8462c4cf4797a01d4152e278b955b0aa2e58c0c16d723ed9406"
    ),
    "10hz-uturn-short-leg/ground_truth.json": (
        "5a1fbf3495ef7e38cd97ac7e0833b5605688087329aead1495c62506ddc71309"
    ),
    "10hz-uturn-short-leg/track.gpx": (
        "30dcbc8a7da6ae9f4ba93650d9ce862b52de6c63c64eac5d4ffb653c7fe32a01"
    ),
    "10hz-uturn-short-leg/transcript.json": (
        "73a31ab299a70ce7cfccd0c31f8cd154d9803bd9349dcc2dbd2583e21bf60c04"
    ),
    "10hz-uturn-short-leg/video_meta.json": (
        "eb47f983beb50ff29236c8e6aa22eb29c912405152221efc1a0e93bab2e1b8fc"
    ),
    "0.5hz-noise-free/ground_truth.json": (
        "91e5f3fb6db6e9ac6d5f3144fda7d061a336ad1c8389dd0f6b2caa6588cfcf1b"
    ),
    "0.5hz-noise-free/track.gpx": (
        "ca61dd9dbb42fcd81d139640689d7a28d7a680ea9b6f25e1a7ce052877b42139"
    ),
    "0.5hz-noise-free/transcript.json": (
        "202058961eed9257eedd3ba966c2e33b82e2489277fbec657f0149b957a75d0a"
    ),
    "0.5hz-noise-free/video_meta.json": (
        "7ee6477510532a497bf101dacf24bed5b93312b0f34c6710ec0206e433eaa06d"
    ),
    "200m-leg/ground_truth.json": (
        "940842f899de76fe969b7e17335528203c43186aad8ad0fc82a2b3588c8714db"
    ),
    "200m-leg/track.gpx": (
        "9d81c79f247756d41a289062bb1b8fbddda4c329b7a7132363da83692bf361db"
    ),
    "200m-leg/transcript.json": (
        "7978a4e6ffc651b999eba3ef83a858ab2ee7d7a14c273e740b087df1cebad647"
    ),
    "200m-leg/video_meta.json": (
        "44a8355440fd15781753d880660035bc44dd0ba453c9084d1126424f11d8eb61"
    ),
}

# The first and last instants, the ends of the first second and day, leap
# days (2100 is no leap year) and the last instant the format can render.
EDGE_INSTANTS = (
    0,
    999,
    1000,
    86_399_999,
    86_400_000,
    951_782_400_000,  # 2000-02-29T00:00:00.000Z
    951_868_799_999,  # 2000-02-29T23:59:59.999Z
    4_107_456_000_000,  # 2100-02-28T00:00:00.000Z
    4_107_542_399_999,  # 2100-02-28T23:59:59.999Z
    4_107_542_400_000,  # 2100-03-01T00:00:00.000Z
    MAX_INSTANT_MS - 1,
    MAX_INSTANT_MS,
)


def _digests(name: str) -> dict[str, str]:
    plan, style = PLANS[name]
    with tempfile.TemporaryDirectory() as tmp:
        files = write_corpus(generate_instructions(plan, style), Path(tmp))
        return {
            f"{name}/{file}": hashlib.sha256(path.read_bytes()).hexdigest()
            for file, path in files.items()
        }


def test_every_plan_is_pinned():
    assert sorted(DIGESTS) == sorted(f"{name}/{file}" for name in PLANS for file in FILES)


def test_synth_files_unchanged():
    for name in PLANS:
        found = _digests(name)
        for key, digest in found.items():
            assert digest == DIGESTS[key], key


def test_format_matches_reference_at_edges():
    for t_ms in EDGE_INSTANTS:
        assert format_iso8601_ms(t_ms) == reference_iso8601_ms(t_ms), t_ms
    assert format_iso8601_ms(951_782_400_000) == "2000-02-29T00:00:00.000Z"
    assert format_iso8601_ms(4_107_542_400_000) == "2100-03-01T00:00:00.000Z"


def test_format_matches_reference_on_seeded_instants():
    rng = random.Random(0)
    for _ in range(20_000):
        t_ms = rng.randint(0, MAX_INSTANT_MS)
        assert format_iso8601_ms(t_ms) == reference_iso8601_ms(t_ms), t_ms


if __name__ == "__main__":
    import sys

    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test_name, test in tests:
        test()
        print(f"{test_name}: ok")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
