"""The three benchmark workloads: how each is generated and how its output
is checked.

Inputs come from ``drivetriad.synth`` and a seed, so the ground truth is
exact. All drives use 3 m Gaussian GPS noise and include the video sidecar.

* city_grid: turn-dense 1 Hz urban drive (about 23k fixes, 629 cues), the
  O(N*E) case where sync.build_events and segmenter.segment_actions
  dominate.
* highway_10hz: turn-sparse 10 Hz drive (about 61k fixes, 25 cues), where
  GPX parsing, net_bearing_change over long windows and serialization
  dominate and the timeline cost is nearly idle.
* classify_corpus: an SRT transcript of about 8k cues in all three synth
  styles, classified without a track; only the SRT parser and the
  classifier run.

Synth functions are called through the module (``synth.write_corpus``) so
that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import drivetriad.synth as synth

NOISE_SIGMA_M = 3.0

# Short legs (90, 100, 120 m) are under the 150 m cue lead, so their cues
# drop the distance phrase; the track itself is never read, so it is sampled
# sparsely to keep set-up about instruction text. Each drive ends with a
# straight run-out, as synth drives do, so the arrival cue comes last.
CLASSIFY_LEGS = "600R,100L,500U,120R,700L,90R"
CLASSIFY_REPEATS = 111
CLASSIFY_RUN_OUT = "1500"
CLASSIFY_DRIVES = 12
CLASSIFY_SAMPLE_HZ = 0.1
CLASSIFY_GAP_S = 10.0


@dataclass(frozen=True)
class Drive:
    legs: str
    repeats: int
    speed_mps: float
    sample_hz: float
    style: str


DRIVES = {
    "city_grid": Drive("600R,500L,700U,400R", 157, 15.0, 1.0, "distance-heavy"),
    "highway_10hz": Drive("8000R,6000L,9000R", 8, 30.0, 10.0, "cardinal-heavy"),
}


@dataclass
class Inputs:
    """What set-up wrote, plus the ground truth the outputs must match."""

    files: dict[str, Path]
    items: int  # GPS fixes for a drive, transcript segments for classify
    cues: list[tuple[str, tuple[str, ...]]]  # (text, sorted class names)
    maneuvers: list[str] = field(default_factory=list)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for name in sorted(self.files):
            sha.update(self.files[name].read_bytes())
        return sha.hexdigest()


def _cues(entries) -> list[tuple[str, tuple[str, ...]]]:
    return [(e.text, tuple(sorted(c.value for c in e.classes))) for e in entries]


def setup(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Generate the workload's inputs into out_dir."""
    if workload in DRIVES:
        return _setup_drive(DRIVES[workload], seed, out_dir)
    return _setup_classify(seed, out_dir)


def _setup_drive(drive: Drive, seed: int, out_dir: Path) -> Inputs:
    plan = synth.RoutePlan(
        legs=synth.parse_legs(",".join([drive.legs] * drive.repeats)),
        speed_mps=drive.speed_mps,
        sample_hz=drive.sample_hz,
        noise_sigma_m=NOISE_SIGMA_M,
        seed=seed,
    )
    corpus = synth.generate_instructions(plan, drive.style)
    files = synth.write_corpus(corpus, out_dir)
    return Inputs(
        files=files,
        items=len(corpus.track.points),
        cues=_cues(corpus.ground_truth.instructions),
        maneuvers=[m.value for m in corpus.ground_truth.expected_maneuvers],
    )


def _srt_time(seconds: float) -> str:
    ms = round(seconds * 1000)
    hours, ms = divmod(ms, 3_600_000)
    minutes, ms = divmod(ms, 60_000)
    secs, ms = divmod(ms, 1000)
    return f"{hours:02d}:{minutes:02d}:{secs:02d},{ms:03d}"


def _setup_classify(seed: int, out_dir: Path) -> Inputs:
    """Concatenate the transcripts of several drives, rotating the style,
    into one SRT file."""
    blocks: list[str] = []
    entries = []
    offset_s = 0.0
    for k in range(CLASSIFY_DRIVES):
        plan = synth.RoutePlan(
            legs=synth.parse_legs(
                ",".join([CLASSIFY_LEGS] * CLASSIFY_REPEATS + [CLASSIFY_RUN_OUT])
            ),
            sample_hz=CLASSIFY_SAMPLE_HZ,
            noise_sigma_m=NOISE_SIGMA_M,
            seed=seed * CLASSIFY_DRIVES + k,
        )
        corpus = synth.generate_instructions(plan, synth.STYLES[k % len(synth.STYLES)])
        for entry in corpus.ground_truth.instructions:
            blocks.append(
                f"{len(blocks) + 1}\n"
                f"{_srt_time(offset_s + entry.start_s)} --> "
                f"{_srt_time(offset_s + entry.end_s)}\n"
                f"{entry.text}\n"
            )
            entries.append(entry)
        offset_s += (corpus.track.end_ms - corpus.track.start_ms) / 1000.0
        offset_s += CLASSIFY_GAP_S
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "transcript.srt"
    path.write_text("\n".join(blocks), encoding="utf-8", newline="")
    return Inputs(files={"transcript.srt": path}, items=len(entries), cues=_cues(entries))


def commands(workload: str, inputs: Inputs, out_dir: Path) -> list[tuple[list[str], Path]]:
    """The CLI invocations of one operation, each with its stdout file.

    The first invocation is the workload's timed command.
    """
    if workload not in DRIVES:
        srt = str(inputs.files["transcript.srt"])
        return [
            (
                ["classify", "--transcript", srt, "--transcript-format", "srt"],
                out_dir / "classify.jsonl",
            )
        ]
    files = inputs.files
    return [
        (
            [
                "pipeline",
                "--gpx", str(files["track.gpx"]),
                "--transcript", str(files["transcript.json"]),
                "--video-meta", str(files["video_meta.json"]),
                "--out", str(out_dir),
            ],
            out_dir / "pipeline.out",
        ),
        (
            ["stats", f"track={out_dir / 'triads.jsonl'}", "--out", str(out_dir / "stats.txt")],
            out_dir / "stats.out",
        ),
    ]


def output_files(workload: str, out_dir: Path) -> dict[str, Path]:
    """The deterministic outputs of one operation; the first is the one
    whose digest is recorded for the default seed."""
    if workload not in DRIVES:
        return {"classify.jsonl": out_dir / "classify.jsonl"}
    return {
        name: out_dir / name
        for name in ("triads.jsonl", "report.txt", "mismatches.txt", "stats.txt")
    }


def check_content(workload: str, inputs: Inputs, outputs: dict[str, bytes]) -> tuple[list[str], int]:
    """Compare one operation's outputs with the ground truth.

    Returns the problems found and the number of triads whose maneuver
    matches the planted one (0 for classify).
    """
    if workload not in DRIVES:
        records = [json.loads(line) for line in outputs["classify.jsonl"].splitlines()]
        got = [(r["text"], tuple(sorted(r["classes"]))) for r in records]
        return _compare_cues(got, inputs.cues), 0
    problems = []
    got = []
    matching = 0
    lines = outputs["triads.jsonl"].splitlines()
    for line, expected in zip(lines, inputs.maneuvers):
        record = json.loads(line)
        got.append((record["text"], tuple(sorted(record["classes"]))))
        matching += record["action"]["maneuver"] == expected
    if len(lines) != len(inputs.maneuvers):
        problems.append(f"{len(lines)} triads, ground truth has {len(inputs.maneuvers)}")
    problems += _compare_cues(got, inputs.cues)
    total_line = f"Total events: {len(inputs.cues)}".encode()
    if total_line not in outputs["stats.txt"].splitlines():
        problems.append(f"stats report lacks {total_line.decode()!r}")
    return problems, matching


def _compare_cues(got, expected) -> list[str]:
    if len(got) != len(expected):
        return [f"{len(got)} records, ground truth has {len(expected)}"]
    for i, (pair, truth) in enumerate(zip(got, expected)):
        if pair != truth:
            return [f"record {i}: got {pair!r}, ground truth {truth!r}"]
    return []
