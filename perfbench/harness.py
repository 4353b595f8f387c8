"""Operations, checks and the two kinds of run (timed and traced).

Imported by run.py once it has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import drivetriad.cli as cli
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_SECONDS = 3.0  # a traced run repeats set-up for this long
MIN_SETUP_REPS = 3
MIN_OPERATIONS = 3  # timed operations per run, however short --seconds is
CHILD_TIMEOUT_S = 120.0

# A fixed pure-Python program, independent of drivetriad, run as a child
# process between timed blocks. Other tenants of a shared host slow every
# process here by 30-60 % for minutes at a time, and memory-bound code more
# than code that stays in cache. So the program does the kinds of work the
# CLI does, in about the proportions of the workload's command: it parses a
# GPX-like document into 23k small frozen objects scattered among the parse
# tree's garbage and scans them window by window with haversine steps (like
# the timeline and segmenter), and it tokenizes, matches and serializes
# instruction texts (like the classifier and emitter). Its arguments are the
# number of windows and of texts. Each end-to-end time is scaled by
# CALIBRATION_REFERENCE_S / (the mean of the calibration times just before
# and just after it), which takes the common slowdown out and leaves the
# program's own cost; a change to drivetriad moves only the program's times.
CALIBRATION = """
import bisect, json, math, re, sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass

windows, texts = int(sys.argv[1]), int(sys.argv[2])


@dataclass(frozen=True)
class Fix:
    lat: float
    lon: float
    t: int
    ele: float


def dist(a, b):
    p, q = math.radians(a.lat), math.radians(b.lat)
    h = (math.sin((q - p) / 2) ** 2
         + math.cos(p) * math.cos(q) * math.sin(math.radians(b.lon - a.lon) / 2) ** 2)
    return 12742000.0 * math.asin(min(1.0, math.sqrt(h)))


total = 0.0
if windows:
    xml = "<gpx><trk><trkseg>" + "".join(
        f'<trkpt lat="{48.0 + 1e-4 * math.sin(i * 0.01):.7f}" lon="{11.0 + 1e-6 * i:.7f}">'
        f"<ele>500.0</ele><time>{i}</time></trkpt>"
        for i in range(23000)
    ) + "</trkseg></trk></gpx>"
    fixes = []
    for elem in ET.fromstring(xml).iter("trkpt"):
        fixes.append(Fix(float(elem.get("lat")), float(elem.get("lon")),
                         1000 * int(elem.find("time").text), float(elem.find("ele").text)))
    for w in range(windows):
        t0, t1 = w * 190000, w * 190000 + 37000
        times = [f.t for f in fixes]
        total += bisect.bisect_left(times, t0)
        inside = [f for f in fixes if t0 < f.t < t1]
        total += sum(dist(inside[j], inside[j + 1]) for j in range(len(inside) - 1))
pattern = re.compile(r"in (\\d+) feet turn (left|right) onto (\\w+) street")
words = {"turn": 1, "left": 2, "right": 3, "onto": 4, "street": 5, "feet": 6, "in": 7}
for i in range(texts):
    text = f"In {i % 997} feet turn {'left' if i % 2 else 'right'} onto Oak{i % 13} Street."
    normalized = text.lower().rstrip(".")
    tokens = [(k, word, words.get(word, 0)) for k, word in enumerate(normalized.split())]
    spans = [(k, k + 2) for k, word, kind in tokens if kind in (2, 3)]
    match = pattern.search(normalized)
    total += int(match.group(1)) + len(match.group(3)) + len(spans) + sum(t[2] for t in tokens)
    total += len(json.dumps({"id": i, "text": text, "classes": [w for _, w, _ in tokens[:3]]}))
print(round(total, 3))
"""
CALIBRATION_ARGS = {
    "city_grid": (70, 12000),
    "highway_10hz": (70, 12000),
    "classify_corpus": (0, 25000),
}
CALIBRATION_REFERENCE_S = 0.4  # about its wall time on an idle 2-vCPU Xeon container
RUN_LIMIT_S = 150.0  # start no operation after this, so a run ends within 180 s


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _describe(values: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with at least ten
    samples beyond it."""
    n = len(values)
    text = f"median of {n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.4g}..{q3:.4g}"
    if n >= 20:
        rank = n - 10
        text += f", p{100 * rank / n:.0f} {sorted(values)[rank - 1]:.4g}"
    else:
        text += ", no tail percentile (needs 20 samples)"
    return text


# --- running the program ----------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float  # user + system
    rss_mb: float  # peak resident set


def run_child(command: list[str], stdout_path: Path) -> ChildResult:
    """One process, killed after CHILD_TIMEOUT_S; stderr goes next to
    stdout_path with the suffix .err."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill(signum, frame) -> None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stdout_path.with_suffix(".err").read_text(errors="replace")[-2000:]
        print(f"{command[1:4]} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return ChildResult(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


def run_in_process(argv: list[str], stdout_path: Path) -> tuple[int, float]:
    """One CLI invocation through drivetriad.cli.main in this process."""
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start


class Checker:
    """Checks every operation's outputs; content is checked once per
    distinct digest, since identical bytes give the same verdict."""

    def __init__(self, workload: str, inputs, reference: str | None) -> None:
        self.workload, self.inputs, self.reference = workload, inputs, reference
        self.first: dict[str, str] | None = None
        self.verdicts: dict[tuple, tuple[list[str], int]] = {}
        self.matching = 0

    def check(self, out_dir: Path, codes: list[int]) -> list[str]:
        problems = [f"exit code {c}" for c in codes if c != 0]
        if problems:
            return problems
        data = {}
        for name, path in workloads.output_files(self.workload, out_dir).items():
            if not path.is_file():
                return problems + [f"{name} missing"]
            data[name] = path.read_bytes()
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}
        if self.first is None:
            self.first = digests
        for name, digest in digests.items():
            if digest != self.first[name]:
                problems.append(f"{name} differs from the run's first operation")
        key = tuple(sorted(digests.items()))
        if key not in self.verdicts:
            try:
                found, matching = workloads.check_content(self.workload, self.inputs, data)
            except (ValueError, KeyError, TypeError) as exc:
                found, matching = [f"unreadable output: {exc!r}"], 0
            primary = next(iter(digests.values()))
            if self.reference is not None and primary != self.reference:
                found.append(f"digest {primary} is not the reference {self.reference}")
            self.verdicts[key] = (found, matching)
        found, self.matching = self.verdicts[key]
        return problems + found


class Calibration:
    """Runs CALIBRATION between timed blocks, so each block is scaled by the
    calibration runs on either side of it."""

    def __init__(self, workload: str, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.command = [sys.executable, "-c", CALIBRATION,
                        *map(str, CALIBRATION_ARGS[workload])]
        self.stdout_path = work / "calibration.out"
        self.times: list[float] = []
        self.failed = 0
        self._run()

    def _run(self) -> None:
        result = run_child(self.command, self.stdout_path)
        self.failed += result.code != 0
        self.times.append(result.wall_s)

    def scale(self) -> float:
        """Run the program again; the factor for the block that just ended."""
        self._run()
        return CALIBRATION_REFERENCE_S / ((self.times[-2] + self.times[-1]) / 2)


# --- the run ----------------------------------------------------------------


def _setup(workload: str, seed: int, work: Path, tracer: Tracer):
    """Set up repeatedly, traced, for SETUP_SECONDS; returns the last inputs
    and any problem (set-ups must write identical bytes)."""
    digests, inputs, reps = set(), None, 0
    deadline = time.perf_counter() + SETUP_SECONDS
    while reps < MIN_SETUP_REPS or time.perf_counter() < deadline:
        target = work / "inputs"
        shutil.rmtree(target, ignore_errors=True)
        gc.collect()
        tracer.run_id += 1
        with tracer.installed():
            inputs = workloads.setup(workload, seed, target)
        digests.add(inputs.digest())
        reps += 1
    problems = [] if len(digests) == 1 else ["set-up wrote different bytes on repeat"]
    return inputs, problems


def _label(i: int) -> str:
    return "warm-up" if i < 0 else f"operation {i}"


def _clear(out_dir: Path) -> None:
    """Start each operation from an empty output directory, so a stale file
    from the previous one cannot pass its checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def _operation_loop(seconds: float, started: float, body) -> None:
    """Call body(i) for one warm-up (i = -1), then until --seconds have
    passed and at least MIN_OPERATIONS timed operations ran."""
    body(-1)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPERATIONS or time.perf_counter() < deadline:
        if time.perf_counter() - started > RUN_LIMIT_S:
            break
        body(i)
        i += 1


def measure(workload: str, seed: int, seconds: float, work: Path, started: float) -> dict:
    """End-to-end run. Each operation sets up the inputs again in this
    process, then runs the commands as child processes; each operation sits
    between two runs of the calibration program."""
    target = work / "inputs"
    inputs = workloads.setup(workload, seed, target)
    digest = inputs.digest()
    checker = Checker(workload, inputs, _reference(workload, seed))
    calibration = Calibration(workload, work)
    out_dir = work / "out"
    keys = ("setup", "main", "cpu", "op", "rest")
    raw: dict[str, list[float]] = {k: [] for k in keys}
    scaled: dict[str, list[float]] = {k: [] for k in keys}
    rss: list[float] = []
    failures: list[str] = []
    attempted = 0

    def operation(i: int) -> None:
        nonlocal attempted
        _clear(out_dir)
        shutil.rmtree(target)
        gc.collect()
        start = time.perf_counter()
        workloads.setup(workload, seed, target)
        setup_s = time.perf_counter() - start
        results = []
        for argv, stdout_path in workloads.commands(workload, inputs, out_dir):
            command = [sys.executable, "-m", "drivetriad.cli", *argv]
            results.append(run_child(command, stdout_path))
            if results[-1].code != 0:
                break
        scale = calibration.scale()
        attempted += 1
        found = checker.check(out_dir, [r.code for r in results])
        if inputs.digest() != digest:
            found.append("set-up wrote different bytes on repeat")
        if found:
            failures.append(f"{_label(i)}: " + "; ".join(found))
        if i >= 0:
            values = {
                "setup": setup_s,
                "main": results[0].wall_s,
                "cpu": results[0].cpu_s,
                "op": sum(r.wall_s for r in results),
                "rest": sum(r.wall_s for r in results[1:]),
            }
            for key, value in values.items():
                raw[key].append(value)
                scaled[key].append(value * scale)
            rss.append(results[0].rss_mb)

    _operation_loop(seconds, started, operation)

    problems = []
    if calibration.failed:
        problems.append(f"the calibration program failed {calibration.failed} times")
    main_s = _median(scaled["main"])
    metrics = {
        "command_s": main_s,
        "command_cpu_s": _median(scaled["cpu"]),
        "items_per_s": inputs.items / main_s,
        "op_s": _median(scaled["op"]),
        "peak_rss_mb": _median(rss),
        "setup_s": _median(scaled["setup"]),
    }
    drive = workload != "classify_corpus"
    item = "fixes" if drive else "segments"
    cmd = "pipeline" if drive else "classify"
    print(
        f"{workload} seed {seed}: {inputs.items} {item}, {len(inputs.cues)} cues; "
        f"{len(raw['main'])} timed operations after 1 warm-up"
    )
    for name, digest in (checker.first or {}).items():
        print(f"  sha256 {name} {digest}")
    print(f"  calibration program {_median(calibration.times):.4f} s, "
          f"{_describe(calibration.times)} (reference {CALIBRATION_REFERENCE_S} s)")
    rows = [
        (f"{cmd}_s", raw["main"], scaled["main"], "s"),
        (f"{cmd}_cpu_s", raw["cpu"], scaled["cpu"], "s"),
        (f"{item}_per_s", [inputs.items / v for v in raw["main"]],
         [inputs.items / v for v in scaled["main"]], f"{item}/s"),
    ]
    if drive:
        rows.append(("stats_s", raw["rest"], scaled["rest"], "s"))
    rows += [("peak_rss_mb", rss, rss, "MB"), ("setup_s", raw["setup"], scaled["setup"], "s")]
    print(f"  {'':<18} {'as measured':>12} {'unit':<10} {'scaled':>10}")
    for name, measured, values, unit in rows:
        print(f"  {name:<18} {_median(measured):>12.6g} {unit:<10} {_median(values):>10.6g}  "
              f"{_describe(values)}")
    print(f"  {'error_rate':<18} {len(failures) / attempted:>12.6g} {'ratio':<10} "
          f"{len(failures)} failed of {attempted} operations")
    if drive:
        total = len(inputs.maneuvers)
        print(f"  {'maneuver_accuracy':<18} {checker.matching / total:>12.6g} {'ratio':<10} "
              f"{checker.matching} of {total} triads match the planted maneuver")
    return {"problems": problems, "failures": failures, "attempted": attempted,
            "metrics": metrics}


def trace(workload: str, seed: int, seconds: float, work: Path, started: float) -> dict:
    """Traced run: operations in this process, alternating untraced and
    traced; per-layer metrics are medians over the traced ones."""
    tracer = Tracer()
    inputs, problems = _setup(workload, seed, work, tracer)
    synth_runs = range(1, tracer.run_id + 1)
    checker = Checker(workload, inputs, _reference(workload, seed))
    out_dir = work / "out"
    untraced: list[float] = []
    traced_runs: list[int] = []
    failures: list[str] = []
    attempted = 0

    def one(i: int, traced: bool) -> None:
        nonlocal attempted
        _clear(out_dir)
        gc.collect()
        codes, main = [], None
        context = contextlib.nullcontext()
        if traced:
            tracer.run_id += 1
            traced_runs.append(tracer.run_id)
            context = tracer.installed()
        with context:
            for argv, stdout_path in workloads.commands(workload, inputs, out_dir):
                span = tracer.span(f"cli.{argv[0]}") if traced else contextlib.nullcontext()
                with span:
                    code, wall = run_in_process(argv, stdout_path)
                codes.append(code)
                main = wall if main is None else main
                if code != 0:
                    break
        attempted += 1
        found = checker.check(out_dir, codes)
        if found:
            failures.append(f"{_label(i)}{' traced' if traced else ''}: " + "; ".join(found))
        if i >= 0 and not traced:
            untraced.append(main)

    def operation(i: int) -> None:
        if i < 0:
            one(i, traced=False)
            return
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            one(i, traced)

    _operation_loop(seconds, started, operation)

    per_run = [_layer_metrics(tracer, run) for run in traced_runs]
    metrics = {key: _median([m[key] for m in per_run]) for key in per_run[0]}
    main_name = "cli.pipeline" if workload in workloads.DRIVES else "cli.classify"
    traced_main = [tracer.summary(run)[main_name][1] / 1e9 for run in traced_runs]
    for name in ("generate_instructions", "write_corpus"):
        metrics[f"synth.{name}_s"] = _median(
            [tracer.summary(run).get(f"synth.{name}", (0, 0, 0))[1] / 1e9 for run in synth_runs]
        )
    metrics["trace.overhead_ratio"] = _median(traced_main) / _median(untraced)

    last = tracer.summary(traced_runs[-1])
    print(f"{workload} seed {seed}: {len(traced_runs)} traced and {len(untraced)} "
          f"untraced in-process operations after 1 warm-up; spans of the last traced one:")
    print(f"  {'span':<30} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, own) in sorted(last.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<30} {calls:>7} {total / 1e9:>10.4f} {own / 1e9:>10.4f}")
    if workload in workloads.DRIVES:
        covered, total = tracer.subtree_self_ns(traced_runs[-1], "pipeline.run_pipeline")
        print(f"  self times under pipeline.run_pipeline sum to {covered / 1e9:.6f} s "
              f"of its {total / 1e9:.6f} s")
    tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    return {"problems": problems, "failures": failures, "attempted": attempted,
            "metrics": metrics}


def _layer_metrics(tracer, run: int) -> dict[str, float]:
    table = tracer.summary(run)
    counts = tracer.counts[run]

    def calls(name: str) -> int:
        return table.get(name, (0, 0, 0))[0]

    def total(name: str) -> float:
        return table.get(name, (0, 0, 0))[1] / 1e9

    def own(name: str) -> float:
        return table.get(name, (0, 0, 0))[2] / 1e9

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "ingest.parse_gpx_s": total("ingest.parse_gpx"),
        "ingest.parse_gpx_us_per_fix": ratio(total("ingest.parse_gpx") * 1e6, counts["fixes"]),
        "ingest.parse_transcript_s": total("ingest.parse_transcript"),
        "classifier.classify_s": total("classifier.classify"),
        "classifier.classify_us_per_segment": ratio(
            total("classifier.classify") * 1e6, calls("classifier.classify")
        ),
        "core.interpolate_position_us_per_call": ratio(
            total("core.interpolate_position") * 1e6, calls("core.interpolate_position")
        ),
        "core.interpolate_position_calls": calls("core.interpolate_position"),
        "core.heading_at_us_per_call": ratio(
            total("core.heading_at") * 1e6, calls("core.heading_at")
        ),
        "core.heading_at_calls": calls("core.heading_at"),
        "sync.build_events_self_s": own("sync.build_events"),
        "sync.placed_ratio": ratio(counts["events_placed"], counts["segments_in"]),
        "segmenter.segment_actions_self_s": own("segmenter.segment_actions"),
        "segmenter.net_bearing_change_s": total("segmenter.net_bearing_change"),
        "segmenter.waypoints_total": counts["waypoints"],
        "segmenter.unknown_ratio": ratio(counts["unknown_windows"], counts["windows"]),
        "emitter.export_triads_s": total("emitter.export_triads"),
        "emitter.triads_bytes": counts["triads_bytes"],
        "emitter.manifest_s": sum(
            total(f"emitter.{name}")
            for name in ("manifest_input", "config_digest", "build_manifest", "write_manifest")
        ),
        "emitter.read_triads_s": total("emitter.read_triads"),
        "emitter.read_triads_us_per_record": ratio(
            total("emitter.read_triads") * 1e6, counts["records_read"]
        ),
        "stats.corpus_stats_s": total("stats.corpus_stats"),
        "stats.render_report_s": total("stats.render_report"),
        "pipeline.self_s": own("pipeline.run_pipeline"),
    }


def _reference(workload: str, seed: int) -> str | None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if seed != reference["seed"]:
        return None
    return reference["sha256"][workload]
