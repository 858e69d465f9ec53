#!/usr/bin/env python3
"""Seeded reconstruction benchmark: time from problem document to verified,
canonical solution text.

    python3 perfbench/run.py --workload line_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a fixed grid of instance
shapes whose values are drawn from ``--seed`` (perfbench/workloads.py).  A
closed loop of one caller sends the instances back to back: one complete
pass, then, until ``--seconds`` have elapsed, further attempts at the
instances that decide the median and the tail (``RANK_WINDOW``).  Every
output is checked by the benchmark's own oracle (perfbench/oracle.py),
never by ``twospec.verify``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays every
instance stage by stage as well (perfbench/stages.py) and reports the
per-layer metrics, after checking that the replay's output is
byte-identical to the pipeline's.  The last line of standard output is the
result object; the line before it is a report with the input properties,
outcome counts and sample counts.  Spans of a traced run are written to
``.perfbench/`` at the end.

The exit code is non-zero only when the benchmark itself cannot run or is
broken (the replay disagrees with the pipeline, a metric is missing); an
instance that the program fails counts against ``ok_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

# A single attempt running longer than this counts as a timeout failure.
INSTANCE_CAP_S = 20.0
# No attempt starts after this much loop time, whatever --seconds says.
HARD_WALL_S = 120.0
# After the first pass, until the deadline, the instances whose medians
# rank within RANK_WINDOW of the ranks that solve_s.p50 and solve_s.tail
# read are attempted again, the one with the least time so far first, up
# to SAMPLES attempts each (a timed-out instance is not attempted again).
# Those two metrics are then medians of several attempts, steadier on a
# host whose speed drifts than the one attempt of a single pass.
RANK_WINDOW = 3
SAMPLES = 9
# Fresh interpreters started to time set-up; the median is reported.
SETUP_SAMPLES = 11
# The tail percentile leaves at least this many instances beyond it.
TAIL_BEYOND = 10
# The one kind of wrong answer the program gives today: on the circle, a
# verified solution of order up to this n may put an eigenvalue just outside
# its oracle window (oracle.WindowMiss; seen at n 22..37, and no solution of
# n > 37 verified, over 24 seeds).  It counts against ok_frac.  Any other
# verified output the oracle rejects, and any failed round trip, makes the
# run's outputs incorrect.
CIRCLE_WINDOW_MISS_MAX_N = 40
# Nominal duration of the calibration loop; see _calibration().
REF_NOMINAL_S = 0.0065
# While a solve attempt runs, a SIGPROF handler also runs the calibration
# loop after every this many seconds of process CPU time; the handler's
# time is taken out of the attempt's.  An attempt longer than the interval
# is thus calibrated by the host's speed during it, not only at its ends.
SAMPLE_INTERVAL_S = 0.05

OK = "ok"
VERDICT_FAIL = "VERDICT_FAIL"
ORACLE_REJECT = "ORACLE_REJECT"
ROUNDTRIP_FAIL = "ROUNDTRIP_FAIL"
TIMEOUT = "TIMEOUT"
UNCODED = "UNCODED"


class InstanceTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers of
    Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def _calibration():
    """A fixed mix of float-list, Fraction and JSON work that never touches
    the program, timed around and during every attempt.

    On a shared host the effective CPU speed drifts by tens of percent over
    seconds to minutes.  Solve times are therefore reported in reference
    seconds, raw * REF_NOMINAL_S / (mean time of the calibrations just
    before and after the attempt and of those run during it), which cancels
    much of that drift; the raw figures stay in the report line.
    """
    xs = [0.001 * i for i in range(256)]
    acc = [1.0] * 256
    total = 0.0
    for _ in range(96):
        acc = [a * x - 0.5 * a + 1.0 for a, x in zip(acc, xs)]
        total += sum(acc)
    f = Fraction(3, 7)
    for k in range(1, 120):
        f = f * Fraction(2 * k + 1, 3 * k + 2) + Fraction(1, k)
    text = json.dumps([{"re": x, "im": -x} for x in xs], indent=2, sort_keys=True)
    return total, f, len(text)


def _timed_calibration():
    start = time.perf_counter()
    _calibration()
    return time.perf_counter() - start


# Run in each fresh interpreter: the import, timed from inside, then the
# calibration loop in the same interpreter (the fastest of three, since the
# first run in a new process warms up).
_SETUP_CHILD = """\
import time
start = time.perf_counter()
import twospec, twospec.files
seconds = time.perf_counter() - start
import run
print(seconds, min(run._timed_calibration() for _ in range(3)))
"""


def _setup_seconds():
    """Median over fresh interpreters of the time ``import twospec,
    twospec.files`` takes in each, in reference seconds like the solve
    times, and raw.  Interpreter start-up is left out: it is not the
    program's, and it only adds noise."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    cmd = [sys.executable, "-s", "-c", _SETUP_CHILD]
    times, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout
        seconds, calibration = map(float, out.split())
        times.append(seconds * REF_NOMINAL_S / calibration)
        raw.append(seconds)
    return statistics.median(times), statistics.median(raw)


class Loop:
    """One run's closed loop over a fixed instance set."""

    def __init__(self, instances, seconds, trace):
        import oracle
        import stages

        self.oracle, self.stages = oracle, stages
        self.instances = instances
        self.seconds = seconds
        self.tracer = stages.Tracer() if trace else None
        self.times = {i.index: [] for i in instances}
        self.ref_times = {i.index: [] for i in instances}
        self.traced_times = {i.index: [] for i in instances}
        self.outcome = {}  # first-attempt classification per instance
        self.digest = {}  # output hash or error code of the first attempt
        self.health = {}
        self.oracle_pass = {}
        self.error_stage = {}
        self.out_bytes = {}
        self.broken = []  # benchmark-level faults; any one fails the run
        self.wrong = []  # verified outputs the oracle rejects, known kind aside
        self.changed = []  # instances whose output differed between attempts
        self.attempts = 0
        self.hard = 0  # attempts that hung or raised an uncoded exception
        self.busy = 0.0  # raw seconds inside timed windows
        self.busy_ref = 0.0  # the same in reference seconds
        self.calibrations = []
        self.samples = []  # calibration times taken during the current attempt
        self.paused = 0.0  # seconds the current attempt spent in the handler

    def on_sample(self, signum, frame):
        start = time.perf_counter()
        _calibration()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.paused += seconds

    def _attempt(self, fn, sample=False):
        """Run fn under the per-attempt alarm, and with calibration samples
        taken during it if asked; (seconds net of the samples, result,
        code)."""
        self.samples, self.paused = [], 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
        if sample:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result, code = fn(), None
        except InstanceTimeout:
            result, code = None, TIMEOUT
        except Exception as exc:  # classified by code; uncoded ones too
            code = getattr(exc, "code", None) or f"{UNCODED}:{type(exc).__name__}"
            result = None
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start - self.paused, result, code

    def run(self):
        start = time.perf_counter()
        deadline, hard_wall = start + self.seconds, start + HARD_WALL_S
        self.last_calibration = _timed_calibration()
        for inst in self.instances:
            if time.perf_counter() <= hard_wall:
                self._one(inst, 0)
            else:
                self._not_reached(inst)
        while time.perf_counter() < deadline:
            todo = [
                i
                for i in self._near_ranks()
                if len(self.times[i.index]) < SAMPLES and self.outcome[i.index] != TIMEOUT
            ]
            if not todo:
                break
            inst = min(todo, key=lambda i: sum(self.times[i.index]))
            self._one(inst, len(self.times[inst.index]))
        return time.perf_counter() - start

    def _near_ranks(self):
        """Instances whose median time ranks within RANK_WINDOW of the ranks
        solve_s.p50 and solve_s.tail read."""
        ranked = sorted(
            self.instances, key=lambda i: statistics.median(self.ref_times[i.index])
        )
        n = len(ranked)
        centres = ((n - 1) // 2, n // 2, _tail_rank(n))
        return [
            inst
            for r, inst in enumerate(ranked)
            if any(abs(r - c) <= RANK_WINDOW for c in centres)
        ]

    def _not_reached(self, inst):
        """An instance the first pass did not reach before the hard wall
        counts as a timeout, so every run covers the whole instance set."""
        self.attempts += 1
        self.hard += 1
        self.times[inst.index].append(INSTANCE_CAP_S)
        self.ref_times[inst.index].append(INSTANCE_CAP_S)
        self.digest[inst.index] = self.outcome[inst.index] = TIMEOUT

    def _one(self, inst, attempt):
        text = inst.text
        before = self.last_calibration
        # A traced run reports no solve times, so it leaves the sampler off
        # and trace.overhead_frac compares like with like.
        seconds, result, code = self._attempt(
            lambda: self.stages.solve(text), sample=self.tracer is None
        )
        during = self.samples
        self.last_calibration = _timed_calibration()
        calibration = statistics.fmean([before, self.last_calibration, *during])
        ref_seconds = seconds * REF_NOMINAL_S / calibration
        self.calibrations.append(calibration)
        self.attempts += 1
        self.busy += seconds
        self.busy_ref += ref_seconds
        self.times[inst.index].append(seconds)
        self.ref_times[inst.index].append(ref_seconds)
        digest = code or hashlib.sha256(result[2].encode()).hexdigest()
        if inst.index not in self.digest:
            self.digest[inst.index] = digest
            self.outcome[inst.index] = self._classify(inst, result, code)
        if code == TIMEOUT or (code or "").startswith(UNCODED):
            self.hard += 1
        elif self.digest[inst.index] != digest:
            self.changed.append(inst.index)
        if self.tracer is not None:
            self._traced(inst, attempt, result, code)

    def _classify(self, inst, result, code):
        if code is not None:
            return code
        problem, solution, text = result
        self.out_bytes[inst.index] = len(text.encode())
        self.health[inst.index] = self.stages.health(solution)
        # Checks of program output: a malformed document is a failed check,
        # never a crash of the run.
        try:
            self.oracle.check(text, inst)
            reject = None
        except Exception as exc:
            reject = exc
        self.oracle_pass[inst.index] = reject is None
        if not solution.report.verdict:
            return VERDICT_FAIL
        if reject is not None:
            known = (
                isinstance(reject, self.oracle.WindowMiss)
                and inst.setting == "circle"
                and inst.n <= CIRCLE_WINDOW_MISS_MAX_N
            )
            if not known:
                self.wrong.append(inst.index)
            return ORACLE_REJECT
        try:
            same = self.stages.files.decode_solution(json.loads(text)) == solution
        except Exception:
            same = False
        if same:
            return OK
        self.wrong.append(inst.index)
        return ROUNDTRIP_FAIL

    def _traced(self, inst, attempt, result, code):
        tracer = self.tracer
        first_span = len(tracer.spans)
        root = time.perf_counter()
        seconds, traced, traced_code = self._attempt(
            lambda: self.stages.replay(inst.text, tracer, inst.index, attempt)
        )
        tracer.spans.append(
            self.stages.Span(inst.index, attempt, "instance", root, root + seconds, parent=None)
        )
        self.traced_times[inst.index].append(seconds)
        if traced_code is not None and inst.index not in self.error_stage:
            failed = [s for s in tracer.spans[first_span:] if s.error]
            self.error_stage[inst.index] = failed[0].name.split(".")[0] if failed else None
        if self.outcome[inst.index] == OK and (traced is None or traced[2] != result[2]):
            self.broken.append(f"instance {inst.index}: traced output differs")


def _tail_rank(n):
    """0-based rank of the highest percentile with TAIL_BEYOND of n values
    above it (nearest rank); the largest when there are too few."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def _tail(values):
    """That percentile of the values, and which percentile it is."""
    n = len(values)
    rank = _tail_rank(n)
    return sorted(values)[rank], 100.0 * (rank + 1) / n


def end_to_end(loop, setup_s, raw_setup_s):
    medians = [statistics.median(t) for t in loop.ref_times.values() if t]
    raw_medians = [statistics.median(t) for t in loop.times.values() if t]
    tail, pct = _tail(medians)
    ok = list(loop.outcome.values()).count(OK)
    metrics = {
        "setup_s": setup_s,
        "solve_s.p50": statistics.median(medians),
        "solve_s.tail": tail,
        # Goodput of one pass over the instance set at each instance's
        # median time, so it does not depend on how often each was resampled.
        "ok_per_s": ok / sum(medians),
        "ok_frac": ok / len(loop.outcome),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {
        "tail_percentile": pct,
        "instance_medians": len(medians),
        "calibration_s.median": statistics.median(loop.calibrations),
        "raw_solve_s.p50": statistics.median(raw_medians),
        "raw_solve_s.tail": _tail(raw_medians)[0],
        "raw_ok_per_s": ok / sum(raw_medians),
        "raw_setup_s": raw_setup_s,
    }


def per_layer(loop):
    stages = loop.stages
    busy = {name: 0.0 for name in stages.STAGES}
    for span in loop.tracer.spans:
        if span.name in busy:
            busy[span.name] += span.end - span.start
    traced_total = sum(sum(t) for t in loop.traced_times.values())
    plain_total = sum(
        sum(loop.times[i][: len(t)]) for i, t in loop.traced_times.items()
    )
    metrics = {}
    for name, seconds in busy.items():
        metrics[name] = seconds
        metrics[f"{name}.share"] = seconds / traced_total
    health = list(loop.health.values())
    real = [h for h in health if "gamma_min" in h]
    circ = [h for h in health if "alpha_max" in h]
    errors = list(loop.error_stage.values())
    checked = list(loop.oracle_pass)
    metrics.update(
        {
            "files.out_kb": sum(loop.out_bytes.values()) / 1024.0 / max(1, len(loop.out_bytes)),
            "kernel.errors": errors.count("kernel"),
            "kernel.family_log10.max": max((h["family_log10"] for h in health), default=0.0),
            "kernel.omega_range_log10.max": max(
                (h["omega_range_log10"] for h in health), default=0.0
            ),
            "oprl.errors": errors.count("oprl"),
            "oprl.gamma_min": min((h["gamma_min"] for h in real), default=0.0),
            "oprl.gamma_digits.max": max((h["gamma_digits"] for h in real), default=0),
            "popuc.errors": errors.count("popuc"),
            "popuc.alpha_max": max((h["alpha_max"] for h in circ), default=0.0),
            "verify.verdict_frac": sum(h["verdict"] for h in health) / max(1, len(health)),
            "verify.warnings": sum(h["warnings"] for h in health),
            "oracle.pass_frac": sum(loop.oracle_pass.values()) / max(1, len(checked)),
            "oracle.disagree": sum(
                loop.oracle_pass[i] != loop.health[i]["verdict"] for i in checked
            ),
            "trace.overhead_frac": traced_total / plain_total - 1.0,
        }
    )
    return metrics


def _write_spans(workload, seed, spans):
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans_{workload}_{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def _run_all(args, names) -> int:
    """Every workload in a fresh interpreter, one at a time, so set-up and
    peak RSS stay per workload; their output lines pass straight through."""
    failed = False
    for name in names:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        failed |= subprocess.run(cmd, cwd=ROOT).returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twospec", "__init__.py")):
        print(f"perfbench: no twospec package under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s, raw_setup_s = (None, None) if args.trace else _setup_seconds()
    instances = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    loop = Loop(instances, args.seconds, bool(args.trace))
    signal.signal(signal.SIGPROF, loop.on_sample)
    wall = loop.run()

    if args.trace:
        metrics = per_layer(loop)
        extra = {}
        _write_spans(args.workload, args.seed, loop.tracer.spans)
    else:
        metrics, extra = end_to_end(loop, setup_s, raw_setup_s)
    outcomes = {}
    for o in loop.outcome.values():
        outcomes[o] = outcomes.get(o, 0) + 1
    bad = [
        m["name"]
        for m in spec
        if not isinstance(metrics.get(m["name"]), (int, float)) or math.isnan(metrics[m["name"]])
    ]
    if bad:
        loop.broken.append(f"metrics without a value: {bad}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": workloads.input_properties(instances),
        "outcomes": outcomes,
        "attempts": loop.attempts,
        "instances_attempted": len(loop.outcome),
        "loop_wall_s": wall,
        "busy_s": loop.busy,
        "busy_ref_s": loop.busy_ref,
        "broken": loop.broken,
        "wrong": sorted(loop.wrong),
        **extra,
    }
    print(json.dumps(report, sort_keys=True))
    if loop.broken:
        for line in loop.broken:
            print(f"perfbench: {line}", file=sys.stderr)
        return 1
    # An instance the program declines (verdict false, coded error, timeout)
    # is a failure in ok_frac: the workloads include sizes it fails today.
    # A wrong answer it verified is not.
    correct = not loop.changed and not loop.wrong and OK in loop.outcome.values()
    result = {
        "correct": correct,
        "attempted": loop.attempts,
        "failed": loop.hard,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
