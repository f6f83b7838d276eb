"""Benchmark for pcar: one workload per process, one client, one thread.

    python3 perfbench/run.py --workload study-uniform --seed 1 --seconds 15 --trace 0

Each run is a closed loop: a unit starts when the previous one finishes,
and units run until ``--seconds`` of unit time is spent, in whole cycles
of unit runs (four for study-model) and at least ``min_runs`` of them (21
for oracle-learn). Outputs are checked after each unit, outside its timed
region. Every unit that runs twice must give the same digest; the first
unit runs once untimed before the timed loop as a warm-up, unless the
workload repeats it within the loop already.

The gated times are in reference seconds (see ``reference.py``), which
take out the host's drift in speed; the raw wall times are printed beside
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REF_SECOND_SLICES, ref_seconds, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "_runs"
REFERENCE = HERE / "reference_digests.json"
# set-up samples per batch; one batch runs before the timed loop and one
# after it, so the median spans the run and not one moment of the host
SETUP_REPEATS = 5
MIN_BEYOND = 10
# The workload is single-threaded; so is the BLAS under numpy, which also
# keeps reductions, and so the digests, independent of the core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- measurement helpers ---------------------------------------------------------


def tail_percentile(values, min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` values above it:
    (percentile, value, n). That is the ``min_beyond + 1``-th largest value,
    at percentile ``100 * (n - min_beyond) / n``, so it moves smoothly with
    n. With ``2 * min_beyond`` values or fewer it would sit at or below the
    median, and the maximum is reported as percentile 100 instead."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no values")
    if n <= 2 * min_beyond:
        return 100.0, ordered[-1], n
    return 100.0 * (n - min_beyond) / n, ordered[n - min_beyond - 1], n


def compare_digests(observed: dict, reference: dict) -> tuple[int, int, list]:
    """Match unit digests against the reference by unit key: (matched,
    compared, keys that differ). Units without a reference are skipped."""
    compared = [k for k in observed if k in reference]
    differ = [k for k in compared if observed[k] != reference[k]]
    return len(compared) - len(differ), len(compared), differ


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setups(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time from process start until the first unit is ready, taken in
    fresh processes so every sample pays the imports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "workload_seed": seed,
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas_threads": min(int(os.environ[BLAS_THREAD_VARS[0]]), nproc),
    }


# -- the run -------------------------------------------------------------------


def measure(wl, seconds: float, tracer=None, targets=()):
    """Closed loop over units until ``seconds`` of unit time and a whole
    cycle of unit runs. Untraced, returns the outcomes, each with its time
    in reference seconds. Traced, each unit runs untraced and then traced;
    returns both lists, paired by position."""
    plain, traced = [], []
    busy = 0.0
    index = 0
    # the reference slice time before the next unit; this first one also
    # warms the slice up
    before = time_reference(1.0) if tracer is None else None

    def attempt(unit, tag=""):
        nonlocal busy, before
        t0 = time.perf_counter()
        outcome = wl.attempt(unit, tag)
        spent = time.perf_counter() - t0
        # a unit that raised has no unit time; its wall time still counts,
        # so a run of failures ends on time
        busy += spent if outcome.seconds is None else outcome.seconds
        if tracer is None:
            after = time_reference(spent)
            if outcome.seconds is not None:
                outcome.ref_s = ref_seconds(outcome.seconds, (before + after) / 2)
            before = after
        return outcome

    runs_per_unit = 1 if tracer is None else 2
    while (busy < seconds or index * runs_per_unit < wl.min_runs
           or index * runs_per_unit % wl.cycle):
        unit = wl.unit(index)
        plain.append(attempt(unit))
        if tracer is not None:
            tracer.unit = index
            tracer.install(targets)
            try:
                traced.append(attempt(unit, "-traced"))
            finally:
                tracer.uninstall()
        index += 1
    return plain, traced


def check_repeats(outcomes) -> None:
    """Determinism: every run of one unit must give the first run's digest;
    a later run that does not fails."""
    first: dict = {}
    for o in outcomes:
        if o.digest is None:
            continue
        seen = first.setdefault(o.unit.key, o.digest)
        if o.digest != seen:
            o.error = f"not deterministic: digest {o.digest} != {seen}"


def _failures(outcomes) -> list[str]:
    return [f"unit {o.unit.index} ({o.unit.key}): {o.error}" for o in outcomes if o.error]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_outputs(wl, outcomes, lines: list[str]) -> None:
    """Reference digests (reported, never failed on: a correctness fix may
    change logs on purpose) and the quality diagnostics."""
    reference = {}
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name, {})
    observed = {o.unit.key: o.digest for o in outcomes if o.digest}
    matched, compared, differ = compare_digests(observed, reference)
    lines.append(f"digests_matched {matched}/{compared}"
                 + (f" (first differing unit {differ[0]})" if differ else ""))
    lines += wl.summarize_quality(outcomes)


def end_to_end(wl, args, lines: list[str]):
    setups = time_setups(wl.name, args.seed)
    wl.setup()
    warm_up = [] if wl.repeats_first else [wl.attempt(wl.unit(0), tag="-warm-up")]
    outcomes, _ = measure(wl, args.seconds)
    rss = peak_rss_mb()
    setups += time_setups(wl.name, args.seed)
    attempted = warm_up + outcomes
    check_repeats(attempted)
    errors = _failures(attempted)

    done = [o for o in outcomes if o.seconds is not None]
    if not done:
        raise RuntimeError("no unit finished; first error: " + errors[0])
    setup_s = statistics.median(setups)
    metrics = {"setup_s": _metric(setup_s, "s")}
    lines.append(f"setup_s {setup_s:.4f} s (median of {len(setups)} fresh processes, "
                 "half before and half after the timed loop)")
    # the reference-second figures are gated; the raw ones are printed
    for unit, times in (("ref_s", [o.ref_s for o in done]),
                        ("s", [o.seconds for o in done])):
        work_per = wl.work_per_unit * len(times) / sum(times)
        p50 = statistics.median(times)
        p, tail, n = tail_percentile(times)
        if unit == "ref_s":
            metrics.update({
                "work_per_ref_s": _metric(work_per, "1/ref_s"),
                "unit_ref_s_p50": _metric(p50, "ref_s"),
                "unit_ref_s_tail": _metric(tail, "ref_s"),
            })
        lines += [
            f"work_per_{unit} {work_per:.2f} 1/{unit} (= {wl.work_name}_per_{unit}; "
            f"{wl.work_per_unit:g} {wl.work_name} per unit)",
            f"unit_{unit}_p50 {p50:.4f} {unit} (n={n})",
            f"unit_{unit}_tail {tail:.4f} {unit} (p{p:.4g}, n={n})",
        ]
    slice_s = statistics.median(o.seconds / o.ref_s / REF_SECOND_SLICES for o in done)
    lines.append(f"reference_slice_s {slice_s:.5f} s (median over units; "
                 f"{REF_SECOND_SLICES} slices make a reference second)")
    metrics["peak_rss_mb"] = _metric(rss, "MB")
    lines += [
        f"peak_rss_mb {rss:.1f} MB",
        f"error_rate {len(errors) / len(attempted):.4f} ratio "
        f"({len(errors)} failed of {len(attempted)} attempted, repeats included)",
    ]
    report_outputs(wl, outcomes, lines)
    return metrics, attempted, errors


def traced(wl, args, lines: list[str]):
    from layers import DERIVED, TARGETS, metric_specs, predictions
    from tracer import Tracer

    wl.setup()
    tracer = Tracer()
    plain, traced_out = measure(wl, args.seconds, tracer, TARGETS)
    check_repeats(plain + traced_out)
    errors = _failures(plain + traced_out)
    pairs = [(a.seconds, b.seconds) for a, b in zip(plain, traced_out)
             if a.seconds is not None and b.seconds is not None]
    if not pairs:
        raise RuntimeError("no unit finished; first error: " + errors[0])
    n_units = len(pairs)
    untraced_s = sum(a for a, _ in pairs) / n_units
    traced_s = sum(b for _, b in pairs) / n_units

    stats = tracer.layer_stats()
    units = {s["name"]: s["unit"] for s in metric_specs()}
    values, notes = {}, {}
    for t in TARGETS:
        s = stats.get(t.name)
        values[f"{t.name}.calls"] = (s.calls if s else 0) / n_units
        values[f"{t.name}.self_s"] = (s.self_time if s else 0.0) / n_units
    for d in DERIVED:
        s = stats.get(d.target)
        calls, count = (s.calls, s.count) if s else (0, 0)
        if d.ratio:
            values[d.name] = count / calls if calls else 0.0
            notes[d.name] = f"{count:,} of {calls:,} {d.target} calls"
        else:
            values[d.name] = count / n_units
    dominant = 0.0
    for pattern, kind in wl.dominant:
        for name, s in stats.items():
            if name == pattern or (pattern.endswith(".*") and name.startswith(pattern[:-1])):
                dominant += s.self_time if kind == "self" else s.total
    dominant /= traced_s * n_units
    values.update({
        "trace.untraced_unit_s": untraced_s,
        "trace.traced_unit_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.dominant_share": dominant,
    })
    notes["trace.overhead_ratio"] = f"base: untraced unit time {untraced_s:.4f} s"
    notes["trace.dominant_share"] = (
        "share of traced unit time in "
        + " + ".join(f"{p} {k}" for p, k in wl.dominant))
    for name, p in predictions().items():
        moves: dict = {}
        for metric, workload in p["moves"]:
            moves.setdefault(workload, []).append(metric)
        said = [f"moves {'+'.join(ms)} on {w}" for w, ms in moves.items()]
        if p["steady"]:
            said.append(f"steady on {', '.join(p['steady'])}")
        notes[name] = "; ".join(filter(None, [notes.get(name)] + said))
    for name, value in values.items():
        note = f" ({notes[name]})" if notes.get(name) else ""
        lines.append(f"{name} {value:.6g} {units[name]}{note}")
    lines.append(f"traced units {n_units} (each also run untraced)")
    report_outputs(wl, plain, lines)

    spans_path = RUNS_DIR / f"spans-{wl.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = {name: _metric(v, units[name]) for name, v in values.items()}
    return metrics, plain + traced_out, errors


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ``pcar`` from this checkout with a single-threaded BLAS."""
    from workloads import load_program

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return load_program(ROOT)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, ProgramMissing

    args = parse_args(argv)
    try:
        pcar = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        wl = WORKLOADS[args.workload](pcar, args.seed, work_dir)
        if args.setup_only:
            wl.setup()
            return 0
        lines = [f"workload {wl.name} seed {args.seed}: closed loop, 1 client, "
                 f"1 thread, {args.seconds:g} s of unit time"]
        run = traced if args.trace else end_to_end
        metrics, attempted, errors = run(wl, args, lines)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines += [f"FAILED {e}" for e in errors[:20]]
    lines.append("provenance " + json.dumps(provenance(wl.name, args.seed), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(attempted),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
