"""morselat benchmark: one workload per process, every op an in-process CLI call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  Set-up is interpreter start-up with the
import of morselat.cli (in a child process), then generating and writing the
inputs of the first round and one warm-up op; each part is repeated
SETUP_REPEATS times and its median kept.  The run then repeats whole rounds,
at least MIN_ROUNDS and as many as fit in ``--seconds``.  Every round has the
same strata at the same positions, on inputs drawn from (seed, round), so no
seeded input is seen twice by the process and a cache kept between calls,
which a CLI user never sees, cannot make later rounds cheap.  Each round's
outputs are checked against the oracles in ``oracles.py`` as soon as it ends,
outside the timed region.

The shared machine this was built on loses up to half its speed for seconds
and minutes at a time, and CPU time inflates with wall time.  So a fixed
reference loop is timed between ops, and every time (set-up included) is
scaled to the speed at which that loop takes CALIBRATION_REFERENCE_S.  The
latency of an op position is the median over rounds of its scaled time.  A
fixed input (the same in every round) whose later rounds beat round one by
more than CACHE_GUARD times is taken at round one's time, with a note on
stderr.  ops_per_s divides the ops completed in a round by the sum of the
position latencies.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the first
round's inputs, half the time untraced and half with the span recorder of
``tracing.py`` installed around each op sequence (and taken out before the
checks), and prints the per-layer metrics per round plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
CACHE_GUARD = 3.0  # above the machine's own swings (up to about 2.3x between two runs of one op)
# host-speed reference: a fixed pure-Python loop of frozenset and dict work
# (what morselat's inner loops do) timed between ops, at least every
# CALIBRATION_EVERY seconds; CALIBRATION_REFERENCE_S is near its time on the
# host the benchmark was built on when that host runs at full speed
CALIBRATION_LOOP = 4000
CALIBRATION_EVERY = 0.05
CALIBRATION_WINDOW = 0.25
CALIBRATION_REFERENCE_S = 0.0014


def load_cli():
    """Import morselat.cli from the checkout's src/; exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "morselat", "cli.py")):
        sys.exit(f"bench: no morselat sources under {SRC}")
    sys.path.insert(0, SRC)
    import morselat.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: morselat was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op):
    """One CLI call; returns (exit code, seconds, stderr text)."""
    err = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = 1
        err.write(traceback.format_exc())
    return rc, perf_counter() - t0, err.getvalue()


def calibrate() -> tuple:
    """(time, seconds) of one pass of the fixed reference loop.  Garbage
    collection is off meanwhile, so the heap morselat leaves behind cannot
    slow the loop."""
    gc.disable()
    try:
        t0 = perf_counter()
        counts = {}
        for i in range(CALIBRATION_LOOP):
            key = frozenset((i & 63, (i >> 3) & 63))
            counts[key] = counts.get(key, 0) + 1
        t1 = perf_counter()
    finally:
        gc.enable()
    return (t0 + t1) / 2, t1 - t0


def host_speed(start: float, end: float, marks: list) -> float:
    """Median reference-loop time around [start, end]: the loops within
    CALIBRATION_WINDOW of the op, which always include the one just before
    it and the one just after."""
    near = [d for t, d in marks if start - CALIBRATION_WINDOW <= t <= end + CALIBRATION_WINDOW]
    return statistics.median(near)


def run_round(cli, ops, tracer=None):
    """Run the ops in order; each op's latency is also given scaled to the
    host's reference speed (``norm``): wall time x CALIBRATION_REFERENCE_S /
    the reference loop's time around the op."""
    for op in ops:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.output)
    rcs, lats, errs, spans = [], [], [], []
    marks = [calibrate()]
    t0 = perf_counter()
    for op in ops:
        if perf_counter() - marks[-1][0] > CALIBRATION_EVERY:
            marks.append(calibrate())
        if tracer is not None:
            tracer.op += 1
        start = perf_counter()
        rc, lat, err = run_op(cli, op)
        spans.append((start, start + lat))
        rcs.append(rc)
        lats.append(lat)
        errs.append(err)
    wall = perf_counter() - t0
    marks.append(calibrate())
    norm = [lat * CALIBRATION_REFERENCE_S / host_speed(a, b, marks) for lat, (a, b) in zip(lats, spans)]
    outputs = []
    for op in ops:
        try:
            with open(op.output) as fh:
                outputs.append(fh.read())
        except FileNotFoundError:
            outputs.append(None)
    return {"wall": wall, "rc": rcs, "lat": lats, "norm": norm, "err": errs, "out": outputs,
            "calibration": [d for _, d in marks]}


def run_rounds(cli, next_ops, seconds, min_rounds, problems, tracer=None):
    """Whole rounds, at least ``min_rounds``, while another round still fits in
    ``seconds``.  ``next_ops(r)`` gives the ops of round r; each round is
    judged when it ends, with the tracer (if any) taken out."""
    rounds = []
    t0 = perf_counter()
    while True:
        t_round = perf_counter()
        ops = next_ops(len(rounds))
        if tracer is not None:
            tracer.install()
        try:
            result = run_round(cli, ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["ops"] = ops
        result["completed"] = judge(ops, result, problems, len(rounds))
        del result["out"], result["err"]  # keep the process's memory independent of the round count
        rounds.append(result)
        now = perf_counter()
        if len(rounds) >= min_rounds and now - t0 + (now - t_round) > seconds:
            return rounds


def _known_fault_matches(op, rc: int, err: str) -> bool:
    code, key, value = op.known_fault
    try:
        return rc == code and json.loads(err.strip().splitlines()[-1])[key] == value
    except (ValueError, IndexError, KeyError, TypeError):
        return False


def judge(ops, result, problems, rnd):
    """Classify every op of one round; return the per-op completed flags.

    An op completes when it exits 0 with an output the oracle accepts, or
    exits 4 (obstruction) where the oracle finds that no lift exists.  A
    known fault is a failed op, not a wrong one.  Everything else appends a
    line to ``problems``.
    """
    completed = []
    for i, op in enumerate(ops):
        rc, text, err = result["rc"][i], result["out"][i], result["err"][i]
        done = False
        try:
            if op.known_fault is not None and _known_fault_matches(op, rc, err):
                pass
            elif rc == 0:
                op.check(text)
                done = True
            elif rc == 4 and op.obstruction is not None:
                if not op.obstruction():
                    raise AssertionError("exit 4 (obstruction), but a lift exists")
                done = True
            else:
                raise AssertionError(f"exit {rc}: {err.strip()[-300:]}")
        except AssertionError as exc:
            problems.append(f"round {rnd} {op.label}: {exc}")
        completed.append(done)
    return completed


def position_latencies(rounds) -> list:
    """Each op position's median over rounds of its speed-scaled latency; a
    fixed input whose later rounds are more than CACHE_GUARD times faster
    than round one keeps round one's time."""
    out = []
    for i, op in enumerate(rounds[0]["ops"]):
        times = [r["norm"][i] for r in rounds]
        typical = statistics.median(times)
        if op.fixed and times[0] > CACHE_GUARD * statistics.median(times[1:]):
            print(f"bench: {op.label}: later rounds {times[0] / statistics.median(times[1:]):.1f}x faster than "
                  "round one on the same input (a cache kept between calls?); round one's time is kept",
                  file=sys.stderr)
            typical = times[0]
        out.append(typical)
    return out


def scaled_time(fn):
    """Run fn(); return (its result, its wall time scaled to the reference
    speed by the reference loop timed just before and just after)."""
    before = calibrate()[1]
    t0 = perf_counter()
    result = fn()
    seconds = perf_counter() - t0
    after = calibrate()[1]
    return result, seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def startup() -> None:
    """A fresh interpreter that imports morselat.cli from src/."""
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import morselat.cli"],
                   check=True, timeout=60)


def setup(workload, seed):
    """Median start-up-and-import time plus median time to build the first
    round's inputs and run a warm-up op, both scaled to the reference speed.
    Returns (cli, first round's ops, set of drawn inputs, work directory,
    setup_s)."""
    import workloads

    cli = load_cli()
    start = statistics.median(scaled_time(startup)[1] for _ in range(SETUP_REPEATS))
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")

    def first_round(i):
        shutil.rmtree(workdir, ignore_errors=True)
        seen = set()
        ops = workloads.build(workload, seed, os.path.join(workdir, "round-0"), 0, seen)
        warm = workloads.warm_up(workload, os.path.join(workdir, "warm-up"), i)
        return ops, seen, warm, run_op(cli, warm)

    times = []
    for i in range(SETUP_REPEATS):
        (ops, seen, warm, (rc, _, err)), seconds = scaled_time(lambda: first_round(i))
        times.append(seconds)
        if rc != 0:
            sys.exit(f"bench: warm-up op failed with exit {rc}: {err}")
        with open(warm.output) as fh:
            warm.check(fh.read())
    return cli, ops, seen, workdir, start + statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cli, ops, seen, workdir, setup_s = setup(args.workload, args.seed)

    def next_ops(rnd):
        if rnd == 0 or args.trace:
            return ops
        shutil.rmtree(os.path.join(workdir, f"round-{rnd - 1}"), ignore_errors=True)
        return workloads.build(args.workload, args.seed, os.path.join(workdir, f"round-{rnd}"), rnd, seen)

    problems = []
    try:
        if args.trace:
            import tracing
            from morselat.verify import CHECKS

            tags = [t for t, _ in CHECKS]
            plain = run_rounds(cli, next_ops, args.seconds / 2, 1, problems)
            tracer = tracing.Tracer()
            traced = run_rounds(cli, next_ops, args.seconds / 2, 1, problems, tracer)
            rounds = plain + traced
        else:
            rounds = run_rounds(cli, next_ops, args.seconds, MIN_ROUNDS, problems)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(len(r["ops"]) - sum(r["completed"]) for r in rounds)
    completed = rounds[0]["completed"]
    if any(r["completed"] != completed for r in rounds):
        problems.append("the ops that complete differ between rounds")
    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    metrics = {}
    if args.trace:
        n = len(traced)
        self_s = tracer.self_times()
        for name in tracing.per_layer_names(tags):
            if name.endswith("_s"):
                metrics[name] = {"value": self_s.get(name, 0.0) / n, "unit": "s"}
            else:
                metrics[name] = {"value": tracer.counts.get(name, 0) // n, "unit": "count"}
        overhead = min(r["wall"] for r in traced) / min(r["wall"] for r in plain)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.tsv"))
        print(f"{args.workload}: {n} traced rounds, {len(plain)} untraced; tracing overhead x{overhead:.3f}")
    else:
        latency = position_latencies(rounds)
        lats = [t for t, done in zip(latency, completed) if done]
        wall = sum(latency)
        deciles = statistics.quantiles(lats, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lats) / wall, "unit": "op/s"},
            "op_p50_ms": {"value": 1000 * deciles[4], "unit": "ms"},
            "op_p90_ms": {"value": 1000 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        cal = sorted(d for r in rounds for d in r["calibration"])
        print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} ops, {len(lats)} completed a round, "
              f"{wall:.2f} s of scaled op times; reference loop {1000 * cal[0]:.3f} / "
              f"{1000 * statistics.median(cal):.3f} ms (fastest / median) against {1000 * CALIBRATION_REFERENCE_S} ms")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
