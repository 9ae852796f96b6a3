#!/usr/bin/env python3
"""The espece benchmark: seeded CLI request streams checked against golden outputs.

Run from the repository root (stdlib only, no install needed):

    python3 bench/run.py --workload count-cold --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run (Python version, cores, hash seed, request mix, failures).  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  bench/README.md describes the workloads and metrics.

One client, one request in flight (a closed loop).  The benchmark
process imports ``espece.cli`` once; a cold workload forks one child per
request, so each request starts with empty caches and without interpreter
start-up; the warm workload forks one child per session, which keeps its
caches.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback

import oracles
import pools
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
GOLDEN = os.path.join(BENCH, "golden.json")

COLD = {"count-cold": True, "action-cold": True, "session-warm": False}
SESSION_ROUNDS = 6  # rounds of the warm pool that one session serves
# Fresh interpreters timed for setup_s, half before and half after the
# measured batches, so the median spans the run's changes in machine speed.
SETUP_SPAWNS = 16
REQUEST_TIMEOUT_S = 30.0  # a request unanswered this long fails
MEASURE_LIMIT_S = 120.0  # no request starts after this much measuring

SETUP_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); import espece.cli; print('ready', flush=True)"
)


class BenchError(Exception):
    """The benchmark cannot run: sources missing or set-up failing."""


def batches(workload, seed):
    """The seeded request stream, one batch per serving process.

    A round is the whole pool in a seeded order.  A cold batch is one
    round, each request served by its own process.  A warm batch is one
    session served by one process: the pool in its listed order, then
    SESSION_ROUNDS - 1 seeded rounds of repeats.  The first round keeps one
    order because a first occurrence costs what earlier requests left in
    the caches; with a seeded order that cost varied more between seeds
    than the machine's own noise.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = [list(argv) for argv in pools.POOLS[workload]]
    while True:
        batch = [] if COLD[workload] else list(pool)
        for _ in range(1 if COLD[workload] else SESSION_ROUNDS - 1):
            order = list(pool)
            rng.shuffle(order)
            batch += order
        yield batch


def repeat_share(batch, cold):
    """Share of requests that repeat an earlier one in the same process."""
    if cold:
        return 0.0
    return 1.0 - len({pools.key(argv) for argv in batch}) / len(batch)


def _serve(cli, argv, tracer):
    """Answer one request in this process, as the CLI would."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.reset()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv), out)
    except Exception:  # a traceback breaks the CLI contract; it is a failure
        code, error = None, traceback.format_exc().strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    # Only digests go back: a parent holding outputs would hand them to
    # every later child, which then pays for them in fork, RSS and GC.
    return {
        "exit": code,
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "traceback": error,
        "seconds": seconds,
        "oracle": oracles.check(argv, stdout),
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def _child(cli, requests, tracer, stop_at, wfd):
    """Body of a forked serving process: one JSON line per answered request."""
    status = 1
    try:
        with os.fdopen(wfd, "w") as pipe:
            for argv in requests:
                if time.perf_counter() >= stop_at:
                    break
                pipe.write(json.dumps(_serve(cli, argv, tracer)) + "\n")
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def spawn(cli, requests, tracer=None, stop_at=math.inf):
    """Serve requests in order in one forked child.

    Returns the answers, the child's peak RSS in MiB, and whether it ended
    cleanly.  A child that crashes or leaves a request unanswered for
    REQUEST_TIMEOUT_S is killed; its answers so far are kept.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(cli, requests, tracer, stop_at, wfd)
    os.close(wfd)
    answers, pending, ended = [], b"", False
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    try:
        while not ended:
            ready, _, _ = select.select([rfd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            chunk = os.read(rfd, 1 << 16)
            ended = not chunk
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                answers.append(json.loads(line))
                deadline = time.monotonic() + REQUEST_TIMEOUT_S
    finally:
        os.close(rfd)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    return answers, usage.ru_maxrss / 1024, status == 0


def serve(cli, batch, cold, tracer=None, stop_at=math.inf):
    """Serve one batch; return [(argv, answer or None, latency_s)] and peak RSS.

    Latency is the time spent in ``cli.main``, measured in the serving
    process; fork, output hashing and the pipe back are outside it.
    """
    records, peak = [], 0.0
    if cold:
        for argv in batch:
            if time.perf_counter() >= stop_at:
                break
            start = time.perf_counter()
            answers, rss, clean = spawn(cli, [argv], tracer)
            if answers and clean:
                records.append((argv, answers[0], answers[0]["seconds"]))
            else:
                records.append((argv, None, time.perf_counter() - start))
            peak = max(peak, rss)
        return records, peak
    answers, peak, clean = spawn(cli, batch, tracer, stop_at)
    records = [(argv, a, a["seconds"]) for argv, a in zip(batch, answers)]
    if not clean and len(answers) < len(batch):
        records.append((batch[len(answers)], None, REQUEST_TIMEOUT_S))
    return records, peak


def failure(argv, answer, golden):
    """Why an answer is wrong, or None when it matches golden and its oracle."""
    if answer is None:
        return "no answer: timeout or crash"
    if answer["traceback"]:
        return f"traceback: {answer['traceback']}"
    want = golden.get(pools.key(argv))
    if want is None:
        return "no golden output for this request"
    if answer["exit"] != want["exit"]:
        return f"exit {answer['exit']}, golden {want['exit']}"
    if answer["sha256"] != want["sha256"]:
        return "stdout differs from golden"
    return answer["oracle"]


def judge(records, golden):
    """The failed requests among records, each with the reason."""
    failures = []
    for argv, answer, _ in records:
        why = failure(argv, answer, golden)
        if why is not None:
            failures.append({"request": pools.key(argv), "why": why})
    return failures


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each one's share of [0, 1].  The repeats of one request form
    steps in the latencies; when noise reorders samples next to the
    quantile, this moves smoothly where the nearest rank jumps a step.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 50  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(
            sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in points)
        )
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def setup_samples(spawns):
    """Times from a fresh interpreter to espece.cli imported, one per spawn."""
    samples = []
    for _ in range(spawns):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROGRAM, SRC],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("a fresh interpreter could not import espece.cli")
    return samples


def timed_run(cli, workload, seed, seconds):
    """Untraced: whole batches until `seconds` have passed; end-to-end metrics.

    Peak RSS is the median over batches of each batch's peak: the largest
    request process of a cold round, or the session process.
    """
    cold = COLD[workload]
    records, peaks, served = [], [], []
    start = time.perf_counter()
    stop_at = start + MEASURE_LIMIT_S
    for batch in batches(workload, seed):
        got, rss = serve(cli, batch, cold, stop_at=stop_at)
        records += got
        served.append(batch)
        peaks.append(rss)
        if time.perf_counter() - start >= seconds or time.perf_counter() >= stop_at:
            break
    elapsed = time.perf_counter() - start
    latencies = [latency for _, _, latency in records]
    metrics = {
        "req_per_s": (len(records) / elapsed, "1/s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "peak_rss_mib": (statistics.median(peaks), "MiB"),
    }
    extra = {
        "batches": len(served),
        "measured_s": elapsed,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for v in latencies if v > metrics["latency_p90_s"][0]),
        "repeat_share": repeat_share(served[0], cold),
    }
    return metrics, records, extra


def traced_run(cli, workload, seed):
    """One batch untraced, then the same batch traced; per-layer metrics.

    Each pass stops starting requests after half of MEASURE_LIMIT_S, so a
    much slower program still ends in time.
    """
    cold = COLD[workload]
    batch = next(batches(workload, seed))
    start = time.perf_counter()
    plain, _ = serve(cli, batch, cold, stop_at=start + MEASURE_LIMIT_S / 2)
    plain_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    absent = tracing.install(tracer)
    start = time.perf_counter()
    traced, _ = serve(cli, batch, cold, tracer, stop_at=start + MEASURE_LIMIT_S / 2)
    traced_s = time.perf_counter() - start
    totals = tracing.Tracer()
    for _, answer, _ in traced:
        if answer is not None:
            totals.merge(answer["trace"])
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (totals.calls[name], "count")
        metrics[f"{name}.self_s"] = (totals.self_s[name], "s")
    act_calls = totals.counts[tracing.ACT]
    relabels = totals.calls["species.act_structure"]
    metrics[tracing.PERMS] = (totals.counts[tracing.PERMS], "count")
    metrics[tracing.ACT] = (act_calls, "count")
    metrics["groups.action_memo.hit_ratio"] = (
        1.0 - relabels / act_calls if act_calls else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        (len(traced) / traced_s) / (len(plain) / plain_s),
        "ratio",
    )
    metrics["requests.repeat_share"] = (repeat_share(batch, cold), "ratio")
    extra = {
        "batches": 1,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "absent": absent,
    }
    return metrics, plain + traced, extra


def pool_profile(workload):
    """Command mix, largest degree and largest horizon of a pool."""
    pool = pools.POOLS[workload]

    def largest(flag):
        values = [argv[argv.index(flag) + 1] for argv in pool if flag in argv]
        return max((int(v) for v in values if v.isdigit()), default=0)

    mix = collections.Counter(argv[0] for argv in pool)
    return {
        "mix": dict(sorted(mix.items())),
        "max_degree": largest("--degree"),
        "max_horizon": largest("--upto"),
    }


def load_cli():
    """Import espece.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "espece", "cli.py")):
        raise BenchError(f"no espece sources in {SRC}")
    sys.path.insert(0, SRC)
    from espece import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"espece.cli was imported from {cli.__file__}, not {SRC}")
    return cli


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pools.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_cli()
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        setup = [] if args.trace else setup_samples(SETUP_SPAWNS // 2)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, records, extra = traced_run(cli, args.workload, args.seed)
    else:
        metrics, records, extra = timed_run(cli, args.workload, args.seed, args.seconds)
        setup += setup_samples(SETUP_SPAWNS - len(setup))
        metrics["setup_s"] = (statistics.median(setup), "s")
    failures = judge(records, golden)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "requests": len(records),
        "setup_spawns": SETUP_SPAWNS,
        **pool_profile(args.workload),
        **extra,
        "failures": failures[:10],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
