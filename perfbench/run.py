"""End-to-end and per-layer benchmark of the rpqcalc CLI.

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Each workload is a closed loop
with one client: this process starts one ``python3 -m rpqcalc.cli``
process at a time (``src`` on ``PYTHONPATH``), waits for it to exit and
times it from spawn to exit.  The seed picks one pass of commands from
the workload's pool (see ``workloads.py``); the pass is replayed at
least three times and until ``--seconds`` have elapsed.  Every command's exit code and stdout
sha256 are checked against ``pins.json``.

``--trace 1`` replays the same pass alternately through
``trace_boot.py`` (per-layer spans and counts) and untraced, and
reports the per-layer metrics.  Untraced runs never import the tracer.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts commands
with an unexpected exit code, a stdout digest mismatch or a timeout;
``correct`` is false when a command exited as pinned but printed
something else.  ``--record-pins`` runs every pool entry once and
rewrites ``pins.json`` from the current source.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shlex
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
BOOT = HERE / "trace_boot.py"
TRACE_MARK = "PERFBENCH_TRACE "  # trace_boot.MARK; never imported here

HELD_OUT_SEED = 90217   # kept back: a gain must also hold on this seed
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0     # no new command is started after this
MIN_PASSES = 3          # a run reports medians over at least 3 passes
TAIL_BEYOND = 10        # samples required above the tail percentile


@dataclass
class Run:
    wall_s: float
    code: int
    sha256: str
    stdout_bytes: int
    stderr: str
    maxrss_kb: int
    timed_out: bool


def run_process(cmd, timeout):
    """Run ``cmd`` from the checkout root; stream stdout into a digest."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    digest = hashlib.sha256()
    nbytes, err, timed_out = 0, bytearray(), False
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - perf_counter()
                if left <= 0:
                    timed_out = True
                    os.kill(proc.pid, signal.SIGKILL)
                    break
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        nbytes += len(chunk)
                    else:
                        err += chunk
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        # reap here, not through Popen, to read the child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Run(wall, proc.returncode, digest.hexdigest(), nbytes,
               err.decode("utf-8", "replace"), usage.ru_maxrss, timed_out)


def cli_cmd(argv, traced=False):
    if traced:
        return [sys.executable, str(BOOT), *argv]
    return [sys.executable, "-m", "rpqcalc.cli", *argv]


def pin_key(argv):
    return shlex.join(argv)


# -- set-up and provenance ------------------------------------------------------

def python_c(code, *flags):
    run = run_process([sys.executable, *flags, "-c", code], COMMAND_TIMEOUT_S)
    if run.code != 0 or run.timed_out:
        raise SystemExit(f"set-up command failed ({run.code}): {run.stderr}")
    return run


def importtime_us(stderr):
    """Cumulative -X importtime microseconds of top-level rpqcalc imports."""
    total = 0
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].startswith(" rpqcalc") \
                and not fields[2].startswith("  "):
            total += int(fields[1])
    return total


def measure_setup(traced):
    python_c("import rpqcalc.cli")  # warm the bytecode cache once
    floor, setup = [], []
    for _ in range(SETUP_SAMPLES):
        floor.append(python_c("pass").wall_s)
        setup.append(python_c("import rpqcalc.cli").wall_s)
    out = {"import.floor_s": floor, "setup_s": setup}
    if traced:
        out["import.rpqcalc_us"] = [
            importtime_us(python_c("import rpqcalc.cli",
                                   "-X", "importtime").stderr)
            for _ in range(IMPORTTIME_SAMPLES)]
    return out


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed):
    backend = python_c(
        "import sys, rpqcalc; sys.stderr.write(rpqcalc.KERNEL_BACKEND)")
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": backend.stderr.strip(),
        "rpqcalc_pure": bool(os.environ.get("RPQCALC_PURE")),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- correctness gate -------------------------------------------------------------

def load_pins():
    return json.loads(PINS.read_text())["pins"]


def verdict(argv, run, pins):
    """'ok', 'failed' (exit code or timeout) or 'wrong' (stdout digest)."""
    pin = pins[pin_key(argv)]
    if run.timed_out or run.code != pin["exit"]:
        return "failed"
    return "ok" if run.sha256 == pin["sha256"] else "wrong"


def record_pins():
    """Run every pool entry once and pin its exit code and stdout."""
    pins = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.pool(name):
            key = pin_key(argv)
            if key in pins:
                continue
            run = run_process(cli_cmd(workloads.expected_as(argv)),
                              COMMAND_TIMEOUT_S)
            if run.code != 0 or run.timed_out:
                print(f"warning: exit {run.code}: {key}", file=sys.stderr)
            pins[key] = {"exit": run.code, "sha256": run.sha256,
                         "bytes": run.stdout_bytes}
    PINS.write_text(json.dumps(
        {"recorded_at": {"git_sha": git_sha(), "src_sha256": src_sha256(),
                         "python": platform.python_version()},
         "pins": pins}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} commands in {PINS.relative_to(ROOT)}")


# -- the closed loop -----------------------------------------------------------------

class Loop:
    """Runs commands one at a time and keeps the gate's tally."""

    def __init__(self, pins, started):
        self.pins = pins
        self.started = started
        self.attempted = self.failed = self.wrong = 0

    def over(self):
        return perf_counter() - self.started > RUN_LIMIT_S

    def replay(self, cmds, traced=False):
        """One pass over ``cmds``; returns (elapsed seconds, runs)."""
        runs = []
        t0 = perf_counter()
        for argv in cmds:
            if self.over():
                break
            run = run_process(cli_cmd(argv, traced), COMMAND_TIMEOUT_S)
            v = verdict(argv, run, self.pins)
            self.attempted += 1
            if v != "ok":
                self.failed += 1
                self.wrong += v == "wrong"
                print(f"{v}: exit {run.code}: {pin_key(argv)}",
                      file=sys.stderr)
            runs.append(run)
        return perf_counter() - t0, runs


def tail(values):
    """The highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(values)
    i = max(0, len(s) - TAIL_BEYOND - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(loop, cmds, seconds):
    """Replay the pass at least MIN_PASSES times and for ``seconds``.

    ``cmds_per_s`` and ``cmd_wall_p50_s`` are medians over passes, so a
    pass slowed by the host counts once; the tail is taken over all runs
    of all passes."""
    rates, p50s, walls, rss, elapsed = [], [], [], 0, 0.0
    while len(rates) < MIN_PASSES or elapsed < seconds:
        dt, runs = loop.replay(cmds)
        done = [r.wall_s for r in runs if not r.timed_out]
        elapsed += dt
        rates.append(len(done) / dt)
        p50s.append(statistics.median(done))
        walls += done
        rss = max([rss] + [r.maxrss_kb for r in runs])
        if loop.over():
            break
    tail_s, tail_pct = tail(walls)
    n, k = len(walls), len(rates)
    return k, {
        "cmds_per_s": (statistics.median(rates), "1/s", n,
                       f"median of {k} passes"),
        "cmd_wall_p50_s": (statistics.median(p50s), "s", n,
                           f"median of {k} passes"),
        "cmd_wall_tail_s": (tail_s, "s", n, f"p{tail_pct:.1f}"),
        "fail_ratio": (loop.failed / loop.attempted, "ratio",
                       loop.attempted, ""),
        "peak_rss_mb": (rss / 1024, "MB", loop.attempted, ""),
    }


LAYER_TIMES = ("cli", "deform", "series", "gammabeta", "kernel", "padicfun",
               "spinzeta", "poly", "quadrature")
# per-layer metric -> (where in the trace summary, key)
TRACE_COUNTS = {
    "deform.rpq_number_calls": ("functions", "deform.rpq_number"),
    "deform.rpq_factorial_calls": ("functions", "deform.rpq_factorial"),
    "series.calls": ("calls", "series"),
    "gammabeta.calls": ("calls", "gammabeta"),
    "gammabeta.product_terms": ("counts", "gammabeta.product_terms"),
    "kernel.calls": ("calls", "kernel"),
    "kernel.elements": ("counts", "kernel.elements"),
    "padicfun.riemann_levels": ("counts", "padicfun.riemann_levels"),
    "padicfun.riemann_residues": ("counts", "padicfun.riemann_residues"),
    "padicfun.factorial_terms": ("counts", "padicfun.factorial_terms"),
    "padic.ctor_count": ("counts", "padic.ctor_count"),
    "padic.is_prime_calls": ("counts", "padic.is_prime_calls"),
    "padic.ops": ("counts", "padic.ops"),
}
TRACE_MAXIMA = {"deform.max_fraction_bits": "bit",
                "gammabeta.value_bits": "bit"}


def trace_summary(argv, run):
    for line in run.stderr.splitlines():
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    raise SystemExit(f"no trace from: {pin_key(argv)}\n{run.stderr}")


def per_layer(loop, cmds, seconds):
    """Alternate traced and untraced replays of one pass."""
    traced_s, plain_s, layer_s, elapsed = [], [], [], 0.0
    counts = maxima = stdout_bytes = None
    while True:
        dt, runs = loop.replay(cmds, traced=True)
        elapsed += dt
        traced_s.append(dt)
        # a killed command leaves no trace; it already counts as failed
        summaries = [trace_summary(a, r) for a, r in zip(cmds, runs)
                     if not r.timed_out]
        layer_s.append({layer: sum(s["self_s"][layer] for s in summaries)
                        for layer in LAYER_TIMES})
        if counts is None:
            counts = {m: sum(s[where].get(key, 0) for s in summaries)
                      for m, (where, key) in TRACE_COUNTS.items()}
            maxima = {m: max(s["maxima"].get(m, 0) for s in summaries)
                      for m in TRACE_MAXIMA}
            stdout_bytes = sum(r.stdout_bytes for r in runs)
        dt, _ = loop.replay(cmds)
        elapsed += dt
        plain_s.append(dt)
        if elapsed >= seconds or loop.over():
            break
    n = len(traced_s)
    out = {f"{layer}.self_s": (statistics.median(x[layer] for x in layer_s),
                               "s", n, "")
           for layer in LAYER_TIMES}
    out.update({m: (v, "count", 1, "") for m, v in counts.items()})
    out.update({m: (v, TRACE_MAXIMA[m], 1, "") for m, v in maxima.items()})
    out["cli.stdout_bytes"] = (stdout_bytes, "bytes", 1, "")
    # traced cmds_per_s / untraced cmds_per_s over the same pass
    out["trace.overhead_ratio"] = (
        statistics.median(plain_s) / statistics.median(traced_s),
        "ratio", n, "")
    return n, out


# -- reporting -------------------------------------------------------------------------

def median_metric(samples, unit):
    return (statistics.median(samples), unit, len(samples), "")


def report(name, seed, trace, seconds, pins):
    prov = provenance(seed)
    setup = measure_setup(trace)
    metrics = {"setup_s": median_metric(setup["setup_s"], "s"),
               "import.floor_s": median_metric(setup["import.floor_s"], "s")}
    cmds = workloads.draw(name, random.Random(seed))
    loop = Loop(pins, perf_counter())
    if trace:
        metrics["import.rpqcalc_us"] = median_metric(
            setup["import.rpqcalc_us"], "us")
        passes, layer = per_layer(loop, cmds, seconds)
        metrics.update(layer)
    else:
        passes, e2e = end_to_end(loop, cmds, seconds)
        metrics.update(e2e)
    print(f"# workload {name}: {len(cmds)} commands a pass, {passes} "
          f"{'traced+untraced pairs' if trace else 'passes'}, "
          f"{loop.attempted} attempted, {loop.failed} failed")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# {'metric':28} {'value':>16} {'unit':8} {'n':>5}")
    for metric, (value, unit, n, note) in metrics.items():
        print(f"# {metric:28} {value:16.6g} {unit:8} {n:5d} {note}")
    wanted = bench_metrics(trace)
    return {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                    for m in wanted},
    }


def bench_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "rpqcalc" / "cli.py").is_file():
        print(f"no rpqcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_pins:
        record_pins()
        return 0
    pins = load_pins()
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        result = report(name, args.seed, args.trace, args.seconds, pins)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
