"""nullcartan benchmark: one workload, one seed, one timed closed loop.

Run from the root of a source checkout:

    python3 bench/run.py --workload frames --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory; nothing needs
to be installed.  Inputs are generated from ``--seed``, set-up is repeated and
timed, then ops run back to back (one caller, closed loop) until
``--seconds`` have passed; every op's results are checked against
theorem-derived expectations, and a failed check or an unexpected exception
counts as a failed op without stopping the run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken with
the span collector of ``spans.py`` installed after an untraced lead-in whose
op times give the tracing overhead.  The line before it carries run
metadata (versions, machine, load, host speed probes, raw wall times, tail
percentile); a traced run adds a per-layer table with per-call times.

Times that carry a bound (``setup_s``, ``ops_per_s``, ``op_p50_s``,
``op_tail_s``) are host-normalized.  Set-up and ops are cut into steps of
a fraction of a second to a few seconds (an op's steps are the ``yield``
points of its workload, or its CLI runs).  A fixed probe loop of bytecode
and small numpy calls runs between steps, outside every time, and each
step's wall time is scaled by ``PROBE_REF_S`` over the mean of the two
probe times around it.
On a shared virtual machine the speed of a core drifts by tens of percent
within minutes, and op times follow it; scaled, a time reads as seconds on
a host where the probe takes ``PROBE_REF_S``.  The run pins itself and its
children to one CPU, so the probes time the core the work runs on.  The raw
wall times are in the metadata line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
CHILD_TIMEOUT = 60
PROBE_LOOP = 50_000
PROBE_NUMPY = 350
PROBE_A = np.linspace(0.1, 1.0, 8)
PROBE_B = np.linspace(1.0, 2.0, 8)
PROBE_REF_S = 0.004
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nullcartan.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Environment and metadata
# ---------------------------------------------------------------------------

def source_root():
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nullcartan", "cli.py")):
        sys.exit(f"bench: no src/nullcartan under {root}; run from a source checkout")
    return root, src


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def host_probe_s():
    """Time of a fixed loop of bytecode and of small-array numpy calls, the
    mix the library's jet arithmetic is made of: the host's speed at that
    moment.  It runs no library code, so no change to the library moves it."""
    t0 = time.perf_counter()
    x = 0
    for j in range(PROBE_LOOP):
        x += j
    a, b = PROBE_A, PROBE_B
    for _ in range(PROBE_NUMPY):
        c = np.convolve(a, b)[:8]
        d = np.dot(a[:4], b[4:])
        a = (c * 0.5 + d) / (1.0 + d)
    return time.perf_counter() - t0


def host_probe_ms():
    return 1e3 * statistics.median(host_probe_s() for _ in range(5))


class Clock:
    """Wall time of steps, raw and scaled to a host where the probe takes
    PROBE_REF_S.  The probe after one step is the probe before the next."""

    def __init__(self):
        self.probe = host_probe_s()
        self.start()

    def start(self):
        self.raw = self.scaled = 0.0

    def step(self, seconds):
        after = host_probe_s()
        self.raw += seconds
        self.scaled += seconds * PROBE_REF_S / ((self.probe + after) / 2.0)
        self.probe = after


def source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "nullcartan")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root):
    """HEAD of the checkout, or None when it is not the top of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def metadata(root, src):
    import nullcartan

    # scipy's version is read from its metadata: importing it here would add
    # its memory to peak_rss_mb even once the library stops importing it
    return {"git_sha": git_sha(root), "src_sha256": source_digest(src),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "nullcartan": nullcartan.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg(), "host_probe_ms_start": host_probe_ms()}


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class Runner:
    """Set-up and op execution for one workload, traced or not."""

    def __init__(self, name, seed, root, src, workdir):
        self.name = name
        self.seed = seed
        self.root = root
        self.env = child_env(src)
        self.workdir = workdir
        self.tracer = None
        self.errors = []
        self.child_wall = {}
        self.clock = Clock()

    def _child(self, argv):
        return subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)

    def setup_once(self):
        """Cold import in a fresh interpreter, then inputs and set-up objects."""
        clock = self.clock
        clock.start()
        probe = self._child(["-c", IMPORT_PROBE])
        if probe.returncode:
            raise RuntimeError(f"import probe failed: {probe.stderr.strip()}")
        clock.step(float(probe.stdout.strip().splitlines()[-1]))
        t0 = time.perf_counter()
        workload = WORKLOADS[self.name](np.random.default_rng(self.seed))
        if self.name == "cli_cold":
            workload.build(self.workdir)
        else:
            workload.build()
        clock.step(time.perf_counter() - t0)
        return workload

    def setup(self):
        """Medians of the normalized and of the raw set-up times."""
        times, raw = [], []
        for _ in range(SETUP_REPEATS):
            self.workload = self.setup_once()
            times.append(self.clock.scaled)
            raw.append(self.clock.raw)
        return statistics.median(times), statistics.median(raw)

    def run_op(self):
        """Run one op; returns (ok, per-op trace record or None).

        Its times are left in ``self.clock``.
        """
        tracer = self.tracer
        clock = self.clock
        clock.start()
        record = None
        ok = True
        if self.name == "cli_cold":
            records = []
            for command in self.workload.COMMANDS:
                ok &= self._cli_run(command, records)
            if tracer is not None:
                record = merge_records(records)
            return ok, record
        if tracer is not None:
            tracer.begin_op()
        steps = self.workload.op()
        done = False
        while not done:
            t0 = time.perf_counter()
            try:
                next(steps)
            except StopIteration:
                done = True
            except Exception as exc:  # a failed op is counted, never fatal
                ok = False
                done = True
                self._note(exc)
            clock.step(time.perf_counter() - t0)
        if tracer is not None:
            record = tracer.end_op()
        return ok, record

    def _cli_run(self, command, records):
        argv = self.workload.argv(command)
        record_path = os.path.join(self.workdir, "record.json")
        if self.tracer is None:
            cmd = ["-m", "nullcartan.cli", *argv]
        else:
            cmd = [os.path.join(HERE, "cli_child.py"), record_path, *argv]
        t0 = time.perf_counter()
        try:
            proc = self._child(cmd)
            dt = time.perf_counter() - t0
            self.clock.step(dt)
            if self.tracer is None:
                self.child_wall.setdefault(command, []).append(dt)
            self.workload.verify(command, proc.returncode, proc.stdout)
            if self.tracer is not None:
                with open(record_path, encoding="utf-8") as fh:
                    records.append(json.load(fh))
            return True
        except Exception as exc:  # wrong exit code/verdict, crash, bad report
            self._note(exc)
            return False

    def _note(self, exc):
        if len(self.errors) < 5:
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            self.errors.append(detail)
            print(f"bench: {self.name} op failed: {detail}", file=sys.stderr)


def merge_records(records):
    spans, counts, root = {}, {}, 0.0
    for rec in records:
        for name, (calls, total, self_s) in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
        root += rec["root_s"]
    return {"spans": spans, "counts": counts, "root_s": root}


def run_loop(runner, seconds, min_ops=1):
    """Closed loop: ops back to back for about ``seconds``.

    Returns the normalized and the raw op latencies, the failed op count and
    the trace records.  The next op starts while at least half a median op
    remains, so a run ends, on average, at the deadline rather than one op
    after it.
    """
    latencies, raw, failed = [], [], 0
    records = []
    start = time.perf_counter()
    while True:
        ok, record = runner.run_op()
        latencies.append(runner.clock.scaled)
        raw.append(runner.clock.raw)
        failed += not ok
        if record is not None:
            records.append(record)
        remaining = seconds - (time.perf_counter() - start)
        if remaining < statistics.median(raw) / 2 and len(raw) >= min_ops:
            break
    return latencies, raw, failed, records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    With n >= 20 sorted samples that is the (n-10)-th one, at percentile
    100 (n-10)/n.  Fewer than 20 samples cannot resolve a tail above the
    median, so the median is reported at percentile 50.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return statistics.median(xs), 50.0


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(records, op_seconds, traced, untraced):
    """Per-op means of span counts and self times, ratios over the whole run.

    Span times and ``op_seconds`` are raw wall times; ``traced`` and
    ``untraced`` are the normalized op latencies of the two parts of the run.
    """
    ops = len(records)
    total = merge_records(records)
    spans, counts = total["spans"], total["counts"]

    def per_op(name, field):  # field 0: calls, 1: inclusive s, 2: self s
        return spans.get(name, [0, 0.0, 0.0])[field] / ops

    def ratio(num, den):
        return counts.get(num, 0) / den if den else 0.0

    m = {"cli.import_s": per_op("cli.import", 1), "cli.load_s": per_op("cli.load", 1),
         "cli.render_s": per_op("cli.render", 1)}
    for command in ("classify", "frame", "bertrand", "sphere"):
        m[f"cli.main_s.{command}"] = per_op(f"cli.main.{command}", 1)
    for name in ("expr.parse", "expr.jet_eval", "metric.inner_jet", "curve.vec_jet",
                 "metric.sequence_report", "curve.classify", "frame.frame_jets",
                 "constructions.frenet_vec_jet", "curve.table_build",
                 "curve.table_solve", "constructions.synthesize"):
        m[f"{name}.calls"] = per_op(name, 0)
        m[f"{name}.self_s"] = per_op(name, 2)
    for name in ("frame.frenet_residuals", "curve.pseudo_arc_reparam",
                 "constructions.bertrand", "constructions.sphere",
                 "constructions.evolute", "constructions.involute"):
        m[f"{name}.self_s"] = per_op(name, 2)
    m["frame.frame_jets.repeat_ratio"] = ratio("frame.frame_jets.repeats",
                                               per_op("frame.frame_jets", 0) * ops)
    m["curve.integrand_evals_per_node"] = ratio("curve.integrand_evals",
                                                counts.get("curve.table_nodes", 0))
    m["constructions.rk4_steps"] = counts.get("constructions.rk4_steps", 0) / ops
    for cache in ("constructions.state_cache", "constructions.evolute_cache"):
        lookups = counts.get(f"{cache}.hits", 0) + counts.get(f"{cache}.misses", 0)
        m[f"{cache}.hit_ratio"] = ratio(f"{cache}.hits", lookups)
    traced_p50 = statistics.median(traced)
    m["trace.op_p50_s"] = traced_p50
    m["trace.overhead_s"] = traced_p50 - statistics.median(untraced)
    m["trace.uncovered_share"] = 1.0 - total["root_s"] / sum(op_seconds)
    table = {name: {"calls_per_op": c / ops, "ms_per_call": 1e3 * t / c,
                    "self_ms_per_call": 1e3 * s / c}
             for name, (c, t, s) in sorted(spans.items()) if c}
    return m, table


def layer_units(name):
    if name.endswith(("calls", "steps", "per_node")):
        return "count"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "s"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root, src = source_root()
    # One CPU for this process and its children, so that the host probes
    # time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    import nullcartan
    if not os.path.realpath(nullcartan.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"bench: imported nullcartan from {nullcartan.__file__}, not {src}")
    meta = metadata(root, src)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)

    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp-") as workdir:
        runner = Runner(args.workload, args.seed, root, src, workdir)
        setup_s, raw_setup_s = runner.setup()
        if args.trace:
            untraced, raw0, failed0, _ = run_loop(runner, args.seconds / 3.0, min_ops=2)
            runner.tracer = Tracer()
            if args.workload != "cli_cold":
                runner.tracer.install()
            traced, raw1, failed1, records = run_loop(runner, args.seconds * 2.0 / 3.0,
                                                      min_ops=2)
            latencies, raw, failed = untraced + traced, raw0 + raw1, failed0 + failed1
            metrics, table = layer_metrics(records, raw1, traced, untraced)
            metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in metrics.items()}
        else:
            latencies, raw, failed, _ = run_loop(runner, args.seconds)
            op_tail, pct = tail(latencies)
            values = {"setup_s": setup_s,
                      "ops_per_s": (len(latencies) - failed) / sum(latencies),
                      "op_p50_s": statistics.median(latencies),
                      "op_tail_s": op_tail,
                      "ok_ratio": (len(latencies) - failed) / len(latencies),
                      "peak_rss_mb": peak_rss_mb(args.workload)}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            meta.update(op_tail_percentile=pct, op_samples=len(latencies),
                        raw_ops_per_s=(len(raw) - failed) / sum(raw),
                        raw_op_p50_s=statistics.median(raw))

    meta.update(loadavg_end=loadavg(), host_probe_ms_end=host_probe_ms(),
                setup_s=setup_s, raw_setup_s=raw_setup_s, errors=runner.errors,
                op_latencies_s=[round(x, 4) for x in latencies],
                raw_op_latencies_s=[round(x, 4) for x in raw],
                cli_child_wall_s={k: statistics.median(v)
                                  for k, v in runner.child_wall.items()})
    print(json.dumps({"meta": meta}))
    if args.trace:
        print(json.dumps({"layers": table}))
    print(json.dumps({"correct": failed == 0, "attempted": len(latencies),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
