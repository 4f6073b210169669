"""fodelab benchmark: seeded workloads, end-to-end timings and a traced per-module split.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-march --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads are defined in ``workloads.py`` and listed, with the reason for
each, in BENCHMARK.json.  A run warms up, then runs the workload's
operations back to back (one caller, one thread, BLAS pinned to one thread)
until ``--seconds`` have passed, completing at least one whole batch.
Every result is checked against an independent reference.

``--trace 0`` reports the end-to-end metrics:
    batch_s      time of one batch of the workload's operations, the sum
                 over its operations of each one's median normalised time
    setup_s      median normalised time over several fresh interpreters of
                 importing fodelab and running the workload's warm-up
    peak_rss_mb  peak resident memory of the benchmark process

The speed of a shared host drifts by tens of percent within minutes, so
end-to-end times are normalised: while each operation or set-up probe is
timed, ``speed.py`` runs a fixed probe every 10 ms and times it.  The
operation's wall time net of the probes, divided by the mean probe time and
multiplied by the probe's nominal time, is the time the operation would take
on a core that runs the probe at its nominal speed.  The probe uses no
fodelab code, so a change to fodelab moves these times as it moves wall
time.  Raw wall times are printed and recorded alongside.

``--trace 1`` runs each operation untraced and then traced, and reports the
per-layer metrics (per batch, in wall time): self time and calls of fodelab's public
functions, grouped by module, plus counts taken at those calls.  The spans
are written to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run with no
fodelab sources under ``src/`` exits with code 2 and prints no result.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# Fixed environment: one BLAS thread, set before numpy is first imported,
# and no study thread cap inherited from the caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FODELAB_THREADS", None)

import speed  # noqa: E402  (imports numpy, so only after the pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("uniform-march", "study", "graded-post")
PARTS = ("march", "study", "mlf", "energy")


class Session:
    """Counts operations and failures and checks every result."""

    def __init__(self, fodelab):
        self.solver_error = fodelab.SolverError
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.self_checks_ok = True
        self._verified = {}
        self._self_checked = set()

    def run(self, op, tracer=None, sampler=None):
        """Run one operation; returns its wall time, or None if it raised.

        With a sampler the wall time is net of its probes, and the sampler
        holds the mean probe time.
        """
        self.attempted += 1
        try:
            with tracer.recording() if tracer is not None else nullcontext():
                if sampler is None:
                    start = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - start
                else:
                    result, elapsed = sampler.time(op.run)
        except self.solver_error as exc:
            self._fail(op, f"SolverError: {exc}")
            return None
        fingerprint = op.fingerprint(result)
        if self._verified.get(op.name) != fingerprint:
            problems = op.check(result)
            if problems:
                self._fail(op, "; ".join(problems))
                return elapsed
            self._verified[op.name] = fingerprint
            self._self_check(op, result)
        return elapsed

    def _fail(self, op, message):
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{op.name}: {message}")

    def _self_check(self, op, result):
        # Each check must reject deliberately perturbed copies of a result it
        # accepted; otherwise the check cannot be trusted.
        if op.part in self._self_checked:
            return
        self._self_checked.add(op.part)
        for wrong in op.perturb(result):
            if not op.check(wrong):
                self.self_checks_ok = False
                self.problems.append(f"self-check: the {op.part} check accepted a perturbed result")


def _medians(samples):
    return {name: statistics.median(ts) for name, ts in samples.items() if ts}


def _part_times(ops, medians):
    parts = {}
    for op in ops:
        if op.name in medians:
            parts[op.part] = parts.get(op.part, 0.0) + medians[op.name]
    return parts


# Both loops run one whole batch first, then start work only if its last
# run says it will end before the deadline, so a run lasts about
# max(one batch, --seconds).


def measure(session, workload, seconds, sampler):
    """Untraced operations in batch order until the deadline.

    Returns, per operation, (wall time net of probes, mean probe time) samples.
    """
    samples = {op.name: [] for op in workload.ops}
    spent = {}
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.ops:
            start = time.perf_counter()
            if op.name in spent and start + spent[op.name] > deadline:
                return samples
            elapsed = session.run(op, sampler=sampler)
            spent[op.name] = time.perf_counter() - start
            if elapsed is not None:
                samples[op.name].append((elapsed, sampler.probe_s))


def measure_traced(session, workload, seconds, tracer):
    """Batches in which each operation runs once untraced, then once traced.

    Running the two back to back, operation by operation, exposes both to
    the same machine state, so their difference is the tracing overhead.
    """
    untraced = {op.name: [] for op in workload.ops}
    traced = {op.name: [] for op in workload.ops}
    deadline = time.perf_counter() + seconds
    batches = 0
    while True:
        start = time.perf_counter()
        for op in workload.ops:
            for samples, active in ((untraced, None), (traced, tracer)):
                elapsed = session.run(op, active)
                if elapsed is not None:
                    samples[op.name].append(elapsed)
        batches += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return untraced, traced, batches


def probe_setup(workload, seed, sampler):
    """(wall net of probes, mean probe time) for a fresh interpreter to
    import fodelab and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    proc, elapsed = sampler.time(lambda: subprocess.run(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False))
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed, sampler.probe_s


def trace_checks(tracer, summary, traced_wall):
    """Sanity counts of a traced run; returns a list of problems."""
    problems = []
    near = {}
    far = {}
    near_id = tracer.names.index("fraccalc.history_contribution")
    far_id = tracer.names.index("fraccalc.far_history_sum")
    for i, fid in enumerate(tracer.fid):
        if fid == near_id:
            near[tracer.parent[i]] = near.get(tracer.parent[i], 0) + 1
        elif fid == far_id and i in tracer.extra:
            far[tracer.parent[i]] = far.get(tracer.parent[i], 0) + tracer.extra[i][0]
    march_iters = 0
    for i in tracer.spans_of("ldgsolver.march"):
        if i not in tracer.extra:
            continue  # the march raised
        n, fractional, iters = tracer.extra[i]
        march_iters += iters
        pairs = near.get(i, 0) + far.get(i, 0)
        if fractional and pairs != n * (n - 1) // 2:
            problems.append(f"march n={n}: {pairs} history pairs, expected {n * (n - 1) // 2}")
    newton_iters = sum(tracer.extras("ldgsolver.newton_solve"))
    if newton_iters != march_iters:
        problems.append(f"newton_solve returned {newton_iters} iterations, "
                        f"marches report {march_iters}")
    if summary["self_sum_s"] > traced_wall:
        problems.append(f"self times sum to {summary['self_sum_s']:.6f} s, "
                        f"above the traced wall {traced_wall:.6f} s")
    return problems


def _far_flops(sources, kp1, terms):
    """Floating-point operations of one far_history_sum call, from its shapes."""
    width = terms + 1
    return sources * (2 * kp1 * width + 4 * width + 2 * width * width) + 2 * width * (width + kp1)


def layer_metrics(tracer, summary, workload, untraced, traced, batches, fodelab):
    """Per-layer metrics, per batch."""
    functions = summary["functions"]
    per = 1.0 / batches
    metrics = {f"{layer}.self_s": per * seconds for layer, seconds in summary["layers"].items()}
    for name, entry in functions.items():
        metrics[f"{name}.self_s"] = per * entry["self_s"]
        metrics[f"{name}.total_s"] = per * entry["total_s"]
        metrics[f"{name}.calls"] = per * entry["calls"]

    far_calls = tracer.extras("fraccalc.far_history_sum")
    pairs = sum(sources for sources, _ in far_calls)
    flops = sum(_far_flops(sources, kp1, fodelab.fraccalc.MULTIPOLE_TERMS)
                for sources, kp1 in far_calls)
    far_self = functions["fraccalc.far_history_sum"]["self_s"]
    metrics["fraccalc.far_history_sum.pairs"] = per * pairs
    metrics["fraccalc.far_history_sum.ns_per_pair"] = 1e9 * far_self / pairs if pairs else 0.0
    metrics["fraccalc.far_history_sum.mflop_computed"] = per * flops / 1e6
    metrics["ldgsolver.newton_iters"] = per * sum(tracer.extras("ldgsolver.newton_solve"))
    metrics["cli.run_convergence_study.flags"] = per * sum(tracer.extras("cli.run_convergence_study"))

    plain = _medians(untraced)
    marches = {(op.tags["problem"], op.tags["n"]): plain.get(op.name)
               for op in workload.ops if op.part == "march"}
    for problem in ("L1", "N1", "N4"):
        small, large = marches.get((problem, 256)), marches.get((problem, 1024))
        exponent = math.log(large / small) / math.log(4.0) if small and large else 0.0
        metrics[f"ldgsolver.march.scaling_exp.{problem}"] = exponent
    parts = _part_times(workload.ops, plain)
    for part in PARTS:
        metrics[f"part.{part}_s"] = parts.get(part, 0.0)
    traced_parts = _part_times(workload.ops, _medians(traced))
    metrics["trace.overhead_s"] = sum(traced_parts.values()) - sum(parts.values())
    metrics["trace.wall_s"] = per * sum(sum(ts) for ts in traced.values())
    return metrics


def environment(fodelab):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "fodelab": fodelab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _declared(kind):
    """Entries of BENCHMARK.json, which names every metric and workload."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def run_workload(args, fodelab, workloads, tracer_module):
    workload = workloads.build(args.workload, args.seed)
    env = environment(fodelab)
    sampler = speed.SpeedSampler()
    setup = [] if args.trace else [probe_setup(args.workload, args.seed, sampler)
                                   for _ in range(SETUP_PROBES)]
    workload.warm_up()
    session = Session(fodelab)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": workload.inputs,
              "why": next(w["why"] for w in _declared("workloads") if w["name"] == workload.name)}

    if args.trace:
        tracer = tracer_module.Tracer(fodelab)
        untraced, traced, batches = measure_traced(session, workload, args.seconds, tracer)
        traced_wall = sum(sum(ts) for ts in traced.values())
        summary = tracer.summary()
        problems = trace_checks(tracer, summary, traced_wall)
        session.problems += problems
        values = layer_metrics(tracer, summary, workload, untraced, traced, batches, fodelab)
        declared = _declared("per_layer")
        record["samples"] = {"untraced": untraced, "traced": traced}
        record["batches"] = batches
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        record["spans"] = spans.name
        trace_ok = not problems
    else:
        samples = measure(session, workload, args.seconds, sampler)
        parts = _part_times(workload.ops, _medians(
            {name: [speed.normalised(*s) for s in ts] for name, ts in samples.items()}))
        wall_parts = _part_times(workload.ops, _medians(
            {name: [wall for wall, _ in ts] for name, ts in samples.items()}))
        values = {
            "batch_s": sum(parts.values()),
            "setup_s": statistics.median(speed.normalised(*s) for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared("end_to_end")
        record["nominal_probe_s"] = speed.NOMINAL_PROBE_S
        record["samples"] = samples
        record["setup_samples"] = setup
        record["parts_s"] = parts
        record["wall"] = {"parts_s": wall_parts, "batch_s": sum(wall_parts.values()),
                          "setup_s": statistics.median(wall for wall, _ in setup)}
        trace_ok = True

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = session.failed == 0 and session.self_checks_ok and trace_ok
    result = {"correct": correct, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    record.update(result)
    record["problems"] = session.problems
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload.name} seed={args.seed} inputs={json.dumps(workload.inputs)}")
    print(f"# env {json.dumps(env)}")
    if not args.trace:
        for part, seconds in record["parts_s"].items():
            print(f"{workload.name:14s} {part + '_s':42s} {seconds:12.6f} s (part of batch_s)")
        wall = record["wall"]
        for name in ("batch_s", "setup_s"):
            print(f"{workload.name:14s} {'wall ' + name:42s} {wall[name]:12.6f} s (not normalised)")
    for name, metric in metrics.items():
        print(f"{workload.name:14s} {name:42s} {metric['value']:12.6f} {metric['unit']}")
    print(f"{workload.name:14s} operations attempted {session.attempted}, failed {session.failed}")
    for problem in session.problems:
        print(f"# problem: {problem}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "fodelab" / "__init__.py").is_file():
        print(f"error: no fodelab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import fodelab
    import tracer
    import workloads

    if Path(fodelab.__file__).resolve().parent != SRC / "fodelab":
        print(f"error: imported fodelab from {fodelab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.build(args.workload, args.seed).warm_up()
        return 0
    return run_workload(args, fodelab, workloads, tracer)


if __name__ == "__main__":
    sys.exit(main())
