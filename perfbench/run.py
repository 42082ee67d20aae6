#!/usr/bin/env python3
"""The twistrb benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/` of
that checkout (pure Python, nothing to build).  Set-up generates the seeded
instances, computes every job's expected answer on a route apart from the
timed path, and warms up; it is repeated `SETUP_REPEATS` times and its
median reported.  Then whole passes over the job list run back to back, a
job starting only when the previous one has returned, until `--seconds`
have elapsed.  Each job is an in-process `twistrb.cli.main([...])` call (or
a library call where the CLI has no command); its exit code and output are
gated, later passes must repeat the first byte for byte, and a digest of the
first pass is printed so that two commits can be compared.  With
`--trace 0`, every time is scaled to a reference machine speed measured
during the run (see speed.py); the raw times are printed beside them.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
pass, then traced passes, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.  The exit
code is 0 when every job's output is correct, 1 when one is not, 2 when the
library cannot be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohomology-ladder", "verify-sweep", "deform-probe")
SETUP_REPEATS = 3
DEADLINE_S = 150.0
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"

# Harness time (outside every job span) above this share of a traced pass means
# work the spans do not cover.
HARNESS_SHARE_MAX = 0.02

# Per-layer metrics in the JSON line: the counts and times that are non-zero on
# every workload; the rest are printed only (see README.md).
PER_LAYER_JSON = (
    "exactlin.matmul.s",
    "multilin.unshuffle.terms", "multilin.eval_mixed.calls", "multilin.skew_eval.calls",
    "liealg.ce_differential_cochain.calls",
    "liealg.validate_lie.s", "liealg.validate_rep.s", "liealg.is_two_cocycle.s",
    "linfty.bracket2.calls", "linfty.bracket2.s", "linfty.bracket3.calls", "linfty.bracket3.s",
    "operators.check_trb.calls", "operators.check_trb.s",
    "instances.load_instance.s", "instances.bytes", "cli.main.self_s", "cli.output_bytes",
    "exactlin.self_s", "multilin.self_s", "liealg.self_s", "operators.self_s",
    "linfty.self_s", "instances.self_s", "cli.self_s", "harness.self_s",
)

# Jobs whose time is reported as a time to solution at a stated size, as "<job>_s"
STATED_SIZE = ("cohom_t.h5_dense", "ce.h7_sparse", "ce.h7_dense", "rigidity.h5_dense", "reps.h5_dense")


def parse_args(argv):
    p = argparse.ArgumentParser(description="twistrb benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_job(cli, job, tracer=None):
    """(exit code, stdout, (start, end)); a raised exception counts as a wrong answer."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        idx = None
        if tracer is not None:
            tracer.job = job.name
            idx = tracer.open("cli.main" if job.call is None else "harness.call")
        try:
            code = job.call() if job.call is not None else cli.main(job.argv)
        except Exception:  # noqa: BLE001 - a crash is a wrong answer, not a harness failure
            code, out = -1, io.StringIO(traceback.format_exc())
        finally:
            if idx is not None:
                tracer.close(idx)
    return code, out.getvalue(), (t0, perf_counter())


def run_passes(cli, jobs, seconds, stop_at, tracer=None, on_pass=None):
    """Whole passes until `seconds` elapse (at least one); returns the passes."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        results = [run_job(cli, job, tracer) for job in jobs]
        t1 = perf_counter()
        wall = t1 - t0
        passes.append({"wall": wall, "span": (t0, t1), "results": results})
        if on_pass is not None:
            on_pass(passes[-1], wall)
        now = perf_counter()
        if now - start >= seconds or now + wall > stop_at:
            return passes


def gate(jobs, passes):
    """One message per wrong attempt.  The first pass is judged by the gates; a
    later attempt is wrong when it differs from the first or repeats a wrong one."""
    failures = []
    wrong = set()
    first = passes[0]["results"]
    for k, (job, (code, out, _)) in enumerate(zip(jobs, first)):
        try:
            msg = job.check(code, out)
        except Exception as exc:  # noqa: BLE001 - unparsable output is a wrong answer
            msg = f"gate raised {type(exc).__name__}: {exc}"
        if msg:
            wrong.add(k)
            failures.append(f"{job.name}: {msg}")
    for n, p in enumerate(passes[1:], 2):
        for k, (job, (c0, o0, _), (c, o, _)) in enumerate(zip(jobs, first, p["results"])):
            if (c, o) != (c0, o0):
                failures.append(f"{job.name}: pass {n} differs from the first pass")
            elif k in wrong:
                failures.append(f"{job.name}: pass {n} repeats the wrong first answer")
    return failures


def digest(jobs, results) -> str:
    h = hashlib.sha256()
    for job, (code, out, _) in zip(jobs, results):
        h.update(f"{job.name}\0{code}\0{out}\0".encode())
    return h.hexdigest()


def tail(values):
    """Highest percentile with at least ten values beyond it; the maximum below 11 values."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], f"max of {n}"
    return v[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}, 10 beyond"


def job_medians(jobs, passes, clock):
    return {job.name: statistics.median(clock(*p["results"][k][2]) for p in passes) for k, job in enumerate(jobs)}


def end_to_end(jobs, passes, setup_spans, clock):
    """Metrics in seconds at the reference speed: `clock(start, end)` scales an interval."""
    med = job_medians(jobs, passes, clock)
    per_job = list(med.values())
    t_val, t_desc = tail(per_job)
    setup_times = [clock(*span) for span in setup_spans]
    walls = [clock(*p["span"]) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
        "job_tail_ms": (1000 * t_val, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(passes)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: " + ", ".join(f"{t:.3f}" for t in setup_times)
        + " s; raw: " + ", ".join(f"{b - a:.3f}" for a, b in setup_spans) + " s",
        "wall_s": f"median of {n} passes: " + ", ".join(f"{w:.3f}" for w in walls)
        + " s; raw: " + ", ".join(f"{p['wall']:.3f}" for p in passes) + " s",
        "job_p50_ms": f"median over {len(per_job)} jobs, each the median of {n} passes",
        "job_tail_ms": t_desc,
    }
    stated = {f"{k}_s": v for k, v in med.items() if k in STATED_SIZE}
    return metrics, notes, stated


def layer_metrics(summaries):
    """Per-layer figures: counts from the first traced pass, times as medians.
    A fraction with a zero denominator is None (undefined), not 0."""

    def med(get):
        return statistics.median(get(s) for s in summaries)

    def incl(name):
        return med(lambda s: s["inclusive_s"].get(name, 0.0))

    def calls(name):
        return summaries[0]["calls"].get(name, 0)

    first = summaries[0]
    counts = first["counts"]
    rank_calls = calls("exactlin.rank")
    attempts = counts.get("deform.nijenhuis_attempts", 0)
    cells = counts.get("exactlin.rref.cells", 0)
    m = {
        "exactlin.rref.calls": (calls("exactlin.rref"), "count"),
        "exactlin.rref.cells": (cells, "count"),
        "exactlin.rref.nnz_frac": (counts.get("exactlin.rref.nnz", 0) / cells if cells else None, "frac"),
        "exactlin.rref.s": (incl("exactlin.rref"), "s"),
        "exactlin.rank.calls": (rank_calls, "count"),
        "exactlin.rank.distinct_frac": (first["distinct_ranks"] / rank_calls if rank_calls else None, "frac"),
        "exactlin.kernel_basis.s": (incl("exactlin.kernel_basis"), "s"),
        "exactlin.solve.s": (incl("exactlin.solve"), "s"),
        "exactlin.invert.s": (incl("exactlin.invert"), "s"),
        "exactlin.matmul.s": (incl("exactlin.matmul"), "s"),
        "multilin.unshuffle.terms": (counts.get("multilin.unshuffle.terms", 0), "count"),
        "multilin.eval_mixed.calls": (calls("multilin.eval_mixed"), "count"),
        "multilin.skew_eval.calls": (calls("multilin.skew_eval"), "count"),
        "liealg.ce_differential.s": (incl("liealg.ce_differential"), "s"),
        "liealg.ce_differential.cells": (counts.get("liealg.ce_differential.cells", 0), "count"),
        "liealg.ce_differential_cochain.calls": (calls("liealg.ce_differential_cochain"), "count"),
        "liealg.validate_lie.s": (incl("liealg.validate_lie"), "s"),
        "liealg.validate_rep.s": (incl("liealg.validate_rep"), "s"),
        "liealg.is_two_cocycle.s": (incl("liealg.is_two_cocycle"), "s"),
        "linfty.bracket2.calls": (calls("linfty.bracket2"), "count"),
        "linfty.bracket2.s": (incl("linfty.bracket2"), "s"),
        "linfty.bracket3.calls": (calls("linfty.bracket3"), "count"),
        "linfty.bracket3.s": (incl("linfty.bracket3"), "s"),
        "linfty.d_t_matrix.s": (incl("linfty.d_t_matrix"), "s"),
        "linfty.d_t_matrix.cells": (counts.get("linfty.d_t_matrix.cells", 0), "count"),
        "linfty.mc_defect.s": (incl("linfty.mc_defect"), "s"),
        "operators.check_trb.calls": (calls("operators.check_trb"), "count"),
        "operators.check_trb.s": (incl("operators.check_trb"), "s"),
        "operators.graph_subalgebra_check.s": (incl("operators.graph_subalgebra_check"), "s"),
        "operators.induced.s": (med(lambda s: s["inclusive_s"].get("operators.induced_bracket_cochain", 0.0) + s["inclusive_s"].get("operators.induced_action_matrices", 0.0)), "s"),
        "deform.rigidity_probe.s": (incl("deform.rigidity_probe"), "s"),
        "deform.nijenhuis_attempts": (attempts, "count"),
        "deform.nijenhuis_hit_frac": (counts.get("deform.nijenhuis_hits", 0) / attempts if attempts else None, "frac"),
        "tgcs.components.s": (incl("tgcs.components"), "s"),
        "tgcs.direct.s": (incl("tgcs.direct"), "s"),
        "nslie.ns_check.s": (incl("nslie.ns_check"), "s"),
        "nslie.ns_from_trb.s": (incl("nslie.ns_from_trb"), "s"),
        "instances.load_instance.s": (incl("instances.load_instance"), "s"),
        "instances.bytes": (counts.get("instances.bytes", 0), "count"),
        "cli.main.self_s": (med(lambda s: s["self_s"].get("cli.main", 0.0)), "s"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0), "count"),
        "trace.spans": (first["spans"], "count"),
    }
    for layer in first["layers"]:
        m[f"{layer}.self_s"] = (med(lambda s: s["layers"][layer]), "s")
    return m


def attribution_problems(stale, summaries):
    """Checks that a wrong attribution of time to layers would break."""
    problems = []
    if stale:
        problems.append("unwrapped references, untraced: " + ", ".join(stale))
    for k, s in enumerate(summaries, 1):
        if s["min_span_self_s"] < -1e-6 or any(t < -1e-6 for t in s["layers"].values()):
            problems.append(f"traced pass {k}: a negative self time")
        if s["layers"]["harness"] > HARNESS_SHARE_MAX * s["wall_s"]:
            problems.append(f"traced pass {k}: harness time {s['layers']['harness']:.4f} s is over "
                            f"{100 * HARNESS_SHARE_MAX:.0f}% of the pass, outside every job span")
    return problems


def count_signature(summary):
    return (summary["calls"], summary["counts"], summary["distinct_ranks"], summary["spans"])


def write_spans(path, span_passes):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for k, spans in enumerate(span_passes):
            for idx, (name, start, end, parent, job, _child) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": idx, "name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twistrb", "cli.py")):
        print(f"error: no twistrb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    stop_at = perf_counter() + DEADLINE_S

    from twistrb import cli

    import families
    from speed import REFERENCE_S, SpeedProbe

    problems = []
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    probe = SpeedProbe()
    try:
        if args.trace == 0:
            probe.start()
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = perf_counter()
            jobs, warm = families.build(args.workload, args.seed, work)
            for job in warm:
                run_job(cli, job)
            setup_spans.append((t0, perf_counter()))
        print(f"workload: {args.workload}  seed: {args.seed}  jobs per pass: {len(jobs)}  "
              f"closed loop, 1 client, 1 thread")

        if args.trace == 0:
            passes = run_passes(cli, jobs, args.seconds, stop_at)
            probe.stop()
            failures = gate(jobs, passes)
            metrics, notes, stated = end_to_end(jobs, passes, setup_spans, probe.scaled)
            print(f"reference loop: median {1000 * probe.loop_time():.3f} ms over {len(probe.starts)} runs "
                  f"(times below are scaled to {1000 * REFERENCE_S:g} ms)")
            for name, (value, unit) in metrics.items():
                print(f"{name}: {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
            for name, value in stated.items():
                print(f"{name}: {value:.6g} s  (time to solution, median of {len(passes)} passes)")
        else:
            from tracing import Tracer

            untraced = run_passes(cli, jobs, 0, stop_at)
            tracer = Tracer()
            summaries, span_passes = [], []

            def on_pass(p, wall):
                tracer.counts["cli.output_bytes"] += sum(len(out.encode()) for _, out, _ in p["results"])
                summaries.append(tracer.summary(wall))
                span_passes.append(tracer.spans)

            tracer.install(extra_modules=[families])
            try:
                remaining = max(0.0, args.seconds - untraced[0]["wall"])
                traced = run_passes(cli, jobs, remaining, stop_at, tracer=tracer, on_pass=on_pass)
                stale = tracer.unwrapped()
            finally:
                tracer.uninstall()
            passes = untraced + traced
            failures = gate(jobs, passes)
            if any(count_signature(s) != count_signature(summaries[0]) for s in summaries[1:]):
                problems.append("layer counts differ between traced passes")
            metrics = layer_metrics(summaries)
            wall_u = untraced[0]["wall"]
            wall_t = statistics.median(s["wall_s"] for s in summaries)
            print(f"untraced pass: {wall_u:.4f} s  traced pass: {wall_t:.4f} s (median of {len(summaries)})  "
                  f"tracing overhead: {wall_t - wall_u:.4f} s ({100 * (wall_t - wall_u) / wall_u:.1f}%)")
            layers = summaries[0]["layers"]
            total = sum(layers.values())
            print(f"layer self times, first traced pass (sum {total:.4f} s vs traced wall {summaries[0]['wall_s']:.4f} s):")
            for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
                print(f"  {layer:10s} {t:10.4f} s  {100 * t / summaries[0]['wall_s']:5.1f}%")
            problems += attribution_problems(stale, summaries)
            for name, (value, unit) in metrics.items():
                print(f"{name}: n/a (nothing to divide by)" if value is None else f"{name}: {value:.6g} {unit}")
            metrics = {name: metrics[name] for name in PER_LAYER_JSON}
            spans_path = os.path.join(ROOT, TRACE_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            write_spans(spans_path, span_passes)
            print(f"spans: {sum(len(s) for s in span_passes)} written to {os.path.relpath(spans_path, ROOT)}")

        attempted = len(jobs) * len(passes)
        failed_jobs = len(failures)
        print(f"failed_frac: {failed_jobs / attempted:.6g} frac  ({failed_jobs} of {attempted} job attempts)")
        print(f"output digest (first pass): {digest(jobs, passes[0]['results'])}")
        for msg in failures[:20] + problems:
            print(f"WRONG {msg}")
        correct = not failures and not problems
        emit(correct, attempted, failed_jobs, metrics)
        return 0 if correct else 1
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
