"""Benchmark of sliceobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The workloads are described in ``workloads.py`` and README.md.

A run first times the set-up (interpreter start, import and input
generation) in SETUP_PROBES fresh interpreters.  It then runs whole
passes over the workload's operations, one operation at a time, and
starts another pass while fewer than S seconds have passed since the
first one began.  Each operation of a cold workload runs in its own fork
of this process, so nothing one operation computes reaches the next; the
warm workload runs each pass in one fork.  Every output is checked after
its pass.  Every time is scaled to a reference speed that a fixed probe
measures around and during each operation (see speed.py).  With
``--trace 1`` each pass is run once untraced and once traced, and the
run reports the per-layer figures of the traced passes instead of the
end-to-end ones.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it gives the inputs and the time of each operation.
Metric names and units are read from BENCHMARK.json.
"""

import argparse
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7


def _load_program():
    """Import the workloads, and with them sliceobs from ROOT/src only."""
    try:
        import workloads
    except ImportError as exc:
        raise SystemExit(f"cannot import sliceobs from {ROOT}/src: {exc}")
    import sliceobs
    where = os.path.dirname(os.path.abspath(sliceobs.__file__))
    if where != os.path.join(workloads.SRC, "sliceobs"):
        raise SystemExit(f"sliceobs was imported from {where}, "
                         f"not from {workloads.SRC}")
    return workloads


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kib():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# -- sessions -----------------------------------------------------------------


def _session_body(ops, traced, out):
    recorder = None
    if traced:
        recorder = tracer.Tracer()
        recorder.install(traced)
    records = []
    probe = speed.probe()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        error = data = None
        with speed.Sampler() as during:
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                result = op.call()
            except Exception:
                error = traceback.format_exc(limit=-3)
            t1, c1 = time.perf_counter(), _cpu_s()
        if error is None:
            try:
                data = op.extract(result)
            except Exception:
                error = traceback.format_exc(limit=-3)
        after = speed.probe()
        speeds = [probe, after] + during.samples
        records.append({"wall": t1 - t0 - during.spent,
                        "cpu": c1 - c0 - during.spent,
                        "probe": sum(speeds) / len(speeds), "data": data,
                        "error": error})
        probe = after
    spans = None
    if recorder is not None:
        recorder.uninstall()
        spans = recorder.spans
    pickle.dump({"records": records, "spans": spans,
                 "peak_rss_kib": _peak_rss_kib()}, out)


def run_session(ops, traced=()):
    """Run ``ops`` one after another in a forked child of this process,
    tracing the functions named in ``traced``, and return ``{"records",
    "spans", "peak_rss_kib"}``, or None if the child died without
    reporting."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as out:
                _session_body(ops, traced, out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not data:
        return None
    return pickle.loads(data)


def run_pass(workload, traced=()):
    """One pass over the workload: its records (one per operation, with the
    problems its check found), spans per session and peak RSS."""
    groups = ([[op] for op in workload.ops] if workload.cold
              else [list(workload.ops)])
    records, spans, peak = [], [], 0
    for ops in groups:
        got = run_session(ops, traced)
        if got is None:
            got = {"records": [{"wall": 0.0, "cpu": 0.0, "probe": 1.0,
                                "data": None, "error": "session died"}
                               for _ in ops],
                   "spans": [], "peak_rss_kib": 0}
        for op, rec in zip(ops, got["records"]):
            rec["label"] = op.label
            rec["results"] = op.results
            rec["problems"] = ([rec["error"]] if rec["error"]
                               else op.check(rec["data"]))
            del rec["data"]
            records.append(rec)
        if traced:
            spans.append(got["spans"])
        peak = max(peak, got["peak_rss_kib"])
    return {"records": records, "spans": spans, "peak_rss_kib": peak}


# -- metrics ------------------------------------------------------------------


def _scaled(seconds, probe):
    """``seconds`` measured while the probe took ``probe``, at the
    reference speed."""
    return seconds * speed.REFERENCE_S / probe


def setup_seconds(workload, seed):
    """Median over SETUP_PROBES fresh interpreters of the time to start,
    import the program and generate the inputs, at the reference speed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    times = []
    probe = speed.probe()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = speed.probe()
        times.append(_scaled(elapsed, (probe + after) / 2))
        probe = after
    return statistics.median(times)


def _pass_total(p, key):
    return sum(_scaled(r[key], r["probe"]) for r in p["records"])


def end_to_end(passes, setup_s, ok_frac):
    wall = statistics.median(_pass_total(p, "wall") for p in passes)
    results = sum(r["results"] for r in passes[0]["records"])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": statistics.median(_pass_total(p, "cpu") for p in passes),
        "slowest_op_s": max(op_medians(passes, True).values()),
        "results_per_s": results / wall,
        "peak_rss_mib": max(p["peak_rss_kib"] for p in passes) / 1024,
        "ok_frac": ok_frac,
    }


def per_layer(traced, untraced, names):
    """Per-layer figures: the median over traced passes of each
    ``<module>.<function>.<field>``, and the tracing overhead."""
    per_pass = [tracer.merge_stats(tracer.function_stats(s)
                                   for s in p["spans"]) for p in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            wall = statistics.median(_pass_total(p, "wall") for p in traced)
            base = statistics.median(_pass_total(p, "wall") for p in untraced)
            out[name] = wall / base - 1
            continue
        fn, field = name.rsplit(".", 1)
        values = []
        for stats in per_pass:
            st = stats.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "args": set()})
            if field == "distinct_ratio":
                values.append(len(st["args"]) / st["calls"]
                              if st["calls"] else 1.0)
            else:
                values.append(st[field])
        out[name] = (statistics.median_low(values) if field == "calls"
                     else statistics.median(values))
    return out


def write_spans(path, traced):
    """One JSON line per span of every traced pass."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for pi, p in enumerate(traced):
            for si, spans in enumerate(p["spans"]):
                for sp in spans:
                    rec = dict(zip(tracer.SPAN_FIELDS, sp))
                    rec["pass"], rec["session"] = pi, si
                    f.write(json.dumps(rec) + "\n")


def op_medians(passes, scaled):
    """Median time of each operation, by label: as measured, or at the
    reference speed."""
    by_label = {}
    for p in passes:
        for r in p["records"]:
            by_label.setdefault(r["label"], []).append(
                _scaled(r["wall"], r["probe"]) if scaled else r["wall"])
    return {k: statistics.median(v) for k, v in by_label.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate the inputs and exit (times set-up)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = _load_program()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    workload = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0
    functions = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
                       - {"trace"})

    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload))
        if args.trace:
            traced.append(run_pass(workload, functions))
        if time.perf_counter() - start >= args.seconds:
            break

    every = [r for q in untraced + traced for r in q["records"]]
    for r in every:
        for msg in r["problems"]:
            print(f"{r['label']}: {msg}", file=sys.stderr)
    failed = sum(bool(r["problems"]) for r in every)
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(traced, untraced, [m["name"] for m in declared])
        spans_file = os.path.join(
            TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans_file, traced)
    else:
        declared = spec["end_to_end"]
        values = end_to_end(untraced, setup_s, 1 - failed / len(every))
        spans_file = None
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "inputs": workload.inputs, "passes": len(untraced),
        "wall_s_measured": statistics.median(
            sum(r["wall"] for r in q["records"]) for q in untraced),
        "op_s": op_medians(untraced, False),
        "op_ref_s": op_medians(untraced, True),
        "probe_s": statistics.median(r["probe"] for q in untraced
                                     for r in q["records"]),
        "spans_file": spans_file}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(every), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
