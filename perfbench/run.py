"""Closed-loop benchmark of the sunflower package, one caller per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
seed builds the workload's inputs; passes (one run through the workload's
call list) repeat until the next would end past --seconds.  Every answer is
checked by the benchmark's own oracle.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 passes alternate between
untraced and traced, and the metrics are the per-layer ones taken from the
traced passes.  The line above it holds the run's deterministic counts,
which must also match any earlier run of the same code and seed in this
checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PROBES_FIRST = 3  # before the first pass, after one warm-up probe
REF_NOMINAL_S = 0.002  # reference kernel on an uncontended core of the host the bounds came from
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60

TIME_LAYERS = (
    "search.vectors", "search.uniform", "search.greedy", "search.verify",
    "search.export_cnf", "search.to_dimacs", "search.cnf_satisfiable",
    "detect.vectors", "detect.sets_fast", "detect.ap",
    "reduce.pipeline", "reduce.ek_partition", "reduce.embed",
    "conjectures.scan", "bounds.j_constant", "bounds.compare",
    "model.parse", "model.dump_json", "cli.main",
)

# deterministic per-pass counts; each must repeat exactly in every pass
COUNTS = ("search.nodes", "search.prunes", "search.cnf_clauses", "search.dimacs_bytes",
          "detect.triples", "conjectures.nodes", "budget_gap")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sunflower" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Recorder, layer_seconds, write

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    # Set-up time is probed in fresh processes: a few before the first pass
    # and one after every pass, so the samples span the run.  Host speed is
    # sampled throughout by a watcher process.
    probe = Probe(wl.setup_spec())
    rec = Recorder()
    watch = subprocess.Popen([sys.executable, str(HERE / "speed_watch.py")], cwd=ROOT,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        passes, attempted, failed, errors = run_passes(wl, rec, args.seconds, probe, args.trace)
    finally:
        try:  # closing its stdin stops the watcher within one interval
            watched, _ = watch.communicate(input="", timeout=PROBE_TIMEOUT_S)
        finally:
            if watch.poll() is None:
                watch.kill()
                watch.wait()
    set_speeds(passes, watched)
    counts = passes[0]["counts"]
    mismatches = counter_mismatches(passes)
    mismatches += earlier_run_mismatches(wl.name, args.seed, counts)
    for line in errors + mismatches:
        print(line, file=sys.stderr)
    untraced = [p for p in passes if not p["tracing"]]

    print(f"workload {wl.name}  seed {args.seed}  closed loop, one caller  "
          f"{len(passes)} passes of {len(wl.steps)} calls")
    print(f"host speed factor per pass (reference kernel nominal {REF_NOMINAL_S * 1e3:.1f} ms "
          "over its mean time in the watcher process during the pass): "
          + " ".join(f"{p['speed']:.4f} ({p['speed_samples']})" for p in passes))
    if args.trace:
        traced = [p for p in passes if p["tracing"]]
        metrics = per_layer(traced, layer_seconds(rec.spans), counts, untraced)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        write(path, wl.name, args.seed, rec.spans)
        print(f"spans of {len(traced)} traced passes written to {path.relative_to(ROOT)}")
        for label, group in (("untraced", untraced), ("traced", traced)):
            print(f"pass wall {label}: median {statistics.median(scaled(group, 'wall')):.4f} s"
                  f" of {len(group)} passes")
    else:
        metrics = end_to_end(probe.samples, untraced)
        print(f"pass_s unscaled samples ({len(untraced)} passes): "
              + " ".join(f"{p['busy']:.4f}" for p in untraced))
        print(f"setup_s unscaled samples ({len(probe.samples)} fresh processes): "
              + " ".join(f"{s['setup_s']:.4f}" for s in probe.samples))
        print(f"fail_frac {failed / attempted:.6f} ratio  ({failed} of {attempted} calls failed)")
        print(f"budget_gap {counts['budget_gap']} count  "
              "(known maximum minus found, node-budgeted calls; non-zero fails the call)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("counts " + json.dumps(counts, sort_keys=True))
    correct = failed == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_passes(wl, rec, seconds: float, probe, trace: int):
    """Passes until the next would end past the deadline.

    In a traced run every second pass is traced.
    """
    passes: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    probe.run(1, keep=False)
    probe.run(PROBES_FIRST)
    while True:
        tracing = bool(trace) and len(passes) % 2 == 1
        counts = dict.fromkeys(COUNTS, 0)
        rec.begin_pass(tracing)
        pass_id = rec.pass_span
        start = time.perf_counter()
        t0 = time.monotonic()
        for step in wl.steps:
            attempted += 1
            try:
                step.run(rec, counts)
            except Exception:  # a failed call is counted and reported, never fatal
                failed += 1
                if len(errors) < 10:
                    errors.append(f"pass {len(passes)} {step.name}: "
                                  + traceback.format_exc(limit=3).strip())
        wall = time.perf_counter() - start
        rec.end_pass()
        passes.append({"tracing": tracing, "busy": rec.busy, "wall": wall,
                       "window": (t0, time.monotonic()), "counts": dict(counts), "span": pass_id})
        probe.run(1)
        if len(passes) >= MIN_PASSES and time.perf_counter() + wall > deadline:
            return passes, attempted, failed, errors


def set_speeds(passes: list[dict], watched: str) -> None:
    """Each pass's host speed factor, from the watcher's samples during it.

    The mean, not the median: contention from the host's other tenants
    comes in bursts that make a few kernel samples much longer, and a pass
    slows by the average of it, bursts included.
    """
    samples = [tuple(map(float, line.split())) for line in watched.splitlines()]
    for p in passes:
        t0, t1 = p["window"]
        inside = [took for at, took in samples if t0 <= at <= t1]
        if not inside:
            raise RuntimeError("the speed watcher took no sample during a pass")
        p["speed"] = REF_NOMINAL_S / statistics.fmean(inside)
        p["speed_samples"] = len(inside)


class Probe:
    """Set-up time, each sample from a fresh process (probe.py).

    Each sample is scaled by the reference kernel's time in its own process.
    """

    def __init__(self, spec: dict):
        self.payload = json.dumps(spec)
        self.samples: list[dict] = []

    def run(self, count: int, keep: bool = True) -> None:
        for _ in range(count):
            done = subprocess.run(
                [sys.executable, str(HERE / "probe.py")], input=self.payload,
                capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True,
            )
            if keep:
                self.samples.append(json.loads(done.stdout))


def counter_mismatches(passes: list[dict]) -> list[str]:
    """Deterministic counters must repeat exactly in every pass."""
    first = passes[0]["counts"]
    return [
        f"pass {i}: counter {key} = {p['counts'][key]}, pass 0 had {first[key]}"
        for i, p in enumerate(passes[1:], start=1)
        for key in first
        if p["counts"][key] != first[key]
    ]


def earlier_run_mismatches(workload: str, seed: int, counts: dict) -> list[str]:
    """Counts must match every earlier run of the same code and seed.

    The first run of a (code, workload, seed) writes its counts under
    .perfbench_out/; later runs, traced or not, compare against them.
    """
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    path = OUT / f"counts-{workload}-seed{seed}-{digest.hexdigest()[:16]}.json"
    if not path.is_file():
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(path)
        return []
    earlier = json.loads(path.read_text(encoding="utf-8"))
    return [
        f"counter {key} = {counts.get(key)}, "
        f"an earlier run of this code and seed had {earlier.get(key)}"
        for key in sorted(set(earlier) | set(counts))
        if counts.get(key) != earlier.get(key)
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(passes: list[dict], key: str) -> list[float]:
    """A per-pass time scaled by that pass's own host speed factor."""
    return [p[key] * p["speed"] for p in passes]


def end_to_end(probes: list[dict], untraced: list[dict]) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each set-up sample is scaled by the kernel time of its own process
    setup = [p["setup_s"] * REF_NOMINAL_S / p["ref_s"] for p in probes]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_s": metric(statistics.median(scaled(untraced, "busy")), "s"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
    }


def per_layer(traced: list[dict], by_pass: dict, counts: dict, untraced: list[dict]) -> dict:
    layer = {
        name: statistics.median(by_pass[p["span"]].get(name, 0.0) * p["speed"] for p in traced)
        for name in TIME_LAYERS
    }
    out = {f"{name}_s": metric(value, "s") for name, value in layer.items()}
    for key in COUNTS:
        out[key] = metric(counts[key], "bytes" if key == "search.dimacs_bytes" else "count")
    nodes = counts["search.nodes"]
    search_s = layer["search.vectors"] + layer["search.uniform"]
    detect_s = layer["detect.vectors"] + layer["detect.sets_fast"] + layer["detect.ap"]
    out["search.prune_ratio"] = metric(counts["search.prunes"] / nodes if nodes else 0.0, "ratio")
    out["search.nodes_per_s"] = metric(nodes / search_s if search_s else 0.0, "1/s")
    out["detect.triples_per_s"] = metric(
        counts["detect.triples"] / detect_s if detect_s else 0.0, "1/s")
    traced_wall = statistics.median(scaled(traced, "wall"))
    untraced_wall = statistics.median(scaled(untraced, "wall"))
    out["trace_overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
