"""Time-to-verdict benchmark for apobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Answers verification queries the way a library user does: one process,
one ``apobs.game.verify`` call at a time (closed loop, one client).  Each
pass over the workload's queries runs in a fresh interpreter (worker.py)
built from ``src/`` of the checkout this file sits in.  A run is

  1. generate the workload's system spec (workloads.py), untimed;
  2. rounds until ``--seconds`` is used up: two set-up probes (fresh
     interpreters that only import apobs and load the spec), then one
     measured pass (with ``--trace 1``, then also one traced pass).
     Every pass's verdicts and sizes are compared with expected.json;
     the first pass also runs the soundness spot-check after each
     verdict, off its clock.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The full result set, with the
environment and every pass, is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES_PER_ROUND = 2
RUN_LIMIT_S = 150.0        # start no pass that would end after this

END_TO_END = {"wall_s": "s", "slowest_query_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}
SIZE_FIELDS = ("verdict", "automaton", "cells", "player", "opponent")

# per-layer time metric -> the span it sums
SPAN_TIMES = {
    "ltl.parse_s": "ltl.parse",
    "ltl.nnf_s": "ltl.nnf",
    "automata.translate_s": "automata.translate",
    "automata.build_gba_s": "automata.build_gba",
    "automata.restrict_s": "automata.restrict",
    "automata.trim_s": "automata.trim",
    "automata.minimize_s": "automata.minimize",
    "automata.degeneralize_s": "automata.degeneralize",
    "abstraction.build_model_s": "abstraction.build_model",
    "abstraction.validate_tau_s": "abstraction.validate_tau",
    "game.build_s": "game.build",
    "game.solve_s": "game.solve",
}
COUNTS = (
    "ltl.subformulas",
    "automata.gba_states", "automata.gba_edges", "automata.trimmed_states",
    "automata.minimized_states", "automata.nba_states", "automata.nba_edges",
    "abstraction.cells", "abstraction.transitions",
    "abstraction.sink_transitions", "abstraction.distinct_labels",
    "game.player_vertices", "game.opponent_vertices", "game.edges",
    "game.redirected_player", "game.solve_iterations",
    "game.w0_vertices", "game.w1_vertices",
)
# ratio -> (numerator count, denominator count)
RATIOS = {
    "automata.kept_frac": ("automata.trimmed_states", "automata.gba_states"),
    "game.redirected_frac": ("game.redirected_player",
                             "game.player_vertices"),
}


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor()}


class Worker:
    """Launches worker.py passes on one generated spec."""

    def __init__(self, spec_path, seed, queries, anchors):
        self.args = [str(spec_path), str(seed), json.dumps(queries),
                     json.dumps(anchors)]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(seed))

    def run(self, mode, timeout):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, *self.args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, timeout))
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass exited {proc.returncode}:\n"
                               f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def query_failures(entries, expected, spot_checked):
    """Failure reasons per query entry; an empty list means it passed."""
    out = []
    for e in entries:
        want = expected.get(e["query"])
        if "error" in e:
            out.append(f"{e['query']}: {e['error']}")
        elif want is None:
            out.append(f"{e['query']}: no expected record")
        elif any(e[k] != want[k] for k in SIZE_FIELDS):
            got = {k: e[k] for k in SIZE_FIELDS}
            out.append(f"{e['query']}: got {got}")
        elif spot_checked and e.get("spot_bad", 1):
            out.append(f"{e['query']}: {e.get('spot_bad')} spot-check "
                       "trajectories are not model runs")
    return out


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics: medians over traced passes of per-pass sums over
    the queries.  A span or count the program no longer offers is None."""
    out = {}
    for metric, span in SPAN_TIMES.items():
        out[metric] = (median(p["span_total_s"].get(span) for p in traced),
                       "s")
    out["game.verify_self_s"] = (
        median(p["span_self_s"].get("game.verify") for p in traced), "s")
    counts = {}
    for name in COUNTS:
        per_pass = []
        for p in traced:
            vals = [q.get("counts", {}).get(name) for q in p["queries"]]
            if None not in vals:
                per_pass.append(sum(vals))
        # median_low keeps a count an integer
        counts[name] = statistics.median_low(per_pass) if per_pass else None
        out[name] = (counts[name], "count")
    for name, (num, den) in RATIOS.items():
        ok = counts[num] is not None and counts[den]
        out[name] = (counts[num] / counts[den] if ok else None, "ratio")
    traced_wall = median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    out["trace.accounted_frac"] = (
        median(p["span_total_s"].get("game.verify", 0) / p["wall_s"]
               for p in traced), "ratio")
    return out


def run(name, seed, seconds, trace):
    field, eta, queries, anchors = workloads.WORKLOADS[name]
    expected = json.loads((HERE / "expected.json").read_text())
    want = expected["workloads"][name]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    t_run = time.perf_counter()
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "loadavg_start": os.getloadavg()}

    data = workloads.spec_bytes(workloads.drone_spec_json(field, eta))
    result["spec_hash"] = workloads.spec_hash(data)
    order = list(queries)
    random.Random(seed).shuffle(order)
    result["query_order"] = order
    spec_path = out_dir / f"{name}-{os.getpid()}.spec.json"
    spec_path.write_bytes(data)
    worker = Worker(spec_path, seed, order, anchors)

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - t_run)

    try:
        probes, measured, traced = [], [], []
        t_measure = time.perf_counter()
        while True:
            # set-up probes are spread over the run, as passes are
            probes += [worker.run("setup", remaining())
                       for _ in range(SETUP_PROBES_PER_ROUND)]
            # the first pass also checks soundness, off its clock
            mode = "measure" if measured else "check"
            measured.append(worker.run(mode, remaining()))
            if trace:
                traced.append(worker.run("trace", remaining()))
            elapsed = time.perf_counter() - t_measure
            per_round = elapsed / len(measured)
            # one more round if it ends nearer to `seconds` than now
            if elapsed + per_round / 2 >= seconds or per_round > remaining():
                break
    finally:
        spec_path.unlink()

    failures = []
    if result["spec_hash"] != want["spec_hash"]:
        failures.append(f"spec hash {result['spec_hash']} differs from "
                        f"expected {want['spec_hash']}: the input drifted")
    src = str(ROOT / "src")
    check = measured[0]
    passes = measured + traced
    if any(not p["apobs_file"].startswith(src) for p in passes + probes):
        failures.append("apobs was not imported from this checkout")
    attempted = failed = 0
    for p in passes:
        reasons = (query_failures(p["queries"], want["queries"], p is check)
                   + query_failures(p.get("anchors", []), want["queries"],
                                    False))
        attempted += len(p["queries"]) + len(p.get("anchors", []))
        failed += len(reasons)
        failures.extend(reasons)

    wall = median(p["wall_s"] for p in measured)
    metrics = {
        "wall_s": wall,
        "slowest_query_s": median(max(q["seconds"] for q in p["queries"])
                                  for p in measured),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in measured),
        "setup_s": median(p["setup_s"] for p in probes + passes),
    }
    e2e = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    layers = layer_metrics(traced, wall) if trace else {}
    # degraded, not failed: what a renamed function or reshaped result
    # no longer lets the tracer see
    missing = sorted(k for k, (v, _) in layers.items() if v is None)
    result.update(
        loadavg_end=os.getloadavg(), passes=passes, setup_probes=probes,
        end_to_end=e2e, per_layer=layers, attempted=attempted,
        failed=failed, failures=failures, missing=missing,
        run_s=time.perf_counter() - t_run)
    tag = f"{name}-seed{seed}-trace{trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    env = result["environment"]
    print(f"# {tag}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}; load "
          f"{result['loadavg_start'][0]:.2f} -> {result['loadavg_end'][0]:.2f}"
          f"; spec {result['spec_hash']}; {len(measured)} measured passes")
    for reason in failures:
        print(f"# FAIL {reason}")
    if missing:
        print(f"# MISSING (reported as null) {', '.join(missing)}")
    shown = dict(e2e, failed_frac=(failed / attempted, "ratio"), **layers)
    for k, (v, unit) in shown.items():
        shown_v = "missing" if v is None else f"{v:.6g}"
        print(f"{k:32s} {shown_v:>12s} {unit}")
    chosen = layers if trace else e2e
    return {"correct": not failures, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit}
                        for k, (v, unit) in chosen.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "apobs" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'apobs'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    line = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
