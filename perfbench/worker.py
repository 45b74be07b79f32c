"""One pass over a workload's queries, in a fresh interpreter.

    python3 perfbench/worker.py MODE SPEC_JSON SEED QUERIES_JSON [ANCHORS_JSON]

MODE is one of
  setup    import apobs and load the spec, nothing else;
  measure  one closed-loop pass: one query at a time, each a single call
           of ``apobs.game.verify(spec, formula, repeat=1)``;
  check    the same pass, plus, untimed after each verdict, the soundness
           spot-check and the check-only anchor queries;
  trace    the same pass with the pipeline's entry points wrapped in spans.

Prints one JSON object on stdout.  The caller (run.py) compares verdicts
and sizes with the expected record.
"""
import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# spot-check size per query: trajectories x steps
SPOT_RUNS, SPOT_STEPS = 20, 60


def setup(spec_path):
    """Import the program and load the spec; returns the spec, the
    seconds since the interpreter started this file, and apobs' path."""
    import apobs  # noqa: F401 - the import is what is timed
    from apobs.abstraction import system_spec_from_json
    with open(spec_path) as fh:
        spec = system_spec_from_json(json.load(fh))
    return spec, time.perf_counter() - T_START, apobs.__file__


def record(report):
    """Verdict and sizes; a size the report no longer has is None, which
    the caller counts as a mismatch."""
    sizes = report.sizes
    return {"verdict": report.verdict,
            "automaton": sizes.get("automaton"),
            "cells": sizes.get("model"),
            "player": sizes.get("game_player"),
            "opponent": sizes.get("game_opponent")}


def spot_check(spec, model, seed):
    """Theorem 1: seeded simulated trajectories must be runs of the model
    that verify returned.  Returns the number of trajectories that are
    not (a chopping error counts as one)."""
    from apobs.abstraction import is_run_of, simulate_trajectory
    bad = 0
    for k in range(SPOT_RUNS):
        try:
            cells, word = simulate_trajectory(
                spec, SPOT_STEPS, seed=seed * 1000 + k,
                tracked_aps=model.aps)
        except ValueError:
            bad += 1
            continue
        if not is_run_of(model, cells, word):
            bad += 1
    return bad


def run_pass(mode, spec, seed, queries, anchors):
    from apobs.game import verify
    tracer = None
    clock = time.perf_counter
    call = verify
    if mode == "trace":
        from tracing import VERIFY, Tracer
        tracer = Tracer()
        tracer.install()
        clock = tracer.clock    # stops while the tracer counts
        call = functools.partial(tracer.call, VERIFY, verify)
    out = {"queries": [], "bookkeeping_s": 0.0}
    t_first = clock()
    for i, q in enumerate(queries):
        entry = {"query": q}
        if tracer is not None:
            tracer.query = i
        t0 = clock()
        try:
            report, art = call(spec, q, repeat=1)
        except Exception as e:  # noqa: BLE001 - a failed query is a result
            report = art = None
            entry["error"] = f"{type(e).__name__}: {e}"
        entry["seconds"] = clock() - t0
        if report is not None:
            entry.update(record(report))
        t_book = clock()
        if tracer is not None:
            entry["counts"] = tracer.take_counts()
        if mode == "check" and art is not None:
            entry["spot_bad"] = spot_check(spec, art["model"],
                                           seed * 100 + i)
        out["bookkeeping_s"] += clock() - t_book
        out["queries"].append(entry)
        # a user drops the result before the next query; freeing it is
        # part of the pass
        art = report = None
    out["wall_s"] = clock() - t_first - out["bookkeeping_s"]
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "check":
        out["anchors"] = []
        for q in anchors:
            try:
                report, _ = verify(spec, q, repeat=1)
                out["anchors"].append(dict(query=q, **record(report)))
            except Exception as e:  # noqa: BLE001
                out["anchors"].append({"query": q,
                                       "error": f"{type(e).__name__}: {e}"})
    if tracer is not None:
        total, own = tracer.durations()
        out["span_total_s"] = total
        out["span_self_s"] = own
        out["missing"] = tracer.missing
    return out


def main(argv):
    mode, spec_path, seed = argv[0], argv[1], int(argv[2])
    queries = json.loads(argv[3]) if len(argv) > 3 else []
    anchors = json.loads(argv[4]) if len(argv) > 4 else []
    spec, setup_s, apobs_file = setup(spec_path)
    out = {"setup_s": setup_s, "apobs_file": apobs_file}
    if mode != "setup":
        out.update(run_pass(mode, spec, seed, queries, anchors))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
