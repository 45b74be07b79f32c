"""Command-line interface.

Subcommands:
  verify    run the full pipeline on a system spec and a formula
  scenario  emit a built-in system spec as JSON
  bench     run the nine benchmark formulas and print a size/time table
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import abstraction as _abs
from . import automata as _aut
from . import game as _game
from .scenarios import drone_spec

__all__ = ["main", "BENCH_FORMULAS", "PAPER_REFERENCE"]

EXIT_VERIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

BENCH_FORMULAS = (
    "G r",
    "F p",
    "c U b",
    "b R c",
    "F G r",
    "G F g",
    "F (g & F p)",
    "G r & (F p & F c)",
    "G r & F (g & F p)",
)

# Published reference values for the nine benchmark formulas ("paper"):
# automaton size/time, game size (player+opponent)/time, solve time, total
# time.  The game sizes and all timings depend on an unrecoverable heading
# field and the original hardware; they are references, not test truths.
PAPER_REFERENCE = {
    "G r":                {"automaton": 2, "automaton_s": 0.01,
                           "game": (651, 642), "game_s": 0.23,
                           "solve_s": 0.35, "total_s": 1.34},
    "F p":                {"automaton": 5, "automaton_s": 0.01,
                           "game": (757, 680), "game_s": 0.52,
                           "solve_s": 0.46, "total_s": 1.75},
    "c U b":              {"automaton": 7, "automaton_s": 0.04,
                           "game": (830, 691), "game_s": 0.69,
                           "solve_s": 0.55, "total_s": 2.04},
    "b R c":              {"automaton": 7, "automaton_s": 0.04,
                           "game": (814, 685), "game_s": 0.69,
                           "solve_s": 0.53, "total_s": 2.03},
    "F G r":              {"automaton": 6, "automaton_s": 0.02,
                           "game": (1933, 1924), "game_s": 0.60,
                           "solve_s": 2.05, "total_s": 3.44},
    "G F g":              {"automaton": 7, "automaton_s": 0.02,
                           "game": (4640, 2631), "game_s": 1.93,
                           "solve_s": 2.48, "total_s": 5.20},
    "F (g & F p)":        {"automaton": 33, "automaton_s": 0.40,
                           "game": (4856, 2687), "game_s": 8.98,
                           "solve_s": 3.05, "total_s": 13.19},
    "G r & (F p & F c)":  {"automaton": 46, "automaton_s": 51.39,
                           "game": (7723, 4144), "game_s": 29.66,
                           "solve_s": 7.54, "total_s": 89.36},
    "G r & F (g & F p)":  {"automaton": 49, "automaton_s": 53.86,
                           "game": (7279, 4030), "game_s": 25.49,
                           "solve_s": 7.06, "total_s": 87.18},
}


def _load_spec(path, eta=None, tau=None):
    with open(path) as fh:
        spec = _abs.system_spec_from_json(json.load(fh))
    overrides = {k: v for k, v in (("eta", eta), ("tau", tau))
                 if v is not None}
    return dataclasses.replace(spec, **overrides)


def cmd_verify(args):
    spec = _load_spec(args.system, args.eta, args.tau)
    report, artifacts = _game.verify(
        spec, args.formula, repeat=args.repeat,
        allow_unsound_tau=args.allow_unsound_tau)
    if args.export_automaton:
        with open(args.export_automaton, "w") as fh:
            fh.write(_aut.automaton_to_dot(artifacts["nba"],
                                           title=report.formula))
    if args.export_game:
        with open(args.export_game, "w") as fh:
            json.dump(_game.game_to_json(artifacts["game"]), fh, indent=1)
    payload = _game.report_to_json(report)
    payload["solve"] = _game.solve_result_to_json(artifacts["game"],
                                                artifacts["solve"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    print(f"formula:  {report.formula}")
    print(f"verdict:  {report.verdict}")
    print(f"sizes:    automaton={report.sizes['automaton']} "
          f"model={report.sizes['model']} "
          f"game={report.sizes['game_player']}+"
          f"{report.sizes['game_opponent']} (player+opponent)")
    print("times(s): " + " ".join(
        f"{k}={v:.2f}" for k, v in report.times.items()))
    return EXIT_VERIFIED if report.verdict == "VERIFIED" \
        else EXIT_INCONCLUSIVE


def cmd_scenario(args):
    spec = drone_spec(eta=args.eta, tau=args.tau, r_mode=args.r_mode)
    text = json.dumps(_abs.system_spec_to_json(spec), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({spec.n_cells} grid cells)")
    else:
        print(text)
    return EXIT_VERIFIED


def _bench_rows(spec, formulas, repeat, with_reference):
    """One row per formula; each row builds its own automaton, model and
    game."""
    rows = []
    for f in formulas:
        report, _ = _game.verify(spec, f, repeat=repeat)
        row = {
            "formula": f,
            "automaton": report.sizes["automaton"],
            "automaton_s": round(report.times["automaton"], 2),
            "model_s": round(report.times["model"], 2),
            "game_player": report.sizes["game_player"],
            "game_opponent": report.sizes["game_opponent"],
            "game_s": round(report.times["game_build"], 2),
            "solve_s": round(report.times["game_solve"], 2),
            "total_s": round(report.times["total"], 2),
            "verdict": report.verdict,
        }
        ref = PAPER_REFERENCE.get(f) if with_reference else None
        if ref:
            row.update({
                "paper_automaton": ref["automaton"],
                "paper_game_player": ref["game"][0],
                "paper_game_opponent": ref["game"][1],
                "paper_total_s": ref["total_s"],
            })
        rows.append(row)
    return rows


def _bench_table(rows, with_reference, averaged):
    out = io.StringIO()
    hdr = f"{'formula':22s} {'|B|':>4s} {'B(s)':>6s} {'model(s)':>8s} " \
          f"{'game P+O':>13s} {'game(s)':>8s} {'solve(s)':>9s} " \
          f"{'total(s)':>9s} verdict"
    if with_reference:
        hdr += "   | paper: |B|  game P+O   total(s)"
    print(hdr, file=out)
    for r in rows:
        line = (f"{r['formula']:22s} {r['automaton']:4d} "
                f"{r['automaton_s']:6.2f} {r['model_s']:8.2f} "
                f"{r['game_player']:6d}+{r['game_opponent']:<6d} "
                f"{r['game_s']:8.2f} {r['solve_s']:9.2f} "
                f"{r['total_s']:9.2f} {r['verdict']}")
        if with_reference and "paper_automaton" in r:
            line += (f" | {r['paper_automaton']:11d} "
                     f"{r['paper_game_player']:5d}+{r['paper_game_opponent']:<5d}"
                     f" {r['paper_total_s']:9.2f}")
        print(line, file=out)
    if not averaged:
        print("(timings from a single run, not averaged)", file=out)
    if with_reference:
        print("(the 'paper' columns are published reference values; game "
              "sizes and timings\n depend on an unrecoverable heading field "
              "and different hardware, and are\n expected to agree only in "
              "order of magnitude, not exactly)", file=out)
    return out.getvalue()


def cmd_bench(args):
    spec = _load_spec(args.system) if args.system else \
        drone_spec(r_mode=args.r_mode)
    if args.formulas:
        with open(args.formulas) as fh:
            formulas = [ln.strip() for ln in fh if ln.strip()]
        with_reference = False
    else:
        formulas = list(BENCH_FORMULAS)
        with_reference = True
    rows = _bench_rows(spec, formulas, args.repeat, with_reference)
    print(_bench_table(rows, with_reference, averaged=args.repeat > 1),
          end="")
    if args.csv:
        keys = sorted({k for r in rows for k in r},
                      key=lambda k: (k != "formula", k))
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return EXIT_VERIFIED


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, which ``main`` prints as one
    ``error: ...`` line with exit code 1: argparse's own exit code 2 is
    EXIT_INCONCLUSIVE."""

    def error(self, message):
        raise ValueError(message)


def _repeat(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return n


def build_parser():
    p = _Parser(
        prog="apobs",
        description="Verify continuous-time systems against continuous-time "
                    "LTL via AP-observation automata and Büchi games.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the verification pipeline")
    pv.add_argument("--system", required=True, help="system spec JSON file")
    pv.add_argument("--formula", required=True, help="LTL formula text")
    pv.add_argument("--eta", type=float, default=None)
    pv.add_argument("--tau", type=float, default=None)
    pv.add_argument("--repeat", type=_repeat, default=1,
                    help="timing repetitions (default 1)")
    pv.add_argument("--out", help="write the report JSON here")
    pv.add_argument("--export-automaton", help="write the automaton as DOT")
    pv.add_argument("--export-game", help="write the game graph as JSON")
    pv.add_argument("--allow-unsound-tau", action="store_true",
                    help="proceed even if tau exceeds the sound bound "
                         "(recorded in the report)")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("scenario", help="emit a built-in system spec")
    ps.add_argument("name", choices=["drone"])
    ps.add_argument("--eta", type=float, default=1.0)
    ps.add_argument("--tau", type=float, default=1.0)
    ps.add_argument("--r-mode", choices=["or", "and"], default="or",
                    dest="r_mode")
    ps.add_argument("--out", help="output file (default: stdout)")
    ps.set_defaults(fn=cmd_scenario)

    pb = sub.add_parser("bench", help="run the benchmark formula table")
    pb.add_argument("--system", help="system spec JSON (default: drone)")
    pb.add_argument("--formulas", help="file with one formula per line")
    pb.add_argument("--repeat", type=_repeat, default=1)
    pb.add_argument("--r-mode", choices=["or", "and"], default="or",
                    dest="r_mode")
    pb.add_argument("--csv", help="also write the rows as CSV")
    pb.set_defaults(fn=cmd_bench)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (_game.PipelineError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
