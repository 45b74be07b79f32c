"""Verification of continuous-time nondeterministic dynamical systems
against continuous-time LTL, via AP-observation automata over the
four-valued observation alphabet {A, Z, E, N}, grid-quantized symbolic
models, and Büchi games.
"""
from .ltl import (
    parse_ltl, to_nnf, subformulas, atoms, formula_str,
    LtlSyntaxError, UnsupportedOperatorError,
)
from .observations import (
    OBS, consistency, SignalWord, PiecewiseSignal, is_signal_word,
    chop, eval_signal, unique_run_oracle,
    ChoppingError, UndefinedSlice, MultiChange, IncommensurableError,
)
from .automata import (
    build_gba, trim, minimize, degeneralize, translate,
    accepts_lasso, automaton_to_dot,
)
from .abstraction import (
    SystemSpec, Mode, SymbolicModel, gamma, reach_box,
    validate_tau, build_symbolic_model, simulate_trajectory,
    system_spec_to_json, system_spec_from_json,
    TauValidationError, OutOfDomainError,
)
from .game import (
    build_game, solve_buchi, verify, Report, PipelineError,
    report_to_json,
)
from .scenarios import drone_spec, make_scenario

__version__ = "0.1.0"
