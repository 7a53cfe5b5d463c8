"""One-call pipeline: select -> slice -> split -> package.

This is the API a tool user starts from::

    from repro.lang import parse_program, check_program
    from repro.core.pipeline import auto_split

    program = parse_program(source)
    checker = check_program(program)
    result = auto_split(program, checker)          # a SplitProgram
"""

from repro import obs
from repro.analysis.function import analyze_function
from repro.core.program import split_program
from repro.core.selection import select_functions, select_variable
from repro.core.splitter import SplitOptions
from repro.lang import check_program, parse_program


def auto_split(program, checker, entry="main", max_functions=None, options=None,
               scorer=None):
    """Split ``program`` using the paper's selection strategy: a call-graph
    cut avoiding recursive and loop-called functions, and per function the
    local variable whose trial split yields the highest maximum ILP
    arithmetic complexity.

    Returns a :class:`~repro.core.program.SplitProgram` (with zero splits if
    nothing qualifies).

    With telemetry enabled the phases are profiled as tracer spans —
    ``select`` (function cut + variable choice), ``slice`` (per-function
    dependence analysis), ``classify`` (security estimation of trial
    splits) and ``rewrite`` (component construction) — exported as the
    ``repro_phase_seconds`` histogram, so ``repro stats`` reports where
    splitting time is spent.
    """
    options = options or SplitOptions()
    with obs.span("select"):
        names = select_functions(program, checker, entry=entry,
                                 max_functions=max_functions)
    choices = []
    for name in names:
        fn = program.function(name)
        with obs.span("slice", fn=name):
            analysis = analyze_function(fn, checker)
        with obs.span("select", fn=name):
            var, _trial = select_variable(fn, analysis, options=options,
                                          scorer=scorer)
        if var is not None:
            choices.append((name, var))
    return split_program(program, checker, choices, options=options)


def prepare_split(program, checker, choices=None, entry="main",
                  max_functions=None, options=None, scorer=None):
    """Split an already parsed-and-checked program in one call.

    With explicit ``choices`` (a list of ``(function, variable)`` pairs)
    this is :func:`~repro.core.program.split_program`; without, the
    paper's automatic selection via :func:`auto_split`.  This is the
    single entry point the CLI, the differential fuzzer, and the test
    suites share, so every consumer exercises the same path.
    """
    if choices:
        return split_program(program, checker, choices, options=options)
    return auto_split(program, checker, entry=entry,
                      max_functions=max_functions, options=options,
                      scorer=scorer)


def split_source(source, choices=None, entry="main", max_functions=None,
                 options=None, scorer=None):
    """Parse, type-check and split ``source`` text in one call.

    Returns ``(program, checker, split)`` where ``split`` is a
    :class:`~repro.core.program.SplitProgram`.  Raises
    :class:`~repro.lang.errors.LangError` on parse/type errors and
    :class:`~repro.core.splitter.SplitError` when an explicit choice
    cannot be honoured.
    """
    program = parse_program(source)
    checker = check_program(program)
    split = prepare_split(program, checker, choices=choices, entry=entry,
                          max_functions=max_functions, options=options,
                          scorer=scorer)
    return program, checker, split
