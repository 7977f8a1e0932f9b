"""The benchmark's traced runs wrap rmflab functions by name and read some of
their arguments by name (`perfbench/tracer.py`), and their counters read
attributes of those arguments and results.  A rename in `rmflab` would only
print "not traced", or stop a traced run, so the names are pinned here.  Those
names are also the only `src/` functions that need no caller in `src/`.
"""

import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

from rmflab import cli, prime_series, rmf

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(rmf.__file__).resolve().parent

# (module, function) -> the arguments the tracer's counter for it reads.
COUNTER_ARGS = {
    ("rmf", "sup_scan"): ("signs", "limit"),
    ("rmf", "partial_sum_trace"): ("x_max",),
    ("prime_series", "log_weighted_sum"): ("n_cut", "table"),
    ("chaining", "oscillation_batch"): ("r_max",),
    ("concentration", "step2_experiment"): ("trials",),
    ("prime_series", "euler_tail_constant"): ("n_primes",),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines LAYERS; wraps nothing until install()
    return tracer


def test_tracer_layers_name_existing_functions_and_parameters():
    tracer = _tracer()

    modules = {}
    for module, functions in tracer.LAYERS.items():
        modules[module.__name__.rsplit(".", 1)[-1]] = module
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name} is gone"

    for (module_name, name), args in COUNTER_ARGS.items():
        assert name in tracer.LAYERS[modules[module_name]]
        params = inspect.signature(getattr(modules[module_name], name)).parameters
        for arg in args:
            assert arg in params, f"{module_name}.{name} has no parameter {arg!r}"


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is read in `tree`, as an ast.Name or an ast.Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_src_function_has_a_caller_in_src():
    """Every module-level function and non-dunder method in `src/rmflab` is named somewhere in
    `src/rmflab` outside its own body, so code only the tests call does not stay there.  The
    functions the tracer's LAYERS wrap are exempt: it reads them by name."""
    exempt = {(module.__name__.rsplit(".", 1)[-1], name)
              for module, functions in _tracer().LAYERS.items() for name in functions}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = sum((_names(tree) for tree in trees.values()), Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = []
    for module, tree in trees.items():
        functions = [node for node in tree.body if isinstance(node, defs)]
        functions += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, defs)
                      and not (node.name.startswith("__") and node.name.endswith("__"))]
        uncalled += [f"{module}.{f.name}" for f in functions
                     if names[f.name] == _names(f)[f.name] and (module, f.name) not in exempt]
    assert uncalled == []


def _method_or_field(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field")


def test_every_src_dataclass_has_a_method_or_a_field():
    """Every `@dataclass` in `src/rmflab` defines a method (`__post_init__` counts) or calls
    `field(...)`: a plain record with neither is a `typing.NamedTuple`, which imports faster."""
    plain = [f"{path.stem}.{cls.name}" for path in sorted(SRC.glob("*.py"))
             for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
             and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
             and not any(map(_method_or_field, ast.walk(cls)))]
    assert plain == []


def test_every_src_parameter_is_read():
    """Every parameter of every def in `src/rmflab` is loaded as a name in that def's body, so no
    kernel takes an input it never reads.  Exempt are the handlers and checks that
    `cli.COMMANDS` and `cli.VERIFY_CHECKS` dispatch with one signature each, and the arguments
    the tracer's counters read by name (COUNTER_ARGS), such as `log_weighted_sum`'s `table`."""
    dispatched = {f.__name__ for f, _, _ in cli.COMMANDS.values()}
    dispatched |= {f.__name__ for f in cli.VERIFY_CHECKS.values()}
    pinned = {(module, name, arg) for (module, name), args in COUNTER_ARGS.items() for arg in args}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    path.stem == "cli" and f.name in dispatched):
                continue
            a = f.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            loaded = {node.id for stmt in f.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{f.name}({p})" for p in params
                       if p not in loaded and (path.stem, f.name, p) not in pinned]
    assert unread == []


def _called(node: ast.AST) -> str | None:
    """The name a call node calls, as `f` or `mod.f`, or None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def test_verify_preflight_restates_no_refusal():
    """No `cli.cmd_*` raises or checks memory itself, but `cmd_report`, whose "no manifests found"
    refuses its own input: the commands and verify's preflight call the needs that the kernels
    call first, so no refusal is written twice.  Every `check_memory` call in `src/` sits in a
    need, a function named `*_need`, or in `chaining.check_grid`."""
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                and f.name.startswith("cmd_") and f.name != "cmd_report"]
    assert len(commands) == len(cli.COMMANDS) - 1
    restated = [f"{f.name}:{node.lineno}" for f in commands for node in ast.walk(f)
                if isinstance(node, ast.Raise) or _called(node) == "check_memory"]
    assert restated == []
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        needs = [range(f.lineno, f.end_lineno + 1) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)
                 and (f.name.endswith("_need") or f.name == "check_grid")]
        outside += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if _called(node) == "check_memory" and not any(node.lineno in r for r in needs)]
    assert outside == []


def test_every_width_rule_call_passes_a_task_count():
    """Every `_worker_count` call in `src/rmflab` passes its task count, so no pool, and no need
    that charges a pool's buffers, counts more threads than it has tasks."""
    uncapped = []
    for path in sorted(SRC.glob("*.py")):
        uncapped += [f"{path.stem}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                     if _called(node) == "_worker_count" and not (node.args or node.keywords)]
    assert uncapped == []


def _identifier(node: ast.AST) -> str | None:
    """The name an import names, or a name or attribute reads, at `node`; else None."""
    if isinstance(node, ast.alias):
        return node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_only_primes_starts_threads_and_every_import_is_read():
    """`ThreadPoolExecutor` and `threading.Thread` appear in `src/rmflab` only in `primes.py`,
    whose `fan_out` and segment walk start every thread in the caller's context; and every name a
    `src/rmflab` module imports, `rmf.py`'s included, is read in that module."""
    starters, found, unread = {"ThreadPoolExecutor", "Thread"}, set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {(path.stem, _identifier(node)) for node in ast.walk(tree)
                  if _identifier(node) in starters}
        unread += [f"{path.stem}:{alias.asname or alias.name}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__" for alias in node.names
                   if not _names(tree)[(alias.asname or alias.name).split(".")[0]]]
    assert found == {("primes", name) for name in starters}
    assert unread == []


def test_tracer_counters_read_live_results():
    """The live counters read sample_signs(...).signs; sup_scan's signs.primes and
    .prime_limit and its result's grid_size; euler_tail_constant(...).upper and .lower.
    `_terms_log_weighted`, the counter of `log_weighted_sum`, is the one that still reads a
    prime table's `.limit` and `.primes`, which `cached_primes` no longer returns.  It runs only
    when `log_weighted_sum` is called under trace, and no workload calls it, so it is not run
    here."""
    layers = _tracer().LAYERS
    signs = rmf.sample_signs(3, 1000)
    assert layers[rmf]["sample_signs"](signs, {"seed": 3, "prime_limit": 1000}) == 168
    res = rmf.sup_scan(signs, 0.6, 2.0, 0.01, limit=500)  # t = 1, 1.01, ..., 2
    count = layers[rmf]["sup_scan"]
    assert res.grid_size == 101
    assert count(res, {"signs": signs, "limit": 500}) == 101 * 95
    assert count(res, {"signs": signs, "limit": None}) == 101 * 168  # None: signs.prime_limit
    c01 = prime_series.euler_tail_constant(100)
    assert layers[prime_series]["euler_tail_constant"](c01, {"n_primes": 100}) == (
        100, c01.upper - c01.lower)
