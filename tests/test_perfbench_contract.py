"""The benchmark's traced runs wrap rmflab functions by name and read some of
their arguments by name (`perfbench/tracer.py`).  A rename in `rmflab` would
only print "not traced", or stop a traced run, so the names are pinned here.
"""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# (module, function) -> the arguments the tracer's counter for it reads.
COUNTER_ARGS = {
    ("rmf", "sup_scan"): ("signs", "limit"),
    ("rmf", "partial_sum_trace"): ("x_max",),
    ("prime_series", "log_weighted_sum"): ("n_cut", "table"),
    ("chaining", "oscillation_batch"): ("r_max",),
    ("concentration", "step2_experiment"): ("trials",),
    ("prime_series", "euler_tail_constant"): ("n_primes",),
}


def test_tracer_layers_name_existing_functions_and_parameters():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines LAYERS; wraps nothing until install()

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
