"""Long-range dependence and heavy-tail diagnostics for linear processes via
Marcinkiewicz-normalized partial sums.

Every submodule is registered lazily: `import marcz` puts each one in
`sys.modules` without running it, and it runs on its first attribute
access. A public name resolves through `__getattr__` to the module that
defines it. `errors`, `tables` and `rates` need no numpy, so reading a
verdict table, inverting it and forward-modelling one never import it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY_EXPORTS = {
    "errors": ("ConfigurationError", "DomainError", "EmptyDataError", "LengthError",
               "MarczError", "SchemaError"),
    "tables": ("DEFAULT_EXPONENTS", "DEFAULT_S_LIST", "Verdict", "VerdictTable",
               "tables_from_tsv"),
    "rates": ("EstimateValue", "ParamEstimate", "estimate_parameters", "predict_table",
              "rate_bound"),
    "kernel": ("BoundReport", "CoefficientSpec", "coefficient_array",
               "verify_kernel_bound"),
    "innovations": ("InnovationSpec", "sample", "spec_from_config", "tail_coefficient"),
    "linproc": ("PathEnsemble", "ProcessConfig", "ensemble_to_binary", "ensemble_to_tsv",
                "simulate_paths", "truncation_error_bound"),
    "statistic": ("MarcTrace", "RunningMeanConfig", "convergence_verdict", "ewma",
                  "marcinkiewicz_trace", "verdict_table"),
    "ingest": ("PriceSeries", "load_prices", "log_returns", "select_window"),
    "verify": ("SuiteResult", "ht_ratio_medians", "kernel_suite",
               "lrd_ratio_medians", "mslln_suite", "tensor_suite"),
}
_ORIGIN = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def _register_lazy(name):
    """Put `marcz.<name>` in sys.modules without running it; its code runs on
    the first attribute access, so `sys.modules` lookups and
    `from . import <name>` stay cheap."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY_EXPORTS:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))


__all__ = list(_ORIGIN)
