"""Long-range dependence and heavy-tail diagnostics for linear processes via
Marcinkiewicz-normalized partial sums."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DegeneratePairError, DomainError,
                     EmptyDataError, LengthError, MarczError, OutOfWindowError,
                     SchemaError, SizeError)
from .kernel import (BoundReport, CoefficientSpec, coefficient, coefficient_array,
                     kernel_cross_sum, verify_kernel_bound)
from .innovations import (InnovationSpec, empirical_tail_check, family_variance,
                          sample, spec_from_config, tail_coefficient)
from .linproc import (PathEnsemble, ProcessConfig, TensorEnsemble,
                      ensemble_to_binary, ensemble_to_tsv, simulate_paths,
                      simulate_tensor_paths, truncation_error_bound)
from .statistic import (DEFAULT_EXPONENTS, DEFAULT_S_LIST, MarcTrace,
                        RunningMeanConfig, Verdict, VerdictTable,
                        convergence_verdict, ewma, marcinkiewicz_trace,
                        tables_from_tsv, verdict_table)
from .rates import (EstimateValue, ParamEstimate, estimate_parameters,
                    predict_table, rate_bound)
from .ingest import PriceSeries, load_prices, log_returns, select_window
from .verify import (SuiteResult, ht_ratio_medians, kernel_suite,
                     lrd_ratio_medians, mslln_suite, tensor_suite)
