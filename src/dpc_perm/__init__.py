"""Dirty paper coding for MU-MIMO broadcast channels.

A conventional successive implementation built on LQ factorization, an
equivalent linear implementation, the channel inverse with designed
effective gains, a diagonal-permutation precoding-order search that
replaces n! factorizations with one, and a reproducible Monte Carlo BER
harness comparing both against ZF, MMSE, THP, and BD baselines.
"""

__version__ = "0.1.0"

from .channel import ChannelSpec, generate_channel
from .exceptions import (
    ConfigError,
    DegenerateGain,
    DpcPermError,
    InfeasibleBlocking,
    InvalidPermutation,
    LengthMismatch,
    NumericallySingular,
    OrderSpaceTooLarge,
    WorkerCrashed,
)
from .linalg import (
    EPS_LIN,
    EPS_SING,
    LqFactors,
    SvdFactors,
    count_decompositions,
    diagonal_permute,
    lq_decompose,
    lq_diagonal,
    lq_not_permutation_linear_witness,
    permuted_svd,
    svd_decompose,
)
from .modem import (
    Constellation,
    hard_decisions,
    make_constellation,
    qam_modulate,
    wilson_interval,
)
from .ordering import (
    OrderSearchResult,
    complexity_model,
    diagonal_order_search,
    min_power_order_closed_form,
    naive_order_search,
    objective_ap,
    objective_papr,
    order_table,
)
from .precoding import (
    bd_precode,
    dpc_conventional,
    dpc_linear,
    mmse_precode,
    thp_precode,
    waterfill,
    waterfill_powers,
    zf_precode,
)
from .sim import BerRecord, SweepConfig, run_ber_sweep

__all__ = [
    "__version__",
    "ChannelSpec",
    "generate_channel",
    "DpcPermError",
    "NumericallySingular",
    "InvalidPermutation",
    "OrderSpaceTooLarge",
    "DegenerateGain",
    "InfeasibleBlocking",
    "LengthMismatch",
    "ConfigError",
    "WorkerCrashed",
    "EPS_LIN",
    "EPS_SING",
    "LqFactors",
    "SvdFactors",
    "lq_decompose",
    "lq_diagonal",
    "svd_decompose",
    "permuted_svd",
    "diagonal_permute",
    "lq_not_permutation_linear_witness",
    "count_decompositions",
    "Constellation",
    "make_constellation",
    "qam_modulate",
    "hard_decisions",
    "wilson_interval",
    "OrderSearchResult",
    "objective_ap",
    "objective_papr",
    "naive_order_search",
    "diagonal_order_search",
    "order_table",
    "min_power_order_closed_form",
    "complexity_model",
    "dpc_conventional",
    "dpc_linear",
    "waterfill",
    "waterfill_powers",
    "zf_precode",
    "mmse_precode",
    "thp_precode",
    "bd_precode",
    "BerRecord",
    "SweepConfig",
    "run_ber_sweep",
]
