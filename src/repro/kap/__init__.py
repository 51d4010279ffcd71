"""KAP — the KVS Access Patterns benchmark (paper Section V).

Configuration (:mod:`.config`), key/value/access-pattern generation
(:mod:`.patterns`), the four-phase driver (:mod:`.driver`), result
collection (:mod:`.results`) and the Section V-B analytic models
(:mod:`.model`).
"""

import importlib

from .config import KapConfig, PAPER_NODE_COUNTS, PAPER_VALUE_SIZES
from .driver import run_kap
from .model import (dir_object_bytes, predict_consumer_latency,
                    predict_fence_latency, predict_producer_latency,
                    predict_setup_latency, replication_time)
from .patterns import consumer_targets, make_value, object_key, proc_rank_node
from .results import KapResult, format_series_table

#: The power-law fit (numpy) resolves on first use (PEP 562), so a KAP
#: run, which never fits, does not load numpy.
_LAZY = ("PowerLawFit", "classify_scaling", "fit_power_law",
         "scaling_exponents")

__all__ = [
    "PowerLawFit", "classify_scaling", "fit_power_law",
    "scaling_exponents",
    "KapConfig", "PAPER_NODE_COUNTS", "PAPER_VALUE_SIZES", "run_kap",
    "dir_object_bytes", "predict_consumer_latency",
    "predict_fence_latency", "predict_producer_latency",
    "predict_setup_latency", "replication_time", "consumer_targets",
    "make_value", "object_key", "proc_rank_node", "KapResult",
    "format_series_table",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".analysis", __name__), name)
