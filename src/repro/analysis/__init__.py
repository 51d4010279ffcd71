"""Static and runtime analysis for the reproduction.

Two halves sharing one :class:`~repro.analysis.findings.Finding`
model:

- :mod:`repro.analysis.lint` — an AST linter enforcing determinism
  and protocol hygiene over ``src/repro`` (``python -m repro.analysis
  lint --strict`` is the CI gate);
- :mod:`repro.analysis.effects` / :mod:`repro.analysis.flowgraph` —
  the whole-program protocol-flow analyzer: per-handler effect
  summaries (reply-on-all-paths, retry-duplicated side effects,
  unbounded waits) stitched into a global message-flow graph with
  static wait-cycle detection (``python -m repro.analysis flow
  --strict``);
- :mod:`repro.analysis.sanitizers` — pure-observer runtime checkers
  (FIFO link order, KVS read consistency, span-forest shape, replay
  divergence) hooked into the sim kernel and network.
"""

import importlib

#: Public name -> the submodule defining it.  Resolved on first use
#: (PEP 562), so importing one submodule — the sanitizers a sanitized
#: run loads — does not pay for parsing the linter and flow analyzer.
_EXPORTS = {
    "Finding": "findings", "render_json": "findings",
    "render_text": "findings", "worst_severity": "findings",
    "RULES": "lint", "lint_paths": "lint", "lint_source": "lint",
    "FLOW_RULES": "effects", "HandlerSummary": "effects",
    "SendSite": "effects", "analyze_paths": "effects",
    "analyze_source": "effects",
    "FlowGraph": "flowgraph", "build_graph": "flowgraph",
    "to_dot": "flowgraph", "to_json": "flowgraph",
    "SanitizerSet": "sanitizers", "FifoLinkSanitizer": "sanitizers",
    "KvsConsistencySanitizer": "sanitizers",
    "SpanForestSanitizer": "sanitizers",
    "replay_fingerprint_hook": "sanitizers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
