"""Host time per layer, measured from outside the program.

The trace is ``cProfile`` around the workload call.  Each profiled
function's self time is folded into a layer by its source file.  Time
in code that is not the program's own (C builtins such as ``dict.get``,
``heappop``, ``sha1``; the ``json`` package) is charged to the layer
that called it, through the profiler's caller edges.

``cProfile`` taxes every Python call but not work inside C, so shares
lean toward call-heavy layers: read them as where to look, and measure
a gain with the untraced end-to-end metrics.
"""

import os
import pstats

#: Layers are this repository's modules.  First matching prefix (of the
#: path below ``src/repro/``) wins.
LAYER_PREFIXES = (
    ("sim/kernel.py", "sim.kernel"),
    ("sim/shard.py", "sim.shard"),
    ("sim/network.py", "sim.network"),
    ("sim/faults.py", "sim.network"),
    ("sim/trace.py", "obs"),
    ("cmb/broker.py", "cmb.broker"),
    ("cmb/message.py", "cmb.message"),
    ("cmb/api.py", "cmb.api"),
    ("cmb/module.py", "cmb.module"),
    ("cmb/modules/", "cmb.modules"),
    ("jsonutil.py", "jsonutil"),
    ("kvs/module.py", "kvs.module"),
    ("kvs/store.py", "kvs.store"),
    ("kvs/hashtree.py", "kvs.hashtree"),
    ("kvs/cache.py", "kvs.cache"),
    ("kvs/master.py", "kvs.master"),
    ("kvs/api.py", "kvs.api"),
    ("obs/", "obs"),
    ("analysis/sanitizers.py", "analysis.sanitizers"),
    ("kap/", "kap"),
)

#: ``kap`` is the load generator: ``repro.kap`` or ``chaos_driver.py``.
#: ``other`` is the rest of ``repro`` plus time no caller edge explains.
LAYERS = tuple(dict.fromkeys(l for _p, l in LAYER_PREFIXES)) + ("other",)

_PKG_MARK = os.sep + os.path.join("src", "repro") + os.sep
#: How far up the caller edges foreign time is followed.
_MAX_DEPTH = 8


def layer_of(filename):
    """The layer owning ``filename``, or ``None`` for foreign code."""
    if filename.endswith("chaos_driver.py"):
        return "kap"
    at = filename.rfind(_PKG_MARK)
    if at < 0:
        return None
    rel = filename[at + len(_PKG_MARK):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def calls_of(profile, file_suffix, name):
    """How often the profiled run called function ``name`` of the
    source file ending in ``file_suffix``."""
    return sum(row[1] for func, row in pstats.Stats(profile).stats.items()
               if func[2] == name and func[0].endswith(file_suffix))


def fold(profile):
    """``{layer: {"self_s", "self_share", "calls"}}`` from a
    ``cProfile.Profile`` that has run."""
    # (file, line, name) -> (primitive calls, calls, self time,
    # cumulative time, {caller: the same four for that edge})
    stats = pstats.Stats(profile).stats
    owners_memo = {}

    def owners(func, depth):
        """``{layer: share}``: who pays for foreign ``func``'s time."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if depth == 0 or total <= 0.0:
            return {"other": 1.0}
        owners_memo[func] = {"other": 1.0}   # cut recursion cycles
        out = {}
        for caller, edge in callers.items():
            for layer, share in owners(caller, depth - 1).items():
                out[layer] = out.get(layer, 0.0) + share * edge[3] / total
        owners_memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        # Foreign self time: split over callers by the time the edge
        # itself recorded, then follow foreign callers upward.
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            self_s["other"] += tt
            continue
        for caller, edge in callers.items():
            for owner, share in owners(caller, _MAX_DEPTH).items():
                self_s[owner] += tt * share * edge[2] / edge_total
    total = sum(self_s.values())
    return {layer: {"self_s": self_s[layer],
                    "self_share": self_s[layer] / total if total else 0.0,
                    "calls": calls[layer]}
            for layer in LAYERS}
