"""Analytic performance models from Section V-B.

The paper derives the consumer-phase model

    ``max latency = log2(C) x T(G)``

where ``C`` is the consumer count and ``T(G)`` the time to replicate
the ``G``-object working set into one slave cache from its CMB-tree
parent: with a binary tree of depth ``log2`` of the node count, the
deepest cache can only fill after every ancestor has, so replication
times chain down the tree.  The companion geometric-series argument
shows that if ``G`` doubles whenever ``C`` doubles, latency doubles —
only a scale-invariant ``G`` yields true logarithmic scaling.

These functions compute the same predictions from our simulator's
fabric parameters, so benchmarks can print model-vs-measured columns
(EXPERIMENTS.md records the agreement).
"""

from __future__ import annotations

import math

from ..cmb.message import HEADER_BYTES
from ..cmb.topology import TreeTopology
from ..jsonutil import canonical_size
from ..kvs.module import _fence_batch
from ..sim.network import NetworkParams
from .config import KapConfig
from .patterns import make_value, object_key

__all__ = [
    "dir_object_bytes", "replication_time", "predict_consumer_latency",
    "predict_fence_latency", "predict_producer_latency",
    "predict_setup_latency",
]

#: Approximate canonical-JSON bytes per directory entry: a name like
#: ``"o12345"`` plus a 40-hex SHA1 reference plus JSON punctuation.
_DIR_ENTRY_BYTES = 52


def _depth(config: KapConfig) -> int:
    """Levels below the root of the ``tree_arity``-ary comms tree."""
    return max(1, TreeTopology(config.nnodes, config.tree_arity).max_depth())


def dir_object_bytes(nentries: int) -> int:
    """Approximate wire size of a directory object with ``nentries``."""
    return 16 + nentries * _DIR_ENTRY_BYTES


def replication_time(nbytes: int, params: NetworkParams) -> float:
    """``T``: one parent-to-child transfer of ``nbytes`` (request +
    response hops of the fault-in RPC)."""
    request = (params.per_message_overhead + HEADER_BYTES / params.bandwidth
               + params.latency)
    response = (params.per_message_overhead
                + (HEADER_BYTES + nbytes) / params.bandwidth
                + params.latency)
    return request + response


def predict_consumer_latency(config: KapConfig,
                             params: NetworkParams) -> float:
    """The paper's ``log2(C) x T(G)`` consumer-phase model.

    ``G`` is the number of objects a consumer's directory working set
    drags through the caches: the whole key set for the single-
    directory layout, or only the directories its accesses touch for
    the ``dir_width`` layout.  Per-access local costs (IPC hops and the
    value objects themselves) are added once the directories are
    resident.  With ``dedup`` a cold read walks remotely instead, and
    the prediction is :func:`_predict_walk_latency`'s.
    """
    if config.dedup:
        return _predict_walk_latency(config, params)
    depth = _depth(config)
    total = config.total_objects
    value_bytes = canonical_size(
        make_value(0, config.value_size, config.redundant_values))

    if config.dir_width is None:
        dir_bytes = dir_object_bytes(total)
        ndirs = 1
    else:
        dir_bytes = dir_object_bytes(min(config.dir_width, total))
        ndirs = min(config.naccess,
                    max(1, math.ceil(total / config.dir_width)))

    t_dirs = replication_time(ndirs * dir_bytes, params)
    # Unique value objects also fault through the chain once each.
    t_vals = replication_time(config.naccess * (value_bytes + 16), params)
    ipc = config.naccess * 2 * (
        params.ipc_latency + params.per_message_overhead)
    return depth * (t_dirs + t_vals) + ipc


def _predict_walk_latency(config: KapConfig,
                          params: NetworkParams) -> float:
    """Consumer phase on the combined ``kvs.walk`` read path.

    No directory moves: every remote read costs the master's NIC one
    result (``{"value": v}`` and its comma), and each of its children
    two responses per access (a rank's first read leaves alone, the rest
    behind it).  Around that, per level: the item lists on their way up
    (``[key, root_index, ref]`` each) and the result lists on their way
    down are stored and forwarded, each ``1/arity`` of the one above;
    one hop each way; and the client's IPC round trips.  Every message
    it counts pays its header and frame, as in :func:`replication_time`
    — a request its one-entry roots table, a response the
    ``{"res": [...]}`` around its results.  It takes the lists as fully
    merged; the residual against the per-message cost of the batches
    the combiner really sends is in EXPERIMENTS.md.
    """
    arity, nnodes = config.tree_arity, config.nnodes
    remote = config.consumers * config.naccess * (nnodes - 1) / nnodes
    result_bytes = 1 + canonical_size({"value": make_value(
        0, config.value_size, config.redundant_values)})
    item_bytes = 1 + canonical_size(
        [object_key(config.total_objects - 1, config.dir_width), 0, False])
    request_frame = HEADER_BYTES + canonical_size(
        {"roots": ["0" * 40], "items": []})
    response_frame = HEADER_BYTES + canonical_size({"res": []})
    overhead = params.per_message_overhead
    responses = 2 * config.naccess * min(arity, nnodes - 1)
    nic = ((remote * result_bytes + responses * response_frame)
           / params.bandwidth + responses * overhead)
    depth = _depth(config)
    lists = sum(remote / arity ** level for level in range(1, depth + 1))
    forward = lists * (item_bytes + result_bytes) / params.bandwidth
    hops = depth * (2 * (overhead + params.latency)
                    + (request_frame + response_frame) / params.bandwidth)
    ipc = config.naccess * 2 * (params.ipc_latency + overhead)
    return nic + forward + hops + ipc


def predict_setup_latency(config: KapConfig,
                          params: NetworkParams) -> float:
    """Setup phase: one whole-session barrier at tree speed — every
    rank sends one tally the moment its subtree is complete, so the
    barrier costs :func:`_reduction_hops` and nothing else.  No byte
    term (a tally is a header and three fields) and no window."""
    return _reduction_hops(config, params)


def _reduction_hops(config: KapConfig, params: NetworkParams) -> float:
    """The hops of one tree reduction with nothing to carry.

    The contributions climb one-way, so the last reaches the root one
    hop per level of the deepest branch after the clients entered.
    The completion event then floods down, each rank sending its
    copies child by child: a rank hears it one hop per level plus one
    message time for every earlier sibling on its path, so the last to
    hear it is the last child of last children, not the deepest rank.
    Around that, the client's request and answer over IPC.
    """
    overhead, latency = params.per_message_overhead, params.latency
    arity = config.tree_arity
    heard = [0.0] * config.nnodes          # heap layout: parents first
    for rank in range(1, config.nnodes):
        heard[rank] = (heard[(rank - 1) // arity]
                       + ((rank - 1) % arity + 1) * overhead + latency)
    up = _depth(config) * (overhead + latency)
    ipc = 2 * (params.ipc_latency + overhead)
    return up + max(heard) + ipc


def predict_producer_latency(config: KapConfig,
                             params: NetworkParams) -> float:
    """Producer phase: pure write-back, so latency is ``nputs`` local
    IPC round-trips — independent of the producer count (Figure 2's
    flat profile)."""
    value_bytes = canonical_size(
        make_value(0, config.value_size, config.redundant_values))
    per_put = (2 * (params.ipc_latency + params.per_message_overhead)
               + (value_bytes + HEADER_BYTES) / params.ipc_bandwidth)
    return config.nputs * per_put


def predict_fence_latency(config: KapConfig,
                          params: NetworkParams) -> float:
    """Fence phase under the tree reduction.

    The bottleneck is one root child's uplink, which carries its
    subtree's share (~``1/arity``) of the payload.  Unique values:
    ~P x (value + tuple) / arity bytes — linear in the producer count.
    Redundant values: content objects reduce to one, but the (key,
    SHA1) tuples still concatenate, leaving a linear term with a much
    smaller constant — "short of logarithmic", exactly as the paper
    observes.  The contributions stream: a rank holding a message's
    worth (:func:`~repro.kvs.module._fence_batch`, ``B``) sends it
    whenever its NIC is idle, so to the bottleneck's link time the
    levels below add only the time the first ``B`` takes to reach it:
    none when one node's clients fill it, else stored and forwarded
    once per level.  Its messages are self-clocked: each carries what
    arrived while the previous one was on the wire, from ``arity``
    children sending at link speed, so their sizes grow ``arity``-fold
    and a subtree of ``S`` bytes leaves in ``1 + log_arity(S / B)`` of
    them, each paying its overhead (one of them is the hop up in
    :func:`_reduction_hops`, which adds the climb and the setroot flood
    down).
    """
    p = config.producers * config.nputs
    value_bytes = canonical_size(
        make_value(0, config.value_size, config.redundant_values))
    tuple_bytes = 60  # ["kap.oNNN", "<40-hex sha>"] in canonical JSON

    def subtree_bytes(ops: float) -> float:
        objs = 1 if config.redundant_values else ops
        return ops * tuple_bytes + objs * (value_bytes + 50)

    arity = config.tree_arity
    topology = TreeTopology(config.nnodes, arity)
    # Rank 1 and its first-child chain: the fullest subtree per level.
    levels, rank = [], 1
    while rank < config.nnodes:
        levels.append(subtree_bytes(
            p * topology.subtree_size(rank) / config.nnodes))
        rank = arity * rank + 1
    top = levels[0] if levels else 0.0
    batch = _fence_batch(params)
    head = 0.0
    if subtree_bytes(p / config.nnodes) < batch:
        head = sum(min(nbytes, batch)
                   for nbytes in levels[1:]) / params.bandwidth
    extra = math.log(top / batch, arity) if top > batch and arity > 1 else 0.0
    return (top / params.bandwidth + head
            + extra * params.per_message_overhead
            + _reduction_hops(config, params))
