"""Per-level timeline of the ``kvs.walk`` read phase of one KAP run.

For a ``KapConfig`` (always ``dedup=True``) it prints, per tree level of
the *sending* rank, how many ``kvs.walk`` requests left, their
batch-size histogram and the first/last send time; the mean request
and result payload bytes per item, over every level; then what the
master's NIC did with the read phase: responses, bytes, and busy share
(``msgs x per_message_overhead + bytes / bandwidth`` over the phase,
with the two terms apart).
The read phase runs from the first ``kvs.walk`` request on the wire to
the moment the master's NIC finishes its last response.

A phase whose bottleneck link is < 90% busy is a finding (ROADMAP E):
this is the first mechanical piece of that link-utilisation ledger.

    PYTHONPATH=src python benchmarks/walk_timeline.py --nodes 256

Pure observer: it wraps ``Network.send`` for the duration of the run,
schedules nothing, and the run is event-identical to an unobserved one.
"""

import argparse
import statistics

from phase_budget import fabric_sends
from repro.cmb.message import HEADER_BYTES, MessageType
from repro.cmb.topology import TreeTopology
from repro.kap import KapConfig, run_kap
from repro.sim.cluster import zin_like_params

TOPIC = "kvs.walk"


def _hist(sizes):
    """Batch sizes bucketed by powers of two: ``"1:3 2-3:1 16-31:9"``."""
    buckets = {}
    for n in sizes:
        lo = 1 << (n.bit_length() - 1)
        buckets[lo] = buckets.get(lo, 0) + 1
    return " ".join(
        f"{lo}:{c}" if lo == 1 else f"{lo}-{2 * lo - 1}:{c}"
        for lo, c in sorted(buckets.items()))


def timeline(config: KapConfig) -> dict:
    """Run ``config`` and reduce its ``kvs.walk`` traffic to the
    per-level rows and the master-NIC summary (times in seconds from
    the first request).  Brokers sit on node ``rank`` (KAP's layout)."""
    with fabric_sends([], TOPIC) as log:
        result = run_kap(config)
    params = zin_like_params()
    topo = TreeTopology(config.nnodes, arity=config.tree_arity)
    reqs = [r for r in log if r[3].mtype == MessageType.REQUEST]
    t0 = min(r[0] for r in reqs)
    levels = {}
    for t, src, _dst, msg, _size in reqs:
        levels.setdefault(topo.depth(src), []).append(
            (t - t0, len(msg.payload["items"]), src))
    rows = []
    for depth in sorted(levels):
        sent = levels[depth]
        sizes = [n for _t, n, _src in sent]
        rows.append({"level": depth,
                     "ranks": len({src for _t, _n, src in sent}),
                     "requests": len(sent),
                     "items": sum(sizes),
                     "mean_batch": statistics.fmean(sizes),
                     "hist": _hist(sizes),
                     "first_s": min(t for t, _n, _src in sent),
                     "last_s": max(t for t, _n, _src in sent)})
    # Payload bytes (the header is per message, not per item); a failed
    # batch's error response carries no results and is left out.
    results = [(len(r[3].payload["res"]), r[4] - HEADER_BYTES)
               for r in log if r[3].mtype == MessageType.RESPONSE
               and "res" in r[3].payload]
    per_item = {
        "request_bytes": (sum(r[4] - HEADER_BYTES for r in reqs)
                          / sum(len(r[3].payload["items"]) for r in reqs)),
        "result_bytes": (sum(b for _n, b in results)
                         / sum(n for n, _b in results))}
    resp = [r for r in log if r[1] == 0
            and r[3].mtype == MessageType.RESPONSE]
    nbytes = sum(r[4] for r in resp)
    msgs_s = len(resp) * params.per_message_overhead
    bytes_s = nbytes / params.bandwidth
    busy = msgs_s + bytes_s
    # The NIC's FIFO, replayed: it is done one serialisation after the
    # last response was handed to it, or later if it was backed up.
    done = 0.0
    for t, _src, _dst, _msg, size in resp:
        done = (max(done, t) + params.per_message_overhead
                + size / params.bandwidth)
    phase = done - t0
    rank1 = [n for _t, n, src in levels.get(1, []) if src == 1]
    return {"levels": rows,
            "get_max_ms": result.max_consumer_latency * 1e3,
            "phase_s": phase,
            "per_item": per_item,
            "master": {"responses": len(resp),
                       "bytes": nbytes,
                       "msgs_s": msgs_s,
                       "bytes_s": bytes_s,
                       "busy_s": busy,
                       "busy_share": busy / phase},
            "rank1": {"requests": len(rank1),
                      "mean_batch": statistics.fmean(rank1) if rank1 else 0}}


def render(config: KapConfig, doc: dict) -> str:
    lines = [f"kvs.walk timeline: {config.nnodes} nodes x "
             f"{config.procs_per_node} procs, arity {config.tree_arity}, "
             f"value_size {config.value_size}, naccess {config.naccess}"
             f" (max consumer latency {doc['get_max_ms']:.6f} ms)",
             f"{'level':>5} {'ranks':>5} {'reqs':>6} {'items':>7} "
             f"{'mean':>6} {'first_us':>9} {'last_us':>9}  batch sizes"]
    for r in doc["levels"]:
        lines.append(
            f"{r['level']:>5} {r['ranks']:>5} {r['requests']:>6} "
            f"{r['items']:>7} {r['mean_batch']:>6.1f} "
            f"{r['first_s'] * 1e6:>9.1f} {r['last_s'] * 1e6:>9.1f}  "
            f"{r['hist']}")
    m = doc["master"]
    lines.append(
        f"per item: request {doc['per_item']['request_bytes']:.1f} B, "
        f"result {doc['per_item']['result_bytes']:.1f} B (payload bytes, "
        f"all levels)")
    lines.append(
        f"rank 1: {doc['rank1']['requests']} requests, mean batch "
        f"{doc['rank1']['mean_batch']:.1f} items")
    lines.append(
        f"master NIC: {m['responses']} responses, {m['bytes']} B, busy "
        f"{m['busy_s'] * 1e6:.1f} of {doc['phase_s'] * 1e6:.1f} us "
        f"= {m['busy_share']:.0%} of the read phase (messages "
        f"{m['msgs_s'] * 1e6:.1f} + bytes {m['bytes_s'] * 1e6:.1f} us)")
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, default=256)
    ap.add_argument("--procs-per-node", type=int, default=16)
    ap.add_argument("--value-size", type=int, default=64)
    ap.add_argument("--arity", type=int, default=2)
    ap.add_argument("--naccess", type=int, default=1)
    ap.add_argument("--dir-width", type=int, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    config = KapConfig(nnodes=args.nodes, procs_per_node=args.procs_per_node,
                       value_size=args.value_size, tree_arity=args.arity,
                       naccess=args.naccess, dir_width=args.dir_width,
                       seed=args.seed, dedup=True)
    print(render(config, timeline(config)))


if __name__ == "__main__":
    main()
