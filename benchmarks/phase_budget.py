"""Where one KAP run's makespan goes: each phase's share of it, and what
the busiest NIC of that phase was doing meanwhile.

For a ``KapConfig`` it prints the four phases (setup / put / fence /
get), each as long as its slowest process took and as a share of the
makespan, and per phase the NIC that spent longest on the phase's
messages, with its busy share (``msgs x per_message_overhead + bytes /
bandwidth`` over the phase) and the phase's length over the analytic
model's (``repro.kap.model``).  Messages belong to a phase by topic:
``barrier.*`` is setup, the read topics are get, every other ``kvs.*``
message synchronises; puts are write-back and never reach the fabric.

A phase whose bottleneck link is < 90% busy is a finding (ROADMAP E) —
unless the phase is as fast as its hops and bytes allow: no link *can*
be busy while one small message climbs the tree.  The model column
shows that (within 1.25x).  So:

    link-bound   busiest NIC >= 90% busy
    as modelled  < 90%, but within 1.25x of the hop/byte model
    FINDING      < 90% and slower than the model: time nobody used

    PYTHONPATH=src python benchmarks/phase_budget.py --nodes 256 --dedup

``--check`` makes it a gate: it exits 1 when the setup, put or fence
phase is a FINDING or reads outside 0.8-1.25 of its model (the read
phase has open findings, ROADMAP E).

Pure observer: it wraps ``Network.send`` for the duration of the run,
schedules nothing, and the run is event-identical to an unobserved one.
"""

import argparse
import contextlib
import sys

from repro.kap import (KapConfig, predict_consumer_latency,
                       predict_fence_latency, predict_producer_latency,
                       predict_setup_latency, run_kap)
from repro.sim.cluster import zin_like_params
from repro.sim.network import Network

BUSY_FLOOR = 0.9
MODEL_FLOOR = 0.8
MODEL_CEILING = 1.25
READ_TOPICS = ("kvs.get", "kvs.load", "kvs.walk")
CHECKED_PHASES = ("setup", "put", "fence")


@contextlib.contextmanager
def fabric_sends(log, topic=None):
    """Append ``(t, src_node, dst_node, msg, size)`` to ``log`` for
    every message handed to the fabric between two nodes — of ``topic``
    only, when one is given."""
    real = Network.send

    def send(self, src, dst, payload, size, port=Network.DEFAULT_PORT):
        msg = payload[1]        # brokers send (plane, Message)
        if src != dst and (topic is None or msg.topic == topic):
            log.append((self.sim.now, src, dst, msg, size))
        real(self, src, dst, payload, size, port)

    Network.send = send
    try:
        yield log
    finally:
        Network.send = real


def phase_of(topic: str) -> str:
    if topic.startswith("barrier."):
        return "setup"
    return "get" if topic in READ_TOPICS else "fence"


def nic_busy(msgs: int, nbytes: int, params) -> float:
    return msgs * params.per_message_overhead + nbytes / params.bandwidth


def budget(config: KapConfig) -> dict:
    """Run ``config`` and account its fabric traffic to the four phases
    (times in seconds).  Brokers sit on node ``rank`` (KAP's layout)."""
    with fabric_sends([]) as log:
        result = run_kap(config)
    params = zin_like_params()
    nics = {}           # phase -> node -> [msgs, bytes]
    for _t, src, _dst, msg, size in log:
        tally = nics.setdefault(phase_of(msg.topic), {}).setdefault(
            src, [0, 0])
        tally[0] += 1
        tally[1] += size
    rows = []
    for name, length, model in (
            ("setup", result.setup_time, predict_setup_latency),
            ("put", result.max_producer_latency, predict_producer_latency),
            ("fence", result.max_sync_latency, predict_fence_latency),
            ("get", result.max_consumer_latency, predict_consumer_latency)):
        tallies = nics.get(name, {})
        node = max(tallies, default=None,
                   key=lambda n: (nic_busy(*tallies[n], params), -n))
        msgs, nbytes = tallies.get(node, (0, 0))
        busy = nic_busy(msgs, nbytes, params)
        share = busy / length if length > 0 else 0.0
        ratio = length / model(config, params)
        verdict = ("link-bound" if share >= BUSY_FLOOR
                   else "as modelled" if ratio <= MODEL_CEILING
                   else "FINDING")
        rows.append({"phase": name, "length_s": length,
                     "makespan_share": length / result.total_time,
                     "nic": node, "msgs": msgs, "bytes": nbytes,
                     "busy_s": busy, "busy_share": share,
                     "model_ratio": ratio, "verdict": verdict})
    return {"makespan_s": result.total_time, "events": result.events,
            "phases": rows}


def render(config: KapConfig, doc: dict) -> str:
    lines = [f"phase budget: {config.nnodes} nodes x "
             f"{config.procs_per_node} procs, arity {config.tree_arity}, "
             f"value_size {config.value_size}, naccess {config.naccess}, "
             f"dedup {config.dedup} (makespan "
             f"{doc['makespan_s'] * 1e3:.6f} ms, {doc['events']} events)",
             f"{'phase':>5} {'len_us':>9} {'share':>6} {'nic':>4} "
             f"{'msgs':>6} {'bytes':>10} {'busy_us':>9} {'busy':>5} "
             f"{'x model':>7}  verdict"]
    for r in doc["phases"]:
        nic = "-" if r["nic"] is None else r["nic"]
        lines.append(
            f"{r['phase']:>5} {r['length_s'] * 1e6:>9.1f} "
            f"{r['makespan_share']:>6.1%} {nic:>4} {r['msgs']:>6} "
            f"{r['bytes']:>10} {r['busy_s'] * 1e6:>9.1f} "
            f"{r['busy_share']:>5.0%} {r['model_ratio']:>7.2f}  "
            f"{r['verdict']}")
    return "\n".join(lines)


def failed_phases(doc: dict) -> list:
    """The checked phases that are a FINDING or off their model."""
    return [r["phase"] for r in doc["phases"]
            if r["phase"] in CHECKED_PHASES
            and (r["verdict"] == "FINDING"
                 or not MODEL_FLOOR <= r["model_ratio"] <= MODEL_CEILING)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, default=256)
    ap.add_argument("--procs-per-node", type=int, default=16)
    ap.add_argument("--value-size", type=int, default=64)
    ap.add_argument("--arity", type=int, default=2)
    ap.add_argument("--nputs", type=int, default=1)
    ap.add_argument("--naccess", type=int, default=1)
    ap.add_argument("--consumers", type=int, default=None)
    ap.add_argument("--dir-width", type=int, default=None)
    ap.add_argument("--dedup", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when setup, put or fence is a FINDING "
                         f"or outside {MODEL_FLOOR}-{MODEL_CEILING}x "
                         "its model")
    args = ap.parse_args(argv)
    config = KapConfig(nnodes=args.nodes, procs_per_node=args.procs_per_node,
                       value_size=args.value_size, tree_arity=args.arity,
                       nputs=args.nputs, naccess=args.naccess,
                       nconsumers=args.consumers, dir_width=args.dir_width,
                       seed=args.seed, dedup=args.dedup)
    doc = budget(config)
    print(render(config, doc))
    failed = failed_phases(doc) if args.check else []
    if failed:
        print(f"check failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
