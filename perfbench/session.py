"""One benchmark session: a fresh process that sets up and runs a query list.

Usage: ``python3 perfbench/session.py SPEC.json RESULT.json``

The spec names the workload, the session's queries, the fewest rounds to
run, for how many seconds to keep starting rounds, and whether to trace.
The process imports the program, installs the tracer when asked, builds
what the first query needs, prints ``ready`` (the parent times set-up from
its own launch to this line), then runs every round of queries in a child
forked from this set-up state, one round after another, so each round
starts with every in-process cache of the program as set-up left it and
none of the work of an earlier round.  It writes a JSON result with each
round's per-query latencies and answer digests, its peak RSS and, when
traced, the per-function profile.  Traced sessions also write their spans
next to the result (``<RESULT>.spans.json``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, QueryLog, in_fork

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = workload.runner(spec["session"], tracer)
    print("ready", flush=True)

    def one_round(index: int) -> dict:
        log = QueryLog()
        started = time.perf_counter()
        run(log, index)
        return {"latencies": log.latencies, "answers": log.answers,
                "query_phase_s": time.perf_counter() - started}

    rounds = []
    started = time.perf_counter()
    while not spec["setup_only"]:
        elapsed = time.perf_counter() - started
        # After the fewest rounds, stop before a round of average length
        # would end past ``seconds``.
        if len(rounds) >= spec["rounds"] and (
                not rounds or elapsed + elapsed / len(rounds) > spec["seconds"]):
            break
        index = len(rounds)
        rounds.append(in_fork(tracer, lambda: one_round(index)))
    result = {
        "rounds": rounds,
        # Forked children count too: the largest process of the session.
        "peak_rss_kib": max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
    }
    if tracer is not None:
        result["profile"] = tracer.profile()
        result["query_total_ns"] = sum(
            end - start for index, start, end, _, _ in tracer.spans if index == 0
        )
        tracer.write(result_path + ".spans.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
