"""One benchmark instance, run in a fresh interpreter.

    child.py [--trace SPAWN_NS SPANS_JSON] cli BCC_ARGS...
    child.py [--trace SPAWN_NS SPANS_JSON] approx CHANNEL K1 K2 SEED

`cli` runs bcc.cli.main on the given arguments, as `python -m bcc` would.
`approx` runs the library pipeline load_channel -> channel_graph ->
approximate_dqg -> code_from_partitions and prints its result as JSON.
With --trace, spans around the calls into each bcc module are written to
SPANS_JSON at exit; SPAWN_NS is when the parent started this process, on the
system-wide monotonic clock, so interpreter start-up is a span too.
"""

import time

STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def run_approx(path: str, k1: int, k2: int, seed: int) -> dict:
    from bcc import approx, channels, exact, files

    channel = files.load_channel(path)
    graph = channels.channel_graph(channel)
    res = approx.approximate_dqg(graph, k1, k2, seed=seed)
    code = exact.code_from_partitions(channel, res.p1, res.p2)
    return {"value": res.value, "upper_bound": res.upper_bound,
            "ratio_certificate": res.ratio_certificate, "samples_used": res.samples_used,
            "encoder": code.encoder, "decoder1": code.decoder1, "decoder2": code.decoder2}


def main(argv: list[str]) -> int:
    tracer = None
    if argv[0] == "--trace":
        from spans import Tracer, install

        spawn_ns, spans_path, argv = int(argv[1]), argv[2], argv[3:]
        tracer = Tracer()
        root = tracer.open("instance", spawn_ns)
        tracer.close(tracer.open("python.startup", spawn_ns), STARTED_NS)
        span = tracer.open("python.import")
    import bcc.cli

    if tracer is not None:
        tracer.close(span)
        install(tracer)
    if argv[0] == "cli":
        code = bcc.cli.main(argv[1:])
    elif argv[0] == "approx":
        path, k1, k2, seed = argv[1], int(argv[2]), int(argv[3]), int(argv[4])
        print(json.dumps(run_approx(path, k1, k2, seed)))
        code = 0
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.close(root)
        with open(spans_path, "w") as fp:
            json.dump(tracer.spans, fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
