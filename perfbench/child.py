"""Child processes the benchmark starts; run.py passes PYTHONPATH=src.

    python3 perfbench/child.py setup <workload> <seed>
        Fresh-interpreter set-up: times ``import kmln`` (``kmln.cli`` for
        verify-cli) and the first cold call of the workload's entry point,
        then probes the machine speed.  Prints
        {"import_s", "call_s", "probe_ns"} as its last line.

    python3 perfbench/child.py verify <seed> <record.json> [<op>]
        The verify-cli operation: ``kmln verify --seed <seed>``, as
        ``python -m kmln verify`` runs it, with the speed sampler running.
        Writes {"probe_ns", "factor"} to <record.json>.  With
        <op>, the tracer is installed as well: the span cli.verify covers
        the process from the top of this script, import and click included,
        and the spans are added to the record.  Exits with the command's
        exit code.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def setup(workload, seed):
    t0 = time.perf_counter()
    if workload == "verify-cli":
        import kmln.cli  # noqa: F401
    else:
        import kmln  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    call = WORKLOADS[workload].cold_call(seed)
    t2 = time.perf_counter()
    call()
    t3 = time.perf_counter()
    import speed

    print(json.dumps({"import_s": t1 - t0, "call_s": t3 - t2,
                      "probe_ns": speed.probe_ns()}))


def verify(seed, record_path, op=None):
    import kmln.cli
    import speed
    import tracing

    sampler = speed.Sampler()
    tracer = tracing.Tracer()
    sampler.start()
    if op is not None:
        tracer.op = op
        tracer.install()
    code = 0
    try:
        with tracer.span(tracing.CLI_VERIFY, start=START_NS):
            kmln.cli.main(["verify", "--seed", str(seed)])
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.uninstall()
        sampler.stop()
    record = {"probe_ns": sampler.probe_ns, "factor": sampler.factor()}
    if op is not None:
        record["trace"] = tracing.spans_to_json(tracer.spans)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "verify":
        op = int(rest[2]) if len(rest) > 2 else None
        sys.exit(verify(int(rest[0]), rest[1], op))
    else:
        sys.exit(f"unknown mode {mode!r}")
