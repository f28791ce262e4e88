"""One fresh process of the nerfcert benchmark.

    python3 perfbench/child.py RECORD setup
    python3 perfbench/child.py RECORD cli TRACE ARG...
    python3 perfbench/child.py RECORD probes FRAME EPS_SQ THREADS

The parent puts the program's ``src`` on PYTHONPATH.  Each mode writes one
JSON record to RECORD: monotonic timestamps in ns (``imported`` is taken
right after ``nerfcert.cli`` is imported, so the parent can time set-up
from spawn) and, when traced, the spans.  ``cli`` runs the real entry
point ``nerfcert.cli.main``.  With TRACE=1 it first wraps the public names
that ``nerfcert.cli`` looks up, so each call into a layer records a span.
``probes`` times the layer functions the CLI does not reach on its own.
"""

import json
import sys
import time

import nerfcert.cli as cli

IMPORTED = time.monotonic_ns()

# Names looked up in nerfcert.cli, with a function giving the exact count
# a call produced.  A name a later refactor removes is skipped, and the
# metrics built on it are reported as absent.
CLI_NAMES = {
    "read_frame": None,
    "NetConfig.create": None,
    "sweep_all_K": lambda t: {"points": t.net_points_used, "N": t.N},
    "certify": None,
    "write_bounds_csv": None,
    "exact_bounds_all_K": lambda rs: {"subsets": sum(r.subsets_examined for r in rs)},
    "read_bounds_csv": None,
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span id and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next = 0

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                self._stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id}
            if counts is not None:
                span["counts"] = counts(result)
            self.spans.append(span)
            return result

        return traced


class _ClassProxy:
    """Stands in for a class in nerfcert.cli with some attributes wrapped."""

    def __init__(self, cls, **overrides):
        self._cls = cls
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._cls, name)

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)


def install(tracer):
    for name, counts in CLI_NAMES.items():
        owner, _, attr = name.rpartition(".")
        if owner:
            cls = getattr(cli, owner, None)
            if cls is None or not hasattr(cls, attr):
                continue
            wrapped = tracer.wrap(name, getattr(cls, attr), counts)
            setattr(cli, owner, _ClassProxy(cls, **{attr: wrapped}))
        elif hasattr(cli, name):
            setattr(cli, name, tracer.wrap(name, getattr(cli, name), counts))


def run_cli(trace, argv):
    tracer = Tracer("cli")
    if trace:
        install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    start = time.monotonic_ns()
    rc = main(argv)
    end = time.monotonic_ns()
    return {"start": start, "end": end, "rc": rc, "spans": tracer.spans}


def run_probes(frame_path, eps_sq, threads):
    """Layer calls made directly, each in a span named after its metric."""
    import tracemalloc

    import numpy as np
    from nerfcert import bounds, epsnet, frames

    tracer = Tracer("probes")
    out = {}

    def probe(metric, module, name, *args, **kwargs):
        fn = getattr(module, name, None)
        if fn is None:
            return None
        return tracer.wrap(metric, fn)(*args, **kwargs)

    frame = frames.read_frame(frame_path)
    probe("frames.invariance_check_s", frames, "verify_group_invariance", frame)
    probe("frames.untf_check_s", frames, "verify_untf", frame)
    config = epsnet.NetConfig.create(frame.M, eps_sq)
    out["cardinality"] = config.cardinality
    out["pruned_cardinality"] = probe("epsnet.count_s", epsnet,
                                      "pruned_cardinality", config)
    # One unit column makes the kernel about free, so this times the net.
    unit = frames.FrameMatrix(np.eye(frame.M)[:, :1])
    table = probe("epsnet.enumerate_s", bounds, "sweep_all_K", unit, config, threads=1)
    out["enumerated"] = None if table is None else table.net_points_used
    if hasattr(bounds, "sweep_all_K"):
        tracemalloc.start()
        bounds.sweep_all_K(frame, config, threads=threads)
        out["sweep_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    out["spans"] = tracer.spans
    return out


def main(argv):
    record_path, mode, *rest = argv
    if mode == "setup":
        record = {}
    elif mode == "cli":
        record = run_cli(rest[0] == "1", rest[1:])
    elif mode == "probes":
        record = run_probes(rest[0], float(rest[1]), int(rest[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record["imported"] = IMPORTED
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return record.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
