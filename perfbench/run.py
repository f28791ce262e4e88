"""Benchmark of the nerf-cert command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI call runs ``nerfcert.cli.main`` in a fresh child process
(``perfbench/child.py``) with the program imported from the checkout's
``src``.  Children run one at a time with one BLAS thread, so ``--threads``
is the only parallelism.  Every output is checked; a run with a nonzero
exit, a failed check or a moved exact count counts as failed.

``--trace 0`` repeats rounds of CLI calls for about ``--seconds`` (at
least one round) and reports the end-to-end metrics of BENCHMARK.json:
each timing as the median over its calls (``setup_s`` over every child)
and ``peak_rss_mb`` as the highest.  ``--trace 1`` makes one pass with span-recording wrappers
around the names ``nerfcert.cli`` looks up, plus standalone probes of the
layer functions, and reports the per-layer metrics.  The seed only
relabels the input frame (column permutation and signs), which leaves
every bound and count unchanged.  The last line of stdout is the result
JSON; spans and the environment are written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0
SETUP_SPAWNS = 5
# How a run reduces its samples: peak memory is the highest, the rest medians.
STATISTIC = {"peak_rss_mb": max}
# One BLAS thread per process, so no run has more busy threads than cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

os.environ.update(THREAD_ENV)  # before numpy loads its BLAS here too
os.environ.pop("NERF_CERT_THREADS", None)

import numpy as np  # noqa: E402

import checks  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One input configuration; see BENCHMARK.json for why each was chosen.

    ``points`` and ``subsets`` are exact counts frozen at the baseline:
    pruned net points swept and subsets the oracle examines over
    K >= ``oracle_k_min``.  A round interleaves ``estimate_reps`` estimate
    calls at each thread count with ``oracle_reps`` oracle calls.
    """

    M: int
    k: int
    eps_sq: float
    points: int
    subsets: int
    oracle_k_min: int
    estimate_reps: int
    oracle_reps: int
    paper_check: bool


# On a shared 2-vCPU VM the same call runs at one of two speeds that switch
# every few seconds (a fixed Python loop takes either ~0.21 s or ~0.36 s),
# so each timing is the median of calls spread over the run.  Workloads
# whose time is mostly Python (net enumeration at M=4, the Jacobi oracle at
# N=20) varied by 20-40 % between runs on such a machine and are left out;
# both layers are still timed here, at a smaller share.  The oracle only
# checks the last few K, so it stays a small part of each run.
WORKLOADS = {
    # The paper's M=8 run: the bounds kernel is most of the time.
    "sweep_m8": Workload(8, 4, 0.25, 503_486, 561, 559, 1, 10, True),
    # Few points, very wide rows: chunk temporaries and memory dominate.
    "sweep_m10_wide": Workload(10, 5, 0.45, 12_614, 1, 4032, 6, 10, False),
}


@dataclass
class Call:
    """One child process: exit code, timings and its peak memory."""

    label: str
    rc: int
    setup_s: Optional[float]
    main_s: Optional[float]
    peak_rss_mb: float
    record: dict
    stdout: str
    stderr: str


def _tree_rss_kb(root_pid):
    """Summed VmRSS of a process and all its descendants, read from /proc."""
    children = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total


class Runner:
    """Spawns children one at a time, each timed, sampled and reaped."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.calls = []

    def spawn(self, label, *child_args) -> Call:
        idx = len(self.calls)
        record_path = self.work / f"{idx:02d}-{label}.json"
        out_path = self.work / f"{idx:02d}-{label}.out"
        err_path = self.work / f"{idx:02d}-{label}.err"
        remaining = self.deadline - time.monotonic()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t_spawn = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(record_path),
                 *child_args],
                stdout=out, stderr=err, env=self.env, cwd=self.work,
                start_new_session=True)
        peak_kb = [0]
        done = threading.Event()

        def sample():
            while not done.wait(0.1):
                peak_kb[0] = max(peak_kb[0], _tree_rss_kb(proc.pid))

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        sampler = threading.Thread(target=sample, daemon=True)
        killer = threading.Timer(max(remaining, 0.0), kill_group)
        sampler.start()
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            done.set()
            sampler.join()
            kill_group()  # what the child left behind, or the child itself
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {}
        if record_path.exists():
            record = json.loads(record_path.read_text())
        imported = record.get("imported")
        main_s = None
        if "start" in record:
            main_s = (record["end"] - record["start"]) / 1e9
        call = Call(
            label=label,
            rc=proc.returncode,
            setup_s=(imported - t_spawn) / 1e9 if imported else None,
            main_s=main_s,
            peak_rss_mb=max(peak_kb[0], usage.ru_maxrss) / 1024.0,
            record=record,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )
        self.calls.append(call)
        return call


@dataclass
class Context:
    wl: Workload
    frame_path: Path
    N: int
    t2: int
    runner: Runner
    tally: checks.Tally
    pruned_cardinality: int
    reference: Optional[str] = None  # the first bounds CSV of the run
    samples: dict = field(default_factory=dict)

    def add(self, metric, value):
        if value is not None:
            self.samples.setdefault(metric, []).append(value)

    def cli(self, label, argv, trace=False):
        call = self.runner.spawn(label, "cli", "1" if trace else "0", *argv)
        self.add("setup_s", call.setup_s)
        self.add("peak_rss_mb", call.peak_rss_mb)
        return call

    def estimate(self, threads, trace=False, reference=None):
        """One checked ``estimate`` call; returns (call, CSV text or None)."""
        path = self.runner.work / f"bounds_{threads}t.csv"
        call = self.cli(
            f"estimate_{threads}t" + ("_traced" if trace else ""),
            ["estimate", "-f", str(self.frame_path), "--eps-sq",
             repr(self.wl.eps_sq), "--threads", str(threads),
             "--cap-mode", "untf", "-o", str(path)],
            trace)
        problems = checks.check_exit(call.rc, call.stderr)
        text = None
        if not problems:
            text = path.read_text()
            problems = self.check_bounds(text)
            if reference is not None:
                problems += checks.check_identical(
                    reference, text, "1-thread and 2-thread CSVs")
        self.tally.record(call.label, problems)
        return call, text

    def check_bounds(self, text):
        try:
            meta, cols = checks.parse_bounds_csv(text)
        except (ValueError, KeyError) as exc:
            return [f"unreadable bounds CSV: {exc}"]
        points = meta.get("net_points_used")
        problems = checks.check_count("epsnet.points", points, self.wl.points)
        if points != self.pruned_cardinality:
            problems.append(f"net_points_used={points} but pruned_cardinality="
                            f"{self.pruned_cardinality}")
        problems += checks.check_tight_identities(cols, self.wl.M, self.N)
        if self.wl.paper_check:
            problems += checks.check_paper_m8(cols)
        return problems

    def oracle(self, trace=False):
        """One ``oracle --check`` call against the 1-thread bounds CSV.

        The benchmark also checks the sandwich itself, from the exact
        bounds the oracle wrote and the bounds CSV it read.
        """
        out = self.runner.work / "oracle.csv"
        bounds_csv = self.runner.work / "bounds_1t.csv"
        call = self.cli(
            "oracle" + ("_traced" if trace else ""),
            ["oracle", "-f", str(self.frame_path),
             "--k-min", str(self.wl.oracle_k_min), "--check", str(bounds_csv),
             "-o", str(out)],
            trace)
        problems = checks.check_exit(call.rc, call.stderr)
        if not problems:
            if "sandwich verified" not in call.stdout:
                problems.append("oracle --check did not verify the sandwich")
            try:
                ks, alpha, beta, subsets = checks.parse_oracle_csv(out.read_text())
                _, cols = checks.parse_bounds_csv(bounds_csv.read_text())
            except (ValueError, IndexError, KeyError) as exc:
                problems.append(f"unreadable oracle or bounds CSV: {exc!r}")
            else:
                problems += checks.check_count("oracle.subsets", subsets,
                                               self.wl.subsets)
                problems += checks.check_sandwich(cols, ks, alpha, beta)
        self.tally.record(call.label, problems)
        return call


def relabelled_frame(wl, seed):
    """The orbit frame with columns permuted and signed by the seed."""
    from nerfcert.frames import FrameMatrix, GeneratorSpec, orbit_signed_permutations

    phi = orbit_signed_permutations(GeneratorSpec(wl.M, wl.k)).matrix
    rng = np.random.default_rng(seed)
    perm = rng.permutation(phi.shape[1])
    signs = rng.choice((-1.0, 1.0), size=phi.shape[1])
    return FrameMatrix(phi[:, perm] * signs)


def run_round(ctx):
    """Untraced CLI calls, interleaved; each estimate in its own child."""
    for i in range(max(ctx.wl.estimate_reps, ctx.wl.oracle_reps)):
        if i < ctx.wl.estimate_reps:
            for threads in (1, ctx.t2):
                call, text = ctx.estimate(threads, reference=ctx.reference)
                if ctx.reference is None:
                    ctx.reference = text
                ctx.add("estimate_1t_s" if threads == 1 else "estimate_2t_s",
                        call.main_s)
        if i < ctx.wl.oracle_reps:
            ctx.add("oracle_s", ctx.oracle().main_s)


def _span(spans, name):
    return next((s for s in spans if s["name"] == name), None)


def _dur(span):
    return None if span is None else (span["end"] - span["start"]) / 1e9


def self_times(spans):
    """Duration minus the part covered by direct child spans, per span id."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"] - child.get(s["id"], 0)) / 1e9
            for s in spans}


def _ratio(a, b):
    return None if a is None or not b else a / b


def run_traced(ctx):
    """One traced pass: the CLI calls with spans, then the layer probes."""
    est1, text1 = ctx.estimate(1, trace=True)
    est2, _ = ctx.estimate(ctx.t2, trace=True, reference=text1)
    plain2, _ = ctx.estimate(ctx.t2, reference=text1)
    orc = ctx.oracle(trace=True)
    probes = ctx.runner.spawn("probes", "probes", str(ctx.frame_path),
                              repr(ctx.wl.eps_sq), str(ctx.t2))
    pr = probes.record
    problems = checks.check_exit(probes.rc, probes.stderr)
    if not problems:
        problems += checks.check_count("epsnet.count", pr.get("pruned_cardinality"),
                                       ctx.wl.points)
        problems += checks.check_count("epsnet.enumerated", pr.get("enumerated"),
                                       ctx.wl.points)
    ctx.tally.record("probes", problems)

    s1 = est1.record.get("spans", [])
    s2 = est2.record.get("spans", [])
    so = orc.record.get("spans", [])
    sp = pr.get("spans", [])
    sweep1 = _span(s1, "sweep_all_K")
    main1 = _span(s1, "cli.main")
    exact = _span(so, "exact_bounds_all_K")
    points = sweep1["counts"]["points"] if sweep1 else None
    subsets = exact["counts"]["subsets"] if exact else None
    enumerate_s = _dur(_span(sp, "epsnet.enumerate_s"))
    sweep_1t = _dur(sweep1)
    sweep_2t = _dur(_span(s2, "sweep_all_K"))
    m = {
        "frames.read_s": _dur(_span(s1, "read_frame")),
        "frames.invariance_check_s": _dur(_span(sp, "frames.invariance_check_s")),
        "frames.untf_check_s": _dur(_span(sp, "frames.untf_check_s")),
        "epsnet.config_s": _dur(_span(s1, "NetConfig.create")),
        "epsnet.count_s": _dur(_span(sp, "epsnet.count_s")),
        "epsnet.points": points,
        "epsnet.pruned_ratio": _ratio(points, pr.get("cardinality")),
        "epsnet.enumerate_s": enumerate_s,
        "epsnet.points_per_s": _ratio(points, enumerate_s),
        "bounds.sweep_1t_s": sweep_1t,
        "bounds.sweep_2t_s": sweep_2t,
        "bounds.kernel_1t_s": None if None in (sweep_1t, enumerate_s)
        else sweep_1t - enumerate_s,
        "bounds.kernel.correlations": None if points is None else points * ctx.N,
        "bounds.kernel.temp_bytes_computed": None if points is None
        else 8 * points * ctx.N,
        "bounds.scaling_2t": _ratio(sweep_1t, sweep_2t),
        "bounds.sweep_peak_mb": None if "sweep_peak_bytes" not in pr
        else pr["sweep_peak_bytes"] / 2**20,
        "bounds.certify_s": _dur(_span(s1, "certify")),
        "bounds.csv_write_s": _dur(_span(s1, "write_bounds_csv")),
        "oracle.exact_s": _dur(exact),
        "oracle.subsets": subsets,
        "oracle.subsets_per_s": _ratio(subsets, _dur(exact)),
        "cli.overhead_s": None if main1 is None else self_times(s1)[main1["id"]],
        "trace.overhead_frac": None if est2.main_s is None or not plain2.main_s
        else est2.main_s / plain2.main_s - 1.0,
    }
    return {k: v for k, v in m.items() if v is not None}


def environment(t2):
    """What a result depends on besides the code under test."""
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nerfcert").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "cli_threads": [1, t2],
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_program():
    """Import nerfcert from this checkout's src, or exit if it is not there."""
    if not (SRC / "nerfcert" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC / 'nerfcert'}")
    sys.path.insert(0, str(SRC))
    import nerfcert

    if Path(nerfcert.__file__).resolve().parent != SRC / "nerfcert":
        sys.exit(f"error: nerfcert imported from {nerfcert.__file__}, not {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminate through SystemExit, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.monotonic()
    end_to_end, per_layer = declared_metrics()
    import_program()
    from nerfcert.epsnet import NetConfig, pruned_cardinality
    from nerfcert.frames import write_frame

    wl = WORKLOADS[args.workload]
    t2 = max(1, min(2, len(os.sched_getaffinity(0))))
    work = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        frame = relabelled_frame(wl, args.seed)
        frame_path = work / "frame.txt"
        write_frame(frame, frame_path)
        ctx = Context(
            wl=wl, frame_path=frame_path, N=frame.N, t2=t2,
            runner=Runner(work, start + DEADLINE_S), tally=checks.Tally(),
            pruned_cardinality=pruned_cardinality(NetConfig.create(wl.M, wl.eps_sq)))
        ctx.runner.spawn("warmup", "setup")  # fills the bytecode cache, untimed
        for i in range(SETUP_SPAWNS):
            call = ctx.runner.spawn(f"setup{i}", "setup")
            ctx.tally.record(call.label, checks.check_exit(call.rc, call.stderr))
            ctx.add("setup_s", call.setup_s)
        if args.trace:
            values, units = run_traced(ctx), per_layer
        else:
            # Whole rounds only, and none that would end past --seconds.
            measure_start = time.monotonic()
            while True:
                round_start = time.monotonic()
                run_round(ctx)
                now = time.monotonic()
                if 2 * now - round_start - measure_start > args.seconds:
                    break
            values = {k: STATISTIC.get(k, statistics.median)(v)
                      for k, v in ctx.samples.items()}
            units = end_to_end
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in units.items() if k in values}
        absent = sorted(set(units) - set(metrics))
        spans = [dict(s, call=c.label) for c in ctx.runner.calls
                 for s in c.record.get("spans", [])]
        env = environment(t2)
        (RUNS / f"trace-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "env": env, "metrics": metrics, "absent": absent,
                        "problems": ctx.tally.problems, "spans": spans,
                        "samples": ctx.samples}, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in ctx.tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name in absent:
        print(f"absent metric {name}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(f"{args.workload} seed={args.seed}: attempted={ctx.tally.attempted} "
          f"failed={ctx.tally.failed} "
          f"failed_frac={ctx.tally.failed / ctx.tally.attempted:.4g}")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
