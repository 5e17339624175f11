"""Run one nsmove benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload chain_moving --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository: it imports nsmove from ``src/``
and exits with code 2 if that is missing. The load is a closed loop: one
process, one client, ops back to back, one BLAS/OpenMP thread. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the ``end_to_end`` ones of BENCHMARK.json; with ``--trace 1`` they are the
``per_layer`` ones, from a run that alternates traced and untraced ops and
writes its spans to ``.bench_out/``. Op time is the process's CPU time: the
ops are single-threaded, and wall time on a shared virtual machine also
counts the time the machine was not scheduled. ``--smoke`` runs the same path on the
small grids of ``workloads.json``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2     # child processes repeating the set-up; with our own, 3 samples
MIN_OPS = 3          # measured ops per untraced run, however short --seconds is
MIN_TRACED_OPS = 2   # of each kind in a traced run
PROBE_TIMEOUT_S = 120

OpResult = namedtuple("OpResult", "wall cpu ref_err ok traced")


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grid, same code path")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Runner:
    """Runs and checks ops of one workload and tallies their outcomes."""

    def __init__(self, workload, ref_tol, error_type):
        self.workload = workload
        self.ref_tol = ref_tol
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()   # failed check name -> ops it failed
        self.results = []           # OpResult per measured op

    def tally(self, ok, reasons=()):
        self.attempted += 1
        self.failed += not ok
        self.failures.update(reasons)

    def execute(self, tracer):
        """One op: (wall seconds, CPU seconds, its outputs or the typed
        error it raised)."""
        tracer.begin_op()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = self.workload.op(tracer)
        except self.error_type as exc:
            out = exc
        return time.perf_counter() - start, time.process_time() - cpu_start, out

    def judge(self, wall, cpu, out, tracer, record=True):
        """Check one op's outputs and tally it."""
        if isinstance(out, self.error_type):
            ref_err, checks = None, {type(out).__name__: False}
        else:
            ref_err, checks = self.workload.check(out, tracer)
            checks["ref_err"] = ref_err <= self.ref_tol
        bad = [name for name, passed in checks.items() if not passed]
        self.tally(not bad, bad)
        if record:
            self.results.append(OpResult(wall, cpu, ref_err, not bad, tracer.enabled))


def _median(values):
    return statistics.median(values) if values else None


def probe_setups(args):
    """Set-up seconds of fresh processes, None for one that failed.

    Each probe ends with the warm-up op; it repeats the main process's own
    warm-up op on the same inputs, so its outputs are not checked again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.append(None)
            continue
        lines = proc.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        out.append(rec["setup_s"] if rec.get("ok") else None)
    return out


def end_to_end(runner, setup_samples, bench):
    ok = [r for r in runner.results if r.ok] or runner.results
    values = {
        "setup_s": _median(setup_samples),
        "op_cpu_p50_s": _median([r.cpu for r in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_err": _median([r.ref_err for r in ok if r.ref_err is not None]),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def per_layer(runner, tracer, bench):
    """Median over traced ops of each span's self time and each op value."""
    self_times = tracer.self_times()
    untraced = _median([r.wall for r in runner.results if not r.traced])
    traced = _median([r.wall for r in runner.results if r.traced])
    out = {}
    for m in bench["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_frac":
            value = traced / untraced - 1.0
        elif unit == "s":
            value = _median([st.get(name[:-2], 0.0) for st in self_times])
        else:
            value = _median([float(v.get(name, 0.0)) for v in tracer.values])
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    spec = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, sorted(spec["workloads"]))
    if not (ROOT / "src" / "nsmove" / "__init__.py").is_file():
        print(f"perfbench: no nsmove sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from nsmove.errors import NsmoveError
    from spans import Tracer
    from workloads import WORKLOADS

    wspec = spec["workloads"][args.workload]
    size = wspec["smoke"] if args.smoke else wspec
    off = Tracer(False)

    # set-up: inputs from the seed, then one warm-up op
    runner = Runner(WORKLOADS[args.workload](args.seed, size["n"]),
                    size["ref_tol"], NsmoveError)
    warm_up = runner.execute(off)
    setup_s = time.perf_counter() - _T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s,
                          "ok": not isinstance(warm_up[2], NsmoveError)}))
        return 0

    setup_samples = [setup_s]
    if args.trace == 0:
        for sample in probe_setups(args):
            if sample is None:
                runner.tally(False, ("setup_probe",))
            else:
                setup_samples.append(sample)

    runner.workload.reference()
    runner.judge(*warm_up, off, record=False)

    on = Tracer(args.trace == 1)
    start = time.perf_counter()
    while True:
        n_traced = sum(1 for r in runner.results if r.traced)
        n_plain = len(runner.results) - n_traced
        if time.perf_counter() - start >= args.seconds and (
                n_plain >= MIN_OPS if args.trace == 0
                else min(n_traced, n_plain) >= MIN_TRACED_OPS):
            break
        traced = args.trace == 1 and n_plain > n_traced
        tracer = on if traced else off
        runner.judge(*runner.execute(tracer), tracer)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace == 0:
        metrics = end_to_end(runner, setup_samples, bench)
    else:
        metrics = per_layer(runner, on, bench)
        on.dump(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "n": size["n"],
                 "ops": [r._asdict() for r in runner.results]})

    failed = runner.failed
    for name, m in metrics.items():
        print(f"{args.workload:17s} {name:28s} {m['value']!r} {m['unit']}")
    print(f"{args.workload:17s} {'fail_frac':28s} {failed / runner.attempted!r} 1")
    print(f"{args.workload:17s} op walls (s): {[round(r.wall, 4) for r in runner.results]}")
    print(f"{args.workload:17s} op CPU (s):   {[round(r.cpu, 4) for r in runner.results]}")
    for reason, count in sorted(runner.failures.items()):
        print(f"{args.workload:17s} failed check {reason}: {count}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
