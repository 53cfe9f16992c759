"""dairypv benchmark: closed loop, one client, CLI commands run in-process.

Usage (from the root of a dairypv checkout):

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

Each op calls ``dairypv.cli.cli_main(argv)`` with ``--out`` in a scratch
directory under ``.perfbench_runs/`` and checks the output. The workload's
fixed reference kernel is timed between ops, and each op's time is
reported relative to the kernel's times on either side of it as well as
in seconds. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced phase, which
follows an untraced phase on the same op inputs. The line before it is a
detail record: environment, input sizes, tail percentile and per-op output
digests. See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 9
TAIL_BEYOND = 10

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dairypv
from dairypv.io import load_scenario
load_scenario(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Runner:
    """Runs and checks ops of one workload; keeps a record of each."""

    def __init__(self, cli, workload, workdir, grid_size):
        self.cli = cli            # looked up per call, so tracing sees cli_main
        self.workload = workload
        self.workdir = workdir
        self.grid_size = grid_size
        self.records = []
        self.on_op_start = None   # called with the op id just before the op
        self.last_reference = None  # the kernel's time right after the last op

    def _reference(self):
        """(wall, cpu) seconds of one call of the workload's reference kernel."""
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        self.workload.reference()
        return time.perf_counter() - start, _cpu_seconds() - cpu0

    def run(self, index, phase, grid=False):
        argv = self.workload.argv(index, self.workdir / f"op{len(self.records)}.out")
        out = Path(argv[-1])
        if grid:
            argv[argv.index("--budget") + 1] = str(self.grid_size)
        op_id = len(self.records)
        gc.collect()
        # One reference call between two ops serves both of them.
        before = self.last_reference or self._reference()
        if self.on_op_start is not None:
            self.on_op_start(op_id)
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            code = self.cli.cli_main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # an op that raises counts as failed
            error = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        after = self.last_reference = self._reference()
        record = {"id": op_id, "index": index, "phase": phase, "grid": grid, "seconds": seconds,
                  "cpu_s": cpu, "ref_s": (before[0] + after[0]) / 2,
                  "ref_cpu_s": (before[1] + after[1]) / 2,
                  "sha256": None, "info": None, "error": error}
        if error is None:
            try:
                data = out.read_bytes()
                record["sha256"] = hashlib.sha256(data).hexdigest()
                text = data.decode("utf-8")
                if grid:
                    record["info"] = (workloads.check_grid(text, self.grid_size), None)
                else:
                    check = workloads.CHECKS[self.workload.name]
                    record["info"] = check(text, self.workload.expectation(index))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                record["error"] = f"output check failed: {exc}"
        out.unlink(missing_ok=True)
        self.records.append(record)
        return record

    def loop(self, seconds, phase, with_grid=False, between=()):
        """Closed loop over op inputs 0, 1, ... for `seconds` of op time.

        Returns the records of the main ops; with_grid follows each with a
        grid-only calibrate op on the same input. Each callable in `between`
        runs once between two ops, at evenly spaced points of the loop, and
        its time does not count against `seconds`.
        """
        first = len(self.records)
        pending = list(between)
        slots = len(pending) + 1
        busy, index = 0.0, 0
        while True:
            start = time.perf_counter()
            self.run(index, phase)
            if with_grid:
                self.run(index, phase, grid=True)
            busy += time.perf_counter() - start
            index += 1
            while pending and busy >= seconds * (slots - len(pending)) / slots:
                pending.pop(0)()
            if busy >= seconds:
                break
        for task in pending:  # fewer ops than slots
            task()
        return [r for r in self.records[first:] if not r["grid"]]


def time_setup(scenario):
    """Seconds to import dairypv and load_scenario in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest-percentile sample with TAIL_BEYOND samples above it.

    Returns (value, percentile). With too few samples it is the maximum.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def relative(ops, field="seconds", ref_field="ref_s"):
    """Per-op time divided by the reference kernel's time around that op."""
    return [r[field] / r[ref_field] for r in ops]


def end_to_end(ops, setup_s):
    """Gated end-to-end metrics, plus the op-time figures only reported.

    A shared host's speed drifts by up to 40% over seconds to minutes, so
    two sets of seeded runs disagree on any op time in seconds by more than
    a bound may allow (the fastest op of 30 s of monte-carlo ops spread
    0.15 and 0.28 quartile-to-median). The op time relative to the
    reference kernel timed around it cancels that drift, so the gate is on
    its median. Seconds are reported beside it.
    """
    times = [r["seconds"] for r in ops]
    cpu = [r["cpu_s"] for r in ops]
    tail_s, percentile = tail(times)
    metrics = {
        "op_rel_p50": (statistics.median(relative(ops)), "ratio"),
        "op_cpu_rel_p50": (statistics.median(relative(ops, "cpu_s", "ref_cpu_s")), "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    reported = {
        "op_p50_s": statistics.median(times),
        "op_min_s": min(times),
        "op_tail_s": tail_s,
        "op_tail_percentile": percentile,
        "cpu_per_op_s": statistics.median(cpu),
        "reference_p50_s": statistics.median(r["ref_s"] for r in ops),
    }
    return metrics, reported


def per_layer(tracer, untraced, traced, grid_ops):
    """Per-op layer metrics from the traced phase."""
    n = len(traced)
    op_ids = [r["id"] for r in traced]
    spans = tracer.summarize(op_ids)
    grid = tracer.summarize([r["id"] for r in grid_ops])

    def entry(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def calls(name):
        return entry(name)["calls"] / n

    def per_op(name, field="total_s"):
        return entry(name)[field] / n

    def mean_us(name):
        e = entry(name)
        return 1e6 * e["total_s"] / e["calls"] if e["calls"] else 0.0

    def rate(quantity, name):
        seconds = entry(name)["total_s"]
        return tracer.extra_total(op_ids, quantity) / seconds if seconds else 0.0

    fits = [r["info"] for r in traced if isinstance(r["info"], tuple)]
    grid_calls = grid.get("calibration.calibrate", {"calls": 0, "total_s": 0.0})
    grid_s = grid_calls["total_s"] / grid_calls["calls"] if grid_calls["calls"] else 0.0
    calibrate_s = per_op("calibration.calibrate")
    metrics = {
        "cli.cli_main.self_s": (per_op("cli.cli_main", "self_s"), "s"),
        "io.load_scenario.s": (per_op("io.load_scenario"), "s"),
        "io.render_result.s": (per_op("io.render_result"), "s"),
        "io.write_result.s": (per_op("io.write_result"), "s"),
        "io.write_result.bytes": (tracer.extra_total(op_ids, "write_bytes") / n, "bytes"),
        "domain.require_finite.calls": (calls("domain.require_finite"), "count"),
        "domain.scenario_params.validations": (calls("domain.scenario_params.validations"),
                                               "count"),
        "economics.net_present_value.calls": (calls("economics.net_present_value"), "count"),
        "economics.net_present_value.self_s": (per_op("economics.net_present_value",
                                                      "self_s"), "s"),
        "economics.agent_utility.calls": (calls("economics.agent_utility"), "count"),
        "calibration.grid_s": (grid_s, "s"),
        "calibration.refine_s": (calibrate_s - grid_s if calibrate_s else 0.0, "s"),
        "calibration.evaluations": (
            statistics.mean(f[0]["evaluations"] for f in fits) if fits else 0.0, "count"),
        "calibration.evaluate_loss.calls": (calls("calibration.evaluate_loss"), "count"),
        "calibration.evaluate_loss.mean_us": (mean_us("calibration.evaluate_loss"), "us"),
        "calibration.converged_ratio": (
            sum(bool(f[0]["converged"]) for f in fits) / len(fits) if fits else 0.0, "ratio"),
        "calibration.loss_over_scale_max": (max(f[1] for f in fits) if fits else 0.0,
                                            "ratio"),
        "engine.run_simulation.calls": (calls("engine.run_simulation"), "count"),
        "engine.run_simulation.self_s": (per_op("engine.run_simulation", "self_s"), "s"),
        "engine.run_monte_carlo.self_s": (per_op("engine.run_monte_carlo", "self_s"), "s"),
        "engine.replications_per_s": (rate("replications", "engine.run_monte_carlo"), "1/s"),
        "engine.step_year.calls": (calls("engine.step_year"), "count"),
        "engine.step_year.mean_us": (mean_us("engine.step_year"), "us"),
        "engine.adoption_probability.calls": (calls("engine.adoption_probability"), "count"),
        "engine.agent_years_per_s": (rate("agent_years", "engine.step_year"), "1/s"),
        "engine.array_bytes.computed": (tracer.extra_total(op_ids, "array_bytes", max),
                                        "bytes"),
        "trace.overhead_ratio": (
            statistics.median(relative(traced)) / statistics.median(relative(untraced)),
            "ratio"),
    }
    return metrics


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes():
    """Per-instance L2 and L3 sizes in bytes, where the OS reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KMG")) * scale
    return {key: sizes.get(key) for key in ("l2_bytes", "l3_bytes")}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dairypv" / "__init__.py").is_file():
        print(f"error: no dairypv sources at {SRC}; run from a dairypv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dairypv
    import dairypv.cli

    if SRC not in Path(dairypv.__file__).resolve().parents:
        print(f"error: imported dairypv from {dairypv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RUNS_DIR, prefix=f"{args.workload}-"))
    try:
        workload = workloads.build_workload(
            args.workload, args.seed, SRC / "dairypv" / "data", workdir, tiny=args.tiny)
        runner = Runner(dairypv.cli, workload, workdir, len(workloads.GRID))
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "sizes": dict(workload.sizes)}
        runner.run(0, "warmup")
        if args.trace:
            untraced = runner.loop(args.seconds / 2, "untraced")
            tracer = Tracer()
            runner.on_op_start = tracer.begin_op
            start = len(runner.records)
            tracer.install()
            try:
                traced = runner.loop(args.seconds / 2, "traced",
                                     with_grid=args.workload == "calibrate")
            finally:
                tracer.uninstall()
            grid_ops = [r for r in runner.records[start:] if r["grid"]]
            metrics = per_layer(tracer, untraced, traced, grid_ops)
            spans_path = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            detail.update(samples=len(traced), spans_file=str(spans_path.relative_to(ROOT)),
                          span_count=len(tracer))
        else:
            time_setup(workload.scenario)  # fills caches and writes bytecode
            setup = []
            repeats = 1 if args.tiny else SETUP_REPEATS
            timed = runner.loop(
                args.seconds, "timed",
                between=[lambda: setup.append(time_setup(workload.scenario))] * repeats)
            metrics, reported = end_to_end(timed, statistics.median(setup))
            detail.update(samples=len(timed), setup_s_samples=setup, **reported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r["error"] is not None]
    detail["sizes"]["ops"] = len(records)
    detail["error_rate"] = len(failed) / len(records)
    if args.workload == "calibrate":
        detail["fits_over_loss_limit"] = sum(
            1 for r in records if r["info"] and r["info"][1] is not None
            and r["info"][1] > workloads.LOSS_OVER_SCALE_LIMIT)
    detail["errors"] = [f"op {r['index']} ({r['phase']}): {r['error']}" for r in failed[:5]]
    detail["ops"] = [{"index": r["index"], "phase": r["phase"], "grid": r["grid"],
                      "seconds": r["seconds"], "ref_s": r["ref_s"], "sha256": r["sha256"]}
                     for r in records]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
