"""rholoss benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-noisy --seed 1 --seconds 30 --trace 0

The workload is repeated in fresh output directories until ``--seconds`` have
passed (at least ``MIN_PASSES`` times) after an untimed warm-up at tiny size.
Every stage is timed in host seconds: its wall time scaled to a quiet host by
a reference task timed on either side of it (see ``hostclock.py``), because
the shared host's speed swings by up to 1.9x for a minute at a time.
``setup_s`` is the median over the passes' setups, topped up with setup-only
runs to ``MIN_SETUPS`` samples. ``run_s`` is the sum over the run stages of
each stage's median over the passes, ``total_s`` the same sum over every
stage, and ``steps_per_s`` a pass's steps over ``run_s``. ``--trace 1`` alternates untraced and traced
passes and reports per-layer metrics (medians over the traced passes)
instead. The last line of standard output is the result as one JSON object;
the lines above it give the machine, every pass in wall and host seconds, the
selection digest and each metric with its unit.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
BLAS_THREADS = 1  # one process, one thread: steadier than two on small matrices
MIN_PASSES = 3
MIN_SETUPS = 10  # setup_s is a median: short setups (ladder: ~0.2 s) get extra samples
WORKLOADS = ("cli-noisy", "hard-scoring", "ladder")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better). Mirrored by BENCHMARK.json; the smoke test checks both agree.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
    "final_accuracy": ("fraction", "higher"),
    "speedup_epochs": ("x", "higher"),
    "ladder_rho_approx2": ("corr", "higher"),
}

# Per-layer metrics: <module>.<function>.<stat>, keeping the stats a change
# to that layer is most likely to move.
LAYER_STATS = {
    "cli.cmd_prepare": ("busy_s", "self_s"),
    "cli.cmd_train_il": ("busy_s", "self_s"),
    "cli.cmd_run": ("busy_s", "self_s"),
    "cli.cmd_report": ("busy_s", "self_s"),
    "cli.cmd_ladder": ("busy_s", "self_s"),
    "config.load_config": ("calls", "busy_s"),
    "data.save_dataset_csv": ("calls", "busy_s", "rows"),
    "data.load_dataset_csv": ("calls", "busy_s", "rows"),
    "ilmodel.train_il_model": ("calls", "busy_s", "self_s"),
    "ilmodel.compute_il_table": ("calls", "busy_s"),
    "ilmodel.load_il_table": ("calls", "busy_s"),
    "ilmodel.IrreducibleLossTable.lookup": ("calls", "busy_s", "p50_ms", "rows"),
    "ilmodel.IrreducibleLossTable.covers": ("calls", "busy_s", "rows"),
    "ilmodel.update_il_model": ("calls", "busy_s", "p50_ms"),
    "selection.score_and_select": ("calls", "busy_s", "self_s", "p50_ms", "p95_ms", "rows"),
    "selection.score_grad_norm": ("calls", "busy_s", "self_s", "p50_ms", "rows"),
    "selection.sample_grad_norm_is": ("calls", "busy_s", "p50_ms"),
    "selection.score_al": ("calls", "busy_s", "self_s", "p50_ms"),
    "selection.select_top_k": ("calls", "busy_s", "p50_ms"),
    "nn.per_example_grad_norm": ("calls", "busy_s", "self_s"),
    "nn.mc_dropout_predict": ("calls", "busy_s", "self_s", "p50_ms"),
    "nn.forward": ("calls", "busy_s", "self_s", "p50_ms", "p95_ms", "rows"),
    "nn.backward": ("calls", "busy_s", "self_s", "p50_ms", "p95_ms", "rows"),
    "nn.ensemble_cross_entropy": ("calls", "busy_s", "self_s"),
    "optim.optimizer_step": ("calls", "busy_s", "self_s", "p50_ms"),
    "trainer.run_training": ("calls", "busy_s", "self_s"),
    "trainer.run_original_selection": ("calls", "busy_s", "self_s"),
    "trainer.evaluate": ("calls", "busy_s"),
    "records.save_run_record": ("calls", "busy_s"),
    "records.load_run_record": ("calls", "busy_s"),
    "ladder.run_ladder": ("calls", "busy_s", "self_s"),
    "ladder.train_to_convergence": ("calls", "busy_s", "self_s"),
    "stats.spearman": ("calls", "busy_s"),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p95_ms": "ms", "rows": "count"}
DERIVED_LAYER = {
    "data.load_dataset_csv.reads_per_file": "ratio",
    "selection.scored_per_trained": "ratio",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p95": "ms",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric; all are lower-better."""
    out = {f"{fn}.{stat}": (STAT_UNITS[stat], "lower") for fn, stats in LAYER_STATS.items() for stat in stats}
    out.update({name: (unit, "lower") for name, unit in DERIVED_LAYER.items()})
    return out


def stage_medians(passes) -> dict[str, float]:
    """stage -> median host seconds over the passes that ran it."""
    stages = dict.fromkeys(stage for p in passes for stage in p.host)
    return {stage: statistics.median(p.host[stage] for p in passes if stage in p.host) for stage in stages}


def run_stage_sum(stages: dict[str, float]) -> float:
    return sum(v for stage, v in stages.items() if stage.startswith("run"))


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "?"),
        "blas_version": blas.get("version", "?"),
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    src = ROOT / "src"
    for needed in (src / "rholoss" / "__init__.py", ROOT / "configs" / "noisy_synthetic.yaml"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))
    import rholoss

    if Path(rholoss.__file__).resolve().parent != (src / "rholoss").resolve():
        print(f"error: imported rholoss from {rholoss.__file__}, not from {src}", file=sys.stderr)
        return 2
    import hostclock
    import spans
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))

    clock = hostclock.HostClock()
    workloads.make(args.workload, ROOT, args.seed, "tiny", work / "warmup").run_pass(0, workloads.Checks(), clock)
    wl = workloads.make(args.workload, ROOT, args.seed, args.size, work)
    checks = workloads.Checks()
    plain, traced, tracers, layer = [], [], [], []
    begin = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        gc.collect()
        plain.append(wl.run_pass(len(plain), checks, clock))
        if args.trace:
            tracer = spans.Tracer(len(tracers))
            gc.collect()
            traced.append(wl.run_pass(len(tracers), checks, clock, tracer))
            tracers.append(tracer)
            layer.append(tracer.layer_stats())
            wl.cross_check(layer[-1], traced[-1], checks)
    setups = [(p.wall["setup"], p.host["setup"]) for p in plain]
    while not args.trace and len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(wl.time_setup(clock))
    every = plain + traced
    first = every[0]
    for p in every[1:]:
        checks.check(p.digest == first.digest and p.quality == first.quality,
                     "passes of one seed selected differently")
    if args.trace:
        spans.save_spans(tracers, work / "spans.npz")

    print("times are wall / host seconds")
    for i, p in enumerate(plain):
        print(f"pass {i}: " + ", ".join(f"{stage} {p.wall[stage]:.3f} / {p.host[stage]:.3f}" for stage in p.host)
              + f", total {sum(p.wall.values()):.3f} / {sum(p.host.values()):.3f}, {p.steps} steps")
    for i, p in enumerate(traced):
        print(f"traced pass {i}: total {sum(p.wall.values()):.3f} / {sum(p.host.values()):.3f}, "
              f"{layer[i]['trace.spans']:.0f} spans")
    print(f"setup samples: {' '.join(f'{w:.3f} / {h:.3f}' for w, h in setups)}")
    print(f"selection digest {first.digest} (information only)")
    for msg in checks.messages:
        print(f"FAILED check: {msg}", file=sys.stderr)

    failed_frac = checks.failed / max(checks.attempted, 1)
    if args.trace:
        specs = per_layer_metrics()
        values = {name: statistics.median(s[name] for s in layer) for name in specs if name in layer[0]}
        values["trace.overhead_frac"] = sum(stage_medians(traced).values()) / sum(stage_medians(plain).values()) - 1.0
    else:
        specs = END_TO_END
        stages = stage_medians(plain)
        values = {
            "setup_s": statistics.median(h for _, h in setups),
            "run_s": run_stage_sum(stages),
            "total_s": sum(stages.values()),
            "steps_per_s": first.steps / run_stage_sum(stages),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac,
            **first.quality,
        }
    print(f"{len(plain)} passes, {checks.failed} of {checks.attempted} checks failed, failed_frac {failed_frac:.6f}")
    for name, (unit, better) in specs.items():
        print(f"{name:<48} {values[name]:>14.6g} {unit:<8} ({better} is better)")
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: no value for {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
