"""Experiment front door.

Subcommands: prepare, train-il, run, report, ladder, sweep. Each takes a
YAML config (--config); outputs land under --out, the config's output_dir,
or $RHOLOSS_OUT_DIR, in that order of precedence. Every emitted file carries
built_from, the hash of the config slice it was built from (config.built_from),
and a stage that reads an artifact refuses one built from another slice,
naming the stage to re-run. Any validation failure exits nonzero before
partial output is written.
"""
from __future__ import annotations

import argparse
import contextlib
import glob as globlib
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import data as datamod
from .config import (
    ConfigError,
    ExperimentConfig,
    as_dict,
    built_from,
    load_config,
    parse_config,
    sweep_configs,
)
from .ilmodel import compute_il_table, load_il_table, save_il_table, train_il_model, train_il_two_halves
from .ladder import run_ladder
from .nn import diverging_at, init_mlp, load_model, predict_labels, save_model
from .records import (
    RunRecord,
    atomic_write,
    epochs_to_target,
    header_line,
    load_run_record,
    read_header,
    save_run_record,
    write_table,
)
from .selection import NEEDS_IL, SelectionPolicy, svp_offline_select
from .trainer import RunConfig, run_original_selection, run_training

OUT_ENV_VAR = "RHOLOSS_OUT_DIR"


class CliError(RuntimeError):
    pass


def _check_built_from(path, found: str | None, cfg: ExperimentConfig, artifact: str) -> None:
    """Refuse the artifact at path unless found, its built_from (None if absent), is built_from(cfg, artifact)."""
    if found != built_from(cfg, artifact):
        why = "carries no built_from" if found is None else f"was built from another config (built_from={found})"
        redo = {"dataset": "re-run `rholoss prepare`", "il": "re-run `rholoss train-il`",
                "run": "remove it and re-run `rholoss run`"}[artifact]
        raise CliError(f"{path} {why}; {redo}")


def _resolve_out(args, cfg: ExperimentConfig) -> Path:
    out = args.out or cfg.output_dir or os.environ.get(OUT_ENV_VAR)
    if not out:
        raise CliError(f"no output directory: pass --out, set output_dir in the config, or set ${OUT_ENV_VAR}")
    return Path(out)


def _load_base_dataset(cfg: ExperimentConfig) -> datamod.LabeledDataset:
    ds = cfg.dataset
    if ds.kind == "synthetic":
        s = ds.synthetic
        return datamod.gen_synthetic(s.classes, s.per_class, s.dim, s.spread, seed=s.seed, radius=s.radius)
    if ds.kind == "idx":
        return datamod.load_idx(ds.idx.images, ds.idx.labels)
    return datamod.load_dataset_csv(ds.csv_path)


def _il_train_kwargs(il) -> dict:
    """train_il_model keywords from the il section, shared by the IL fit, the
    two-halves fits, the structured-noise reference model and the svp proxy."""
    return dict(
        hidden=il.hidden, epochs=il.epochs, optimizer_kind=il.optimizer.kind,
        learning_rate=il.optimizer.learning_rate, weight_decay=il.optimizer.weight_decay,
        batch_size=il.batch_size,
    )


def _model_seed(base: int, run_seed: int) -> int:
    return int(np.random.SeedSequence([base, run_seed]).generate_state(1)[0])


def prepare_datasets(cfg: ExperimentConfig):
    """Build (train_pool, holdout, test) per the dataset section.

    Pipeline order: base -> relevance skew -> carve test -> carve holdout
    (skipped for the two-halves scheme) -> inject noise into the train pool
    -> duplicate the train pool. Noise and duplication are training-pool
    properties; holdout and test stay clean.
    """
    ds_cfg = cfg.dataset
    base = _load_base_dataset(cfg)
    if ds_cfg.relevance is not None:
        r = ds_cfg.relevance
        base = datamod.make_relevance_skew(base, high_frac=r.high_frac, keep_frac=r.keep_frac, seed=r.seed)
    split_seeds = np.random.SeedSequence(ds_cfg.split.seed).generate_state(2)
    test = None
    if ds_cfg.kind == "idx" and ds_cfg.idx.test_images:
        pool = base
        idx = ds_cfg.idx
        test = datamod.load_idx(idx.test_images, idx.test_labels)
        if test.n == 0 or test.dim != base.dim:  # no accuracy to take, or none the model can take
            raise CliError(f"dataset.idx.test_images: {idx.test_images} holds {test.n} images of {test.dim} "
                           f"pixels; the test split needs at least one image of the training images' {base.dim}")
        if test.num_classes > base.num_classes:
            raise CliError(f"dataset.idx.test_labels: {idx.test_labels} has labels up to {test.num_classes - 1}, "
                           f"but the training images have {base.num_classes} classes")
    else:
        pool, test = datamod.split(base, ds_cfg.split.test_fraction, int(split_seeds[0]))
    holdout = None
    scheme = cfg.il.scheme if cfg.il is not None else "holdout"
    if scheme == "holdout":
        pool, holdout = datamod.split(pool, ds_cfg.split.holdout_fraction, int(split_seeds[1]))
    if ds_cfg.noise.kind == "uniform":
        pool = datamod.inject_uniform_noise(pool, ds_cfg.noise.p, seed=ds_cfg.noise.seed)
    elif ds_cfg.noise.kind == "structured":
        with diverging_at("prepare structured-noise reference model"):
            ref_model, _ = train_il_model(pool, validation=pool, seed=cfg.il.seed + 101, **_il_train_kwargs(cfg.il))
        confusion = datamod.confusion_counts(pool.labels, predict_labels(ref_model, pool.features), pool.num_classes)
        try:  # the pairs on offer depend on the fitted model, so parsing cannot check them
            pool = datamod.inject_structured_noise(
                pool, confusion, ds_cfg.noise.pairs, ds_cfg.noise.flip_prob, seed=ds_cfg.noise.seed
            )
        except ValueError as exc:
            raise CliError(f"dataset.noise.pairs: {exc} in the reference model's confusion counts") from exc
    if ds_cfg.duplicate_factor > 1:
        pool = datamod.duplicate(pool, ds_cfg.duplicate_factor)
    return pool, holdout, test


def cmd_prepare(cfg: ExperimentConfig, out: Path) -> int:
    pool, holdout, test = prepare_datasets(cfg)
    ddir = out / "dataset"
    ddir.mkdir(parents=True, exist_ok=True)
    dhash = built_from(cfg, "dataset")
    manifest = {"built_from": dhash, "files": {}}
    parts = {"train": pool, "test": test}
    if holdout is not None:
        parts["holdout"] = holdout
    for name, ds in parts.items():
        datamod.save_dataset_csv(ds, ddir / f"{name}.csv", built_from=dhash, seed=cfg.dataset.split.seed)
        manifest["files"][name] = {
            "sha256": datamod.dataset_hash(ds),
            "n": ds.n,
            "d": ds.dim,
            "classes": ds.num_classes,
        }
    with atomic_write(ddir / "manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"prepared {', '.join(f'{k}={v.n}' for k, v in parts.items())} under {ddir}")
    return 0


def _load_prepared(data_dir: Path, cfg: ExperimentConfig, names: tuple[str, ...]) -> list:
    """Check the manifest under data_dir against the config, then load the
    named splits ("train", "holdout", "test"), in that order, and check each
    against the manifest's content hash. A split the manifest does not list
    (holdout under the two-halves scheme) comes back as None."""
    ddir = data_dir / "dataset"
    manifest_path = ddir / "manifest.json"
    if not manifest_path.exists():
        raise CliError(f"no prepared dataset under {ddir}; run `rholoss prepare` first")
    with open(manifest_path) as f:
        manifest = json.load(f)
    _check_built_from(manifest_path, manifest.get("built_from"), cfg, "dataset")
    splits = []
    for name in names:
        if name not in manifest["files"]:
            splits.append(None)
            continue
        ds = datamod.load_dataset_csv(ddir / f"{name}.csv")
        if datamod.dataset_hash(ds) != manifest["files"][name]["sha256"]:
            raise CliError(f"prepared {name} split does not match its manifest hash (file changed); re-run prepare")
        splits.append(ds)
    return splits


def _save_checkpoint_log(log, path, chash: str, seed: int) -> None:
    best = log.selected_epoch
    write_table(
        path,
        "checkpoint-log",
        {"built_from": chash, "seed": seed},
        ["epoch", "val_loss", "val_accuracy", "selected"],
        ([e + 1, repr(loss), repr(acc), int(e == best)]
         for e, (loss, acc) in enumerate(zip(log.val_losses, log.val_accuracies))),
    )


def cmd_train_il(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.il is None:
        raise CliError("config has no il section")
    pool, holdout = _load_prepared(out, cfg, ("train", "holdout"))
    ildir = out / "il"
    chash = built_from(cfg, "il")
    il = cfg.il
    kwargs = dict(_il_train_kwargs(il), dropout_rate=il.dropout)
    with diverging_at("train-il IL fit"):
        if il.scheme == "holdout":
            if holdout is None:
                raise CliError("holdout scheme needs a prepared holdout split")
            model, log = train_il_model(holdout, validation=pool, seed=il.seed, **kwargs)
            table = compute_il_table(model, pool)
            fits = {"": (model, log)}
        else:
            half_a, half_b = datamod.halves(pool, il.seed)
            table, model_a, model_b, log_a, log_b = train_il_two_halves(half_a, half_b, seed=il.seed, **kwargs)
            fits = {"_a": (model_a, log_a), "_b": (model_b, log_b)}
    ildir.mkdir(parents=True, exist_ok=True)  # only now, so a fit that fails leaves no il/ behind
    for suffix, (model, log) in fits.items():
        save_model(model, ildir / f"il_model{suffix}.npz")
        _save_checkpoint_log(log, ildir / f"checkpoint_log{suffix}.csv", chash, il.seed)
    save_il_table(table, ildir / "il_table.csv", built_from=chash)
    print(f"wrote {ildir / 'il_table.csv'} ({table.ids.size} entries, scheme={table.scheme})")
    return 0


def _record_path(out: Path, policy_kind: str, seed: int) -> Path:
    return out / "runs" / f"record_{policy_kind}_seed{seed}.csv"


_shared: tuple = ()  # the running queue's (data_dir, pool, test, IL table), read-only


def _share(*data) -> None:
    """Set _shared: once per queue here, and as each worker's pool initializer."""
    global _shared
    _shared = data


def _run_one(queued) -> str:
    """One queued (cfg, out, policy, seed) run, standalone so it can run in a
    worker, on the queue's shared data (_share); original mode trains its
    own IL model, loaded from data_dir. A run whose out is not data_dir is a
    sweep cell's, and a divergence names the cell."""
    cfg, out, policy_kind, seed = queued
    data_dir, pool, test, table = _shared
    with diverging_at(f"sweep {out.name}") if out != data_dir else contextlib.nullcontext():
        run = cfg.run
        chash = built_from(cfg, "run")
        policy = replace(run.policy, kind=policy_kind) if policy_kind != run.policy.kind else run.policy
        train_pool = pool
        if policy_kind == "svp-entropy":
            with diverging_at(f"run svp-entropy proxy for seed {seed}"):
                proxy, _ = train_il_model(
                    pool, validation=pool, seed=_model_seed(cfg.il.seed + 7, seed), **_il_train_kwargs(cfg.il)
                )
            kept = svp_offline_select(proxy, pool, run.policy.keep_fraction, seed=seed)
            train_pool = datamod.take(pool, np.flatnonzero(np.isin(pool.ids, kept)))
            policy = SelectionPolicy(kind="uniform")
        run_cfg = RunConfig(
            policy=policy, n_b=run.n_b, n_B=run.n_B, epochs=run.epochs, optimizer_kind=run.optimizer.kind,
            learning_rate=run.optimizer.learning_rate, weight_decay=run.optimizer.weight_decay,
            il_update_mode=run.il_update_mode, il_lr_scale=run.lr_scale, seed=seed, eval_every=run.eval_every,
        )
        sizes = (train_pool.dim, *run.model.hidden, train_pool.num_classes)
        model = init_mlp(sizes, seed=_model_seed(run.model.seed, seed),
                         dropout_rate=run.model.dropout, batchnorm=run.model.batchnorm)
        il_model = (load_model(data_dir / "il" / "il_model.npz")
                    if run.il_update_mode == "original" and policy.needs_il else None)
        dump_path = out / "runs" / f"scores_{policy_kind}_seed{seed}.csv"
        with atomic_write(dump_path) if run.dump_scores else contextlib.nullcontext() as dump:
            if dump is not None:
                dump.write(header_line("scores", {"built_from": chash, "seed": seed}))
            if il_model is not None:
                record = run_original_selection(train_pool, test, il_model, run_cfg, model, score_dump=dump)
            else:
                record = run_training(train_pool, test, table, run_cfg, model, score_dump=dump)
        record.policy = policy_kind
        record.built_from = chash
        path = _record_path(out, policy_kind, seed)
        save_run_record(record, path)
        return str(path)


def _queued_runs(cfg: ExperimentConfig, out: Path, resume: bool) -> list[tuple]:
    """The (cfg, out, policy, seed) runs with no record under out/runs yet. An
    existing record is refused unless resume is set and it parses and carries
    the run's built_from."""
    policies = [cfg.run.policy.kind]
    if cfg.run.targets and "uniform" not in policies:
        policies.append("uniform")  # baseline needed to anchor epoch-to-target comparisons
    todo = []
    for kind in policies:
        for seed in cfg.run.seeds:
            path = _record_path(out, kind, seed)
            if path.exists():
                if not resume:
                    raise CliError(f"{path} already exists; pass --resume to skip completed runs")
                try:
                    found = load_run_record(path).built_from
                except Exception as exc:
                    raise CliError(f"{path} exists but cannot be parsed ({exc}); remove it manually") from exc
                _check_built_from(path, found, cfg, "run")
                continue  # complete record, skip
            todo.append((cfg, out, kind, seed))
    return todo


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of spawned workers that each get _shared once and run one BLAS
    thread: each thread-count variable the user left unset reads 1 in them,
    and os.environ is as it was once the pool is shut down."""
    unset = [name for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"), _share, _shared)
    try:
        yield executor
    finally:  # after a failure the runs handed to a worker finish and the rest never start
        executor.shutdown(cancel_futures=True)
        for name in unset:
            os.environ.pop(name, None)


def _run_queue(queue: list, data_dir: Path, jobs: int) -> int:
    """Train the queued runs of _queued_runs in one serial loop or one process
    pool. The splits, and the IL table when a frozen-mode policy needs it,
    are read once from data_dir and handed to each process once (_share);
    the queued configs differ only in run keys, so the first one's
    built_from checks cover them all."""
    if not queue:
        return 0
    cfg = queue[0][0]
    pool, test = _load_prepared(data_dir, cfg, ("train", "test"))
    table = None
    if any(kind in NEEDS_IL for _, _, kind, _ in queue):
        path = data_dir / "il" / "il_table.csv"
        if not path.exists():
            raise CliError(f"no IL table under {path.parent}; run `rholoss train-il` first")
        with open(path) as f:
            _check_built_from(path, read_header(f.readline(), "il-table", path).get("built_from"), cfg, "il")
        if cfg.run.il_update_mode == "frozen":
            table = load_il_table(path)
    made = [runs for runs in dict.fromkeys(out / "runs" for _, out, _, _ in queue) if not runs.exists()]
    for runs in made:
        runs.mkdir(parents=True)
    workers = min(jobs, len(queue))
    _share(data_dir, pool, test, table)
    try:
        with _worker_pool(workers) if workers > 1 else contextlib.nullcontext() as executor:
            for path in (executor.map if executor else map)(_run_one, queue):
                print(f"wrote {path}")
    finally:
        _share()
        for runs in made:
            if not any(runs.iterdir()):  # a failed stage leaves no runs/ of its own
                runs.rmdir()
    return 0


def cmd_run(cfg: ExperimentConfig, out: Path, jobs: int = 1, resume: bool = False) -> int:
    """Train cfg's (policy, seed) runs that have no record yet into out/runs,
    from the prepared files under out."""
    if cfg.run is None:
        raise CliError("config has no run section")
    return _run_queue(_queued_runs(cfg, out, resume), out, jobs)


def _aggregate_epochs(values: list[int | None]) -> str:
    """Median over seeds with not-reached counting as +inf; NR when the median
    is infinite (i.e. no majority of seeds reached the target)."""
    numeric = [math.inf if v is None else float(v) for v in values]
    med = float(np.median(numeric))
    return "NR" if math.isinf(med) else repr(med)


def cmd_report(cfg: ExperimentConfig, out: Path, records_glob: str | None = None) -> int:
    if cfg.run is None:
        raise CliError("config has no run section")
    pattern = records_glob or str(out / "runs" / "record_*.csv")
    paths = sorted(globlib.glob(pattern))
    if not paths:
        raise CliError(f"no run records match {pattern!r}")
    records = [load_run_record(p) for p in paths]
    for path, record in zip(paths, records):
        _check_built_from(path, record.built_from, cfg, "run")
    by_policy: dict[str, list[RunRecord]] = {}
    for r in records:
        by_policy.setdefault(r.policy, []).append(r)
    for recs in by_policy.values():
        recs.sort(key=lambda r: r.seed)
    rdir = out / "reports"
    rdir.mkdir(parents=True, exist_ok=True)
    seeds = ";".join(str(seed) for seed in sorted({r.seed for r in records}))
    meta = {"built_from": built_from(cfg, "run"), "seeds": seeds}

    def write(kind: str, columns: list[str], rows) -> None:
        write_table(rdir / f"{kind}.csv", "report", {**meta, "kind": kind}, columns, rows)

    def seed_mean(rows, *attrs) -> list[str]:
        """The mean over seeds of each named field of rows (one row per seed)."""
        return [repr(float(np.mean([getattr(row, attr) for row in rows]))) for attr in attrs]

    policies = sorted(by_policy.items())
    rows = []
    for policy, recs in policies:
        mean_final = repr(float(np.mean([r.final_accuracy() for r in recs])))
        for target in cfg.run.targets:
            reached = [epochs_to_target(r, target) for r in recs]
            rows.append([policy, repr(float(target)), _aggregate_epochs(reached),
                         sum(v is not None for v in reached), len(recs), mean_final])
    write("epochs_to_target",
          ["policy", "target", "median_epochs", "n_reached", "n_seeds", "mean_final_accuracy"], rows)
    fractions = ["frac_corrupted", "frac_low_relevance", "frac_already_correct"]
    write(
        "composition",
        ["policy", "epoch", *fractions],
        [
            [policy, rows[0].epoch, *seed_mean(rows, *fractions)]
            for policy, recs in policies
            for rows in zip(*(r.compositions for r in recs))
        ],
    )
    write(
        "accuracy",
        ["policy", "step", "epoch", "accuracy", "mean_loss"],
        [
            [policy, rows[0].step, rows[0].epoch, *seed_mean(rows, "accuracy", "mean_loss")]
            for policy, recs in policies
            for rows in zip(*(r.evals for r in recs))
        ],
    )
    print(f"wrote reports for {len(records)} records under {rdir}")
    return 0


def cmd_ladder(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.ladder is None:
        raise CliError("config has no ladder section")
    pool, holdout = _load_prepared(out, cfg, ("train", "holdout"))
    if holdout is None:
        raise CliError("the ladder needs a holdout split (il.scheme=holdout)")
    results = run_ladder(pool, holdout, cfg.ladder)
    ldir = out / "ladder"
    ldir.mkdir(parents=True, exist_ok=True)
    path = ldir / "ladder.csv"
    rows = [[name, t, repr(rho)] for name, res in results.items() for t, rho in enumerate(res.step_rho)]
    for name, res in results.items():
        rows += [[name, "mean", repr(res.mean_rho)], [name, "frac_positive", repr(res.frac_positive)]]
        if res.reference_rho is not None:
            rows.append([name, "reference", repr(res.reference_rho)])
    write_table(path, "ladder", {"built_from": built_from(cfg, "ladder"), "seed": cfg.ladder.seed},
                ["rung", "step", "rho"], rows)
    for name, res in results.items():
        ref = f" (reference {res.reference_rho})" if res.reference_rho is not None else ""
        print(f"{name}: mean rho {res.mean_rho:.3f}, positive at {res.frac_positive:.0%} of steps{ref}")
    print(f"wrote {path}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path, jobs: int = 1, resume: bool = False) -> int:
    """Run every grid cell on one dataset and IL fit under out/sweep. Every
    cell's records are checked before any cell's config.yaml is written; then
    one queue runs every cell's runs, reading the shared files once."""
    if cfg.run is None:
        raise CliError("config has no run section")
    cell_cfgs = sweep_configs(cfg)  # all built, so a bad cell fails before any cell runs
    print(f"sweeping {len(cell_cfgs)} cells")
    shared = out / "sweep"
    if not (shared / "dataset" / "manifest.json").exists():
        cmd_prepare(cfg, shared)
    _load_prepared(shared, cfg, ())  # refuses a stale dataset before any cell's records are checked
    cells = [(cell_cfg, shared / f"cell_{i:03d}") for i, cell_cfg in enumerate(cell_cfgs)]
    queue = [run for cell_cfg, cell_out in cells for run in _queued_runs(cell_cfg, cell_out, resume)]
    if cfg.run.policy.needs_il and not (shared / "il" / "il_table.csv").exists():
        cmd_train_il(cfg, shared)
    for cell_cfg, cell_out in cells:
        cell_out.mkdir(parents=True, exist_ok=True)
        with atomic_write(cell_out / "config.yaml") as f:
            yaml.safe_dump(as_dict(cell_cfg), f, sort_keys=True)
    return _run_queue(queue, shared, jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rholoss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("prepare", "build and cache the dataset splits"),
        ("train-il", "train the irreducible-loss model(s) and cache the loss table"),
        ("run", "run training for the configured policy and seeds"),
        ("report", "aggregate run records into plot-ready CSVs"),
        ("ladder", "run the approximation-fidelity ladder"),
        ("sweep", "run the hyperparameter grid sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment YAML")
        p.add_argument("--out", default=None, help=f"output directory (default: config output_dir or ${OUT_ENV_VAR})")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace run.seeds with this single seed (ignored without a run section)")
        p.add_argument("--jobs", type=int, default=1,
                       help="independent runs to execute concurrently (used by run and sweep only)")
        if name in ("run", "sweep"):
            p.add_argument("--resume", action="store_true", help="skip runs whose record file already exists")
        if name == "report":
            p.add_argument("--records", default=None, help="glob of run-record files (default: <out>/runs/record_*.csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise CliError(f"--jobs: must be at least 1, got {args.jobs}")
        cfg = load_config(args.config)
        if args.seed_override is not None and cfg.run is not None:
            d = as_dict(cfg)
            d["run"]["seeds"] = [args.seed_override]
            cfg = parse_config(d)
        out = _resolve_out(args, cfg)
        if args.command == "prepare":
            return cmd_prepare(cfg, out)
        if args.command == "train-il":
            return cmd_train_il(cfg, out)
        if args.command == "run":
            return cmd_run(cfg, out, jobs=args.jobs, resume=args.resume)
        if args.command == "report":
            return cmd_report(cfg, out, records_glob=args.records)
        if args.command == "ladder":
            return cmd_ladder(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, jobs=args.jobs, resume=args.resume)
        raise CliError(f"unknown command {args.command!r}")
    except (ConfigError, CliError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
