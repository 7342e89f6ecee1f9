"""The benchmark's three workloads and the checks on their outputs.

Every workload is generated from ``configs/noisy_synthetic.yaml`` (10
Gaussian clusters, 10% uniform label noise, pool 2667 / holdout 1333 / test
800). The workload seed replaces every seed in that file; the copy is
written next to the outputs and is the only config the program sees.

- ``cli-noisy``: ``prepare -> train-il -> run -> report`` through
  ``cli.main`` with ``--jobs 1``: rho-loss on the frozen IL table plus the
  auto-added uniform baseline, 3 run seeds x 20 epochs = 1080 steps. Cheap
  selection; time goes to the IL fit, the MLP and the CSV cache.
- ``hard-scoring``: in-process library runs on the same generated data (no
  file I/O) of the expensive selection paths: grad-norm-is, bald (MC
  dropout, model dropout 0.1, 16 samples) and rho-loss with a live IL model
  updated every step (``il_update_mode: original``).
- ``ladder``: ``prepare -> ladder`` with a lighter ladder (``LADDER``); time
  goes to ``train_to_convergence``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from rholoss import cli, ilmodel, trainer
from rholoss import config as configmod
from rholoss.data import load_dataset_csv
from rholoss.ilmodel import load_il_table
from rholoss.ladder import RUNG_NAMES
from rholoss.nn import init_mlp
from rholoss.records import epochs_to_target, load_run_record

HARD_POLICIES = ("grad-norm-is", "bald", "rho-loss")

# grad-norm-is costs ~60 ms a step, so hard-scoring trains for fewer epochs
# than the config's 20: a pass of ~2.5 s gives a dozen passes a run to take
# the median of, and each policy's run is a stage of its own of under 1.5 s.
HARD_EPOCHS = 4

# Report targets for cli-noisy's speedup_epochs, the geometric mean over
# targets of uniform's mean epochs-to-target over rho-loss's. Epochs are
# whole numbers, and the config has a single 0.72 target, so a median over 3
# run seeds at that target swings by a third from one workload seed to the
# next. Over seeds 301-320 and 401-420 in sets of ten, the spread (IQR /
# median) was 0.09-0.21 with the median over run seeds at 4 targets, and
# 0.07-0.13 with the mean at these 19.
SPEEDUP_TARGETS = [round(0.56 + 0.01 * i, 2) for i in range(19)]

# A lighter ladder than the config's. At its settings a pass takes ~7 s, so a
# run has 3-4 passes to take a median over, too few for this host's noise.
# These settings take ~2.2 s, and the 2-epoch cap is hit by nearly every
# training, so the work hardly depends on the seed (5828 and 5872 backward
# calls for seeds 12 and 13).
LADDER = {"ladder.convergence_epochs": 2, "ladder.il_pretrain_epochs": 10, "ladder.ensemble_size": 3}


# Sizes for the smoke test: every code path, a fraction of a second a pass.
TINY = {
    "dataset.synthetic.per_class": 24,
    "il.hidden": [16, 16],
    "il.epochs": 2,
    "run.n_b": 4,
    "run.n_B": 32,
    "run.epochs": 2,
    "run.model.hidden": [16, 16],
    "run.policy.mc_samples": 4,
    "ladder.n_b": 3,
    "ladder.n_B": 30,
    "ladder.ensemble_size": 2,
    "ladder.convergence_epochs": 1,
    "ladder.il_pretrain_epochs": 2,
    "ladder.hidden": [16, 16],
    "ladder.small_hidden": [8, 8],
}

# Quality metrics that do not apply to a workload carry this constant,
# because every result line reports every end-to-end metric.
NOT_APPLICABLE = 1.0


class Checks:
    """Counts output checks attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class PassResult:
    steps: int  # selection steps, or ladder acquisitions
    digest: str  # of everything the pass selected (ladder: of its rho table)
    quality: dict[str, float]
    counts: dict[str, int]  # output counts the traced call counts must match
    # stage -> seconds, filled in by run_pass. The stages are "setup", one
    # or more "run..." stages and "finish"; host seconds are explained in
    # hostclock.
    wall: dict[str, float] = field(default_factory=dict)
    host: dict[str, float] = field(default_factory=dict)


def _set(raw: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value


def make_config(root: Path, workload: str, seed: int, size: str) -> dict:
    """The base config with every seed derived from the workload seed."""
    raw = yaml.safe_load((root / "configs" / "noisy_synthetic.yaml").read_text())
    s = [int(v) & 0x7FFFFFFF for v in np.random.SeedSequence(seed).generate_state(9)]
    overrides = {
        "dataset.synthetic.seed": s[0],
        "dataset.split.seed": s[1],
        "dataset.noise.seed": s[2],
        "il.seed": s[3],
        "run.model.seed": s[4],
        "run.seeds": s[5:8],
        "ladder.seed": s[8],
    }
    if workload == "cli-noisy":
        overrides["run.targets"] = SPEEDUP_TARGETS
    if workload == "hard-scoring":
        overrides.update({
            "run.seeds": s[5:6],
            "run.epochs": HARD_EPOCHS,
            "run.model.dropout": 0.1,
            "run.policy": {"kind": "bald", "mc_samples": 16},
            "run.il_update_mode": "original",
        })
    if workload == "ladder":
        overrides.update(LADDER)
    if size == "tiny":
        overrides.update(TINY)
    for key, value in overrides.items():
        _set(raw, key, value)
    return raw


def _cli(stage: str, config_path: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([stage, "--config", str(config_path), "--out", str(out), "--jobs", "1"])


def _selected_count(chunk_size: int, n_b: int, n_B: int) -> int:
    return n_b if chunk_size >= n_B else max(1, int(round(n_b * chunk_size / n_B)))


def check_steps(checks: Checks, record, pool_ids: np.ndarray, n_b: int, n_B: int, epochs: int) -> None:
    """Every step selects the right number of distinct ids from its own
    candidate chunk. Chunks are rebuilt from the trainer's documented
    schedule: the first stream spawned from the run seed permutes the pool
    once per epoch and the permutation is cut into n_B-sized chunks."""
    label = f"{record.policy} seed {record.seed}"
    n = pool_ids.size
    per_epoch = math.ceil(n / n_B)
    if not checks.check(len(record.steps) == epochs * per_epoch,
                        f"{label}: {len(record.steps)} steps, expected {epochs * per_epoch}"):
        return
    perm_rng = np.random.default_rng(np.random.SeedSequence(record.seed).spawn(4)[0])
    rows = iter(record.steps)
    for _ in range(epochs):
        perm = perm_rng.permutation(n)
        for start in range(0, n, n_B):
            chunk = set(pool_ids[perm[start:start + n_B]].tolist())
            sel = next(rows).selected_ids
            want = _selected_count(len(chunk), n_b, n_B)
            checks.check(
                len(sel) == want and len(set(sel)) == len(sel) and chunk.issuperset(sel),
                f"{label}: a step selected {len(sel)} ids (want {want} distinct ids of its chunk)",
            )


def _digest(records) -> str:
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: (r.policy, r.seed)):
        for row in r.steps:
            h.update(f"{r.policy},{r.seed},{row.step}:{','.join(map(str, row.selected_ids))};".encode())
    return h.hexdigest()[:16]


class Workload:
    """One workload at one seed and size. ``run_pass`` does the whole
    workload (``setup``, ``run``, ``finish``) once in a fresh output
    directory, timing each stage on a ``HostClock``, and checks what it
    wrote. ``run`` may time its work as several stages named ``run...``."""

    name = ""

    def __init__(self, root: Path, seed: int, size: str, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.yaml"
        with open(self.config_path, "w") as f:
            yaml.safe_dump(make_config(root, self.name, seed, size), f, sort_keys=True)
        self.cfg = configmod.load_config(self.config_path)

    def _fresh(self, name: str) -> Path:
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def run_pass(self, index: int, checks: Checks, clock, tracer=None) -> PassResult:
        out = self._fresh(f"pass{index:03d}{'-traced' if tracer else ''}")
        with tracer.installed() if tracer else contextlib.nullcontext():
            clock.start()
            state = clock.time("setup", self.setup, out)
            state = self.run(out, state, clock)
            state = clock.time("finish", self.finish, out, state)
        result = self.inspect(out, state, checks)
        shutil.rmtree(out, ignore_errors=True)
        result.wall, result.host = clock.wall, clock.host
        return result

    def time_setup(self, clock) -> tuple[float, float]:
        """(wall, host) seconds for one more setup on its own; passes check
        its outputs."""
        out = self._fresh("setup")
        clock.start()
        clock.time("setup", self.setup, out)
        shutil.rmtree(out, ignore_errors=True)
        return clock.wall["setup"], clock.host["setup"]

    def setup(self, out: Path):
        """Everything before the timed work; returns state for ``run``."""
        raise NotImplementedError

    def run(self, out: Path, state, clock):
        """The work ``run_s`` times, on ``clock``; returns state for
        ``finish``."""
        raise NotImplementedError

    def finish(self, out: Path, state):
        """Work after ``run`` that counts in ``total_s`` only; returns state
        for ``inspect``."""
        return state

    def inspect(self, out: Path, state, checks: Checks) -> PassResult:
        raise NotImplementedError

    def cross_check(self, stats: dict[str, float], result: PassResult, checks: Checks) -> None:
        """Traced call counts must equal what the outputs say happened."""
        for metric, count in result.counts.items():
            got = stats[metric]
            checks.check(got == count, f"trace {metric} = {got:g}, outputs say {count}")


class CliNoisy(Workload):
    name = "cli-noisy"

    def setup(self, out):
        return {stage: _cli(stage, self.config_path, out) for stage in ("prepare", "train-il")}

    def run(self, out, rc, clock):
        rc["run"] = clock.time("run", _cli, "run", self.config_path, out)
        return rc

    def finish(self, out, rc):
        rc["report"] = _cli("report", self.config_path, out)
        return rc

    def inspect(self, out, rc, checks):
        for stage, code in rc.items():
            checks.check(code == 0, f"rholoss {stage} exited {code}")
        run = self.cfg.run
        policies = [run.policy.kind, "uniform"]
        quality = {"final_accuracy": math.nan, "speedup_epochs": math.nan,
                   "ladder_rho_approx2": NOT_APPLICABLE}
        records = []
        try:
            pool_ids = load_dataset_csv(out / "dataset" / "train.csv").ids
            for kind in policies:
                for seed in run.seeds:
                    records.append(load_run_record(out / "runs" / f"record_{kind}_seed{seed}.csv"))
            for r in records:
                check_steps(checks, r, pool_ids, run.n_b, run.n_B, run.epochs)
            table = load_il_table(out / "il" / "il_table.csv")
            checks.check(table.covers(pool_ids), "IL table does not cover the pool")
            with open(out / "reports" / "epochs_to_target.csv", newline="") as f:
                f.readline()
                rows = list(csv.DictReader(f))
            checks.check(
                sorted((r["policy"], float(r["target"])) for r in rows)
                == sorted((p, t) for p in policies for t in run.targets),
                f"report has rows {[(r['policy'], r['target']) for r in rows]}",
            )
            # A target not reached counts as one epoch past the end of training.
            def mean_epochs(kind: str, target: float) -> float:
                reached = [epochs_to_target(r, target) for r in records if r.policy == kind]
                return float(np.mean([run.epochs + 1.0 if e is None else e for e in reached]))

            ratios = [mean_epochs("uniform", t) / mean_epochs(run.policy.kind, t) for t in run.targets]
            quality["speedup_epochs"] = float(np.exp(np.mean(np.log(ratios))))
            quality["final_accuracy"] = float(np.mean([r.final_accuracy() for r in records]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.check(False, f"cli-noisy outputs unreadable: {exc!r}")
        steps = sum(len(r.steps) for r in records)
        counts = {
            "selection.score_and_select.calls": steps,
            "trainer.run_training.calls": len(records),
            "records.save_run_record.calls": len(records),
            "records.load_run_record.calls": len(records),
            "cli.cmd_run.calls": 1,
        }
        return PassResult(steps, _digest(records), quality, counts)


class HardScoring(Workload):
    name = "hard-scoring"

    def setup(self, out):
        cfg = configmod.load_config(self.config_path)
        pool, holdout, test = cli.prepare_datasets(cfg)
        il = cfg.il
        il_model, _ = ilmodel.train_il_model(
            holdout, validation=pool, hidden=il.hidden, epochs=il.epochs,
            optimizer_kind=il.optimizer.kind, learning_rate=il.optimizer.learning_rate,
            weight_decay=il.optimizer.weight_decay, batch_size=il.batch_size,
            dropout_rate=il.dropout, seed=il.seed,
        )
        return cfg, pool, test, il_model

    def run(self, out, state, clock):
        """Each policy's run is a stage of its own, so that a change in the
        host's speed during one run does not skew the others' host time."""
        cfg, pool, test, il_model = state
        run = cfg.run
        seed = run.seeds[0]
        records, errors = [], []
        for kind in HARD_POLICIES:
            policy = replace(run.policy, kind=kind)
            run_cfg = trainer.RunConfig(
                policy=policy, n_b=run.n_b, n_B=run.n_B, epochs=run.epochs,
                optimizer_kind=run.optimizer.kind, learning_rate=run.optimizer.learning_rate,
                weight_decay=run.optimizer.weight_decay, il_update_mode=run.il_update_mode,
                il_lr_scale=run.lr_scale, seed=seed, eval_every=run.eval_every,
            )
            model = init_mlp((pool.dim, *run.model.hidden, pool.num_classes), seed=run.model.seed,
                             dropout_rate=run.model.dropout, batchnorm=run.model.batchnorm)
            try:
                if policy.needs_il:
                    records.append(clock.time(f"run.{kind}", trainer.run_original_selection,
                                              pool, test, il_model, run_cfg, model))
                else:
                    records.append(clock.time(f"run.{kind}", trainer.run_training, pool, test, None, run_cfg, model))
            except (ValueError, FloatingPointError) as exc:
                errors.append(f"{kind}: {exc!r}")
        return pool, records, errors

    def inspect(self, out, state, checks):
        pool, records, errors = state
        run = self.cfg.run
        for kind in HARD_POLICIES:
            checks.check(any(r.policy == kind for r in records), f"{kind} run failed: {errors}")
        for r in records:
            check_steps(checks, r, pool.ids, run.n_b, run.n_B, run.epochs)
            checks.check(len(r.epoch_accuracies()) == run.epochs, f"{r.policy}: missing epoch evaluations")
        steps = {r.policy: len(r.steps) for r in records}
        quality = {
            "final_accuracy": float(np.mean([r.final_accuracy() for r in records])) if records else math.nan,
            "speedup_epochs": NOT_APPLICABLE,
            "ladder_rho_approx2": NOT_APPLICABLE,
        }
        counts = {
            "selection.score_and_select.calls": sum(steps.values()),
            "trainer.run_training.calls": 2,
            "trainer.run_original_selection.calls": 1,
            "ilmodel.update_il_model.calls": steps.get("rho-loss", 0),
            "selection.score_grad_norm.calls": steps.get("grad-norm-is", 0),
            "selection.sample_grad_norm_is.calls": steps.get("grad-norm-is", 0),
            "nn.per_example_grad_norm.calls": pool.n * run.epochs,
            "selection.score_al.calls": steps.get("bald", 0),
        }
        return PassResult(sum(steps.values()), _digest(records), quality, counts)


class Ladder(Workload):
    name = "ladder"

    def setup(self, out):
        return {"prepare": _cli("prepare", self.config_path, out)}

    def run(self, out, rc, clock):
        rc["ladder"] = clock.time("run", _cli, "ladder", self.config_path, out)
        return rc

    def inspect(self, out, rc, checks):
        for stage, code in rc.items():
            checks.check(code == 0, f"rholoss {stage} exited {code}")
        quality = {"final_accuracy": NOT_APPLICABLE, "speedup_epochs": NOT_APPLICABLE,
                   "ladder_rho_approx2": math.nan}
        acquisitions = 0
        digest = ""
        try:
            manifest = json.loads((out / "dataset" / "manifest.json").read_text())
            per_rung = math.ceil(manifest["files"]["train"]["n"] / self.cfg.ladder.n_B)
            body = (out / "ladder" / "ladder.csv").read_text().split("\n", 1)[1]
            digest = hashlib.sha256(body.encode()).hexdigest()[:16]
            rows = list(csv.DictReader(io.StringIO(body)))
            for rung in RUNG_NAMES:
                steps = [r for r in rows if r["rung"] == rung and r["step"].isdigit()]
                mean = [float(r["rho"]) for r in rows if r["rung"] == rung and r["step"] == "mean"]
                checks.check(len(steps) == per_rung, f"{rung}: {len(steps)} steps, expected {per_rung}")
                checks.check(len(mean) == 1 and math.isfinite(mean[0]), f"{rung}: mean rho {mean}")
                acquisitions += len(steps)
            quality["ladder_rho_approx2"] = [float(r["rho"]) for r in rows
                                             if r["rung"] == "approx2" and r["step"] == "mean"][0]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.check(False, f"ladder outputs unreadable: {exc!r}")
        counts = {
            "stats.spearman.calls": acquisitions,
            "ladder.run_ladder.calls": 1,
            "cli.cmd_ladder.calls": 1,
        }
        return PassResult(acquisitions, digest, quality, counts)


def make(name: str, root: Path, seed: int, size: str, work: Path) -> Workload:
    cls = {"cli-noisy": CliNoisy, "hard-scoring": HardScoring, "ladder": Ladder}[name]
    return cls(root, seed, size, work)
