"""Run records: what a training run selected and achieved, plus CSV persistence.

A record file is a single CSV with three sections. Byte-for-byte determinism
matters (it is how reproducibility is audited), so floats are written with
repr and the only run-to-run variable field is the generated_at timestamp in
the header.

    # rholoss-run-record v1 config_hash=<hex> seed=<int> policy=<kind> generated_at=<iso>
    [steps]
    step,epoch,selected_ids,mean_score
    [evals]
    step,epoch,at_epoch_end,accuracy,mean_loss
    [compositions]
    epoch,n_selected,frac_corrupted,frac_low_relevance,frac_already_correct
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Mapping


@dataclass
class StepRow:
    step: int
    epoch: int
    selected_ids: tuple[int, ...]
    mean_score: float


@dataclass
class EvalRow:
    step: int
    epoch: int
    at_epoch_end: bool
    accuracy: float
    mean_loss: float


@dataclass
class CompositionRow:
    epoch: int
    n_selected: int
    frac_corrupted: float
    frac_low_relevance: float
    frac_already_correct: float


@dataclass
class RunRecord:
    policy: str
    seed: int
    config_hash: str = "-"
    steps: list[StepRow] = field(default_factory=list)
    evals: list[EvalRow] = field(default_factory=list)
    compositions: list[CompositionRow] = field(default_factory=list)

    def final_accuracy(self) -> float:
        if not self.evals:
            raise ValueError("record has no evaluations")
        return self.evals[-1].accuracy

    def epoch_accuracies(self) -> list[float]:
        return [row.accuracy for row in self.evals if row.at_epoch_end]


def epochs_to_target(record: RunRecord, target_accuracy: float) -> int | None:
    """First epoch (1-based) whose end-of-epoch accuracy reaches the target.

    Hitting the target exactly counts as reached; None means never reached.
    """
    for row in record.evals:
        if row.at_epoch_end and row.accuracy >= target_accuracy:
            return row.epoch
    return None


def redundancy_epoch_filter(
    records: Mapping[str, RunRecord], weakest_final_accuracy: float
) -> dict[str, float | None]:
    """Mean already-correct fraction per policy, over qualifying epochs only.

    An epoch qualifies while the policy's test accuracy is still below the
    final accuracy of the weakest method, which controls for methods simply
    being further along. Policies with no qualifying epoch map to None.
    """
    out: dict[str, float | None] = {}
    for name, record in records.items():
        acc_by_epoch = {row.epoch: row.accuracy for row in record.evals if row.at_epoch_end}
        vals = [
            comp.frac_already_correct
            for comp in record.compositions
            if comp.epoch in acc_by_epoch and acc_by_epoch[comp.epoch] < weakest_final_accuracy
        ]
        out[name] = sum(vals) / len(vals) if vals else None
    return out


def weakest_final_accuracy(records: Mapping[str, RunRecord]) -> float:
    return min(r.final_accuracy() for r in records.values())


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None):
    """A text file that becomes path only once the block succeeds: it is
    written as path.tmp and renamed over path, and removed on failure, so a
    partial file never appears."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_run_record(record: RunRecord, path, generated_at: str | None = None) -> None:
    """Atomic write (tmp + rename) so partial files never appear."""
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf = io.StringIO()
    buf.write(
        f"# rholoss-run-record v1 config_hash={record.config_hash} "
        f"seed={record.seed} policy={record.policy} generated_at={generated_at}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    buf.write("[steps]\n")
    writer.writerow(["step", "epoch", "selected_ids", "mean_score"])
    for row in record.steps:
        writer.writerow([row.step, row.epoch, ";".join(str(i) for i in row.selected_ids), repr(row.mean_score)])
    buf.write("[evals]\n")
    writer.writerow(["step", "epoch", "at_epoch_end", "accuracy", "mean_loss"])
    for row in record.evals:
        writer.writerow([row.step, row.epoch, int(row.at_epoch_end), repr(row.accuracy), repr(row.mean_loss)])
    buf.write("[compositions]\n")
    writer.writerow(["epoch", "n_selected", "frac_corrupted", "frac_low_relevance", "frac_already_correct"])
    for row in record.compositions:
        writer.writerow(
            [
                row.epoch,
                row.n_selected,
                repr(row.frac_corrupted),
                repr(row.frac_low_relevance),
                repr(row.frac_already_correct),
            ]
        )
    with atomic_write(path, newline="") as f:
        f.write(buf.getvalue())


def parse_record_header(line: str) -> dict[str, str]:
    if not line.startswith("# rholoss-run-record"):
        raise ValueError("not a run-record file")
    return dict(part.split("=", 1) for part in line.split()[3:])


def load_run_record(path) -> RunRecord:
    with open(path, newline="") as f:
        meta = parse_record_header(f.readline())
        record = RunRecord(policy=meta["policy"], seed=int(meta["seed"]), config_hash=meta["config_hash"])
        section = None
        reader = csv.reader(f)
        for row in reader:
            if not row:
                continue
            if row[0].startswith("["):
                section = row[0].strip("[]")
                next(reader, None)  # column header
                continue
            if section == "steps":
                ids = tuple(int(v) for v in row[2].split(";")) if row[2] else ()
                record.steps.append(StepRow(int(row[0]), int(row[1]), ids, float(row[3])))
            elif section == "evals":
                record.evals.append(EvalRow(int(row[0]), int(row[1]), bool(int(row[2])), float(row[3]), float(row[4])))
            elif section == "compositions":
                record.compositions.append(
                    CompositionRow(int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4]))
                )
    return record
