"""Run records, and the one owner of the file format every tool writes.

Every file starts with a `# rholoss-<tag> v1 key=value ...` header line
(header_line / read_header); plain tables follow it with a column row and
csv rows (write_table / read_table), written atomically through
atomic_write so a partial file never appears. Tables of numbers only (the
dataset cache and the IL table) take the same bytes through
write_numeric_table / read_numeric_header and read_numeric_rows, which
format one row with one `%` and parse the whole body with one np.loadtxt
pass.

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
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Mapping

import numpy as np


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
def atomic_write(path, newline: str | None = None, binary: bool = False):
    """A file (text, or bytes when binary) that becomes path only once the
    block succeeds: it is written as path.tmp and renamed over path, and
    removed on failure, so a partial file never appears."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def header_line(tag: str, meta: Mapping[str, object]) -> str:
    """The first line of every file the tools write:
    `# rholoss-<tag> v1 key=value ...`, fields in meta's order."""
    fields = "".join(f" {key}={value}" for key, value in meta.items())
    return f"# rholoss-{tag} v1{fields}\n"


def read_header(line: str, tag: str, what) -> dict[str, str]:
    """The key=value fields of a header line; what (usually the path) names
    the file in the error raised when the line does not carry tag."""
    parts = line.split()
    if parts[:3] != ["#", f"rholoss-{tag}", "v1"]:
        raise ValueError(f"{what}: not a rholoss-{tag} v1 file")
    return dict(part.split("=", 1) for part in parts[3:])


def write_table(path, tag: str, meta: Mapping[str, object], columns, rows) -> None:
    """A headed CSV, written atomically: the header line (ending in LF), the
    column row, then one line per row (ending in csv's default CRLF)."""
    with atomic_write(path, newline="") as f:
        f.write(header_line(tag, meta))
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path, tag: str) -> tuple[dict[str, str], list[list[str]]]:
    """(header fields, rows as lists of strings) of a file write_table wrote;
    the column row is skipped."""
    with open(path, newline="") as f:
        meta = read_header(f.readline(), tag, path)
        reader = csv.reader(f)
        next(reader, None)
        return meta, list(reader)


def write_numeric_table(path, tag: str, meta: Mapping[str, object], columns, ints, floats) -> None:
    """A headed table of numbers, written atomically with the bytes
    write_table gives the same cells: row i holds the ints of ints[i] (%d)
    then the floats of floats[i] (%r, which is repr, so they round-trip
    exactly). Rows are formatted one % at a time and streamed, so no
    file-sized string is built."""
    row = ",".join(["%d"] * ints.shape[1] + ["%r"] * floats.shape[1]) + "\r\n"
    with atomic_write(path, newline="") as f:
        f.write(header_line(tag, meta))
        f.write(",".join(columns) + "\r\n")
        f.writelines(row % (*i, *x) for i, x in zip(ints.tolist(), floats.tolist()))


def read_numeric_header(f, tag: str, what, *keys: str) -> list[str]:
    """The values of keys, in order, in the header line of a file
    write_numeric_table wrote, from f opened "rb" at its start. Another tag,
    or a header that lacks any of keys, raises a ValueError naming what
    (usually the path) and every missing key."""
    meta = read_header(f.readline().decode("ascii", "replace"), tag, what)
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{what}: header lacks {' and '.join(missing)}")
    return [meta[key] for key in keys]


def read_numeric_rows(f, what, ints: int, floats: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, ints) int64 and (rows, floats) float64 arrays of a file
    write_numeric_table wrote, from f read past its header line by
    read_numeric_header; the column row is skipped. Integer cells are
    parsed strictly (no "3.0"), floats with correct rounding, and no string
    is built per cell. A row that is not ints integers then floats floats
    raises a ValueError naming what (usually the path)."""
    f.readline()
    dtype = np.dtype([("ints", np.int64, (ints,)), ("floats", np.float64, (floats,))])
    try:  # loadtxt warns on an empty body, so an empty body skips it
        rows = np.loadtxt(f, dtype, delimiter=",", comments=None, ndmin=1) if f.peek(1) else np.empty(0, dtype)
    except ValueError as exc:
        reason = str(exc).split(";")[0]  # drop loadtxt's advice to pass usecols
        raise ValueError(
            f"{what}: expected {ints} integer then {floats} float columns in every row; {reason}"
        ) from None
    return rows["ints"].copy(), rows["floats"].copy()


def save_run_record(record: RunRecord, path, generated_at: str | None = None) -> None:
    """Atomic write (tmp + rename) so partial files never appear."""
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = {"config_hash": record.config_hash, "seed": record.seed, "policy": record.policy,
            "generated_at": generated_at}
    with atomic_write(path, newline="") as f:
        f.write(header_line("run-record", meta))
        writer = csv.writer(f, lineterminator="\n")
        f.write("[steps]\n")
        writer.writerow(["step", "epoch", "selected_ids", "mean_score"])
        for row in record.steps:
            writer.writerow([row.step, row.epoch, ";".join(str(i) for i in row.selected_ids), repr(row.mean_score)])
        f.write("[evals]\n")
        writer.writerow(["step", "epoch", "at_epoch_end", "accuracy", "mean_loss"])
        for row in record.evals:
            writer.writerow([row.step, row.epoch, int(row.at_epoch_end), repr(row.accuracy), repr(row.mean_loss)])
        f.write("[compositions]\n")
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


def load_run_record(path) -> RunRecord:
    with open(path, newline="") as f:
        meta = read_header(f.readline(), "run-record", path)
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
