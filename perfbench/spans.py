"""Outside-in span tracer for the rholoss package.

The tracer replaces selected rholoss functions with timing wrappers for the
duration of a ``with tracer.installed():`` block. A function is replaced at
its home module *and* in every ``rholoss.*`` namespace that imported it by
name (``from .nn import forward`` binds ``forward`` in ``trainer``,
``selection``, ``ladder`` and ``ilmodel``), so no call path escapes the count.
Methods are replaced on their class. Nothing in ``src/rholoss`` is edited.

Each call becomes one span ``(name, start_ns, end_ns, parent, run_id, rows)``
kept in memory; ``save_spans`` writes them out once the benchmark is done. A
span's self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter_ns

import numpy as np


def _rows_of(arg):
    return lambda args, kwargs, result: len(args[arg])


# (module, attribute, rows-of-the-batch or None). "Class.method" attributes
# are patched on the class.
TARGETS = (
    ("cli", "cmd_prepare", None),
    ("cli", "cmd_train_il", None),
    ("cli", "cmd_run", None),
    ("cli", "cmd_report", None),
    ("cli", "cmd_ladder", None),
    ("config", "load_config", None),
    ("data", "save_dataset_csv", lambda args, kwargs, result: args[0].n),
    ("data", "load_dataset_csv", lambda args, kwargs, result: result.n),
    ("ilmodel", "train_il_model", None),
    ("ilmodel", "compute_il_table", None),
    ("ilmodel", "load_il_table", None),
    ("ilmodel", "IrreducibleLossTable.lookup", _rows_of(1)),
    ("ilmodel", "IrreducibleLossTable.covers", _rows_of(1)),
    ("ilmodel", "update_il_model", _rows_of(2)),
    ("selection", "score_and_select", _rows_of(2)),
    ("selection", "score_grad_norm", _rows_of(1)),
    ("selection", "sample_grad_norm_is", _rows_of(0)),
    ("selection", "score_al", _rows_of(2)),
    ("selection", "select_top_k", _rows_of(0)),
    ("nn", "per_example_grad_norm", lambda args, kwargs, result: 1),
    ("nn", "mc_dropout_predict", _rows_of(1)),
    ("nn", "forward", _rows_of(1)),
    ("nn", "backward", _rows_of(1)),
    ("nn", "ensemble_cross_entropy", _rows_of(1)),
    ("optim", "optimizer_step", None),
    ("trainer", "run_training", None),
    ("trainer", "run_original_selection", None),
    ("trainer", "evaluate", lambda args, kwargs, result: args[1].n),
    ("records", "save_run_record", None),
    ("records", "load_run_record", None),
    ("ladder", "run_ladder", None),
    ("ladder", "train_to_convergence", _rows_of(1)),
    ("stats", "spearman", None),
)

NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)


class Tracer:
    """In-memory span recorder for one workload pass, tagged with ``run_id``."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.trained = 0  # examples selected for training, summed over score_and_select
        self.files_read: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name_idx: int, fn, rows_fn):
        spans = self.spans
        stack = self._stack
        name = NAMES[name_idx]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                rows = rows_fn(args, kwargs, result) if ok and rows_fn is not None else 0
                spans[slot] = (name_idx, start, end, parent, self.run_id, rows)
                if ok and name == "selection.score_and_select":
                    self.trained += int(result.selected_indices.size)
                elif ok and name == "data.load_dataset_csv":
                    self.files_read.append(str(args[0]))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        restore: list[tuple[object, str, object]] = []
        try:
            for idx, (module, attr, rows_fn) in enumerate(TARGETS):
                home = importlib.import_module(f"rholoss.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(idx, orig, rows_fn))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(idx, orig, rows_fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "rholoss" and not mod_name.startswith("rholoss."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) array: name index, start, end, parent, run id, rows."""
        return np.array(self.spans, dtype=np.int64).reshape(-1, 6)

    def layer_stats(self) -> dict[str, float]:
        """Per-layer statistics of this pass: calls, busy/self seconds,
        p50/p95 latency and rows for every traced function, plus the
        derived ratios."""
        t = self.table()
        name, start, end, parent, rows = t[:, 0], t[:, 1], t[:, 2], t[:, 3], t[:, 5]
        dur = end - start
        child_ns = np.zeros(len(t), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child_ns, parent[nested], dur[nested])
        self_ns = dur - child_ns

        out: dict[str, float] = {}
        for k, full in enumerate(NAMES):
            sel = name == k
            out[f"{full}.calls"] = float(sel.sum())
            out[f"{full}.busy_s"] = float(dur[sel].sum()) / 1e9
            out[f"{full}.self_s"] = float(self_ns[sel].sum()) / 1e9
            out[f"{full}.p50_ms"] = _pct_ms(dur[sel], 50)
            out[f"{full}.p95_ms"] = _pct_ms(dur[sel], 95)
            out[f"{full}.rows"] = float(rows[sel].sum())

        # Step interval: gap between successive score_and_select starts
        # within one training run (spans that share a parent).
        steps = name == NAMES.index("selection.score_and_select")
        gaps = [np.diff(np.sort(start[steps & (parent == p)])) for p in np.unique(parent[steps])]
        gaps_ns = np.concatenate(gaps) if gaps else np.zeros(0)
        out["trainer.step_ms_p50"] = _pct_ms(gaps_ns, 50)
        out["trainer.step_ms_p95"] = _pct_ms(gaps_ns, 95)
        scored = out["selection.score_and_select.rows"]
        out["selection.scored_per_trained"] = scored / self.trained if self.trained else 0.0
        files = len(set(self.files_read))
        out["data.load_dataset_csv.reads_per_file"] = len(self.files_read) / files if files else 0.0
        out["trace.spans"] = float(len(t))
        return out


def save_spans(tracers: list[Tracer], path) -> None:
    """Write every pass's spans to one ``.npz`` (columns as in ``Tracer.table``)."""
    tables = [t.table() for t in tracers] or [np.zeros((0, 6), dtype=np.int64)]
    np.savez(path, names=np.array(NAMES), spans=np.concatenate(tables))


def _pct_ms(durations_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e6 if durations_ns.size else 0.0
