"""Online batch selection for neural-network training.

The centerpiece is reducible-loss selection: rank each pre-sampled candidate
by its current training loss minus a cached "irreducible" loss (the loss of
a model trained only on held-out data), and train on the top few. Points
that are already learnt, mislabelled, or unlikely at test time all score
low. Competing policies (loss, gradient norm, importance sampling,
uncertainty acquisitions, an offline entropy proxy) share the same trainer
so they can be compared like for like, and a fidelity ladder quantifies how
much each computational shortcut distorts the ranking.
"""

from .data import (
    LabeledDataset,
    SplitSpec,
    duplicate,
    gen_synthetic,
    inject_structured_noise,
    inject_uniform_noise,
    load_dataset_csv,
    load_idx,
    make_dataset,
    make_relevance_skew,
    save_dataset_csv,
    split,
)
from .ilmodel import (
    CheckpointLog,
    IrreducibleLossTable,
    compute_il_table,
    load_il_table,
    save_il_table,
    train_il_model,
    train_il_two_halves,
    update_il_model,
)
from .ladder import LadderConfig, RungResult, run_ladder, train_to_convergence
from .nn import (
    MlpModel,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    mc_dropout_predict,
    per_example_grad_norm,
    softmax,
    stack_models,
    unstack,
)
from .optim import OptimizerState, make_optimizer, optimizer_step
from .records import (
    RunRecord,
    epochs_to_target,
    load_run_record,
    redundancy_epoch_filter,
    save_run_record,
)
from .selection import (
    ScoredBatch,
    SelectionPolicy,
    sample_grad_norm_is,
    score_candidates,
    score_grad_norm,
    select_top_k,
    svp_offline_select,
)
from .stats import rankdata_average, spearman
from .trainer import RunConfig, evaluate, run_original_selection, run_training

__version__ = "0.1.0"
