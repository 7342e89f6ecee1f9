"""Online batch selection for neural-network training.

The centerpiece is reducible-loss selection: rank each pre-sampled candidate
by its current training loss minus a cached "irreducible" loss (the loss of
a model trained only on held-out data), and train on the top few. Points
that are already learnt, mislabelled, or unlikely at test time all score
low. Competing policies (loss, gradient norm, importance sampling,
uncertainty acquisitions, an offline entropy proxy) share the same trainer
so they can be compared like for like, and a fidelity ladder quantifies how
much each computational shortcut distorts the ranking.

The top level holds the names of the README quick start and the demos;
everything else is imported from its module (`rholoss.nn`, `rholoss.optim`,
`rholoss.selection`, `rholoss.records`, ...).
"""

from .data import SplitSpec, gen_synthetic, inject_uniform_noise, split
from .ilmodel import compute_il_table, train_il_model, train_il_two_halves
from .ladder import LadderConfig, run_ladder
from .nn import init_mlp
from .records import epochs_to_target
from .selection import SelectionPolicy
from .trainer import RunConfig, run_training

__version__ = "0.1.0"
