"""Energy-aware structured filter pruning.

Channels are scored by the nuclear norm (singular-value sum) of their
matricized feature maps; the lowest-energy channels are removed with
correct structural rewriting across residual and concat topologies, and
the result can be fine-tuned and audited (FLOPs/params, rank-stability
statistics).
"""

from .criteria import (ScoreTable, compute_scores, normalize_layer_l2,
                       score_gradient, score_lrp, score_nuclear,
                       score_taylor, score_weight)
from .engine import (ActivationRecord, GradientRecord, TrainConfig,
                     backward, capture_activations, evaluate, forward,
                     init_params, train)
from .graph import (ChannelGroup, GraphError, LayerNode, ModelGraph,
                    RewriteRefusal, build_channel_groups, infer_shapes,
                    rewrite_remove_channels)
from .linalg import (SvdResult, frobenius_norm, make_rng, nuclear_norm,
                     nuclear_norms, singular_values, svd)
from .metrics import (ComplexityReport, count_complexity,
                      kendall_distance, ranking_from_scores)
from .pruner import (PruningPlan, PruningSpec, execute, plan,
                     prune_pipeline)
from .toybench import (Dataset, ToyDatasetSpec, build_reference_arch,
                       build_toy_mlp, build_zoo, gen_blobs,
                       gen_class_images, select_by_loss)

__version__ = "0.1.0"
