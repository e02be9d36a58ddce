"""surrokit: FT surrogates, surrogate-based balancing, and saliency maps."""

from .balance import (
    BalanceConfig,
    Dataset,
    augment,
    record_holdout_split,
    repetition_counts,
    upsample,
)
from .classifiers import BandPowerClassifier, NetworkClassifier
from .errors import InvalidInputError, NumericalError, ShapeError
from .evaluation import (
    ConfusionMatrix,
    EvaluationResult,
    alpha_sweep,
    conditional_confusion,
    evaluate,
)
from .network import (
    ArchitectureDescriptor,
    count_parameters,
    full_architecture,
    infer_shapes,
    init_weights,
    reference_architecture,
)
from .saliency import SaliencyMap, SaliencySpec, surrogate_saliency, zero_out_saliency
from .surrogates import (
    IaaftReport,
    SurrogateConfig,
    ft_surrogate,
    iaaft_surrogate,
    partial_ft_surrogate,
)
from .synthetic import SyntheticSpec, bundled_spec, generate_synthetic
from .training import TrainConfig, rmsprop_step, train_network, train_reference_classifier

__version__ = "0.1.0"
