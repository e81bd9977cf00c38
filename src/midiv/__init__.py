"""midiv: multi-instance bag classification via bag-to-class divergences.

Bags (sets of feature vectors) are modelled as probability distributions;
an unlabelled bag is classified by comparing its estimated density to
class-level densities with asymmetric divergences. The package bundles the
density estimators, the divergence estimators and their qualitative
property checks, a hierarchical bag simulator, and an evaluation harness
with a CLI.
"""

__version__ = "0.1.0"

from .core import (
    Bag,
    Dataset,
    DatasetError,
    Label,
    PcaTransform,
    apply_pca,
    fit_pca,
    load_dataset,
    write_dataset,
)
from .density import (
    DensityModel,
    EmFitReport,
    fit_gmm,
    fit_kde,
    select_gmm,
)
from .divergence import (
    CheckReport,
    DivergenceScore,
    DivergenceSpec,
    PropertyScenario,
    bhattacharyya,
    check_property,
    ckl,
    default_scenario,
    kl,
)
from .simulate import GeneratedBag, SimConfig, sample_bag, sample_experiment
from .classify import (
    ClassModel,
    EstimatorConfig,
    EvalReport,
    PipelineConfig,
    StudyResult,
    SvmConfig,
    auc,
    choose_threshold,
    cross_validate,
    evaluate_holdout,
    fit_class_densities,
    fit_classifier,
    roc_points,
    run_sim_study,
    score_bag,
)

__all__ = [
    "__version__",
    "Bag",
    "Dataset",
    "DatasetError",
    "Label",
    "PcaTransform",
    "apply_pca",
    "fit_pca",
    "load_dataset",
    "write_dataset",
    "DensityModel",
    "EmFitReport",
    "fit_gmm",
    "fit_kde",
    "select_gmm",
    "CheckReport",
    "DivergenceScore",
    "DivergenceSpec",
    "PropertyScenario",
    "bhattacharyya",
    "check_property",
    "ckl",
    "default_scenario",
    "kl",
    "GeneratedBag",
    "SimConfig",
    "sample_bag",
    "sample_experiment",
    "ClassModel",
    "EstimatorConfig",
    "EvalReport",
    "PipelineConfig",
    "StudyResult",
    "SvmConfig",
    "auc",
    "choose_threshold",
    "cross_validate",
    "evaluate_holdout",
    "fit_class_densities",
    "fit_classifier",
    "roc_points",
    "run_sim_study",
    "score_bag",
]
