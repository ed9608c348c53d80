"""Topological classification of mixed numeric/categorical tabular data.

Each record becomes a small point cloud (the record plus its
coordinate-zeroing projections), clouds become dimension-0 persistence
diagrams, carried as one matrix of sorted deaths, diagrams are compared
with the p-Wasserstein distance, and a k-nearest-neighbor vote classifies.
The data travel as arrays throughout: the parsed table as typed columns
(float64 values, and domain codes for a categorical attribute), the
votes as a (rows, ks) grid and the predictions as (row, true, predicted)
rows of one int64 array.
"""

__version__ = "0.1.0"

from .classify import knn_grid
from .errors import (
    ContractError,
    EvaluationError,
    FitError,
    ParseError,
    SchemaError,
    TopmixError,
)
from .evaluate import (
    ConfusionCounts,
    EvaluationReport,
    SplitSpec,
    evaluate_split,
    select_k_kfold,
    split_groups,
)
from .ingest import ParseReport, RawDataset, parse_dataset
from .metric import distance_matrix
from .persistence import dim0_diagrams
from .pipeline import (
    ExperimentConfig,
    load_experiment_config,
    run_pipeline,
)
from .preprocess import (
    FeatureMatrix,
    StandardizationParams,
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from .schema import Attribute, PositiveRule, SchemaSpec, load_schema
