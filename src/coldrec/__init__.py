"""coldrec: cold-start next-article recommendation pipeline.

From MIND-format logs to confidence-weighted transition triplets,
content-aware latent-factor models (almm / forbes / oord), and warm- plus
cold-start ranking evaluation.
"""

from .config import RunConfig, derive_seed, load_config
from .errors import (
    DegenerateSplitError,
    DivergenceError,
    EmptyInputError,
    FormatError,
    MissingArticlesError,
    PipelineError,
    SingularSystemError,
)
from .features import (
    FeatureMatrix,
    Vectorizer,
    VectorizerConfig,
    fit_tfidf,
    load_external_embeddings,
    tokenize,
    transform,
)
from .fixture import generate_fixture
from .metrics import (
    diversity_at_k,
    emit_curves,
    evaluate,
    format_summary,
    map_at_k,
    novelty_at_k,
    recall_at_k,
)
from .mind import (
    Article,
    ClickEvent,
    ValidationReport,
    history_popularity,
    parse_behaviors,
    parse_news,
    validate_clicks,
)
from .models import (
    FactorModel,
    Hyperparams,
    Instances,
    almm_train,
    forbes_train,
    load_model,
    objective,
    oord_train,
    predict,
    sample_negatives,
    save_model,
)
from .numerics import cosine_distance, load_matrix, ridge_solve, save_matrix, score
from .pipeline import run_pipeline
from .splits import (
    DataSplit,
    load_split,
    make_cold_split,
    make_warm_split,
    save_split,
)
from .transitions import (
    Triplet,
    TripletSet,
    build_tensor,
    build_triplets,
    load_triplets,
    save_triplets,
)

__version__ = "0.1.0"
