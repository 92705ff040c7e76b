"""Attack-graph construction and exploit-branch prediction for CPS/IoT systems.

Known attacks are written as regular expressions over described basic blocks,
compiled into control/data-flow graphs, and merged into one aggregated DAG.
Branches the corpus never exhibited are scored by a kernel SVM (trained with
sequential minimal optimization) or by a small rule system, narrowing the set
of node pairs an analyst must review.
"""

from .model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    AttackExpr,
    BasicBlock,
    Block,
    Cdfg,
    Concat,
    CorpusStats,
    EmptyDescription,
    InvalidCounts,
    Metrics,
    N_BINARY_ATTRIBUTES,
    Star,
    UnionExpr,
    VulnerabilityCategory,
    block,
    find_cycle,
    format_ratio,
    normalize_description,
    star,
    validate_dag,
)
from .expr import (
    EmptyBlockDescription,
    ExpressionSyntaxError,
    UnbalancedParens,
    parse_expression,
    render_expression,
)
from .graph import (
    CycleIntroduced,
    MissingProvenance,
    PathExplosion,
    UnknownNode,
    build_dag,
    cdfg_from_expression,
    discover_unexploited,
    enumerate_attack_paths,
    known_attack_paths,
    merge_cdfgs,
    project_subgraph,
)
from .features import (
    AttributeTable,
    BranchFrame,
    PairFacts,
    SelfBranch,
    branch_features,
    enumerate_candidates,
    hamming,
    height_diff,
    labeled_frame,
    pair_facts,
    search_space_size,
    structural_columns,
)
from .negatives import (
    ExceptionList,
    InsufficientData,
    NegativeFilterThresholds,
    REFERENCE_BRANCH_STATS,
    categories_independent,
    corpus_stats,
    generate_negative_candidates,
)
from .learn import (
    CellResult,
    EmptyData,
    GaussianNbModel,
    GridSpec,
    SgdSvmModel,
    SingleClassData,
    SvmModel,
    SvmParams,
    TreeModel,
    evaluate,
    format_reduction,
    grid_search_min_fn,
    knn_predict,
    search_space_reduction,
    train_gnb,
    train_sgd_svm,
    train_svm,
    train_tree,
)
from .csp import RULES, csp_classify, csp_facts
from .storage import (
    Corpus,
    CorpusLoadError,
    DagFile,
    ExpressionParseFailure,
    FingerprintMismatch,
    load_corpus,
    load_dag,
    save_dag,
)

__version__ = "0.1.0"
