"""Privacy-preserving survey marketplace.

Locally randomized survey responses (one-time RAPPOR), a two-secret key
escrow, a simulated smart-contract ledger enforcing fair exchange, and a
harness for accuracy experiments.
"""

from .ldp import (
    BitCounts,
    FrequencyEstimate,
    PrivacyParams,
    QuerySpec,
    accumulate_counts,
    epsilon_of,
    estimate_frequencies,
    randomize_batch,
)
from .envelope import (
    Ciphertext,
    DecryptionError,
    Digest,
    Nonce,
    PreSharedKey,
    Secret,
    SessionKey,
    decrypt,
    derive_session_key,
    digest,
    encrypt,
    hmac_derive,
)
from .ledger import (
    Address,
    CommitmentIndex,
    ContractPhase,
    EventKind,
    EventLog,
    LedgerError,
    LedgerEvent,
    SurveyContract,
    verify_event_chain,
)
from .protocol import (
    AggregationOutcome,
    DeliveryMessage,
    FilterCriteria,
    FilterVector,
    OperatorProfile,
    ProtocolError,
    SurveyConfiguration,
    evaluate_criteria,
    run_survey,
)
from .simulate import (
    ErrorMetrics,
    ExperimentConfig,
    ExperimentResult,
    Mode,
    compute_error_metrics,
    export_results,
    run_full_protocol_experiment,
    run_ldp_experiment,
    sample_true_choices,
)

__version__ = "0.1.0"
