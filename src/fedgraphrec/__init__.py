"""Federated recommendation simulator.

Per-user clients train private embedding+MLP recommenders; a central server
builds a co-interaction graph over the users who opted into sharing, smooths
the uploaded item embeddings over that graph, and sends each user a
personalized (or global) item-embedding table every round.
"""

from fedgraphrec.data import (
    FileFormat,
    InteractionDataset,
    PrivacyAssignment,
    RawInteraction,
    Tier,
    assign_privacy,
    leave_one_out_split,
    load_interactions,
    sample_eval_negatives,
    sample_train_negatives,
)
from fedgraphrec.model import (
    ClientState,
    ClientStore,
    ModelConfig,
    TrainReport,
    init_client,
    train_clients,
    train_local,
)
from fedgraphrec.graph import (
    ServerState,
    UserGraph,
    build_user_graph,
    global_embedding,
    normalize,
    propagate,
    server_update,
)
from fedgraphrec.evaluation import (
    RoundMetrics,
    TierMetrics,
    evaluate_round,
    evaluate_user,
)
from fedgraphrec.federation import (
    FederationConfig,
    RoundRecord,
    add_ldp_noise,
    distribute,
    run_federation,
)

__version__ = "0.1.0"
