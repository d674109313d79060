"""Round loop: server aggregation first, then local training and evaluation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment
from fedgraphrec.evaluation import RoundMetrics
from fedgraphrec.graph import (
    ServerState,
    UserGraph,
    build_user_graph,
    normalize,
    server_update,
)
from fedgraphrec.model import (
    ClientStore,
    ModelConfig,
    TrainingError,
    init_client,
    train_clients,
    train_local,  # noqa: F401  perfbench/traced.py wraps federation.train_local by name
)
from fedgraphrec.seeding import (
    INIT_SALT,
    LDP_SALT,
    PRIVATE_SUM_SALT,
    TRAIN_SALT,
    derive_rng,
    derive_rngs,
)


@dataclass
class FederationConfig(ModelConfig):
    """Every setting of a repetition's round loop, the client model's included;
    `ExperimentConfig.to_federation_config` fills it, and `validate` checks it.

    The three ablation switches each remove one server-side mechanism:
    disable_iei skips distribution entirely (clients keep their own tables),
    disable_ugc skips graph smoothing (uploads pass straight to averaging
    and blending), disable_upie sends every user the global table.
    """

    rounds: int = 100
    alpha: float = 0.3
    gcn_layers: int = 1
    ldp_scale: float = 0.0
    disable_iei: bool = False
    disable_ugc: bool = False
    disable_upie: bool = False
    # Variant: compute the global table from sharing users' smoothed tables
    # only, instead of everyone's. Off by default.
    global_from_public_only: bool = False
    seed: int = 0


@dataclass(eq=False)
class RoundRecord:
    round_index: int
    mean_train_loss: float
    metrics: RoundMetrics | None
    wall_time: float


def add_ldp_noise(item_table: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Return `item_table` plus entrywise Laplace(0, scale) noise; scale 0
    returns `item_table` itself.

    The noise is numpy's own Laplace transform of the generator's uniform
    stream, vectorised without branches: for U in (0, 1), the magnitude is
    scale * -log(a) with a = 2U below 0.5 and (2 - U) - U from 0.5 up, and
    its sign is that of U - 0.5 (+0.0 at U = 0.5). Like numpy, exact zeros
    are drawn again, though after the table's draws rather than in place
    (a 2**-53 event per entry). Otherwise the noise equals
    `rng.laplace(0.0, scale, size)` apart from the `log`: numpy's vectorised
    float64 `log` can differ from libm's by one ulp, so an entry may differ
    from `Generator.laplace` by ~3e-16 relative. It allocates two
    table-sized buffers: the draws and the result.
    """
    if not math.isfinite(scale) or scale < 0.0:
        raise ValueError(f"noise scale must be finite and >= 0, got {scale}")
    if scale == 0.0:
        return item_table
    draws = rng.random(item_table.shape)
    while not draws.all():
        zeros = np.flatnonzero(draws == 0.0)
        draws.flat[zeros] = rng.random(zeros.size)
    noise = np.subtract(2.0, draws)
    noise -= draws
    draws += draws
    np.minimum(draws, noise, out=noise)
    np.log(noise, out=noise)
    noise *= scale
    # 2U - 1 is exact from U = 0.25 up, so it carries the sign of U - 0.5.
    draws -= 1.0
    np.copysign(noise, draws, out=noise)
    noise += item_table
    return noise


def private_init_sum(
    num_private: int, num_items: int, config: ModelConfig, seed: int
) -> np.ndarray:
    """The sum of `num_private` fresh item tables, drawn as one (m, d) table:
    init_scale * sqrt(num_private) * N(0, I), the distribution of a sum of
    that many independent N(0, init_scale^2) tables."""
    total = derive_rng(seed, PRIVATE_SUM_SALT).standard_normal((num_items, config.embed_dim))
    total *= config.init_scale * math.sqrt(num_private)
    return total


def distribute(
    server: ServerState,
    tiers: PrivacyAssignment,
    alpha: float,
    *,
    disable_upie: bool = False,
) -> np.ndarray:
    """Blend `server.propagated` in place into the item tables to install this
    round, and return it.

    Sharing users get alpha * own + (1 - alpha) * global; everyone else, and
    every user without personalization, gets the global table. Row by row, so
    no (n, m, d) temporary exists: each row is read before it is written, and
    the global table is its own array.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    tables = server.propagated
    n = tables.shape[0]
    if tiers.is_public.size != n:
        raise ValueError(f"tables cover {n} users, tiers cover {tiers.is_public.size}")
    global_part = (1.0 - alpha) * server.global_table
    for u in range(n):
        if tiers.is_public[u] and not disable_upie:
            np.multiply(tables[u], alpha, out=tables[u])
            tables[u] += global_part
        else:
            np.copyto(tables[u], server.global_table)
    return tables


def run_federation(
    dataset: InteractionDataset,
    tiers: PrivacyAssignment,
    config: FederationConfig,
    eval_hook=None,
) -> list[RoundRecord]:
    """Execute the full round loop and return one record per round.

    Every client's parameters live in one ClientStore: item tables (n, m, d),
    user vectors and MLP weights, stacked on the client axis. Per round: the
    server adds the upload noise of the previous round's training (when
    configured), then smooths the item tables in place on the store and
    `distribute` blends them in place, so installing moves no data and no
    second (n, m, d) buffer exists. Round 1 serves the sharing clients'
    freshly initialized tables, unnoised. A non-sharing client's first table
    would be read only by round 1's global mean, so it is not drawn: the
    server draws the non-sharing users' sum as one table (`private_init_sum`),
    or none under `global_from_public_only`, and the client's row stays
    unwritten until round 1 installs the global table. Under `disable_iei`
    every client draws and keeps its own table. Clients then train locally,
    in cohorts, and `eval_hook(round_index, clients)` may return RoundMetrics
    (or None) for the round's record; `clients` is the store, and
    `clients[u]` is client u. The hook reads the clean tables. The final
    round's tables are never noised, because no server step reads them.
    """
    n = dataset.num_users
    if tiers.is_public.size != n:
        raise ValueError(f"dataset has {n} users but tiers cover {tiers.is_public.size}")
    m = dataset.num_items

    # With distribution ablated the server consumes nothing, so skip the
    # graph and the aggregation work entirely.
    serving = not config.disable_iei
    clients = ClientStore.empty(n, m, config)
    # Client u's stream is the one that seed (config.seed, u) names.
    for u, rng in enumerate(derive_rngs(config.seed, range(n), INIT_SALT)):
        init_client(config, m, None, seed=rng, out=clients[u],
                    draw_items=not serving or tiers.is_public[u])
    num_private = n - tiers.num_public
    private_sum = None
    if serving and num_private and not config.global_from_public_only:
        private_sum = private_init_sum(num_private, m, config, config.seed)

    graph: UserGraph | None = None
    if serving and not config.disable_ugc:
        graph = normalize(build_user_graph(dataset, tiers))

    records: list[RoundRecord] = []
    for round_index in range(1, config.rounds + 1):
        start = time.perf_counter()

        if serving:
            store = clients.item_tables
            if round_index > 1 and config.ldp_scale > 0.0:
                # Noise drawn per (seed, user, round that trained the table).
                rngs = derive_rngs(config.seed, range(n), round_index - 1, LDP_SALT)
                for u, rng in enumerate(rngs):
                    np.copyto(store[u], add_ldp_noise(store[u], config.ldp_scale, rng))
            server = server_update(
                graph,
                store,
                tiers,
                layers=config.gcn_layers,
                global_from_public_only=config.global_from_public_only,
                private_sum=private_sum,
                out=store,
            )
            private_sum = None  # round 1 only
            distribute(server, tiers, config.alpha, disable_upie=config.disable_upie)

        rngs = derive_rngs(config.seed, range(n), round_index, TRAIN_SALT)
        try:
            reports = train_clients(clients, dataset, config, rngs)
        except (TrainingError, ValueError) as exc:
            raise TrainingError(f"round {round_index}: {exc}") from exc
        loss_sum = 0.0
        for report in reports:
            loss_sum += report.mean_loss

        metrics = eval_hook(round_index, clients) if eval_hook is not None else None
        records.append(
            RoundRecord(
                round_index=round_index,
                mean_train_loss=loss_sum / n,
                metrics=metrics,
                wall_time=time.perf_counter() - start,
            )
        )
    return records
