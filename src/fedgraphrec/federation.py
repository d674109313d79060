"""Round loop: server aggregation first, then local training, LDP noise, upload."""

from __future__ import annotations

import logging
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment, Tier
from fedgraphrec.evaluation import RoundMetrics
from fedgraphrec.graph import (
    ServerState,
    UserGraph,
    build_user_graph,
    normalize,
    personalize,
    server_update,
)
from fedgraphrec.model import ClientState, ModelConfig, TrainingError, init_client, train_local
from fedgraphrec.seeding import LDP_SALT, TRAIN_SALT, derive_rng

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"FGRSNAP1"


@dataclass
class FederationConfig:
    """Knobs for the federated round loop.

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
    model: ModelConfig = field(default_factory=ModelConfig)
    seed: int = 0
    checkpoint_every: int = 0
    checkpoint_path: str | None = None

    def validate(self) -> None:
        self.model.validate()
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gcn_layers < 1:
            raise ValueError(f"gcn_layers must be >= 1, got {self.gcn_layers}")
        if self.ldp_scale < 0.0:
            raise ValueError(f"ldp_scale must be >= 0, got {self.ldp_scale}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError("checkpoint_every is set but checkpoint_path is empty")


@dataclass(eq=False)
class RoundRecord:
    round_index: int
    mean_train_loss: float
    metrics: RoundMetrics | None
    wall_time: float


def add_ldp_noise(item_table: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Entrywise zero-mean Laplace noise with the given scale; 0 means no-op."""
    if scale < 0.0:
        raise ValueError(f"noise scale must be >= 0, got {scale}")
    if scale == 0.0:
        return item_table
    return item_table + rng.laplace(0.0, scale, size=item_table.shape)


def distribute(
    server: ServerState,
    tiers: PrivacyAssignment,
    alpha: float,
    *,
    disable_iei: bool = False,
    disable_upie: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Item tables to install on clients this round, or None when distribution
    is ablated.

    Without personalization every user gets the global table (returned as a
    zero-copy broadcast view). Otherwise sharing users get their blended
    table and everyone else the global one.
    """
    if disable_iei:
        return None
    if disable_upie:
        n = tiers.is_public.size
        return np.broadcast_to(server.global_table, (n,) + server.global_table.shape)
    return personalize(server.propagated, server.global_table, alpha, tiers, out=out)


def run_federation(
    dataset: InteractionDataset,
    tiers: PrivacyAssignment,
    config: FederationConfig,
    eval_hook=None,
) -> list[RoundRecord]:
    """Execute the full round loop and return one record per round.

    Per round: the server smooths and blends the current uploads (round 1
    consumes the clients' freshly initialized tables), clients install what
    they received, train locally, add upload noise when configured, and
    upload. `eval_hook(round_index, clients)` may return RoundMetrics (or
    None) for the round's record.
    """
    config.validate()
    n = dataset.num_users
    if tiers.is_public.size != n:
        raise ValueError(f"dataset has {n} users but tiers cover {tiers.is_public.size}")
    m = dataset.num_items
    d = config.model.embed_dim

    clients = [
        init_client(config.model, m, tiers.tier(u), seed=(config.seed, u))
        for u in range(n)
    ]

    # With distribution ablated the server consumes nothing, so skip the
    # graph, the uploads buffer, and the aggregation work entirely.
    serving = not config.disable_iei
    smoothing = serving and not config.disable_ugc

    graph: UserGraph | None = None
    uploads = None
    smooth_buffer = None
    if serving:
        uploads = np.empty((n, m, d), dtype=np.float64)
        for u, client in enumerate(clients):
            np.copyto(uploads[u], client.item_table)
    if smoothing:
        graph = normalize(build_user_graph(dataset, tiers))
        smooth_buffer = np.empty_like(uploads)

    records: list[RoundRecord] = []
    for round_index in range(1, config.rounds + 1):
        start = time.perf_counter()

        if serving:
            server = server_update(
                graph,
                uploads,
                tiers,
                layers=config.gcn_layers,
                use_graph=smoothing,
                global_from_public_only=config.global_from_public_only,
                out=smooth_buffer,
            )
            tables = distribute(
                server,
                tiers,
                config.alpha,
                disable_upie=config.disable_upie,
                out=server.propagated,
            )
            for u, client in enumerate(clients):
                np.copyto(client.item_table, tables[u])

        loss_sum = 0.0
        for u, client in enumerate(clients):
            client.rng = derive_rng(config.seed, u, round_index, TRAIN_SALT)
            try:
                report = train_local(client, dataset, u, config.model)
            except (TrainingError, ValueError) as exc:
                raise TrainingError(f"round {round_index}: {exc}") from exc
            loss_sum += report.mean_loss

        if serving:
            for u, client in enumerate(clients):
                upload = client.item_table
                if config.ldp_scale > 0.0:
                    upload = add_ldp_noise(
                        upload,
                        config.ldp_scale,
                        derive_rng(config.seed, u, round_index, LDP_SALT),
                    )
                np.copyto(uploads[u], upload)

        metrics = eval_hook(round_index, clients) if eval_hook is not None else None
        records.append(
            RoundRecord(
                round_index=round_index,
                mean_train_loss=loss_sum / n,
                metrics=metrics,
                wall_time=time.perf_counter() - start,
            )
        )

        if config.checkpoint_every and round_index % config.checkpoint_every == 0:
            global_table = server.global_table if serving else np.zeros((m, d))
            save_checkpoint(
                config.checkpoint_path,
                round_index,
                clients,
                uploads if serving else None,
                global_table,
            )
            log.info("checkpoint written at round %d", round_index)
    return records


def save_checkpoint(path, round_index, clients, uploads, global_table) -> None:
    """Binary snapshot: versioned header, global table, then one
    length-prefixed parameter block per user.

    Each user block holds the tier flag, whether an upload is present, the
    user vector, the item table, every MLP weight and bias, and the user's
    current upload. All floats are little-endian float64.
    """
    first = clients[0]
    n = len(clients)
    m, d = first.item_table.shape
    widths = [w.shape[0] for w in first.weights] + [first.weights[-1].shape[1]]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIII", round_index, n, m, d, len(widths)))
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        fh.write(np.ascontiguousarray(global_table, dtype="<f8").tobytes())
        for u, client in enumerate(clients):
            parts = [
                struct.pack("<BB", 1 if client.tier == Tier.PUBLIC else 0, 1 if uploads is not None else 0),
                np.ascontiguousarray(client.user_vec, dtype="<f8").tobytes(),
                np.ascontiguousarray(client.item_table, dtype="<f8").tobytes(),
            ]
            for W, b in zip(client.weights, client.biases):
                parts.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
                parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
            if uploads is not None:
                parts.append(np.ascontiguousarray(uploads[u], dtype="<f8").tobytes())
            block = b"".join(parts)
            fh.write(struct.pack("<Q", len(block)))
            fh.write(block)


def load_checkpoint(path):
    """Inverse of save_checkpoint.

    Returns (round_index, clients, uploads, global_table); uploads is None
    when the snapshot was taken without a serving phase. Restored clients
    carry no RNG; the round loop reseeds per (seed, user, round).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        round_index, n, m, d, n_widths = struct.unpack("<IIIII", fh.read(20))
        widths = list(struct.unpack(f"<{n_widths}I", fh.read(4 * n_widths)))
        global_table = np.frombuffer(fh.read(8 * m * d), dtype="<f8").reshape(m, d).copy()
        clients = []
        uploads = None
        for u in range(n):
            (block_len,) = struct.unpack("<Q", fh.read(8))
            block = fh.read(block_len)
            if len(block) != block_len:
                raise ValueError(f"{path}: truncated block for user {u}")
            tier_flag, has_upload = struct.unpack_from("<BB", block, 0)
            offset = 2

            def read_array(shape):
                nonlocal offset
                size = int(np.prod(shape))
                arr = np.frombuffer(block, dtype="<f8", count=size, offset=offset)
                offset += 8 * size
                return arr.reshape(shape).copy()

            user_vec = read_array((d,))
            item_table = read_array((m, d))
            weights = []
            biases = []
            for fan_in, fan_out in zip(widths[:-1], widths[1:]):
                weights.append(read_array((fan_in, fan_out)))
                biases.append(read_array((fan_out,)))
            if has_upload:
                if uploads is None:
                    uploads = np.empty((n, m, d), dtype=np.float64)
                uploads[u] = read_array((m, d))
            clients.append(
                ClientState(
                    user_vec=user_vec,
                    item_table=item_table,
                    weights=weights,
                    biases=biases,
                    tier=Tier.PUBLIC if tier_flag else Tier.PRIVATE,
                    rng=None,
                )
            )
    return round_index, clients, uploads, global_table
