"""One traced `fedgraphrec run`: per-layer times and counts, plus in-run checks.

Usage: python3 perfbench/traced.py TRACE.json [fedgraphrec run flags...]

Spans are recorded from outside the program, by replacing the module
attributes that `experiments`, `federation` and `graph` call through with
timing wrappers; nothing inside the package changes. While the run goes,
the wrappers copy what the checks need: the uploads and installed tables of
round 2 on sampled item columns, the final-round ranking inputs of sampled
users, and the LDP noise of sampled users. The checks run after the program
returns, and their time is reported apart so the parent can leave it out.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import sys
import time

START_WALL = time.time()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from fedgraphrec import cli, experiments, federation, graph  # noqa: E402

SAMPLED_COLUMNS = 8
SAMPLED_USERS = 6
CHECKED_ROUND = 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans in memory: [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.closed = None

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.closed = span

    def wrap(self, module, attr, name, after=None):
        """Replace module.attr with a timed call; `after(span_counters, result,
        *args, **kwargs)` runs outside the span."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, inner, *args, **kwargs)
            if after is not None:
                after(self.closed[4], result, *args, **kwargs)
            return result

        setattr(module, attr, traced)


class Capture:
    """What the checks need, copied while the run goes."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0xBE7C])
        # One per round: rep, index, end, evaluated; start and wall are added
        # from the round records when run_federation returns.
        self.rounds: list[dict] = []
        self.fed = None  # (dataset, tiers, config) of the first repetition
        self.rep = -1
        self.server_calls = 0
        self.noise_calls = 0
        self.columns = None
        self.users = None
        self.server_uploads = None
        self.server_tables = None
        self.noise: list[np.ndarray] = []
        self.zero_noise_ok = True
        self.ranking = None
        self.rss_setup_mb = None
        self.rss_round1_mb = None

    def start_rep(self, dataset, tiers, config):
        self.rep += 1
        self.server_calls = 0
        if self.fed is None:
            _require_plain(config)
            self.fed = (dataset, tiers, config)
            n, m = dataset.num_users, dataset.num_items
            self.columns = np.sort(self.rng.choice(m, size=min(SAMPLED_COLUMNS, m), replace=False))
            public, private = tiers.public_users(), tiers.private_users()
            picks = [self.rng.choice(group) for group in (public, private) if group.size]
            rest = np.setdiff1d(np.arange(n), picks)
            more = self.rng.choice(rest, size=min(SAMPLED_USERS - len(picks), rest.size), replace=False)
            self.users = sorted(int(u) for u in np.concatenate([picks, more]))


def _require_plain(config) -> None:
    """The server-step oracle covers the full model only."""
    flags = (config.disable_iei, config.disable_ugc, config.disable_upie, config.global_from_public_only)
    if any(flags):
        raise checks.CheckFailed("traced run supports the full model only (no ablation switches)")


def install(tracer: Tracer, cap: Capture) -> None:
    # experiments -> data, evaluation, federation
    tracer.wrap(experiments, "execute_run", "experiments.execute_run")
    tracer.wrap(experiments, "run_repetition", "experiments.run_repetition")
    tracer.wrap(experiments, "load_interactions", "data.load")
    tracer.wrap(experiments, "leave_one_out_split", "data.split")
    tracer.wrap(experiments, "assign_privacy", "data.assign_privacy")
    tracer.wrap(experiments, "sample_eval_negatives", "data.eval_negatives")

    def after_eval(counters, metrics, clients, dataset, negatives, tiers, k=10, target="test"):
        counters["candidates"] = sum(int(np.asarray(neg).size) + 1 for neg in negatives)
        if target != "test":
            return
        users = {}
        for u in cap.users:
            state = clients[u]
            cands = np.concatenate([np.asarray(negatives[u]), [dataset.test[u]]]).astype(np.int64)
            users[u] = {
                "user_vec": state.user_vec.copy(),
                "rows": {int(c): state.item_table[c].copy() for c in cands},
                "weights": [w.copy() for w in state.weights],
                "biases": [b.copy() for b in state.biases],
                "candidates": cands,
                "held": int(dataset.test[u]),
                "rank": int(metrics.per_user_rank[u]),
            }
        cap.ranking = users

    tracer.wrap(experiments, "evaluate_round", "evaluation.evaluate_round", after_eval)

    run_federation = experiments.run_federation

    def traced_run_federation(dataset, tiers, config, eval_hook=None):
        cap.start_rep(dataset, tiers, config)
        rep = cap.rep

        def hook(round_index, clients):
            metrics = eval_hook(round_index, clients) if eval_hook is not None else None
            cap.rounds.append({"rep": rep, "index": round_index, "end": time.perf_counter(),
                               "evaluated": metrics is not None})
            if cap.rss_round1_mb is None:
                cap.rss_round1_mb = peak_rss_mb()
            return metrics

        records = tracer.call("federation.run_federation", run_federation, dataset, tiers, config, hook)
        for entry, record in zip([r for r in cap.rounds if r["rep"] == rep], records):
            entry["wall"] = record.wall_time
            entry["start"] = entry["end"] - record.wall_time
        return records

    experiments.run_federation = traced_run_federation

    # federation -> model, graph
    tracer.wrap(federation, "init_client", "model.init_client")

    def after_train(counters, report, state, dataset, user, config):
        counters["steps"] = report.steps
        counters["examples"] = (1 + config.neg_ratio) * int(dataset.train[user].size) * config.local_epochs

    tracer.wrap(federation, "train_local", "model.train_local", after_train)
    tracer.wrap(federation, "build_user_graph", "graph.build_user_graph")
    tracer.wrap(federation, "normalize", "graph.normalize")

    server_update = federation.server_update

    def traced_server_update(user_graph, uploads, tiers, **kwargs):
        cap.server_calls += 1
        if cap.rss_setup_mb is None:
            cap.rss_setup_mb = peak_rss_mb()
        if cap.rep == 0 and cap.server_calls == CHECKED_ROUND:
            cap.server_uploads = uploads[:, cap.columns, :].copy()
        return tracer.call("graph.server_update", server_update, user_graph, uploads, tiers, **kwargs)

    federation.server_update = traced_server_update

    def after_distribute(counters, tables, *args, **kwargs):
        if cap.rep == 0 and cap.server_calls == CHECKED_ROUND and tables is not None:
            cap.server_tables = np.asarray(tables)[:, cap.columns, :].copy()

    tracer.wrap(federation, "distribute", "graph.distribute", after_distribute)

    def after_noise(counters, noisy, table, scale, rng):
        # The round loop adds noise to every user in index order.
        user = cap.noise_calls % cap.fed[0].num_users
        cap.noise_calls += 1
        if cap.rep != 0 or user not in cap.users:
            return
        if scale > 0.0:
            cap.noise.append(noisy - table)
        elif not np.array_equal(noisy, table):
            cap.zero_noise_ok = False

    tracer.wrap(federation, "add_ldp_noise", "federation.add_ldp_noise", after_noise)

    # graph -> its own helpers, called from server_update
    def after_propagate(counters, result, user_graph, tables, layers=1, out=None):
        # Work as computed: the dense operator when the graph caches one for
        # the dense path, else the sparse one's stored entries.
        dense = getattr(user_graph, "_dense_normalized", None)
        entries = dense.size if dense is not None else user_graph.normalized.nnz
        width = tables.size // tables.shape[0]
        counters["flop"] = 2.0 * entries * width * layers

    tracer.wrap(graph, "propagate", "graph.propagate", after_propagate)
    tracer.wrap(graph, "global_embedding", "graph.global_embedding")


def run_checks(cap: Capture) -> list[str]:
    """Run the in-run oracles; returns the names of those that ran."""
    dataset, tiers, config = cap.fed
    done = []
    if cap.server_uploads is None or cap.server_tables is None:
        raise checks.CheckFailed(f"round {CHECKED_ROUND} server step was not captured")
    checks.check_server_step(dataset.train, tiers.is_public, config.alpha, config.gcn_layers,
                             cap.server_uploads, cap.server_tables)
    done.append("server_step")
    if cap.ranking is None:
        raise checks.CheckFailed("no test-set evaluation was captured")
    for item in cap.ranking.values():
        checks.check_ranking(item["user_vec"], item["rows"], item["weights"], item["biases"],
                             item["candidates"], item["held"], item["rank"])
    done.append(f"ranking[{len(cap.ranking)} users]")
    if config.ldp_scale > 0.0:
        if not cap.noise:
            raise checks.CheckFailed("no LDP noise was captured")
        checks.check_laplace_noise(np.concatenate([x.ravel() for x in cap.noise]), config.ldp_scale)
        done.append(f"ldp_noise[{sum(x.size for x in cap.noise)} draws]")
    else:
        if not cap.zero_noise_ok:
            raise checks.CheckFailed("uploads changed with ldp_scale = 0")
        done.append("no_noise")
    return done


def layer_metrics(tracer: Tracer, cap: Capture) -> dict:
    """Per-layer figures from the spans, as {name: [value, unit]}.

    Per-round figures average over every round after the first, as round_s
    does; per-run figures are totals over the whole process.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    # Rounds run one after another, so each span belongs to at most one.
    rounds = sorted(cap.rounds, key=lambda r: r["start"])
    starts = [r["start"] for r in rounds]
    round_of = []
    for span in spans:
        k = bisect.bisect_right(starts, span[1]) - 1
        round_of.append(k if k >= 0 and span[1] <= rounds[k]["end"] else None)
    later = {k for k, r in enumerate(rounds) if r["index"] >= 2}
    evaluated = {k for k in later if rounds[k]["evaluated"]}
    n_later, n_eval = max(len(later), 1), max(len(evaluated), 1)

    def named(name, among=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (among is None or round_of[i] in among)]

    def total(name, among=None):
        return sum(dur(i) for i in named(name, among))

    def counter(name, key, among=None):
        return sum(spans[i][4].get(key, 0) for i in named(name, among))

    # A round's self time is its wall time less the calls the round loop made.
    round_self = sum(rounds[k]["wall"] for k in later)
    prelude_self = 0.0
    for fi in named("federation.run_federation"):
        begin, finish = spans[fi][1], spans[fi][2]
        first = min(r["start"] for r in rounds if begin <= r["start"] <= finish)
        prelude_self += first - begin
        for c in children.get(fi, []):
            if round_of[c] in later:
                round_self -= dur(c)
            elif spans[c][1] < first:
                prelude_self -= dur(c)
    train_s = total("model.train_local", later)
    reps = named("experiments.run_repetition")
    own = named("experiments.execute_run") + reps
    return {
        "data.load_s": [total("data.load"), "s/run"],
        "data.split_s": [total("data.split"), "s/run"],
        "data.eval_negatives_s": [total("data.eval_negatives"), "s/run"],
        "data.loads": [len(named("data.load")), "count/run"],
        "model.init_s": [total("model.init_client"), "s/run"],
        "model.train_s": [train_s / n_later, "s/round"],
        "model.sgd_steps": [counter("model.train_local", "steps", later) / n_later, "count/round"],
        "model.examples_per_s": [counter("model.train_local", "examples", later) / max(train_s, 1e-12), "1/s"],
        "graph.build_s": [total("graph.build_user_graph") + total("graph.normalize"), "s/run"],
        "graph.builds": [len(named("graph.build_user_graph")), "count/run"],
        "graph.propagate_s": [total("graph.propagate", later) / n_later, "s/round"],
        "graph.propagate_gflop": [counter("graph.propagate", "flop", later) / n_later / 1e9, "GFLOP/round"],
        "graph.server_s": [total("graph.server_update", later) / n_later, "s/round"],
        "graph.distribute_s": [total("graph.distribute", later) / n_later, "s/round"],
        "federation.ldp_s": [total("federation.add_ldp_noise", later) / n_later, "s/round"],
        "federation.round_self_s": [round_self / n_later, "s/round"],
        "federation.prelude_self_s": [prelude_self, "s/run"],
        "evaluation.eval_s": [total("evaluation.evaluate_round", evaluated) / n_eval, "s/eval_round"],
        "evaluation.calls": [len(named("evaluation.evaluate_round", evaluated)) / n_eval, "count/eval_round"],
        "evaluation.candidates": [counter("evaluation.evaluate_round", "candidates", evaluated) / n_eval,
                                  "count/eval_round"],
        "experiments.rep_s": [sum(dur(i) for i in reps) / max(len(reps), 1), "s"],
        "experiments.self_s": [sum(dur(i) - sum(dur(c) for c in children.get(i, [])) for i in own), "s"],
        "mem.rss_setup_mb": [cap.rss_setup_mb, "MB"],
        "mem.rss_round1_mb": [cap.rss_round1_mb, "MB"],
    }


def main(argv: list[str]) -> int:
    out_path, run_flags = argv[0], argv[1:]
    seed = int(run_flags[run_flags.index("--seed") + 1])
    tracer = Tracer()
    cap = Capture(seed)
    install(tracer, cap)
    main_start_wall = time.time()
    t0 = time.perf_counter()
    code = cli.main(["run", *run_flags])
    main_s = time.perf_counter() - t0
    result = {"exit_code": code, "main_s": main_s, "package": os.path.dirname(federation.__file__),
              "startup_s": main_start_wall - float(os.environ.get("PERFBENCH_LAUNCH_WALL", START_WALL))}
    if code == 0:
        t1 = time.perf_counter()
        try:
            result["checks"] = run_checks(cap)
            result["correct"] = True
        except checks.CheckFailed as exc:
            result["correct"] = False
            result["problem"] = str(exc)
        result["metrics"] = layer_metrics(tracer, cap)
        result["post_s"] = time.perf_counter() - t1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
