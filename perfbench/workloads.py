"""The three workloads: sizes, set-up and timed phases.

A run sets up its inputs several times (the median is ``setup_s``), then
runs rounds until ``--seconds`` have passed, and never fewer than
``min_rounds``. Every round runs every phase: ingests, cold opens, slices
of the asks and of the tabular questions, batches of text evaluation items
and batches of SQL pairs. Round n does the same work in every run, so a
faster program finishes more rounds, never different ones.

The host-speed gauge (see ``hostspeed``) is read before every phase call;
the end-to-end metrics are taken over samples scaled to the reference
host speed by the readings around them.

The load is a closed loop with one caller: each call starts when the
previous one returns. Only ``evaluate_suite`` runs a thread pool, with
``jobs`` equal to ``os.cpu_count()``, the CLI's default; run.py keeps the
whole process on one core.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gtr import chunking, embedding, errors, llm, metrics, pipeline, sqleval, store, tables

from . import gen, hostspeed

SETUP_REPEATS = 3
# Gauge readings taken before and after each set-up; one more is taken
# before every phase call.
SETUP_GAUGE_READS = 5
# A sample is scaled by the median of the gauge readings nearest to it in
# time: three, so that one stray reading does not count, and no more, since
# the host's speed can flip within a second.
GAUGE_NEAREST = 3
# live: the questions asked after each batch come in this many slices, one
# slice per round.
LIVE_QUESTION_SLICES = 4
RATE_METRICS = ("ingest_tokens_per_s", "eval_text_items_per_s", "eval_sql_pairs_per_s")
# A p95 needs at least ten samples beyond it; min_rounds guarantees this many.
P95_SAMPLES = 220


@dataclass(frozen=True)
class Spec:
    name: str
    vocab: int
    n_docs: int
    doc_tokens: tuple[int, int]
    k: int
    n_questions: int
    ref_len: tuple[int, int]
    n_dbs: int
    db_sizes: tuple[int, int, int, int]
    cases_per_template: int  # cases per template and database
    # work per call of a phase (see plan)
    ingest_shards: int  # wide, deep: call n ingests shard n % ingest_shards
    ask_slice: int  # wide, deep: warm asks per call
    table_slice: int  # tabular questions per call
    # Batches hold whole cycles of the items' order (5 items per 4 questions,
    # 17 on live; one pair per SQL template, 4 on live), so that every call
    # does the same mix of work and the median over calls is steady.
    text_batch: int  # evaluation items per call
    sql_batch: int  # (gold, pred) pairs per call
    min_rounds: int
    # The phases one round calls, in order. Every phase is called several
    # times per round on a small batch, with the others in between, so that
    # each metric rests on many samples from every part of the run.
    plan: tuple
    chunk_size: int = chunking.DEFAULT_CHUNK_SIZE
    overlap: int = chunking.DEFAULT_OVERLAP
    table_k: int = tables.DEFAULT_TABLE_K
    # live only: each round appends every batch, with asks after each
    append_batches: int = 0
    append_docs: int = 0
    asks_per_batch: int = 0
    links_per_question: int = 0
    children_per_question: int = 0

    def samples_per_round(self) -> dict:
        asks = (self.append_batches * self.asks_per_batch
                or self.plan.count("ask") * self.ask_slice)
        return {"ask_ms": asks, "tables_ask_ms": self.plan.count("tables") * self.table_slice}


SPECS = {
    # MSMARCO-shaped passages and Spider-shaped databases.
    "wide": Spec(
        name="wide", vocab=20_000, n_docs=15_000, doc_tokens=(20, 60), k=3,
        n_questions=240, ref_len=(5, 15), n_dbs=40, db_sizes=(80, 40, 200, 130),
        cases_per_template=1, ingest_shards=40, ask_slice=40, table_slice=40,
        text_batch=100, sql_batch=48, min_rounds=8,
        plan=("open", "ask", "text", "tables", "sql", "ingest", "ask", "text", "tables", "sql",
              "ingest", "ask", "text", "tables", "sql"),
    ),
    # A few long documents and one warehouse database.
    "deep": Spec(
        name="deep", vocab=30_000, n_docs=6, doc_tokens=(50_000, 50_000), k=2,
        n_questions=240, ref_len=(110, 130), n_dbs=1,
        db_sizes=(150_000, 100_000, 50_000, 50), cases_per_template=5,
        ingest_shards=6, ask_slice=30, table_slice=10, text_batch=5, sql_batch=11,
        min_rounds=8,
        plan=("open", "ask", "text", "tables", "sql", "ingest", "open", "ask", "text", "tables",
              "sql", "ingest", "ask", "text", "tables", "sql"),
    ),
    # A medium knowledge base and database that grow while they are asked.
    "live": Spec(
        name="live", vocab=20_000, n_docs=1500, doc_tokens=(80, 160), k=4,
        n_questions=120, ref_len=(12, 30), n_dbs=1, db_sizes=(2000, 500, 8000, 3000),
        cases_per_template=5, ingest_shards=0, ask_slice=0, table_slice=20,
        text_batch=68, sql_batch=48, min_rounds=8,
        plan=("kb", "tables", "text", "sql", "tables", "text", "sql", "tables", "text", "sql"),
        append_batches=3, append_docs=25, asks_per_batch=10,
        links_per_question=10, children_per_question=4,
    ),
}


# The same workloads on inputs small enough to run in a second or two.
TINY = {
    "wide": replace(SPECS["wide"], vocab=2000, n_docs=150, n_questions=12, n_dbs=3,
                    db_sizes=(12, 8, 20, 12), ingest_shards=2, ask_slice=4, table_slice=4,
                    text_batch=8, sql_batch=12, min_rounds=2),
    "deep": replace(SPECS["deep"], vocab=2000, n_docs=2, doc_tokens=(900, 1100),
                    chunk_size=64, overlap=8, n_questions=12, db_sizes=(2000, 1000, 600, 10),
                    cases_per_template=1, ask_slice=4, table_slice=4, text_batch=8,
                    sql_batch=6, min_rounds=2),
    "live": replace(SPECS["live"], vocab=2000, n_docs=30, n_questions=6,
                    db_sizes=(20, 10, 40, 20), cases_per_template=1, table_slice=4,
                    text_batch=8, sql_batch=12, append_batches=2, append_docs=3,
                    asks_per_batch=4, min_rounds=2),
}

E2E_UNITS = {
    "setup_s": "s",
    "ingest_tokens_per_s": "tokens/s",
    "store_mb": "MB",
    "open_s": "s",
    "ask_ms_p50": "ms",
    "ask_ms_p95": "ms",
    "tables_ask_ms_p50": "ms",
    "tables_ask_ms_p95": "ms",
    "eval_text_items_per_s": "items/s",
    "eval_sql_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class World:
    """Generated inputs, the files written from them, and their truth."""

    root: Path
    docs: list[gen.Doc]
    gtr_docs: list
    questions: list[gen.Question]
    dbs: dict  # db_id -> gen.ArchetypeDb | gen.WarehouseDb
    table_stores: dict  # db_id -> path of its table store
    cases: list[gen.SqlCase]
    db_dir: Path
    # live only
    base_store: Path | None = None
    batches: list[list[gen.Doc]] = field(default_factory=list)
    batch_questions: list[list[gen.Question]] = field(default_factory=list)
    inserts: list[tuple[list, list]] = field(default_factory=list)


def _write_docs(path: Path, docs: list[gen.Doc]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            f.write(json.dumps({"id": doc.id, "text": doc.text}, ensure_ascii=False) + "\n")


def _doc_set(text: gen.TextMaker, prefix: str, n: int, lengths: tuple[int, int]) -> list[gen.Doc]:
    return [gen.Doc(f"{prefix}{i:05d}", text.passage(*lengths)) for i in range(n)]


def _cases(rng: random.Random, spec: Spec, dbs: list) -> list[gen.SqlCase]:
    """Every template on every database, round-robin over the templates so
    that any run of consecutive cases mixes them; variants cycle
    same/literal/struct, or all four at once (n-best) on the live workload."""
    cases = []
    kinds = ("same", "literal", "struct")
    for db in dbs:
        if isinstance(db, gen.WarehouseDb):
            templates, names = gen.WAREHOUSE_TEMPLATES, {}
        else:
            templates, names = gen.ARCHETYPE_TEMPLATES, gen.domain_names(db.domain)
        for _ in range(spec.cases_per_template):
            for template in templates:
                if spec.name == "live":
                    variants = ("same", "literal", "literal", "struct")
                else:
                    variants = (kinds[len(cases) % 3],)
                cases.append(gen.make_case(rng, template, db, names, len(cases), variants))
    return cases


def setup(spec: Spec, seed: int, root: Path, cfg: embedding.EmbedderConfig) -> World:
    """Generate the inputs from the seed and write documents, databases and
    table stores: what ``gtr ingest`` and ``gtr tables ingest`` need."""
    root.mkdir(parents=True)
    rng = random.Random(seed)
    text = gen.TextMaker(rng, spec.vocab)
    docs = _doc_set(text, "d", spec.n_docs, spec.doc_tokens)
    questions = gen.make_questions(
        rng, docs, spec.n_questions, spec.chunk_size, spec.overlap, spec.ref_len
    )
    docs_path = root / "docs.jsonl"
    _write_docs(docs_path, docs)
    gtr_docs = chunking.load_documents(docs_path)

    db_dir = root / "db"
    db_dir.mkdir()
    dbs = []
    if spec.name == "deep":
        dbs.append(gen.build_warehouse_db(rng, text, db_dir / "warehouse.sqlite", spec.db_sizes))
    elif spec.name == "live":
        dbs.append(gen.build_archetype_db(rng, text, "shop", db_dir / "shop.sqlite",
                                          gen.DOMAINS[5], spec.db_sizes))
    else:
        for i in range(spec.n_dbs):
            domain = gen.DOMAINS[i % len(gen.DOMAINS)]
            db_id = f"{domain.A}_{i:02d}"
            sizes = tuple(max(4, int(s * rng.uniform(0.5, 1.5))) for s in spec.db_sizes)
            dbs.append(gen.build_archetype_db(rng, text, db_id, db_dir / f"{db_id}.sqlite",
                                              domain, sizes))
    cases = _cases(rng, spec, dbs)

    table_stores = {}
    for db in dbs:
        profiles = tables.profile_tables(db.path)
        path = root / f"tables-{db.db_id}.jsonl"
        tables.index_tables(profiles, cfg, path)
        table_stores[db.db_id] = path

    world = World(root, docs, gtr_docs, questions, {db.db_id: db for db in dbs},
                  table_stores, cases, db_dir)
    if spec.name == "live":
        world.base_store = root / "base.jsonl"
        pipeline.ingest(gtr_docs, chunk_size=spec.chunk_size, overlap=spec.overlap,
                        embedder_config=cfg, store_path=world.base_store)
        for b in range(spec.append_batches):
            batch = _doc_set(text, f"a{b}-", spec.append_docs, spec.doc_tokens)
            world.batches.append(batch)
            # Half the asks after a batch are about it, so stale results show.
            # Round n asks slice n % LIVE_QUESTION_SLICES of them: the
            # evaluation items then come from many questions, not from the
            # few of one slice, whose lengths would differ from seed to seed.
            half = spec.asks_per_batch // 2
            rest = spec.asks_per_batch - half
            fresh = gen.make_questions(rng, batch, half * LIVE_QUESTION_SLICES, spec.chunk_size,
                                       spec.overlap, spec.ref_len)
            old = gen.make_questions(rng, docs, rest * LIVE_QUESTION_SLICES, spec.chunk_size,
                                     spec.overlap, spec.ref_len)
            world.batch_questions.append(
                [q for i in range(LIVE_QUESTION_SLICES)
                 for q in fresh[i * half:(i + 1) * half] + old[i * rest:(i + 1) * rest]])
        db = dbs[0]
        n_a, n_b = db.sizes[0], db.sizes[1]
        next_l, next_c = db.next_l, db.next_c
        for _ in cases:
            links = [gen.link_row(rng, next_l + j, n_a, n_b)
                     for j in range(spec.links_per_question)]
            children = [gen.child_row(rng, text, next_c + j, n_a)
                        for j in range(spec.children_per_question)]
            next_l += len(links)
            next_c += len(children)
            world.inserts.append((links, children))
    return world


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


@dataclass
class Outputs:
    """What the program returned, kept for the output checks."""

    store_file: Path | None = None
    asks: list = field(default_factory=list)  # (question, trace, records visible)
    tabular: list = field(default_factory=list)  # (case, result, expected or None)
    text_items: list = field(default_factory=list)  # ((item, question, chunk ids), result)
    sql_items: list = field(default_factory=list)  # (case, pred index, item)
    gold_errors: list[int] = field(default_factory=list)
    db_hashes_before: dict = field(default_factory=dict)
    db_hashes_after: dict = field(default_factory=dict)
    final_store: object = None


class Session:
    def __init__(self, spec: Spec, seed: int, seconds: float, workdir: Path, jobs: int,
                 fixed_rounds: bool = False):
        self.spec = spec
        self.fixed_rounds = fixed_rounds
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.jobs = jobs
        self.cfg = embedding.EmbedderConfig()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # raw samples, and the moment each was taken
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sample_times: dict[str, list[float]] = defaultdict(list)
        self.gauge = hostspeed.Gauge()
        self.gauge_times: list[float] = []
        self.out = Outputs()
        self.store_mb = 0.0
        self.peak_rss_mb = 0.0
        self.rounds = 0
        self.answered: set[str] = set()
        self.items: list = []  # evaluation items from the session's answers

    def op(self, fn, *args, **kwargs):
        """Call one program operation; return (result, seconds) or (None, None)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except errors.GtrError as e:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {e}")
            return None, None
        return result, time.perf_counter() - started

    def sample(self, name: str, value: float, seconds: float) -> None:
        """Record one sample of a call that has just taken ``seconds``."""
        self.samples[name].append(value)
        self.sample_times[name].append(time.perf_counter() - seconds / 2)

    def read_gauge(self, times: int = 1) -> None:
        for _ in range(times):
            self.gauge.read()
            self.gauge_times.append(time.perf_counter())

    def run(self) -> World:
        world = None
        for i in range(SETUP_REPEATS):
            if world is not None:
                shutil.rmtree(world.root)
                world = None
            gc.collect()
            self.read_gauge(SETUP_GAUGE_READS)
            started = time.perf_counter()
            world = setup(self.spec, self.seed, self.workdir / f"setup{i}", self.cfg)
            seconds = time.perf_counter() - started
            self.sample("setup_s", seconds, seconds)
            self.read_gauge(SETUP_GAUGE_READS)
        gc.collect()
        self.out.db_hashes_before = {k: _file_hash(db.path) for k, db in world.dbs.items()}
        if self.spec.name == "live":
            phases = {"kb": self._live_kb(world)}
        else:
            phases = {"ingest": self._ingest(world), "open": self._open(world),
                      "ask": self._ask(world)}
        phases.update(tables=self._tables(world), text=self._eval_text(),
                      sql=self._eval_sql(world))
        # Each phase's n-th call does the same work in every run. A traced
        # run does exactly min_rounds rounds, so its counts repeat.
        calls = dict.fromkeys(phases, 0)
        started = time.perf_counter()
        while self.rounds < self.spec.min_rounds or (
                not self.fixed_rounds and time.perf_counter() - started < self.seconds):
            for name in self.spec.plan:
                self.read_gauge()
                phases[name](calls[name])
                calls[name] += 1
            self.rounds += 1
        self.read_gauge()
        for phase in phases.values():
            getattr(phase, "close", lambda: None)()
        self.gauge.close()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.out.db_hashes_after = {k: _file_hash(db.path) for k, db in world.dbs.items()}
        return world

    def _answer(self, question: gen.Question, st):
        return self.op(pipeline.answer, pipeline.Query(question.text), st, k=self.spec.k,
                       embedder_config=self.cfg, llm_config=llm.LlmConfig())

    def _ingest(self, world: World):
        """Round n ingests shard n of the documents into a store of its own.
        One untimed full ingest first writes the store the other phases open."""
        spec = self.spec
        path = world.root / "store.jsonl"
        pipeline.ingest(world.gtr_docs, chunk_size=spec.chunk_size, overlap=spec.overlap,
                        embedder_config=self.cfg, store_path=path)
        self.store_mb = path.stat().st_size / 1e6
        self.out.store_file = path
        shard_path = world.root / "shard.jsonl"
        n_shards = min(spec.ingest_shards, len(world.docs))
        shards = [(world.gtr_docs[i::n_shards],
                   sum(len(d.tokens) for d in world.docs[i::n_shards]))
                  for i in range(n_shards)]

        def phase(n):
            docs, tokens = shards[n % n_shards]
            _, seconds = self.op(pipeline.ingest, docs, chunk_size=spec.chunk_size,
                                 overlap=spec.overlap, embedder_config=self.cfg,
                                 store_path=shard_path)
            if seconds:
                self.sample("ingest_tokens_per_s", tokens / seconds, seconds)

        return phase

    def _open(self, world: World):
        """A cold open: load the saved store, then the first answer."""
        def phase(n):
            self.out.final_store = None
            gc.collect()
            question = world.questions[n % len(world.questions)]
            started = time.perf_counter()
            st, _ = self.op(store.VectorStore.load, self.out.store_file)
            if st is None:
                return
            trace, _ = self._answer(question, st)
            if trace is not None:
                seconds = time.perf_counter() - started
                self.sample("open_s", seconds, seconds)
                self._record_ask(question, trace, st)
            self.out.final_store = st

        return phase

    def _record_ask(self, question, trace, st):
        """Keep the first answer to each question for the checks, and make
        evaluation items from it."""
        if question.text not in self.answered:
            self.answered.add(question.text)
            self.out.asks.append((question, trace, len(st)))
            self.items.extend(self._eval_items(question, trace, st))

    def _ask(self, world: World):
        """Warm asks on the store of the latest open, one slice per round."""
        pool = world.questions
        size = self.spec.ask_slice

        def phase(n):
            st = self.out.final_store
            for question in _cyclic(pool, n * size, size):
                trace, seconds = self._answer(question, st)
                if trace is not None:
                    self.sample("ask_ms", seconds * 1000.0, seconds)
                    self._record_ask(question, trace, st)

        return phase

    def _live_kb(self, world: World):
        """Round n: cold open of the base store, then batches that append
        documents (chunk, embed, insert, save) with asks between them."""
        spec = self.spec
        path = world.root / "live.jsonl"
        self.out.store_file = path
        gtr_batches = [[chunking.Document(d.id, d.text) for d in batch] for batch in world.batches]
        batch_tokens = [sum(len(d.tokens) for d in batch) for batch in world.batches]

        def phase(n):
            self.out.final_store = None
            gc.collect()
            question = world.questions[n % len(world.questions)]
            started = time.perf_counter()
            st, _ = self.op(store.VectorStore.load, world.base_store)
            if st is None:
                return
            trace, _ = self._answer(question, st)
            if trace is not None:
                seconds = time.perf_counter() - started
                self.sample("open_s", seconds, seconds)
                self._record_ask(question, trace, st)
            for b, batch in enumerate(gtr_batches):
                self.read_gauge()
                _, seconds = self.op(append_documents, st, batch, spec, self.cfg, path)
                if seconds:
                    self.sample("ingest_tokens_per_s", batch_tokens[b] / seconds, seconds)
                pool = world.batch_questions[b]
                for q in _cyclic(pool, n * spec.asks_per_batch, spec.asks_per_batch):
                    trace, seconds = self._answer(q, st)
                    if trace is not None:
                        self.sample("ask_ms", seconds * 1000.0, seconds)
                        self._record_ask(q, trace, st)
            self.store_mb = path.stat().st_size / 1e6
            self.out.final_store = st

        return phase

    def _tables(self, world: World):
        """One slice of the tabular questions per round. On live the questions
        run on a copy of the database: each pass over them starts from the
        database as set up, and the benchmark's own connection inserts rows
        before every question. Evaluation keeps the original."""
        mapping = {case.question: case.gold + ";" for case in world.cases}
        llm_config = llm.LlmConfig(backend="template_sql", sql_templates=mapping)
        stores = {db_id: store.VectorStore.load(p) for db_id, p in world.table_stores.items()}
        paths = {db_id: db.path for db_id, db in world.dbs.items()}
        cases = world.cases
        size = min(self.spec.table_slice, len(cases))
        live = self.spec.name == "live"
        state = {"writer": None, "done": set()}
        if live:
            (db,) = world.dbs.values()
            (world.root / "grown").mkdir()
            paths[db.db_id] = world.root / "grown" / db.path.name

        def phase(n):
            for offset in range(n * size, (n + 1) * size):
                i = offset % len(cases)
                case = cases[i]
                if live:
                    if i == 0:
                        close()
                        shutil.copyfile(db.path, paths[db.db_id])
                        state["writer"] = gen.connect_writer(paths[db.db_id])
                    insert_rows(state["writer"], db.domain, *world.inserts[i])
                answer, seconds = self.op(
                    tables.answer_tabular, pipeline.Query(case.question), paths[case.db_id],
                    stores[case.db_id], k=self.spec.table_k, embedder_config=self.cfg,
                    llm_config=llm_config)
                if answer is None:
                    continue
                self.sample("tables_ask_ms", seconds * 1000.0, seconds)
                if i not in state["done"]:
                    state["done"].add(i)
                    expected = None
                    if live:
                        expected = state["writer"].execute(case.gold).fetchall()
                    self.out.tabular.append((case, answer.result, expected))

        def close():
            if state["writer"] is not None:
                state["writer"].close()
                state["writer"] = None

        phase.close = close
        return phase

    def _eval_items(self, question, trace, st) -> list:
        """Evaluation items from one answer: the echo answer as candidate,
        or on live each retrieved chunk as its own candidate (n-best).
        Every fourth question also gets an item whose candidate is its
        reference."""
        ids = [rid for rid, _ in trace.retrieved]
        if self.spec.name == "live":
            cands = [([rid], st.get(rid).text) for rid in ids]
        else:
            cands = [(ids, trace.answer)]
        reference = gen.render(question.reference)
        if len(self.answered) % 4 == 1:
            cands.append((None, reference))
        return [
            (metrics.GtrEvalItem(question=question.text, reference=reference, candidate=text,
                                 truthful=question.truthful, response_time_ms=0.0),
             question, cand_ids)
            for cand_ids, text in cands
        ]

    def _eval_text(self):
        """metrics.aggregate over the next batch of the session's answers."""
        size = self.spec.text_batch
        done = set()

        def phase(n):
            items = self.items
            start = (n * size) % len(items)
            picked = [(start + j) % len(items) for j in range(min(size, len(items)))]
            batch = [items[j] for j in picked]
            report, seconds = self.op(metrics.aggregate, [it[0] for it in batch], self.cfg)
            if report is None:
                return
            self.sample("eval_text_items_per_s", len(batch) / seconds, seconds)
            for j, it, res in zip(picked, batch, report.items):
                if j not in done:
                    done.add(j)
                    self.out.text_items.append((it, res))

        return phase

    def _eval_sql(self, world: World):
        """sqleval.evaluate_suite over the next batch of (gold, pred) pairs."""
        pairs = []
        for case in world.cases:
            for p, (pred, _) in enumerate(case.preds):
                pairs.append(({"question": case.question, "gold": case.gold, "pred": pred,
                               "db_id": case.db_id}, case, p))
        size = min(self.spec.sql_batch, len(pairs))
        done = set()

        def phase(n):
            picked = [(n * size + j) % len(pairs) for j in range(size)]
            batch = [pairs[j] for j in picked]
            report, seconds = self.op(sqleval.evaluate_suite, [x[0] for x in batch],
                                      world.db_dir, jobs=self.jobs)
            if report is None:
                return
            self.sample("eval_sql_pairs_per_s", len(batch) / seconds, seconds)
            self.out.gold_errors.append(report.summary()["gold_errors"])
            for j, (_, case, p), item in zip(picked, batch, report.items):
                if j not in done:
                    done.add(j)
                    self.out.sql_items.append((case, p, item))

        return phase

    # -- results -------------------------------------------------------------

    def scaled_samples(self) -> dict[str, list[float]]:
        """Every sample scaled to the reference host speed by the gauge
        readings around it (see hostspeed)."""
        readings = np.asarray(self.gauge.readings)
        times = np.asarray(self.gauge_times)
        scaled = {}
        for name, values in self.samples.items():
            out = []
            for t, value in zip(self.sample_times[name], values):
                i = int(np.searchsorted(times, t))
                lo = max(0, i - GAUGE_NEAREST)
                window = times[lo:i + GAUGE_NEAREST]
                near = readings[lo:][np.argsort(np.abs(window - t))[:GAUGE_NEAREST]]
                factor = hostspeed.REFERENCE_S / float(np.median(near))
                out.append(value / factor if name in RATE_METRICS else value * factor)
            scaled[name] = out
        return scaled

    def end_to_end(self, scaled: bool = True) -> dict:
        s = self.scaled_samples() if scaled else self.samples

        def pct(values, q):
            return float(np.percentile(values, q)) if values else float("nan")

        return {
            "setup_s": pct(s["setup_s"], 50),
            "ingest_tokens_per_s": pct(s["ingest_tokens_per_s"], 50),
            "store_mb": self.store_mb,
            "open_s": pct(s["open_s"], 50),
            "ask_ms_p50": pct(s["ask_ms"], 50),
            "ask_ms_p95": pct(s["ask_ms"], 95),
            "tables_ask_ms_p50": pct(s["tables_ask_ms"], 50),
            "tables_ask_ms_p95": pct(s["tables_ask_ms"], 95),
            "eval_text_items_per_s": pct(s["eval_text_items_per_s"], 50),
            "eval_sql_pairs_per_s": pct(s["eval_sql_pairs_per_s"], 50),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def sample_counts(self) -> dict:
        counts = {name: len(values) for name, values in self.samples.items()}
        counts["rounds"] = self.rounds
        counts["gauge"] = len(self.gauge_times)
        return counts


def _cyclic(items: list, start: int, size: int) -> list:
    return [items[(start + j) % len(items)] for j in range(size)]


def append_documents(st, docs, spec: Spec, cfg, path: Path) -> None:
    """The append path: chunk, embed, insert into the open store, save."""
    chunks = [c for doc in docs for c in chunking.chunk_text(doc, spec.chunk_size, spec.overlap)]
    vectors = embedding.embed_batch([c.text for c in chunks], cfg)
    for chunk, vector in zip(chunks, vectors):
        st.insert(store.VectorRecord(
            id=pipeline.chunk_record_id(chunk.doc_id, chunk.index),
            vector=vector,
            kind="chunk",
            text=chunk.text,
            metadata={
                "doc_id": chunk.doc_id,
                "index": str(chunk.index),
                "token_start": str(chunk.token_start),
                "token_end": str(chunk.token_end),
            },
        ))
    st.save(path)


def insert_rows(conn, domain: gen.Domain, links: list, children: list) -> None:
    conn.executemany(f"INSERT INTO {domain.L} VALUES (?,?,?,?,?)", links)
    conn.executemany(f"INSERT INTO {domain.C} VALUES (?,?,?,?)", children)
    conn.commit()


def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
