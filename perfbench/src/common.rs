//! Pieces both workloads share: seeding, the read batch, the per-update
//! core census and the layer probes run on a final state.

use crate::report::Outcome;
use crate::stats::{self, LogHistogram};
use crate::trace::{self, Span, Tracer};
use pardfs::graph::generators::random_connected_gnm;
use pardfs::graph::updates::{random_update_sequence, UpdateMix};
use pardfs::query::StructureD;
use pardfs::scenario::WalRecord;
use pardfs::seq::static_dfs_index;
use pardfs::serve::Snapshot;
use pardfs::tree::TreeIndex;
use pardfs::wal::Checkpoint;
use pardfs::{DfsMaintainer, ForestQuery, Graph, StatsReport, Update, Vertex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Seed of the `index`-th input of a run (splitmix64 of seed and index), so
/// every pass or round of a run gets its own graph and the same seed always
/// gives the same inputs.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated input: a connected G(n, m) graph and a valid update
/// sequence over it.
pub struct Input {
    /// The initial graph.
    pub graph: Graph,
    /// Updates, valid in order.
    pub updates: Vec<Update>,
}

/// Generate an input from `seed`. Errors if the generator could not produce
/// `count` valid updates.
pub fn generate(
    seed: u64,
    n: usize,
    m: usize,
    count: usize,
    mix: &UpdateMix,
) -> Result<Input, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = random_connected_gnm(n, m, &mut rng);
    let updates = random_update_sequence(&graph, count, mix, &mut rng);
    if updates.len() != count {
        return Err(format!(
            "update generator produced {} of {count} updates",
            updates.len()
        ));
    }
    Ok(Input { graph, updates })
}

/// A fixed batch of forest queries: half `same_component`, half
/// `forest_parent`, over vertices of the initial graph.
pub struct ReadBatch {
    pairs: Vec<(Vertex, Vertex)>,
    parents: Vec<Vertex>,
}

impl ReadBatch {
    /// `queries` queries over vertex ids `0..n`, drawn from `seed`.
    pub fn new(seed: u64, n: usize, queries: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = n as Vertex;
        let pairs = (0..queries / 2)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let parents = (0..queries - queries / 2)
            .map(|_| rng.gen_range(0..n))
            .collect();
        ReadBatch { pairs, parents }
    }

    /// Answer every query; returns a digest of the answers so none of them
    /// can be optimised away.
    pub fn answer<Q: ForestQuery + ?Sized>(&self, q: &Q) -> u64 {
        let mut digest = 0u64;
        for &(u, v) in &self.pairs {
            digest = digest.rotate_left(1) ^ u64::from(q.same_component(u, v));
        }
        for &v in &self.parents {
            digest = digest.rotate_left(3) ^ q.forest_parent(v).map_or(u64::MAX, u64::from);
        }
        std::hint::black_box(digest)
    }
}

/// The core layer's census over a sequence of updates, from the public
/// per-update `stats()`.
#[derive(Debug, Clone, Default)]
pub struct CoreCensus {
    /// Updates absorbed.
    pub updates: u64,
    /// `D` queries issued by the reroots.
    pub queries: u64,
    /// Sequential query sets (reduction + reroot), the paper's depth measure.
    pub query_sets: u64,
    /// Reroot rounds.
    pub rounds: u64,
    /// Vertices whose parent was rewritten.
    pub relinked: u64,
    /// Updates answered while `D` was stale (the `FaultOracle` path).
    pub stale: u64,
    /// Σ `reroot_micros` (reduction + reroot, incl. the parent-array copy).
    pub reroot_us: u64,
    /// Σ `rebuild_micros` (index patch + `D` maintenance).
    pub index_d_us: u64,
    /// Maintainer-reported time (µs) of each update that relinked nothing.
    pub noop_us: Vec<f64>,
    updates_since_rebuild: u64,
}

/// The counts of a [`CoreCensus`] plus the index and `D` counters: the
/// quantities that must repeat exactly for one input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSignature {
    /// Updates.
    pub updates: u64,
    /// `D` queries.
    pub queries: u64,
    /// Query sets.
    pub query_sets: u64,
    /// Reroot rounds.
    pub rounds: u64,
    /// Relinked vertices.
    pub relinked: u64,
    /// Stale-`D` updates.
    pub stale: u64,
    /// Index patches spliced.
    pub patches: u64,
    /// Index rebuilds taken because a patch was refused.
    pub fallbacks: u64,
    /// Index vertices recomputed by patches.
    pub patched_vertices: u64,
    /// `D` rebuilds.
    pub d_rebuilds: u64,
    /// Final tree fingerprint.
    pub fingerprint: u64,
}

impl CoreCensus {
    /// Absorb the report of one update.
    pub fn absorb(&mut self, report: &StatsReport) {
        self.updates += 1;
        if self.updates_since_rebuild > 0 {
            self.stale += 1;
        }
        if let Some(rebuild) = report.rebuild_policy() {
            self.updates_since_rebuild = rebuild.updates_since_rebuild;
        }
        self.query_sets += report.total_query_sets();
        self.relinked += report.relinked_vertices();
        if let Some(engine) = report.engine() {
            self.queries += engine.reroot.queries;
            self.rounds += engine.reroot.rounds;
            self.reroot_us += engine.reroot_micros;
            self.index_d_us += engine.rebuild_micros;
            if report.relinked_vertices() == 0 {
                self.noop_us
                    .push((engine.reroot_micros + engine.rebuild_micros) as f64);
            }
        }
    }

    /// The exact counts, with the index/`D` counters read from the
    /// maintainer's cumulative stats.
    pub fn signature(&self, dfs: &dyn DfsMaintainer) -> CountSignature {
        let report = dfs.stats();
        let index = report.index_maintenance();
        CountSignature {
            updates: self.updates,
            queries: self.queries,
            query_sets: self.query_sets,
            rounds: self.rounds,
            relinked: self.relinked,
            stale: self.stale,
            patches: index.patches_applied,
            fallbacks: index.fallback_rebuilds,
            patched_vertices: index.vertices_touched,
            d_rebuilds: report.rebuild_policy().map_or(0, |r| r.rebuilds),
            fingerprint: dfs.tree().fingerprint(),
        }
    }
}

impl CountSignature {
    /// Field-wise sum of `signatures` (fingerprints folded together), the
    /// counts of several inputs taken as one population.
    pub fn total<'a>(signatures: impl IntoIterator<Item = &'a CountSignature>) -> CountSignature {
        let mut t = CountSignature::default();
        for s in signatures {
            t.updates += s.updates;
            t.queries += s.queries;
            t.query_sets += s.query_sets;
            t.rounds += s.rounds;
            t.relinked += s.relinked;
            t.stale += s.stale;
            t.patches += s.patches;
            t.fallbacks += s.fallbacks;
            t.patched_vertices += s.patched_vertices;
            t.d_rebuilds += s.d_rebuilds;
            t.fingerprint = t.fingerprint.rotate_left(7) ^ s.fingerprint;
        }
        t
    }

    /// Patches ÷ (patches + fallbacks); 0 when the index was never touched.
    pub fn patch_share(&self) -> f64 {
        let total = self.patches + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.patches as f64 / total as f64
        }
    }
}

/// Isolated cost of each layer's main operation on one final state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `static_dfs_index` from the pseudo root (the static baseline), ms.
    pub static_dfs_ms: f64,
    /// `StructureD::build` on the final graph and tree, ms.
    pub d_build_ms: f64,
    /// `TreeIndex::from_parent_slice` of the final parent array, ms.
    pub from_parent_ms: f64,
    /// `TreeIndex::fingerprint`, ms.
    pub fingerprint_ms: f64,
    /// `Snapshot::capture`, ms.
    pub capture_ms: f64,
    /// `Checkpoint::capture` + `render_binary`, ms.
    pub checkpoint_encode_ms: f64,
    /// `D` total rebuild time reported by the maintainer, ms.
    pub d_rebuild_ms: f64,
}

fn timed<T>(tracer: &Tracer, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(name, request);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Run every layer probe once on `dfs`'s current state and check that the
/// rebuilt index and the captures agree with the live tree. Called on a
/// worker of the run's pool, so the parallel probes use it.
pub fn probe_layers(
    dfs: &dyn DfsMaintainer,
    tracer: &Tracer,
    request: u64,
    outcome: &mut Outcome,
) -> Probes {
    let graph = dfs.augmented_graph();
    let tree = dfs.tree();
    let fp = tree.fingerprint();
    let (static_idx, static_dfs_ms) = timed(tracer, "seq.static_dfs", request, || {
        static_dfs_index(graph, tree.root())
    });
    drop(static_idx);
    let tree_copy = tree.clone();
    let (d, d_build_ms) = timed(tracer, "query.d_build", request, || {
        StructureD::build(graph, tree_copy)
    });
    drop(d);
    let (rebuilt, from_parent_ms) = timed(tracer, "tree.from_parent", request, || {
        TreeIndex::from_parent_slice(tree.parent_slice(), tree.root())
    });
    let (fp_again, fingerprint_ms) = timed(tracer, "tree.fingerprint", request, || {
        std::hint::black_box(tree).fingerprint()
    });
    let (snapshot, capture_ms) = timed(tracer, "serve.capture", request, || {
        Snapshot::capture(0, dfs)
    });
    let (bytes, checkpoint_encode_ms) = timed(tracer, "wal.checkpoint_encode", request, || {
        Checkpoint::capture(0, dfs).render_binary()
    });
    outcome.check(rebuilt.fingerprint() == fp && fp_again == fp, || {
        "index rebuilt from the parent array disagrees with the live tree".into()
    });
    outcome.check(snapshot.fingerprint() == fp, || {
        "captured snapshot disagrees with the live tree".into()
    });
    outcome.check(!bytes.is_empty(), || "empty checkpoint encoding".into());
    Probes {
        static_dfs_ms,
        d_build_ms,
        from_parent_ms,
        fingerprint_ms,
        capture_ms,
        checkpoint_encode_ms,
        d_rebuild_ms: dfs
            .stats()
            .rebuild_policy()
            .map_or(0.0, |r| r.total_rebuild_micros as f64 / 1e3),
    }
}

/// Time `WalRecord::render` for one batch, in µs.
pub fn record_encode_us(epoch: u64, updates: &[Update], fingerprint: u64) -> f64 {
    let record = WalRecord {
        epoch,
        updates: updates.to_vec(),
        fingerprint,
    };
    let start = Instant::now();
    std::hint::black_box(record.render());
    start.elapsed().as_secs_f64() * 1e6
}

/// Median of per-pass probe values selected by `f`.
pub fn probe_median(probes: &[Probes], f: impl Fn(&Probes) -> f64) -> f64 {
    if probes.is_empty() {
        return 0.0;
    }
    stats::median(&probes.iter().map(f).collect::<Vec<_>>())
}

/// Workers of the pool every workload runs in. On `serve-durable` the
/// writer's worker plus the reader thread use the 2 vCPUs the benchmark was
/// tuned on. `reroot-sparse` would use one worker per CPU, but with two the
/// vendored pool's `Latch::set` touches a job's latch after its owner may
/// have freed it (it stores the flag, then locks and notifies), and a run
/// on two workers hung with one worker gone and the other parked on a
/// futex.
pub const POOL_THREADS: usize = 1;

/// A worker pool of exactly [`POOL_THREADS`] threads (immune to
/// `PARDFS_THREADS`). Each pass or round runs inside it, on its worker, so
/// the maintainer's parallel sections run on this pool without a hand-off
/// from the client thread per call.
pub fn pool() -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_THREADS)
        .build()
        .map_err(|e| format!("building a {POOL_THREADS}-thread pool: {e}"))
}

/// Report a latency distribution: its median under `p50_name` and its
/// `tail`-th percentile under `tail_name`, failing the run if fewer than ten
/// samples lie beyond the tail. Also notes the highest percentile the
/// samples support.
pub fn report_latency(
    outcome: &mut Outcome,
    hist: &LogHistogram,
    p50_name: &'static str,
    (tail_name, tail): (&'static str, u32),
    unit: &'static str,
) {
    let n = hist.len();
    outcome.check(stats::supports(n, tail), || {
        format!(
            "{tail_name}: {n} samples leave fewer than ten beyond p{}",
            tail as f64 / 100.0
        )
    });
    if n == 0 {
        outcome.metric(p50_name, f64::NAN, unit, 0);
        outcome.metric(tail_name, f64::NAN, unit, 0);
        return;
    }
    outcome.metric(p50_name, hist.percentile(5000), unit, n);
    outcome.metric(tail_name, hist.percentile(tail), unit, n);
    if let Some(p) = stats::highest_supported(n) {
        outcome.notes.push(format!(
            "{p50_name}: {n} samples; {tail_name} is p{}; highest supported tail p{} = {:.6} {unit}",
            tail as f64 / 100.0,
            p as f64 / 100.0,
            hist.percentile(p)
        ));
    }
}

/// A histogram of `samples`.
pub fn histogram<'a>(samples: impl IntoIterator<Item = &'a f64>) -> LogHistogram {
    let mut h = LogHistogram::default();
    for &x in samples {
        h.record(x);
    }
    h
}

/// Report the per-layer metrics both workloads share (core, query, tree and
/// seq) from the traced passes or rounds. Counts come from `counted`, the
/// summed signature of a fixed number of the run's first inputs, so they
/// repeat exactly for one seed; `update_ms` is the total time of the
/// `censuses`' updates.
pub fn report_core_layers(
    outcome: &mut Outcome,
    counted: &CountSignature,
    censuses: &[&CoreCensus],
    probes: &[Probes],
    update_ms: f64,
) {
    let per_update = |x: u64| x as f64 / counted.updates as f64;
    let updates: u64 = censuses.iter().map(|c| c.updates).sum();
    let reroot_us: u64 = censuses.iter().map(|c| c.reroot_us).sum();
    let index_d_us: u64 = censuses.iter().map(|c| c.index_d_us).sum();
    let noop: Vec<f64> = censuses
        .iter()
        .flat_map(|c| c.noop_us.iter().copied())
        .collect();
    let static_ms = probe_median(probes, |p| p.static_dfs_ms);
    let n = updates as usize;
    let probed = probes.len();
    outcome.metric(
        "core.reroot_ms_per_update",
        reroot_us as f64 / 1e3 / updates as f64,
        "ms",
        n,
    );
    outcome.metric(
        "core.index_d_ms_per_update",
        index_d_us as f64 / 1e3 / updates as f64,
        "ms",
        n,
    );
    outcome.metric(
        "core.queries_per_update",
        per_update(counted.queries),
        "count",
        0,
    );
    outcome.metric(
        "core.query_sets_per_update",
        per_update(counted.query_sets),
        "count",
        0,
    );
    outcome.metric(
        "core.rounds_per_update",
        per_update(counted.rounds),
        "count",
        0,
    );
    outcome.metric(
        "core.relinked_per_update",
        per_update(counted.relinked),
        "count",
        0,
    );
    outcome.metric("core.stale_d_share", per_update(counted.stale), "ratio", 0);
    let noop_us = if noop.is_empty() {
        0.0
    } else {
        stats::median(&noop)
    };
    outcome.metric("core.noop_update_us", noop_us, "us", noop.len());
    outcome.metric("query.d_rebuilds", counted.d_rebuilds as f64, "count", 0);
    outcome.metric(
        "query.d_rebuild_ms",
        probe_median(probes, |p| p.d_rebuild_ms),
        "ms",
        probed,
    );
    outcome.metric(
        "query.d_build_ms",
        probe_median(probes, |p| p.d_build_ms),
        "ms",
        probed,
    );
    outcome.metric("tree.patch_share", counted.patch_share(), "ratio", 0);
    outcome.metric(
        "tree.patched_vertices_per_update",
        per_update(counted.patched_vertices),
        "count",
        0,
    );
    outcome.metric(
        "tree.from_parent_ms",
        probe_median(probes, |p| p.from_parent_ms),
        "ms",
        probed,
    );
    outcome.metric(
        "tree.fingerprint_ms",
        probe_median(probes, |p| p.fingerprint_ms),
        "ms",
        probed,
    );
    outcome.metric("seq.static_dfs_ms", static_ms, "ms", probed);
    outcome.metric(
        "seq.update_vs_static",
        update_ms / updates as f64 / static_ms,
        "ratio",
        n,
    );
}

/// Every sample `f` selects, pass after pass (or round after round).
pub fn concat<T>(items: &[T], f: impl Fn(&T) -> &[f64]) -> Vec<f64> {
    items.iter().flat_map(|x| f(x).iter().copied()).collect()
}

/// Execute one input twice, untraced and traced (`run(traced)`), and return
/// `(untraced, traced)`. Which execution goes first alternates with `index`,
/// so that warm-up does not bias the tracing overhead.
pub fn run_twice<T, E>(index: u64, mut run: impl FnMut(bool) -> Result<T, E>) -> Result<(T, T), E> {
    if index.is_multiple_of(2) {
        let plain = run(false)?;
        Ok((plain, run(true)?))
    } else {
        let traced = run(true)?;
        Ok((run(false)?, traced))
    }
}

/// Keep one thread's spans on the outcome, with a per-name summary line
/// (count, total and self time) for each span name.
pub fn keep_spans(outcome: &mut Outcome, thread: &'static str, spans: Vec<Span>) {
    outcome
        .notes
        .extend(trace::totals(&spans).into_iter().map(|(name, t)| {
            format!(
                "span {thread}/{name}: {} x, total {:.3} ms, self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        }));
    outcome.spans.push((thread, spans));
}
