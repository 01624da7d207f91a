//! `reroot-sparse`: one closed-loop client drives the maintainer directly on
//! a sparse graph. Core-heavy; the serving and WAL layers are bypassed.
//!
//! A run is a sequence of passes. Each pass generates its own input from
//! the run seed and the pass index, builds the maintainer (`setup_s`),
//! commits its updates in small fixed batches through
//! `apply_batch` (each commit followed by a few reads against the
//! maintainer's forest queries) and checks the final tree. A commit of ten
//! updates puts the commit median on reroot work: about 70% of single
//! updates relink nothing, so a one-update median falls in that no-op mode,
//! and the median of a two- to four-update commit falls in the sparse gap
//! between the no-op and the rerooting commits. Passes repeat until the run
//! has lasted `--seconds` and holds enough commits for a p95.
//!
//! An untraced run executes each pass several times, a fixed share of the
//! run apart, and reports for every construction, commit and read the
//! least time of its executions: the host's interference only ever adds
//! time, and its episodes last up to tens of seconds. In a traced
//! run every pass is applied twice, untraced and traced, so the two
//! executions of one input must agree on every count (nondeterminism
//! otherwise) and their time difference is the tracing overhead.

use crate::common::{self, CoreCensus, CountSignature, Input, Probes, ReadBatch};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{host, RunConfig};
use pardfs::graph::updates::UpdateMix;
use pardfs::{Backend, DfsMaintainer, MaintainerBuilder};
use std::time::{Duration, Instant};

/// Size and shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Vertices of the generated graph.
    pub n: usize,
    /// Edges of the generated graph.
    pub m: usize,
    /// Updates applied per pass.
    pub updates_per_pass: usize,
    /// Updates per `apply_batch` commit.
    pub updates_per_commit: usize,
    /// Fewest commits an untraced run makes (so p95 has ten samples beyond
    /// it).
    pub min_commits: usize,
    /// Passes whose counts a traced run reports (and the fewest it makes).
    pub counted_passes: usize,
    /// Reads issued after every commit.
    pub reads_per_commit: usize,
    /// Queries per read.
    pub queries_per_read: usize,
    /// Executions of every pass in an untraced run; each timing reported
    /// is the least of its executions'.
    pub replays: usize,
}

impl Params {
    /// The benchmark's size: n = 2048, m = 4n, default update mix.
    pub fn full() -> Self {
        Params {
            n: 2048,
            m: 4 * 2048,
            updates_per_pass: 20,
            updates_per_commit: 10,
            min_commits: 200,
            counted_passes: 50,
            reads_per_commit: 40,
            queries_per_read: 256,
            replays: 5,
        }
    }

    /// A seconds-long version for smoke tests.
    pub fn tiny() -> Self {
        Params {
            n: 96,
            m: 4 * 96,
            updates_per_pass: 500,
            updates_per_commit: 10,
            min_commits: 200,
            counted_passes: 2,
            reads_per_commit: 5,
            queries_per_read: 16,
            replays: 2,
        }
    }
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    peak_rss_mb: f64,
    commit_ms: Vec<f64>,
    read_us: Vec<f64>,
    census: CoreCensus,
    signature: CountSignature,
    written_bytes: u64,
    probes: Option<Probes>,
    record_encode_us: f64,
    spans: Vec<Span>,
}

fn run_pass(
    index: u64,
    input: &Input,
    params: &Params,
    reads: &ReadBatch,
    tracer: Tracer,
    outcome: &mut Outcome,
) -> Pass {
    let builder = MaintainerBuilder::new(Backend::Parallel);
    host::reset_peak_rss();
    let start = Instant::now();
    let mut dfs: Box<dyn DfsMaintainer> = {
        let _span = tracer.span("core.build", index);
        builder.build(&input.graph)
    };
    let setup_s = start.elapsed().as_secs_f64();

    let mut census = CoreCensus::default();
    let commits = input.updates.chunks(params.updates_per_commit);
    let mut commit_ms = Vec::with_capacity(commits.len());
    let mut read_us = Vec::with_capacity(commits.len() * params.reads_per_commit);
    let written_before = host::written_bytes().unwrap_or(0);
    for (c, batch) in commits.enumerate() {
        let request = index << 32 | c as u64;
        let start = Instant::now();
        let report = {
            let _span = tracer.span("core.apply_batch", request);
            dfs.apply_batch(batch)
        };
        commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for update in &report.per_update {
            census.absorb(update);
        }
        for _ in 0..params.reads_per_commit {
            let start = Instant::now();
            {
                let _span = tracer.span("tree.read", request);
                reads.answer(dfs.as_ref());
            }
            read_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let written_bytes = host::written_bytes().unwrap_or(0) - written_before;
    outcome.attempted_ok((input.updates.len() + read_us.len()) as u64);

    let checked = {
        let _span = tracer.span("core.check", index);
        dfs.check()
    };
    outcome.check(checked.is_ok(), || {
        format!("pass {index}: maintained tree is not a DFS forest: {checked:?}")
    });
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let signature = census.signature(dfs.as_ref());
    let probes = tracer
        .enabled()
        .then(|| common::probe_layers(dfs.as_ref(), &tracer, index, outcome));
    let last = input
        .updates
        .len()
        .saturating_sub(params.updates_per_commit);
    let record_encode_us =
        common::record_encode_us(index + 1, &input.updates[last..], signature.fingerprint);
    Pass {
        setup_s,
        peak_rss_mb,
        commit_ms,
        read_us,
        census,
        signature,
        written_bytes,
        probes,
        record_encode_us,
        spans: tracer.take(),
    }
}

/// Run the workload for `cfg`, appending results to `outcome`.
pub fn run(cfg: &RunConfig, params: &Params, outcome: &mut Outcome) -> Result<(), String> {
    let pool = common::pool()?;
    let reads = ReadBatch::new(
        common::sub_seed(cfg.seed, u64::MAX),
        params.n,
        params.queries_per_read,
    );
    let mix = UpdateMix::default();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut index = 0u64;
    loop {
        // A traced run reports no percentiles, only its counted passes' counts.
        let enough = if cfg.trace {
            untraced.len() >= params.counted_passes
        } else {
            untraced.iter().map(|p| p.commit_ms.len()).sum::<usize>() >= params.min_commits
        };
        if index > 0 && started.elapsed() >= budget && enough {
            break;
        }
        let input = |i: u64| {
            let seed = common::sub_seed(cfg.seed, i);
            common::generate(seed, params.n, params.m, params.updates_per_pass, &mix)
        };
        let run = |i: u64, input: &Input, traced: bool, outcome: &mut Outcome| {
            pool.install(|| run_pass(i, input, params, &reads, Tracer::new(traced), outcome))
        };
        if cfg.trace {
            let input = input(index)?;
            let (plain, with_spans) = common::run_twice(index, |traced| {
                Ok::<_, String>(run(index, &input, traced, outcome))
            })?;
            outcome.check(plain.signature == with_spans.signature, || {
                format!(
                    "nondeterminism: pass {index} counted {:?} untraced but {:?} traced",
                    plain.signature, with_spans.signature
                )
            });
            traced.push(with_spans);
            untraced.push(plain);
            index += 1;
            continue;
        }
        // A block: passes executed once each for the block's share of the
        // budget left, then executed again, all of them, `replays - 1` more
        // times. The first block takes the whole budget, so the executions
        // of one pass lie a `replays`-th of the run apart; later blocks only
        // top up the commits the tail percentile needs.
        let replays = params.replays as u32;
        let span = budget.saturating_sub(started.elapsed()) / replays;
        let block_start = Instant::now();
        let mut block: Vec<(u64, Input, Vec<Pass>)> = Vec::new();
        while block.is_empty() || block_start.elapsed() < span {
            let i = index + block.len() as u64;
            let input = input(i)?;
            let first = run(i, &input, false, outcome);
            block.push((i, input, vec![first]));
        }
        for _ in 1..replays {
            for (i, input, runs) in &mut block {
                runs.push(run(*i, input, false, outcome));
            }
        }
        index += block.len() as u64;
        for (i, _, runs) in block {
            let fastest = fastest_of(i, runs, outcome);
            untraced.push(fastest);
        }
    }

    outcome.stamp.extend([
        ("n", params.n.to_string()),
        ("m", params.m.to_string()),
        ("update_mix", "default (edges and vertices)".to_string()),
        ("updates_per_pass", params.updates_per_pass.to_string()),
        ("passes", untraced.len().to_string()),
        (
            "updates_per_commit",
            format!("{} (apply_batch, no server)", params.updates_per_commit),
        ),
        ("counted_passes", params.counted_passes.to_string()),
        (
            "maintainer_pool",
            format!(
                "{} (explicit pool; the client runs on its worker)",
                common::POOL_THREADS
            ),
        ),
        (
            "setup_pool",
            format!("{} (the same pool)", common::POOL_THREADS),
        ),
        (
            "reader_threads",
            "0 (reads run on the client thread)".to_string(),
        ),
        ("checkpoint_policy", "none (wal bypassed)".to_string()),
        ("sync_policy", "none (wal bypassed)".to_string()),
        ("wal_fs", "none (wal bypassed)".to_string()),
        ("commit_ms_tail", "p95".to_string()),
    ]);
    if cfg.trace {
        report_traced(outcome, params, &untraced, &traced);
    } else {
        report_end_to_end(outcome, &untraced);
    }
    Ok(())
}

/// Merge `runs`, executions of one input, into one pass whose every timing
/// (construction, each commit, each read) is the least of its executions'.
/// Host interference only ever adds time, and comes in episodes of up to a
/// few seconds, so the executions of a pass are a block apart. The
/// executions must agree on every count.
fn fastest_of(index: u64, runs: Vec<Pass>, outcome: &mut Outcome) -> Pass {
    let mut runs = runs.into_iter();
    let mut best = runs.next().expect("at least one execution per pass");
    for other in runs {
        outcome.check(other.signature == best.signature, || {
            format!(
                "nondeterminism: pass {index} counted {:?} in one execution but {:?} in another",
                best.signature, other.signature
            )
        });
        best.setup_s = best.setup_s.min(other.setup_s);
        for (a, b) in best.commit_ms.iter_mut().zip(&other.commit_ms) {
            *a = a.min(*b);
        }
        for (a, b) in best.read_us.iter_mut().zip(&other.read_us) {
            *a = a.min(*b);
        }
    }
    best
}

fn report_end_to_end(outcome: &mut Outcome, passes: &[Pass]) {
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let commits = common::concat(passes, |p| &p.commit_ms);
    let reads = common::concat(passes, |p| &p.read_us);
    outcome.metric("setup_s", stats::median(&setup), "s", setup.len());
    let updates: u64 = passes.iter().map(|p| p.census.updates).sum();
    let commit_s: f64 = commits.iter().sum::<f64>() / 1e3;
    outcome.metric(
        "updates_per_s",
        updates as f64 / commit_s,
        "1/s",
        updates as usize,
    );
    let commit_hist = common::histogram(&commits);
    common::report_latency(
        outcome,
        &commit_hist,
        "commit_ms_p50",
        ("commit_ms_tail", COMMIT_TAIL),
        "ms",
    );
    let read_hist = common::histogram(&reads);
    common::report_latency(
        outcome,
        &read_hist,
        "read_us_p50",
        ("read_us_p95", stats::P95),
        "us",
    );
    // Reported, not gated: see `END_TO_END`.
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    outcome.notes.push(format!(
        "peak_rss_mb = {:.3} MB (median of {} passes)",
        stats::median(&peaks),
        peaks.len()
    ));
}

fn report_traced(outcome: &mut Outcome, params: &Params, untraced: &[Pass], traced: &[Pass]) {
    let counted_passes = &traced[..params.counted_passes];
    let counted = CountSignature::total(counted_passes.iter().map(|p| &p.signature));
    let updates: u64 = traced.iter().map(|p| p.census.updates).sum();
    let reroot_us: u64 = traced.iter().map(|p| p.census.reroot_us).sum();
    let index_d_us: u64 = traced.iter().map(|p| p.census.index_d_us).sum();
    let apply_ms: f64 = common::concat(traced, |p| &p.commit_ms).iter().sum();
    let plain_apply_ms: f64 = common::concat(untraced, |p| &p.commit_ms).iter().sum();
    let probes: Vec<Probes> = traced.iter().filter_map(|p| p.probes).collect();
    let censuses: Vec<&CoreCensus> = traced.iter().map(|p| &p.census).collect();
    common::report_core_layers(outcome, &counted, &censuses, &probes, apply_ms);

    let probed = probes.len();
    // No server, commit or reader: the serving layer is bypassed.
    outcome.metric("serve.apply_ms_p50", 0.0, "ms", 0);
    outcome.metric(
        "serve.capture_ms",
        common::probe_median(&probes, |p| p.capture_ms),
        "ms",
        probed,
    );
    outcome.metric("serve.commit_remainder_ms_p50", 0.0, "ms", 0);
    outcome.metric("serve.snapshot_acquire_us_p99", 0.0, "us", 0);
    outcome.metric("serve.reader_epoch_lag", 0.0, "count", 0);
    // The WAL is bypassed; bytes written are still measured (expected 0).
    let written: u64 = counted_passes.iter().map(|p| p.written_bytes).sum();
    let per_update = written as f64 / counted.updates as f64;
    outcome.metric("wal.bytes_per_update", per_update, "B", 0);
    outcome.metric("wal.checkpoints", 0.0, "count", 0);
    let encode_ms = common::probe_median(&probes, |p| p.checkpoint_encode_ms);
    outcome.metric("wal.checkpoint_encode_ms", encode_ms, "ms", probed);
    let record_us: Vec<f64> = traced.iter().map(|p| p.record_encode_us).collect();
    outcome.metric(
        "wal.record_encode_us",
        stats::median(&record_us),
        "us",
        traced.len(),
    );
    outcome.metric("wal.recover_ms", 0.0, "ms", 0);
    let peaks: Vec<f64> = traced.iter().map(|p| p.peak_rss_mb).collect();
    outcome.metric("proc.peak_rss_mb", stats::median(&peaks), "MB", peaks.len());
    let overhead_pct = (apply_ms / plain_apply_ms - 1.0) * 100.0;
    outcome.metric("trace.overhead_pct", overhead_pct, "%", updates as usize);

    // Layer sum: reduction+reroot plus index+D maintenance, as the
    // maintainer reports them, must account for the apply_batch time the
    // client measured.
    let parts_ms = (reroot_us + index_d_us) as f64 / 1e3;
    let ratio = parts_ms / apply_ms;
    outcome.metric("trace.layer_sum_ratio", ratio, "ratio", updates as usize);
    let gap_us_per_update = (apply_ms - parts_ms) * 1e3 / updates as f64;
    outcome.notes.push(format!(
        "layer sum: reroot {:.1} ms + index/D {:.1} ms = {parts_ms:.1} ms of {apply_ms:.1} ms apply_batch ({:.2}%, {gap_us_per_update:.1} us/update unattributed; tolerance: parts <= {:.0}% of whole, unattributed <= {:.0}% + {LAYER_SUM_ABS_US} us/update)",
        reroot_us as f64 / 1e3,
        index_d_us as f64 / 1e3,
        ratio * 100.0,
        (1.0 + LAYER_SUM_SLACK) * 100.0,
        LAYER_SUM_TOLERANCE * 100.0,
    ));
    let allowed_gap_ms = LAYER_SUM_TOLERANCE * apply_ms + LAYER_SUM_ABS_US * updates as f64 / 1e3;
    let within = ratio <= 1.0 + LAYER_SUM_SLACK && apply_ms - parts_ms <= allowed_gap_ms;
    outcome.check(within, || {
        format!(
            "layer sum: reroot + index/D is {:.2}% of apply_batch time ({gap_us_per_update:.1} us/update unattributed)",
            ratio * 100.0
        )
    });
    let mut spans = Vec::new();
    for pass in traced {
        trace::append(&mut spans, &pass.spans);
    }
    common::keep_spans(outcome, "client", spans);
}

/// The percentile `commit_ms_tail` reports here: the highest with ten
/// samples beyond it at the run's guaranteed 200 commits.
pub const COMMIT_TAIL: u32 = stats::P95;

/// Parts may fall short of the whole by this share plus
/// [`LAYER_SUM_ABS_US`] per update: work outside the maintainer's own
/// timers (update translation, graph edit).
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;
/// Fixed per-update allowance of the layer sum, in µs.
pub const LAYER_SUM_ABS_US: f64 = 25.0;
/// Parts may exceed the whole by this share (timer granularity only).
pub const LAYER_SUM_SLACK: f64 = 0.01;
