//! `perfbench` — the end-to-end and per-layer benchmark of `pardfs`.
//!
//! Two workloads drive the public API of the `pardfs` umbrella crate:
//! `reroot-sparse` (core-heavy, serving and WAL bypassed) and
//! `serve-durable` (serving- and WAL-heavy, core light). An untraced run
//! reports the [`END_TO_END`] metrics; a traced run records spans around the
//! benchmark's calls into each layer and reports the [`PER_LAYER`] metrics.
//! `perfbench/README.md` explains the choices.

pub mod common;
pub mod host;
pub mod report;
pub mod reroot_sparse;
pub mod serve_durable;
pub mod stats;
pub mod trace;

use report::Outcome;
use std::path::PathBuf;

/// End-to-end metrics (name, unit), reported by every untraced run. Peak
/// RSS is printed with them but not listed: on `reroot-sparse` its median
/// spread 7–26% across seeds, so it is gated nowhere and reported per layer
/// as `proc.peak_rss_mb`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("commit_ms_p50", "ms"),
    ("commit_ms_tail", "ms"),
    ("read_us_p50", "us"),
    ("read_us_p95", "us"),
];

/// Per-layer metrics (name, unit), reported by every traced run.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.reroot_ms_per_update", "ms"),
    ("core.index_d_ms_per_update", "ms"),
    ("core.queries_per_update", "count"),
    ("core.query_sets_per_update", "count"),
    ("core.rounds_per_update", "count"),
    ("core.relinked_per_update", "count"),
    ("core.stale_d_share", "ratio"),
    ("core.noop_update_us", "us"),
    ("query.d_rebuilds", "count"),
    ("query.d_rebuild_ms", "ms"),
    ("query.d_build_ms", "ms"),
    ("tree.patch_share", "ratio"),
    ("tree.patched_vertices_per_update", "count"),
    ("tree.from_parent_ms", "ms"),
    ("tree.fingerprint_ms", "ms"),
    ("seq.static_dfs_ms", "ms"),
    ("seq.update_vs_static", "ratio"),
    ("serve.apply_ms_p50", "ms"),
    ("serve.capture_ms", "ms"),
    ("serve.commit_remainder_ms_p50", "ms"),
    ("serve.snapshot_acquire_us_p99", "us"),
    ("serve.reader_epoch_lag", "count"),
    ("wal.bytes_per_update", "B"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_encode_ms", "ms"),
    ("wal.record_encode_us", "us"),
    ("wal.recover_ms", "ms"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// Count metrics that must repeat exactly for one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "core.queries_per_update",
    "core.relinked_per_update",
    "tree.patch_share",
    "query.d_rebuilds",
    "wal.bytes_per_update",
    "wal.checkpoints",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sparse graph, closed-loop `apply_batch` commits.
    RerootSparse,
    /// Dense graph behind a durable server, one writer and one reader.
    ServeDurable,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "reroot-sparse" => Some(Workload::RerootSparse),
            "serve-durable" => Some(Workload::ServeDurable),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RerootSparse => "reroot-sparse",
            Workload::ServeDurable => "serve-durable",
        }
    }
}

/// Input size: the benchmark's own (what the command line runs), or a tiny
/// one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Seconds-long inputs for tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory for WAL directories and the span dump.
    pub work_dir: PathBuf,
}

/// Run one workload. An `Err` is a failure to run at all (bad environment);
/// failed output checks are recorded in the returned [`Outcome`].
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    outcome.stamp.extend([
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        ("size", format!("{:?}", cfg.size)),
        ("nproc", host::nproc().to_string()),
        ("build_profile", host::build_profile().to_string()),
        (
            "pardfs_threads_env",
            std::env::var("PARDFS_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
    ]);
    // Without the reset, `peak_rss_mb` is the process's peak so far.
    let peak_reset = host::reset_peak_rss();
    outcome
        .stamp
        .push(("peak_rss_per_pass", peak_reset.to_string()));
    let steal_start = host::cpu_steal_ticks();
    match (cfg.workload, cfg.size) {
        (Workload::RerootSparse, Size::Full) => {
            reroot_sparse::run(cfg, &reroot_sparse::Params::full(), &mut outcome)?
        }
        (Workload::RerootSparse, Size::Tiny) => {
            reroot_sparse::run(cfg, &reroot_sparse::Params::tiny(), &mut outcome)?
        }
        (Workload::ServeDurable, Size::Full) => {
            serve_durable::run(cfg, &serve_durable::Params::full(), &mut outcome)?
        }
        (Workload::ServeDurable, Size::Tiny) => {
            serve_durable::run(cfg, &serve_durable::Params::tiny(), &mut outcome)?
        }
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal_start, host::cpu_steal_ticks())
    {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        outcome
            .stamp
            .push(("cpu_steal_share", format!("{share:.4}")));
    }
    let expected: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let reported: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != expected {
        return Err(format!(
            "{} reported metrics {reported:?}, expected {expected:?}",
            cfg.workload.name()
        ));
    }
    Ok(outcome)
}
