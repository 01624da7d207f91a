//! `serve-durable`: a durable epoch server on a dense graph, with one
//! closed-loop writer and one closed-loop reader. Serve- and WAL-heavy; on a
//! graph this dense almost every update is a non-tree edge and needs no
//! reroot.
//!
//! A run is a sequence of rounds. Each round generates its own input from
//! the run seed and the round index, starts `serve_durable` in a fresh WAL
//! directory (`setup_s`), commits a fixed number of two-update batches while
//! the reader answers query batches off published snapshots, checks the
//! final tree, then recovers the directory and checks that recovery
//! reproduces the last published fingerprint. Rounds repeat until the run
//! has lasted `--seconds`. Reads are summarised over 100 ms windows
//! ([`Windowed`]). A traced run applies each round twice, untraced and
//! traced, and requires the two to agree on every count.

use crate::common::{self, CoreCensus, CountSignature, Input, Probes, ReadBatch};
use crate::report::Outcome;
use crate::stats::{self, LogHistogram, Windowed};
use crate::trace::{self, Span, Tracer};
use crate::{host, RunConfig};
use pardfs::graph::updates::UpdateMix;
use pardfs::scenario::WalRecord;
use pardfs::serve::{ReadHandle, Snapshot};
use pardfs::wal::Checkpoint;
use pardfs::{Backend, DurabilityConfig, MaintainerBuilder, Update};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Size and shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Vertices of the generated graph.
    pub n: usize,
    /// Edges of the generated graph.
    pub m: usize,
    /// Commits per round.
    pub commits_per_round: usize,
    /// Fewest commits an untraced run makes (so p99.9 has ten samples
    /// beyond it).
    pub min_commits: usize,
    /// Rounds whose counts a traced run reports (and the fewest it makes).
    pub counted_rounds: usize,
    /// Updates the writer submits per commit.
    pub updates_per_commit: usize,
    /// Queries per read.
    pub queries_per_read: usize,
    /// Every this many reads, the reader checks its snapshot against the
    /// epoch log (outside the timed section).
    pub census_every: usize,
}

impl Params {
    /// The benchmark's size: n = 4096, m = 64n, edge updates only.
    pub fn full() -> Self {
        Params {
            n: 4096,
            m: 64 * 4096,
            commits_per_round: 1000,
            min_commits: 10_000,
            counted_rounds: 10,
            updates_per_commit: 2,
            queries_per_read: 512,
            census_every: 64,
        }
    }

    /// A seconds-long version for smoke tests.
    pub fn tiny() -> Self {
        Params {
            n: 128,
            m: 8 * 128,
            commits_per_round: 500,
            min_commits: 10_000,
            counted_rounds: 2,
            updates_per_commit: 2,
            queries_per_read: 16,
            census_every: 8,
        }
    }
}

/// What the reader thread measured. Latencies go to histograms, so that
/// hundreds of thousands of reads do not inflate the process's peak RSS.
#[derive(Default)]
struct Reader {
    read_us: LogHistogram,
    windows: Windowed,
    acquire_us: LogHistogram,
    lag_sum: u64,
    censused: u64,
    torn: Vec<String>,
    spans: Vec<Span>,
}

impl Reader {
    /// Fold `other`'s samples into this one (torn reads are reported per
    /// round, not merged).
    fn absorb(&mut self, other: &mut Reader) {
        self.read_us.merge(&other.read_us);
        self.windows.absorb(&other.windows);
        other.windows = Windowed::default();
        self.acquire_us.merge(&other.acquire_us);
        self.lag_sum += other.lag_sum;
        self.censused += other.censused;
        trace::append(&mut self.spans, &std::mem::take(&mut other.spans));
        other.read_us = LogHistogram::default();
        other.acquire_us = LogHistogram::default();
    }
}

/// In a traced run the reader records spans for one read in this many, so
/// the in-memory span log stays small over tens of thousands of reads.
const READ_SPAN_SAMPLING: u64 = 16;

fn read_loop(
    handle: &ReadHandle,
    batch: &ReadBatch,
    every: usize,
    traced: bool,
    stop: &AtomicBool,
) -> Reader {
    let on = Tracer::new(traced);
    let off = Tracer::new(false);
    let mut out = Reader::default();
    let mut request = 0u64;
    while !stop.load(Ordering::Acquire) {
        let tracer = if request.is_multiple_of(READ_SPAN_SAMPLING) {
            &on
        } else {
            &off
        };
        let start = Instant::now();
        let (snapshot, acquired) = {
            let _read = tracer.span("serve.read", request);
            let snapshot = {
                let _acquire = tracer.span("serve.snapshot_acquire", request);
                handle.snapshot()
            };
            let acquired = start.elapsed();
            let _queries = tracer.span("tree.queries", request);
            batch.answer(snapshot.as_ref());
            (snapshot, acquired)
        };
        let now = Instant::now();
        let read_us = now.duration_since(start).as_secs_f64() * 1e6;
        out.read_us.record(read_us);
        out.windows.record(now, read_us);
        out.acquire_us.record(acquired.as_secs_f64() * 1e6);
        out.lag_sum += handle.epoch().saturating_sub(snapshot.epoch());
        if (request as usize).is_multiple_of(every) {
            // Torn-read census: the snapshot's tree, fingerprinted afresh,
            // must match both the fingerprint the snapshot carries and the
            // epoch log.
            out.censused += 1;
            let recorded = handle.recorded_fingerprint(snapshot.epoch());
            let recomputed = snapshot.tree().fingerprint();
            if recorded != Some(snapshot.fingerprint()) || recomputed != snapshot.fingerprint() {
                out.torn.push(format!(
                    "torn read: epoch {} snapshot fingerprint {:016x}, its tree {recomputed:016x}, log {recorded:x?}",
                    snapshot.epoch(),
                    snapshot.fingerprint()
                ));
            }
        }
        request += 1;
    }
    out.windows.close();
    out.spans = on.take();
    out
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    peak_rss_mb: f64,
    commit_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    capture_ms: Vec<f64>,
    record_encode_us: Vec<f64>,
    /// Re-measured WAL work of each commit: record encode, append and sync,
    /// plus checkpoint encode, write and sync on checkpoint epochs.
    wal_ms: Vec<f64>,
    checkpoint_encode_ms: Vec<f64>,
    checkpoints: u64,
    /// Bytes the re-measurement wrote (not part of the WAL's own).
    probe_bytes: u64,
    loop_s: f64,
    updates: u64,
    written_bytes: u64,
    recover_ms: f64,
    census: CoreCensus,
    signature: Option<CountSignature>,
    probes: Option<Probes>,
    reader: Reader,
    spans: Vec<Span>,
}

#[allow(clippy::too_many_arguments)]
fn run_round(
    index: u64,
    input: &Input,
    params: &Params,
    reads: &ReadBatch,
    dir: &Path,
    tracer: Tracer,
    outcome: &mut Outcome,
) -> Result<Round, String> {
    let builder = MaintainerBuilder::new(Backend::Parallel);
    let config = DurabilityConfig::new(dir);
    let mut round = Round::default();
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    host::reset_peak_rss();
    let start = Instant::now();
    let mut server = {
        let _span = tracer.span("serve.serve_durable", index);
        builder.serve_durable(&input.graph, &config)?
    };
    round.setup_s = start.elapsed().as_secs_f64();

    let batches: Vec<Vec<Update>> = input
        .updates
        .chunks(params.updates_per_commit)
        .map(<[Update]>::to_vec)
        .collect();
    let read_handle = server.read_handle();
    let write_handle = server.write_handle();
    let stop = AtomicBool::new(false);
    let traced = tracer.enabled();
    let probe_dir = dir.with_extension("probe");
    if traced {
        std::fs::create_dir_all(&probe_dir)
            .map_err(|e| format!("creating {}: {e}", probe_dir.display()))?;
    }
    std::thread::scope(|scope| -> Result<(), String> {
        let reader =
            scope.spawn(|| read_loop(&read_handle, reads, params.census_every, traced, &stop));
        let written_before = host::written_bytes().unwrap_or(0);
        let loop_start = Instant::now();
        for (c, batch) in batches.into_iter().enumerate() {
            let request = index << 32 | c as u64;
            let logged = tracer.enabled().then(|| batch.clone());
            let start = Instant::now();
            let committed = {
                let _commit = tracer.span("serve.commit", request);
                {
                    let _submit = tracer.span("serve.submit", request);
                    write_handle.submit(batch);
                }
                let _server = tracer.span("serve.server_commit", request);
                server.commit()
            };
            let commit_ms = start.elapsed().as_secs_f64() * 1e3;
            let Some(committed) = committed else {
                outcome.check(false, || format!("commit {c}: the server minted no epoch"));
                break;
            };
            round.commit_ms.push(commit_ms);
            round.apply_ms.push(committed.record.micros as f64 / 1e3);
            round.updates += committed.record.updates as u64;
            for report in &committed.report.per_update {
                round.census.absorb(report);
            }
            if let Some(updates) = logged {
                let isolated = isolate_commit_layers(
                    &mut round,
                    &server,
                    &committed.record,
                    &updates,
                    (dir, &probe_dir),
                    &tracer,
                    outcome,
                );
                if let Err(e) = isolated {
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        round.loop_s = loop_start.elapsed().as_secs_f64();
        round.written_bytes = host::written_bytes()
            .unwrap_or(0)
            .saturating_sub(written_before + round.probe_bytes);
        stop.store(true, Ordering::Release);
        round.reader = reader.join().expect("reader thread panicked");
        Ok(())
    })?;
    outcome.attempted_ok(round.updates + round.reader.read_us.len() as u64);
    outcome.attempted += round.reader.censused;
    outcome.failed += round.reader.torn.len() as u64;
    outcome.errors.append(&mut round.reader.torn);

    round.peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let checked = server.maintainer().check();
    outcome.check(checked.is_ok(), || {
        format!("round {index}: served tree is not a DFS forest: {checked:?}")
    });
    let last = read_handle.snapshot();
    round.signature = Some(round.census.signature(server.maintainer()));
    if tracer.enabled() {
        round.probes = Some(common::probe_layers(
            server.maintainer(),
            &tracer,
            index,
            outcome,
        ));
    }
    drop(write_handle);
    drop(server);

    let start = Instant::now();
    let recovered = {
        let _span = tracer.span("wal.recover", index);
        builder.recover(&config)
    };
    round.recover_ms = start.elapsed().as_secs_f64() * 1e3;
    match recovered {
        Ok(recovered) => {
            let snapshot = recovered.server.read_handle().snapshot();
            outcome.check(
                snapshot.epoch() == last.epoch() && snapshot.fingerprint() == last.fingerprint(),
                || {
                    format!(
                        "recovery reached epoch {} fingerprint {:016x}, last published was epoch {} fingerprint {:016x}",
                        snapshot.epoch(),
                        snapshot.fingerprint(),
                        last.epoch(),
                        last.fingerprint()
                    )
                },
            );
        }
        Err(e) => outcome.check(false, || format!("round {index}: recovery failed: {e}")),
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    if traced {
        std::fs::remove_dir_all(&probe_dir)
            .map_err(|e| format!("removing {}: {e}", probe_dir.display()))?;
    }
    round.spans = tracer.take();
    Ok(round)
}

/// Traced run only: time the per-epoch work of the serving and WAL layers
/// in isolation on the state the commit just published, outside the
/// commit's own timing. The WAL's file work is repeated on files of the
/// probe directory, which sits next to the WAL directory on the same
/// filesystem.
fn isolate_commit_layers(
    round: &mut Round,
    server: &pardfs::Server,
    record: &pardfs::serve::EpochRecord,
    updates: &[Update],
    (dir, probe_dir): (&Path, &Path),
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let request = record.epoch;
    let start = Instant::now();
    let snapshot = {
        let _span = tracer.span("serve.capture", request);
        Snapshot::capture(record.epoch, server.maintainer())
    };
    round.capture_ms.push(start.elapsed().as_secs_f64() * 1e3);
    outcome.check(snapshot.fingerprint() == record.fingerprint, || {
        format!(
            "epoch {}: recaptured snapshot disagrees with its record",
            record.epoch
        )
    });
    let wal_start = Instant::now();
    let text = {
        let _span = tracer.span("wal.record_encode", request);
        WalRecord {
            epoch: record.epoch,
            updates: updates.to_vec(),
            fingerprint: record.fingerprint,
        }
        .render()
    };
    round
        .record_encode_us
        .push(wal_start.elapsed().as_secs_f64() * 1e6);
    {
        let _span = tracer.span("wal.append_sync", request);
        write_synced(&probe_dir.join("wal.log"), text.as_bytes(), true)?;
    }
    round.probe_bytes += text.len() as u64;
    if dir
        .join(format!("checkpoint-{:016x}.ckpt", record.epoch))
        .exists()
    {
        round.checkpoints += 1;
        let start = Instant::now();
        let bytes = {
            let _span = tracer.span("wal.checkpoint_encode", request);
            Checkpoint::capture(record.epoch, server.maintainer()).render_binary()
        };
        round
            .checkpoint_encode_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        let _span = tracer.span("wal.checkpoint_write_sync", request);
        write_synced(&probe_dir.join("checkpoint.tmp"), &bytes, false)?;
        round.probe_bytes += bytes.len() as u64;
    }
    round.wal_ms.push(wal_start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// Write `bytes` to `path` and sync them, as the WAL does: appended and
/// `sync_data`ed for a record, written afresh and `sync_all`ed for a
/// checkpoint.
fn write_synced(path: &Path, bytes: &[u8], append: bool) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    file.write_all(bytes)
        .and_then(|()| {
            if append {
                file.sync_data()
            } else {
                file.sync_all()
            }
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run the workload for `cfg`, appending results to `outcome`.
pub fn run(cfg: &RunConfig, params: &Params, outcome: &mut Outcome) -> Result<(), String> {
    let pool = common::pool()?;
    let reads = ReadBatch::new(
        common::sub_seed(cfg.seed, u64::MAX),
        params.n,
        params.queries_per_read,
    );
    let budget = Duration::from_secs_f64(cfg.seconds);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let dir_for = |index: u64, label: &str| {
        cfg.work_dir.join(format!(
            "wal-{}-{}-{index}-{label}",
            std::process::id(),
            cfg.seed
        ))
    };
    let started = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let (mut plain_reads, mut traced_reads) = (Reader::default(), Reader::default());
    let mut index = 0u64;
    loop {
        // A traced run reports no percentiles, only its counted rounds' counts.
        let enough = if cfg.trace {
            untraced.len() >= params.counted_rounds
        } else {
            untraced.iter().map(|r| r.commit_ms.len()).sum::<usize>() >= params.min_commits
        };
        if index > 0 && started.elapsed() >= budget && enough {
            break;
        }
        let input = common::generate(
            common::sub_seed(cfg.seed, index),
            params.n,
            params.m,
            params.commits_per_round * params.updates_per_commit,
            &UpdateMix::edges_only(),
        )?;
        let mut run = |traced: bool| {
            let dir = dir_for(index, if traced { "traced" } else { "plain" });
            let tracer = Tracer::new(traced);
            pool.install(|| run_round(index, &input, params, &reads, &dir, tracer, outcome))
        };
        if cfg.trace {
            let (mut plain, mut with_spans) = common::run_twice(index, run)?;
            let same = plain.signature == with_spans.signature
                && plain.written_bytes == with_spans.written_bytes;
            outcome.check(same, || {
                format!(
                    "nondeterminism: round {index} counted {:?} and wrote {} B untraced, but {:?} and {} B traced",
                    plain.signature, plain.written_bytes, with_spans.signature, with_spans.written_bytes
                )
            });
            plain_reads.absorb(&mut plain.reader);
            traced_reads.absorb(&mut with_spans.reader);
            traced.push(with_spans);
            untraced.push(plain);
        } else {
            let mut plain = run(false)?;
            plain_reads.absorb(&mut plain.reader);
            untraced.push(plain);
        }
        index += 1;
    }

    outcome.stamp.extend([
        ("n", params.n.to_string()),
        ("m", params.m.to_string()),
        ("update_mix", "edges_only".to_string()),
        (
            "updates_per_round",
            (params.commits_per_round * params.updates_per_commit).to_string(),
        ),
        ("rounds", untraced.len().to_string()),
        ("counted_rounds", params.counted_rounds.to_string()),
        ("updates_per_commit", params.updates_per_commit.to_string()),
        (
            "maintainer_pool",
            format!(
                "{} (explicit pool; the writer runs on its worker)",
                common::POOL_THREADS
            ),
        ),
        (
            "setup_pool",
            format!("{} (the same pool)", common::POOL_THREADS),
        ),
        ("reader_threads", "1".to_string()),
        ("checkpoint_policy", "EveryKEpochs(8)".to_string()),
        ("sync_policy", "EveryCommit".to_string()),
        ("wal_fs", host::filesystem_of(&cfg.work_dir)),
        ("commit_ms_tail", "p99.9".to_string()),
    ]);
    if cfg.trace {
        report_traced(outcome, params, &untraced, &traced, &traced_reads);
    } else {
        report_end_to_end(outcome, &untraced, &plain_reads);
    }
    Ok(())
}

/// The percentile `commit_ms_tail` reports here: the highest with ten
/// samples beyond it at the run's guaranteed 10 000 commits. (p99 sits on
/// the edge of the ~1.5% of commits that reroot, and swings with their
/// share.)
pub const COMMIT_TAIL: u32 = stats::P999;

fn report_end_to_end(outcome: &mut Outcome, rounds: &[Round], reader: &Reader) {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let updates: u64 = rounds.iter().map(|r| r.updates).sum();
    let loop_s: f64 = rounds.iter().map(|r| r.loop_s).sum();
    outcome.metric("setup_s", stats::median(&setup), "s", setup.len());
    outcome.metric(
        "updates_per_s",
        updates as f64 / loop_s,
        "1/s",
        updates as usize,
    );
    let commits = common::histogram(rounds.iter().flat_map(|r| &r.commit_ms));
    common::report_latency(
        outcome,
        &commits,
        "commit_ms_p50",
        ("commit_ms_tail", COMMIT_TAIL),
        "ms",
    );
    // Reads are reported from their quiet windows (see `Windowed`): each
    // window of the reader holds thousands of reads, so its own p95 has
    // tens of samples beyond it.
    let windows = reader.windows.p50.len();
    outcome.check(reader.windows.quiet().is_some(), || {
        format!("no read window held {} reads", stats::WINDOW_MIN_SAMPLES)
    });
    let (p50, p95) = reader.windows.quiet().unwrap_or((f64::NAN, f64::NAN));
    outcome.metric("read_us_p50", p50, "us", windows);
    outcome.metric("read_us_p95", p95, "us", windows);
    if !reader.read_us.is_empty() {
        outcome.notes.push(format!(
            "reads: {} in {windows} windows of {} ms; read_us_* are the lower quartile over windows; over all reads p50 = {:.3} us, p95 = {:.3} us, p99 = {:.3} us",
            reader.read_us.len(),
            stats::WINDOW.as_millis(),
            reader.read_us.percentile(5000),
            reader.read_us.percentile(stats::P95),
            reader.read_us.percentile(stats::P99)
        ));
    }
    // Reported, not gated: see `END_TO_END`.
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    outcome.notes.push(format!(
        "peak_rss_mb = {:.3} MB (median of {} rounds)",
        stats::median(&peaks),
        peaks.len()
    ));
}

fn report_traced(
    outcome: &mut Outcome,
    params: &Params,
    untraced: &[Round],
    traced: &[Round],
    reader: &Reader,
) {
    let counted_rounds = &traced[..params.counted_rounds];
    let counted = CountSignature::total(counted_rounds.iter().map(|r| {
        r.signature
            .as_ref()
            .expect("every round records its counts")
    }));
    let probes: Vec<Probes> = traced.iter().filter_map(|r| r.probes).collect();
    let apply = common::concat(traced, |r| &r.apply_ms);
    let capture = common::concat(traced, |r| &r.capture_ms);
    let commits = common::concat(traced, |r| &r.commit_ms);
    let apply_sum: f64 = apply.iter().sum();
    let censuses: Vec<&CoreCensus> = traced.iter().map(|r| &r.census).collect();
    common::report_core_layers(outcome, &counted, &censuses, &probes, apply_sum);

    let remainder: Vec<f64> = commits
        .iter()
        .zip(&apply)
        .zip(&capture)
        .map(|((c, a), k)| c - a - k)
        .collect();
    let reads = reader.read_us.len();
    outcome.metric(
        "serve.apply_ms_p50",
        stats::median(&apply),
        "ms",
        apply.len(),
    );
    outcome.metric(
        "serve.capture_ms",
        stats::mean(&capture),
        "ms",
        capture.len(),
    );
    outcome.metric(
        "serve.commit_remainder_ms_p50",
        stats::median(&remainder),
        "ms",
        remainder.len(),
    );
    outcome.metric(
        "serve.snapshot_acquire_us_p99",
        reader.acquire_us.percentile(stats::P99),
        "us",
        reads,
    );
    outcome.metric(
        "serve.reader_epoch_lag",
        reader.lag_sum as f64 / reads as f64,
        "count",
        reads,
    );
    let written: u64 = counted_rounds.iter().map(|r| r.written_bytes).sum();
    let per_update = written as f64 / counted.updates as f64;
    outcome.metric("wal.bytes_per_update", per_update, "B", 0);
    let checkpoints: u64 = counted_rounds.iter().map(|r| r.checkpoints).sum();
    outcome.metric("wal.checkpoints", checkpoints as f64, "count", 0);
    let encode_ms = common::concat(traced, |r| &r.checkpoint_encode_ms);
    outcome.metric(
        "wal.checkpoint_encode_ms",
        stats::mean(&encode_ms),
        "ms",
        encode_ms.len(),
    );
    let record_us = common::concat(traced, |r| &r.record_encode_us);
    outcome.metric(
        "wal.record_encode_us",
        stats::mean(&record_us),
        "us",
        record_us.len(),
    );
    let recover: Vec<f64> = traced.iter().map(|r| r.recover_ms).collect();
    outcome.metric(
        "wal.recover_ms",
        stats::median(&recover),
        "ms",
        recover.len(),
    );
    let peaks: Vec<f64> = traced.iter().map(|r| r.peak_rss_mb).collect();
    outcome.metric("proc.peak_rss_mb", stats::median(&peaks), "MB", peaks.len());
    let plain_commit_ms: f64 = common::concat(untraced, |r| &r.commit_ms).iter().sum();
    let commit_ms: f64 = commits.iter().sum();
    let overhead_pct = (commit_ms / plain_commit_ms - 1.0) * 100.0;
    outcome.metric("trace.overhead_pct", overhead_pct, "%", commits.len());

    // Layer sum: apply + capture + WAL = commit, where apply is the server's
    // own timing and capture and WAL work are re-measured on the same state.
    // The parts may not exceed the whole, nor fall short of it by more than
    // the tolerance.
    let capture_sum: f64 = capture.iter().sum();
    let wal_sum: f64 = common::concat(traced, |r| &r.wal_ms).iter().sum();
    let parts_ms = apply_sum + capture_sum + wal_sum;
    let ratio = parts_ms / commit_ms;
    outcome.metric("trace.layer_sum_ratio", ratio, "ratio", commits.len());
    let gap_us_per_commit = (commit_ms - parts_ms) * 1e3 / commits.len() as f64;
    outcome.notes.push(format!(
        "layer sum: apply {apply_sum:.1} ms + capture {capture_sum:.1} ms + wal {wal_sum:.1} ms = {parts_ms:.1} ms of commit {commit_ms:.1} ms ({:.2}%, {gap_us_per_commit:.1} us/commit unattributed; tolerance: parts <= {:.0}% of whole, unattributed <= {:.0}% + {LAYER_SUM_ABS_US} us/commit)",
        ratio * 100.0,
        (1.0 + LAYER_SUM_SLACK) * 100.0,
        LAYER_SUM_TOLERANCE * 100.0,
    ));
    let allowed_gap_ms =
        LAYER_SUM_TOLERANCE * commit_ms + LAYER_SUM_ABS_US * commits.len() as f64 / 1e3;
    let within = ratio <= 1.0 + LAYER_SUM_SLACK && commit_ms - parts_ms <= allowed_gap_ms;
    outcome.check(within, || {
        format!(
            "layer sum: apply + capture + wal is {:.2}% of commit time ({gap_us_per_commit:.1} us/commit unattributed)",
            ratio * 100.0
        )
    });
    let mut writer = Vec::new();
    for round in traced {
        trace::append(&mut writer, &round.spans);
    }
    common::keep_spans(outcome, "writer", writer);
    common::keep_spans(outcome, "reader", reader.spans.clone());
}

/// The measured parts may exceed the whole by this share (re-measuring the
/// capture and the WAL work on a warm cache can read slightly differently).
pub const LAYER_SUM_SLACK: f64 = 0.05;
/// Parts may fall short of the whole by this share plus
/// [`LAYER_SUM_ABS_US`] per commit: work no part re-measures (submission,
/// publication, the WAL restart and old-checkpoint removal after a
/// checkpoint).
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;
/// Fixed per-commit allowance of the layer sum, in µs.
pub const LAYER_SUM_ABS_US: f64 = 25.0;
