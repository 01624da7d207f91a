//! Seeded mutation fuzzing of every `pardfs-snap v2` producer: a WAL
//! checkpoint, a [`ComponentExport`] migration payload and a published
//! serving epoch.
//!
//! Each good container is damaged by byte flips, truncations, splices and
//! overwrites of header and table fields with boundary values. The trailing
//! checksum is then **re-stamped**, so the damage gets past the framing check
//! and reaches the structural validators — the code a corrupt-but-checksummed
//! file (or a hostile peer) actually exercises. Every mutant must be either
//! rejected with `Err` or accepted as a state that round-trips through its
//! own writer. A panic or an abort (say, an allocation sized from an
//! unchecked header field) fails the suite.

use pardfs::graph::generators;
use pardfs::graph::snap::{fnv1a64_words, SnapReader};
use pardfs::serve::ComponentExport;
use pardfs::tree::TreeIndex;
use pardfs::wal::{Checkpoint, CheckpointView};
use pardfs::{Backend, ForestQuery, MaintainerBuilder, Snapshot, Update};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Mutants generated per container.
const MUTANTS: usize = 1500;

/// Values a damaged header or table field most likely mishandles: zero,
/// off-by-one neighbours of small counts, sign and width boundaries, and
/// sizes whose byte length overflows.
const BOUNDARY: [u64; 10] = [
    0,
    1,
    2,
    7,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    1 << 31,
    1 << 32,
    1 << 62,
    u64::MAX,
];

/// Replace the trailing checksum with the checksum of the (damaged) body.
fn restamp(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a64_words(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Byte ranges worth aiming field overwrites at: the section table and the
/// first 32 bytes of every section (where the headers and counts live).
fn field_targets(good: &[u8]) -> Vec<usize> {
    let count = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
    let mut targets: Vec<usize> = (8..12 + 24 * count).step_by(4).collect();
    for i in 0..count {
        let at = 12 + 24 * i;
        let offset = u64::from_le_bytes(good[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(good[at + 16..at + 24].try_into().unwrap()) as usize;
        targets.extend((offset..offset + len.min(32)).step_by(4));
    }
    targets
}

/// One seeded mutant of `good`, checksum re-stamped.
fn mutate(good: &[u8], targets: &[usize], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut body = good[..good.len() - 8].to_vec();
    match rng.gen_range(0..4) {
        0 => {
            // Flip a few bytes anywhere.
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..body.len());
                body[at] ^= rng.gen_range(1..=255u8);
            }
        }
        1 => {
            // Truncate the body (the re-stamped checksum keeps it framed).
            body.truncate(rng.gen_range(0..body.len()));
        }
        2 => {
            // Splice: replace one range with a copy of another, of a
            // possibly different length.
            let src = rng.gen_range(0..body.len());
            let src_len = rng.gen_range(0..=(body.len() - src).min(64));
            let dst = rng.gen_range(0..body.len());
            let dst_len = rng.gen_range(0..=(body.len() - dst).min(64));
            let chunk = body[src..src + src_len].to_vec();
            body.splice(dst..dst + dst_len, chunk);
        }
        _ => {
            // Overwrite a header or table field with a boundary value.
            let at = targets[rng.gen_range(0..targets.len())];
            let value = BOUNDARY[rng.gen_range(0..BOUNDARY.len())];
            let width = if rng.gen_bool(0.5) { 8 } else { 4 };
            let end = (at + width).min(body.len());
            body[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
        }
    }
    restamp(body)
}

/// Drive `check` over [`MUTANTS`] seeded mutants of `good`; returns how many
/// were accepted (so a suite that rejects everything is visible).
fn fuzz(good: &[u8], seed: u64, mut check: impl FnMut(&[u8]) -> bool) -> usize {
    SnapReader::parse(good).expect("the unmutated container parses");
    let targets = field_targets(good);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..MUTANTS)
        .filter(|_| check(&mutate(good, &targets, &mut rng)))
        .count()
}

/// A small maintainer state with holes (vertex churn) and a multi-tree
/// forest, so every section carries non-trivial content.
fn churned_maintainer() -> Box<dyn pardfs::DfsMaintainer> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF0220);
    let g = generators::random_connected_gnm(24, 40, &mut rng);
    let mut dfs = MaintainerBuilder::new(Backend::Parallel).build(&g);
    dfs.apply_batch(&[
        Update::DeleteVertex(3),
        Update::DeleteEdge(0, g.neighbors(0)[0]),
        Update::InsertVertex {
            edges: vec![5, 9, 17],
        },
    ]);
    dfs
}

#[test]
fn mutated_checkpoints_are_rejected_or_round_trip() {
    let dfs = churned_maintainer();
    let good = Checkpoint::capture(5, dfs.as_ref()).render_binary();
    let accepted = fuzz(&good, 0xC4EC, |bytes| {
        let parsed = Checkpoint::parse(bytes);
        // The zero-copy view rejects exactly what the parser rejects, and
        // materializes exactly what it accepts.
        let viewed = CheckpointView::parse(bytes).and_then(|v| v.materialize());
        match (parsed, viewed) {
            (Err(_), Err(_)) => false,
            (Ok(ckpt), Ok((graph, tree))) => {
                assert_eq!(graph, ckpt.graph, "view and parser disagree");
                tree.structural_eq(&ckpt.tree)
                    .expect("view and parser agree");
                let again = Checkpoint::parse(&ckpt.render_binary()).expect("re-render parses");
                assert_eq!(again.graph, ckpt.graph);
                assert_eq!(
                    (again.epoch, again.fingerprint, &again.backend),
                    (ckpt.epoch, ckpt.fingerprint, &ckpt.backend)
                );
                again
                    .tree
                    .structural_eq(&ckpt.tree)
                    .expect("tree round-trips");
                true
            }
            (p, v) => panic!(
                "parser and view disagree: parser {:?}, view {:?}",
                p.err(),
                v.err()
            ),
        }
    });
    assert!(accepted < MUTANTS, "no mutant was rejected");
}

#[test]
fn mutated_component_exports_are_rejected_or_round_trip() {
    let dfs = churned_maintainer();
    let user_ids = dfs.augmented_graph().capacity() as u32 - 1; // minus the pseudo root
    let members: Vec<u32> = (0..user_ids)
        .filter(|&v| dfs.same_component(v, 0))
        .collect();
    let good = ComponentExport::extract(dfs.as_ref(), &members).to_bytes();
    let accepted = fuzz(&good, 0xE4B0, |bytes| {
        match ComponentExport::from_bytes(bytes) {
            Err(_) => false,
            Ok(export) => {
                let again =
                    ComponentExport::from_bytes(&export.to_bytes()).expect("re-render parses");
                assert_eq!(again, export, "export does not round-trip");
                true
            }
        }
    });
    assert!(accepted < MUTANTS, "no mutant was rejected");
}

#[test]
fn mutated_epoch_files_are_rejected_or_round_trip() {
    let dfs = churned_maintainer();
    let dir = std::env::temp_dir().join(format!("pardfs-snap-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.epoch");
    Snapshot::capture(9, dfs.as_ref())
        .publish_to(&path)
        .unwrap();
    let good = std::fs::read(&path).unwrap();
    let accepted = fuzz(&good, 0xE90C, |bytes| {
        std::fs::write(&path, bytes).unwrap();
        let Ok(epoch) = Snapshot::open_mapped(&path) else {
            return false;
        };
        // Every vertex the file claims is answerable without panicking.
        for v in 0..epoch.num_vertices() as u32 {
            let _ = epoch.forest_parent(v);
            let _ = epoch.same_component(v, 0);
        }
        let _ = epoch.forest_roots();
        match epoch.materialize() {
            Err(_) => false,
            Ok(tree) => {
                assert_eq!(epoch.num_vertices() + 1, tree.num_vertices());
                let again = TreeIndex::parse_snapshot_binary(&tree.render_snapshot_binary())
                    .expect("re-render parses");
                again.structural_eq(&tree).expect("tree round-trips");
                true
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(accepted < MUTANTS, "no mutant was rejected");
}
