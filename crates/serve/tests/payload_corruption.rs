//! Structure-aware corruption behind a valid checksum (ROADMAP 8 (c)).
//!
//! The CRC in front of every payload keeps random damage from ever reaching
//! a decoder, so these tests go around it: they mutate a *valid* payload —
//! flip bytes, overwrite length and tag fields, truncate — and hand it to
//! the decoder as if the checksum had matched. Three decoders, each of
//! which must return `Ok` or a typed error, never panic and never reserve
//! memory out of proportion to the payload:
//!
//! - [`WalRecord::decode`] over [`WalRecord::encode`] output;
//! - [`TrainSnapshot::decode`] over a re-checksummed snapshot payload;
//! - a serving snapshot written with [`CheckpointStore::save_raw`] (which
//!   re-checksums the payload) and read back through [`fold_log`].
//!
//! They live in `hire-serve`, the one crate that sees all three decoders.

use hire_ckpt::{
    decode_container, encode_container, CheckpointStore, GuardSnapshot, OptimizerSnapshot,
    TrainSnapshot,
};
use hire_core::{HireConfig, HireModel};
use hire_error::HireError;
use hire_graph::Rating;
use hire_serve::{
    fold_log, write_snapshot, EngineConfig, FrozenModel, OnlineConfig, OnlineLoop, ServeEngine,
    SlotSource, CANDIDATE_TAG, SERVING_TAG,
};
use hire_tensor::NdArray;
use hire_wal::{Wal, WalError, WalOptions, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hire-payload-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).expect("create sub dir");
        dir
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One structure-aware edit: `(kind, where, value)`, each drawn uniformly.
type Mutation = (u32, f64, u64);

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u32..5, 0.0f64..1.0, 0u64..u64::MAX)
}

/// The `at`-th (as a fraction) of the offsets `is_field` accepts.
fn pick(payload: &[u8], at: f64, width: usize, is_field: impl Fn(&[u8]) -> bool) -> Option<usize> {
    let offsets: Vec<usize> = (0..payload.len().saturating_sub(width - 1))
        .filter(|&p| is_field(&payload[p..p + width]))
        .collect();
    let k = ((offsets.len() as f64) * at) as usize;
    offsets.get(k.min(offsets.len().saturating_sub(1))).copied()
}

/// Applies one edit in place:
///
/// - 0: flip bits of one byte;
/// - 1: overwrite a length field — an 8-byte little-endian word that reads
///   as a plausible length (≤ the payload size, as every count these
///   formats write does) — with 0, 1, the bytes after it, one more than
///   that, or an arbitrary word;
/// - 2: overwrite a tag field — a byte ≤ 5, the range every tag, flag and
///   option byte these formats write lies in — with a value in `0..8`;
/// - 3: overwrite a 4-byte word (ranks, tag lengths, counters);
/// - 4: truncate.
fn mutate(payload: &mut Vec<u8>, (kind, at, value): Mutation) {
    let len = payload.len();
    if len == 0 {
        return;
    }
    let pos = ((len as f64) * at) as usize % len;
    match kind {
        0 => payload[pos] ^= (value as u8) | 1,
        1 => {
            let plausible = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap()) <= len as u64;
            if let Some(p) = pick(payload, at, 8, plausible) {
                let after = (len - p - 8) as u64;
                let word = [0, 1, after, after + 1, value][(value % 5) as usize];
                payload[p..p + 8].copy_from_slice(&word.to_le_bytes());
            }
        }
        2 => {
            if let Some(p) = pick(payload, at, 1, |b| b[0] <= 5) {
                payload[p] = (value % 8) as u8;
            }
        }
        3 => {
            let end = (pos + 4).min(len);
            payload[pos..end].copy_from_slice(&(value as u32).to_le_bytes()[..end - pos]);
        }
        _ => payload.truncate(pos),
    }
}

fn record(kind: u32, a: u64, b: u64, tag: &[u32]) -> WalRecord {
    match kind {
        0 => WalRecord::Rating {
            user: a,
            item: b,
            value: (a % 5) as f32 + 0.5,
        },
        1 => WalRecord::ModelPromoted {
            version: a,
            tag: tag
                .iter()
                .map(|&c| char::from(b'a' + (c % 26) as u8))
                .collect(),
            steps: b,
        },
        2 => WalRecord::Demoted { new_version: a },
        _ => WalRecord::SnapshotBarrier {
            covered: a.is_multiple_of(2).then_some(b),
            cursor: a,
            round: b,
        },
    }
}

fn train_snapshot(values: &[f32], rng_words: Vec<u64>) -> TrainSnapshot {
    let params: Vec<NdArray> = values
        .chunks(4)
        .map(|c| match c.len() {
            4 => NdArray::from_vec(vec![2, 2], c.to_vec()),
            n => NdArray::from_vec(vec![n], c.to_vec()),
        })
        .collect();
    let some_of = |keep: usize| -> Vec<Option<NdArray>> {
        params
            .iter()
            .enumerate()
            .map(|(i, p)| (i % keep == 0).then(|| p.clone()))
            .collect()
    };
    TrainSnapshot {
        completed_steps: values.len() as u64,
        config_fingerprint: 7,
        params: params.clone(),
        rollback_step: 1,
        rollback_params: params.clone(),
        optimizer: OptimizerSnapshot {
            lamb_m: some_of(2),
            lamb_v: some_of(3),
            lamb_t: 3,
            slow_weights: params,
            lookahead_steps: 2,
        },
        guard: GuardSnapshot {
            ema: Some(0.25),
            healthy_steps: 4,
            suspicious_streak: 0,
            lr_scale: 0.5,
            recoveries: 1,
        },
        rng_words,
    }
}

/// The payload of a real serving snapshot — eight ratings, and a lineage
/// whose incumbent and history name checkpoints — and the LSN it covers.
fn serving_payload() -> &'static (u64, Vec<u8>) {
    static PAYLOAD: OnceLock<(u64, Vec<u8>)> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let tmp = TempDir::new("fixture");
        let (wal_dir, ckpt_dir) = (tmp.sub("wal"), tmp.sub("ckpt"));
        let dataset = Arc::new(
            hire_data::SyntheticConfig::movielens_like()
                .scaled(20, 16, (4, 8))
                .generate(3),
        );
        let config = HireConfig::fast().with_blocks(1).with_context_size(4, 4);
        let model = HireModel::new(&dataset, &config, &mut StdRng::seed_from_u64(1));
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let (wal, _) = Wal::open(&wal_dir, WalOptions::default()).expect("open wal");
        let engine = Arc::new(
            ServeEngine::new(
                frozen.clone(),
                dataset.clone(),
                EngineConfig::from_model_config(&config),
            )
            .with_wal(Arc::new(wal)),
        );
        for k in 0..8 {
            let rating = Rating::new(k % 20, (k * 3) % 16, 1.0 + (k % 5) as f32);
            engine.insert_rating(rating).expect("insert");
        }
        for steps in [5, 9] {
            let source = checkpoint(&ckpt_dir, steps, &frozen);
            engine
                .install_model(frozen.clone(), source)
                .expect("install");
        }
        let online = OnlineLoop::new(
            engine.clone(),
            OnlineConfig {
                checkpoint_dir: Some(ckpt_dir.clone()),
                ..OnlineConfig::default()
            },
        );
        write_snapshot(&engine, &online).expect("snapshot");
        CheckpointStore::open_tagged(&ckpt_dir, SERVING_TAG, 1)
            .and_then(|store| store.load_latest_raw())
            .expect("load")
            .expect("a serving snapshot")
    })
}

/// Checkpoints `model`'s weights under the candidate lineage and returns
/// the source naming them.
fn checkpoint(dir: &Path, steps: u64, model: &FrozenModel) -> SlotSource {
    let snapshot = TrainSnapshot {
        completed_steps: steps,
        params: model.parameters(),
        ..train_snapshot(&[], Vec::new())
    };
    CheckpointStore::open_tagged(dir, CANDIDATE_TAG, 8)
        .and_then(|store| store.save(&snapshot))
        .expect("checkpoint");
    SlotSource::Checkpoint {
        tag: CANDIDATE_TAG.into(),
        steps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_mutated_wal_record_decodes_or_is_a_typed_error(
        kind in 0u32..4,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        tag in vec(0u32..26, 0..12),
        edits in vec(mutation(), 1..4),
    ) {
        let mut payload = record(kind, a, b, &tag).encode();
        for edit in edits {
            mutate(&mut payload, edit);
        }
        match WalRecord::decode(&payload, Path::new("prop"), 0) {
            // What decodes is a record: it round-trips through its own
            // encoding.
            Ok(decoded) => {
                let again = WalRecord::decode(&decoded.encode(), Path::new("prop"), 0);
                prop_assert_eq!(again.expect("re-encoded").encode(), decoded.encode());
            }
            Err(err) => prop_assert!(matches!(err, WalError::Corrupt { .. }), "{}", err),
        }
    }

    #[test]
    fn a_mutated_train_snapshot_decodes_or_is_a_typed_error(
        values in vec(-4.0f32..4.0, 0..14),
        rng_words in vec(0u64..u64::MAX, 0..5),
        edits in vec(mutation(), 1..4),
    ) {
        let bytes = train_snapshot(&values, rng_words).encode();
        let mut payload = decode_container(&bytes, "prop").expect("valid").to_vec();
        for edit in edits {
            mutate(&mut payload, edit);
        }
        match TrainSnapshot::decode(&encode_container(&payload), "prop") {
            Ok(decoded) => {
                let bytes = decoded.encode();
                let again = TrainSnapshot::decode(&bytes, "prop").expect("re-encoded");
                prop_assert_eq!(again.encode(), bytes);
            }
            Err(err) => {
                prop_assert!(matches!(err, HireError::CorruptCheckpoint { .. }), "{}", err)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_mutated_serving_snapshot_folds_or_is_a_typed_error(
        edits in vec(mutation(), 1..4),
    ) {
        let (covered, clean) = serving_payload();
        let mut payload = clean.clone();
        for edit in edits {
            mutate(&mut payload, edit);
        }
        let tmp = TempDir::new("case");
        CheckpointStore::open_tagged(&tmp.0, SERVING_TAG, 1)
            .and_then(|store| store.save_raw(*covered, &payload))
            .expect("save");
        let folded = fold_log(&[], Some(&tmp.0));
        if payload == *clean {
            let fold = folded.expect("an unchanged payload folds");
            prop_assert_eq!(fold.covered, *covered);
            prop_assert_eq!(fold.ratings.len(), 8);
        }
    }
}
