//! Crash recovery of the online loop (DESIGN.md §12, §15). The property:
//!
//! > **A recovered loop's next round is the never-crashed loop's next
//! > round** — same round number, same held-out slice, same pending
//! > ratings, hence the same candidate, the same `EvalReport` and the same
//! > answers afterwards.
//!
//! The loop's durable state is two numbers, `trained` and `round`, written
//! by every round barrier and every serving snapshot; its holdout and its
//! pending ratings are the replayed insert log split by arrival index.
//!
//! A crash is a byte-level copy of the WAL and checkpoint directories taken
//! between two operations — what a power cut there leaves on disk, since
//! every record the loop and the engine rely on is fsynced before the call
//! returns. Faults at `wal.append` stay out of these histories: a round
//! barrier is best-effort, so a refused barrier append may legitimately
//! cost a recovery its round number (`wal_recovery.rs` covers refused
//! appends of ratings and model records).

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::Rating;
use hire_serve::{
    recover, write_snapshot, EngineConfig, EvalReport, FrozenModel, OnlineConfig, OnlineLoop,
    Predictor, RatingQuery, Recovered, RoundOutcome, ServeEngine,
};
use hire_wal::{Wal, WalOptions};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USERS: usize = 40;
const ITEMS: usize = 35;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire-onlinerec-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
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

fn dataset() -> Arc<Dataset> {
    Arc::new(
        hire_data::SyntheticConfig::movielens_like()
            .scaled(USERS, ITEMS, (8, 15))
            .generate(21),
    )
}

fn model_config() -> HireConfig {
    HireConfig::fast().with_blocks(1).with_context_size(6, 6)
}

fn base_model(dataset: &Dataset) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(dataset, &model_config(), &mut rng);
    FrozenModel::from_model(&model, dataset).expect("freeze")
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&model_config())
    }
}

fn wal_opts() -> WalOptions {
    WalOptions {
        segment_max_bytes: 4 << 20,
    }
}

/// Sixteen new training ratings make a round; every fourth arrival is held
/// out. A zero tolerance lets rounds both promote and reject.
fn online_config(ckpt_dir: &Path) -> OnlineConfig {
    OnlineConfig {
        min_new_ratings: 16,
        fine_tune_steps: 4,
        batch_size: 2,
        base_lr: 1e-3,
        holdout_every: 4,
        regression_tolerance: 0.0,
        checkpoint_dir: Some(ckpt_dir.to_path_buf()),
        ..OnlineConfig::default()
    }
}

fn rating(k: usize) -> Rating {
    Rating::new((k * 3) % USERS, (k * 5) % ITEMS, ((k % 5) + 1) as f32)
}

fn probe_bits(pred: &dyn Predictor) -> Vec<u32> {
    let probes: Vec<RatingQuery> = (0..16)
        .map(|k| RatingQuery {
            user: (k * 7) % USERS,
            item: (k * 11) % ITEMS,
        })
        .collect();
    pred.predict_batch(&probes)
        .expect("probe batch")
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

/// The loop's and the engine's fault plans. A plan's schedule is a pure
/// function of its seed, site and arrival number, so a plan rebuilt from
/// the same `Chaos` and replayed to a live plan's arrival count predicts
/// the live plan's next decision.
#[derive(Debug, Clone, Copy)]
struct Chaos {
    seed: u64,
    /// Failure rates at `trainer.step`, `online.shadow_eval`, `online.swap`.
    rates: [f64; 3],
}

impl Chaos {
    const LOOP_SITES: [&'static str; 2] = [sites::TRAINER_STEP, sites::SHADOW_EVAL];

    fn loop_plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with_fault(sites::TRAINER_STEP, FaultKind::Error, self.rates[0])
            .with_fault(sites::SHADOW_EVAL, FaultKind::Error, self.rates[1])
    }

    fn engine_plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed).with_fault(sites::ONLINE_SWAP, FaultKind::Error, self.rates[2])
    }
}

/// Spends `live`'s next arrivals at `site` while they are scheduled to
/// fail (`twin` is a fresh copy of `live`), so the next round passes `site`
/// unfaulted — as a recovered loop, which has no fault plan, does.
fn pass_next(live: &FaultPlan, twin: FaultPlan, site: &'static str) {
    for _ in 0..live.site_stats(site).arrivals {
        twin.decide(site);
    }
    while twin.decide(site).is_some() {
        live.decide(site);
    }
}

/// A WAL-attached engine and its online loop, both under `chaos`.
struct Live {
    engine: Arc<ServeEngine>,
    online: OnlineLoop,
    loop_plan: Arc<FaultPlan>,
    engine_plan: Arc<FaultPlan>,
    chaos: Chaos,
    wal_dir: PathBuf,
    ckpt_dir: PathBuf,
    inserted: usize,
}

impl Live {
    fn new(dataset: &Arc<Dataset>, tmp: &TempDir, chaos: Chaos) -> Self {
        let (wal_dir, ckpt_dir) = (tmp.sub("wal"), tmp.sub("ckpt"));
        let (wal, _) = Wal::open(&wal_dir, wal_opts()).expect("open wal");
        let engine_plan = Arc::new(chaos.engine_plan());
        let engine = Arc::new(
            ServeEngine::with_shared_graph(
                base_model(dataset),
                dataset.clone(),
                Arc::new(dataset.graph()),
                engine_config(),
            )
            .with_faults(engine_plan.clone())
            .with_wal(Arc::new(wal)),
        );
        let loop_plan = Arc::new(chaos.loop_plan());
        let online = OnlineLoop::new(engine.clone(), online_config(&ckpt_dir))
            .with_faults(loop_plan.clone());
        Live {
            engine,
            online,
            loop_plan,
            engine_plan,
            chaos,
            wal_dir,
            ckpt_dir,
            inserted: 0,
        }
    }

    fn insert(&mut self, n: usize) {
        for _ in 0..n {
            self.engine
                .insert_rating(rating(self.inserted))
                .expect("acked insert");
            self.inserted += 1;
        }
    }

    /// Copies the disk as it stands into `tmp/crash-{tag}` and recovers an
    /// engine and loop from the copy.
    fn crash_and_recover(&self, dataset: &Arc<Dataset>, tmp: &TempDir, tag: &str) -> Recovered {
        let wal_copy = tmp.sub(&format!("crash-{tag}/wal"));
        let ckpt_copy = tmp.sub(&format!("crash-{tag}/ckpt"));
        copy_dir(&self.wal_dir, &wal_copy);
        copy_dir(&self.ckpt_dir, &ckpt_copy);
        recover(
            base_model(dataset),
            dataset.clone(),
            Arc::new(dataset.graph()),
            engine_config(),
            online_config(&ckpt_copy),
            &wal_copy,
            wal_opts(),
        )
        .expect("recover")
    }

    /// The never-crashed loop's next round, every fault scheduled for it
    /// skipped.
    fn unfaulted_round(&self) -> RoundOutcome {
        for site in Chaos::LOOP_SITES {
            pass_next(&self.loop_plan, self.chaos.loop_plan(), site);
        }
        pass_next(
            &self.engine_plan,
            self.chaos.engine_plan(),
            sites::ONLINE_SWAP,
        );
        self.online.run_round()
    }
}

/// Byte-level copy of a flat directory.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

fn eval_of(outcome: &RoundOutcome) -> Option<&EvalReport> {
    match outcome {
        RoundOutcome::Promoted { eval, .. } | RoundOutcome::Rejected { eval } => Some(eval),
        _ => None,
    }
}

/// Runs the next round on both sides, then feeds both the same ratings and
/// runs one more, so a round that was still accumulating is followed by
/// one that trains. Both rounds' outcomes and the answers after them must
/// match bit for bit.
fn assert_next_rounds_match(live: &mut Live, recovered: &Recovered, context: &str) {
    for step in 0..2 {
        let expected = live.unfaulted_round();
        let got = recovered.online.run_round();
        assert_eq!(got, expected, "{context}, round {step} after recovery");
        if let (Some(a), Some(b)) = (eval_of(&got), eval_of(&expected)) {
            assert_eq!(
                (a.round, a.holdout_size),
                (b.round, b.holdout_size),
                "{context}"
            );
            assert_eq!(a.candidate_mae.to_bits(), b.candidate_mae.to_bits());
            assert_eq!(a.incumbent_mae.to_bits(), b.incumbent_mae.to_bits());
        }
        assert_eq!(
            recovered.engine.version(),
            live.engine.version(),
            "{context}"
        );
        assert_eq!(
            probe_bits(recovered.engine.as_ref()),
            probe_bits(live.engine.as_ref()),
            "{context}, round {step}: answers after the round"
        );
        let from = live.inserted;
        live.insert(24);
        for k in from..live.inserted {
            recovered
                .engine
                .insert_rating(rating(k))
                .expect("acked insert");
        }
    }
}

/// A snapshot taken while ratings wait for a round keeps them: 16 inserts
/// leave 12 pending (4 held out) below the live loop's read position, and
/// the recovered loop must still see all 12.
#[test]
fn a_snapshot_keeps_the_ratings_no_round_has_trained_on() {
    let tmp = TempDir::new("pending");
    let dataset = dataset();
    let mut live = Live::new(
        &dataset,
        &tmp,
        Chaos {
            seed: 0,
            rates: [0.0; 3],
        },
    );
    live.insert(16);
    assert_eq!(
        live.online.run_round(),
        RoundOutcome::Accumulating { pending: 12 }
    );
    write_snapshot(&live.engine, &live.online).expect("snapshot");
    let recovered = live.crash_and_recover(&dataset, &tmp, "snapshot");
    assert!(
        recovered.snapshot_covered > 0,
        "recovery starts from the snapshot"
    );
    assert_eq!(recovered.online.holdout_len(), live.online.holdout_len());
    assert_eq!(
        recovered.online.run_round(),
        RoundOutcome::Accumulating { pending: 12 },
        "the recovered loop lost the pending ratings"
    );
    assert_eq!(
        live.online.run_round(),
        RoundOutcome::Accumulating { pending: 12 }
    );
    assert_next_rounds_match(&mut live, &recovered, "after a snapshot");
}

/// A round that fails still moves the round counter, and a recovery from
/// the log alone must resume at the same number: after one injected
/// `trainer.step` error, both loops' next round is round 2 — same seed,
/// same candidate.
#[test]
fn a_failed_round_keeps_its_number_through_a_log_only_recovery() {
    let tmp = TempDir::new("failed-round");
    let dataset = dataset();
    // A seed whose trainer schedule fails the first arrival.
    let chaos = (0..)
        .map(|seed| Chaos {
            seed,
            rates: [0.5, 0.0, 0.0],
        })
        .find(|chaos| chaos.loop_plan().decide(sites::TRAINER_STEP).is_some())
        .expect("a seed that fails the first arrival");
    let mut live = Live::new(&dataset, &tmp, chaos);
    live.insert(24);
    assert_eq!(live.online.run_round(), RoundOutcome::TrainerCrashed);
    let recovered = live.crash_and_recover(&dataset, &tmp, "log-only");
    assert_eq!(recovered.snapshot_covered, 0, "no snapshot: the log alone");

    let expected = live.unfaulted_round();
    let got = recovered.online.run_round();
    let (Some(want), Some(have)) = (eval_of(&expected), eval_of(&got)) else {
        panic!("both rounds must train and evaluate: {expected:?} vs {got:?}");
    };
    assert_eq!(want.round, 2);
    assert_eq!(have.round, want.round, "the recovered loop lost a round");
    assert_eq!(have.candidate_mae.to_bits(), want.candidate_mae.to_bits());
    assert_eq!(got, expected);
    assert_eq!(
        probe_bits(recovered.engine.as_ref()),
        probe_bits(live.engine.as_ref())
    );
}

/// One step of a generated online history.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize),
    Round,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..10).prop_map(|k| match k {
        0..=3 => Op::Insert(6 * (k + 1)),
        4..=7 => Op::Round,
        _ => Op::Snapshot,
    })
}

fn run_history(ops: &[Op], crash_at: usize, chaos: Chaos) {
    let tmp = TempDir::new("generated");
    let dataset = dataset();
    let mut live = Live::new(&dataset, &tmp, chaos);
    for op in &ops[..crash_at.min(ops.len())] {
        match *op {
            Op::Insert(n) => live.insert(n),
            Op::Round => {
                live.online.run_round();
            }
            Op::Snapshot => {
                write_snapshot(&live.engine, &live.online).expect("snapshot");
            }
        }
    }
    let recovered = live.crash_and_recover(&dataset, &tmp, "generated");
    let context = format!("{ops:?} crashed at {crash_at} under {chaos:?}");
    assert_next_rounds_match(&mut live, &recovered, &context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated histories of inserts, rounds under `trainer.step`,
    /// `online.shadow_eval` and `online.swap` faults, and snapshots,
    /// crashed after any step: the recovered loop's next rounds are the
    /// never-crashed loop's.
    #[test]
    fn generated_online_histories_recover_to_the_next_live_round(
        ops in vec(op_strategy(), 4..14),
        crash_at in 0usize..14,
        seed in 0u64..1_000_000,
        rates in (0u32..3, 0u32..3, 0u32..3),
    ) {
        let rate = |r: u32| [0.0, 0.4, 0.8][r as usize];
        let chaos = Chaos {
            seed,
            rates: [rate(rates.0), rate(rates.1), rate(rates.2)],
        };
        run_history(&ops, crash_at, chaos);
    }
}
