//! The four workloads. Each is a fresh set-up per round plus the measured
//! phases; see README.md for why each exists and which layer dominates it.

pub mod cold_scan;
pub mod hot_zipf;
pub mod train_eval;
pub mod write_mix;

use crate::common::{Failure, Round, Scale};
use crate::host::Calibrator;
use crate::report::Metrics;
use crate::scratch::Scratch;
use crate::setup::Stages;
use crate::trace::{QueryClock, Traced, Tracer};
use hire_serve::{Predictor, Server, ServerConfig};
use std::sync::Arc;

/// What a round needs to know about the run it belongs to.
pub struct Cx<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub scratch: &'a Scratch,
    /// Round index within the run (0-based).
    pub round: usize,
    /// Workloads `mark` it before, between and after their measured phases
    /// so the runner knows how fast the CPU ran meanwhile.
    pub cal: &'a Calibrator,
}

/// Starts the product's server the way every serving workload runs it: one
/// worker, otherwise `ServerConfig::default()` (`max_batch` 8,
/// `batch_timeout` 2 ms). With a clock (traced rounds) the server talks to
/// the engine through the benchmark's `Traced` wrapper.
pub fn start_server<P: Predictor + 'static>(
    engine: &Arc<P>,
    clock: Option<&Arc<QueryClock>>,
) -> Server {
    let predictor: Arc<dyn Predictor> = match clock {
        Some(clock) => Arc::new(Traced::new(Arc::clone(engine), Arc::clone(clock))),
        None => Arc::clone(engine) as Arc<dyn Predictor>,
    };
    Server::start(
        predictor,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
}

/// The traced run's sinks: spans and the per-layer metrics.
pub struct TraceRun {
    pub tracer: Tracer,
    pub metrics: Metrics,
}

pub trait Workload: Sized {
    /// Fresh set-up for one round: dataset, graph, models, engine, WAL dir,
    /// warm-up. With `traced`, calls into the server go through the
    /// benchmark's `Traced` wrapper.
    fn setup(cx: &Cx, stages: &mut Stages, traced: Option<&Tracer>) -> Result<Self, Failure>;

    /// The measured phases of the round. With `trace`, spans are recorded
    /// and the layer metrics that come from the round itself are filled in.
    fn measure(&mut self, cx: &Cx, trace: Option<&mut TraceRun>) -> Result<Round, Failure>;

    /// Traced run only: the open-loop phase, the layer replay and the
    /// per-layer probes, on this round's state.
    fn probe(&mut self, cx: &Cx, trace: &mut TraceRun) -> Result<(), Failure>;

    /// End-of-round checks that consume the state (e.g. crash recovery).
    fn finish(self, cx: &Cx, trace: Option<&mut TraceRun>) -> Result<(), Failure>;
}
