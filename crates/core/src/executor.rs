//! The shared-corpus pipeline executor: a channel-based worker pool
//! replacing the old thread-per-campaign manager (§5's "multiple RTL
//! simulation instances in parallel").
//!
//! # Architecture
//!
//! An [`Orchestrator`] owns the [`Corpus`], the scheduling RNG, the
//! running-average mutation-gain threshold and the exact global coverage;
//! `Worker` threads own the simulators. Work flows in *rounds*, and how
//! a round's slots are partitioned and claimed is pluggable — see the
//! [`crate::scheduler`] module for the [`crate::scheduler::Scheduler`]
//! trait (fixed round-robin batches vs. deterministic work stealing) and
//! the [`crate::scheduler::SeedPolicy`] trait (energy decay vs.
//! favoured-quota corpus picks). Under the default round-robin scheduler:
//!
//! 1. The orchestrator plans a round from the committed state — a batch
//!    of iteration slots per worker, consulting the seed policy
//!    (energy-weighted retained seeds vs. fresh exploration) for each
//!    slot — and ships each worker its batch together with the current
//!    gain threshold and the coverage points discovered globally since
//!    the worker's last round. (Under the work-stealing scheduler the
//!    whole round is instead pre-drawn into one shared claim queue —
//!    slots become mutually independent, and idle workers claim the next
//!    slot instead of waiting behind a slow sibling.)
//! 2. Each worker folds the broadcast delta into its local *view* of the
//!    global coverage, then runs the three-phase pipeline for its slots.
//!    Every observation fans out through [`RecordingCoverage`]: into the
//!    slot's `observed` point set (per-worker accounting) and — when
//!    fresh against the view — into the outcome's recorded delta.
//!    Mutation-gain feedback reads only the view, so worker decisions
//!    never race on shared state.
//! 3. A batch worker replies once per batch — outcomes plus its
//!    post-batch RNG stream position, so the orchestrator mirrors every
//!    worker's full stream state; a stealing worker streams each outcome
//!    the moment it finishes. The orchestrator buffers outcomes by slot
//!    and commits the contiguous prefix in global slot order: stats, the
//!    per-iteration exact coverage curve, bug dedup, gain-threshold
//!    samples and corpus retention all replay deterministically. The
//!    recorded deltas, replayed in that order, build the campaign's one
//!    coverage union; each slot's `observed` set folds into its stream's
//!    per-worker matrix.
//!
//! One loop, [`Orchestrator::run_observed`], runs every configuration:
//! it keeps one round in flight with pipelining off (a barrier per
//! round) and two with `pipeline_lag >= 1`, planning the next round the
//! moment the front one is committed.
//!
//! The consequence is the property the old end-of-run merge could not
//! offer: a campaign is **deterministic for a fixed worker count**
//! (thread timing only changes which thread runs a stolen slot, which
//! nothing reads back), and its final coverage is the **exact union** of
//! what the workers observed — never the pointwise sum the old
//! `CampaignStats::merge` approximated.
//!
//! # Configuration
//!
//! An [`Orchestrator`] is built exclusively by
//! [`crate::builder::CampaignBuilder`], which validates the whole
//! configuration up front (one structured
//! [`crate::builder::BuildError`], no scattered panics) and resolves any
//! extension-registry ids into captured constructors. The orchestrator
//! itself only *runs* campaigns: [`Orchestrator::run`],
//! [`Orchestrator::run_snapshotting`], and
//! [`Orchestrator::run_observed`] — the latter streaming the typed
//! [`crate::observer::CampaignObserver`] events from the deterministic
//! commit points described above.
//!
//! # Checkpointing and resume
//!
//! Because the orchestrator mirrors every piece of worker state, the
//! campaign serialises at any round boundary into a
//! [`CampaignSnapshot`]: corpus, global coverage, gain threshold,
//! scheduler RNG position and per-worker `(RNG position, iteration
//! count, observed matrix)`. At a round boundary each worker's coverage
//! view coincides with the global union (the round-start delta broadcast
//! converges them), so restoring `view = global` is exact, and a run
//! resumed via [`crate::builder::CampaignBuilder::resume`] replays the
//! remaining rounds **bit-identically** to one that never stopped — same
//! curve, same bugs, same corpus, same per-worker accounting (asserted
//! by `tests/persist.rs` and the CI resume smoke).
//! [`crate::builder::CampaignBuilder::snapshot_every`] +
//! [`crate::builder::CampaignBuilder::snapshot_path`] write periodic
//! atomic checkpoints;
//! [`crate::builder::CampaignBuilder::halt_after`] stops gracefully at
//! the next round boundary, emulating a planned interruption.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dejavuzz_ift::{
    CoverageLog, CoverageMatrix, CoveragePoint, CoverageView, IftMode, OverlayCoverage,
    RecordingCoverage,
};

use crate::backend::{BackendSpec, SimBackend};
use crate::builder::CampaignBuilder;
use crate::campaign::{CampaignStats, FuzzerOptions};
use crate::corpus::{Corpus, CorpusEntry};
use crate::gen::{Seed, WindowType};
use crate::gossip::{GossipFrame, SharedGossipLink, FAVOURED_PER_FRAME};
use crate::observer::{
    BugFound, CampaignFinished, CampaignObserver, CoverageGained, PeerDeltaImported, RoundStarted,
    SeedImported, SlotCommitted, SnapshotWritten,
};
use crate::phases::{phase1, phase2, phase3};
use crate::registry::{BackendCtor, PolicyCtor, SchedulerCtor};
use crate::scheduler::{
    PlanCtx, PlannedSlot, PolicySpec, PolicyState, RoundPlan, Scheduler, SchedulerSpec, SeedPolicy,
    SlotFeedback,
};
use crate::snapshot::{CampaignSnapshot, PendingRound, WorkerState};

/// Iteration slots shipped to a worker per round. Large enough to
/// amortise the channel round-trip, small enough that corpus feedback and
/// the gain threshold stay fresh.
pub const DEFAULT_BATCH: usize = 4;

/// The running-average mutation-gain threshold of §4.2.2, shared across
/// all workers of a pool.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GainAverage {
    pub avg: f64,
    pub samples: usize,
}

impl GainAverage {
    /// Folds one sample into the running average.
    pub fn push(&mut self, gain: f64) {
        self.samples += 1;
        self.avg += (gain - self.avg) / self.samples as f64;
    }
}

/// Everything one pipeline iteration produced, flushed to the
/// orchestrator in per-round batches.
#[derive(Clone, Debug)]
pub(crate) struct IterationOutcome {
    /// Global iteration index.
    pub slot: usize,
    /// Logical worker stream this slot is accounted to (the physical
    /// worker under [`crate::scheduler::RoundRobin`]; the planned stream
    /// under [`crate::scheduler::WorkStealing`], independent of which
    /// thread claimed the slot).
    pub stream: usize,
    /// Wall-clock the iteration took, for scheduling models and
    /// throughput reporting only — never fed back into decisions.
    pub elapsed_nanos: u64,
    /// Wall-clock spent building this slot's coverage view (the overlay
    /// construction in steal mode; zero for batch rounds, whose workers
    /// reuse their long-lived view). Reporting only, like `elapsed_nanos`.
    pub view_setup_nanos: u64,
    /// The executed seed (after fresh generation and window mutations).
    pub seed: Seed,
    pub window_type: WindowType,
    pub triggered: bool,
    pub to: usize,
    pub eto: usize,
    pub sim_runs: usize,
    pub sim_cycles: u64,
    /// Per-mutation-attempt coverage gains, in execution order (the
    /// orchestrator replays these into the global threshold).
    pub gains: Vec<f64>,
    /// Coverage gain of the selected attempt (corpus retention energy).
    pub final_gain: usize,
    /// Points fresh against the worker's view, in observation order.
    pub fresh_points: Vec<CoveragePoint>,
    /// Every distinct point this slot observed, folded into the mirror of
    /// `stream` (which is what snapshots persist). Keyed by the logical
    /// stream, never by the physical thread, whose attribution is
    /// timing-dependent under work stealing.
    pub observed: CoverageMatrix,
    pub bugs: Vec<crate::report::BugReport>,
    /// A backend failure that aborted this iteration
    /// ([`crate::backend::BackendError`], stringified for the channel).
    /// The iteration still counts; the campaign keeps running.
    pub error: Option<String>,
}

/// One committed round's measured slot costs, for the makespan model.
struct RoundCosts {
    /// Queue-planned round: each slot goes to the earliest-free core
    /// (greedy claim order). Otherwise each slot is charged to its
    /// stream's core (the fixed round-robin chunks).
    greedy: bool,
    /// `(stream, elapsed nanos)` per slot, in slot order.
    slots: Vec<(usize, u64)>,
}

/// Models the run's wall-clock on `workers` dedicated cores from the
/// measured per-slot costs. Per-core clocks persist across rounds, and
/// round k's slots start no earlier than the modelled finish of round
/// k - `depth`, whose commit dispatched it. At depth 1 that gate is the
/// previous round — a barrier every round, so the model is the sum of
/// per-round makespans; at depth 2 round k+1's stragglers overlap round
/// k+2. Purely a reporting model — scheduling decisions never read it.
///
/// Two invariants the scheduling-model tests rely on: every start time
/// is bounded by the current maximum clock (the gate is itself an
/// earlier clock value), so the makespan never exceeds the serial sum of
/// costs; and `workers x makespan >= busy`, since each core's clock
/// bounds its own work.
fn modelled_makespan(rounds: &[RoundCosts], workers: usize, depth: usize) -> u64 {
    let mut clocks = vec![0u64; workers];
    let mut finishes: Vec<u64> = Vec::with_capacity(rounds.len());
    for (k, round) in rounds.iter().enumerate() {
        let gate = k.checked_sub(depth).map_or(0, |g| finishes[g]);
        let mut finish = 0u64;
        for &(stream, cost) in &round.slots {
            let core = if round.greedy {
                (0..workers)
                    .min_by_key(|&w| clocks[w])
                    .expect("workers >= 1")
            } else {
                stream
            };
            clocks[core] = clocks[core].max(gate) + cost;
            finish = finish.max(clocks[core]);
        }
        finishes.push(finish);
    }
    clocks.into_iter().max().unwrap_or(0)
}

/// One three-phase pipeline iteration, run by a [`Worker`] for each slot
/// it executes. Dyn-dispatched on the backend: one virtual call per
/// *simulation*, noise against the simulation itself (measured by the
/// `backends` Criterion group).
#[allow(clippy::too_many_arguments)] // the iteration's full context, spelled out
fn run_iteration<V: CoverageView>(
    backend: &mut dyn SimBackend,
    opts: &FuzzerOptions,
    slot: usize,
    scheduled: Option<&Seed>,
    scenarios: &[u16],
    rng: &mut StdRng,
    view: &mut V,
    gain: &mut GainAverage,
) -> IterationOutcome {
    // A scheduled seed is borrowed for as long as it stays unmutated: the
    // outcome takes ownership exactly once, at whichever return point it
    // leaves through.
    let mut seed: Cow<'_, Seed> = match scheduled {
        Some(s) => Cow::Borrowed(s),
        None => {
            let window_type = crate::gen::draw_window_type(rng, scenarios);
            Cow::Owned(Seed::new(window_type, rng.gen()))
        }
    };
    let mut out = IterationOutcome {
        slot,
        stream: 0,
        elapsed_nanos: 0,
        view_setup_nanos: 0,
        // Placeholder until a return point takes ownership of the real
        // seed (the corpus policy reads it back from every outcome).
        seed: Seed::new(seed.window_type, 0),
        window_type: seed.window_type,
        triggered: false,
        to: 0,
        eto: 0,
        sim_runs: 0,
        sim_cycles: 0,
        gains: Vec::new(),
        final_gain: 0,
        fresh_points: Vec::new(),
        observed: CoverageMatrix::new(),
        bugs: Vec::new(),
        error: None,
    };

    let p1 = match phase1(backend, &seed, &opts.phases) {
        Ok(p1) => p1,
        Err(e) => {
            out.error = Some(e.to_string());
            out.seed = seed.into_owned();
            return out;
        }
    };
    out.sim_runs += p1.sim_runs;
    if !p1.triggered {
        out.seed = seed.into_owned();
        return out;
    }
    out.triggered = true;
    out.to = p1.to;
    out.eto = p1.eto;

    // Phase 2 with coverage feedback: mutate the window section while the
    // gain stays below the shared running average.
    let mut best = None;
    for attempt in 0..=opts.mutation_attempts {
        let mut sink = RecordingCoverage {
            view: &mut *view,
            recorded: &mut out.fresh_points,
            observed: &mut out.observed,
        };
        let p2 = match phase2(backend, &seed, &p1, &mut sink, &opts.phases) {
            Ok(p2) => p2,
            Err(e) => {
                out.error = Some(e.to_string());
                out.seed = seed.into_owned();
                return out;
            }
        };
        out.sim_runs += 1;
        out.sim_cycles += p2.run.total_cycles.0;
        let g = p2.coverage_gain as f64;
        let below_avg = g < gain.avg;
        let propagated = p2.taints_increased;
        gain.push(g);
        out.gains.push(g);
        out.final_gain = p2.coverage_gain;
        best = Some(p2);
        if !opts.coverage_feedback {
            break; // DejaVuzz⁻ takes whatever the first roll produced
        }
        if propagated && !below_avg {
            break;
        }
        if attempt < opts.mutation_attempts {
            seed = Cow::Owned(seed.mutate());
        }
    }
    let p2 = best.expect("at least one phase-2 attempt ran");
    out.seed = seed.into_owned();

    // Phase 3 only for cases that accessed and propagated the secret.
    if p2.taints_increased || opts.phases.mode == IftMode::Base {
        match phase3(backend, &p1, &p2, slot, &opts.phases) {
            Ok(p3) => {
                out.sim_runs += 1;
                let metrics = crate::metrics::handles();
                metrics
                    .phase3_rejected_residue_total
                    .add(p3.rejected_residue as u64);
                metrics
                    .phase3_rejected_sanitized_total
                    .add(p3.rejected_sanitized as u64);
                out.bugs = p3.leaks;
            }
            Err(e) => out.error = Some(e.to_string()),
        }
    }
    out
}

/// Folds an outcome's counters into campaign stats (curve, bugs, gain and
/// corpus handling stay with the caller, which knows the global ordering).
fn fold_outcome(stats: &mut CampaignStats, o: &IterationOutcome) {
    stats.iterations += 1;
    stats.sim_runs += o.sim_runs;
    stats.sim_cycles += o.sim_cycles;
    if o.error.is_some() {
        stats.failed_runs += 1;
    }
    let e = stats.windows.entry(o.window_type).or_default();
    e.attempted += 1;
    if o.triggered {
        e.triggered += 1;
        e.to_sum += o.to;
        e.eto_sum += o.eto;
    }
    for b in &o.bugs {
        if stats.first_bug_iteration.is_none() {
            stats.first_bug_iteration = Some(o.slot);
        }
        if !stats.bugs.iter().any(|x| x.dedup_key() == b.dedup_key()) {
            stats.bugs.push(b.clone());
        }
    }
}

/// Commits one outcome into the session, in global slot order: threshold,
/// corpus, curve, worker mirrors and observer events all update
/// deterministically regardless of arrival or claim order. Called only
/// from [`Orchestrator::run_observed`]'s commit path, at every pipeline
/// depth — the depth changes when a slot commits, never what committing
/// it does.
fn commit_outcome(
    s: &mut Session,
    feedback: bool,
    o: IterationOutcome,
    observers: &mut [Box<dyn CampaignObserver>],
) {
    // Telemetry re-uses the durations the report already measured — no
    // clock reads on the commit path, and the instruments are write-only
    // from the campaign's perspective (the off-commit-path contract).
    let metrics = crate::metrics::handles();
    metrics.slot_run_nanos.observe(o.elapsed_nanos);
    if o.view_setup_nanos > 0 {
        metrics.view_setup_nanos.observe(o.view_setup_nanos);
    }
    metrics.iterations_total.inc();
    metrics.sim_runs_total.add(o.sim_runs as u64);
    if matches!(o.window_type, WindowType::Scenario(_)) {
        metrics.scenario_slots_total.inc();
    }
    s.worker_iterations[o.stream] += 1;
    s.worker_observed[o.stream].merge(&o.observed);
    let bugs_before = s.stats.bugs.len();
    fold_outcome(&mut s.stats, &o);
    for g in &o.gains {
        s.gain.push(*g);
    }
    let mut global_fresh = Vec::new();
    for p in &o.fresh_points {
        // The log behind `global` doubles as the broadcast/gossip delta
        // source: every globally fresh point lands there in commit order.
        if s.global.insert(*p) {
            global_fresh.push(*p);
        }
    }
    s.stats.coverage_curve.push(s.global.points());
    metrics.coverage_points.set(s.global.points() as u64);
    if feedback {
        s.policy.record(
            &mut s.corpus,
            &SlotFeedback {
                seed: &o.seed,
                window_type: o.window_type,
                gain: o.final_gain,
                global_fresh: &global_fresh,
                cost: o.to as u64,
            },
        );
    }
    if !observers.is_empty() {
        let total_points = s.global.points();
        let slot_ev = SlotCommitted {
            slot: o.slot,
            stream: o.stream,
            window_type: o.window_type,
            triggered: o.triggered,
            to: o.to,
            eto: o.eto,
            sim_runs: o.sim_runs,
            final_gain: o.final_gain,
            fresh_points: global_fresh.len(),
            total_points,
            error: o.error.clone(),
        };
        for obs in observers.iter_mut() {
            obs.slot_committed(&slot_ev);
        }
        if !global_fresh.is_empty() {
            let cov_ev = CoverageGained {
                slot: o.slot,
                points: &global_fresh,
                total_points,
            };
            for obs in observers.iter_mut() {
                obs.coverage_gained(&cov_ev);
            }
        }
        for bug in &s.stats.bugs[bugs_before..] {
            let bug_ev = BugFound {
                slot: o.slot,
                bug: bug.clone(),
            };
            for obs in observers.iter_mut() {
                obs.bug_found(&bug_ev);
            }
        }
    }
}

/// One round's work for one worker, with the round-start state it runs
/// against.
struct Dispatch {
    work: Work,
    /// Round-start global gain threshold.
    avg: f64,
    samples: usize,
    /// Globally fresh points discovered since this worker's last round.
    delta: Vec<CoveragePoint>,
}

enum Work {
    /// This worker's fixed batch ([`crate::scheduler::RoundPlan::Batches`]).
    Batch(Vec<crate::scheduler::WorkItem>),
    /// The round's shared claim queue
    /// ([`crate::scheduler::RoundPlan::Queue`]).
    Queue(Arc<StealQueue>),
}

/// The shared claim queue of a work-stealing round: pre-drawn slots,
/// claimed in index order by whichever worker is idle.
struct StealQueue {
    slots: Vec<PlannedSlot>,
    next: AtomicUsize,
}

/// Results from one worker: a whole batch's outcomes plus the stream
/// state the orchestrator mirrors for snapshots, or a single stolen
/// slot's outcome, sent the moment it finishes.
struct RoundReply {
    worker: usize,
    outcomes: Vec<IterationOutcome>,
    /// The worker's RNG position after finishing the batch. `None` for
    /// stolen slots, whose workers never draw (the orchestrator's
    /// plan-time mirrors are authoritative).
    rng: Option<[u64; 4]>,
}

/// A worker's end-of-run accounting.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Worker index within the pool.
    pub worker: usize,
    /// Iterations this worker executed (including, on resumed runs, the
    /// iterations it executed before the snapshot).
    pub iterations: usize,
    /// Every coverage point this worker itself observed (the union of
    /// these matrices across workers is exactly the pool's final
    /// coverage — asserted by the pipeline tests).
    pub observed: CoverageMatrix,
}

/// A pipeline worker: owns its simulator backend, its RNG stream and its
/// deterministic view of the global coverage.
struct Worker {
    id: usize,
    backend: Box<dyn SimBackend>,
    opts: FuzzerOptions,
    rng: StdRng,
    view: CoverageMatrix,
    /// Active scenario-instance indices for fresh-seed draws (sorted by
    /// canonical spec; empty without `--scenarios`).
    scenarios: Vec<u16>,
}

impl Worker {
    /// Runs dispatched rounds until the stop signal (`None`) or until the
    /// orchestrator goes away.
    fn run(mut self, rx: mpsc::Receiver<Option<Dispatch>>, tx: mpsc::Sender<RoundReply>) {
        while let Ok(Some(round)) = rx.recv() {
            for p in &round.delta {
                self.view.insert(*p);
            }
            let gain = GainAverage {
                avg: round.avg,
                samples: round.samples,
            };
            let delivered = match round.work {
                Work::Batch(items) => tx.send(self.run_batch(items, gain)).is_ok(),
                Work::Queue(queue) => self.run_steal(&queue, gain, &tx),
            };
            if !delivered {
                return;
            }
        }
    }

    /// One fixed-batch round: the classic chained protocol — this
    /// worker's RNG stream, its long-lived coverage view and its in-round
    /// gain samples thread through the batch's slots in order.
    ///
    /// The worker's threshold starts from the global round-start average
    /// and folds in its own in-round samples; the orchestrator recomputes
    /// the exact global sequence at commit.
    fn run_batch(
        &mut self,
        items: Vec<crate::scheduler::WorkItem>,
        mut gain: GainAverage,
    ) -> RoundReply {
        let mut outcomes = Vec::with_capacity(items.len());
        for item in items {
            let start = Instant::now();
            let mut out = run_iteration(
                self.backend.as_mut(),
                &self.opts,
                item.slot,
                item.scheduled.as_ref(),
                &self.scenarios,
                &mut self.rng,
                &mut self.view,
                &mut gain,
            );
            out.stream = self.id;
            out.elapsed_nanos = start.elapsed().as_nanos() as u64;
            outcomes.push(out);
        }
        RoundReply {
            worker: self.id,
            outcomes,
            rng: Some(self.rng.state()),
        }
    }

    /// One work-stealing round: claim pre-drawn slots from the shared
    /// queue until it drains. Every slot runs against a private view of
    /// the round-start state and a per-slot gain threshold, so its
    /// outcome is independent of what any concurrent slot — on this
    /// worker or another — is doing (see the `scheduler` module docs for
    /// the determinism argument).
    ///
    /// The round-start view is frozen once into an `Arc` base and each
    /// slot gets an [`OverlayCoverage`] over it, costing O(points that
    /// slot finds) where a per-slot clone would cost O(coverage space).
    /// The freeze is free: `mem::take` out, `Arc::try_unwrap` back in
    /// (no slot view outlives the loop).
    ///
    /// Each outcome is sent on `tx` as its own single-slot [`RoundReply`]
    /// the moment it finishes, so the orchestrator commits the contiguous
    /// slot prefix while stragglers still run. Returns false once the
    /// orchestrator has gone away.
    fn run_steal(
        &mut self,
        queue: &StealQueue,
        gain: GainAverage,
        tx: &mpsc::Sender<RoundReply>,
    ) -> bool {
        let base = Arc::new(std::mem::take(&mut self.view));
        let mut delivered = true;
        while delivered {
            let claim = queue.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = queue.slots.get(claim) else {
                break;
            };
            let setup = Instant::now();
            let mut slot_view = OverlayCoverage::new(Arc::clone(&base));
            let view_setup_nanos = setup.elapsed().as_nanos() as u64;
            let mut slot_gain = gain;
            let start = Instant::now();
            let mut out = run_iteration(
                self.backend.as_mut(),
                &self.opts,
                item.slot,
                Some(&item.seed),
                &self.scenarios,
                &mut self.rng, // never drawn from: the seed is pre-drawn
                &mut slot_view,
                &mut slot_gain,
            );
            out.stream = item.stream;
            out.elapsed_nanos = start.elapsed().as_nanos() as u64;
            out.view_setup_nanos = view_setup_nanos;
            delivered = tx
                .send(RoundReply {
                    worker: self.id,
                    outcomes: vec![out],
                    rng: None,
                })
                .is_ok();
        }
        self.view = Arc::try_unwrap(base).unwrap_or_else(|a| (*a).clone());
        delivered
    }
}

/// Results of a pool run.
#[derive(Clone, Debug)]
pub struct ExecutorReport {
    /// Merged campaign stats with the *exact* global coverage curve.
    pub stats: CampaignStats,
    /// The final global coverage (union of all observations).
    pub coverage: CoverageMatrix,
    /// Per-worker accounting.
    pub workers: Vec<WorkerSummary>,
    /// Seeds the corpus retained over the run.
    pub corpus_retained: usize,
    /// Seeds the corpus evicted for capacity.
    pub corpus_evicted: usize,
    /// Sum of per-iteration wall-clock across all workers (the run's
    /// total simulation work).
    pub busy_nanos: u64,
    /// Modelled wall-clock of the run on `workers` dedicated cores: per
    /// round, the makespan of the scheduler's slot distribution over the
    /// measured per-slot costs (fixed chunks for round robin, greedy
    /// claim order for work stealing; with pipelining, rounds overlap —
    /// round k's slots are gated only on round k-2's modelled finish).
    /// Machine-load-independent — this is the number the scheduler
    /// comparison benches report, since on an oversubscribed host the
    /// wall clock cannot show barrier idling.
    pub modelled_makespan_nanos: u64,
    /// Modelled core-idle time: `workers x modelled_makespan - busy`.
    /// Under barriered rounds this is dominated by workers waiting at the
    /// round barrier for the straggler slot; the cross-round pipeline
    /// exists to drive it towards zero.
    pub barrier_idle_nanos: u64,
    /// Total wall-clock spent constructing per-slot coverage views (the
    /// steal-mode overlay setup). With the two-level view this stays
    /// O(points found), independent of total coverage-space size.
    pub view_setup_nanos: u64,
}

/// The orchestrator's mutable mid-run state: everything a
/// [`CampaignSnapshot`] captures and a resume restores.
struct Session {
    corpus: Corpus,
    scheduler: Box<dyn Scheduler>,
    policy: Box<dyn SeedPolicy>,
    sched_rng: StdRng,
    gain: GainAverage,
    global: CoverageLog,
    stats: CampaignStats,
    worker_rngs: Vec<[u64; 4]>,
    worker_iterations: Vec<usize>,
    worker_observed: Vec<CoverageMatrix>,
}

/// Per-run gossip bookkeeping: the cursor into the global discovery log
/// up to which this shard has already published, plus the set of points
/// that arrived *from* peers — exported deltas filter those out, so a
/// point never echoes back to the mesh that delivered it.
#[derive(Default)]
struct GossipState {
    published: usize,
    imported: HashSet<CoveragePoint>,
}

/// One dispatched-but-not-fully-committed round.
struct InFlight {
    first_slot: usize,
    len: usize,
    /// Dispatch-time gain threshold.
    avg: f64,
    samples: usize,
    /// A queue-planned round's shared claim queue (its pre-drawn slots
    /// are what a checkpoint persists); `None` for batch plans, which
    /// never run pipelined.
    queue: Option<Arc<StealQueue>>,
    /// The global log watermark at dispatch: the delta from here is what
    /// a checkpoint must record as `view_behind`.
    log_mark: usize,
}

impl InFlight {
    /// The snapshot form of this round.
    fn to_pending(&self, log: &CoverageLog) -> PendingRound {
        PendingRound {
            first_slot: self.first_slot,
            slots: self
                .queue
                .as_ref()
                .expect("only queue-planned rounds are pipelined")
                .slots
                .clone(),
            avg: self.avg,
            samples: self.samples,
            view_behind: log.delta_since(self.log_mark).to_vec(),
        }
    }
}

/// The worker threads and the orchestrator's ends of their channels.
struct Pool {
    /// `None` is the stop signal.
    to_workers: Vec<mpsc::Sender<Option<Dispatch>>>,
    from_workers: mpsc::Receiver<RoundReply>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Per-worker cursors into the global discovery log, driving the
    /// dispatch-time view broadcasts.
    synced: Vec<usize>,
}

impl Pool {
    /// Ships a planned round. With `broadcast`, every message carries the
    /// globally fresh points since that worker's last round (advancing
    /// its cursor); otherwise the deltas are empty. Returns the claim
    /// queue of a queue-shaped plan.
    fn ship(
        &mut self,
        plan: RoundPlan,
        avg: f64,
        samples: usize,
        log: &CoverageLog,
        broadcast: bool,
    ) -> Option<Arc<StealQueue>> {
        let (work, queue): (Vec<Option<Work>>, _) = match plan {
            RoundPlan::Batches(batches) => (
                batches
                    .into_iter()
                    .map(|items| (!items.is_empty()).then_some(Work::Batch(items)))
                    .collect(),
                None,
            ),
            RoundPlan::Queue(slots) => {
                let queue = Arc::new(StealQueue {
                    slots,
                    next: AtomicUsize::new(0),
                });
                let work = (0..self.to_workers.len())
                    .map(|_| Some(Work::Queue(Arc::clone(&queue))))
                    .collect();
                (work, Some(queue))
            }
        };
        for (w, work) in work.into_iter().enumerate() {
            let Some(work) = work else { continue };
            let mut delta = Vec::new();
            if broadcast {
                delta = log.delta_since(self.synced[w]).to_vec();
                self.synced[w] = log.watermark();
            }
            let round = Dispatch {
                work,
                avg,
                samples,
                delta,
            };
            self.to_workers[w]
                .send(Some(round))
                .expect("worker hung up mid-run");
        }
        queue
    }

    /// Stops and joins every worker. Outcomes still in flight are
    /// dropped with the reply channel.
    fn stop(self) {
        for to_worker in &self.to_workers {
            let _ = to_worker.send(None);
        }
        for h in self.handles {
            h.join().expect("worker panicked");
        }
    }
}

/// The pool coordinator: a fully validated campaign, ready to run. Built
/// exclusively by [`CampaignBuilder`] (which owns all configuration and
/// validation); see the module docs for the round protocol and the
/// determinism/resume contracts.
///
/// Cloneable: the persistence tests re-run one configuration with
/// different halt points by cloning the orchestrator (captured extension
/// constructors are shared, not re-resolved).
#[derive(Clone)]
pub struct Orchestrator {
    pub(crate) backend: BackendSpec,
    pub(crate) backend_ctor: Option<BackendCtor>,
    /// The worker-process pool a `proc:<inner>:<M>` backend's threads
    /// share, spawned (and handshaked) once by the builder. `None` for
    /// in-process backends.
    pub(crate) proc: Option<crate::procbackend::ProcShared>,
    pub(crate) opts: FuzzerOptions,
    pub(crate) workers: usize,
    pub(crate) seed: u64,
    pub(crate) batch: usize,
    pub(crate) pipeline_lag: usize,
    pub(crate) scheduler: SchedulerSpec,
    pub(crate) scheduler_ctor: Option<SchedulerCtor>,
    pub(crate) policy: PolicySpec,
    pub(crate) policy_ctor: Option<PolicyCtor>,
    pub(crate) corpus_capacity: usize,
    pub(crate) corpus_exploit: f64,
    pub(crate) shard_id: u32,
    pub(crate) snapshot_every: usize,
    /// Active scenario specs, canonical and sorted (the cross-process
    /// identity persisted in snapshots), and their process-local intern
    /// indices in the same order (what the hot paths carry).
    pub(crate) scenario_specs: Vec<String>,
    pub(crate) scenarios: Vec<u16>,
    pub(crate) snapshot_path: Option<PathBuf>,
    pub(crate) snapshot_keep: usize,
    pub(crate) halt_after: Option<usize>,
    pub(crate) resume: Option<Box<CampaignSnapshot>>,
    /// Gossip exchange cadence in rounds (0 = no gossip). Set together
    /// with `gossip` by the builder, never independently.
    pub(crate) gossip_every: usize,
    /// The link this shard publishes frames on and drains peer frames
    /// from at gossip boundaries. `None` runs byte-identically to a
    /// build without the fleet layer.
    pub(crate) gossip: Option<SharedGossipLink>,
}

impl fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orchestrator")
            .field("backend", &self.backend.label())
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("batch", &self.batch)
            .field("pipeline_lag", &self.pipeline_lag)
            .field("scheduler", &self.scheduler)
            .field("policy", &self.policy)
            .field("shard_id", &self.shard_id)
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// SplitMix64: decorrelates the per-worker and scheduler RNG streams
    /// from the user seed.
    fn stream_seed(&self, stream: u64) -> u64 {
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One simulator instance (one per worker thread), through the
    /// captured extension constructor when the spec names one. For proc
    /// backends every instance is a cheap handle onto the one shared
    /// worker-process pool — `BackendSpec::build` would spawn a fresh
    /// pool per thread.
    fn build_backend(&self) -> Box<dyn SimBackend> {
        if let Some(shared) = &self.proc {
            return Box::new(crate::procbackend::ProcBackend::from_shared(shared.clone()));
        }
        match &self.backend_ctor {
            Some(ctor) => ctor(),
            None => self.backend.build(),
        }
    }

    /// How many executor threads to spawn: at least the logical worker
    /// count, and for a proc backend at least the pool size, so `M`
    /// worker processes all get a claiming thread even when the campaign
    /// geometry says fewer logical workers. The extra threads never draw
    /// from a logical RNG stream and never commit under their own id —
    /// under steal scheduling they only claim pre-drawn slots, so
    /// results stay those of the *logical* geometry.
    fn physical_workers(&self) -> usize {
        match &self.backend {
            BackendSpec::Proc(spec) => self.workers.max(spec.pool),
            _ => self.workers,
        }
    }

    /// A fresh scheduler instance, rehydrating extension state on resume.
    fn build_scheduler(&self, state: Option<&[u8]>) -> Box<dyn Scheduler> {
        match &self.scheduler_ctor {
            Some(ctor) => ctor(state),
            None => self
                .scheduler
                .build(state)
                .expect("built-in scheduler specs build infallibly"),
        }
    }

    /// A fresh policy instance, rehydrating persisted state on resume.
    fn build_policy(&self, state: Option<&PolicyState>) -> Box<dyn SeedPolicy> {
        match &self.policy_ctor {
            Some(ctor) => {
                let blob = match state {
                    Some(PolicyState::Opaque(b)) => Some(b.as_slice()),
                    _ => None,
                };
                ctor(blob)
            }
            None => self
                .policy
                .build(state)
                .expect("built-in policy specs build infallibly"),
        }
    }

    /// Fresh session state, or the snapshot's if this is a resume.
    fn session(&self) -> (Session, usize) {
        if let Some(snap) = &self.resume {
            let s = Session {
                corpus: snap.corpus.clone(),
                scheduler: self.build_scheduler(Some(&snap.scheduler_state)),
                policy: self.build_policy(Some(&snap.policy_state)),
                sched_rng: StdRng::from_raw_state(snap.sched_rng),
                gain: GainAverage {
                    avg: snap.gain_avg,
                    samples: snap.gain_samples,
                },
                global: CoverageLog::seeded(snap.coverage.clone()),
                stats: snap.stats.clone(),
                worker_rngs: snap.worker_states.iter().map(|w| w.rng).collect(),
                worker_iterations: snap.worker_states.iter().map(|w| w.iterations).collect(),
                worker_observed: snap
                    .worker_states
                    .iter()
                    .map(|w| w.observed.clone())
                    .collect(),
            };
            (s, snap.completed)
        } else {
            // Corpus retention/scheduling IS coverage feedback: the
            // DejaVuzz⁻ ablation (coverage_feedback = false) must run
            // without any coverage-driven state, so its corpus explores
            // unconditionally and retains nothing.
            let exploit = if self.opts.coverage_feedback {
                self.corpus_exploit
            } else {
                0.0
            };
            let s = Session {
                corpus: Corpus::new(self.corpus_capacity).with_exploit_probability(exploit),
                scheduler: self.build_scheduler(None),
                policy: self.build_policy(None),
                sched_rng: StdRng::seed_from_u64(self.stream_seed(0)),
                gain: GainAverage::default(),
                global: CoverageLog::new(),
                stats: CampaignStats::default(),
                worker_rngs: (0..self.workers)
                    .map(|id| StdRng::seed_from_u64(self.stream_seed(1 + id as u64)).state())
                    .collect(),
                worker_iterations: vec![0; self.workers],
                worker_observed: vec![CoverageMatrix::new(); self.workers],
            };
            (s, 0)
        }
    }

    /// Captures the session at a commit boundary. `pending` is the
    /// pipelined round already dispatched but not yet committed (if any):
    /// it ships with the snapshot so a resume re-dispatches exactly the
    /// same pre-drawn plan instead of re-planning (which would double-draw
    /// the scheduler RNG and double-decay the corpus).
    fn snapshot_of(&self, s: &Session, pending: Option<PendingRound>) -> CampaignSnapshot {
        CampaignSnapshot {
            shard_id: self.shard_id,
            backend: self.backend.label(),
            workers: self.workers,
            seed: self.seed,
            batch: self.batch,
            pipeline_lag: self.pipeline_lag,
            pending,
            scenarios: self.scenario_specs.clone(),
            scheduler: self.scheduler.clone(),
            scheduler_state: s.scheduler.state(),
            policy: self.policy.clone(),
            policy_state: s.policy.state(),
            opts: self.opts,
            completed: s.stats.iterations,
            gain_avg: s.gain.avg,
            gain_samples: s.gain.samples,
            sched_rng: s.sched_rng.state(),
            corpus: s.corpus.clone(),
            coverage: s.global.matrix().clone(),
            stats: s.stats.clone(),
            worker_states: (0..self.workers)
                .map(|i| WorkerState {
                    rng: s.worker_rngs[i],
                    iterations: s.worker_iterations[i],
                    observed: s.worker_observed[i].clone(),
                })
                .collect(),
        }
    }

    /// Writes a checkpoint. Periodic checkpoints rotate into
    /// `<path>.<iterations>` siblings when [`Orchestrator::snapshot_keep`]
    /// is set, pruning older rounds only after the new file landed
    /// (atomically), so a multi-day campaign keeps a bounded trail of
    /// resumable round checkpoints instead of one overwritten file or an
    /// unbounded pile.
    fn write_checkpoint(
        &self,
        s: &Session,
        pending: Option<PendingRound>,
        periodic: bool,
        observers: &mut [Box<dyn CampaignObserver>],
    ) {
        let Some(path) = &self.snapshot_path else {
            return;
        };
        let snap = self.snapshot_of(s, pending);
        let rotate = periodic && self.snapshot_keep > 0;
        let target = if rotate {
            dejavuzz_persist::rotated_path(path, snap.completed as u64)
        } else {
            path.clone()
        };
        let write_span =
            dejavuzz_telemetry::Timer::start(&crate::metrics::handles().snapshot_write_nanos);
        if let Err(e) = snap.save(&target) {
            write_span.finish();
            // A failed checkpoint must not kill a running campaign:
            // warn and fuzz on; the next interval retries.
            eprintln!(
                "dejavuzz: checkpoint write to {} failed: {e}",
                target.display()
            );
            return;
        }
        write_span.finish();
        crate::metrics::handles().snapshots_total.inc();
        if rotate {
            if let Err(e) = dejavuzz_persist::prune_rotated(path, self.snapshot_keep) {
                eprintln!(
                    "dejavuzz: pruning rotated checkpoints of {} failed: {e}",
                    path.display()
                );
            }
        }
        let ev = SnapshotWritten {
            path: &target,
            iterations: snap.completed,
            periodic,
        };
        for obs in observers.iter_mut() {
            obs.snapshot_written(&ev);
        }
    }

    /// One gossip exchange at a round boundary: publish this shard's
    /// coverage delta (filtered of points that themselves arrived from
    /// peers) plus its top-energy corpus entries, then import every
    /// queued peer frame — points into the global union, seeds into the
    /// corpus — firing one [`PeerDeltaImported`] per frame and one
    /// [`SeedImported`] per accepted seed. Every cross-shard import is
    /// therefore an explicit, logged observer event at a deterministic
    /// commit point; with no link configured this is never called and
    /// the campaign is byte-identical to a build without gossip.
    fn gossip_exchange(
        &self,
        s: &mut Session,
        gst: &mut GossipState,
        feedback: bool,
        observers: &mut [Box<dyn CampaignObserver>],
    ) {
        let Some(link) = &self.gossip else {
            return;
        };
        let metrics = crate::metrics::handles();
        let _exchange_span = dejavuzz_telemetry::Timer::start(&metrics.gossip_exchange_nanos);
        // Export first: the frame carries exactly what this shard itself
        // discovered since the last exchange, in discovery order.
        let delta: Vec<CoveragePoint> = s
            .global
            .delta_since(gst.published)
            .iter()
            .filter(|p| !gst.imported.contains(p))
            .copied()
            .collect();
        gst.published = s.global.watermark();
        // The favoured corpus slice: highest current energy wins; the
        // sort is stable over the corpus's deterministic retention order,
        // so ties break identically run over run.
        let mut ranked: Vec<&CorpusEntry> = s.corpus.entries().iter().collect();
        ranked.sort_by(|a, b| {
            b.energy()
                .partial_cmp(&a.energy())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let favoured: Vec<CorpusEntry> = ranked
            .into_iter()
            .take(FAVOURED_PER_FRAME)
            .cloned()
            .collect();
        metrics.gossip_points_out_total.add(delta.len() as u64);
        let frame = GossipFrame {
            shard: self.shard_id,
            iterations: s.stats.iterations,
            delta,
            favoured,
        };
        let frames = {
            let mut link = link.lock().expect("gossip link poisoned");
            link.publish(&frame);
            link.drain()
        };
        // Import at the boundary: the next round's view broadcasts pick
        // the fresh points up through the discovery log, so worker views
        // still equal the global union at every round boundary.
        for f in frames {
            if f.shard == self.shard_id {
                continue; // self-echo from a loopback topology
            }
            let mut fresh = 0usize;
            for p in &f.delta {
                if s.global.insert(*p) {
                    fresh += 1;
                    gst.imported.insert(*p);
                }
            }
            metrics.gossip_frames_in_total.inc();
            metrics.gossip_points_in_total.add(fresh as u64);
            let ev = PeerDeltaImported {
                from_shard: f.shard,
                peer_iterations: f.iterations,
                boundary: s.stats.iterations,
                points: f.delta.len(),
                fresh_points: fresh,
                total_points: s.global.points(),
            };
            for obs in observers.iter_mut() {
                obs.peer_delta_imported(&ev);
            }
            // Seeds are coverage feedback: the DejaVuzz⁻ ablation must
            // not smuggle peer guidance in through the side door.
            if feedback {
                for e in &f.favoured {
                    s.corpus.record(&e.seed, e.gain);
                    let sev = SeedImported {
                        from_shard: f.shard,
                        boundary: s.stats.iterations,
                        window_type: e.seed.window_type,
                        entropy: e.seed.entropy,
                        gain: e.gain,
                    };
                    for obs in observers.iter_mut() {
                        obs.seed_imported(&sev);
                    }
                }
            }
        }
    }

    /// Runs the pool until `iterations` total campaign iterations have
    /// completed (on resumed runs that *includes* the snapshot's
    /// iterations), returning the report. See the module docs for the
    /// determinism and resume-equivalence contracts.
    pub fn run(&self, iterations: usize) -> ExecutorReport {
        self.run_observed(iterations, &mut []).0
    }

    /// [`Orchestrator::run`], also returning the end-of-run
    /// [`CampaignSnapshot`] (the state a later
    /// [`crate::builder::CampaignBuilder::resume`] continues from). This
    /// is the in-memory checkpointing path; file-based checkpointing
    /// goes through [`crate::builder::CampaignBuilder::snapshot_path`].
    pub fn run_snapshotting(&self, iterations: usize) -> (ExecutorReport, CampaignSnapshot) {
        self.run_observed(iterations, &mut [])
    }

    /// [`Orchestrator::run_snapshotting`] with a
    /// [`CampaignObserver`] event stream: every observer is invoked at
    /// the orchestrator's deterministic commit points (never from worker
    /// threads), so for a fixed configuration the full event sequence —
    /// kinds and payloads — is reproducible run over run and
    /// concatenates seamlessly across a halt/resume boundary (asserted
    /// by `tests/observer.rs`). Wall-clock appears only in
    /// [`CampaignFinished::elapsed`].
    ///
    /// # The round loop
    ///
    /// The orchestrator keeps `depth` rounds in flight: one with
    /// pipelining off (`pipeline_lag == 0`, a barrier per round), two with
    /// any `lag >= 1`. It commits the contiguous slot prefix as replies
    /// arrive; once the front round is fully committed, its boundary
    /// actions (gossip, checkpoint, halt check) run and the next round is
    /// planned from the committed state and dispatched — at depth 2 while
    /// the round behind is still running, so no worker idles at a barrier.
    /// The price is a deterministic feedback lag: round k is planned from
    /// the state committed through round k-2. One round is the minimum lag
    /// that removes the barrier, so every `lag >= 1` behaves identically,
    /// and results stay a pure function of `(seed, workers, batch, lag)`
    /// (asserted by `tests/scheduler.rs`).
    ///
    /// Checkpoints carry the in-flight round's pre-drawn plan
    /// ([`PendingRound`]), so a resume re-dispatches exactly that plan and
    /// splices bit-identically (asserted by `tests/persist.rs`). The halt
    /// is checked before every dispatch, the first included: a run already
    /// at its halt point dispatches nothing, and carries a resumed pending
    /// round unchanged into its snapshot.
    pub fn run_observed(
        &self,
        iterations: usize,
        observers: &mut [Box<dyn CampaignObserver>],
    ) -> (ExecutorReport, CampaignSnapshot) {
        let run_start = Instant::now();
        let (mut s, start) = self.session();
        let mut resumed_pending = self.resume.as_ref().and_then(|snap| snap.pending.clone());
        let depth = if self.pipeline_lag == 0 { 1 } else { 2 };

        // At a round boundary every worker's view equals the global union
        // (see the module docs). With a pending round in flight, views
        // must instead match their state at its dispatch: the union
        // *minus* the points committed after that dispatch
        // (`view_behind`). Those are replayed into the discovery log,
        // whose per-worker cursors all start at zero: the pending round
        // re-ships with empty deltas, and the next planned round picks
        // the replayed points up — exactly the delta the uninterrupted
        // run broadcast at that boundary. (On resume the log otherwise
        // starts empty, `CoverageLog::seeded`, since every view already
        // holds the restored union.)
        let mut spawn_view = s.global.matrix().clone();
        if let Some(p) = &resumed_pending {
            for point in &p.view_behind {
                spawn_view.remove(point);
            }
            s.global.replay(&p.view_behind);
        }
        let mut pool = self.spawn_pool(&s, &spawn_view);
        let mut gossip_state = GossipState {
            // Replayed points were already published before the halt;
            // start the export cursor past them.
            published: s.global.watermark(),
            imported: HashSet::new(),
        };
        let halt = self.halt_after.unwrap_or(usize::MAX);
        let feedback = self.opts.coverage_feedback;
        let metrics = crate::metrics::handles();
        let mut view_setup_nanos = 0u64;

        let mut next_slot = start;
        let mut rounds = 0usize;
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut round_costs: Vec<RoundCosts> = Vec::new();
        let mut buffered: BTreeMap<usize, IterationOutcome> = BTreeMap::new();
        let mut committed_through = start;
        while s.stats.iterations < halt {
            // Top the pipeline up (a resumed pending round is due even
            // past the budget: it was planned within the original one).
            while in_flight.len() < depth && (resumed_pending.is_some() || next_slot < iterations) {
                let round = self.dispatch(
                    &mut s,
                    &mut pool,
                    resumed_pending.take(),
                    next_slot..iterations,
                    observers,
                );
                next_slot = round.first_slot + round.len;
                in_flight.push_back(round);
            }
            let Some(front) = in_flight.front() else {
                break;
            };
            let end_of_front = front.first_slot + front.len;
            let mut costs = RoundCosts {
                greedy: front.queue.is_some(),
                slots: Vec::with_capacity(front.len),
            };
            // Commit the front round to completion; outcomes from the
            // round behind it buffer until the boundary actions ran.
            while committed_through < end_of_front {
                if let Some(o) = buffered.remove(&committed_through) {
                    costs.slots.push((o.stream, o.elapsed_nanos));
                    view_setup_nanos += o.view_setup_nanos;
                    commit_outcome(&mut s, feedback, o, observers);
                    committed_through += 1;
                    continue;
                }
                // The wait for the next contiguous slot: the barrier wait
                // at depth 1, the pipeline's stall at depth 2 (outcomes
                // may buffer out of order, but commit cannot pass a gap).
                let stall = dejavuzz_telemetry::Timer::start(&metrics.commit_stall_nanos);
                let reply = pool.from_workers.recv().expect("worker hung up mid-run");
                stall.finish();
                if let Some(rng) = reply.rng {
                    s.worker_rngs[reply.worker] = rng;
                }
                for o in reply.outcomes {
                    buffered.insert(o.slot, o);
                }
                metrics.commit_queue_depth.set(buffered.len() as u64);
            }

            // Boundary: the front round is fully committed, in order.
            in_flight.pop_front();
            round_costs.push(costs);
            rounds += 1;
            if self.gossip_every > 0 && rounds.is_multiple_of(self.gossip_every) {
                self.gossip_exchange(&mut s, &mut gossip_state, feedback, observers);
            }
            if self.snapshot_every > 0 && rounds.is_multiple_of(self.snapshot_every) {
                let pending = in_flight.front().map(|f| f.to_pending(&s.global));
                self.write_checkpoint(&s, pending, true, observers);
            }
        }
        // A halted run abandons the in-flight round's outcomes: its
        // pre-drawn plan rides in the snapshot and a resume re-executes
        // it deterministically.
        pool.stop();

        let pending = match in_flight.front() {
            Some(f) => Some(f.to_pending(&s.global)),
            None => resumed_pending,
        };
        // Always leave a final checkpoint behind: a halted run's snapshot
        // is exactly what `--resume` continues from.
        self.write_checkpoint(&s, pending.clone(), false, observers);
        let snapshot = self.snapshot_of(&s, pending);

        let busy_nanos = round_costs.iter().flat_map(|r| &r.slots).map(|s| s.1).sum();
        let makespan_nanos = modelled_makespan(&round_costs, self.workers, depth);
        let workers = (0..self.workers)
            .map(|i| WorkerSummary {
                worker: i,
                iterations: s.worker_iterations[i],
                observed: s.worker_observed[i].clone(),
            })
            .collect();
        let report = ExecutorReport {
            stats: s.stats,
            coverage: s.global.into_matrix(),
            workers,
            corpus_retained: s.corpus.retained(),
            corpus_evicted: s.corpus.evicted(),
            busy_nanos,
            modelled_makespan_nanos: makespan_nanos,
            barrier_idle_nanos: (self.workers as u64 * makespan_nanos).saturating_sub(busy_nanos),
            view_setup_nanos,
        };
        crate::metrics::record_report(&report);
        let finished = CampaignFinished {
            report: &report,
            elapsed: run_start.elapsed(),
        };
        for obs in observers.iter_mut() {
            obs.campaign_finished(&finished);
        }
        (report, snapshot)
    }

    /// Spawns one worker thread per physical worker, each starting from
    /// `view` and its logical stream's mirrored state.
    fn spawn_pool(&self, s: &Session, view: &CoverageMatrix) -> Pool {
        let (from_tx, from_workers) = mpsc::channel();
        let physical = self.physical_workers();
        let mut to_workers = Vec::with_capacity(physical);
        let mut handles = Vec::with_capacity(physical);
        for id in 0..physical {
            let (to_tx, to_rx) = mpsc::channel();
            let logical = id < self.workers;
            let worker = Worker {
                id,
                backend: self.build_backend(),
                opts: self.opts,
                // Extra proc-pool claimer threads (id >= workers) get a
                // decorrelated stream of their own; it is never drawn —
                // steal work runs entirely on pre-drawn slot state — so
                // it exists only to satisfy the Worker shape.
                rng: if logical {
                    StdRng::from_raw_state(s.worker_rngs[id])
                } else {
                    StdRng::seed_from_u64(self.stream_seed(1 + id as u64))
                },
                view: view.clone(),
                scenarios: self.scenarios.clone(),
            };
            let from_tx = from_tx.clone();
            handles.push(thread::spawn(move || worker.run(to_rx, from_tx)));
            to_workers.push(to_tx);
        }
        Pool {
            to_workers,
            from_workers,
            handles,
            synced: vec![0; physical],
        }
    }

    /// Dispatches the round starting at `slots.start` and fires its
    /// [`RoundStarted`]. A resumed `pending` round re-ships verbatim —
    /// same pre-drawn slots, same dispatch-time threshold, empty view
    /// deltas (its views were current at its original dispatch);
    /// otherwise the scheduler plans a round from the committed state.
    fn dispatch(
        &self,
        s: &mut Session,
        pool: &mut Pool,
        pending: Option<PendingRound>,
        slots: Range<usize>,
        observers: &mut [Box<dyn CampaignObserver>],
    ) -> InFlight {
        let (plan, len, avg, samples, broadcast) = match pending {
            Some(p) => {
                debug_assert_eq!(p.first_slot, slots.start, "pending resumes at the frontier");
                let len = p.slots.len();
                (RoundPlan::Queue(p.slots), len, p.avg, p.samples, false)
            }
            None => {
                let span = s
                    .scheduler
                    .round_span(self.workers, self.batch, slots.len());
                let _plan_span =
                    dejavuzz_telemetry::Timer::start(&crate::metrics::handles().plan_nanos);
                // Disjoint field borrows: the scheduler plans over the
                // rest of the session state.
                let Session {
                    scheduler,
                    corpus,
                    policy,
                    sched_rng,
                    worker_rngs,
                    ..
                } = &mut *s;
                let mut ctx = PlanCtx {
                    corpus,
                    policy: policy.as_mut(),
                    sched_rng,
                    worker_rngs,
                    workers: self.workers,
                    batch: self.batch,
                    scenarios: &self.scenarios,
                };
                let plan = scheduler.plan_round(slots.start..slots.start + span, &mut ctx);
                (plan, span, s.gain.avg, s.gain.samples, true)
            }
        };
        let round_ev = RoundStarted {
            first_slot: slots.start,
            slots: len,
            gain_threshold_samples: samples,
        };
        for obs in observers.iter_mut() {
            obs.round_started(&round_ev);
        }
        let queue = pool.ship(plan, avg, samples, &s.global, broadcast);
        InFlight {
            first_slot: slots.start,
            len,
            avg,
            samples,
            queue,
            log_mark: s.global.watermark(),
        }
    }
}

/// Runs `iterations` fuzzing iterations on a pool of `workers` threads
/// (clamped to at least 1) sharing one corpus, one gain threshold and
/// one exact coverage union — the one-call convenience over
/// [`CampaignBuilder`] for defaults-everywhere campaigns.
///
/// Deterministic for a fixed `(workers, seed)` pair; see the module docs.
///
/// # Panics
///
/// Panics if `backend` is an unregistered
/// [`BackendSpec::Extension`] — configurations that can fail belong on
/// [`CampaignBuilder`], whose `build` reports a structured
/// [`crate::builder::BuildError`] instead.
pub fn run(
    backend: BackendSpec,
    opts: FuzzerOptions,
    workers: usize,
    iterations: usize,
    seed: u64,
) -> ExecutorReport {
    CampaignBuilder::new()
        .backend(backend)
        .options(opts)
        .workers(workers.max(1))
        .seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("{e}"))
        .run(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_uarch::boom_small;

    fn boom() -> BackendSpec {
        BackendSpec::behavioural(boom_small())
    }

    #[test]
    fn pool_runs_exactly_the_requested_iterations() {
        let r = run(boom(), FuzzerOptions::default(), 3, 10, 7);
        assert_eq!(r.stats.iterations, 10);
        assert_eq!(r.stats.coverage_curve.len(), 10);
        assert_eq!(r.workers.iter().map(|w| w.iterations).sum::<usize>(), 10);
        assert_eq!(r.workers.len(), 3);
    }

    #[test]
    fn curve_is_monotone_and_exact() {
        let r = run(boom(), FuzzerOptions::default(), 2, 12, 3);
        assert!(r.stats.coverage_curve.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.stats.coverage(), r.coverage.points());
    }

    #[test]
    fn zero_workers_clamps_to_one_in_the_convenience_entry() {
        let r = run(boom(), FuzzerOptions::default(), 0, 4, 1);
        assert_eq!(r.workers.len(), 1);
        assert_eq!(r.stats.iterations, 4);
    }

    #[test]
    fn zero_iterations_is_a_clean_noop() {
        let r = run(boom(), FuzzerOptions::default(), 2, 0, 1);
        assert_eq!(r.stats.iterations, 0);
        assert_eq!(r.coverage.points(), 0);
        assert_eq!(r.workers.len(), 2);
    }

    #[test]
    fn gain_average_matches_incremental_mean() {
        let mut g = GainAverage::default();
        for (i, x) in [4.0, 0.0, 8.0].iter().enumerate() {
            g.push(*x);
            assert_eq!(g.samples, i + 1);
        }
        assert!((g.avg - 4.0).abs() < 1e-12);
    }

    /// The depth-1 reference: one round's barrier makespan, on clocks
    /// that restart every round.
    fn barrier_makespan(round: &RoundCosts, workers: usize) -> u64 {
        let mut clocks = vec![0u64; workers];
        for &(stream, cost) in &round.slots {
            let core = match round.greedy {
                true => (0..workers).min_by_key(|&w| clocks[w]).unwrap(),
                false => stream,
            };
            clocks[core] += cost;
        }
        clocks.into_iter().max().unwrap()
    }

    /// The depth-2 reference: the dedicated two-rounds-in-flight model
    /// the pipelined steal loop used before the loops merged (greedy
    /// claims, round k gated on round k-2's finish).
    fn pipelined_reference(rounds: &[RoundCosts], workers: usize) -> u64 {
        let mut clocks = vec![0u64; workers];
        let mut finishes = Vec::new();
        for (k, round) in rounds.iter().enumerate() {
            let gate = if k >= 2 { finishes[k - 2] } else { 0 };
            let mut finish = 0;
            for &(_, cost) in &round.slots {
                let core = (0..workers).min_by_key(|&w| clocks[w]).unwrap();
                clocks[core] = clocks[core].max(gate) + cost;
                finish = finish.max(clocks[core]);
            }
            finishes.push(finish);
        }
        clocks.into_iter().max().unwrap()
    }

    /// Six rounds of irregular slot counts and costs, one straggler each.
    fn hand_built(workers: usize, greedy: bool) -> Vec<RoundCosts> {
        (0..6)
            .map(|k| RoundCosts {
                greedy,
                slots: (0..2 * workers + k % 3)
                    .map(|i| {
                        let cost = ((k * 37 + i * 101) % 97 + 1) as u64;
                        (i % workers, if i == k % 4 { cost * 50 } else { cost })
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn makespan_model_matches_the_barrier_and_pipelined_references() {
        for workers in 1..=4 {
            for greedy in [false, true] {
                let rounds = hand_built(workers, greedy);
                let barriers: u64 = rounds.iter().map(|r| barrier_makespan(r, workers)).sum();
                assert_eq!(modelled_makespan(&rounds, workers, 1), barriers);
            }
            let rounds = hand_built(workers, true);
            let reference = pipelined_reference(&rounds, workers);
            assert_eq!(modelled_makespan(&rounds, workers, 2), reference);
        }
        // Two cores, a straggler in round 0: the barrier serialises
        // round 1 behind it (5 + 1), the pipeline tucks it beside it.
        let rounds = [vec![(0, 5), (1, 1)], vec![(0, 1), (1, 1)]].map(|slots| RoundCosts {
            greedy: true,
            slots,
        });
        assert_eq!(modelled_makespan(&rounds, 2, 1), 6);
        assert_eq!(modelled_makespan(&rounds, 2, 2), 5);
    }

    #[test]
    fn halt_after_stops_at_a_round_boundary() {
        let orch = CampaignBuilder::new()
            .backend(boom())
            .workers(2)
            .seed(5)
            .halt_after(3)
            .build()
            .unwrap();
        let (report, snap) = orch.run_snapshotting(24);
        // 2 workers x batch 4 = 8 slots per round; the first boundary at
        // or past 3 completed iterations is 8.
        assert_eq!(report.stats.iterations, 8);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.worker_states.len(), 2);
    }

    #[test]
    fn debug_format_names_the_configuration() {
        let orch = CampaignBuilder::new()
            .backend(boom())
            .workers(2)
            .seed(5)
            .build()
            .unwrap();
        let dbg = format!("{orch:?}");
        assert!(dbg.contains("behavioural:BOOM"), "{dbg}");
        assert!(dbg.contains("RoundRobin"), "{dbg}");
    }
}
