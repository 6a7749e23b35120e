//! The per-phase replay of the traced run: fresh seeds driven through
//! `gen::*` and `phases::phase1/2/3` by the benchmark itself, the way the
//! executor's slot pipeline calls them, with the backend and the coverage
//! census behind timing wrappers.

use std::hint::black_box;
use std::time::Instant;

use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::gen::{self, Seed, TransientPlan, WindowFill};
use dejavuzz::phases::{phase1, phase2, phase3};
use dejavuzz::rand::rngs::StdRng;
use dejavuzz::rand::{Rng, SeedableRng};
use dejavuzz::SimBackend;
use dejavuzz_ift::{CoverageMatrix, IftMode};
use dejavuzz_swapmem::SwapPacket;

use crate::layers::{BackendTally, SharedTally, TimedBackend, TimedCoverage};

/// One simulation request kept for the process-pool round trip.
pub struct Sample {
    pub plan: TransientPlan,
    pub schedule: Vec<SwapPacket>,
    pub mode: IftMode,
}

/// Totals of one replay.
#[derive(Default)]
pub struct Replay {
    pub seeds: u64,
    pub triggered: u64,
    pub gen_nanos: u64,
    pub p1_nanos: u64,
    pub p2_nanos: u64,
    pub p3_nanos: u64,
    pub p1_sims: u64,
    pub p3_sims: u64,
    /// Training packets phase 1's reduction removed, and the trials it ran.
    pub reduced: u64,
    pub reduction_trials: u64,
    pub census_calls: u64,
    pub census_nanos: u64,
    pub backend: BackendTally,
    pub wall_nanos: u64,
    pub samples: Vec<Sample>,
}

impl Replay {
    /// Host time of all slots: generation plus the three phases.
    pub fn slot_nanos(&self) -> u64 {
        self.gen_nanos + self.p1_nanos + self.p2_nanos + self.p3_nanos
    }
}

/// Replays fresh seeds from `seed` on `backend` until `until`, and at
/// least `min_seeds` of them, keeping up to `keep` simulation requests.
pub fn run(
    backend: Box<dyn SimBackend>,
    opts: &FuzzerOptions,
    seed: u64,
    until: Instant,
    min_seeds: u64,
    keep: usize,
) -> Result<Replay, String> {
    let tally = SharedTally::default();
    let mut backend = TimedBackend::new(backend, tally.clone());
    let mut coverage = TimedCoverage::new(CoverageMatrix::new());
    let mut rng = StdRng::seed_from_u64(seed);
    // The running-average gain threshold of the executor's mutation loop.
    let (mut gain_avg, mut gain_samples) = (0.0f64, 0u64);
    let mut r = Replay::default();
    let err = |phase: &str, e: dejavuzz::BackendError| format!("replay {phase}: {e}");
    let start = Instant::now();
    while r.seeds < min_seeds.max(1) || Instant::now() < until {
        r.seeds += 1;
        let t = Instant::now();
        let window = gen::draw_window_type(&mut rng, &[]);
        let seed = Seed::new(window, rng.gen());
        let plan = gen::plan(&seed);
        let trainings = gen::derive_trainings(&seed, &plan, opts.phases.decoy_trainings);
        black_box(gen::build_transient(&plan, &WindowFill::Dummy));
        black_box(gen::complete_window(&seed, &plan));
        r.gen_nanos += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let p1 = phase1(&mut backend, &seed, &opts.phases).map_err(|e| err("phase 1", e))?;
        r.p1_nanos += t.elapsed().as_nanos() as u64;
        r.p1_sims += p1.sim_runs as u64;
        if !p1.triggered {
            continue;
        }
        r.triggered += 1;
        if opts.phases.training_reduction {
            r.reduced += (trainings.len() + 1 - p1.schedule.len()) as u64;
            r.reduction_trials += p1.sim_runs as u64 - 1;
        }
        if r.samples.len() < keep {
            r.samples.push(Sample {
                plan: p1.plan.clone(),
                schedule: p1.schedule.clone(),
                mode: IftMode::Base,
            });
        }

        let t = Instant::now();
        let mut attempt_seed = seed;
        let mut best = None;
        for attempt in 0..=opts.mutation_attempts {
            let p2 = phase2(
                &mut backend,
                &attempt_seed,
                &p1,
                &mut coverage,
                &opts.phases,
            )
            .map_err(|e| err("phase 2", e))?;
            let gain = p2.coverage_gain as f64;
            let below_avg = gain < gain_avg;
            gain_samples += 1;
            gain_avg += (gain - gain_avg) / gain_samples as f64;
            let propagated = p2.taints_increased;
            best = Some(p2);
            if !opts.coverage_feedback || (propagated && !below_avg) {
                break;
            }
            if attempt < opts.mutation_attempts {
                attempt_seed = attempt_seed.mutate();
            }
        }
        r.p2_nanos += t.elapsed().as_nanos() as u64;
        let p2 = best.expect("at least one phase-2 attempt ran");
        if r.samples.len() < keep {
            r.samples.push(Sample {
                plan: p1.plan.clone(),
                schedule: p2.schedule.clone(),
                mode: opts.phases.mode,
            });
        }

        if p2.taints_increased || opts.phases.mode == IftMode::Base {
            let t = Instant::now();
            phase3(&mut backend, &p1, &p2, r.seeds as usize, &opts.phases)
                .map_err(|e| err("phase 3", e))?;
            r.p3_nanos += t.elapsed().as_nanos() as u64;
            r.p3_sims += 1;
        }
    }
    r.wall_nanos = start.elapsed().as_nanos() as u64;
    r.census_calls = coverage.calls;
    r.census_nanos = coverage.nanos;
    r.backend = *tally.lock().expect("tally lock poisoned");
    Ok(r)
}
