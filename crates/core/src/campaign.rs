//! The fuzzing campaign: the single-worker façade over the pipeline
//! (corpus scheduling + coverage-guided loop), the ablation variants, and
//! the parallel entry point (now backed by [`crate::executor`]).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dejavuzz_ift::{CoverageMatrix, IftMode};

use crate::backend::{BackendSpec, SimBackend};
use crate::builder::BuildError;
use crate::corpus::Corpus;
use crate::executor::{self, GainAverage};
use crate::gen::WindowType;
use crate::phases::PhaseOptions;
use crate::report::BugReport;
use crate::scheduler::{PolicySpec, SeedPolicy, SlotFeedback};

/// Campaign-level configuration. The ablation variants of the evaluation
/// are spelled as constructors: [`FuzzerOptions::dejavuzz_star`] (random
/// training, §6.2), [`FuzzerOptions::dejavuzz_minus`] (no coverage
/// feedback, §6.3) and [`FuzzerOptions::no_liveness`] (§6.3).
///
/// The system under test is *not* part of these options: pass a
/// [`BackendSpec`] to [`Campaign::with_backend`] /
/// [`crate::builder::CampaignBuilder::backend`]. (Historically a
/// `CoreConfig` was plumbed positionally next to `FuzzerOptions`
/// everywhere; the last compatibility shims for that spelling were
/// removed when [`crate::builder::CampaignBuilder`] landed.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzerOptions {
    /// Phase tunables.
    pub phases: PhaseOptions,
    /// Use taint coverage to guide window mutation (false = DejaVuzz⁻:
    /// "randomly updates the secret encoding block or regenerates a new
    /// transient window for each round").
    pub coverage_feedback: bool,
    /// Window-mutation attempts per seed before discarding it.
    pub mutation_attempts: usize,
}

impl Default for FuzzerOptions {
    fn default() -> Self {
        FuzzerOptions {
            phases: PhaseOptions::default(),
            coverage_feedback: true,
            mutation_attempts: 3,
        }
    }
}

impl FuzzerOptions {
    /// The DejaVuzz* variant: swapMem kept, training derivation replaced by
    /// random instructions (Table 3's middle rows).
    pub fn dejavuzz_star() -> Self {
        FuzzerOptions {
            phases: PhaseOptions {
                training_derivation: false,
                ..PhaseOptions::default()
            },
            ..FuzzerOptions::default()
        }
    }

    /// The DejaVuzz⁻ variant: no taint-coverage feedback (Figure 7's
    /// middle curve).
    pub fn dejavuzz_minus() -> Self {
        FuzzerOptions {
            coverage_feedback: false,
            ..FuzzerOptions::default()
        }
    }

    /// The no-liveness variant of §6.3's liveness evaluation.
    pub fn no_liveness() -> Self {
        FuzzerOptions {
            phases: PhaseOptions {
                liveness_filter: false,
                ..PhaseOptions::default()
            },
            ..FuzzerOptions::default()
        }
    }

    /// Overrides the IFT mode (e.g. CellIFT for overhead studies).
    pub fn with_mode(mut self, mode: IftMode) -> Self {
        self.phases.mode = mode;
        self
    }
}

/// Per-window-type statistics (Table 3 rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Windows of this type successfully triggered.
    pub triggered: usize,
    /// Seeds of this type attempted.
    pub attempted: usize,
    /// Sum of training overhead over triggered windows.
    pub to_sum: usize,
    /// Sum of effective training overhead.
    pub eto_sum: usize,
}

impl WindowStats {
    /// Mean TO per triggered window.
    pub fn mean_to(&self) -> f64 {
        if self.triggered == 0 {
            f64::NAN
        } else {
            self.to_sum as f64 / self.triggered as f64
        }
    }

    /// Mean ETO per triggered window.
    pub fn mean_eto(&self) -> f64 {
        if self.triggered == 0 {
            f64::NAN
        } else {
            self.eto_sum as f64 / self.triggered as f64
        }
    }
}

/// Aggregate results of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Cumulative coverage after each iteration (Figure 7's y series).
    pub coverage_curve: Vec<usize>,
    /// Per-window-type triggering and training overhead (Table 3).
    pub windows: BTreeMap<WindowType, WindowStats>,
    /// Deduplicated bug reports (Table 5).
    pub bugs: Vec<BugReport>,
    /// Iteration of the first bug, if any.
    pub first_bug_iteration: Option<usize>,
    /// Total RTL simulations spent.
    pub sim_runs: usize,
    /// Total simulated cycles (proxy for simulation wall-clock).
    pub sim_cycles: u64,
    /// Iterations aborted by a backend failure
    /// ([`crate::backend::BackendError`]); always 0 on the in-tree
    /// backends when correctly configured.
    pub failed_runs: usize,
}

impl CampaignStats {
    /// Final coverage points.
    pub fn coverage(&self) -> usize {
        self.coverage_curve.last().copied().unwrap_or(0)
    }

    /// Merges another campaign's stats.
    ///
    /// Counters add; bugs deduplicate. Coverage curves merge by pointwise
    /// **maximum** over the overlap (keeping the longer tail): with
    /// disjoint matrices the true union curve is unknowable after the
    /// fact, and the max is the tightest *lower bound* that never
    /// over-reports. (An earlier revision documented a pointwise *sum*
    /// but never implemented any curve merge at all, leaving
    /// `coverage_curve` empty after a parallel merge.) For the **exact**
    /// union curve, run through [`crate::executor::run`], which maintains
    /// shared coverage while the workers execute instead of approximating
    /// afterwards.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.iterations += other.iterations;
        self.sim_runs += other.sim_runs;
        self.sim_cycles += other.sim_cycles;
        self.failed_runs += other.failed_runs;
        for (i, &c) in other.coverage_curve.iter().enumerate() {
            if i < self.coverage_curve.len() {
                self.coverage_curve[i] = self.coverage_curve[i].max(c);
            } else {
                self.coverage_curve.push(c);
            }
        }
        for (wt, ws) in &other.windows {
            let e = self.windows.entry(*wt).or_default();
            e.triggered += ws.triggered;
            e.attempted += ws.attempted;
            e.to_sum += ws.to_sum;
            e.eto_sum += ws.eto_sum;
        }
        for b in &other.bugs {
            if !self.bugs.iter().any(|x| x.dedup_key() == b.dedup_key()) {
                self.bugs.push(b.clone());
            }
        }
        self.first_bug_iteration = match (self.first_bug_iteration, other.first_bug_iteration) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A fuzzing campaign against one system under test: the thin
/// single-worker façade over the pipeline machinery ([`Corpus`]
/// scheduling plus the shared per-iteration engine of
/// [`crate::executor`]). Multi-worker runs go through
/// [`crate::executor::run`]; this type exists for the paper's sequential
/// curves (Figure 7), the ablation variants, and as the simplest entry
/// point.
#[derive(Debug)]
pub struct Campaign {
    backend: Box<dyn SimBackend>,
    opts: FuzzerOptions,
    rng: StdRng,
    corpus: Corpus,
    policy: Box<dyn SeedPolicy>,
    coverage: CoverageMatrix,
    stats: CampaignStats,
    /// Running average of coverage gain (the mutation threshold of §4.2.2).
    gain: GainAverage,
    /// Active scenario-instance indices for fresh-seed draws (sorted by
    /// canonical spec; empty by default).
    scenarios: Vec<u16>,
}

impl Campaign {
    /// A new campaign over any backend spec with deterministic RNG
    /// seeding.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is an unregistered
    /// [`BackendSpec::Extension`]; build custom-backend campaigns
    /// through [`crate::builder::CampaignBuilder`] (structured errors) or
    /// pass the instance directly to [`Campaign::with_boxed_backend`].
    pub fn with_backend(backend: BackendSpec, opts: FuzzerOptions, rng_seed: u64) -> Self {
        Self::with_boxed_backend(backend.build(), opts, rng_seed)
    }

    /// A new campaign over a caller-constructed backend instance (custom
    /// netlists, future external simulators).
    pub fn with_boxed_backend(
        backend: Box<dyn SimBackend>,
        opts: FuzzerOptions,
        rng_seed: u64,
    ) -> Self {
        // Corpus retention/scheduling is coverage feedback, so DejaVuzz⁻
        // runs with the corpus disabled (always explore, never retain).
        let corpus = if opts.coverage_feedback {
            Corpus::default()
        } else {
            Corpus::default().with_exploit_probability(0.0)
        };
        Campaign {
            backend,
            opts,
            rng: StdRng::seed_from_u64(rng_seed),
            corpus,
            policy: PolicySpec::default()
                .build(None)
                .expect("the default policy is built-in"),
            coverage: CoverageMatrix::new(),
            stats: CampaignStats::default(),
            gain: GainAverage::default(),
            scenarios: Vec::new(),
        }
    }

    /// Enables scenario-template window families for fresh-seed draws:
    /// each spec is `family` or `family:param=val`, parsed and interned
    /// through [`dejavuzz_scenarios::intern_spec`]. Call before the
    /// first iteration (the scenario pool is part of the campaign's
    /// replay identity, like the RNG seed).
    pub fn with_scenarios<S: AsRef<str>>(mut self, specs: &[S]) -> Result<Self, BuildError> {
        self.scenarios = crate::builder::intern_scenarios(specs)?.1;
        Ok(self)
    }

    /// Swaps the corpus seed policy (default
    /// [`PolicySpec::EnergyDecay`], the historical behaviour). Call
    /// before the first iteration: mid-campaign swaps would mix two
    /// policies' scheduling state. [`PolicySpec::Extension`] ids that
    /// are not registered are a [`BuildError::UnknownSeedPolicy`].
    pub fn with_seed_policy(mut self, policy: PolicySpec) -> Result<Self, BuildError> {
        self.policy = policy.build(None)?;
        Ok(self)
    }

    /// The simulation backend driving this campaign.
    pub fn backend(&self) -> &dyn SimBackend {
        self.backend.as_ref()
    }

    /// The coverage matrix accumulated so far.
    pub fn coverage(&self) -> &CoverageMatrix {
        &self.coverage
    }

    /// The stats accumulated so far.
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// The seed corpus accumulated so far.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Runs `iterations` fuzzing iterations, returning the final stats.
    pub fn run(&mut self, iterations: usize) -> CampaignStats {
        for _ in 0..iterations {
            self.iteration();
        }
        self.stats.clone()
    }

    /// One fuzzing iteration: corpus scheduling → Phase 1 → Phase 2 (with
    /// coverage-guided mutation) → Phase 3 → retention.
    pub fn iteration(&mut self) {
        let slot = self.stats.iterations;
        let scheduled = self.policy.schedule(&mut self.corpus, &mut self.rng);
        let outcome = executor::run_iteration(
            self.backend.as_mut(),
            &self.opts,
            slot,
            scheduled.as_ref(),
            &self.scenarios,
            &mut self.rng,
            &mut self.coverage,
            None, // the view IS the only matrix — no separate accounting
            None, // no concurrent union in the single-worker façade
            &mut self.gain,
        );
        executor::fold_outcome(&mut self.stats, &outcome);
        self.stats.coverage_curve.push(self.coverage.points());
        if self.opts.coverage_feedback {
            // Single worker: the view is the global union, so the
            // outcome's view-fresh points are exactly its global
            // contribution.
            self.policy.record(
                &mut self.corpus,
                &SlotFeedback {
                    seed: &outcome.seed,
                    window_type: outcome.window_type,
                    gain: outcome.final_gain,
                    global_fresh: &outcome.fresh_points,
                    cost: outcome.to as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_uarch::boom_small;

    #[test]
    fn campaign_accumulates_coverage_monotonically() {
        let mut c = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            1,
        );
        let stats = c.run(15);
        assert_eq!(stats.iterations, 15);
        assert_eq!(stats.coverage_curve.len(), 15);
        assert!(
            stats.coverage_curve.windows(2).all(|w| w[0] <= w[1]),
            "monotone"
        );
        assert!(stats.coverage() > 0);
    }

    #[test]
    fn campaign_finds_bugs_on_vulnerable_boom() {
        let mut c = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            3,
        );
        let stats = c.run(30);
        assert!(
            !stats.bugs.is_empty(),
            "30 iterations must surface at least one leak"
        );
        assert!(stats.first_bug_iteration.is_some());
    }

    #[test]
    fn campaign_is_deterministic_per_rng_seed() {
        let s1 = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            9,
        )
        .run(8);
        let s2 = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            9,
        )
        .run(8);
        assert_eq!(s1.coverage_curve, s2.coverage_curve);
        assert_eq!(s1.bugs, s2.bugs);
    }

    #[test]
    fn variants_have_expected_knobs() {
        assert!(!FuzzerOptions::dejavuzz_star().phases.training_derivation);
        assert!(!FuzzerOptions::dejavuzz_minus().coverage_feedback);
        assert!(!FuzzerOptions::no_liveness().phases.liveness_filter);
        assert_eq!(
            FuzzerOptions::default()
                .with_mode(IftMode::CellIft)
                .phases
                .mode,
            IftMode::CellIft
        );
    }

    #[test]
    fn stats_merge_is_consistent() {
        let a = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            1,
        )
        .run(5);
        let b = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            2,
        )
        .run(5);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.iterations, 10);
        assert!(m.sim_runs >= a.sim_runs + b.sim_runs);
        assert!(m.bugs.len() <= a.bugs.len() + b.bugs.len(), "dedup applies");
        // The curve merge (the old implementation dropped curves
        // entirely): pointwise max over the overlap — never the inflated
        // sum.
        assert_eq!(m.coverage_curve.len(), 5);
        for (i, &c) in m.coverage_curve.iter().enumerate() {
            assert_eq!(c, a.coverage_curve[i].max(b.coverage_curve[i]));
            assert!(c <= a.coverage_curve[i] + b.coverage_curve[i]);
        }
    }

    #[test]
    fn merge_keeps_longer_curve_tail() {
        let a = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            1,
        )
        .run(3);
        let b = Campaign::with_backend(
            BackendSpec::behavioural(boom_small()),
            FuzzerOptions::default(),
            2,
        )
        .run(6);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.coverage_curve.len(), 6, "longer tail survives");
        assert_eq!(m.coverage_curve[5], b.coverage_curve[5]);
    }

    #[test]
    fn window_stats_means() {
        let ws = WindowStats {
            triggered: 4,
            attempted: 5,
            to_sum: 40,
            eto_sum: 8,
        };
        assert_eq!(ws.mean_to(), 10.0);
        assert_eq!(ws.mean_eto(), 2.0);
        assert!(WindowStats::default().mean_to().is_nan());
    }
}
