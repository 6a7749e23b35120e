//! Timing wrappers for the two layer seams the program exposes as traits:
//! the simulation backend ([`SimBackend`]) and the coverage census
//! ([`TaintCoverage`]). Each forwards every call unchanged and only adds a
//! clock read around it, so a wrapped campaign must commit exactly what an
//! unwrapped one does (the tests below and the traced run both check it).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dejavuzz::backend::{BackendError, RunOutcome, SimBackend};
use dejavuzz::gen::TransientPlan;
use dejavuzz_ift::census::{Census, TaintLog};
use dejavuzz_ift::{IftMode, TaintCoverage};
use dejavuzz_swapmem::SwapPacket;

/// Runs, host time and simulated cycles of one class of simulations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub runs: u64,
    pub nanos: u64,
    /// Simulated cycles of the first plane (the plane the executor counts).
    pub cycles: u64,
}

/// What a [`TimedBackend`] saw, split by IFT mode: phase 1 runs in
/// [`IftMode::Base`], phases 2 and 3 in the campaign's DIFT mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendTally {
    pub base: Tally,
    pub dift: Tally,
    /// Runs that returned a [`BackendError`] (counted in `base`/`dift` too).
    pub failed: u64,
}

impl BackendTally {
    pub fn runs(&self) -> u64 {
        self.base.runs + self.dift.runs
    }

    pub fn nanos(&self) -> u64 {
        self.base.nanos + self.dift.nanos
    }

    pub fn cycles(&self) -> u64 {
        self.base.cycles + self.dift.cycles
    }
}

/// A tally shared by every worker thread's wrapper of one campaign.
pub type SharedTally = Arc<Mutex<BackendTally>>;

/// A [`SimBackend`] that times each run of the backend it wraps.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn SimBackend>,
    tally: SharedTally,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn SimBackend>, tally: SharedTally) -> Self {
        TimedBackend { inner, tally }
    }
}

impl SimBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dut_name(&self) -> &'static str {
        self.inner.dut_name()
    }

    fn supports_taint(&self) -> bool {
        self.inner.supports_taint()
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        let start = Instant::now();
        let result = self.inner.run(plan, schedule, mode, max_cycles);
        let nanos = start.elapsed().as_nanos() as u64;
        let mut tally = self
            .tally
            .lock()
            .expect("tally lock poisoned by a panicking worker");
        let class = if mode == IftMode::Base {
            &mut tally.base
        } else {
            &mut tally.dift
        };
        class.runs += 1;
        class.nanos += nanos;
        match &result {
            Ok(outcome) => class.cycles += outcome.total_cycles.0,
            Err(_) => tally.failed += 1,
        }
        result
    }
}

/// A [`TaintCoverage`] that times each census fold (`observe_log`, the
/// call phase 2 makes once per DIFT run).
pub struct TimedCoverage<C> {
    pub inner: C,
    pub calls: u64,
    pub nanos: u64,
}

impl<C: TaintCoverage> TimedCoverage<C> {
    pub fn new(inner: C) -> Self {
        TimedCoverage {
            inner,
            calls: 0,
            nanos: 0,
        }
    }
}

impl<C: TaintCoverage> TaintCoverage for TimedCoverage<C> {
    fn observe(&mut self, census: &Census) -> usize {
        self.inner.observe(census)
    }

    fn observe_log(&mut self, log: &TaintLog) -> usize {
        let start = Instant::now();
        let gain = self.inner.observe_log(log);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz::backend::BackendSpec;
    use dejavuzz::gen::{Seed, WindowType};
    use dejavuzz::phases::{phase1, phase2, phase3, PhaseOptions};
    use dejavuzz_ift::CoverageMatrix;
    use dejavuzz_uarch::boom_small;

    /// Every simulation and census result of the three phases for a few
    /// seeds, as comparable text (all the types involved print their full
    /// contents through `Debug`, and none holds a hash map).
    fn pipeline_trace(backend: &mut dyn SimBackend, coverage: &mut dyn TaintCoverage) -> String {
        let opts = PhaseOptions::default();
        let mut out = String::new();
        for (i, wt) in WindowType::ALL.into_iter().enumerate() {
            let seed = Seed::new(wt, 0x9E37_79B9 ^ i as u64);
            let p1 = phase1(backend, &seed, &opts).expect("phase 1 runs");
            out += &format!(
                "{:?}|{:?}|{}|{}\n",
                p1.schedule, p1.triggered, p1.to, p1.sim_runs
            );
            if !p1.triggered {
                continue;
            }
            let p2 = phase2(backend, &seed, &p1, coverage, &opts).expect("phase 2 runs");
            out += &format!(
                "{:?}|{}|{}\n",
                p2.run, p2.coverage_gain, p2.taints_increased
            );
            let p3 = phase3(backend, &p1, &p2, i, &opts).expect("phase 3 runs");
            out += &format!(
                "{:?}|{}|{}\n",
                p3.leaks, p3.rejected_residue, p3.rejected_sanitized
            );
        }
        out
    }

    fn assert_transparent(spec: &BackendSpec) {
        let mut plain_cov = CoverageMatrix::new();
        let plain = pipeline_trace(&mut *spec.build(), &mut plain_cov);

        let tally = SharedTally::default();
        let mut timed = TimedBackend::new(spec.build(), tally.clone());
        let mut timed_cov = TimedCoverage::new(CoverageMatrix::new());
        let wrapped = pipeline_trace(&mut timed, &mut timed_cov);

        assert_eq!(
            plain,
            wrapped,
            "{} outcomes differ when wrapped",
            spec.label()
        );
        assert_eq!(
            plain_cov,
            timed_cov.inner,
            "{} coverage differs",
            spec.label()
        );
        let tally = *tally.lock().unwrap();
        assert!(tally.base.runs > 0 && tally.dift.runs > 0, "{tally:?}");
        assert_eq!(tally.failed, 0);
        assert_eq!(
            timed_cov.calls,
            tally.dift.runs / 2,
            "one census per phase-2 run"
        );
    }

    #[test]
    fn wrappers_are_transparent_on_the_behavioural_core() {
        assert_transparent(&BackendSpec::behavioural(boom_small()));
    }

    #[test]
    fn wrappers_are_transparent_on_the_small_netlist() {
        assert_transparent(&BackendSpec::parse("netlist:small", boom_small()).unwrap());
    }

    /// Needs the `dejavuzz-simd` worker binary (see README.md); a missing
    /// binary fails the test rather than skipping it.
    #[test]
    fn wrappers_are_transparent_on_a_process_pool() {
        assert!(
            dejavuzz::procbackend::worker_binary().is_some(),
            "dejavuzz-simd not found: build it and set DEJAVUZZ_SIMD_BIN"
        );
        assert_transparent(&BackendSpec::parse("proc:netlist:small:2", boom_small()).unwrap());
    }
}
