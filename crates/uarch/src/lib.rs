//! Out-of-order processor models for the DejaVuzz reproduction.
//!
//! This crate is the stand-in for the BOOM and XiangShan RTL the paper
//! fuzzes: a cycle-level speculative core ([`core::Core`]) with the full
//! microarchitectural cast — branch predictors (BHT, BTB, RAS, loop
//! predictor), I/D caches with MSHR/line-fill buffer, a two-level TLB,
//! port-contended execution units, a reorder buffer with squash recovery —
//! all operating on two-plane tainted words so the CellIFT / diffIFT
//! policies of `dejavuzz-ift` run inline with the simulation.
//!
//! Two configurations mirror Table 2: [`config::boom_small`] and
//! [`config::xiangshan_minimal`]. Each carries the planted bugs the paper
//! attributes to it (§6.4, B1–B5) plus the classic Meltdown/Spectre
//! behaviours; see [`config::BugSet`].
//!
//! Observation surfaces match the paper's artifacts:
//!
//! * the RoB IO **trace log** ([`trace::Trace`]) with transient-window
//!   detection (enqueued > committed, §4.1.2),
//! * the per-cycle **taint log** ([`dejavuzz_ift::TaintLog`]) feeding the
//!   taint coverage matrix (§4.2.2) and Figure 6,
//! * the final **tainted-sink sweep** with liveness annotations (§4.3.2),
//! * **timing events** from contended resources (Table 5's encoded timing
//!   components) and per-variant cycle counts (Phase 3.1 constant-time
//!   analysis).
//!
//! The per-cycle census costs O(modules) for the predictor and cache
//! structures: each keeps its count of tainted entries in step with every
//! write to its taints, and a `debug_assert` checks that count against a
//! rescan whenever it reports.

pub mod attacks;
pub mod cache;
pub mod config;
pub mod core;
pub mod predict;
pub mod trace;
pub mod waveform;

pub use config::{annotations, boom_small, xiangshan_minimal, BugSet, CoreConfig};
pub use core::{Core, EndReason, RedirectKind, RunResult, TimingEvent, Unit};
pub use trace::{RobEvent, Trace, WindowInfo};

/// Keeps a structure's tainted-entry count in step with one entry write:
/// `was` and `now` are the entry's shadow masks before and after it.
pub(crate) fn retaint(count: &mut usize, was: u64, now: u64) {
    *count = *count + usize::from(now != 0) - usize::from(was != 0);
}

/// Random operands for the structures' kept-count unit tests.
#[cfg(test)]
pub(crate) mod testrng {
    use dejavuzz_ift::TWord;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A word below `range` per plane: clean, tainted with equal planes,
    /// or tainted with diverged planes.
    pub(crate) fn tword(rng: &mut StdRng, range: u64) -> TWord {
        let a = rng.gen_range(0..range);
        match rng.gen_range(0..3) {
            0 => TWord::lit(a),
            1 => TWord::with_taint(a, a, 1 << rng.gen_range(0..64)),
            _ => TWord::with_taint(a, rng.gen_range(0..range), u64::MAX),
        }
    }

    /// The number of tainted entries, by rescan.
    pub(crate) fn rescan(taints: impl Iterator<Item = u64>) -> usize {
        taints.filter(|&t| t != 0).count()
    }
}
