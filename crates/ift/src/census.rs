//! Per-cycle taint observation: the census (who is tainted, per module) and
//! the taint log (Figure 6's "taint sum over cycles").

use std::fmt;

/// Tainted-register statistics for one hardware module in one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleCensus {
    /// Module instance name (e.g. `"rob"`, `"dcache"`, `"ras"`).
    pub module: &'static str,
    /// Number of registers in the module with at least one tainted bit.
    pub tainted: usize,
    /// Total number of registers the module reported.
    pub total: usize,
}

/// A single cycle's taint census across all modules of a DUT.
///
/// Modules report themselves during a census sweep; the fuzzer then derives
/// the global taint sum (Figure 6) and feeds the per-module counts into the
/// [`crate::coverage::CoverageMatrix`] (§4.2.2). A simulator that sweeps
/// every cycle can refill one census ([`Census::clear`], then report
/// again) and hand it to [`TaintLog::push_ref`], which stores a copy only
/// when the counts changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    modules: Vec<ModuleCensus>,
}

impl Census {
    /// An empty census.
    pub fn new() -> Self {
        Census::default()
    }

    /// Forgets every reported module, keeping the allocation for the next
    /// sweep.
    pub fn clear(&mut self) {
        self.modules.clear();
    }

    /// Reports one module's counts. `taints` yields the shadow mask of each
    /// register in the module.
    pub fn report(&mut self, module: &'static str, taints: impl IntoIterator<Item = u64>) {
        let mut tainted = 0;
        let mut total = 0;
        for t in taints {
            total += 1;
            if t != 0 {
                tainted += 1;
            }
        }
        self.modules.push(ModuleCensus {
            module,
            tainted,
            total,
        });
    }

    /// Reports a module with precomputed counts.
    pub fn report_counts(&mut self, module: &'static str, tainted: usize, total: usize) {
        self.modules.push(ModuleCensus {
            module,
            tainted,
            total,
        });
    }

    /// The modules reported this cycle, in report order.
    pub fn modules(&self) -> &[ModuleCensus] {
        &self.modules
    }

    /// Total number of tainted registers across all modules — the y-axis of
    /// Figure 6.
    pub fn taint_sum(&self) -> usize {
        self.modules.iter().map(|m| m.tainted).sum()
    }

    /// Total number of registers across all modules.
    pub fn register_count(&self) -> usize {
        self.modules.iter().map(|m| m.total).sum()
    }

    /// The tainted count for a specific module, if it reported.
    pub fn module_tainted(&self, module: &str) -> Option<usize> {
        self.modules
            .iter()
            .find(|m| m.module == module)
            .map(|m| m.tainted)
    }
}

/// The taint log: one census per simulated cycle.
///
/// This is the paper's "taint log" artifact — Phase 2 reads taint increases
/// inside the transient window from it, Phase 3 diffs it against the
/// sanitized re-run, and Figure 6 plots its taint sums.
///
/// Logically the log holds one census per cycle, and every accessor
/// ([`TaintLog::len`], [`TaintLog::cycle`], [`TaintLog::iter`], the taint
/// sums, `Debug`) answers in those terms. Consecutive cycles are almost
/// always identical, so the storage is *runs*: each distinct census once,
/// with the cycle its run starts at. [`TaintLog::runs`] exposes them to
/// consumers that fold a census once per run (the coverage matrix, the
/// worker-pool encoder).
#[derive(Clone, Default)]
pub struct TaintLog {
    /// `(first cycle, census)` per run, first cycles strictly increasing
    /// from 0; adjacent runs hold different censuses.
    runs: Vec<(usize, Census)>,
    /// Total number of cycles.
    len: usize,
}

impl TaintLog {
    /// An empty log.
    pub fn new() -> Self {
        TaintLog::default()
    }

    /// Appends the census for the next cycle.
    pub fn push(&mut self, census: Census) {
        if !self.extends_last(&census) {
            self.runs.push((self.len, census));
        }
        self.len += 1;
    }

    /// Appends the census for the next cycle, cloning it only when it
    /// differs from the previous cycle's — the per-cycle path of a
    /// simulator that refills one reused census.
    pub fn push_ref(&mut self, census: &Census) {
        if !self.extends_last(census) {
            self.runs.push((self.len, census.clone()));
        }
        self.len += 1;
    }

    fn extends_last(&self, census: &Census) -> bool {
        self.runs.last().is_some_and(|(_, last)| last == census)
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The census of cycle `c`.
    pub fn cycle(&self, c: usize) -> Option<&Census> {
        if c >= self.len {
            return None;
        }
        let run = self.runs.partition_point(|&(first, _)| first <= c) - 1;
        Some(&self.runs[run].1)
    }

    /// The runs of identical consecutive censuses, in cycle order: each
    /// run's cycle range and its census.
    pub fn runs(&self) -> impl Iterator<Item = (std::ops::Range<usize>, &Census)> {
        self.runs.iter().enumerate().map(|(i, (first, census))| {
            let end = self.runs.get(i + 1).map_or(self.len, |&(next, _)| next);
            (*first..end, census)
        })
    }

    /// Iterates over (cycle, census), one item per cycle.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Census)> {
        self.runs()
            .flat_map(|(cycles, census)| cycles.map(move |c| (c, census)))
    }

    /// The taint-sum series (Figure 6 curve).
    pub fn taint_sums(&self) -> Vec<usize> {
        let mut sums = Vec::with_capacity(self.len);
        for (cycles, census) in self.runs() {
            sums.resize(cycles.end, census.taint_sum());
        }
        sums
    }

    /// Whether the taint sum strictly increases anywhere inside
    /// `[from, to)` — Phase 2's "if taints increase, sensitive data has been
    /// successfully propagated" check. The sum before cycle 0 counts as 0.
    pub fn taint_increased_in(&self, from: usize, to: usize) -> bool {
        let to = to.min(self.len);
        if from >= to {
            return false;
        }
        // The sum is constant inside a run, so it can only rise at the
        // start of a run.
        let first = self.runs.partition_point(|&(start, _)| start < from);
        let mut prev = match first {
            0 => 0,
            i => self.runs[i - 1].1.taint_sum(),
        };
        for (start, census) in &self.runs[first..] {
            if *start >= to {
                break;
            }
            let sum = census.taint_sum();
            if sum > prev {
                return true;
            }
            prev = sum;
        }
        false
    }

    /// The maximum taint sum over the whole log.
    pub fn peak_taint(&self) -> usize {
        self.runs
            .iter()
            .map(|(_, c)| c.taint_sum())
            .max()
            .unwrap_or(0)
    }

    /// The final cycle's taint sum (0 for an empty log).
    pub fn final_taint(&self) -> usize {
        self.runs.last().map_or(0, |(_, c)| c.taint_sum())
    }
}

/// Prints the logical per-cycle list, exactly as a `Vec` of one census
/// per cycle would — outcome digests hash this text.
impl fmt::Debug for TaintLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct PerCycle<'a>(&'a TaintLog);
        impl fmt::Debug for PerCycle<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|(_, c)| c))
                    .finish()
            }
        }
        f.debug_struct("TaintLog")
            .field("cycles", &PerCycle(self))
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn census(counts: &[(&'static str, usize, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted, total) in counts {
            c.report_counts(m, tainted, total);
        }
        c
    }

    #[test]
    fn report_counts_tainted_registers() {
        let mut c = Census::new();
        c.report("rob", [0u64, 3, 0, 7]);
        assert_eq!(c.taint_sum(), 2);
        assert_eq!(c.register_count(), 4);
        assert_eq!(c.module_tainted("rob"), Some(2));
        assert_eq!(c.module_tainted("lsu"), None);
    }

    #[test]
    fn taint_sum_spans_modules() {
        let c = census(&[("rob", 2, 10), ("lsu", 3, 8), ("dcache", 0, 64)]);
        assert_eq!(c.taint_sum(), 5);
        assert_eq!(c.register_count(), 82);
        assert_eq!(c.modules().len(), 3);
    }

    #[test]
    fn log_taint_sums_series() {
        let mut log = TaintLog::new();
        for s in [0usize, 0, 4, 9, 9] {
            log.push(census(&[("rob", s, 10)]));
        }
        assert_eq!(log.taint_sums(), vec![0, 0, 4, 9, 9]);
        assert_eq!(log.peak_taint(), 9);
        assert_eq!(log.final_taint(), 9);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn taint_increase_detection() {
        let mut log = TaintLog::new();
        for s in [0usize, 0, 4, 9, 9] {
            log.push(census(&[("rob", s, 10)]));
        }
        assert!(
            log.taint_increased_in(1, 4),
            "taint rises inside the window"
        );
        assert!(!log.taint_increased_in(4, 5), "flat tail shows no increase");
        assert!(!log.taint_increased_in(4, 4), "empty range");
        assert!(!log.taint_increased_in(10, 20), "out of range");
    }

    #[test]
    fn empty_log_is_sane() {
        let log = TaintLog::new();
        assert!(log.is_empty());
        assert_eq!(log.peak_taint(), 0);
        assert_eq!(log.final_taint(), 0);
        assert!(log.cycle(0).is_none());
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A census drawn from a small palette, so that consecutive repeats,
    /// equal sums from different censuses and module-set changes all occur.
    fn random_census(rng: &mut StdRng) -> Census {
        let mut c = Census::new();
        let modules = if rng.gen_range(0..8) == 0 { 1 } else { 2 };
        for m in ["rob", "lsu"].into_iter().take(modules) {
            c.report_counts(m, rng.gen_range(0..3), 8);
        }
        c
    }

    /// `len` random cycles, mostly repeating the previous one as a
    /// simulator's do, pushed into a log (through `push` or `push_ref`
    /// at random) and into the naive per-cycle model.
    pub(crate) fn random_log(rng: &mut StdRng, len: usize) -> (TaintLog, Vec<Census>) {
        let mut log = TaintLog::new();
        let mut model: Vec<Census> = Vec::new();
        for _ in 0..len {
            let c = match model.last() {
                Some(last) if rng.gen_range(0..3) != 0 => last.clone(),
                _ => random_census(rng),
            };
            if rng.gen_bool(0.5) {
                log.push(c.clone());
            } else {
                log.push_ref(&c);
            }
            model.push(c);
        }
        (log, model)
    }

    mod naive {
        /// The per-cycle layout `TaintLog` had before it stored runs; its
        /// derived `Debug` is the text outcome digests were taken over.
        #[derive(Debug)]
        pub struct TaintLog {
            #[allow(dead_code)] // read through `Debug` only
            pub cycles: Vec<super::Census>,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run-length log answers every question exactly like the
        /// naive one-census-per-cycle vector it replaced.
        #[test]
        fn run_length_log_matches_a_per_cycle_model(seed in any::<u64>(), len in 0usize..40) {
            let (log, model) = random_log(&mut StdRng::seed_from_u64(seed), len);

            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.is_empty(), model.is_empty());
            for c in 0..=len + 1 {
                prop_assert_eq!(log.cycle(c), model.get(c));
            }
            let iterated: Vec<(usize, &Census)> = log.iter().collect();
            let expected: Vec<(usize, &Census)> = model.iter().enumerate().collect();
            prop_assert_eq!(iterated, expected);

            let sums: Vec<usize> = model.iter().map(Census::taint_sum).collect();
            prop_assert_eq!(log.taint_sums(), sums.clone());
            for from in 0..=len + 1 {
                for to in 0..=len + 2 {
                    let end = to.min(len);
                    let naive = (from..end).any(|c| {
                        let prev = if c == 0 { 0 } else { sums[c - 1] };
                        sums[c] > prev
                    });
                    prop_assert_eq!(log.taint_increased_in(from, to), naive, "[{}, {})", from, to);
                }
            }
            prop_assert_eq!(log.peak_taint(), sums.iter().copied().max().unwrap_or(0));
            prop_assert_eq!(log.final_taint(), sums.last().copied().unwrap_or(0));

            // Runs tile the cycles and never hold two equal neighbours.
            let runs: Vec<_> = log.runs().collect();
            prop_assert_eq!(runs.first().map_or(0, |(r, _)| r.start), 0);
            prop_assert_eq!(runs.last().map_or(0, |(r, _)| r.end), len);
            for w in runs.windows(2) {
                prop_assert_eq!(w[0].0.end, w[1].0.start);
                prop_assert!(w[0].1 != w[1].1);
            }

            // `Debug` prints the per-cycle list the old `Vec` layout did.
            let naive = naive::TaintLog { cycles: model };
            prop_assert_eq!(format!("{log:?}"), format!("{naive:?}"));
            prop_assert_eq!(format!("{log:#?}"), format!("{naive:#?}"));
        }
    }
}
