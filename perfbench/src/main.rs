//! `perfbench`: the repository benchmark. See README.md for what it
//! measures and why; `run.py` builds it and the fuzzer binaries first.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--campaign-seed <n>]
//! ```
//!
//! `--trace 0` times whole campaigns with no instrumentation and prints
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! prints the per-layer metrics. Both print one line per metric and end
//! with one JSON object.

mod check;
mod layers;
mod micro;
mod replay;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dejavuzz::backend::BackendSpec;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::registry;
use dejavuzz::BehaviouralBackend;
use dejavuzz_uarch::boom_small;

use check::Fingerprint;
use layers::SharedTally;
use workload::{campaign, Workload, WORKERS};

/// The campaign seed every timed and traced campaign runs with, so that
/// coverage, bugs and simulation counts repeat exactly across runs.
const CAMPAIGN_SEED: u64 = 1;

/// Extension id the traced run registers its timed backend under.
const TIMED_BACKEND_ID: &str = "perfbench-timed";

/// Seeds the replay runs at the least, so that its simulations per seed
/// are an average over many seeds.
const REPLAY_MIN_SEEDS: u64 = 24;

/// How far the replay's simulations per seed may lie from the traced
/// campaigns' `stats.sim_runs / iterations`, as a share of the latter.
const REPLAY_SIMS_TOLERANCE: f64 = 0.25;

/// `setup_s` samples taken before each timed campaign, each of
/// `Workload::setup_batch` builds. Spreading them over the whole run
/// keeps a short burst of host load from moving their median.
const SETUP_SAMPLES_PER_CAMPAIGN: usize = 3;

/// Simulation requests the traced run keeps for the pool round trip.
const RPC_SAMPLES: usize = 64;

/// The campaign seed 20261017 is held out: it was not run while the
/// benchmark was written, so a claimed gain is confirmed on it too.
const USAGE: &str = "usage: perfbench --workload behav-boom|rtl-boom|pool-small --seed N \
     --seconds S --trace 0|1 [--campaign-seed N (default 1, held out: 20261017)]";

struct Args {
    workload: &'static Workload,
    /// Seeds the warm-up campaign and the traced run's replay.
    seed: u64,
    seconds: Duration,
    trace: bool,
    campaign_seed: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let num = |flag: &str| -> Result<Option<u64>, String> {
            get(flag)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{flag} takes a number, got {v:?}"))
                })
                .transpose()
        };
        let name = get("--workload").ok_or("--workload is required")?;
        let workload = Workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seconds = num("--seconds")?.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got {v:?}")),
        };
        Ok(Args {
            workload,
            seed: num("--seed")?.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace,
            campaign_seed: num("--campaign-seed")?.unwrap_or(CAMPAIGN_SEED),
        })
    }

    /// The warm-up campaign's seed: any seed other than the measured one.
    fn warm_up_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5 ^ self.campaign_seed
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one run reports: its metrics, and the operations (campaign
/// iterations, plus replayed seeds in the traced run) it attempted and
/// saw fail. `problems` lists every failed check.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(0, format!("{name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    fn problem(&mut self, failed: u64, what: String) {
        self.failed += failed;
        self.problems.push(what);
    }

    /// Folds one campaign's iterations and backend failures in, and
    /// checks its fingerprint against the run's first campaign.
    fn campaign(&mut self, reference: &mut Option<Fingerprint>, fp: Fingerprint, what: &str) {
        self.attempted += fp.iterations as u64;
        self.failed += fp.failed_runs as u64;
        match reference {
            None => *reference = Some(fp),
            Some(first) if *first != fp => {
                let msg =
                    format!("{what} fingerprint {fp} differs from the first campaign's {first}");
                self.problem(fp.iterations as u64, msg);
            }
            Some(_) => {}
        }
    }

    /// The cross-check against the command line; runs after all
    /// measurement, since it spawns a campaign of its own.
    fn cross_check(&mut self, args: &Args, fp: &Fingerprint) -> Result<(), String> {
        let cli = args.workload.cli_args(args.campaign_seed);
        if let Some(m) = check::against_cli(fp, &cli)? {
            self.problem(fp.iterations as u64, m);
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The median; sorts `xs` in place. Empty input reads 0.
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The timed run: whole campaigns through `CampaignBuilder`, nothing
/// wrapped, after a warm-up campaign in the same process.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    // A fresh process's first campaign: its peak memory is the one
    // reported, since later readings depend on what the allocator kept.
    let warm_up = campaign(w.builder(args.warm_up_seed()), w.budget)?;
    let mut out = Outcome::default();
    let mut reference = None;
    let (mut rates, mut setup) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + args.seconds;
    while rates.len() < 3 || Instant::now() < deadline {
        for _ in 0..SETUP_SAMPLES_PER_CAMPAIGN {
            setup.push(setup_seconds(w, args.campaign_seed)?);
        }
        let run = campaign(w.builder(args.campaign_seed), w.budget)?;
        rates.push(run.seeds_per_s());
        out.campaign(
            &mut reference,
            Fingerprint::of(&run.report.stats),
            "campaign",
        );
    }
    let fp = reference.expect("at least one campaign ran");

    out.metric("seeds_per_s", median(&mut rates), "seeds/s");
    out.metric("setup_s", median(&mut setup), "s");
    out.metric("coverage", fp.coverage as f64, "points");
    out.metric("bugs", fp.bugs as f64, "count");
    out.metric(
        "sims_per_seed",
        fp.sim_runs as f64 / fp.iterations as f64,
        "sims/seed",
    );
    out.metric("peak_rss_mib", warm_up.peak_kib as f64 / 1024.0, "MiB");
    eprintln!(
        "perfbench: {}: {} campaigns of {} iterations, failed_ratio {} ({} of {} iterations failed)",
        w.name,
        rates.len(),
        w.budget,
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    out.cross_check(args, &fp)?;
    Ok(out)
}

/// Host seconds per `CampaignBuilder::build()`, timed over a batch of
/// `setup_batch` builds that stay alive until the clock has stopped.
fn setup_seconds(w: &Workload, seed: u64) -> Result<f64, String> {
    let builders: Vec<_> = (0..w.setup_batch).map(|_| w.builder(seed)).collect();
    let start = Instant::now();
    let built = builders
        .into_iter()
        .map(|b| b.build())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64() / w.setup_batch as f64;
    drop(built);
    Ok(seconds)
}

/// The traced run. Shares of `--seconds`: half for campaigns (untraced
/// and traced in alternation), 35% for the phase replay, the rest for the
/// direct `rtl` and `procsim` calls (or the replay, where neither
/// applies).
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let opts = FuzzerOptions::default();
    let start = Instant::now();
    let at = |share: f64| start + args.seconds.mul_f64(share);
    campaign(w.builder(args.warm_up_seed()), w.budget)?;

    let mut out = Outcome::default();
    let mut reference = None;
    let (mut busy, mut idle, mut plain_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_rates, mut base_us, mut dift_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sim_share, mut ns_per_cycle) = (Vec::new(), Vec::new());
    let mut tally = Default::default();
    while plain_rates.len() < 2 || Instant::now() < at(0.5) {
        let plain = campaign(w.builder(args.campaign_seed), w.budget)?;
        let r = &plain.report;
        busy.push(r.busy_nanos as f64 / 1e9);
        idle.push(1.0 - r.busy_nanos as f64 / (WORKERS as f64 * plain.wall.as_nanos() as f64));
        plain_rates.push(plain.seeds_per_s());
        out.campaign(
            &mut reference,
            Fingerprint::of(&r.stats),
            "untraced campaign",
        );

        let shared = SharedTally::default();
        let ctor = w.timed_ctor(shared.clone())?;
        let run = campaign(
            w.builder(args.campaign_seed)
                .backend_ctor(TIMED_BACKEND_ID, ctor),
            w.budget,
        );
        // Drop the registered constructor (and any pool it holds) now.
        registry::register_backend(TIMED_BACKEND_ID, || {
            Box::new(BehaviouralBackend::new(boom_small()))
        })
        .expect("the id is valid");
        let run = run?;
        let r = &run.report;
        tally = *shared.lock().expect("tally lock poisoned");
        traced_rates.push(run.seeds_per_s());
        out.campaign(&mut reference, Fingerprint::of(&r.stats), "traced campaign");
        if tally.runs() != r.stats.sim_runs as u64 {
            let msg = format!(
                "timed backend saw {} runs, stats.sim_runs is {}",
                tally.runs(),
                r.stats.sim_runs
            );
            out.problem(0, msg);
        }
        if tally.nanos() > r.busy_nanos {
            let msg = format!(
                "backend self time {} ns exceeds executor busy time {} ns",
                tally.nanos(),
                r.busy_nanos
            );
            out.problem(0, msg);
        }
        base_us.push(tally.base.nanos as f64 / 1e3 / tally.base.runs.max(1) as f64);
        dift_us.push(tally.dift.nanos as f64 / 1e3 / tally.dift.runs.max(1) as f64);
        sim_share.push(tally.nanos() as f64 / r.busy_nanos as f64);
        ns_per_cycle.push(tally.nanos() as f64 / tally.cycles().max(1) as f64);
    }

    let rtl_scale = match w.spec() {
        BackendSpec::Netlist(scale) => Some(scale),
        BackendSpec::Proc(p) => match *p.inner {
            BackendSpec::Netlist(scale) => Some(scale),
            _ => None,
        },
        _ => None,
    };
    // Workloads with no layer below the backend replay until the end.
    let replay_until = if rtl_scale.is_some() || w.pool().is_some() {
        at(0.85)
    } else {
        at(1.0)
    };
    let rp = replay::run(
        w.spec().try_build().map_err(|e| e.to_string())?,
        &opts,
        args.seed,
        replay_until,
        REPLAY_MIN_SEEDS,
        RPC_SAMPLES,
    )?;
    out.attempted += rp.seeds;
    out.failed += rp.backend.failed;
    let slot = rp.slot_nanos();
    let phases = rp.p1_nanos + rp.p2_nanos + rp.p3_nanos;
    for (ok, what) in [
        (
            slot <= rp.wall_nanos,
            "replay slot times exceed the replay's wall time",
        ),
        (
            rp.census_nanos <= rp.p2_nanos,
            "census time exceeds phase-2 time",
        ),
        (
            rp.backend.nanos() <= phases,
            "backend time exceeds the phases' time",
        ),
    ] {
        if !ok {
            out.problem(0, what.to_string());
        }
    }

    // The replay copies the executor's slot loop (the mutation loop's
    // gain threshold and break rules, the phase-3 condition). If the
    // executor's loop changes, the replay's simulations per seed drift
    // away from the campaigns' and this check fails.
    let fp = reference.clone().expect("at least one campaign ran");
    let campaign_sims = fp.sim_runs as f64 / fp.iterations as f64;
    let replay_sims = rp.backend.runs() as f64 / rp.seeds as f64;
    if (replay_sims / campaign_sims - 1.0).abs() > REPLAY_SIMS_TOLERANCE {
        let msg = format!(
            "replay runs {replay_sims:.3} sims/seed, campaigns {campaign_sims:.3}: more than {:.0}% apart",
            100.0 * REPLAY_SIMS_TOLERANCE
        );
        out.problem(0, msg);
    }

    let rtl_until = if w.pool().is_some() {
        at(0.93)
    } else {
        at(1.0)
    };
    let rtl = rtl_scale.map(|scale| micro::rtl(scale, opts.phases.mode, rtl_until));
    let rpc = match w.pool() {
        Some(spec) => {
            let rpc = micro::rpc(&spec, &rp.samples, opts.phases.max_cycles, at(1.0))?;
            out.attempted += rpc.runs;
            if rpc.mismatches > 0 {
                let msg = format!("{} pool runs differ from in-process runs", rpc.mismatches);
                out.problem(rpc.mismatches, msg);
            }
            Some(rpc)
        }
        None => None,
    };

    let seeds = rp.seeds as f64;
    let ms = |nanos: u64| nanos as f64 / 1e6 / seeds;
    let plain_median = median(&mut plain_rates);
    out.metric("executor.busy_s", median(&mut busy), "s");
    out.metric("executor.idle_frac", median(&mut idle), "ratio");
    out.metric("phases.p1_ms_per_seed", ms(rp.p1_nanos), "ms");
    out.metric(
        "phases.p1_sims_per_seed",
        rp.p1_sims as f64 / seeds,
        "sims/seed",
    );
    out.metric(
        "phases.p1_trigger_ratio",
        rp.triggered as f64 / seeds,
        "ratio",
    );
    out.metric(
        "phases.p1_reduction_yield",
        rp.reduced as f64 / rp.reduction_trials.max(1) as f64,
        "packets/trial",
    );
    out.metric("phases.p2_ms_per_seed", ms(rp.p2_nanos), "ms");
    out.metric("phases.p3_ms_per_seed", ms(rp.p3_nanos), "ms");
    out.metric(
        "phases.p3_sims_per_seed",
        rp.p3_sims as f64 / seeds,
        "sims/seed",
    );
    out.metric("backend.base_runs", tally.base.runs as f64, "count");
    out.metric("backend.base_us_per_run", median(&mut base_us), "us");
    out.metric("backend.dift_runs", tally.dift.runs as f64, "count");
    out.metric("backend.dift_us_per_run", median(&mut dift_us), "us");
    out.metric("backend.sim_share", median(&mut sim_share), "ratio");
    out.metric(
        "backend.ns_per_cycle",
        median(&mut ns_per_cycle),
        "ns/cycle",
    );
    out.metric(
        "ift.census_us_per_call",
        rp.census_nanos as f64 / 1e3 / rp.census_calls.max(1) as f64,
        "us",
    );
    out.metric(
        "ift.census_share",
        rp.census_nanos as f64 / slot as f64,
        "ratio",
    );
    out.metric("gen.us_per_seed", rp.gen_nanos as f64 / 1e3 / seeds, "us");
    // Layers a workload does not exercise read 0.
    out.metric("rtl.elab_us", rtl.as_ref().map_or(0.0, |r| r.elab_us), "us");
    out.metric("rtl.step_us", rtl.as_ref().map_or(0.0, |r| r.step_us), "us");
    out.metric(
        "rtl.census_us",
        rtl.as_ref().map_or(0.0, |r| r.census_us),
        "us",
    );
    out.metric(
        "procsim.rpc_us",
        rpc.as_ref().map_or(0.0, |r| r.rpc_us),
        "us",
    );
    out.metric(
        "procsim.overhead_us",
        rpc.as_ref().map_or(0.0, |r| r.rpc_us - r.local_us),
        "us",
    );
    out.metric(
        "trace.seeds_per_s_ratio",
        median(&mut traced_rates) / plain_median,
        "ratio",
    );
    eprintln!(
        "perfbench: {}: {} campaign pairs, {} replayed seeds ({} triggered), {:.0}% of replay slot time in the backend, {replay_sims:.3} sims/seed in the replay against {campaign_sims:.3} in campaigns",
        w.name,
        plain_rates.len(),
        rp.seeds,
        rp.triggered,
        100.0 * rp.backend.nanos() as f64 / slot as f64
    );
    out.cross_check(args, &fp)?;
    Ok(out)
}

/// Peak resident memory in KiB so far: this process's, plus the summed
/// peaks of its live children (the pool workers of a `proc:` campaign,
/// which each campaign spawns afresh). Read from `/proc`, since
/// `getrusage` carries over the peak of the process image that exec'd a
/// process.
fn peak_kib() -> u64 {
    let me = std::process::id().to_string();
    let children: u64 = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            // `pid (comm) state ppid ...`; comm may hold spaces.
            std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
                stat.rsplit_once(')')
                    .and_then(|(_, rest)| rest.split_whitespace().nth(1).map(|p| p == me))
                    .unwrap_or(false)
            })
        })
        .filter_map(|pid| hwm_kib(&pid))
        .sum();
    hwm_kib("self").unwrap_or(0) + children
}

fn hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}
