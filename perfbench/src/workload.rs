//! The benchmark's workloads and the campaign loop shared by the timed and
//! traced runs. Every campaign goes through the public `CampaignBuilder`.

use std::time::{Duration, Instant};

use dejavuzz::backend::{BackendSpec, ProcSpec};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::procbackend::{spawn_shared, ProcBackend};
use dejavuzz::scheduler::SchedulerSpec;
use dejavuzz::SimBackend;
use dejavuzz_uarch::boom_small;

use crate::layers::{SharedTally, TimedBackend};

/// Worker threads of every campaign.
pub const WORKERS: usize = 2;

/// One closed-loop campaign configuration. Why each was chosen is in
/// `BENCHMARK.json` and README.md.
pub struct Workload {
    pub name: &'static str,
    /// The backend, spelled as `dejavuzz-fuzz --backend` takes it.
    pub backend: &'static str,
    /// Work stealing with pipeline lag 1 (else the default round robin).
    pub steal: bool,
    /// Iterations per campaign: the fixed budget coverage and bugs are
    /// reported at. A multiple of [`WORKERS`], so the command line can
    /// express it as `--iters budget/WORKERS`.
    pub budget: usize,
    /// `CampaignBuilder::build` calls timed together as one `setup_s`
    /// sample, so that each sample is well above the clock's resolution.
    pub setup_batch: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "behav-boom",
        backend: "behavioural",
        steal: false,
        budget: 128,
        setup_batch: 1000,
    },
    Workload {
        name: "rtl-boom",
        backend: "netlist:boom",
        steal: true,
        budget: 32,
        setup_batch: 1000,
    },
    Workload {
        name: "pool-small",
        backend: "proc:netlist:small:2",
        steal: true,
        budget: 128,
        setup_batch: 2,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn spec(&self) -> BackendSpec {
        BackendSpec::parse(self.backend, boom_small()).expect("workload backends parse")
    }

    /// The worker-process pool behind the backend, if it has one.
    pub fn pool(&self) -> Option<ProcSpec> {
        match self.spec() {
            BackendSpec::Proc(spec) => Some(spec),
            _ => None,
        }
    }

    pub fn builder(&self, seed: u64) -> CampaignBuilder {
        let b = CampaignBuilder::new()
            .backend(self.spec())
            .workers(WORKERS)
            .seed(seed);
        if self.steal {
            b.scheduler(SchedulerSpec::WorkStealing).pipeline_lag(1)
        } else {
            b
        }
    }

    /// The `dejavuzz-fuzz` flags of the same campaign.
    pub fn cli_args(&self, seed: u64) -> Vec<String> {
        let mut args: Vec<String> = [
            "--backend",
            self.backend,
            "--iters",
            &(self.budget / WORKERS).to_string(),
            "--workers",
            &WORKERS.to_string(),
            "--seed",
            &seed.to_string(),
        ]
        .map(String::from)
        .to_vec();
        if self.steal {
            args.extend(["--scheduler", "steal", "--pipeline-lag", "1"].map(String::from));
        }
        args
    }

    /// The same backend behind a [`TimedBackend`], as a constructor for
    /// `CampaignBuilder::backend_ctor`. A pool is spawned once and shared
    /// by every worker thread, the topology `build()` gives a `proc:`
    /// backend.
    pub fn timed_ctor(
        &self,
        tally: SharedTally,
    ) -> Result<impl Fn() -> Box<dyn SimBackend> + Send + Sync + 'static, String> {
        let pool = self.pool().map(|spec| spawn_shared(&spec)).transpose()?;
        let spec = self.spec();
        Ok(move || -> Box<dyn SimBackend> {
            let inner: Box<dyn SimBackend> = match &pool {
                Some(shared) => Box::new(ProcBackend::from_shared(shared.clone())),
                None => spec.build(),
            };
            Box::new(TimedBackend::new(inner, tally.clone()))
        })
    }
}

/// One finished campaign.
pub struct CampaignRun {
    /// Host time in `run_observed`.
    pub wall: Duration,
    pub report: ExecutorReport,
    /// Peak resident memory of the process so far, plus that of the
    /// campaign's pool workers.
    pub peak_kib: u64,
}

impl CampaignRun {
    pub fn seeds_per_s(&self) -> f64 {
        self.report.stats.iterations as f64 / self.wall.as_secs_f64()
    }
}

/// Builds and runs one campaign of `budget` iterations with no observers.
pub fn campaign(builder: CampaignBuilder, budget: usize) -> Result<CampaignRun, String> {
    let orch = builder.build().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (report, _snapshot) = orch.run_observed(budget, &mut []);
    let wall = start.elapsed();
    // Read before the pool shuts down with `orch`.
    let peak_kib = crate::peak_kib();
    Ok(CampaignRun {
        wall,
        report,
        peak_kib,
    })
}
