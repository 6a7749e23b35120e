//! The output check: a campaign's deterministic fingerprint, compared
//! across every campaign of a run, between the timed and traced runs, and
//! against the `dejavuzz-fuzz` command line.

use std::fmt;
use std::path::PathBuf;
use std::process::Command;

use dejavuzz::CampaignStats;

/// Everything a campaign commits that is fixed by its configuration and
/// seed: a simulator-only speed-up must leave all of it identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub iterations: usize,
    pub coverage: usize,
    pub bugs: usize,
    pub sim_runs: usize,
    /// Phase-2 simulated cycles (what `CampaignStats::sim_cycles` counts).
    pub sim_cycles: u64,
    pub failed_runs: usize,
    /// `(window name, triggered, attempted)` in the program's window order.
    pub windows: Vec<(String, usize, usize)>,
}

impl Fingerprint {
    pub fn of(stats: &CampaignStats) -> Self {
        Fingerprint {
            iterations: stats.iterations,
            coverage: stats.coverage(),
            bugs: stats.bugs.len(),
            sim_runs: stats.sim_runs,
            sim_cycles: stats.sim_cycles,
            failed_runs: stats.failed_runs,
            windows: stats
                .windows
                .iter()
                .map(|(wt, ws)| (wt.name().to_string(), ws.triggered, ws.attempted))
                .collect(),
        }
    }

    /// Parses the summary `dejavuzz-fuzz` prints on stdout.
    pub fn parse_cli(text: &str) -> Result<Self, String> {
        let mut fp = Fingerprint::default();
        let field = |key: &str| -> Result<u64, String> {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .ok_or_else(|| format!("no {key:?} line in dejavuzz-fuzz output"))?;
            let word = line.split_whitespace().next().unwrap_or_default();
            word.parse()
                .map_err(|_| format!("unreadable {key:?} value {word:?}"))
        };
        fp.iterations = field("iterations:")? as usize;
        fp.sim_runs = field("simulations:")? as usize;
        fp.sim_cycles = field("simulated cycles:")?;
        fp.coverage = field("coverage points:")? as usize;
        fp.failed_runs = field("failed runs:").unwrap_or(0) as usize;
        let bugs = text
            .lines()
            .find_map(|l| l.strip_prefix("bugs (")?.strip_suffix("):"))
            .ok_or("no bugs line in dejavuzz-fuzz output")?;
        fp.bugs = bugs
            .parse()
            .map_err(|_| format!("unreadable bug count {bugs:?}"))?;
        let windows = text
            .lines()
            .skip_while(|l| *l != "windows:")
            .skip(1)
            .take_while(|l| !l.trim().is_empty());
        for line in windows {
            let words: Vec<&str> = line.split_whitespace().collect();
            let at = words
                .iter()
                .position(|w| w.contains('/') && w.split('/').all(|n| n.parse::<usize>().is_ok()))
                .ok_or_else(|| format!("unreadable window line {line:?}"))?;
            let (triggered, attempted) = words[at].split_once('/').expect("checked above");
            fp.windows.push((
                words[..at].join(" "),
                triggered.parse().expect("checked above"),
                attempted.parse().expect("checked above"),
            ));
        }
        Ok(fp)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={} coverage={} bugs={} sim_runs={} sim_cycles={} failed_runs={} windows=",
            self.iterations,
            self.coverage,
            self.bugs,
            self.sim_runs,
            self.sim_cycles,
            self.failed_runs
        )?;
        for (i, (name, triggered, attempted)) in self.windows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ";" };
            write!(f, "{sep}{name}:{triggered}/{attempted}")?;
        }
        Ok(())
    }
}

/// Runs `dejavuzz-fuzz` with `cli_args` and compares its fingerprint with
/// `fp`. Returns any mismatch.
pub fn against_cli(fp: &Fingerprint, cli_args: &[String]) -> Result<Option<String>, String> {
    let fuzz = sibling_binary("dejavuzz-fuzz")?;
    let out = Command::new(&fuzz)
        .args(cli_args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", fuzz.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} failed: {}",
            fuzz.display(),
            cli_args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let cli = Fingerprint::parse_cli(&String::from_utf8_lossy(&out.stdout))?;
    Ok((&cli != fp).then(|| {
        format!(
            "fingerprint differs from dejavuzz-fuzz {}:\n  cli   {cli}\n  bench {fp}",
            cli_args.join(" ")
        )
    }))
}

/// A binary built next to this one (`dejavuzz-fuzz`, `dejavuzz-simd`).
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let path = exe.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release -p dejavuzz --bins` into the same target directory",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_summary() {
        let text = "fuzzing BOOM (full) — 2 iters x 2 worker(s), shared corpus, seed 1\n\n\
            elapsed:          0.3s\niterations:       4\nsimulations:      20\n\
            simulated cycles: 1234\ncoverage points:  9 (exact union)\n\nwindows:\n  \
            Load/Store Access Fault        1/2    TO    0.0  ETO   0.0\n  \
            Branch Misprediction           2/2    TO   59.2  ETO   2.2\n\nbugs (3):\n  [BOOM] x\n";
        let fp = Fingerprint::parse_cli(text).unwrap();
        assert_eq!(
            fp,
            Fingerprint {
                iterations: 4,
                coverage: 9,
                bugs: 3,
                sim_runs: 20,
                sim_cycles: 1234,
                failed_runs: 0,
                windows: vec![
                    ("Load/Store Access Fault".into(), 1, 2),
                    ("Branch Misprediction".into(), 2, 2)
                ],
            }
        );
        assert!(Fingerprint::parse_cli("iterations: 4\n").is_err());
    }
}
