//! CLI contract tests for `dejavuzz-fuzz`: strict flag parsing exits 2
//! with an error naming the flag (never a silent fall-through to the
//! default), and configuration errors surface the builder's structured
//! message. Pinned here because scripts and CI parse this output.

use std::process::Command;

fn fuzz(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
        .args(args)
        .output()
        .expect("spawn dejavuzz-fuzz");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A malformed proc backend spec is an exit-2 error naming the spec and
/// the expected shape.
#[test]
fn malformed_proc_spec_exits_two_naming_the_spec() {
    let (code, _, stderr) = fuzz(&["--backend", "proc:bogus", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown proc backend \"proc:bogus\" (expected proc:<inner>:<M>"),
        "stderr names the spec and shape: {stderr}"
    );
}

/// A zero-size pool is refused at parse time with a pinned message.
#[test]
fn zero_proc_pool_exits_two() {
    let (code, _, stderr) = fuzz(&["--backend", "proc:netlist:boom:0", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("proc pool size must be >= 1 in \"proc:netlist:boom:0\""),
        "stderr: {stderr}"
    );
}

/// A missing worker binary is the builder's structured `ProcPool` error
/// (exit 2 naming the backend spec and the attempted path), reported at
/// build time — before any campaign work.
#[test]
fn missing_worker_binary_exits_two_with_the_builder_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
        .args(["--backend", "proc:netlist:small:2", "--iters", "1"])
        .env("DEJAVUZZ_SIMD_BIN", "/nonexistent/dejavuzz-simd")
        .output()
        .expect("spawn dejavuzz-fuzz");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr.contains("cannot start worker pool for backend \"proc:netlist:small:2\"")
            && stderr.contains("/nonexistent/dejavuzz-simd"),
        "stderr names spec and path: {stderr}"
    );
}

/// The happy path: a pool-of-1 proc campaign produces the same stdout as
/// the in-process backend it wraps, except for the backend label in the
/// banner. The strongest CLI-level statement of the determinism
/// contract, pinned cheaply here (CI diffs bigger runs).
#[test]
fn proc_pool_of_one_matches_in_process_stdout() {
    let worker = env!("CARGO_BIN_EXE_dejavuzz-simd");
    let run = |backend: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
            .args(["--backend", backend, "--iters", "3", "--seed", "11"])
            .env("DEJAVUZZ_SIMD_BIN", worker)
            .output()
            .expect("spawn dejavuzz-fuzz");
        assert_eq!(out.status.code(), Some(0), "{backend} failed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| {
                !l.starts_with("fuzzing ") && !l.contains("elapsed") && !l.contains("throughput")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run("netlist:small"), run("proc:netlist:small:1"));
}

/// A malformed `--pipeline-lag` value is an exit-2 error naming both the
/// value and the flag — not a silent run with lag 0.
#[test]
fn malformed_pipeline_lag_exits_two_naming_the_flag() {
    let (code, _, stderr) = fuzz(&["--pipeline-lag", "abc"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("invalid value \"abc\" for --pipeline-lag"),
        "stderr names value and flag: {stderr}"
    );
}

/// `--pipeline-lag` followed by another flag is a missing value, not a
/// value.
#[test]
fn pipeline_lag_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--pipeline-lag", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--pipeline-lag requires a value"),
        "stderr: {stderr}"
    );
}

/// Pipelining under the default (round-robin) scheduler is refused with
/// the builder's structured message, pinned verbatim.
#[test]
fn pipeline_lag_with_round_robin_is_a_structured_build_error() {
    let (code, _, stderr) = fuzz(&["--pipeline-lag", "2", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains(
            "pipeline lag requires a queue-planning scheduler, \
             but \"round\" does not support pipelining"
        ),
        "stderr carries the builder's message: {stderr}"
    );
}

/// A malformed `--gossip-every` value is an exit-2 error naming both the
/// value and the flag.
#[test]
fn malformed_gossip_every_exits_two_naming_the_flag() {
    let (code, _, stderr) = fuzz(&["--gossip-every", "abc"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("invalid value \"abc\" for --gossip-every"),
        "stderr names value and flag: {stderr}"
    );
}

/// `--peers` followed by another flag is a missing value, not a value.
#[test]
fn peers_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--peers", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--peers requires a value"),
        "stderr: {stderr}"
    );
}

/// A peer spec without the `unix:` scheme is refused with the spec named
/// verbatim — never treated as a path.
#[test]
fn unknown_peer_spec_exits_two() {
    let (code, _, stderr) = fuzz(&["--peers", "tcp:127.0.0.1:9", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown peer spec \"tcp:127.0.0.1:9\" (expected unix:PATH)"),
        "stderr: {stderr}"
    );
}

/// A peer socket that cannot be dialled is a configuration error at
/// startup (exit 2 naming the spec) — only a peer dying *mid-run*
/// degrades to a solo campaign.
#[test]
fn unreachable_peer_exits_two() {
    let (code, _, stderr) = fuzz(&[
        "--peers",
        "unix:/nonexistent/djvz-fleet.sock",
        "--iters",
        "1",
    ]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("cannot connect to peer \"unix:/nonexistent/djvz-fleet.sock\""),
        "stderr: {stderr}"
    );
}

/// `--gossip-every` without `--peers` warns on stderr and changes
/// nothing: the JSON telemetry on stdout is byte-identical to a run
/// without the flag.
#[test]
fn solo_gossip_every_warns_and_leaves_stdout_untouched() {
    let plain = fuzz(&["--iters", "2", "--telemetry", "json"]);
    let solo = fuzz(&["--iters", "2", "--telemetry", "json", "--gossip-every", "3"]);
    assert_eq!(plain.0, Some(0));
    assert_eq!(solo.0, Some(0));
    assert!(
        solo.2
            .contains("warning: --gossip-every 3 ignored; no --peers given"),
        "stderr: {}",
        solo.2
    );
    assert_eq!(
        plain.1, solo.1,
        "stdout telemetry is byte-identical with and without the ignored flag"
    );
}

/// `--metrics-out` followed by another flag is a missing value, not a
/// value: the dump must never land in a file literally named "--iters".
#[test]
fn metrics_out_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--metrics-out", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--metrics-out requires a value"),
        "stderr: {stderr}"
    );
}

/// `--metrics-out` writes a JSON metrics dump at campaign end without
/// perturbing campaign output: stdout is byte-identical to a run
/// without the flag, the dump announces itself on stderr only, and the
/// file holds the registry's three top-level sections.
#[test]
fn metrics_out_writes_json_and_leaves_stdout_untouched() {
    let dir = std::env::temp_dir().join(format!("djvz-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let plain = fuzz(&["--iters", "2", "--telemetry", "json"]);
    let dumped = fuzz(&[
        "--iters",
        "2",
        "--telemetry",
        "json",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(plain.0, Some(0));
    assert_eq!(dumped.0, Some(0), "stderr: {}", dumped.2);
    assert_eq!(
        plain.1, dumped.1,
        "stdout is byte-identical with and without --metrics-out"
    );
    assert!(
        dumped.2.contains("metrics written to"),
        "stderr: {}",
        dumped.2
    );
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.starts_with("{\"counters\":{"), "dump: {json}");
    assert!(json.contains("\"gauges\":{"), "dump: {json}");
    assert!(json.contains("\"histograms\":{"), "dump: {json}");
    assert!(
        json.contains("\"dejavuzz_iterations_total\":2"),
        "2 iters x 1 worker = 2 committed slots recorded: {json}"
    );
    assert!(json.ends_with("}\n"), "newline-terminated object");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supported combination actually runs: steal + lag completes a tiny
/// campaign and announces the lag on stderr (stdout stays report-only).
#[test]
fn pipelined_steal_campaign_runs() {
    let (code, stdout, stderr) = fuzz(&[
        "--scheduler",
        "steal",
        "--pipeline-lag",
        "1",
        "--iters",
        "2",
        "--workers",
        "2",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("fuzzing"), "the campaign report ran");
    assert!(
        stderr.contains("scheduler steal, seed policy energy, pipeline lag 1"),
        "stderr: {stderr}"
    );
}

/// An unknown scenario family is an exit-2 error naming the offending
/// spec and the family, before any campaign work.
#[test]
fn unknown_scenario_family_exits_two_naming_the_family() {
    let (code, _, stderr) = fuzz(&["--scenarios", "ghost", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains(
            "dejavuzz-fuzz: invalid scenario spec \"ghost\": unknown scenario family \"ghost\""
        ),
        "stderr names the family: {stderr}"
    );
}

/// A malformed scenario parameter is an exit-2 error naming the item,
/// the family and the expected shape.
#[test]
fn malformed_scenario_param_exits_two_naming_the_item() {
    let (code, _, stderr) = fuzz(&["--scenarios", "zenbleed:zero_idiom=x", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains(
            "invalid scenario spec \"zenbleed:zero_idiom=x\": malformed parameter \
             \"zero_idiom=x\" for scenario family \"zenbleed\" (expected name=integer)"
        ),
        "stderr: {stderr}"
    );
}

/// An empty scenario list (empty string, or only separators) is refused:
/// "no scenarios" is spelled by omitting the flag, never by passing it
/// an empty value.
#[test]
fn empty_scenario_list_exits_two() {
    for value in ["", ",", " , "] {
        let (code, _, stderr) = fuzz(&["--scenarios", value, "--iters", "1"]);
        assert_eq!(code, Some(2), "--scenarios {value:?}");
        assert!(
            stderr.contains("dejavuzz-fuzz: --scenarios requires at least one scenario family"),
            "stderr for {value:?}: {stderr}"
        );
    }
}

/// `--scenarios` as the last argument is a missing-value error.
#[test]
fn scenarios_flag_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--iters", "1", "--scenarios"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("dejavuzz-fuzz: --scenarios requires a value"),
        "stderr: {stderr}"
    );
}

/// The scenario note is stderr chatter: enabling scenarios never leaks
/// configuration lines into the stdout report stream.
#[test]
fn scenario_note_goes_to_stderr_not_stdout() {
    let (code, stdout, stderr) = fuzz(&["--scenarios", "zenbleed", "--iters", "2", "--seed", "5"]);
    assert_eq!(code, Some(0));
    assert!(
        stderr.contains("dejavuzz-fuzz: scenarios zenbleed"),
        "stderr carries the note: {stderr}"
    );
    assert!(
        !stdout.contains("dejavuzz-fuzz: scenarios"),
        "stdout stays a pure report: {stdout}"
    );
}

/// `--list-extensions` output is pinned verbatim: scripts parse it, and
/// the shipped scenario templates (with their parameter spaces) are part
/// of the surface.
#[test]
fn list_extensions_output_is_pinned() {
    let (code, stdout, _) = fuzz(&["--list-extensions"]);
    assert_eq!(code, Some(0));
    let expected = "\
schedulers:
  round
  steal
seed policies:
  energy
  favoured
backends:
  behavioural
  netlist:small
  netlist:boom
  netlist:xiangshan
  proc:<inner>:<M>
scenarios:
  double-fetch \u{2014} double-fetch TOCTOU window over the memory-disambiguation squash (gap=2 in [0, 8])
  nested-spec \u{2014} nested-speculation depth stress: depth data-dependent branches in-window (depth=3 in [1, 8])
  sibling-leak \u{2014} sibling-unit contention sweep (div/mul/fpu) with secret-dependent bursts (unit=0 in [0, 2], bursts=2 in [1, 4])
  zenbleed \u{2014} move-elimination / register-file stale-data leak (Zenbleed-shaped) (zero_idiom=0 in [0, 2])
";
    assert_eq!(stdout, expected);
}

/// A snapshot of the previous format version — a real snapshot re-sealed
/// as v4, checksum intact — is refused by both `--resume` and
/// `dejavuzz-merge` with the pinned version message on stderr, never a
/// panic.
#[test]
fn previous_version_snapshot_is_refused_by_resume_and_merge() {
    use dejavuzz_persist::frame;

    let dir = std::env::temp_dir().join(format!("djvz-cli-v4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v5 = dir.join("v5.snap");
    let v4 = dir.join("v4.snap");
    let (code, _, stderr) = fuzz(&["--iters", "4", "--snapshot", v5.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let bytes = std::fs::read(&v5).unwrap();
    let payload = frame::open(dejavuzz::snapshot::SNAPSHOT_MAGIC, 5, &bytes).unwrap();
    // The v4 layout is the v5 one minus the trailing (empty) scenario list.
    let resealed = frame::seal(
        dejavuzz::snapshot::SNAPSHOT_MAGIC,
        4,
        &payload[..payload.len() - 8],
    );
    std::fs::write(&v4, resealed).unwrap();

    let merge = Command::new(env!("CARGO_BIN_EXE_dejavuzz-merge"))
        .arg(&v4)
        .output()
        .expect("spawn dejavuzz-merge");
    let resume = fuzz(&["--resume", v4.to_str().unwrap(), "--iters", "8"]);
    for (tool, code, stderr) in [
        (
            "merge",
            merge.status.code(),
            String::from_utf8_lossy(&merge.stderr).into_owned(),
        ),
        ("resume", resume.0, resume.2),
    ] {
        assert_eq!(code, Some(2), "{tool} exits 2: {stderr}");
        assert!(
            stderr.contains("unsupported frame version 4 (this build writes version 5)"),
            "{tool} stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{tool} stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
