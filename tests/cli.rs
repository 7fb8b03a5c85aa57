//! End-to-end tests of the `rlcheck` command-line tool against the sample
//! system files shipped in `examples/systems/`.

use std::path::Path;
use std::process::{Command, Output};

fn rlcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sample_files_exist() {
    for f in [
        "examples/systems/server.pn",
        "examples/systems/server_err.pn",
        "examples/systems/clock.ts",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "missing sample {f}"
        );
    }
}

#[test]
fn check_reports_relative_liveness() {
    let out = rlcheck(&["check", "examples/systems/server.pn", "[]<>result"]);
    assert_eq!(out.status.code(), Some(0), "rel-live => exit 0");
    let text = stdout(&out);
    assert!(text.contains("classical  []<>result: fails"));
    assert!(text.contains("rel-live   []<>result: HOLDS"));
    assert!(text.contains("counterexample"));
}

#[test]
fn check_reports_doomed_prefix() {
    let out = rlcheck(&["check", "examples/systems/server_err.pn", "[]<>result"]);
    assert_eq!(out.status.code(), Some(1), "not rel-live => exit 1");
    let text = stdout(&out);
    assert!(text.contains("rel-live   []<>result: fails"));
    assert!(text.contains("doomed prefix: lock"));
}

#[test]
fn abstract_pipeline_flags_non_simplicity() {
    let out = rlcheck(&[
        "abstract",
        "examples/systems/server_err.pn",
        "[]<>result",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(3), "inconclusive => exit 3");
    let text = stdout(&out);
    assert!(text.contains("h simple: fails"));
    assert!(text.contains("violation: lock"));
    assert!(text.contains("INCONCLUSIVE"));
}

#[test]
fn abstract_pipeline_transfers_on_correct_server() {
    let out = rlcheck(&[
        "abstract",
        "examples/systems/server.pn",
        "[]<>result",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("h simple: HOLDS"));
    assert!(text.contains("Thm 8.2"));
}

#[test]
fn simplicity_subcommand() {
    let out = rlcheck(&[
        "simplicity",
        "examples/systems/server.pn",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("simple: HOLDS"));
}

#[test]
fn fair_subcommand_runs_scheduler() {
    let out = rlcheck(&[
        "fair",
        "examples/systems/clock.ts",
        "[]<>chime",
        "--steps",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("synthesized implementation"));
    assert!(text.contains("chime"));
}

#[test]
fn dot_subcommand_outputs_graphviz() {
    let out = rlcheck(&["dot", "examples/systems/clock.ts"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("tick"));
}

#[test]
fn bad_usage_exits_2() {
    let out = rlcheck(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out2 = rlcheck(&["check", "no/such/file.pn", "[]<>x"]);
    assert_eq!(out2.status.code(), Some(2));
    let out3 = rlcheck(&["check", "examples/systems/clock.ts", "[[[["]);
    assert_eq!(out3.status.code(), Some(2));
}

#[test]
fn abp_sample_file_checks() {
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("classical  []<>deliver: fails"));
    assert!(text.contains("rel-live   []<>deliver: HOLDS"));
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn max_states_budget_exhaustion_exits_3() {
    // needle24.ts's relative-safety products outgrow a 10k-state budget,
    // which must trip almost immediately instead of letting them grow.
    let out = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--max-states",
        "10000",
        "--timeout",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(3), "budget exhaustion => exit 3");
    let err = stderr(&out);
    assert!(err.contains("BudgetExceeded"), "stderr: {err}");
    assert!(err.contains("states"), "stderr: {err}");
    assert!(err.contains("limit 10000"), "stderr: {err}");
}

#[test]
fn zero_timeout_exits_3_with_wall_clock_report() {
    let out = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--timeout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "deadline exhaustion => exit 3");
    let err = stderr(&out);
    assert!(err.contains("BudgetExceeded"), "stderr: {err}");
    assert!(err.contains("wall-clock"), "stderr: {err}");
}

#[test]
fn budget_flags_do_not_disturb_small_inputs() {
    // The same flags on an easy input leave the verdict (and exit 0) alone.
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--max-states",
        "100000",
        "--timeout",
        "60",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("rel-live   []<>deliver: HOLDS"));
}

#[test]
fn stats_flag_prints_phase_table_on_stderr() {
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", "--stats"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--stats must not change the verdict"
    );
    // The verdict stays on stdout, the profile goes to stderr.
    assert!(stdout(&out).contains("rel-live   []<>deliver: HOLDS"));
    let err = stderr(&out);
    let header = err
        .lines()
        .find(|l| l.starts_with("phase"))
        .unwrap_or_else(|| panic!("no header in stderr: {err}"));
    for col in ["states", "transitions", "cache-hits", "elapsed"] {
        assert!(header.contains(col), "header missing {col}: {header}");
    }
    for phase in [
        "check",
        "behaviors",
        "classical",
        "relative_liveness",
        "relative_safety",
        "lazy_inclusion",
        "buchi_intersection",
        "emptiness",
    ] {
        assert!(err.contains(phase), "no {phase} row in stderr: {err}");
    }
    // The lazy-pipeline counters are headline rows of the profile.
    for counter in ["lazy/expanded", "lazy/subsumed"] {
        assert!(err.contains(counter), "no {counter} row in stderr: {err}");
    }
    assert!(err.contains("total"), "no totals footer: {err}");
}

#[test]
fn metrics_flag_writes_parseable_jsonl_covering_the_pipeline() {
    let dir = std::env::temp_dir().join("rlcheck-cli-metrics");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("check.jsonl");
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("--metrics wrote the file");
    fn str_field(v: &rl_json::Json, key: &str) -> String {
        match v.get(key) {
            Some(rl_json::Json::Str(s)) => s.clone(),
            other => panic!("field {key} is not a string: {other:?}"),
        }
    }
    let mut events = Vec::new();
    let mut paths = Vec::new();
    for line in text.lines() {
        let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let event = str_field(&v, "event");
        if event == "span" {
            paths.push(str_field(&v, "path"));
        }
        events.push(event);
    }
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert_eq!(events.last().map(String::as_str), Some("totals"));
    let meta = rl_json::parse(text.lines().next().expect("meta line")).expect("meta parses");
    // A registry-backed run records percentile histograms (op cache probe
    // latency at minimum), which upgrades the schema to v3.
    assert_eq!(str_field(&meta, "schema"), "rl-obs/v3");
    // Every phase of the (lazy, default) check pipeline shows up as a
    // span path.
    for needle in [
        "check",
        "check/behaviors/limit",
        "check/classical/negation",
        "check/relative_liveness/lazy_inclusion",
        "check/relative_safety/buchi_intersection",
    ] {
        assert!(
            paths.iter().any(|p| p == needle),
            "missing span {needle}; got {paths:?}"
        );
    }
    // The lazy counters ride along in the totals record.
    let totals = rl_json::parse(text.lines().last().expect("totals line")).expect("totals parses");
    match totals.get("counters") {
        Some(rl_json::Json::Obj(counters)) => {
            assert!(
                counters.iter().any(|(k, _)| k == "lazy/expanded"),
                "no lazy/expanded in totals: {counters:?}"
            );
        }
        other => panic!("totals has no counters object: {other:?}"),
    }
}

#[test]
fn budget_report_names_the_exhausted_phase() {
    // A tight cap trips inside the fused inclusion search, and the report
    // names that phase.
    let lazy = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--max-states",
        "250",
        "--stats",
    ]);
    assert_eq!(lazy.status.code(), Some(3));
    let lerr = stderr(&lazy);
    assert!(
        lerr.contains("in phase check/relative_liveness/lazy_inclusion"),
        "budget report must name the lazy phase: {lerr}"
    );
    // The profile is still flushed on the exit-3 path.
    assert!(
        lerr.contains("total"),
        "no totals footer after exhaustion: {lerr}"
    );
}

#[test]
fn metrics_flag_without_value_exits_2() {
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
    ]);
    assert_eq!(out.status.code(), Some(2), "missing value => usage error");
}

#[test]
fn malformed_budget_flags_exit_2() {
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--timeout",
    ]);
    assert_eq!(out.status.code(), Some(2), "missing value => usage error");
    let out2 = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--max-states",
        "many",
    ]);
    assert_eq!(
        out2.status.code(),
        Some(2),
        "non-numeric value => usage error"
    );
}

#[test]
fn unknown_flags_exit_2() {
    // A misspelled budget flag used to be ignored, running with no budget,
    // and flags that no longer exist must not be accepted silently.
    for flag in [
        &["--max-state", "1"][..],
        &["--no-filters"][..],
        &["--no-lazy"][..],
    ] {
        let mut args = vec!["check", "examples/systems/abp.ts", "[]<>deliver"];
        args.extend_from_slice(flag);
        let out = rlcheck(&args);
        assert_eq!(out.status.code(), Some(2), "{flag:?} must be a usage error");
        let err = stderr(&out);
        assert!(err.contains("unknown flag"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
    let out = rlcheck(&[
        "batch",
        "examples/systems/abp.ts",
        "--formula",
        "[]<>deliver",
        "--max-state",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "batch rejects unknown flags too"
    );
    // serve rejects them before it binds its socket.
    let socket = std::env::temp_dir().join(format!("rlcheck-unknown-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let out = rlcheck(&[
        "serve",
        "--socket",
        socket.to_str().expect("utf-8 path"),
        "--no-lazy",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "serve rejects unknown flags too"
    );
    let err = stderr(&out);
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(!socket.exists(), "no socket bound on a usage error");
}

#[test]
fn deep_formulas_exit_2_instead_of_overflowing() {
    let parens = format!("{}deliver{}", "(".repeat(20_000), ")".repeat(20_000));
    let nots = format!("{}deliver", "!".repeat(20_000));
    for formula in [parens, nots] {
        let out = rlcheck(&["check", "examples/systems/abp.ts", &formula]);
        assert_eq!(out.status.code(), Some(2), "deep formula => parse error");
        assert!(stderr(&out).contains("nests deeper"), "{}", stderr(&out));
    }
}

#[test]
fn jobs_flag_output_is_identical_to_sequential() {
    // The whole point of the parallel kernels: verdicts, reports, and the
    // deterministic diagnostics are bit-for-bit independent of --jobs.
    let base = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver"]);
    for jobs in ["1", "2", "4"] {
        let out = rlcheck(&[
            "check",
            "examples/systems/abp.ts",
            "[]<>deliver",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), base.status.code(), "--jobs {jobs}");
        assert_eq!(stdout(&out), stdout(&base), "--jobs {jobs}");
    }
}

#[test]
fn jobs_budget_trip_is_identical_to_sequential() {
    // tangle300 blows a 100k-state cap inside the lazy inclusion search,
    // whose wide frontier fans out across the pool; the trip point and
    // every deterministic diagnostic must not depend on the thread count.
    let run = |jobs: &str| {
        rlcheck(&[
            "check",
            "examples/systems/tangle300.ts",
            "[]<>a",
            "--max-states",
            "100000",
            "--jobs",
            jobs,
        ])
    };
    let (j1, j4) = (run("1"), run("4"));
    assert_eq!(j1.status.code(), Some(3));
    assert_eq!(j4.status.code(), Some(3));
    let strip_elapsed = |text: String| -> String {
        // Drop the trailing wall-clock fragment ("... in 6.19ms"), the only
        // nondeterministic part of the diagnostics.
        text.lines()
            .map(|l| match l.rfind(") in ") {
                Some(a) => l[..=a].to_owned(),
                None => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_elapsed(stderr(&j1)),
        strip_elapsed(stderr(&j4)),
        "same trip point, same partial diagnostics"
    );
    // Charges merge sequentially, so a trip early inside lazy_inclusion
    // lands on the same state at any thread count too.
    let lazy = |jobs: &str| {
        rlcheck(&[
            "check",
            "examples/systems/needle24.ts",
            "[]<>a",
            "--max-states",
            "250",
            "--jobs",
            jobs,
        ])
    };
    let (l1, l4) = (lazy("1"), lazy("4"));
    assert_eq!(l1.status.code(), Some(3));
    assert_eq!(l4.status.code(), Some(3));
    assert_eq!(
        strip_elapsed(stderr(&l1)),
        strip_elapsed(stderr(&l4)),
        "same lazy trip point at any thread count"
    );
    assert_eq!(stdout(&l1), stdout(&l4));
}

#[test]
fn jobs_zero_autodetects_and_rl_threads_is_overridden_by_flag() {
    // --jobs 0 resolves to the core count; the run must still succeed and
    // agree with sequential output.
    let auto = rlcheck(&[
        "check",
        "examples/systems/clock.ts",
        "[]<>tick",
        "--jobs",
        "0",
    ]);
    let base = rlcheck(&["check", "examples/systems/clock.ts", "[]<>tick"]);
    assert_eq!(auto.status.code(), base.status.code());
    assert_eq!(stdout(&auto), stdout(&base));
    // RL_THREADS picks the count when no flag is given; an explicit flag
    // wins. Either way the report is unchanged.
    let env = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            "examples/systems/clock.ts",
            "[]<>tick",
            "--jobs",
            "2",
        ])
        .env("RL_THREADS", "broken-value-must-be-ignored")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(env.status.code(), base.status.code());
    assert_eq!(stdout(&env), stdout(&base));
}

#[test]
fn jobs_choice_is_recorded_in_metrics_header() {
    let dir = std::env::temp_dir().join("rlcheck-jobs-meta");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let out = rlcheck(&[
        "check",
        "examples/systems/clock.ts",
        "[]<>tick",
        "--jobs",
        "4",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let meta = rl_json::parse(text.lines().next().expect("header line")).expect("valid json");
    assert_eq!(
        meta.get("jobs"),
        Some(&rl_json::Json::Int(4)),
        "worker count lands in the JSONL header"
    );
}

#[test]
fn batch_runs_files_with_shared_formula() {
    let out = rlcheck(&[
        "batch",
        "examples/systems/clock.ts",
        "examples/systems/no-such-system.ts",
        "--formula",
        "[]<>tick",
        "--jobs",
        "4",
    ]);
    let text = stdout(&out);
    // Buffered per-job output prints in submission order.
    let clock = text
        .find("=== examples/systems/clock.ts")
        .expect("clock header");
    let missing = text
        .find("=== examples/systems/no-such-system.ts")
        .expect("missing header");
    assert!(clock < missing, "submission order preserved:\n{text}");
    assert!(text.contains("batch: 1/2 checks relatively live"));
    // clock holds (0), the missing file is an error (2); worst wins.
    assert_eq!(out.status.code(), Some(2), "worst exit code wins");
}

#[test]
fn batch_manifest_mode_and_exit_aggregation() {
    let dir = std::env::temp_dir().join("rlcheck-batch-manifest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "# two real checks and one failing one\n\
         examples/systems/clock.ts []<>tick\n\
         \n\
         examples/systems/server_err.pn []<>result\n",
    )
    .expect("manifest written");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "2",
    ]);
    let text = stdout(&out);
    assert!(text.contains("=== examples/systems/clock.ts []<>tick"));
    assert!(text.contains("rel-live   []<>result: fails"));
    assert!(text.contains("batch: 1/2 checks relatively live"));
    assert_eq!(out.status.code(), Some(1), "clock holds, server_err fails");
}

#[test]
fn batch_output_is_identical_across_jobs() {
    let dir = std::env::temp_dir().join("rlcheck-batch-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "examples/systems/clock.ts []<>tick\n\
         examples/systems/abp.ts []<>deliver\n\
         examples/systems/server.pn []<>result\n",
    )
    .expect("manifest written");
    let run = |jobs: &str| {
        rlcheck(&[
            "batch",
            "--manifest",
            manifest.to_str().expect("utf-8 path"),
            "--jobs",
            jobs,
        ])
    };
    let (j1, j4) = (run("1"), run("4"));
    assert_eq!(j1.status.code(), j4.status.code());
    assert_eq!(
        stdout(&j1),
        stdout(&j4),
        "batch output independent of --jobs"
    );
}

#[test]
fn batch_timeout_stops_all_jobs_with_exit_3() {
    // One zero deadline governs the whole batch: every nontrivial job trips
    // (exit 3 aggregates) and, with --stats, diagnostics name the phase.
    let out = rlcheck(&[
        "batch",
        "examples/systems/needle24.ts",
        "examples/systems/needle24.ts",
        "--formula",
        "[]<>deliver",
        "--jobs",
        "4",
        "--timeout",
        "0",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(
        err.matches("resource budget exhausted").count() >= 2,
        "every worker observes the shared deadline:\n{err}"
    );
    assert!(err.contains("in phase check/"), "phase-named diagnostics");
}

#[test]
fn batch_without_checks_exits_2() {
    let out = rlcheck(&["batch", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let out2 = rlcheck(&["batch", "examples/systems/clock.ts"]);
    assert_eq!(
        out2.status.code(),
        Some(2),
        "positional files need --formula"
    );
}

/// Parses a `--trace-out` file and returns its `traceEvents` array.
fn trace_events(path: &Path) -> Vec<rl_json::Json> {
    let text = std::fs::read_to_string(path).expect("--trace-out wrote the file");
    let json = rl_json::parse(&text).expect("trace file is valid JSON");
    match json.get("traceEvents") {
        Some(rl_json::Json::Arr(events)) => events.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    }
}

fn int_field(v: &rl_json::Json, key: &str) -> i64 {
    match v.get(key) {
        Some(rl_json::Json::Int(n)) => *n,
        other => panic!("field {key} is not an int: {other:?}"),
    }
}

fn str_field_of(v: &rl_json::Json, key: &str) -> String {
    match v.get(key) {
        Some(rl_json::Json::Str(s)) => s.clone(),
        other => panic!("field {key} is not a string: {other:?}"),
    }
}

#[test]
fn trace_out_records_balanced_worker_tracks_and_pool_instants() {
    let dir = std::env::temp_dir().join("rlcheck-trace-out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    // tangle300 under a 20k-state cap runs long enough for the lazy
    // search to fan real tasks out to the pool before the budget trips.
    let out = rlcheck(&[
        "check",
        "examples/systems/tangle300.ts",
        "[]<>a",
        "--jobs",
        "4",
        "--max-states",
        "20000",
        "--trace-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "budget trips; sinks still flush"
    );
    let events = trace_events(&path);
    let mut tids: Vec<i64> = events.iter().map(|e| int_field(e, "tid")).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut worker_tracks_with_tasks = 0;
    for tid in &tids {
        let (mut begins, mut ends) = (0usize, 0usize);
        for e in events.iter().filter(|e| int_field(e, "tid") == *tid) {
            match str_field_of(e, "ph").as_str() {
                "B" => begins += 1,
                "E" => ends += 1,
                _ => {}
            }
        }
        assert_eq!(begins, ends, "track {tid}: B/E events must balance");
        if *tid > 0 && begins > 0 {
            worker_tracks_with_tasks += 1;
        }
    }
    assert!(
        worker_tracks_with_tasks >= 2,
        "expected >=2 worker tracks with task spans, got {worker_tracks_with_tasks}"
    );
    let names: Vec<String> = events
        .iter()
        .filter(|e| str_field_of(e, "ph") == "I")
        .map(|e| str_field_of(e, "name"))
        .collect();
    assert!(
        names.iter().any(|n| n == "spawn"),
        "pool spawn instants recorded: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "park" || n == "steal"),
        "pool park/steal instants recorded: {names:?}"
    );
    // Every track carries a Chrome thread_name metadata record.
    let meta_names: Vec<String> = events
        .iter()
        .filter(|e| str_field_of(e, "ph") == "M")
        .map(|e| match e.get("args") {
            Some(args) => str_field_of(args, "name"),
            None => panic!("metadata without args"),
        })
        .collect();
    assert!(meta_names.iter().any(|n| n == "main"), "{meta_names:?}");
    assert!(meta_names.iter().any(|n| n == "worker-1"), "{meta_names:?}");
}

#[test]
fn flame_out_writes_folded_stacks() {
    let dir = std::env::temp_dir().join("rlcheck-flame-out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flame.folded");
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--flame-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("--flame-out wrote the file");
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` lines");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric weight in {line:?}"));
    }
    assert!(
        text.lines().any(|l| l.starts_with("check;")),
        "nested phases fold with semicolons:\n{text}"
    );
}

#[test]
fn report_reproduces_stats_table_byte_for_byte() {
    let dir = std::env::temp_dir().join("rlcheck-report-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--stats",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));
    let report = rlcheck(&["report", path.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0));
    // On a clean run the live stderr is exactly the phase table, and the
    // report renders the identical table (same snapshot, microsecond
    // precision end to end) on stdout.
    assert_eq!(
        stdout(&report),
        stderr(&live),
        "offline report must reproduce --stats byte-for-byte"
    );
}

#[test]
fn report_renders_event_digest_for_v2_files() {
    let dir = std::env::temp_dir().join("rlcheck-report-v2");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--jobs",
        "2",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        text.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "tracing plus histograms upgrade the JSONL schema: {}",
        text.lines().next().unwrap_or_default()
    );
    let report = rlcheck(&["report", metrics.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0));
    let err = stderr(&report);
    assert!(err.contains("trace:"), "event digest on stderr: {err}");
    assert!(err.contains("main"), "per-track rows: {err}");
}

#[test]
fn report_rejects_missing_or_malformed_input() {
    let out = rlcheck(&["report"]);
    assert_eq!(out.status.code(), Some(2), "missing path => usage error");
    let dir = std::env::temp_dir().join("rlcheck-report-bad");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("not-metrics.jsonl");
    std::fs::write(&path, "this is not JSONL\n").expect("file written");
    let out2 = rlcheck(&["report", path.to_str().expect("utf-8 path")]);
    assert_eq!(out2.status.code(), Some(2), "malformed file => input error");
}

#[test]
fn stats_footer_surfaces_pool_and_cache_counters() {
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--jobs",
        "2",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    for counter in [
        "pool/spawns",
        "pool/steals",
        "pool/parks",
        "pool/unparks",
        "opcache/hits",
        "opcache/misses",
        "opcache/adoptions",
    ] {
        assert!(err.contains(counter), "missing {counter} in footer:\n{err}");
    }
    // Sequential runs have no pool, so its counters stay out of the table.
    let seq = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", "--stats"]);
    let seq_err = stderr(&seq);
    assert!(
        !seq_err.contains("pool/spawns"),
        "no pool counters without a pool:\n{seq_err}"
    );
    assert!(seq_err.contains("opcache/hits"), "{seq_err}");
}

#[test]
fn batch_absorbed_metrics_are_deterministic_across_jobs() {
    let dir = std::env::temp_dir().join("rlcheck-batch-metrics-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "examples/systems/clock.ts []<>tick\n\
         examples/systems/abp.ts []<>deliver\n\
         examples/systems/server.pn []<>result\n",
    )
    .expect("manifest written");
    // With the shared op cache disabled every job rebuilds its own
    // machines, so the absorbed span metrics are schedule-independent.
    // (With the cache on, which job pays for a shared construction is a
    // race — the *verdicts* stay deterministic but the per-job charge
    // attribution does not; that is why this test passes --no-op-cache.)
    let run = |jobs: &str, path: &Path| {
        rlcheck(&[
            "batch",
            "--manifest",
            manifest.to_str().expect("utf-8 path"),
            "--no-op-cache",
            "--jobs",
            jobs,
            "--metrics",
            path.to_str().expect("utf-8 path"),
        ])
    };
    let p1 = dir.join("jobs1.jsonl");
    let p4 = dir.join("jobs4.jsonl");
    let (j1, j4) = (run("1", &p1), run("4", &p4));
    assert_eq!(j1.status.code(), Some(0));
    assert_eq!(j4.status.code(), Some(0));
    // Project each file onto its deterministic content: span identity
    // (absorbed path, name, depth, renumbered seq) and the four metric
    // columns, plus the metric fields of the totals line. Wall-clock
    // fields and the schedule-dependent counters footer are excluded.
    let deterministic_view = |path: &Path| -> Vec<String> {
        let text = std::fs::read_to_string(path).expect("metrics written");
        let mut rows = Vec::new();
        for line in text.lines() {
            let v = rl_json::parse(line).expect("valid JSONL");
            match str_field_of(&v, "event").as_str() {
                "span" => rows.push(format!(
                    "span {} {} {} {} | {} {} {} {}",
                    str_field_of(&v, "path"),
                    str_field_of(&v, "name"),
                    int_field(&v, "depth"),
                    int_field(&v, "seq"),
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "cache_hits"),
                    int_field(&v, "guard_charges"),
                )),
                "totals" => rows.push(format!(
                    "totals {} {} {} {}",
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "cache_hits"),
                    int_field(&v, "guard_charges"),
                )),
                _ => {}
            }
        }
        rows
    };
    let (v1, v4) = (deterministic_view(&p1), deterministic_view(&p4));
    assert!(
        v1.iter().any(|r| r.contains("job0/check")),
        "absorbed spans are re-rooted under job<i>/: {v1:?}"
    );
    assert!(v1.iter().any(|r| r.contains("job2/check")), "{v1:?}");
    assert_eq!(v1, v4, "absorbed batch metrics must not depend on --jobs");
}

#[test]
fn progress_flag_emits_heartbeats() {
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            "examples/systems/tangle300.ts",
            "[]<>a",
            "--timeout",
            "1",
            "--progress",
        ])
        .env("RL_PROGRESS_MS", "25")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(out.status.code(), Some(3), "deadline still governs the run");
    let err = stderr(&out);
    let beats: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("rlcheck: [progress]"))
        .collect();
    assert!(!beats.is_empty(), "no heartbeats in stderr:\n{err}");
    let beat = beats[beats.len() - 1];
    for fragment in ["elapsed", "states", "frontier", "time "] {
        assert!(
            beat.contains(fragment),
            "heartbeat missing {fragment}: {beat}"
        );
    }
}

#[test]
fn panic_mid_check_still_flushes_parseable_sinks() {
    let dir = std::env::temp_dir().join("rlcheck-panic-flush");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            "examples/systems/abp.ts",
            "[]<>deliver",
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
            "--trace-out",
            trace.to_str().expect("utf-8 path"),
        ])
        .env("RL_TEST_PANIC", "1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(out.status.code(), Some(101), "injected panic => exit 101");
    assert!(stderr(&out).contains("internal panic"), "panic is reported");
    // The run died between phases, so the file records a *partial*
    // profile — but every line must still parse, and the spans that
    // completed before the panic must be present.
    let text = std::fs::read_to_string(&metrics).expect("metrics flushed on exit 101");
    let mut events = Vec::new();
    let mut paths = Vec::new();
    for line in text.lines() {
        let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        let event = str_field_of(&v, "event");
        if event == "span" {
            paths.push(str_field_of(&v, "path"));
        }
        events.push(event);
    }
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert!(
        paths.iter().any(|p| p == "check/behaviors"),
        "pre-panic spans survive: {paths:?}"
    );
    assert!(
        !paths.iter().any(|p| p.starts_with("check/classical")),
        "post-panic phases never ran: {paths:?}"
    );
    // Unwinding closed the open spans, so the root span is recorded too.
    assert!(paths.iter().any(|p| p == "check"), "{paths:?}");
    // The trace sink flushes on the same path and stays valid JSON.
    let events = trace_events(&trace);
    assert!(!events.is_empty(), "trace events flushed on exit 101");
}

#[test]
#[cfg(unix)]
fn sigint_oneshot_exits_3_and_flushes_partial_metrics() {
    let dir = std::env::temp_dir().join("rlcheck-sigint");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("interrupted.jsonl");
    // A check that runs for seconds: tangle300 with a huge budget.
    let child = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            "examples/systems/tangle300.ts",
            "[]<>a",
            "--timeout",
            "600",
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("rlcheck spawns");
    // Let it get properly inside the inclusion search, then Ctrl-C it.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("rlcheck exits");
    // The signal cancels the guard: budget exit, not a hard kill.
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("interrupted by signal; partial diagnostics follow"),
        "{err}"
    );
    // The observability sinks still flushed a well-formed partial profile.
    let text = std::fs::read_to_string(&metrics).expect("metrics flushed after SIGINT");
    let mut events = Vec::new();
    for line in text.lines() {
        let v = rl_json::parse(line).expect("valid JSONL after SIGINT");
        events.push(str_field_of(&v, "event"));
    }
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert_eq!(events.last().map(String::as_str), Some("totals"));
}

#[test]
fn cache_bytes_bounds_the_oneshot_cache_without_changing_verdicts() {
    let dir = std::env::temp_dir().join("rlcheck-cache-bytes");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("bounded.jsonl");
    let baseline = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver"]);
    assert_eq!(baseline.status.code(), Some(0));
    let bounded = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--cache-bytes",
        "2048",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(bounded.status.code(), Some(0));
    assert_eq!(
        stdout(&baseline),
        stdout(&bounded),
        "a byte-budgeted cache must not change the report"
    );
    // The totals counters expose the cache's residency and eviction work,
    // and the resident figure respects the configured budget.
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let totals = rl_json::parse(text.lines().last().expect("nonempty")).expect("totals parses");
    assert_eq!(str_field_of(&totals, "event"), "totals");
    let counters = totals.get("counters").expect("counters object");
    let resident = int_field(counters, "opcache/resident_bytes");
    let evictions = int_field(counters, "opcache/evictions");
    assert!(
        resident <= 2048,
        "resident {resident} exceeds the 2048-byte budget"
    );
    assert!(evictions >= 0, "eviction counter is reported");
    // The --stats footer carries the same two counters.
    let stats = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--cache-bytes",
        "2048",
        "--stats",
    ]);
    let footer = stderr(&stats);
    assert!(footer.contains("opcache/resident_bytes"), "{footer}");
    assert!(footer.contains("opcache/evictions"), "{footer}");
}

#[test]
fn serve_without_a_socket_is_a_usage_error() {
    let out = rlcheck(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("serve needs --socket"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn progress_flushes_a_final_heartbeat_even_on_short_runs() {
    // The default sampling period (1s) is far longer than this check, so
    // every line below comes from the completion flush — without it the
    // run would end silent.
    let out = rlcheck(&[
        "check",
        "examples/systems/server.pn",
        "[]<>result",
        "--progress",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    let beats: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("rlcheck: [progress]"))
        .collect();
    assert!(
        !beats.is_empty(),
        "a run shorter than the period must still flush one heartbeat:\n{err}"
    );
    let beat = beats[beats.len() - 1];
    for fragment in ["elapsed", "states", "frontier"] {
        assert!(
            beat.contains(fragment),
            "final heartbeat missing {fragment}: {beat}"
        );
    }
}

#[test]
fn report_counts_unknown_event_kinds_instead_of_failing() {
    let dir = std::env::temp_dir().join("rlcheck-report-unknown");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clean = dir.join("clean.jsonl");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        clean.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));

    // Splice two lines of a future event kind into the middle of the file,
    // as a newer writer (or a mixed capture) would.
    let text = std::fs::read_to_string(&clean).expect("metrics written");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(1, "{\"event\":\"frob\",\"x\":1}");
    lines.insert(2, "{\"event\":\"frob\",\"x\":2}");
    let spliced = dir.join("spliced.jsonl");
    std::fs::write(&spliced, lines.join("\n") + "\n").expect("spliced written");

    let base = rlcheck(&["report", clean.to_str().expect("utf-8 path")]);
    let report = rlcheck(&["report", spliced.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0), "unknown kinds are not fatal");
    assert_eq!(
        stdout(&report),
        stdout(&base),
        "unknown events must not perturb the rendered table"
    );
    let err = stderr(&report);
    assert!(
        err.contains("unknown event kind") && err.contains("frob (2)"),
        "the skip is tallied on stderr: {err}"
    );
}

#[test]
fn report_renders_captured_subscribe_streams() {
    let dir = std::env::temp_dir().join("rlcheck-report-stream");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let capture = dir.join("capture.jsonl");
    // A headerless subscribe capture, as written by `rlcheck top 2> file`
    // or a raw socket client.
    std::fs::write(
        &capture,
        concat!(
            "{\"event\":\"heartbeat\",\"job\":1,\"elapsed_us\":2000000,",
            "\"states\":100,\"transitions\":10,\"frontier\":5}\n",
            "{\"event\":\"trace\",\"ph\":\"B\",\"track\":0,\"cat\":\"span\",",
            "\"name\":\"check\",\"ts_us\":1,\"job\":1}\n",
            "{\"event\":\"trace\",\"ph\":\"E\",\"track\":0,\"cat\":\"span\",",
            "\"name\":\"check\",\"ts_us\":900,\"job\":1}\n",
            "{\"event\":\"done\",\"job\":1,\"code\":0}\n",
            "{\"event\":\"dropped\",\"count\":3,\"total\":3}\n",
        ),
    )
    .expect("capture written");
    let report = rlcheck(&["report", capture.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0));
    let out = stdout(&report);
    assert!(
        out.contains("stream: 1 job(s), 1 heartbeat(s), 2 trace event(s), 3 dropped"),
        "{out}"
    );
    assert!(out.contains("done code 0"), "{out}");
}

// ---------------------------------------------------------------------------
// The percentile telemetry plane: --stats/--metrics histograms, the journal
// reader, and the SLO gate's argument handling.

#[test]
fn stats_and_metrics_carry_percentile_histograms() {
    let dir = std::env::temp_dir().join("rlcheck-hist-v3");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--stats",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    // The --stats footer grows a percentile table below the phase table.
    let err = stderr(&out);
    assert!(err.contains("histogram"), "percentile header: {err}");
    assert!(err.contains("p99"), "{err}");
    assert!(err.contains("opcache/probe_us"), "{err}");
    // Recording histograms upgrades the JSONL schema to v3 with one `hist`
    // line per recorded family.
    let text = std::fs::read_to_string(&path).expect("metrics written");
    assert!(
        text.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "histograms upgrade the schema: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(text.contains("\"event\":\"hist\""), "{text}");
}

#[test]
fn report_tolerates_mid_record_truncation() {
    // A daemon (or a run) dying mid-write leaves a metrics file cut inside
    // a record; the offline reader must degrade, not panic.
    let dir = std::env::temp_dir().join("rlcheck-report-truncated");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));
    let bytes = std::fs::read(&metrics).expect("metrics written");
    assert!(
        bytes.starts_with(b"{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "v3 file expected"
    );
    // Cut inside the final record (the totals line is last and long).
    let cut = dir.join("cut.jsonl");
    std::fs::write(&cut, &bytes[..bytes.len() - 10]).expect("truncated copy");
    let report = rlcheck(&["report", cut.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0), "truncation is not fatal");
    assert!(
        stdout(&report).contains("total"),
        "totals reconstructed from spans: {}",
        stdout(&report)
    );
    assert!(
        stderr(&report).contains("truncated"),
        "truncation noted on stderr: {}",
        stderr(&report)
    );
}

#[test]
fn report_dir_tolerates_truncated_and_zero_length_segments() {
    let dir = std::env::temp_dir().join("rlcheck-journal-degraded");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    // Segment 0: two good samples, then a line cut mid-record.
    let sample = |ts: u64, up: u64, count: u64| {
        format!(
            "{{\"event\":\"sample\",\"ts_ms\":{ts},\"uptime_ms\":{up},\
             \"counters\":{{\"serve/submitted\":1}},\
             \"hists\":{{\"serve/job_wall_us\":{{\"count\":{count},\"sum\":300,\
             \"max\":120,\"buckets\":[[30,{count}]]}}}}}}"
        )
    };
    std::fs::write(
        dir.join("metrics-000000.jsonl"),
        format!(
            "{}\n{}\n{}",
            sample(1_000, 50, 2),
            sample(2_000, 1_050, 3),
            &sample(3_000, 2_050, 4)[..40] // the daemon died mid-write
        ),
    )
    .expect("segment 0");
    // Segment 1: rotated but never written (zero length).
    std::fs::write(dir.join("metrics-000001.jsonl"), "").expect("segment 1");
    // A foreign file in the directory is not a segment and is ignored.
    std::fs::write(dir.join("README.txt"), "not a segment").expect("foreign file");

    let out = rlcheck(&["report", "--dir", dir.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "degraded journal is not fatal");
    let text = stdout(&out);
    assert!(text.contains("2 segments"), "{text}");
    assert!(text.contains("2 samples"), "{text}");
    assert!(text.contains("1 unparsable line(s) skipped"), "{text}");
    assert!(text.contains("serve/job_wall_us"), "{text}");
    assert!(
        stderr(&out).contains("skipped 1 unparsable line(s)"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_and_slo_reject_bad_argument_combinations() {
    // report: a positional file and --dir are mutually exclusive.
    let out = rlcheck(&["report", "x.jsonl", "--dir", "/tmp"]);
    assert_eq!(out.status.code(), Some(2));
    // slo: both the baseline and --dir are required.
    let out = rlcheck(&["slo"]);
    assert_eq!(out.status.code(), Some(2));
    let out = rlcheck(&["slo", "SLO_BASELINE.json"]);
    assert_eq!(out.status.code(), Some(2));
    // slo: a malformed baseline is an input error (2), not a gate failure.
    let dir = std::env::temp_dir().join("rlcheck-slo-bad");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\":\"rl-slo/v9\"}").expect("baseline");
    let out = rlcheck(&[
        "slo",
        bad.to_str().expect("utf-8"),
        "--dir",
        dir.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    // slo: an empty journal cannot gate anything — input error, not a pass.
    std::fs::write(&bad, "{\"schema\":\"rl-slo/v1\",\"families\":{}}").expect("baseline");
    let out = rlcheck(&[
        "slo",
        bad.to_str().expect("utf-8"),
        "--dir",
        dir.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no histogram samples"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
