//! Compares two benchmark files of the same schema and fails when the fresh
//! run regresses against the committed baseline.
//!
//! Usage:
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json>
//! ```
//!
//! Three schemas are understood, matched on the documents' `schema` field
//! (baseline and fresh must agree):
//!
//! - `rl-bench-trajectory/v1` — per-phase pipeline totals. Deterministic
//!   counters: `states`, `transitions`, `guard_charges`, and the lazy
//!   search's `lazy_expanded`, `lazy_subsumed`; wall clock:
//!   `elapsed_us`; witness: `trace_counters_equal` (tracing must not move
//!   the counters).
//! - `rl-bench-par/v1` — jobs 1 vs jobs 4 wall clocks. Same deterministic
//!   counters; wall clock: `jobs1_us`; witness: `counters_equal`. When
//!   either document's `host_cpus` meta is below 4 a warning notes that
//!   the recorded speedups measure coordination overhead, not scaling.
//! - `rl-bench-hist/v1` — percentile histograms attached vs detached.
//!   Deterministic counters: `states`, `transitions`, `guard_charges`;
//!   wall clock: `elapsed_us`; witness: `hist_counters_equal` (recording
//!   latency samples moves no counter). Additionally gates each recorded
//!   family's p50/p99 against the baseline with a generous tolerance
//!   (beyond it fails hard); baselines without `families` are skipped.
//!
//! The deterministic counters are identical across machines and runs, so
//! *any* increase over the baseline is a hard failure (exit 1) — this is
//! what makes the check jitter-tolerant in CI. Wall-clock is noisy there,
//! so a regression beyond 25% is only reported as a warning.
//!
//! A case present in the baseline but missing from the fresh run (matched on
//! `system` + `formula`) is also a hard failure: silently dropping a case
//! would make the comparison vacuous.

use std::process::ExitCode;

use rl_json::{parse, Json};

/// Tolerated wall-clock slowdown before a warning is printed.
const ELAPSED_TOLERANCE: f64 = 1.25;

/// Percentile gate for `rl-bench-hist/v1` families: a fresh percentile
/// beyond `baseline × HIST_TOLERANCE + HIST_SLACK_US` is a hard failure.
/// The factor is generous because latency percentiles on shared CI runners
/// are noisy, and the absolute slack keeps single-digit-µs baselines from
/// failing on scheduler jitter — a real regression (an accidental O(n²), a
/// lock on the hot path) blows through both.
const HIST_TOLERANCE: f64 = 4.0;
const HIST_SLACK_US: u64 = 100;

/// Per-schema comparison profile: which per-case fields are deterministic
/// (any increase fails), which field is the noisy wall clock (warn only),
/// and which boolean field witnesses an in-run invariant (false fails;
/// absent is tolerated for pre-witness baselines).
struct Profile {
    counters: &'static [&'static str],
    elapsed: &'static str,
    witness: &'static str,
    witness_label: &'static str,
}

fn profile(schema: &str) -> Option<Profile> {
    match schema {
        "rl-bench-trajectory/v1" => Some(Profile {
            counters: &[
                "states",
                "transitions",
                "guard_charges",
                "lazy_expanded",
                "lazy_subsumed",
            ],
            elapsed: "elapsed_us",
            witness: "trace_counters_equal",
            witness_label: "tracer left the deterministic counters untouched",
        }),
        "rl-bench-par/v1" => Some(Profile {
            counters: &["states", "transitions", "guard_charges"],
            elapsed: "jobs1_us",
            witness: "counters_equal",
            witness_label: "parallel counters matched sequential",
        }),
        "rl-bench-hist/v1" => Some(Profile {
            counters: &["states", "transitions", "guard_charges"],
            elapsed: "elapsed_us",
            witness: "hist_counters_equal",
            witness_label: "histogram recording left the deterministic counters untouched",
        }),
        _ => None,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn str_field<'j>(case: &'j Json, key: &str) -> Result<&'j str, String> {
    match case.get(key) {
        Some(Json::Str(s)) => Ok(s),
        other => Err(format!("field `{key}`: expected string, got {other:?}")),
    }
}

fn int_field(case: &Json, key: &str) -> Result<u64, String> {
    match case.get(key) {
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!(
            "field `{key}`: expected non-negative int, got {other:?}"
        )),
    }
}

fn cases(doc: &Json, path: &str, schema: &str) -> Result<Vec<Json>, String> {
    let found = str_field(doc, "schema")?;
    if found != schema {
        return Err(format!(
            "{path}: schema {found:?} does not match {schema:?}"
        ));
    }
    Ok(doc
        .field("cases")
        .and_then(Json::as_arr)
        .map_err(|e| format!("{path}: {e}"))?
        .to_vec())
}

/// `rl-bench-par/v1` meta: a document recorded on a starved host measures
/// coordination overhead, not the kernels' scaling — worth a warning so a
/// "speedup 0.6x" baseline is not mistaken for a real regression target.
fn warn_on_starved_host(doc: &Json, path: &str, warnings: &mut usize) {
    if let Some(Json::Int(n)) = doc.get("host_cpus") {
        if *n < 4 {
            eprintln!(
                "warn {path}: recorded with host_cpus {n} (< 4); its speedups \
                 measure coordination overhead, not the kernels' scaling"
            );
            *warnings += 1;
        }
    }
}

/// `rl-bench-hist/v1`: the per-family percentile gate. A baseline case
/// without a `families` array is skipped outright — pre-histogram baselines
/// stay valid without regeneration. A family present in the baseline but
/// missing from the fresh run is only a warning (which families record is
/// pipeline-dependent), while a percentile beyond the tolerance fails hard.
fn compare_hist_families(
    base: &Json,
    new: &Json,
    label: &str,
    failures: &mut usize,
    warnings: &mut usize,
) {
    let Some(Json::Arr(base_families)) = base.get("families") else {
        return;
    };
    let empty = Vec::new();
    let fresh_families = match new.get("families") {
        Some(Json::Arr(a)) => a,
        _ => &empty,
    };
    for family in base_families {
        let Ok(name) = str_field(family, "name") else {
            continue;
        };
        let Some(fresh) = fresh_families
            .iter()
            .find(|f| str_field(f, "name") == Ok(name))
        else {
            eprintln!("warn {label}: histogram family {name} missing from fresh run");
            *warnings += 1;
            continue;
        };
        for pct in ["p50", "p99"] {
            let (Ok(b), Ok(n)) = (int_field(family, pct), int_field(fresh, pct)) else {
                continue;
            };
            let allowed = (b as f64 * HIST_TOLERANCE) as u64 + HIST_SLACK_US;
            if n > allowed {
                eprintln!(
                    "FAIL {label}: {name} {pct} regressed {b}µs -> {n}µs \
                     (allowed {allowed}µs)"
                );
                *failures += 1;
            } else {
                println!("ok   {label}: {name} {pct} {b}µs -> {n}µs");
            }
        }
    }
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<ExitCode, String> {
    let baseline_doc = load(baseline_path)?;
    let fresh_doc = load(fresh_path)?;
    let schema = str_field(&baseline_doc, "schema")?.to_owned();
    let Some(profile) = profile(&schema) else {
        return Err(format!("{baseline_path}: unexpected schema {schema:?}"));
    };
    let baseline = cases(&baseline_doc, baseline_path, &schema)?;
    let fresh = cases(&fresh_doc, fresh_path, &schema)?;
    let mut failures = 0usize;
    let mut warnings = 0usize;
    if schema == "rl-bench-par/v1" {
        warn_on_starved_host(&baseline_doc, baseline_path, &mut warnings);
        warn_on_starved_host(&fresh_doc, fresh_path, &mut warnings);
    }

    for base in &baseline {
        let system = str_field(base, "system")?;
        let formula = str_field(base, "formula")?;
        let label = format!("{system} {formula}");
        let Some(new) = fresh.iter().find(|c| {
            str_field(c, "system") == Ok(system) && str_field(c, "formula") == Ok(formula)
        }) else {
            eprintln!("FAIL {label}: case missing from fresh run");
            failures += 1;
            continue;
        };
        for counter in profile.counters {
            let (b, n) = (int_field(base, counter)?, int_field(new, counter)?);
            if n > b {
                eprintln!("FAIL {label}: {counter} regressed {b} -> {n}");
                failures += 1;
            } else {
                println!("ok   {label}: {counter} {b} -> {n}");
            }
        }
        // The harness records whether the run's internal invariant held
        // (tracing zero-cost, parallel counters bit-for-bit). A false
        // witness is a hard failure. (Absent in pre-witness baselines.)
        match new.get(profile.witness) {
            Some(Json::Bool(true)) => {
                println!("ok   {label}: {}", profile.witness_label);
            }
            Some(Json::Bool(false)) => {
                eprintln!("FAIL {label}: witness `{}` is false", profile.witness);
                failures += 1;
            }
            _ => {}
        }
        let (b_us, n_us) = (
            int_field(base, profile.elapsed)?,
            int_field(new, profile.elapsed)?,
        );
        if (n_us as f64) > (b_us as f64) * ELAPSED_TOLERANCE {
            eprintln!(
                "warn {label}: {} regressed {b_us} -> {n_us} (> {ELAPSED_TOLERANCE}x; \
                 wall-clock only, not fatal)",
                profile.elapsed
            );
            warnings += 1;
        } else {
            println!("ok   {label}: {} {b_us} -> {n_us}", profile.elapsed);
        }
        if schema == "rl-bench-hist/v1" {
            compare_hist_families(base, new, &label, &mut failures, &mut warnings);
        }
    }

    println!(
        "compared {} baseline case(s) [{schema}]: {failures} failure(s), {warnings} warning(s)",
        baseline.len()
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline), Some(fresh)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    match run(baseline, fresh) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
