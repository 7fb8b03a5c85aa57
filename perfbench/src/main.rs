//! `perfbench`: the compiled half of the rlcheck benchmark; `run.py` runs
//! the workloads and calls these subcommands.
//!
//! ```text
//! perfbench gen <workload> <seed> <root> <out-dir>   write inputs.json + systems/
//! perfbench verify <dir> <results.jsonl>             check every report
//! perfbench trace <dir>                              traced in-process replay
//! perfbench hist <metrics.jsonl>                     p50/p99 of hist lines
//! ```
//!
//! Every subcommand prints one JSON object on stdout. `verify` and `trace`
//! exit 1 when an output is wrong or the replay disagrees with `run_check`.

mod expect;
mod gen;
mod manifest;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;

use relative_liveness::automata::TransitionSystem;
use relative_liveness::format::parse_system;
use rl_json::{FromJson, Json};
use rl_obs::HistogramSnapshot;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench gen <workload> <seed> <root> <out-dir> | verify <dir> <results.jsonl> \
         | trace <dir> | hist <metrics.jsonl>"
    );
    ExitCode::from(2)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    rl_json::to_string(&Json::Str(s.to_owned())).unwrap_or_default()
}

/// Checks every outcome against its manifest entry; prints the triple of
/// each checked id and the errors found.
fn verify(dir: &Path, results: &Path) -> Result<bool, String> {
    let inputs = manifest::read_inputs(dir)?;
    let by_id: HashMap<&str, &manifest::Input> =
        inputs.iter().map(|i| (i.id.as_str(), i)).collect();
    let mut systems: HashMap<String, TransitionSystem> = HashMap::new();
    let mut triples: BTreeMap<String, String> = BTreeMap::new();
    let mut errors = Vec::new();
    let outcomes = manifest::read_outcomes(results)?;
    for o in &outcomes {
        let Some(input) = by_id.get(o.id.as_str()) else {
            errors.push(format!("{}: not in the manifest", o.id));
            continue;
        };
        if !systems.contains_key(&input.path) {
            let text =
                std::fs::read_to_string(&input.path).map_err(|e| format!("{}: {e}", input.path))?;
            let ts = parse_system(&text).map_err(|e| format!("{}: {e}", input.path))?;
            systems.insert(input.path.clone(), ts);
        }
        let ts = &systems[&input.path];
        let checked = expect::parse_report(&o.stdout)
            .and_then(|r| expect::check_report(ts, &input.formula, &r, input.expect));
        match checked {
            Ok(t) => {
                // Exit 0 exactly when relative liveness holds.
                if (o.code == 0) != t.1 {
                    errors.push(format!("{}: code {} with rel-live {}", o.id, o.code, t.1));
                }
                let code = t.code();
                if let Some(prev) = triples.insert(o.id.clone(), code.clone()) {
                    if prev != code {
                        errors.push(format!("{}: verdicts {prev} then {code}", o.id));
                    }
                }
            }
            Err(e) => errors.push(format!(
                "{} ({} / {}): {e}",
                o.id, input.path, input.formula
            )),
        }
    }
    let body: Vec<String> = triples
        .iter()
        .map(|(id, t)| format!("{}: {}", json_str(id), json_str(t)))
        .collect();
    let errs: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"checked\": {}, \"triples\": {{{}}}, \"errors\": [{}]}}",
        outcomes.len(),
        body.join(", "),
        errs.join(", ")
    );
    Ok(errors.is_empty())
}

/// The value range `[lo, hi]` of bucket `index` in the program's histogram
/// layout: values below 4 exact, then four sub-buckets per octave. The
/// layout is private to `rl_obs`; a test pins this copy to it.
fn bucket_bounds(index: usize) -> (f64, f64) {
    if index < 4 {
        return (index as f64, index as f64);
    }
    let octave = 2 + (index - 4) / 4;
    let width = (1u64 << (octave - 2)) as f64;
    let lo = (1u64 << octave) as f64 + ((index - 4) % 4) as f64 * width;
    (lo, lo + width - 1.0)
}

/// The `q`-quantile of a bucketed histogram, interpolated linearly inside
/// the bucket that holds the rank (the program's own estimator returns the
/// bucket's upper bound, which reads the same across runs). Samples are
/// whole microseconds truncated from the elapsed time, so the integers
/// `lo..=hi` of a bucket stand for the real interval `[lo, hi + 1)`.
fn interpolated_quantile(snap: &HistogramSnapshot, q: f64) -> f64 {
    if snap.count == 0 {
        return 0.0;
    }
    let rank = q * snap.count as f64;
    let mut seen = 0.0;
    for &(index, n) in &snap.buckets {
        let n = n as f64;
        if seen + n >= rank {
            let (lo, hi) = bucket_bounds(index);
            let end = hi.min(snap.max as f64).max(lo) + 1.0;
            return lo + (end - lo) * ((rank - seen) / n).clamp(0.0, 1.0);
        }
        seen += n;
    }
    snap.max as f64
}

/// p50/p99 of every `hist` line of a `metrics` reply body.
fn hist(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = rl_json::parse(line).map_err(|e| e.to_string())?;
        let Some(Json::Str(name)) = v.get("name") else {
            continue;
        };
        let snap = HistogramSnapshot::from_json(&v).map_err(|e| e.to_string())?;
        rows.push(format!(
            "{}: {{\"p50\": {}, \"p99\": {}}}",
            json_str(name),
            interpolated_quantile(&snap, 0.50),
            interpolated_quantile(&snap, 0.99)
        ));
    }
    println!("{{{}}}", rows.join(", "));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["gen", workload, seed, root, out] => {
            let Ok(seed) = seed.parse::<u64>() else {
                return usage();
            };
            gen::generate(workload, seed, Path::new(root))
                .and_then(|w| gen::write(&w, Path::new(out)).map(|()| w))
                .map(|w| {
                    println!(
                        "{{\"items\": {}, \"systems\": {}}}",
                        w.items.len(),
                        w.systems.len()
                    );
                    true
                })
        }
        ["verify", dir, results] => verify(Path::new(dir), Path::new(results)),
        ["trace", dir] => manifest::read_inputs(Path::new(dir))
            .and_then(|inputs| trace::replay(&inputs))
            .map(|json| {
                println!("{json}");
                true
            }),
        ["hist", path] => hist(Path::new(path)).map(|()| true),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_obs::{render_prometheus, Histogram};

    /// The bucket a single recorded value lands in, and the `le` bound the
    /// program's Prometheus exposition gives that bucket.
    fn program_bucket(v: u64) -> (usize, f64) {
        let h = Histogram::new();
        h.record(v);
        let snap = h.snapshot();
        let index = snap.buckets[0].0;
        let text = render_prometheus(&[], &[("h".to_owned(), snap)]);
        let le = text
            .lines()
            .find_map(|l| l.strip_prefix("rl_h_bucket{le=\""))
            .and_then(|rest| rest.split('"').next())
            .expect("a bucket line");
        (index, le.parse().expect("a numeric le bound"))
    }

    #[test]
    fn bucket_bounds_match_the_programs_layout() {
        let mut values: Vec<u64> = (1..5000).collect();
        for shift in 12..48 {
            let base = 1u64 << shift;
            values.extend([base - 1, base, base + 1, base + base / 3, 2 * base - 1]);
        }
        for v in values {
            let (index, le) = program_bucket(v);
            let (lo, hi) = bucket_bounds(index);
            assert_eq!(hi, le, "upper bound of bucket {index}");
            assert!(lo <= v as f64 && v as f64 <= hi, "{v} outside [{lo}, {hi}]");
            // A value that opens a bucket is its lower bound.
            if program_bucket(v - 1).0 != index {
                assert_eq!(lo, v as f64, "lower bound of bucket {index}");
            }
        }
    }
}
