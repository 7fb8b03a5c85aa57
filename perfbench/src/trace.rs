//! The traced run: replays a pass in-process, timing the calls into each
//! layer's public functions in `run_check`'s order, and reads the
//! program's own span records and counters for the work each layer did.
//!
//! Every input is also run through the untraced `run_check` (the code the
//! CLI runs); the replay must print the same verdict lines, and the two
//! timings give the tracing overhead (`obs.overhead_pct`).

use std::fmt::Write as _;
use std::time::Instant;

use relative_liveness::automata::{format_word, OpCache};
use relative_liveness::buchi::behaviors_of_ts_with;
use relative_liveness::check::{parse_formula, run_check, verdict, CheckSpec};
use relative_liveness::core::{
    is_relative_liveness_with, is_relative_safety_with, satisfies_with, Budget, CheckError, Guard,
    Metric, MetricsRegistry, Property,
};
use rl_obs::HistogramRegistry;

use crate::expect::{parse_report, Triple};
use crate::manifest::Input;

/// Replays of each input; the per-input times are their medians.
const REPS: usize = 3;

/// Per-check layer numbers of one replay of one input.
#[derive(Debug, Clone, Default)]
struct Sample {
    run_us: f64,
    traced_us: f64,
    parse_system_us: f64,
    parse_us: f64,
    behaviors_us: f64,
    classical_us: f64,
    relative_liveness_us: f64,
    relative_safety_us: f64,
    translate_us: f64,
    filters_us: f64,
}

/// Deterministic counts of one input (the same on every replay).
#[derive(Debug, Clone, Default)]
struct Counts {
    property_states: u64,
    negation_spans: u64,
    behaviors_states: u64,
    intersection_states: u64,
    relative_safety_states: u64,
    guard_charges: u64,
    lazy_expanded: u64,
    lazy_subsumed: u64,
    filter_hits: u64,
    filter_fallthroughs: u64,
    route: &'static str,
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// A guard like a default `rlcheck check` process builds: its own memo
/// cache, the lazy pipeline and the filter ladder on, no budget.
fn cli_guard() -> Guard {
    Guard::new(Budget::unlimited())
        .with_lazy(true)
        .with_filters(true)
        .with_op_cache(OpCache::with_limits(None, None))
}

/// The untraced check, exactly as the CLI runs it.
fn untraced(spec: &CheckSpec) -> Result<(String, f64), String> {
    let guard = cli_guard();
    let mut out = String::new();
    let start = Instant::now();
    run_check(spec, &guard, &mut out).map_err(|e| e.to_string())?;
    Ok((out, us(start)))
}

/// The traced replay: the same calls as `run_check`, in the same order,
/// each timed, under a guard with a metrics registry attached.
fn traced(spec: &CheckSpec) -> Result<(String, Sample, Counts), CheckError> {
    let registry = MetricsRegistry::new();
    let hists = HistogramRegistry::new();
    let guard = cli_guard()
        .with_metrics(registry.clone())
        .with_histograms(hists.clone());
    let mut s = Sample::default();
    let mut out = String::new();
    let total = Instant::now();
    let holds = {
        let _span = guard.span("check");
        let t = Instant::now();
        let ts = spec.source.load()?;
        s.parse_system_us = us(t);
        let t = Instant::now();
        let eta = parse_formula(&spec.formula)?;
        s.parse_us = us(t);
        let t = Instant::now();
        let behaviors = behaviors_of_ts_with(&ts, &guard).map_err(CheckError::from)?;
        s.behaviors_us = us(t);
        let prop = Property::formula(eta.clone());
        let t = Instant::now();
        let sat = satisfies_with(&behaviors, &prop, &guard)?;
        s.classical_us = us(t);
        let _ = writeln!(out, "classical  {eta}: {}", verdict(sat.holds));
        if let Some(x) = sat.counterexample {
            let _ = writeln!(
                out,
                "           counterexample: {}",
                x.display(ts.alphabet())
            );
        }
        let t = Instant::now();
        let rl = is_relative_liveness_with(&behaviors, &prop, &guard)?;
        s.relative_liveness_us = us(t);
        let _ = writeln!(out, "rel-live   {eta}: {}", verdict(rl.holds));
        if let Some(w) = &rl.doomed_prefix {
            let _ = writeln!(
                out,
                "           doomed prefix: {}",
                format_word(ts.alphabet(), w)
            );
        }
        let t = Instant::now();
        let rs = is_relative_safety_with(&behaviors, &prop, &guard)?;
        s.relative_safety_us = us(t);
        let _ = writeln!(out, "rel-safe   {eta}: {}", verdict(rs.holds));
        if let Some(x) = rs.escaping_behavior {
            let _ = writeln!(
                out,
                "           escaping behavior: {}",
                x.display(ts.alphabet())
            );
        }
        Triple(sat.holds, rl.holds, rs.holds)
    };
    s.traced_us = us(total);

    // Outside the check: the two translations every check makes, timed on
    // their own (the property automaton and the negation automaton).
    let ts = spec.source.load()?;
    let prop = Property::formula(parse_formula(&spec.formula)?);
    let t = Instant::now();
    let p = prop.to_buchi(ts.alphabet())?;
    prop.negation_to_buchi_with(ts.alphabet(), &Guard::unlimited())?;
    s.translate_us = us(t);

    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let span_states = |name: &str| -> u64 {
        snap.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.states)
            .sum()
    };
    s.filters_us = hists
        .snapshot()
        .iter()
        .filter(|(name, _)| name.starts_with("filter/"))
        .map(|(_, h)| h.sum as f64)
        .sum();
    let counts = Counts {
        property_states: p.state_count() as u64,
        negation_spans: snap.records.iter().filter(|r| r.name == "negation").count() as u64,
        behaviors_states: span_states("behaviors"),
        intersection_states: span_states("buchi_intersection"),
        relative_safety_states: span_states("relative_safety"),
        guard_charges: snap.total(Metric::GuardCharges),
        lazy_expanded: counter("lazy/expanded"),
        lazy_subsumed: counter("lazy/subsumed"),
        filter_hits: counter("filter/hit"),
        filter_fallthroughs: counter("filter/fallthrough"),
        route: holds.route(),
    };
    Ok((out, s, counts))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Replays every input of the pass `REPS` times (untraced and traced,
/// alternating) and returns the per-layer metrics as one JSON object, or
/// the list of inputs whose traced verdicts differ from the untraced ones.
pub fn replay(inputs: &[Input]) -> Result<String, String> {
    let mut samples: Vec<Sample> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut mismatches = Vec::new();
    let mut per_input = Vec::new();
    for input in inputs {
        if input.over_limit {
            // Those run into the per-check limit; the CLI leg measures them.
            continue;
        }
        let spec = CheckSpec::from_path(input.path.clone(), input.formula.clone());
        let mut per_rep: Vec<Sample> = Vec::new();
        let mut last_counts = None;
        for _ in 0..REPS {
            let (plain, run_us) = untraced(&spec).map_err(|e| format!("{}: {e}", input.id))?;
            let (out, mut s, c) = traced(&spec).map_err(|e| format!("{}: {e}", input.id))?;
            s.run_us = run_us;
            if out != plain {
                mismatches.push(format!(
                    "{}: traced replay printed\n{out}but run_check printed\n{plain}",
                    input.id
                ));
            }
            if parse_report(&out).ok().and_then(|r| r.triple()).is_none() {
                mismatches.push(format!("{}: unreadable replay report", input.id));
            }
            per_rep.push(s);
            last_counts = Some(c);
        }
        let pick = |f: fn(&Sample) -> f64| median(per_rep.iter().map(f).collect());
        per_input.push(format!(
            "{}: {}",
            crate::json_str(&input.id),
            pick(|s| s.run_us)
        ));
        samples.push(Sample {
            run_us: pick(|s| s.run_us),
            traced_us: pick(|s| s.traced_us),
            parse_system_us: pick(|s| s.parse_system_us),
            parse_us: pick(|s| s.parse_us),
            behaviors_us: pick(|s| s.behaviors_us),
            classical_us: pick(|s| s.classical_us),
            relative_liveness_us: pick(|s| s.relative_liveness_us),
            relative_safety_us: pick(|s| s.relative_safety_us),
            translate_us: pick(|s| s.translate_us),
            filters_us: pick(|s| s.filters_us),
        });
        counts.extend(last_counts);
    }
    if !mismatches.is_empty() {
        return Err(mismatches.join("\n"));
    }
    let n = samples.len().max(1) as f64;
    let mean = |f: fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>() / n;
    let cmean = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64 / n;
    let csum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>();
    let run_us = mean(|s| s.run_us);
    let traced_us = mean(|s| s.traced_us);
    let layers_us = mean(|s| {
        s.parse_system_us
            + s.parse_us
            + s.behaviors_us
            + s.classical_us
            + s.relative_liveness_us
            + s.relative_safety_us
    });
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let route = |r: &str| counts.iter().filter(|c| c.route == r).count();
    let mut out = String::from("{");
    let mut field = |name: &str, value: f64| {
        if out.len() > 1 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {value}");
    };
    field("check.run_us", run_us);
    field(
        "check.unattributed_pct",
        100.0 * (traced_us - layers_us) / traced_us.max(f64::MIN_POSITIVE),
    );
    field("format.parse_system_us", mean(|s| s.parse_system_us));
    field("logic.parse_us", mean(|s| s.parse_us));
    field("logic.translate_us", mean(|s| s.translate_us));
    field("logic.property_states", cmean(|c| c.property_states));
    field("logic.negation_spans", cmean(|c| c.negation_spans));
    field("buchi.behaviors_us", mean(|s| s.behaviors_us));
    field("buchi.behaviors_states", cmean(|c| c.behaviors_states));
    field(
        "buchi.intersection_states",
        cmean(|c| c.intersection_states),
    );
    field("core.classical_us", mean(|s| s.classical_us));
    field(
        "core.relative_liveness_us",
        mean(|s| s.relative_liveness_us),
    );
    field("core.relative_safety_us", mean(|s| s.relative_safety_us));
    field(
        "core.relative_safety_states",
        cmean(|c| c.relative_safety_states),
    );
    field("core.route.classical", route("classical") as f64);
    field("core.route.rel_live", route("rel_live") as f64);
    field("core.route.residual", route("residual") as f64);
    field("filters.us", mean(|s| s.filters_us));
    field(
        "filters.hit_ratio",
        ratio(
            csum(|c| c.filter_hits),
            csum(|c| c.filter_hits + c.filter_fallthroughs),
        ),
    );
    field("lazy.expanded", cmean(|c| c.lazy_expanded));
    field("lazy.subsumed", cmean(|c| c.lazy_subsumed));
    field("guard.charges", cmean(|c| c.guard_charges));
    field(
        "obs.overhead_pct",
        100.0 * (traced_us - run_us) / run_us.max(f64::MIN_POSITIVE),
    );
    let _ = write!(
        out,
        ", \"per_input_run_us\": {{{}}}}}",
        per_input.join(", ")
    );
    Ok(out)
}
