//! Experiment harness: regenerates every table recorded in EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p rl-bench --bin harness [-- <experiment>]`
//! where `<experiment>` is one of `fig2 fig3 fig4 scaling payoff hardness
//! ltl fair prob trajectory par hist all` (default `all`).
//!
//! `trajectory` additionally writes `BENCH_<date>.json` at the repository
//! root: per-phase observability metrics (schema `rl-bench-trajectory/v1`)
//! for every example system, including `needle24.ts` under a budget, with
//! the lazy search's `lazy/expanded` and `lazy/subsumed` counters.
//! `--out <path>` redirects that JSON (used by the `bench_compare` CI job
//! to produce a fresh run without clobbering the committed baseline), and
//! `--jobs N` runs every case with an `N`-worker pool attached to the guard
//! (the counters must not change — only wall-clock may). Every case is
//! additionally re-run with the event tracer attached; the run aborts if
//! tracing shifts any deterministic counter, and the traced wall clock,
//! event count, and equality witness land in the JSON
//! (`traced_elapsed_us`, `trace_events`, `trace_counters_equal`).
//!
//! `par` writes `BENCH_<date>-par.json` (schema `rl-bench-par/v1`): every
//! trajectory case timed at `--jobs 1` and `--jobs 4` side by side, with a
//! `counters_equal` witness that the parallel kernels charged bit-for-bit
//! the sequential totals.
//!
//! `hist` writes `BENCH_<date>-hist.json` (schema `rl-bench-hist/v1`):
//! every trajectory case run with the percentile histogram registry
//! attached next to a detached control — per-family p50/p90/p99/max plus a
//! `hist_counters_equal` witness that recording latency samples moved no
//! deterministic counter.

use std::time::{Duration, Instant};

use relative_liveness::format::parse_system;
use rl_abstraction::{abstract_behavior, check_simplicity, Homomorphism};
use rl_bench::{
    fairness_chain, farm_observables, nested_until, nth_from_end_property, server_farm, token_ring,
};
use rl_buchi::{behaviors_of_ts, behaviors_of_ts_with, Buchi};
use rl_core::{
    is_relative_liveness, is_relative_liveness_with, is_relative_safety, is_relative_safety_with,
    satisfies, satisfies_with, synthesize_fair_implementation, verify_via_abstraction, Budget,
    CheckError, Guard, Metric, MetricsRegistry, Property, TransferConclusion,
};
use rl_exec::{run, AgingScheduler};
use rl_json::{Json, ObjBuilder, ToJson};
use rl_logic::{formula_to_buchi, parse, Labeling};
use rl_petri::examples::{server_behaviors, server_err_behaviors};

fn time_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    // Median of three runs.
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..3 {
        let start = Instant::now();
        out = Some(f());
        times.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    times.sort_by(f64::total_cmp);
    (out.expect("ran at least once"), times[1])
}

fn fig2() {
    println!("== E2/E3 — Figure 2: the correct server ==");
    let ts = server_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let classical = satisfies(&behaviors, &p).expect("checks");
    let relative = is_relative_liveness(&behaviors, &p).expect("checks");
    let safety = is_relative_safety(&behaviors, &p).expect("checks");
    println!("states                {:>8}", ts.state_count());
    println!("transitions           {:>8}", ts.transition_count());
    println!("classical []<>result  {:>8}", classical.holds);
    println!(
        "counterexample        {:>8}",
        classical
            .counterexample
            .map(|x| x.display(ts.alphabet()))
            .unwrap_or_default()
    );
    println!("rel-live []<>result   {:>8}", relative.holds);
    println!("rel-safe []<>result   {:>8}", safety.holds);
    println!();
}

fn fig3() {
    println!("== E4 — Figure 3: the erroneous server ==");
    let ts = server_err_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let relative = is_relative_liveness(&behaviors, &p).expect("checks");
    println!("states                {:>8}", ts.state_count());
    println!("rel-live []<>result   {:>8}", relative.holds);
    println!(
        "doomed prefix         {:>8}",
        relative
            .doomed_prefix
            .map(|w| rl_automata::format_word(ts.alphabet(), &w))
            .unwrap_or_default()
    );
    println!();
}

fn fig4() {
    println!("== E5/E6/E12 — Figure 4 + simplicity + transfer ==");
    let keep = ["request", "result", "reject"];
    let eta = parse("[]<>result").expect("parses");
    for (name, ts) in [
        ("Figure 2", server_behaviors()),
        ("Figure 3", server_err_behaviors()),
    ] {
        let h = Homomorphism::hiding(ts.alphabet(), keep).expect("visible actions exist");
        let analysis = verify_via_abstraction(&ts, &h, &eta).expect("pipeline runs");
        let conclusion = match analysis.conclusion {
            TransferConclusion::ConcreteHolds => "concrete HOLDS (Thm 8.2)",
            TransferConclusion::ConcreteFails { .. } => "concrete FAILS (Thm 8.3)",
            TransferConclusion::InconclusiveNotSimple { .. } => "INCONCLUSIVE (not simple)",
            TransferConclusion::InconclusiveMaximalWords => "INCONCLUSIVE (maximal words)",
        };
        println!(
            "{name}: abstract states {} | abstract holds {} | simple {} | {}",
            analysis.abstract_system.state_count(),
            analysis.abstract_verdict.holds,
            analysis.simplicity.simple,
            conclusion
        );
    }
    println!();
}

fn scaling() {
    println!("== E8 — relative-liveness decision scaling (Theorem 4.5) ==");
    println!(
        "{:<18} {:>8} {:>12} {:>10}",
        "family", "states", "rel-live", "ms"
    );
    for n in [4usize, 8, 16, 32, 64, 128] {
        let ts = token_ring(n);
        let p = Property::formula(parse("[]<>pass0").expect("parses"));
        let behaviors = behaviors_of_ts(&ts);
        let (verdict, ms) = time_ms(|| is_relative_liveness(&behaviors, &p).expect("checks"));
        println!(
            "{:<18} {:>8} {:>12} {:>10.2}",
            format!("token_ring({n})"),
            ts.state_count(),
            verdict.holds,
            ms
        );
    }
    for k in [1usize, 2, 3] {
        let ts = server_farm(k);
        let p = Property::formula(parse("[]<>result0").expect("parses"));
        let behaviors = behaviors_of_ts(&ts);
        let (verdict, ms) = time_ms(|| is_relative_liveness(&behaviors, &p).expect("checks"));
        println!(
            "{:<18} {:>8} {:>12} {:>10.2}",
            format!("server_farm({k})"),
            ts.state_count(),
            verdict.holds,
            ms
        );
    }
    println!();
}

fn payoff() {
    println!("== E13 — abstraction payoff (Corollary 8.4) ==");
    println!(
        "{:<16} {:>8} {:>10} {:>14} {:>14} {:>18} {:>9}",
        "system",
        "states",
        "abs-states",
        "concrete-ms",
        "abstract-ms",
        "compositional-ms",
        "speedup"
    );
    for k in [1usize, 2, 3] {
        let ts = server_farm(k);
        let keep: Vec<String> = farm_observables(k);
        let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
        let h = Homomorphism::hiding(ts.alphabet(), keep_refs.iter().copied())
            .expect("observables exist");
        let eta = parse("[]<>result0").expect("parses");

        // Concrete route: decide the transported property on the full system.
        let (concrete, concrete_ms) =
            time_ms(|| rl_core::check_transported_concrete(&ts, &h, &eta).expect("concrete check"));
        // Abstract route: abstraction + simplicity + abstract decision.
        let (abs_states, abstract_ms) = time_ms(|| {
            let abs = abstract_behavior(&h, &ts);
            let simple = check_simplicity(&h, &ts.to_nfa())
                .expect("simplicity")
                .simple;
            let verdict =
                is_relative_liveness(&behaviors_of_ts(&abs), &Property::formula(eta.clone()))
                    .expect("abstract check");
            assert!(simple && verdict.holds == concrete.holds);
            abs.state_count()
        });
        // Compositional route (Ochsenschläger-style): never build the
        // concrete composite at all.
        let components: Vec<rl_automata::TransitionSystem> =
            (0..k).map(rl_bench::indexed_server).collect();
        let union_names: Vec<String> = components
            .iter()
            .flat_map(|c| c.alphabet().names())
            .collect();
        let union_ab = rl_automata::Alphabet::new(union_names).expect("distinct names");
        let h_union = Homomorphism::new(&union_ab, h.target(), |n| {
            if keep.iter().any(|v| v == n) {
                Some(n.to_owned())
            } else {
                None
            }
        })
        .expect("same visible names");
        let (_, compositional_ms) = time_ms(|| {
            let abs = rl_abstraction::compositional_abstract_behavior(&components, &h_union)
                .expect("hidden actions are local");
            let verdict =
                is_relative_liveness(&behaviors_of_ts(&abs), &Property::formula(eta.clone()))
                    .expect("abstract check");
            assert!(verdict.holds == concrete.holds || k > 2);
            abs.state_count()
        });
        println!(
            "{:<16} {:>8} {:>10} {:>14.2} {:>14.2} {:>18.2} {:>8.1}x",
            format!("server_farm({k})"),
            ts.state_count(),
            abs_states,
            concrete_ms,
            abstract_ms,
            compositional_ms,
            concrete_ms / compositional_ms
        );
    }
    println!();
}

fn hardness() {
    println!("== E14 — determinization-hardness family (PSPACE shape) ==");
    println!(
        "{:<6} {:>14} {:>16} {:>10}",
        "n", "property-states", "pre-DFA-states", "ms"
    );
    let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
    for n in [2usize, 4, 6, 8, 10, 12] {
        let prop = nth_from_end_property(n);
        let system = Buchi::universal(ab.clone());
        let (size, ms) = time_ms(|| {
            let both = system.intersection(&prop).expect("same alphabet").reduce();
            both.prefix_nfa().determinize().state_count()
        });
        println!(
            "{:<6} {:>14} {:>16} {:>10.2}",
            n,
            prop.state_count(),
            size,
            ms
        );
    }
    println!();
}

fn ltl() {
    println!("== LTL → Büchi translation (GPVW) ==");
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "formula family", "size", "aut-states", "ms"
    );
    let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
    let lam = Labeling::canonical(&ab);
    for k in [1usize, 2, 3, 4, 5] {
        let f = nested_until(k);
        let (states, ms) = time_ms(|| formula_to_buchi(&f, &lam).state_count());
        println!(
            "{:<22} {:>10} {:>12} {:>10.2}",
            format!("nested_until({k})"),
            f.size(),
            states,
            ms
        );
    }
    for k in [1usize, 2, 3] {
        let f = fairness_chain(k);
        let (states, ms) = time_ms(|| formula_to_buchi(&f, &lam).state_count());
        println!(
            "{:<22} {:>10} {:>12} {:>10.2}",
            format!("fairness_chain({k})"),
            f.size(),
            states,
            ms
        );
    }
    println!();
}

fn fair() {
    println!("== E10 — Theorem 5.1 synthesis + strongly fair execution ==");
    let ts = server_behaviors();
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let imp = synthesize_fair_implementation(&ts, &p).expect("rel-live property");
    let r = run(&imp.system, &mut AgingScheduler::new(), 10_000);
    let result = imp.system.alphabet().symbol("result").expect("interned");
    let count = r.action_counts().get(&result).copied().unwrap_or(0);
    let gap = r
        .max_gap_between_visits(&imp.recurrent)
        .unwrap_or(usize::MAX);
    println!("original states       {:>8}", ts.state_count());
    println!("synthesized states    {:>8}", imp.system.state_count());
    println!("fair-run steps        {:>8}", r.len());
    println!("results produced      {:>8}", count);
    println!("max recurrence gap    {:>8}", gap);
    println!(
        "fairness ratio        {:>8.3}",
        rl_exec::min_fairness_ratio(&imp.system, &r, 10)
    );
    println!();
}

fn prob() {
    println!("== E16 — relative liveness vs probabilistic truth ==");
    println!(
        "{:<28} {:<12} {:>9} {:>12} {:>10}",
        "system", "property", "rel-live", "MC-estimate", "exact-Pr"
    );
    let rows: Vec<(&str, rl_automata::TransitionSystem, &str, Option<&str>)> = {
        let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
        let a = ab.symbol("a").expect("interned");
        let b = ab.symbol("b").expect("interned");
        let mut coin = rl_automata::TransitionSystem::new(ab);
        let s = coin.add_state();
        coin.set_initial(s);
        coin.add_transition(s, a, s);
        coin.add_transition(s, b, s);
        vec![
            (
                "server (Fig 2)",
                server_behaviors(),
                "[]<>result",
                Some("result"),
            ),
            (
                "erroneous server (Fig 3)",
                server_err_behaviors(),
                "[]<>result",
                Some("result"),
            ),
            ("coin flips {a,b}^ω", coin.clone(), "<>[]a", None),
            ("coin flips {a,b}^ω", coin, "[]<>a", Some("a")),
        ]
    };
    for (name, ts, text, action) in rows {
        let eta = parse(text).expect("parses");
        let rl = is_relative_liveness(&behaviors_of_ts(&ts), &Property::formula(eta.clone()))
            .expect("checks")
            .holds;
        let lam = Labeling::canonical(ts.alphabet());
        let est = rl_exec::estimate_satisfaction(&ts, &eta, &lam, 2_000, 17);
        let exact = action
            .map(|act| {
                let sym = ts.alphabet().symbol(act).expect("interned");
                format!("{:.2}", rl_exec::probability_of_recurrence(&ts, sym))
            })
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{:<28} {:<12} {:>9} {:>12.2} {:>10}",
            name, text, rl, est.probability, exact
        );
    }
    println!();
}

/// Today's civil date as `YYYY-MM-DD` (Hinnant's `civil_from_days`, so no
/// calendar dependency is needed).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// One trajectory case: the full `check` pipeline (classical, relative
/// liveness, relative safety) on an example system under a metered guard.
/// With a tracer the registry, pool, and op cache all record timeline
/// events — the counters must come out bit-for-bit identical either way.
fn trajectory_case(
    root: &str,
    file: &str,
    formula: &str,
    budget: Budget,
    jobs: usize,
    tracer: Option<std::sync::Arc<rl_automata::Tracer>>,
) -> (String, MetricsRegistry) {
    let text = std::fs::read_to_string(format!("{root}/examples/systems/{file}"))
        .expect("example system exists");
    let ts = parse_system(&text).expect("example system parses");
    let eta = parse(formula).expect("parses");
    let prop = Property::formula(eta);
    let registry = MetricsRegistry::new();
    registry.note_jobs(jobs);
    if let Some(t) = &tracer {
        registry.set_tracer(std::sync::Arc::clone(t));
    }
    // One memo cache per case, exactly like a default `rlcheck` invocation:
    // the three deciders share intermediate products/determinizations.
    let cache = match &tracer {
        Some(t) => rl_automata::OpCache::with_tracer(std::sync::Arc::clone(t)),
        None => rl_automata::OpCache::new(),
    };
    let mut guard = Guard::new(budget)
        .with_metrics(registry.clone())
        .with_op_cache(cache);
    if jobs >= 2 {
        guard = guard.with_pool(std::sync::Arc::new(rl_automata::Pool::with_tracer(
            jobs,
            tracer.clone(),
        )));
    }
    let verdict = (|| -> Result<bool, CheckError> {
        let _span = guard.span("check");
        let behaviors = behaviors_of_ts_with(&ts, &guard).map_err(CheckError::from)?;
        satisfies_with(&behaviors, &prop, &guard)?;
        let rl = is_relative_liveness_with(&behaviors, &prop, &guard)?;
        is_relative_safety_with(&behaviors, &prop, &guard)?;
        Ok(rl.holds)
    })();
    let outcome = match verdict {
        Ok(true) => "rel-live holds".to_owned(),
        Ok(false) => "rel-live fails".to_owned(),
        Err(CheckError::BudgetExceeded { partial, .. }) => format!(
            "budget exhausted in {}",
            partial.phase.unwrap_or_else(|| "?".to_owned())
        ),
        Err(e) => format!("error: {e}"),
    };
    (outcome, registry)
}

/// The shared case list for `trajectory` and `par`.
fn trajectory_cases() -> [(&'static str, &'static str, Budget); 5] {
    let mut needle_budget = Budget::unlimited();
    needle_budget.max_states = Some(20_000);
    needle_budget.deadline = Some(Duration::from_secs(5));
    [
        ("abp.ts", "[]<>deliver", Budget::unlimited()),
        ("clock.ts", "[]<>tick", Budget::unlimited()),
        ("server.pn", "[]<>result", Budget::unlimited()),
        ("server_err.pn", "[]<>result", Budget::unlimited()),
        ("needle24.ts", "[]<>a", needle_budget),
    ]
}

fn trajectory(out_override: Option<&str>, jobs: usize) {
    println!("== E17 — per-phase observability trajectory (jobs {jobs}) ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cases = trajectory_cases();
    println!(
        "{:<16} {:>10} {:>12} {:>8} {:>10}   outcome",
        "system", "states", "transitions", "phases", "ms"
    );
    let totals = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
            r.total(Metric::CacheHits),
        ]
    };
    let mut rows = Vec::new();
    for (file, formula, budget) in cases {
        let (outcome, registry) = trajectory_case(root, file, formula, budget.clone(), jobs, None);
        // Tracer-overhead guard: the same case with the event tracer
        // attached must charge bit-for-bit the same deterministic counters
        // — tracing is timeline-only by construction, and this is where
        // that invariant is enforced release after release.
        let tracer = std::sync::Arc::new(rl_automata::Tracer::new());
        let (traced_outcome, traced_registry) = trajectory_case(
            root,
            file,
            formula,
            budget,
            jobs,
            Some(std::sync::Arc::clone(&tracer)),
        );
        let trace_counters_equal =
            totals(&registry) == totals(&traced_registry) && outcome == traced_outcome;
        assert!(
            trace_counters_equal,
            "{file}: tracer perturbed the deterministic counters \
             ({:?} untraced vs {:?} traced)",
            totals(&registry),
            totals(&traced_registry)
        );
        let records = registry.records();
        println!(
            "{:<16} {:>10} {:>12} {:>8} {:>10.2}   {}",
            file,
            registry.total(Metric::States),
            registry.total(Metric::Transitions),
            records.len(),
            registry.elapsed().as_secs_f64() * 1_000.0,
            outcome
        );
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome)
                .field("elapsed_us", registry.elapsed().as_micros() as u64)
                .field("states", registry.total(Metric::States))
                .field("transitions", registry.total(Metric::Transitions))
                .field("guard_charges", registry.total(Metric::GuardCharges))
                .field("cache_hits", registry.total(Metric::CacheHits))
                .field("lazy_expanded", registry.counter("lazy/expanded").get())
                .field("lazy_subsumed", registry.counter("lazy/subsumed").get())
                .field(
                    "traced_elapsed_us",
                    traced_registry.elapsed().as_micros() as u64,
                )
                .field("trace_events", tracer.events().len() as u64)
                .field("trace_counters_equal", trace_counters_equal)
                .field(
                    "phases",
                    Json::Arr(records.iter().map(ToJson::to_json).collect()),
                )
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-trajectory/v1")
        .field("date", date.as_str())
        .field("jobs", jobs as u64)
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("trajectory document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

/// Per-jobs wall-clock comparison: every trajectory case at `--jobs 1` and
/// `--jobs 4`, with a witness that the counters are bit-for-bit equal.
/// Writes `BENCH_<date>-par.json` (schema `rl-bench-par/v1`).
fn par(out_override: Option<&str>) {
    println!("== E18 — parallel kernels: jobs 1 vs jobs 4 ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>15}   outcome",
        "system", "jobs1-ms", "jobs4-ms", "speedup", "counters-equal"
    );
    let counters = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
            r.total(Metric::CacheHits),
        ]
    };
    let mut rows = Vec::new();
    for (file, formula, budget) in trajectory_cases() {
        // Median-of-three wall clocks at each worker count, like `time_ms`.
        // The registry's clock is live (now − creation), so the elapsed
        // reading is taken the moment each case returns.
        let timed = |jobs: usize| {
            let mut runs: Vec<(String, MetricsRegistry, u64)> = (0..3)
                .map(|_| {
                    let (outcome, reg) =
                        trajectory_case(root, file, formula, budget.clone(), jobs, None);
                    let us = reg.elapsed().as_micros() as u64;
                    (outcome, reg, us)
                })
                .collect();
            runs.sort_by_key(|&(_, _, us)| us);
            runs.swap_remove(1)
        };
        let (outcome1, reg1, us1) = timed(1);
        let (outcome4, reg4, us4) = timed(4);
        let equal = counters(&reg1) == counters(&reg4) && outcome1 == outcome4;
        let speedup = us1 as f64 / us4.max(1) as f64;
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>8.2}x {:>15}   {}",
            file,
            us1 as f64 / 1_000.0,
            us4 as f64 / 1_000.0,
            speedup,
            equal,
            outcome1
        );
        assert!(equal, "{file}: parallel counters diverged from sequential");
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome1)
                .field("jobs1_us", us1)
                .field("jobs4_us", us4)
                .field("speedup", speedup)
                .field("counters_equal", equal)
                .field("states", reg1.total(Metric::States))
                .field("transitions", reg1.total(Metric::Transitions))
                .field("guard_charges", reg1.total(Metric::GuardCharges))
                .build(),
        );
    }
    let date = today();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let note = if threads < 4 {
        "recorded on a host with fewer than 4 CPUs; speedups below 1.0 \
         measure coordination overhead, not the kernels' scaling"
    } else {
        "speedup = jobs1_us / jobs4_us (wall clock, median of three)"
    };
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-par/v1")
        .field("date", date.as_str())
        .field("host_cpus", threads)
        .field("note", note)
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}-par.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("par document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

/// One percentile-instrumented case: the same pipeline as
/// [`trajectory_case`] with a [`rl_automata::HistogramRegistry`] attached
/// to the op cache and (at `jobs >= 2`) the pool, so cache
/// probe/lock waits and steal/park durations record. Returns the registry
/// totals plus the histogram snapshot.
fn hist_case(
    root: &str,
    file: &str,
    formula: &str,
    budget: Budget,
    jobs: usize,
) -> (
    String,
    MetricsRegistry,
    Vec<(String, rl_automata::HistogramSnapshot)>,
) {
    let text = std::fs::read_to_string(format!("{root}/examples/systems/{file}"))
        .expect("example system exists");
    let ts = parse_system(&text).expect("example system parses");
    let eta = parse(formula).expect("parses");
    let prop = Property::formula(eta);
    let registry = MetricsRegistry::new();
    registry.note_jobs(jobs);
    let hists = rl_automata::HistogramRegistry::new();
    let cache = rl_automata::OpCache::new();
    cache.set_histograms(hists.clone());
    let mut guard = Guard::new(budget)
        .with_metrics(registry.clone())
        .with_op_cache(cache);
    if jobs >= 2 {
        let pool = std::sync::Arc::new(rl_automata::Pool::with_tracer(jobs, None));
        pool.set_histograms(hists.clone());
        guard = guard.with_pool(pool);
    }
    let verdict = (|| -> Result<bool, CheckError> {
        let _span = guard.span("check");
        let behaviors = behaviors_of_ts_with(&ts, &guard).map_err(CheckError::from)?;
        satisfies_with(&behaviors, &prop, &guard)?;
        let rl = is_relative_liveness_with(&behaviors, &prop, &guard)?;
        is_relative_safety_with(&behaviors, &prop, &guard)?;
        Ok(rl.holds)
    })();
    let outcome = match verdict {
        Ok(true) => "rel-live holds".to_owned(),
        Ok(false) => "rel-live fails".to_owned(),
        Err(CheckError::BudgetExceeded { partial, .. }) => format!(
            "budget exhausted in {}",
            partial.phase.unwrap_or_else(|| "?".to_owned())
        ),
        Err(e) => format!("error: {e}"),
    };
    (outcome, registry, hists.snapshot())
}

/// Writes `BENCH_<date>-hist.json` (schema `rl-bench-hist/v1`): every
/// trajectory case run with the percentile histogram registry attached,
/// next to a detached control run. Witness `hist_counters_equal`: recording
/// latency samples must not move any deterministic counter — histograms
/// observe the pipeline, never steer it. Per-family `count`/`p50`/`p90`/
/// `p99`/`max` land in the JSON so `bench_compare` can gate percentile
/// regressions against the committed baseline.
fn hist_experiment(out_override: Option<&str>) {
    println!("== E21 — percentile histograms: attached vs detached ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let totals = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
        ]
    };
    println!(
        "{:<16} {:>9} {:>9} {:>10}   busiest family",
        "system", "families", "samples", "ms"
    );
    let mut rows = Vec::new();
    for (file, formula, budget) in trajectory_cases() {
        let (plain_outcome, plain_reg) =
            trajectory_case(root, file, formula, budget.clone(), 1, None);
        let (outcome, reg, hists) = hist_case(root, file, formula, budget, 1);
        let hist_counters_equal = totals(&plain_reg) == totals(&reg) && plain_outcome == outcome;
        assert!(
            hist_counters_equal,
            "{file}: histogram recording perturbed the deterministic counters \
             ({:?} detached vs {:?} attached)",
            totals(&plain_reg),
            totals(&reg)
        );
        let recorded: Vec<_> = hists.iter().filter(|(_, s)| s.count > 0).collect();
        let samples: u64 = recorded.iter().map(|(_, s)| s.count).sum();
        let busiest = recorded.iter().max_by_key(|(_, s)| s.count).map_or_else(
            || "-".to_owned(),
            |(n, s)| format!("{n} (p99 {}µs)", s.p99()),
        );
        println!(
            "{:<16} {:>9} {:>9} {:>10.2}   {}",
            file,
            recorded.len(),
            samples,
            reg.elapsed().as_secs_f64() * 1_000.0,
            busiest
        );
        let families: Vec<Json> = recorded
            .iter()
            .map(|(name, snap)| {
                ObjBuilder::new()
                    .field("name", name.as_str())
                    .field("count", snap.count)
                    .field("p50", snap.p50())
                    .field("p90", snap.p90())
                    .field("p99", snap.p99())
                    .field("max", snap.max)
                    .build()
            })
            .collect();
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome)
                .field("elapsed_us", reg.elapsed().as_micros() as u64)
                .field("states", reg.total(Metric::States))
                .field("transitions", reg.total(Metric::Transitions))
                .field("guard_charges", reg.total(Metric::GuardCharges))
                .field("hist_counters_equal", hist_counters_equal)
                .field("families", Json::Arr(families))
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-hist/v1")
        .field("date", date.as_str())
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}-hist.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("hist document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--out <path>` redirects the trajectory JSON (default:
    // `BENCH_<date>.json` at the repo root).
    let mut out = None;
    while let Some(idx) = args.iter().position(|a| a == "--out") {
        if idx + 1 >= args.len() {
            eprintln!("--out needs a value (output file)");
            std::process::exit(2);
        }
        out = Some(args.remove(idx + 1));
        args.remove(idx);
    }
    // `--jobs N` attaches an N-worker pool to every metered case (0 = one
    // worker per core); counters stay sequential-identical by construction.
    let mut jobs = 1usize;
    while let Some(idx) = args.iter().position(|a| a == "--jobs") {
        if idx + 1 >= args.len() {
            eprintln!("--jobs needs a value (worker count, 0 = auto)");
            std::process::exit(2);
        }
        let raw = args.remove(idx + 1);
        args.remove(idx);
        match raw.parse::<usize>() {
            Ok(n) => jobs = rl_automata::resolve_jobs(Some(n)),
            Err(_) => {
                eprintln!("--jobs: expected a number, got {raw:?}");
                std::process::exit(2);
            }
        }
    }
    let arg = args.first().cloned().unwrap_or_else(|| "all".to_owned());
    match arg.as_str() {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "scaling" => scaling(),
        "payoff" => payoff(),
        "hardness" => hardness(),
        "ltl" => ltl(),
        "fair" => fair(),
        "prob" => prob(),
        "trajectory" => trajectory(out.as_deref(), jobs),
        "par" => par(out.as_deref()),
        "hist" => hist_experiment(out.as_deref()),
        "all" => {
            fig2();
            fig3();
            fig4();
            scaling();
            payoff();
            hardness();
            ltl();
            fair();
            prob();
            trajectory(out.as_deref(), jobs);
            par(None);
            hist_experiment(None);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected one of \
                 fig2 fig3 fig4 scaling payoff hardness ltl fair prob trajectory par hist all"
            );
            std::process::exit(2);
        }
    }
}
