//! Differential tests pinning the lazy fused pipeline to an eager oracle
//! built from the public materializing kernels (subset construction,
//! machine closure, `limit_of_dfa`): on the shipped trajectory fixtures
//! and on random machines, the verdicts of `satisfies`/
//! `is_relative_liveness`/`is_relative_safety` must match the oracle's at
//! jobs 1 and 4, with and without the op cache — and every witness either
//! side produces must be *semantically valid* (witnesses may differ in
//! tie-break between the search orders, so validity, not equality, is
//! what is pinned).

use std::sync::Arc;

use proptest::prelude::*;
use relative_liveness::format::parse_system;
use rl_automata::{
    dfa_included, nfa_included_lazy, Alphabet, Guard, Metric, MetricsRegistry, Nfa, OpCache, Pool,
    Symbol, TransitionSystem, Word,
};
use rl_bench::random_system;
use rl_buchi::{behaviors_of_ts_with, limit_of_dfa, limit_of_regular, UpWord};
use rl_core::{
    is_machine_closed, is_relative_liveness_with, is_relative_safety_with, satisfies,
    satisfies_with, Property,
};
use rl_logic::parse;

const SIGMA2: [&str; 2] = ["a", "b"];

fn alphabet2() -> Alphabet {
    Alphabet::new(SIGMA2).expect("valid alphabet")
}

/// Random NFA over {a, b} with exactly `n` states (the `bitset_equiv`
/// generator).
fn nfa_strategy(n: usize) -> impl Strategy<Value = Nfa> {
    let transitions = proptest::collection::vec((0..n, 0..2usize, 0..n), 0..=(3 * n));
    let accepting = proptest::collection::vec(0..n, 0..=n);
    let initial = proptest::collection::vec(0..n, 1..=2);
    (transitions, accepting, initial).prop_map(move |(ts, acc, init)| {
        Nfa::from_parts(
            alphabet2(),
            n,
            init,
            acc,
            ts.into_iter()
                .map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .expect("indices in range")
    })
}

proptest! {
    /// The fused antichain search decides exactly the inclusion the
    /// materializing path (determinize both, difference, shortest accepted
    /// word) decides, and its witnesses are shortest words of the
    /// difference language.
    #[test]
    fn lazy_inclusion_agrees_with_eager(a in nfa_strategy(5), b in nfa_strategy(5)) {
        let guard = Guard::unlimited();
        let lazy = nfa_included_lazy(&a, &b, &guard).expect("unlimited guard");
        let eager = dfa_included(&a.determinize(), &b.determinize());
        match (&lazy, &eager) {
            (None, None) => {}
            (Some(lw), Some(ew)) => {
                // Same verdict; witnesses are both shortest, so same length.
                prop_assert_eq!(lw.len(), ew.len());
                prop_assert!(a.accepts(lw), "lazy witness not in L(a): {:?}", lw);
                prop_assert!(!b.accepts(lw), "lazy witness in L(b): {:?}", lw);
            }
            _ => prop_assert!(false, "verdicts differ: lazy {:?}, eager {:?}", lazy, eager),
        }
    }
}

/// One full check (behaviors → classical → rel-live → rel-safe) of a
/// formula against a transition system.
struct Run {
    sat: bool,
    live: bool,
    safe: bool,
    counterexample: Option<UpWord>,
    doomed: Option<Word>,
    escape: Option<UpWord>,
    /// Deterministic totals: (states, transitions, guard charges,
    /// lazy/expanded, lazy/subsumed).
    counters: (u64, u64, u64, u64, u64),
}

/// The lazy pipeline under a metered guard with `jobs` workers and, when
/// `cache` is set, an op cache.
fn run_check(ts: &TransitionSystem, formula: &str, jobs: usize, cache: bool) -> Run {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let reg = MetricsRegistry::new();
    let mut guard = Guard::unlimited().with_metrics(reg.clone());
    if cache {
        guard = guard.with_op_cache(OpCache::new());
    }
    if jobs >= 2 {
        guard = guard.with_pool(Arc::new(Pool::new(jobs)));
    }
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let sat = satisfies_with(&behaviors, &prop, &guard).expect("satisfies");
    let live = is_relative_liveness_with(&behaviors, &prop, &guard).expect("rel-live");
    let safe = is_relative_safety_with(&behaviors, &prop, &guard).expect("rel-safe");
    Run {
        sat: sat.holds,
        live: live.holds,
        safe: safe.holds,
        counterexample: sat.counterexample,
        doomed: live.doomed_prefix,
        escape: safe.escaping_behavior,
        counters: (
            reg.total(Metric::States),
            reg.total(Metric::Transitions),
            reg.total(Metric::GuardCharges),
            reg.counter("lazy/expanded").get(),
            reg.counter("lazy/subsumed").get(),
        ),
    }
}

/// The eager oracle: behaviors by subset construction
/// (`limit_of_regular`), Lemma 4.3 as machine closure of the determinized
/// prefix automata, and Lemma 4.4 with `lim(pre(L ∩ P))` taken on the
/// determinized prefix automaton (`limit_of_dfa`), then `∩ L`, `∩ ¬P` and
/// emptiness. Machine closure names no doomed prefix, and the oracle runs
/// unmetered, so `doomed` is `None` and the counters are zero.
fn eager_reference(ts: &TransitionSystem, formula: &str) -> Run {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let beh = limit_of_regular(&ts.to_nfa());
    let p = prop.to_buchi(beh.alphabet()).expect("property to Büchi");
    let both = beh.intersection(&p).expect("L ∩ P");
    let sat = satisfies(&beh, &prop).expect("satisfies");
    let live = is_machine_closed(&beh, &both).expect("machine closure");
    let neg = prop
        .negation_to_buchi(beh.alphabet())
        .expect("negation to Büchi");
    let escape = beh
        .intersection(&limit_of_dfa(&both.prefix_nfa().determinize()))
        .and_then(|b| b.intersection(&neg))
        .expect("L ∩ lim(pre(L ∩ P)) ∩ ¬P")
        .accepted_upword();
    Run {
        sat: sat.holds,
        live,
        safe: escape.is_none(),
        counterexample: sat.counterexample,
        doomed: None,
        escape,
        counters: (0, 0, 0, 0, 0),
    }
}

/// Semantic validity of the witnesses a run produced, against the system's
/// behaviors and the property — independent of which side found them.
fn assert_witnesses_valid(ts: &TransitionSystem, formula: &str, run: &Run) {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let guard = Guard::unlimited();
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let p = prop
        .to_buchi(behaviors.alphabet())
        .expect("property to Büchi");
    if let Some(x) = &run.counterexample {
        assert!(behaviors.accepts_upword(x), "counterexample not a behavior");
        assert!(!p.accepts_upword(x), "counterexample satisfies P");
    }
    if let Some(w) = &run.doomed {
        // Lemma 4.3: w ∈ pre(L_ω) but w ∉ pre(L_ω ∩ P).
        let both = behaviors.intersection(&p).expect("intersection");
        assert!(
            behaviors.prefix_nfa().accepts(w),
            "doomed prefix not a prefix of any behavior: {w:?}"
        );
        assert!(
            !both.prefix_nfa().accepts(w),
            "doomed prefix extends into P: {w:?}"
        );
    }
    if let Some(x) = &run.escape {
        assert!(behaviors.accepts_upword(x), "escape not a behavior");
        assert!(!p.accepts_upword(x), "escape satisfies P");
    }
}

/// Compares a lazy run against the eager oracle: the three verdict bits
/// must agree, and both sides' witnesses must be valid.
fn assert_equivalent(ts: &TransitionSystem, formula: &str, lazy: &Run, eager: &Run) {
    assert_eq!(lazy.sat, eager.sat, "classical verdict differs ({formula})");
    assert_eq!(
        lazy.live, eager.live,
        "rel-live verdict differs ({formula})"
    );
    assert_eq!(
        lazy.safe, eager.safe,
        "rel-safe verdict differs ({formula})"
    );
    assert_witnesses_valid(ts, formula, lazy);
    assert_witnesses_valid(ts, formula, eager);
}

fn fixture(file: &str) -> TransitionSystem {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text =
        std::fs::read_to_string(format!("{root}/examples/systems/{file}")).expect("fixture reads");
    parse_system(&text).expect("fixture parses")
}

/// The shipped trajectory fixtures plus `filter_sim.ts` (minus needle24,
/// whose subset construction the oracle cannot afford — it gets its own
/// test below — and the other `filter_*` fixtures, whose eager runs take
/// seconds).
const FIXTURES: [(&str, &str); 5] = [
    ("abp.ts", "[]<>deliver"),
    ("clock.ts", "[]<>tick"),
    ("server.pn", "[]<>result"),
    ("server_err.pn", "[]<>result"),
    ("filter_sim.ts", "[]<>ack"),
];

#[test]
fn trajectory_fixtures_agree_across_pipelines() {
    for (file, formula) in FIXTURES {
        let ts = fixture(file);
        let eager = eager_reference(&ts, formula);
        for jobs in [1, 4] {
            for cache in [true, false] {
                let lazy = run_check(&ts, formula, jobs, cache);
                assert_equivalent(&ts, formula, &lazy, &eager);
            }
        }
    }
}

#[test]
fn lazy_counters_are_thread_count_independent() {
    // PR-4 discipline, extended to the fused search: states, transitions,
    // guard charges, and the lazy/* counters are bit-for-bit identical at
    // any thread count (the needle fixture drives frontier widths past the
    // parallel threshold).
    for (file, formula) in [("abp.ts", "[]<>deliver"), ("needle24.ts", "[]<>a")] {
        let ts = fixture(file);
        let j1 = run_check(&ts, formula, 1, true);
        let j4 = run_check(&ts, formula, 4, true);
        assert_eq!(j1.counters, j4.counters, "{file}");
        assert_eq!(j1.sat, j4.sat);
        assert_eq!(j1.live, j4.live);
        assert_eq!(j1.safe, j4.safe);
        assert_eq!(j1.doomed, j4.doomed, "lazy witness must be deterministic");
        assert_eq!(j1.escape, j4.escape);
    }
}

#[test]
fn needle24_is_feasible_only_lazily() {
    // The subset construction the eager oracle cannot avoid needs 2^24
    // states on this fixture; the fused search with retro-pruned antichain
    // subsumption decides it in a few dozen expansions.
    let ts = fixture("needle24.ts");
    let lazy = run_check(&ts, "[]<>a", 1, true);
    assert!(lazy.live, "needle24 is relative-live for []<>a");
    assert!(!lazy.sat && !lazy.safe);
    assert_witnesses_valid(&ts, "[]<>a", &lazy);
    let (_, _, _, expanded, subsumed) = lazy.counters;
    assert!(
        expanded < 1000,
        "antichain search must stay tiny, expanded {expanded}"
    );
    assert!(subsumed > 0, "subsumption must fire, subsumed {subsumed}");
}

#[test]
fn filter_fixtures_fail_rel_live_lazily() {
    // The eager oracle takes seconds on these fixtures, so only the lazy
    // verdict is pinned: `[]<>a` is not relative-live on any of them, the
    // doomed prefix replays, and the thread count changes nothing.
    for file in [
        "filter_parikh.ts",
        "filter_mod3.ts",
        "filter_fallthrough.ts",
    ] {
        let ts = fixture(file);
        let j1 = run_check(&ts, "[]<>a", 1, true);
        assert!(!j1.live, "{file}: []<>a must not be relative-live");
        assert!(j1.doomed.is_some(), "{file}: no doomed prefix");
        assert_witnesses_valid(&ts, "[]<>a", &j1);
        let j4 = run_check(&ts, "[]<>a", 4, true);
        assert_eq!(j1.live, j4.live, "{file}");
        assert_eq!(j1.doomed, j4.doomed, "{file}");
        assert_eq!(j1.counters, j4.counters, "{file}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random systems: the full three-decider pipeline agrees with the
    /// eager oracle, and witnesses stay valid.
    #[test]
    fn random_systems_agree_across_pipelines(
        seed in 0u64..10_000,
        n in 2usize..7,
        density in proptest::sample::select(&[0.2f64, 0.4, 0.7][..]),
        formula in proptest::sample::select(&["[]<>t0", "<>t1", "[]t0", "[]<>t1"][..]),
    ) {
        let ts = random_system(seed, n, 2, density);
        let lazy = run_check(&ts, formula, 1, true);
        let eager = eager_reference(&ts, formula);
        assert_equivalent(&ts, formula, &lazy, &eager);
        // The pool changes nothing at all; dropping the op cache changes
        // neither verdicts nor witnesses (only the cache-hit accounting).
        let lazy4 = run_check(&ts, formula, 4, true);
        prop_assert_eq!(lazy.live, lazy4.live);
        prop_assert_eq!(&lazy.doomed, &lazy4.doomed);
        prop_assert_eq!(lazy.counters, lazy4.counters);
        let uncached = run_check(&ts, formula, 1, false);
        prop_assert_eq!(lazy.live, uncached.live);
        prop_assert_eq!(&lazy.doomed, &uncached.doomed);
        prop_assert_eq!(&lazy.escape, &uncached.escape);
    }
}
