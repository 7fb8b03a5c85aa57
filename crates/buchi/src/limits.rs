//! Limits of regular languages and behaviors of transition systems.
//!
//! The paper (Section 3) defines `lim(L) = { x ∈ Σ^ω | ∃^∞ w ∈ pre(x): w ∈ L }`
//! and models systems as finite-state transition systems without acceptance,
//! whose ω-behavior is the limit of their prefix-closed finite-word language.

use rl_automata::{AutomataError, Dfa, Guard, Nfa, TransitionSystem};

use crate::buchi::Buchi;

/// The Büchi automaton accepting `lim(L(d))` for a *deterministic* automaton.
///
/// For a DFA the unique run of `x` visits accepting states at exactly the
/// positions whose prefix is in `L`, so `x ∈ lim(L)` iff the run hits
/// acceptance infinitely often — i.e. the same graph read with Büchi
/// semantics. (This correspondence is false for NFAs, which is why
/// [`limit_of_regular`] determinizes first.)
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, Nfa};
/// use rl_buchi::{limit_of_dfa, UpWord};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let a = ab.symbol("a").unwrap();
/// let b = ab.symbol("b").unwrap();
/// // L = words ending in a  ⇒  lim(L) = "infinitely many a".
/// let d = Nfa::from_parts(ab, 2, [0], [1], [(0, a, 1), (0, b, 0), (1, a, 1), (1, b, 0)])?
///     .determinize();
/// let lim = limit_of_dfa(&d);
/// assert!(lim.accepts_upword(&UpWord::periodic(vec![a, b])?));
/// assert!(!lim.accepts_upword(&UpWord::new(vec![a], vec![b])?));
/// # Ok(())
/// # }
/// ```
pub fn limit_of_dfa(d: &Dfa) -> Buchi {
    let mut b = Buchi::new(d.alphabet().clone());
    for q in 0..d.state_count() {
        b.add_state(d.is_accepting(q));
    }
    if d.state_count() > 0 {
        b.set_initial(d.initial());
    }
    for (p, a, q) in d.transitions() {
        b.add_transition(p, a, q);
    }
    b
}

/// The Büchi automaton accepting `lim(L(nfa))`, via determinization.
pub fn limit_of_regular(nfa: &Nfa) -> Buchi {
    limit_of_dfa(&nfa.determinize())
}

/// [`limit_of_regular`] under a resource [`Guard`]: the subset construction
/// is charged against the guard's budget.
///
/// # Errors
///
/// Returns a budget error when the guard trips.
pub fn limit_of_regular_with(nfa: &Nfa, guard: &Guard) -> Result<Buchi, AutomataError> {
    let _span = guard.span("limit");
    Ok(limit_of_dfa(&nfa.determinize_with(guard)?))
}

/// The Büchi automaton accepting `lim(L(nfa))` for a prefix-closed NFA
/// with *every state accepting* — no determinization.
///
/// For such an automaton König's lemma closes the gap that makes
/// [`limit_of_regular`] determinize in general: the run tree of an ω-word
/// `x` has a node at depth `n` exactly when `x`'s length-`n` prefix is in
/// `L`, every node's parent is a node (prefixes of prefixes are reachable
/// through the same run), and branching is finite — so *all* prefixes of
/// `x` being in `L` yields an infinite path, i.e. an infinite run. With
/// all states accepting, that run is Büchi-accepting verbatim. Hence
/// `lim(L)` is the same graph read with Büchi semantics, and the
/// exponential subset construction is skipped entirely.
///
/// This is the limit constructor of the lazy fused pipeline; callers must
/// uphold the all-states-accepting precondition (transition-system NFAs
/// and [`Buchi::prefix_nfa`] outputs do by construction).
pub fn limit_of_prefix_closed(nfa: &Nfa) -> Buchi {
    debug_assert!(
        (0..nfa.state_count()).all(|q| nfa.is_accepting(q)),
        "limit_of_prefix_closed needs an all-accepting (prefix-closed) NFA"
    );
    Buchi::from_nfa_structure(nfa)
}

/// The ω-behavior `lim(L)` of a transition system, where `L` is its
/// prefix-closed finite-word language (Definition 6.2 with `h = id`).
///
/// Every state is accepting, so the behaviors are exactly the infinite runs;
/// deadlocked branches contribute nothing (they admit no infinite run). The
/// NFA of a transition system is all-accepting and prefix-closed, so `lim`
/// is its graph read with Büchi semantics (see [`limit_of_prefix_closed`])
/// and no subset construction is needed, even for nondeterministic systems.
pub fn behaviors_of_ts(ts: &TransitionSystem) -> Buchi {
    limit_of_prefix_closed(&ts.to_nfa())
}

/// [`behaviors_of_ts`] under a resource [`Guard`]: the copied graph is
/// charged state by state and transition by transition, so budgets and
/// counters see it.
///
/// # Errors
///
/// Returns a budget error when the guard trips.
pub fn behaviors_of_ts_with(ts: &TransitionSystem, guard: &Guard) -> Result<Buchi, AutomataError> {
    let _span = guard.span("behaviors");
    let nfa = ts.to_nfa();
    let _lim = guard.span("limit");
    for _ in 0..nfa.state_count() {
        guard.charge_state()?;
    }
    for _ in 0..nfa.transition_count() {
        guard.charge_transition()?;
    }
    Ok(limit_of_prefix_closed(&nfa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upword::UpWord;
    use rl_automata::Alphabet;

    #[test]
    fn limit_excludes_deadlocked_runs() {
        let ab = Alphabet::new(["go", "stop"]).unwrap();
        let go = ab.symbol("go").unwrap();
        let stop = ab.symbol("stop").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state(); // deadlock after "stop"
        ts.set_initial(s0);
        ts.add_transition(s0, go, s0);
        ts.add_transition(s0, stop, s1);
        let b = behaviors_of_ts(&ts);
        assert!(b.accepts_upword(&UpWord::periodic(vec![go]).unwrap()));
        // "stop" leads to deadlock: no ω-word goes through it.
        assert!(!b.accepts_upword(&UpWord::new(vec![stop], vec![go]).unwrap()));
    }

    #[test]
    fn limit_of_prefix_closed_equals_infinite_runs() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s1);
        ts.add_transition(s1, b, s0);
        let beh = behaviors_of_ts(&ts);
        assert!(beh.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
        assert!(!beh.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(!beh.accepts_upword(&UpWord::periodic(vec![b, a]).unwrap()));
    }

    #[test]
    fn limit_of_finite_language_is_empty() {
        let ab = Alphabet::new(["a"]).unwrap();
        let a = ab.symbol("a").unwrap();
        // L = {ε, a}: finite, so lim(L) = ∅.
        let d = Nfa::from_parts(ab, 2, [0], [0, 1], [(0, a, 1)])
            .unwrap()
            .determinize();
        assert!(limit_of_dfa(&d).is_empty_language());
    }
}
