//! Büchi emptiness: SCC analysis, accepting lassos, ultimately-periodic
//! membership.

use std::collections::VecDeque;

use rl_automata::{AutomataError, Guard, StateId, Symbol};

use crate::buchi::Buchi;
use crate::upword::UpWord;

/// Counts visited nodes and polls a guard's deadline and cancel token every
/// [`Guard::CHECK_INTERVAL`] of them. It polls with `check_now`, not `tick`:
/// a visit is not a charge, so the guard's counters do not move.
pub(crate) struct Poll<'g> {
    guard: &'g Guard,
    left: u32,
}

impl<'g> Poll<'g> {
    pub(crate) fn new(guard: &'g Guard) -> Poll<'g> {
        Poll {
            guard,
            left: Guard::CHECK_INTERVAL,
        }
    }

    fn visit(&mut self) -> Result<(), AutomataError> {
        self.left -= 1;
        if self.left > 0 {
            return Ok(());
        }
        self.left = Guard::CHECK_INTERVAL;
        self.guard.check_now()
    }
}

/// Iterative Tarjan SCC. Returns `comp[v]` = component id (ids are in
/// reverse topological order of discovery) for all `n` nodes of the graph
/// given by `succ`, polling `poll` once per discovered node.
fn tarjan(
    n: usize,
    succ: &dyn Fn(usize) -> Vec<usize>,
    poll: &mut Poll,
) -> Result<Vec<usize>, AutomataError> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Explicit DFS stack: (node, iterator position over successors).
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        poll.visit()?;
        let mut call: Vec<(usize, Vec<usize>, usize)> = vec![(root, succ(root), 0)];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some((v, kids, mut i)) = call.pop() {
            let mut descended = false;
            while i < kids.len() {
                let w = kids[i];
                i += 1;
                if index[w] == UNSET {
                    poll.visit()?;
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((v, kids, i));
                    call.push((w, succ(w), 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            // All successors processed: maybe pop an SCC.
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp[w] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
            if let Some(&mut (parent, _, _)) = call.last_mut() {
                low[parent] = low[parent].min(low[v]);
            }
        }
    }
    Ok(comp)
}

/// Marks the states of `b` that lie on an *accepting cycle*: a cycle (within
/// the states marked reachable in `reach`) whose SCC contains an accepting
/// state. These are the recurrence cores of accepting runs.
pub(crate) fn accepting_cycle_states(
    b: &Buchi,
    reach: &[bool],
    poll: &mut Poll,
) -> Result<Vec<bool>, AutomataError> {
    let n = b.state_count();
    let succ = |v: usize| -> Vec<usize> {
        if !reach[v] {
            return Vec::new();
        }
        let mut out = Vec::new();
        for a in b.alphabet().symbols() {
            for q in b.successors(v, a) {
                if reach[q] {
                    out.push(q);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    let comp = tarjan(n, &succ, poll)?;
    let ncomp = comp
        .iter()
        .filter(|&&c| c != usize::MAX)
        .max()
        .map_or(0, |&m| m + 1);
    // An SCC is "cyclic" when it has an internal edge (covers self-loops and
    // non-trivial SCCs alike).
    let mut cyclic = vec![false; ncomp];
    let mut has_acc = vec![false; ncomp];
    for v in 0..n {
        if !reach[v] {
            continue;
        }
        poll.visit()?;
        if b.is_accepting(v) {
            has_acc[comp[v]] = true;
        }
        for w in succ(v) {
            if comp[w] == comp[v] {
                cyclic[comp[v]] = true;
            }
        }
    }
    Ok((0..n)
        .map(|v| reach[v] && cyclic[comp[v]] && has_acc[comp[v]])
        .collect())
}

/// Finds an accepting lasso of `b`: an ultimately periodic word `u·v^ω`
/// accepted by `b`, or `None` when `L(b) = ∅`. Polls `guard` every
/// [`Guard::CHECK_INTERVAL`] visited nodes of each of its three graph
/// walks: reachability, SCCs and the cycle search.
pub(crate) fn accepting_lasso(b: &Buchi, guard: &Guard) -> Result<Option<UpWord>, AutomataError> {
    let mut poll = Poll::new(guard);
    let n = b.state_count();
    let mut reach = vec![false; n];
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut queue: VecDeque<StateId> = VecDeque::new();
    for &q in b.initial() {
        reach[q] = true;
        queue.push_back(q);
    }
    while let Some(p) = queue.pop_front() {
        poll.visit()?;
        for a in b.alphabet().symbols() {
            for q in b.successors(p, a) {
                if !reach[q] {
                    reach[q] = true;
                    parent[q] = Some((p, a));
                    queue.push_back(q);
                }
            }
        }
    }
    let core = accepting_cycle_states(b, &reach, &mut poll)?;
    // Pick an accepting state inside a cyclic accepting SCC (one must exist
    // inside the core: the SCC contains an accepting state by definition).
    let Some(target) = (0..n).find(|&q| core[q] && b.is_accepting(q)) else {
        return Ok(None);
    };
    // Prefix: initial → target.
    let mut prefix = Vec::new();
    let mut cur = target;
    while let Some((p, a)) = parent[cur] {
        prefix.push(a);
        cur = p;
    }
    prefix.reverse();
    // Cycle: target → target within the core's SCC (stay inside `core`).
    let mut cparent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: VecDeque<StateId> = VecDeque::new();
    // Start from target's successors so that the cycle has length ≥ 1.
    for a in b.alphabet().symbols() {
        for q in b.successors(target, a) {
            if !core[q] {
                continue;
            }
            if q == target {
                return Ok(Some(
                    UpWord::new(prefix, vec![a]).expect("period of length 1 is non-empty"),
                ));
            }
            if !seen[q] {
                seen[q] = true;
                cparent[q] = Some((target, a));
                queue.push_back(q);
            }
        }
    }
    while let Some(p) = queue.pop_front() {
        poll.visit()?;
        for a in b.alphabet().symbols() {
            for q in b.successors(p, a) {
                if !core[q] {
                    continue;
                }
                if q == target {
                    // Reconstruct cycle labels: target → … → p → target.
                    let mut labels = vec![a];
                    let mut cur = p;
                    while let Some((r, c)) = cparent[cur] {
                        labels.push(c);
                        cur = r;
                    }
                    labels.reverse();
                    return Ok(Some(UpWord::new(prefix, labels).expect("non-empty cycle")));
                }
                if !seen[q] {
                    seen[q] = true;
                    cparent[q] = Some((p, a));
                    queue.push_back(q);
                }
            }
        }
    }
    // `target` is in a cyclic SCC containing it, so a cycle must exist.
    unreachable!("state in cyclic SCC must lie on a cycle")
}

/// Exact membership of the ultimately periodic word `w` in `L(b)`.
pub(crate) fn accepts_upword(b: &Buchi, w: &UpWord) -> bool {
    // Product of b with the lasso graph of w: nodes (q, i) encoded as
    // q * lasso_len + i.
    let n = b.state_count();
    let len = w.lasso_len();
    let total = n * len;
    let node = |q: StateId, i: usize| q * len + i;
    let succ = |v: usize| -> Vec<usize> {
        let (q, i) = (v / len, v % len);
        let a = w.at(i);
        let j = w.lasso_next(i);
        b.successors(q, a).map(|q2| node(q2, j)).collect()
    };
    // Reachability from initial nodes.
    let mut reach = vec![false; total];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &q in b.initial() {
        let v = node(q, 0);
        if !reach[v] {
            reach[v] = true;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        for u in succ(v) {
            if !reach[u] {
                reach[u] = true;
                queue.push_back(u);
            }
        }
    }
    // A run of b over w exists with infinitely many accepting states iff the
    // product graph has a reachable cycle through an accepting node.
    let succ_reach = |v: usize| -> Vec<usize> {
        if !reach[v] {
            return Vec::new();
        }
        succ(v).into_iter().filter(|&u| reach[u]).collect()
    };
    let unlimited = Guard::unlimited();
    let comp = tarjan(total, &succ_reach, &mut Poll::new(&unlimited))
        .expect("an unlimited guard never trips");
    let ncomp = comp
        .iter()
        .filter(|&&c| c != usize::MAX)
        .max()
        .map_or(0, |&m| m + 1);
    let mut cyclic = vec![false; ncomp];
    let mut has_acc = vec![false; ncomp];
    for v in 0..total {
        if !reach[v] {
            continue;
        }
        if b.is_accepting(v / len) {
            has_acc[comp[v]] = true;
        }
        for u in succ_reach(v) {
            if comp[u] == comp[v] {
                cyclic[comp[v]] = true;
            }
        }
    }
    (0..ncomp).any(|c| cyclic[c] && has_acc[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;

    #[test]
    fn tarjan_finds_components() {
        // 0 → 1 → 2 → 0 (one SCC), 3 isolated, 2 → 3.
        let adj: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let g = Guard::unlimited();
        let comp = tarjan(4, &|v| adj[v].clone(), &mut Poll::new(&g)).unwrap();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn tarjan_handles_self_loop() {
        let adj: Vec<Vec<usize>> = vec![vec![0], vec![]];
        let g = Guard::unlimited();
        let comp = tarjan(2, &|v| adj[v].clone(), &mut Poll::new(&g)).unwrap();
        assert_ne!(comp[0], comp[1]);
    }

    #[test]
    fn lasso_witness_is_accepted() {
        let ab = Alphabet::new(["x", "y"]).unwrap();
        let x = ab.symbol("x").unwrap();
        let y = ab.symbol("y").unwrap();
        // q0 --x--> q1(acc) --y--> q2 --x--> q1
        let b = Buchi::from_parts(ab, 3, [0], [1], [(0, x, 1), (1, y, 2), (2, x, 1)]).unwrap();
        let w = accepting_lasso(&b, &Guard::unlimited())
            .unwrap()
            .expect("nonempty");
        assert!(accepts_upword(&b, &w));
        assert_eq!(w.prefix(), &[x]);
        assert_eq!(w.period().len(), 2);
    }

    #[test]
    fn membership_respects_prefix_positions() {
        let ab = Alphabet::new(["x", "y"]).unwrap();
        let x = ab.symbol("x").unwrap();
        let y = ab.symbol("y").unwrap();
        // Accepts exactly x^ω (single accepting self-loop on x).
        let b = Buchi::from_parts(ab, 1, [0], [0], [(0, x, 0)]).unwrap();
        assert!(accepts_upword(&b, &UpWord::periodic(vec![x]).unwrap()));
        assert!(!accepts_upword(&b, &UpWord::new(vec![y], vec![x]).unwrap()));
        assert!(!accepts_upword(
            &b,
            &UpWord::new(vec![x], vec![x, y]).unwrap()
        ));
    }

    #[test]
    fn expired_deadline_stops_the_lasso_search() {
        use rl_automata::Budget;
        use std::time::Duration;
        // A 10k-state chain closing into an accepting self-loop: every walk
        // visits all of it, so a guard whose deadline has already passed
        // must stop the search instead of returning a verdict.
        let n = 10_000;
        let ab = Alphabet::new(["x"]).unwrap();
        let x = ab.symbol("x").unwrap();
        let edges = (0..n - 1).map(|q| (q, x, q + 1)).chain([(n - 1, x, n - 1)]);
        let b = Buchi::from_parts(ab, n, [0], [n - 1], edges).unwrap();
        assert!(accepting_lasso(&b, &Guard::unlimited()).unwrap().is_some());
        let expired = Guard::new(Budget::unlimited().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            b.accepted_upword_with(&expired),
            Err(AutomataError::BudgetExceeded { .. })
        ));
    }
}
