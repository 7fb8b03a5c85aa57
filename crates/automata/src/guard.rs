//! Execution governance for potentially exponential constructions: resource
//! [`Budget`]s, wall-clock deadlines, and cooperative cancellation.
//!
//! Every worst-case-exponential procedure in this workspace (subset
//! construction, products, Büchi complementation, the simplicity check, …)
//! has a `*_with(&Guard)` variant that charges each materialized state and
//! transition against a [`Budget`] and periodically consults the wall clock
//! and a [`CancelToken`]. When a limit is hit the construction stops with
//! [`AutomataError::BudgetExceeded`] carrying a [`Progress`] snapshot
//! (states explored, frontier size, elapsed time) instead of looping or
//! exhausting memory. The un-suffixed entry points delegate to the guarded
//! ones with [`Guard::unlimited`], so existing callers are unaffected.
//!
//! A single [`Guard`] is intended to be threaded through *all* phases of one
//! logical check, so the budget covers the end-to-end run rather than each
//! construction separately.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use rl_automata::{Budget, Guard};
//!
//! let budget = Budget::unlimited()
//!     .with_max_states(10_000)
//!     .with_deadline(Duration::from_secs(5));
//! let guard = Guard::new(budget);
//! assert!(guard.charge_state().is_ok());
//! assert_eq!(guard.progress().states, 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_obs::{HistogramRegistry, Metric, MetricsRegistry, Span};

use crate::error::AutomataError;
use crate::opcache::OpCache;
use crate::par::Pool;

/// The resource dimensions a [`Budget`] can cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Materialized automaton states.
    States,
    /// Materialized transitions.
    Transitions,
    /// Wall-clock time (reported in milliseconds).
    WallClock,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::States => write!(f, "states"),
            Resource::Transitions => write!(f, "transitions"),
            Resource::WallClock => write!(f, "wall-clock milliseconds"),
        }
    }
}

/// Declarative resource limits for a run of the decision procedures.
///
/// `None` in a field means "unlimited". Budgets are plain data; attach one
/// to a [`Guard`] to enforce it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole guarded run.
    pub deadline: Option<Duration>,
    /// Cap on states materialized across all guarded constructions.
    pub max_states: Option<usize>,
    /// Cap on transitions materialized across all guarded constructions.
    pub max_transitions: Option<usize>,
}

impl Budget {
    /// A budget with no limits at all.
    pub const fn unlimited() -> Budget {
        Budget {
            deadline: None,
            max_states: None,
            max_transitions: None,
        }
    }

    /// Returns the budget with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the budget with a cap on materialized states.
    pub fn with_max_states(mut self, max_states: usize) -> Budget {
        self.max_states = Some(max_states);
        self
    }

    /// Returns the budget with a cap on materialized transitions.
    pub fn with_max_transitions(mut self, max_transitions: usize) -> Budget {
        self.max_transitions = Some(max_transitions);
        self
    }

    /// Whether no limit is set in any dimension.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_states.is_none() && self.max_transitions.is_none()
    }
}

/// A shared flag for cooperative cancellation.
///
/// Clone the token, hand one clone to the checking thread (inside a
/// [`Guard`]) and keep the other; calling [`CancelToken::cancel`] makes the
/// next guard check fail with [`AutomataError::Cancelled`].
///
/// # Example
///
/// ```
/// use rl_automata::{Budget, CancelToken, Guard};
///
/// let token = CancelToken::new();
/// let guard = Guard::with_cancel(Budget::unlimited(), token.clone());
/// assert!(guard.check_now().is_ok());
/// token.cancel();
/// assert!(guard.check_now().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; all guards holding this token trip at their
    /// next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Snapshot of the work a guarded run had performed when it was interrupted
/// (or queried): the partial diagnostics carried by
/// [`AutomataError::BudgetExceeded`] and [`AutomataError::Cancelled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// States materialized so far.
    pub states: usize,
    /// Transitions materialized so far.
    pub transitions: usize,
    /// Size of the active worklist/frontier at the last report.
    pub frontier: usize,
    /// Wall-clock time since the guard was created.
    pub elapsed: Duration,
    /// Slash-joined path of the phase that was active when the snapshot was
    /// taken (e.g. `check/relative_liveness/determinize`), when the guard
    /// had a [`MetricsRegistry`] attached and a span was open — so
    /// budget-exhaustion reports name the phase that blew the budget, not
    /// just global counters.
    pub phase: Option<String>,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions explored (frontier {}) in {:?}",
            self.states, self.transitions, self.frontier, self.elapsed
        )?;
        if let Some(phase) = &self.phase {
            write!(f, ", in phase {phase}")?;
        }
        Ok(())
    }
}

/// The budget-enforcement core shared by a [`Guard`] and its
/// [`GuardProbe`]s: the limits, the clock, the cancel token, and atomic
/// spend counters.
///
/// Counters are relaxed atomics so one budget governs every worker of a
/// parallel kernel: the merge thread charges, workers only *read* (through a
/// probe) to decorate their deadline/cancellation errors with accurate
/// partial diagnostics. On the sequential path the atomics are uncontended,
/// so charging costs the same few nanoseconds as the old `Cell` fields.
#[derive(Debug)]
struct GuardCore {
    budget: Budget,
    cancel: Option<CancelToken>,
    start: Instant,
    states: AtomicUsize,
    transitions: AtomicUsize,
    frontier: AtomicUsize,
    until_clock_check: AtomicU32,
}

impl GuardCore {
    fn progress(&self, phase: Option<String>) -> Progress {
        Progress {
            states: self.states.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            frontier: self.frontier.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
            phase,
        }
    }

    /// Polls the cancel token and the wall-clock deadline; `phase` is
    /// evaluated only when building an error's diagnostics.
    fn check_now(&self, phase: impl FnOnce() -> Option<String>) -> Result<(), AutomataError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(AutomataError::Cancelled(self.progress(phase())));
            }
        }
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(AutomataError::BudgetExceeded {
                    resource: Resource::WallClock,
                    spent: elapsed.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                    partial: self.progress(phase()),
                });
            }
        }
        Ok(())
    }
}

/// A `Send + Sync` window onto a [`Guard`]'s core, for the workers of a
/// parallel kernel.
///
/// Workers hold a probe instead of the guard itself: [`GuardProbe::check`]
/// polls the shared deadline and cancel token (like [`Guard::check_now`],
/// without touching metrics — those stay on the owning thread), so a single
/// `--timeout` or [`CancelToken`] observably stops every worker. Cloning is
/// an `Arc` bump.
#[derive(Debug, Clone)]
pub struct GuardProbe {
    core: Arc<GuardCore>,
}

impl GuardProbe {
    /// Immediately polls the shared cancel token and wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`AutomataError::Cancelled`] when the token has been cancelled,
    /// [`AutomataError::BudgetExceeded`] when the deadline has passed — both
    /// carrying the core's current [`Progress`] (phase-less: the phase span
    /// lives with the owning [`Guard`]).
    pub fn check(&self) -> Result<(), AutomataError> {
        self.core.check_now(|| None)
    }

    /// Whether polling can ever fail: probes of an undeadlined,
    /// uncancellable guard need not be consulted at all.
    pub fn is_armed(&self) -> bool {
        self.core.cancel.is_some() || self.core.budget.deadline.is_some()
    }

    /// A phase-less snapshot of the shared counters — the live-progress
    /// feed: heartbeat reporters sample this off-thread while the owning
    /// guard keeps checking.
    pub fn progress(&self) -> Progress {
        self.core.progress(None)
    }

    /// The budget the shared core enforces, for reporting consumed
    /// fractions against its limits.
    pub fn budget(&self) -> &Budget {
        &self.core.budget
    }

    /// One heartbeat sample of the shared atomics: progress plus the
    /// budget limits that are set, in the serialization shared by
    /// `--progress` and the serve wire stream. Cache residency and the
    /// job id are the caller's to fill in — the probe knows neither.
    pub fn heartbeat(&self) -> rl_obs::Heartbeat {
        let p = self.progress();
        let b = self.budget();
        rl_obs::Heartbeat {
            job: None,
            elapsed_us: p.elapsed.as_micros() as u64,
            states: p.states as u64,
            transitions: p.transitions as u64,
            frontier: p.frontier as u64,
            states_limit: b.max_states.map(|n| n as u64),
            deadline_us: b.deadline.map(|d| d.as_micros() as u64),
            cache_resident_bytes: None,
            cache_evictions: None,
            cache_hits: None,
            cache_misses: None,
        }
    }
}

/// The cheap per-iteration handle that construction loops tick.
///
/// The budget/clock/counter core is `Arc`-shared (see [`GuardProbe`]); the
/// guard itself additionally carries the thread-local observability hooks
/// ([`MetricsRegistry`], [`OpCache`], a parallel [`Pool`]). The wall clock
/// and the cancel flag are consulted only every [`Guard::CHECK_INTERVAL`]
/// charges, so guarding adds a few nanoseconds per iteration.
#[derive(Debug)]
pub struct Guard {
    core: Arc<GuardCore>,
    metrics: Option<MetricsRegistry>,
    op_cache: Option<OpCache>,
    pool: Option<Arc<Pool>>,
}

impl Guard {
    /// How many cheap checks elapse between wall-clock/cancellation polls.
    pub const CHECK_INTERVAL: u32 = 256;

    /// A guard enforcing `budget`, with the clock starting now.
    pub fn new(budget: Budget) -> Guard {
        Guard {
            core: Arc::new(GuardCore {
                budget,
                cancel: None,
                start: Instant::now(),
                states: AtomicUsize::new(0),
                transitions: AtomicUsize::new(0),
                frontier: AtomicUsize::new(0),
                until_clock_check: AtomicU32::new(Self::CHECK_INTERVAL),
            }),
            metrics: None,
            op_cache: None,
            pool: None,
        }
    }

    /// A guard with no limits (never trips).
    pub fn unlimited() -> Guard {
        Guard::new(Budget::unlimited())
    }

    /// A guard that additionally trips when `token` is cancelled.
    pub fn with_cancel(budget: Budget, token: CancelToken) -> Guard {
        Guard {
            core: Arc::new(GuardCore {
                budget,
                cancel: Some(token),
                start: Instant::now(),
                states: AtomicUsize::new(0),
                transitions: AtomicUsize::new(0),
                frontier: AtomicUsize::new(0),
                until_clock_check: AtomicU32::new(Self::CHECK_INTERVAL),
            }),
            metrics: None,
            op_cache: None,
            pool: None,
        }
    }

    // A no-op: the lazy pipeline is the only one, and perfbench's tracer
    // still calls this.
    #[doc(hidden)]
    pub fn with_lazy(self, _: bool) -> Guard {
        self
    }

    // A no-op: perfbench's tracer still calls it, and it configures nothing.
    #[doc(hidden)]
    pub fn with_filters(self, _: bool) -> Guard {
        self
    }

    /// Attaches a [`MetricsRegistry`]: every subsequent charge is mirrored
    /// into the registry's counters, [`Guard::span`] opens real phases, and
    /// [`Progress`] snapshots carry the active span path.
    ///
    /// Without this call the guard's observability hooks are no-ops (a
    /// single branch per charge — no allocation, no atomics).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Guard {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    // A no-op: nothing records into a per-guard histogram registry, and
    // perfbench's tracer still calls this.
    #[doc(hidden)]
    pub fn with_histograms(self, _: HistogramRegistry) -> Guard {
        self
    }

    /// Attaches an [`OpCache`]: guarded constructions memoize their results
    /// per operand (structural hash, verified by full equality), and repeated
    /// determinizations/products within one pipeline are answered from the
    /// table. Hits are recorded via [`Guard::note_cache_hit`].
    ///
    /// Without this call every construction runs afresh (the library
    /// default), so results and charge counters are exactly those of the
    /// uncached algorithms.
    pub fn with_op_cache(mut self, cache: OpCache) -> Guard {
        self.op_cache = Some(cache);
        self
    }

    /// The attached operation cache, if any.
    pub fn op_cache(&self) -> Option<&OpCache> {
        self.op_cache.as_ref()
    }

    /// Attaches a worker [`Pool`]: guarded kernels above their parallel
    /// threshold fan frontier expansion out across it (results are
    /// bit-for-bit those of the sequential path — see `DESIGN.md` §10), and
    /// the batch front end uses it to run whole checks concurrently.
    ///
    /// Without this call (or with a one-thread pool) every construction runs
    /// on the calling thread, exactly as before.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Guard {
        self.pool = Some(pool);
        self
    }

    /// The attached worker pool, if any.
    pub fn pool(&self) -> Option<&Arc<Pool>> {
        self.pool.as_ref()
    }

    /// The pool to fan work out on, when one is attached with at least two
    /// workers — the kernels' "should I parallelize?" query.
    pub fn par_pool(&self) -> Option<&Arc<Pool>> {
        self.pool.as_ref().filter(|p| p.threads() >= 2)
    }

    /// A `Send + Sync` probe onto this guard's deadline/cancel state, for
    /// handing to pool workers.
    pub fn probe(&self) -> GuardProbe {
        GuardProbe {
            core: self.core.clone(),
        }
    }

    /// Memoizes `build` through the attached [`OpCache`].
    ///
    /// With no cache attached this just runs `build` (wrapped in an `Arc` so
    /// both paths return the same type). On a verified hit the guard notes a
    /// cache hit on its metrics; `matches` must check full operand equality
    /// (see the [`OpCache`] soundness contract).
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error.
    pub fn cached<T: crate::mem::MemFootprint + Send + Sync + 'static, E>(
        &self,
        op: &'static str,
        key: u64,
        matches: impl Fn(&T) -> bool,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        match &self.op_cache {
            None => Ok(Arc::new(build()?)),
            Some(cache) => {
                let (value, hit) = cache.get_or_insert_with(op, key, matches, build)?;
                if hit {
                    self.note_cache_hit();
                }
                Ok(value)
            }
        }
    }

    /// Interns an operand for memo entries: returns an `Arc` of `value`
    /// deduplicated through the attached [`OpCache`] (by `hash`, verified by
    /// equality), so every cached operation on the same operand shares one
    /// allocation instead of each entry cloning it.
    ///
    /// Without a cache this is a plain `Arc::new(value.clone())`.
    pub fn operand<T>(&self, hash: u64, value: &T) -> Arc<T>
    where
        T: Clone + PartialEq + crate::mem::MemFootprint + Send + Sync + 'static,
    {
        match &self.op_cache {
            None => Arc::new(value.clone()),
            Some(cache) => cache.intern_operand(hash, value),
        }
    }

    /// Opens a named phase span on the attached registry, or the inert
    /// [`Span::disabled`] when observability is off.
    ///
    /// Constructions hold the returned guard for their whole run:
    ///
    /// ```
    /// # use rl_automata::Guard;
    /// # fn construction(guard: &Guard) {
    /// let _span = guard.span("determinize");
    /// // ... materialize states, charging the guard ...
    /// # }
    /// ```
    pub fn span(&self, name: &'static str) -> Span {
        match &self.metrics {
            Some(m) => m.enter(name),
            None => Span::disabled(),
        }
    }

    /// Records a memoization hit on the attached registry (no-op when
    /// observability is off).
    pub fn note_cache_hit(&self) {
        if let Some(m) = &self.metrics {
            m.inc(Metric::CacheHits);
        }
    }

    /// Records a kernel timeline instant (e.g. per-layer width samples of
    /// the parallel frontier expansions) on the registry's attached tracer.
    /// A no-op unless both a registry and a tracer are attached — in
    /// particular, it never touches the metric counters, so tracing cannot
    /// perturb deterministic totals.
    pub fn trace_instant(&self, name: &'static str, arg: Option<(&'static str, u64)>) {
        if let Some(m) = &self.metrics {
            if let Some(t) = m.tracer() {
                t.instant("kernel", name, arg);
            }
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.core.budget
    }

    /// Wall-clock time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.core.start.elapsed()
    }

    /// Snapshot of the work charged so far.
    pub fn progress(&self) -> Progress {
        self.core
            .progress(self.metrics.as_ref().and_then(|m| m.current_path()))
    }

    /// Records the current worklist size, for partial diagnostics.
    pub fn note_frontier(&self, len: usize) {
        self.core.frontier.store(len, Ordering::Relaxed);
    }

    /// Charges one materialized state against the budget.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the state cap is exceeded;
    /// also performs the periodic deadline/cancellation check of
    /// [`Guard::tick`].
    pub fn charge_state(&self) -> Result<(), AutomataError> {
        let n = self.core.states.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(m) = &self.metrics {
            m.inc(Metric::States);
        }
        if let Some(limit) = self.core.budget.max_states {
            if n > limit {
                return Err(self.exceeded(Resource::States, n as u64, limit as u64));
            }
        }
        self.tick()
    }

    /// Charges one materialized transition against the budget.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the transition cap is
    /// exceeded; also performs the periodic check of [`Guard::tick`].
    pub fn charge_transition(&self) -> Result<(), AutomataError> {
        let n = self.core.transitions.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(m) = &self.metrics {
            m.inc(Metric::Transitions);
        }
        if let Some(limit) = self.core.budget.max_transitions {
            if n > limit {
                return Err(self.exceeded(Resource::Transitions, n as u64, limit as u64));
            }
        }
        self.tick()
    }

    /// Cheap cooperative checkpoint for loops that allocate nothing: every
    /// [`Guard::CHECK_INTERVAL`] calls, polls the deadline and the cancel
    /// token.
    ///
    /// # Errors
    ///
    /// Propagates [`Guard::check_now`] on the polling iterations.
    pub fn tick(&self) -> Result<(), AutomataError> {
        if let Some(m) = &self.metrics {
            m.inc(Metric::GuardCharges);
        }
        // Charges happen on the guard-owning thread only (workers poll a
        // probe instead), so this load/store countdown stays exact.
        let left = self.core.until_clock_check.load(Ordering::Relaxed);
        if left > 1 {
            self.core
                .until_clock_check
                .store(left - 1, Ordering::Relaxed);
            return Ok(());
        }
        self.core
            .until_clock_check
            .store(Self::CHECK_INTERVAL, Ordering::Relaxed);
        self.check_now()
    }

    /// Immediately polls the cancel token and the wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`AutomataError::Cancelled`] when the token has been cancelled,
    /// [`AutomataError::BudgetExceeded`] when the deadline has passed.
    pub fn check_now(&self) -> Result<(), AutomataError> {
        self.core
            .check_now(|| self.metrics.as_ref().and_then(|m| m.current_path()))
    }

    fn exceeded(&self, resource: Resource, spent: u64, limit: u64) -> AutomataError {
        AutomataError::BudgetExceeded {
            resource,
            spent,
            limit,
            partial: self.progress(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            g.charge_state().unwrap();
            g.charge_transition().unwrap();
        }
        assert_eq!(g.progress().states, 10_000);
        assert_eq!(g.progress().transitions, 10_000);
    }

    #[test]
    fn state_cap_trips_exactly_past_the_limit() {
        let g = Guard::new(Budget::unlimited().with_max_states(3));
        for _ in 0..3 {
            g.charge_state().unwrap();
        }
        let err = g.charge_state().unwrap_err();
        match err {
            AutomataError::BudgetExceeded {
                resource,
                spent,
                limit,
                partial,
            } => {
                assert_eq!(resource, Resource::States);
                assert_eq!(spent, 4);
                assert_eq!(limit, 3);
                assert_eq!(partial.states, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transition_cap_trips() {
        let g = Guard::new(Budget::unlimited().with_max_transitions(2));
        g.charge_transition().unwrap();
        g.charge_transition().unwrap();
        assert!(matches!(
            g.charge_transition(),
            Err(AutomataError::BudgetExceeded {
                resource: Resource::Transitions,
                ..
            })
        ));
    }

    #[test]
    fn zero_deadline_trips_within_one_check_interval() {
        let g = Guard::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let mut tripped = false;
        for _ in 0..=Guard::CHECK_INTERVAL {
            if g.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline of zero must trip within one interval");
        assert!(matches!(
            g.check_now(),
            Err(AutomataError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let g = Guard::with_cancel(Budget::unlimited(), token.clone());
        assert!(g.check_now().is_ok());
        token.cancel();
        match g.check_now().unwrap_err() {
            AutomataError::Cancelled(p) => assert_eq!(p.states, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn frontier_is_reported_in_diagnostics() {
        let g = Guard::new(Budget::unlimited().with_max_states(0));
        g.note_frontier(17);
        match g.charge_state().unwrap_err() {
            AutomataError::BudgetExceeded { partial, .. } => assert_eq!(partial.frontier, 17),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn metrics_mirror_charges_and_progress_names_the_phase() {
        use rl_obs::{Metric, MetricsRegistry};
        let m = MetricsRegistry::new();
        let g = Guard::new(Budget::unlimited().with_max_states(2)).with_metrics(m.clone());
        let _outer = g.span("check");
        let _inner = g.span("determinize");
        g.charge_state().unwrap();
        g.charge_state().unwrap();
        g.charge_transition().unwrap();
        assert_eq!(m.total(Metric::States), 2);
        assert_eq!(m.total(Metric::Transitions), 1);
        assert_eq!(m.total(Metric::GuardCharges), 3);
        let err = g.charge_state().unwrap_err();
        match err {
            AutomataError::BudgetExceeded { partial, .. } => {
                assert_eq!(partial.phase.as_deref(), Some("check/determinize"));
                assert!(partial.to_string().contains("in phase check/determinize"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn no_op_sink_adds_zero_counter_traffic() {
        use rl_obs::{Metric, MetricsRegistry};
        // A registry exists in the program, but this guard runs without one
        // attached: none of its traffic may leak into the registry, and its
        // spans must be inert.
        let bystander = MetricsRegistry::new();
        let g = Guard::unlimited();
        let span = g.span("determinize");
        assert!(!span.is_enabled(), "detached guards hand out inert spans");
        for _ in 0..1_000 {
            g.charge_state().unwrap();
            g.charge_transition().unwrap();
            g.note_cache_hit();
        }
        drop(span);
        for metric in Metric::ALL {
            assert_eq!(bystander.total(metric), 0, "{}", metric.name());
        }
        assert!(bystander.records().is_empty());
        assert_eq!(g.progress().phase, None);
    }

    #[test]
    fn cache_hits_are_counted_when_attached() {
        use rl_obs::{Metric, MetricsRegistry};
        let m = MetricsRegistry::new();
        let g = Guard::unlimited().with_metrics(m.clone());
        g.note_cache_hit();
        g.note_cache_hit();
        assert_eq!(m.total(Metric::CacheHits), 2);
    }

    #[test]
    fn probe_observes_cancellation_from_another_thread() {
        let token = CancelToken::new();
        let g = Guard::with_cancel(Budget::unlimited(), token.clone());
        g.charge_state().unwrap();
        let probe = g.probe();
        assert!(probe.is_armed());
        let worker = std::thread::spawn(move || {
            // Spin until the owner cancels; the error must carry the shared
            // core's charge counters as partial diagnostics.
            loop {
                match probe.check() {
                    Ok(()) => std::thread::yield_now(),
                    Err(err) => return err,
                }
            }
        });
        token.cancel();
        match worker.join().expect("worker exits cleanly") {
            AutomataError::Cancelled(p) => assert_eq!(p.states, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn probe_of_an_unarmed_guard_never_fails() {
        let g = Guard::new(Budget::unlimited().with_max_states(1));
        let probe = g.probe();
        // State caps are enforced at charge time on the owning thread; the
        // probe polls only deadline/cancellation, and this guard has neither.
        assert!(!probe.is_armed());
        assert!(probe.check().is_ok());
    }

    #[test]
    fn par_pool_requires_two_workers() {
        use crate::par::Pool;
        let g = Guard::unlimited().with_pool(Arc::new(Pool::new(1)));
        assert!(g.pool().is_some());
        assert!(g.par_pool().is_none(), "one worker means sequential");
        let g = Guard::unlimited().with_pool(Arc::new(Pool::new(2)));
        assert_eq!(g.par_pool().map(|p| p.threads()), Some(2));
    }

    #[test]
    fn budget_builder_composes() {
        let b = Budget::unlimited()
            .with_max_states(5)
            .with_max_transitions(6)
            .with_deadline(Duration::from_secs(1));
        assert_eq!(b.max_states, Some(5));
        assert_eq!(b.max_transitions, Some(6));
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }
}
