//! Relative liveness and behavior abstraction — the core contribution of
//! Nitsche & Wolper, *Relative Liveness and Behavior Abstraction* (PODC '97).
//!
//! A property `P` is a **relative liveness** property of a behavior set
//! `L_ω` when every prefix of a behavior can be extended, *within the
//! system*, to a behavior satisfying `P` (Definition 4.1) — the abstraction
//! of "true under some fairness assumption" that this crate makes
//! executable:
//!
//! * [`is_relative_liveness`] / [`is_relative_safety`] — the Theorem 4.5
//!   decision procedures (via Lemmas 4.3/4.4), with counterexamples,
//! * [`satisfies`] — classical model checking, for the Theorem 4.7
//!   decomposition `L ⊆ P ⇔ rel-live ∧ rel-safe`,
//! * [`is_liveness_property`] / [`is_safety_property`] — the classical
//!   Alpern–Schneider notions as the `Σ^ω` special case (Remark 1),
//! * [`is_machine_closed`] — Definition 4.6,
//! * [`synthesize_fair_implementation`] — Theorem 5.1: a finite-state
//!   implementation whose strongly fair runs all satisfy the property,
//! * [`cantor_distance`] / [`dense_witness`] — the topological reading
//!   (Definition 4.8, Lemma 4.9),
//! * [`verify_via_abstraction`] — the full Section 8 pipeline: abstract,
//!   check simplicity, decide on the abstraction, transfer via `R̄`
//!   (Theorems 8.2/8.3, Corollary 8.4),
//! * the `_with` variants ([`is_relative_liveness_with`],
//!   [`verify_via_abstraction_with`], …) — the same deciders under a
//!   resource [`Guard`], returning [`CheckError`]-convertible budget errors
//!   instead of hanging on pathological inputs,
//! * [`forall_always_exists_eventually`] / [`forall_always_recurrently`] —
//!   the `∀□∃◇` CTL* fragment the conclusion relates to (refs [18, 19]).
//!
//! # Quickstart — the paper's Section 2 example
//!
//! ```
//! use rl_buchi::behaviors_of_ts;
//! use rl_core::{is_relative_liveness, Property};
//! use rl_logic::parse;
//! use rl_petri::examples::server_behaviors;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The server of Figure 1/2: □◇result fails classically (an unfair
//! // scheduler can starve the client) but holds *relatively* — fairness
//! // is all that is missing.
//! let behaviors = behaviors_of_ts(&server_behaviors());
//! let eta = Property::formula(parse("[]<>result")?);
//!
//! let classical = rl_core::satisfies(&behaviors, &eta)?;
//! assert!(!classical.holds);
//!
//! let relative = is_relative_liveness(&behaviors, &eta)?;
//! assert!(relative.holds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctl;
mod fair;
mod guard;
mod pipeline;
mod property;
mod relative;
mod topology;

pub use ctl::{forall_always_exists_eventually, forall_always_recurrently};
pub use fair::{implementation_faithful, synthesize_fair_implementation, FairImplementation};
pub use guard::{
    chrome_trace_json, folded_stacks, render_jsonl, Counter, Metric, MetricsRegistry, ObsReport,
    RegistrySnapshot, Span, SpanRecord, TraceEvent, TracePhase, Tracer,
};
pub use guard::{
    resolve_jobs, Budget, CancelToken, CheckError, Guard, GuardProbe, Pool, PoolCounters, Progress,
    Resource,
};
pub use pipeline::{
    check_transported_concrete, labeling_for_homomorphism, verify_via_abstraction,
    verify_via_abstraction_with, AbstractionAnalysis, TransferConclusion,
};
pub use property::{CoreError, Property};
pub use relative::{
    extension_witness, is_liveness_property, is_machine_closed, is_relative_liveness,
    is_relative_liveness_of_ts, is_relative_liveness_of_ts_with, is_relative_liveness_with,
    is_relative_safety, is_relative_safety_with, is_safety_property, satisfies, satisfies_with,
    RelativeLivenessVerdict, RelativeSafetyVerdict, SatisfactionVerdict,
};
pub use topology::{cantor_distance, certify_density, dense_witness};
