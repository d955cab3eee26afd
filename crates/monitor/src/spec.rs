//! Monitor specifications (Definition 5.1).
//!
//! The [`Monitor`] trait itself — with [`Outcome`], [`HookPhase`], the
//! [`IdentityMonitor`] and the annotation-blind [`NoMonitor`] — lives in
//! [`monsem_core::spec`], beside the machines that are generic in it, and
//! is re-exported here. This module adds what only monitoring needs:
//! mergeable monitor states for fork-join evaluation ([`MergeMonitor`])
//! and the object-safe, state-erased view ([`DynMonitor`]) that stacks and
//! sessions traffic in.

pub use monsem_core::spec::{HookPhase, IdentityMonitor, Monitor, NoMonitor, Outcome};

use crate::scope::Scope;
use monsem_core::Value;
use monsem_syntax::{Annotation, Expr};
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// A monitor whose state forms a *mergeable* algebra, enabling fork-join
/// parallel evaluation ([`crate::parallel`]).
///
/// The parallel machine evaluates the elements of `par(e₁, …, eₙ)` on
/// worker threads. Each shard starts from [`MergeMonitor::split`] of the
/// fork-point state σ, records its own observations, and the machine then
/// folds the shard states back **deterministically left-to-right** with
/// [`MergeMonitor::merge`]:
///
/// ```text
/// σ' = merge(…merge(merge(σ, s₁), s₂)…, sₙ)
/// ```
///
/// # Laws
///
/// For the fold above to agree with what the sequential machine would have
/// computed (the parallel extension of Theorem 7.7), implementations must
/// satisfy:
///
/// 1. **Associativity** — `merge(merge(a, b), c) == merge(a, merge(b, c))`.
/// 2. **Split is a left and right identity** — for every reachable σ,
///    `merge(σ, split(σ)) == σ` and (when a split state is on the left of
///    a merge chain rooted at σ) `merge(split(σ), d)` must carry exactly
///    the delta `d`. For cumulative monitors `split` is simply the empty
///    state; monitors whose transitions read context (an open-call stack, a
///    DFA's current node) copy that context into the shard and exclude it
///    from the delta that `merge` adds back.
/// 3. **Hook/merge homomorphism** — running the monitor's hooks over a
///    shard's event sequence starting from `split(σ)` and merging, equals
///    running the same hooks sequentially from σ. Together with (1)/(2)
///    this is what the `parallel ≡ sequential` property tests pin down
///    bit-for-bit.
///
/// Laws (1) and (2) make `(State, merge, split)` a monoid *relative to
/// each fork point*; they are checked for every shipped monitor by the
/// `merge_laws` proptests.
pub trait MergeMonitor: Monitor {
    /// Called **once per fork point**, on the fork-point state, before any
    /// [`MergeMonitor::split`] — the hook where a monitor installs
    /// bookkeeping that must be *shared* across all shards of one fork
    /// (e.g. [`Guarded`](crate::fault::Guarded)'s global budget ledger).
    /// The default is the identity, which is right for monitors whose
    /// split states are independent.
    fn fork(&self, state: Self::State) -> Self::State {
        state
    }

    /// The state a freshly forked shard starts from, given the fork-point
    /// state. Cumulative monitors return the empty state; context-reading
    /// monitors copy the context a hook transition consults.
    fn split(&self, state: &Self::State) -> Self::State;

    /// Folds a shard's final state (`right`, the delta) into the
    /// accumulated state (`left`). Called left-to-right in shard order.
    fn merge(&self, left: Self::State, right: Self::State) -> Self::State;

    /// Fallible form of [`MergeMonitor::merge`], mirroring
    /// [`Monitor::try_pre`]: a *checking* monitor may discover at the join
    /// point that the combined history violates its specification and veto.
    /// The parallel machine calls this; the default never vetoes.
    fn merge_outcome(&self, left: Self::State, right: Self::State) -> Outcome<Self::State> {
        Outcome::Continue(self.merge(left, right))
    }
}

impl MergeMonitor for IdentityMonitor {
    fn split(&self, _: &()) {}

    fn merge(&self, _: (), _: ()) {}
}

/// An object-safe view of a monitor, with the state erased to
/// `Rc<dyn Any>`. This is what [`MonitorStack`](crate::MonitorStack) and
/// the [`session`](crate::session) environment traffic in.
pub trait DynMonitor {
    /// See [`Monitor::name`].
    fn name(&self) -> &str;
    /// See [`Monitor::accepts`].
    fn accepts(&self, ann: &Annotation) -> bool;
    /// See [`Monitor::accepts_event`].
    fn accepts_event_dyn(&self, ann: &Annotation, phase: HookPhase) -> bool;
    /// See [`Monitor::initial_state`].
    fn initial_state_dyn(&self) -> DynState;
    /// See [`Monitor::pre`].
    fn pre_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: DynState,
    ) -> DynState;
    /// See [`Monitor::post`].
    fn post_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: DynState,
    ) -> DynState;
    /// See [`Monitor::try_pre`].
    fn try_pre_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: DynState,
    ) -> Outcome<DynState>;
    /// See [`Monitor::try_post`].
    fn try_post_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: DynState,
    ) -> Outcome<DynState>;
    /// See [`Monitor::render_state`].
    fn render_state_dyn(&self, state: &DynState) -> String;
    /// See [`Monitor::health`].
    fn health_dyn(&self, state: &DynState) -> crate::fault::Health;
    /// See [`MergeMonitor::fork`]. `None` as for [`DynMonitor::split_dyn`].
    fn fork_dyn(&self, state: DynState) -> Option<DynState> {
        let _ = state;
        None
    }
    /// See [`MergeMonitor::split`]. `None` means the monitor behind this
    /// object was not registered as mergeable (Rust has no trait
    /// specialization, so the blanket [`Monitor`] adapter cannot discover a
    /// [`MergeMonitor`] impl — wrap the monitor in
    /// [`MergeLayer`](crate::compose::MergeLayer) to expose it).
    fn split_dyn(&self, state: &DynState) -> Option<DynState> {
        let _ = state;
        None
    }
    /// See [`MergeMonitor::merge_outcome`]. `None` as for
    /// [`DynMonitor::split_dyn`].
    fn merge_outcome_dyn(&self, left: DynState, right: DynState) -> Option<Outcome<DynState>> {
        let _ = (left, right);
        None
    }
}

/// A type-erased monitor state.
#[derive(Clone)]
pub struct DynState(Rc<dyn Any>);

impl DynState {
    /// Wraps a concrete state.
    pub fn new<S: 'static>(state: S) -> Self {
        DynState(Rc::new(state))
    }

    /// Recovers the concrete state.
    pub fn downcast<S: 'static + Clone>(&self) -> Option<S> {
        self.0.downcast_ref::<S>().cloned()
    }
}

impl fmt::Debug for DynState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DynState(..)")
    }
}

impl<M: Monitor> DynMonitor for M {
    fn name(&self) -> &str {
        Monitor::name(self)
    }

    fn accepts(&self, ann: &Annotation) -> bool {
        Monitor::accepts(self, ann)
    }

    fn accepts_event_dyn(&self, ann: &Annotation, phase: HookPhase) -> bool {
        Monitor::accepts_event(self, ann, phase)
    }

    fn initial_state_dyn(&self) -> DynState {
        DynState::new(self.initial_state())
    }

    fn pre_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: DynState,
    ) -> DynState {
        let s: M::State = state.downcast().expect(
            "monitor state type mismatch: a DynState must round-trip through its own monitor",
        );
        DynState::new(self.pre(ann, expr, scope, s))
    }

    fn post_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: DynState,
    ) -> DynState {
        let s: M::State = state.downcast().expect(
            "monitor state type mismatch: a DynState must round-trip through its own monitor",
        );
        DynState::new(self.post(ann, expr, scope, value, s))
    }

    fn try_pre_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: DynState,
    ) -> Outcome<DynState> {
        let s: M::State = state.downcast().expect(
            "monitor state type mismatch: a DynState must round-trip through its own monitor",
        );
        self.try_pre(ann, expr, scope, s).map(DynState::new)
    }

    fn try_post_dyn(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: DynState,
    ) -> Outcome<DynState> {
        let s: M::State = state.downcast().expect(
            "monitor state type mismatch: a DynState must round-trip through its own monitor",
        );
        self.try_post(ann, expr, scope, value, s).map(DynState::new)
    }

    fn render_state_dyn(&self, state: &DynState) -> String {
        match state.downcast::<M::State>() {
            Some(s) => self.render_state(&s),
            None => "<foreign state>".to_string(),
        }
    }

    fn health_dyn(&self, state: &DynState) -> crate::fault::Health {
        match state.downcast::<M::State>() {
            Some(s) => self.health(&s),
            None => crate::fault::Health::Ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Env;

    #[derive(Debug, Clone, Copy, Default)]
    struct Count;
    impl Monitor for Count {
        type State = u32;
        fn name(&self) -> &str {
            "count"
        }
        fn initial_state(&self) -> u32 {
            0
        }
        fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u32) -> u32 {
            n + 1
        }
    }

    #[test]
    fn dyn_monitor_round_trips_state() {
        let m = Count;
        let env = Env::empty();
        let scope = Scope::pure(&env);
        let ann = Annotation::label("A");
        let e = Expr::int(1);
        let s0 = DynMonitor::initial_state_dyn(&m);
        let s1 = m.pre_dyn(&ann, &e, &scope, s0);
        let s2 = m.pre_dyn(&ann, &e, &scope, s1);
        assert_eq!(s2.downcast::<u32>(), Some(2));
        assert_eq!(m.render_state_dyn(&s2), "2");
    }
}
