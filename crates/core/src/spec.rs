//! Monitor specifications (Definition 5.1).
//!
//! A monitor is a triple `Mon = (MSyn, MAlg, MFun)`. The [`Monitor`] trait
//! packages the three components: the annotation syntax the monitor reacts
//! to, the monitor-state algebra, and the pair of monitoring functions.
//! Monitoring functions are *pure state transformers* `MS → MS` — the
//! paper's §7 proof leans on exactly this (they are Reynolds-"trivial"
//! functions, so composing them with a continuation cannot change the
//! final answer).
//!
//! The trait lives beside the machines because the machines are generic in
//! it: the standard semantics is the monitored one instantiated with
//! [`NoMonitor`], the oblivious functional `G_obl` of Definition 7.1.

use crate::scope::Scope;
use crate::value::Value;
use monsem_syntax::{Annotation, Expr};
use std::fmt;

/// The verdict of a fallible monitoring function
/// ([`Monitor::try_pre`]/[`Monitor::try_post`]).
///
/// The paper's monitoring functions are total `MS → MS` transformers; a
/// *checking* monitor (the §8 demon, a contract) additionally wants to
/// veto the computation. `Outcome` is that judgement: `Continue` is the
/// ordinary case, `Abort` stops evaluation with a reason, surfaced by the
/// monitored machines as
/// [`EvalError::MonitorAbort`](crate::EvalError::MonitorAbort).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<S> {
    /// Keep evaluating with the updated monitor state.
    Continue(S),
    /// Veto the computation.
    Abort {
        /// The monitor state at the moment of the veto (reported, since
        /// evaluation produces no answer).
        state: S,
        /// Which monitor vetoed (composition fills in the layer's name).
        monitor: String,
        /// Why.
        reason: String,
    },
}

/// Which monitoring function a hook invocation belongs to.
///
/// The monitored machines fire two hooks per accepted annotation — `updPre`
/// just before the annotated expression is evaluated and `updPost` just
/// after. [`Monitor::accepts_event`] refines **MSyn** with this phase so a
/// compiled monitor (e.g. a `monsem-tspec` automaton whose alphabet only
/// mentions `post` events) can tell the machine that one of the two hooks
/// is the identity and may be skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPhase {
    /// The `updPre` hook, before the annotated expression runs.
    Pre,
    /// The `updPost` hook, after the annotated expression produced `ι*`.
    Post,
}

impl<S> Outcome<S> {
    /// Shorthand for an abort verdict.
    pub fn abort(state: S, monitor: impl Into<String>, reason: impl Into<String>) -> Self {
        Outcome::Abort {
            state,
            monitor: monitor.into(),
            reason: reason.into(),
        }
    }

    /// The carried state, whatever the verdict.
    pub fn state(&self) -> &S {
        match self {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    /// Applies `f` to the carried state, preserving the verdict.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> Outcome<T> {
        match self {
            Outcome::Continue(s) => Outcome::Continue(f(s)),
            Outcome::Abort {
                state,
                monitor,
                reason,
            } => Outcome::Abort {
                state: f(state),
                monitor,
                reason,
            },
        }
    }
}

/// Per-monitor health, reported by [`Monitor::health`] and surfaced in
/// session reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The monitor handled every event it was offered.
    Ok,
    /// The monitor returned an [`Outcome::Abort`] verdict. Under the
    /// `Fatal` fault policy the abort also stops evaluation (this variant
    /// is then only visible in the state carried by the abort); under
    /// `Quarantine` the verdict is confined and the run continues without
    /// the monitor.
    Aborted(String),
    /// The monitor panicked and was confined by the `Quarantine` fault
    /// policy; the payload is the panic message.
    Quarantined(String),
    /// The monitor exceeded its budget and stopped being consulted.
    OverBudget(String),
}

impl Health {
    /// Whether the monitor is still being consulted.
    pub fn is_ok(&self) -> bool {
        matches!(self, Health::Ok)
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Ok => f.write_str("ok"),
            Health::Aborted(reason) => write!(f, "aborted: {reason}"),
            Health::Quarantined(reason) => write!(f, "quarantined: {reason}"),
            Health::OverBudget(reason) => write!(f, "over budget: {reason}"),
        }
    }
}

/// A monitor specification.
///
/// The default implementations make the common cases tiny: a monitor that
/// only gathers information *before* evaluation implements just
/// [`Monitor::pre`] (like the Figure 6 profiler); one that reacts to
/// results implements just [`Monitor::post`] (like the Figure 8 demon and
/// Figure 9 collecting monitor).
///
/// # Fallible hooks
///
/// The monitored machines actually invoke [`Monitor::try_pre`] and
/// [`Monitor::try_post`], whose default implementations delegate to the
/// pure hooks and always `Continue` — so every pure monitor is
/// source-compatible and still satisfies Theorem 7.7. A checking monitor
/// overrides the `try_*` forms to return [`Outcome::Abort`]; a fault-prone
/// monitor is wrapped in `monsem_monitor::fault::Guarded` to confine
/// panics and enforce budgets.
pub trait Monitor {
    /// **MAlg** — the monitor-state domain `MS`.
    type State: Clone + fmt::Debug + 'static;

    /// A short name (used by composition diagnostics and session reports).
    fn name(&self) -> &str;

    /// **MSyn** — whether the annotation belongs to this monitor's syntax.
    ///
    /// The default accepts everything; cascaded monitors (§6) must narrow
    /// this so that annotation syntaxes stay disjoint (use
    /// [`Annotation::namespace`] or the shape of
    /// [`Annotation::kind`](monsem_syntax::AnnKind)).
    fn accepts(&self, ann: &Annotation) -> bool {
        let _ = ann;
        true
    }

    /// **MSyn**, refined per hook phase: whether the monitor wants the
    /// `updPre` or `updPost` hook at this annotation.
    ///
    /// This is a *pure optimization hint*: a machine may consult it to skip
    /// an identity hook (the pe engine drops the hook at compile time), or
    /// may ignore it and invoke `try_pre`/`try_post` anyway — so an
    /// implementation must only return `false` for a phase whose hook is a
    /// no-op on its state. The default says both phases matter whenever
    /// [`Monitor::accepts`] does.
    fn accepts_event(&self, ann: &Annotation, phase: HookPhase) -> bool {
        let _ = phase;
        self.accepts(ann)
    }

    /// The initial (presumably empty) monitor state `σ`.
    fn initial_state(&self) -> Self::State;

    /// **MFun** — `M_pre ⟦μ⟧ ⟦s⟧ a* : MS → MS`, invoked just *before* the
    /// annotated expression is evaluated.
    fn pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: Self::State,
    ) -> Self::State {
        let _ = (ann, expr, scope);
        state
    }

    /// **MFun** — `M_post ⟦μ⟧ ⟦s⟧ a* ι* : MS → MS`, invoked just *after*,
    /// with the intermediate result `ι*` that flows into the continuation.
    fn post(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: Self::State,
    ) -> Self::State {
        let _ = (ann, expr, scope, value);
        state
    }

    /// Fallible form of [`Monitor::pre`]: may veto the computation.
    ///
    /// This is what the monitored machines call. The default delegates to
    /// the pure hook and continues, so ordinary monitors never see it.
    fn try_pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: Self::State,
    ) -> Outcome<Self::State> {
        Outcome::Continue(self.pre(ann, expr, scope, state))
    }

    /// Fallible form of [`Monitor::post`]: may veto the computation.
    fn try_post(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: Self::State,
    ) -> Outcome<Self::State> {
        Outcome::Continue(self.post(ann, expr, scope, value, state))
    }

    /// Renders a final monitor state for human consumption (session
    /// reports, examples). Defaults to the `Debug` form.
    fn render_state(&self, state: &Self::State) -> String {
        format!("{state:?}")
    }

    /// The monitor's health as recorded in `state`. Plain monitors are
    /// always healthy; guarded monitors (`monsem_monitor::fault::Guarded`)
    /// report quarantine/budget degradation here, and session reports
    /// surface it per monitor.
    fn health(&self, state: &Self::State) -> Health {
        let _ = state;
        Health::Ok
    }
}

/// The identity monitor: empty state, identity monitoring functions.
///
/// Instantiating the monitoring semantics with this monitor yields the
/// standard semantics back — the degenerate case of Theorem 7.7, used by
/// tests and as the unit of composition. It still *accepts* every
/// annotation, so the machines take their `{μ}:e` and `κ_post`
/// transitions and report events; [`NoMonitor`] is the monitor that
/// accepts none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityMonitor;

impl Monitor for IdentityMonitor {
    type State = ();

    fn name(&self) -> &str {
        "identity"
    }

    fn initial_state(&self) {}
}

/// The monitor whose syntax is empty: [`Monitor::accepts`] is always
/// `false`.
///
/// The monitored machines instantiated with it are the standard machines:
/// every annotation takes the skip transition `Eval({μ}:e) → Eval(e)` —
/// the oblivious functional `G_obl` of Definition 7.1. It is zero-sized,
/// so after monomorphization the hook code is dead and compiles away; this
/// is how [`eval`](crate::machine::eval) and the lazy and imperative entry
/// points run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMonitor;

impl Monitor for NoMonitor {
    type State = ();

    fn name(&self) -> &str {
        "none"
    }

    #[inline]
    fn accepts(&self, _: &Annotation) -> bool {
        false
    }

    fn initial_state(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;

    #[test]
    fn identity_monitor_does_nothing() {
        let m = IdentityMonitor;
        let env = Env::empty();
        let scope = Scope::pure(&env);
        let ann = Annotation::label("A");
        let e = Expr::int(1);
        m.initial_state();
        m.pre(&ann, &e, &scope, ());
        m.post(&ann, &e, &scope, &Value::Int(1), ());
    }

    #[test]
    fn default_hooks_are_identity() {
        #[derive(Debug)]
        struct Passive;
        impl Monitor for Passive {
            type State = String;
            fn name(&self) -> &str {
                "passive"
            }
            fn initial_state(&self) -> String {
                "s".into()
            }
        }
        let env = Env::empty();
        let scope = Scope::pure(&env);
        let ann = Annotation::label("A");
        let e = Expr::int(1);
        let s = Passive.pre(&ann, &e, &scope, "x".into());
        assert_eq!(s, "x");
        let s = Passive.post(&ann, &e, &scope, &Value::Int(1), s);
        assert_eq!(s, "x");
    }
}
