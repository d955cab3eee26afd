//! The semantic context `A*` passed to monitoring functions.
//!
//! The pre/post monitoring functions of §4.3 receive "the semantic
//! arguments `A*ᵢ`" — for `L_λ` that is the environment `ρ`; for the
//! imperative module it is the environment *and* the store. [`Scope`]
//! packages both behind a lookup that dereferences store locations, so a
//! single monitor specification (e.g. the Figure 7 tracer, which reads
//! `ρ(x₁) … ρ(xₙ)`) works unchanged across language modules.

use crate::env::Env;
use crate::imperative::Store;
use crate::value::{ThunkState, Value};
use monsem_syntax::Ident;

/// A read-only view of the evaluation context at a monitored program point.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    env: &'a Env,
    store: Option<&'a Store>,
}

impl<'a> Scope<'a> {
    /// A pure scope (strict and lazy modules).
    pub fn pure(env: &'a Env) -> Self {
        Scope { env, store: None }
    }

    /// An imperative scope carrying the store.
    pub fn with_store(env: &'a Env, store: &'a Store) -> Self {
        Scope {
            env,
            store: Some(store),
        }
    }

    /// The raw environment.
    pub fn env(&self) -> &'a Env {
        self.env
    }

    /// Looks a variable up, dereferencing store locations and observing
    /// already-memoized thunks (an unforced thunk is reported as `None`:
    /// a monitor must never force evaluation the program didn't perform —
    /// that would not change the answer, but it *would* change the cost
    /// and the memoization state the programmer is trying to observe).
    pub fn lookup(&self, name: &Ident) -> Option<Value> {
        let v = self.env.lookup(name)?;
        self.observe(v)
    }

    /// Renders a variable for human consumption: unforced thunks print as
    /// `<unevaluated>` instead of disappearing.
    pub fn render(&self, name: &Ident) -> String {
        match self.env.lookup(name) {
            None => format!("<unbound:{name}>"),
            Some(v) => match self.observe(v) {
                Some(v) => v.to_string(),
                None => "<unevaluated>".to_string(),
            },
        }
    }

    fn observe(&self, v: Value) -> Option<Value> {
        match v {
            Value::Loc(l) => {
                let store = self.store?;
                Some(store.read(l).clone())
            }
            Value::Thunk(t) => match &*t.borrow() {
                ThunkState::Forced(v) => Some(v.clone()),
                ThunkState::Pending { .. } | ThunkState::InProgress => None,
            },
            other => Some(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn pure_scope_reads_environment_bindings() {
        let env = Env::empty().extend(Ident::new("x"), Value::Int(3));
        let scope = Scope::pure(&env);
        assert_eq!(scope.lookup(&Ident::new("x")), Some(Value::Int(3)));
        assert_eq!(scope.lookup(&Ident::new("y")), None);
        assert_eq!(scope.render(&Ident::new("y")), "<unbound:y>");
    }

    #[test]
    fn store_scope_dereferences_locations() {
        let mut store = Store::new();
        let loc = store.alloc(Value::Int(9));
        let env = Env::empty().extend(Ident::new("x"), Value::Loc(loc));
        let scope = Scope::with_store(&env, &store);
        assert_eq!(scope.lookup(&Ident::new("x")), Some(Value::Int(9)));
    }

    #[test]
    fn pure_scope_does_not_dereference_locations() {
        let env = Env::empty().extend(Ident::new("x"), Value::Loc(0));
        let scope = Scope::pure(&env);
        assert_eq!(scope.lookup(&Ident::new("x")), None);
    }

    #[test]
    fn thunks_are_observed_but_never_forced() {
        let forced = Rc::new(RefCell::new(ThunkState::Forced(Value::Int(5))));
        let pending = Rc::new(RefCell::new(ThunkState::InProgress));
        let env = Env::empty()
            .extend(Ident::new("a"), Value::Thunk(forced))
            .extend(Ident::new("b"), Value::Thunk(pending.clone()));
        let scope = Scope::pure(&env);
        assert_eq!(scope.lookup(&Ident::new("a")), Some(Value::Int(5)));
        assert_eq!(scope.lookup(&Ident::new("b")), None);
        assert_eq!(scope.render(&Ident::new("b")), "<unevaluated>");
        // The thunk was not forced by observation.
        assert!(matches!(&*pending.borrow(), ThunkState::InProgress));
    }
}
