//! The monitored imperative language module (§9.2).
//!
//! The machine lives in [`monsem_core::imperative`], one transition loop
//! for the standard and the monitored store semantics; this module
//! re-exports the monitored entry points. Their monitoring functions see
//! a [`Scope`](crate::scope::Scope) that carries the store, so a
//! Magpie-style demon (§8) can watch the contents of mutable variables.

pub use monsem_core::imperative::{eval_monitored_imperative, eval_monitored_imperative_with};
