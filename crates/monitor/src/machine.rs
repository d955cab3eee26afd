//! The monitored strict evaluator — Figure 3 of the paper.
//!
//! The machine lives in [`monsem_core::machine`]: it is the standard
//! machine of Figure 2, generic in the monitor, so the derivation of
//! Definition 4.2 (one `{μ}:e` transition, one `κ_post` frame) is the
//! only difference between the two semantics and there is one transition
//! loop for both. The standard entry points run it with
//! [`NoMonitor`](monsem_core::spec::NoMonitor). This module re-exports the
//! monitored entry points under their historical paths.

pub use monsem_core::machine::{
    eval_monitored, eval_monitored_stats_with, eval_monitored_with, monitored_meaning, Event,
    Execution,
};
