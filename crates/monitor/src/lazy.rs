//! The monitored lazy language module — the §9.2 integration of the
//! monitoring semantics with call-by-need evaluation.
//!
//! The machine lives in [`monsem_core::lazy`], one transition loop for the
//! standard and the monitored call-by-need semantics; this module
//! re-exports the monitored entry points. Under call-by-need an
//! annotation inside a never-forced binding never fires.

pub use monsem_core::lazy::{eval_monitored_lazy, eval_monitored_lazy_with};
