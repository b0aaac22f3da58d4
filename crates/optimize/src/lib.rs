//! # perm-optimize
//!
//! The optimizer: plans in, plans out, between the provenance rewrite of
//! `perm-core` and the compiler of `perm-exec`. Perm computes provenance by
//! rewriting a query and handing the result to the database's own
//! optimizer; this crate plays that optimizer, so the rewrite emits plain
//! relational plans and nothing here knows they carry provenance.
//!
//! Two entry points:
//!
//! * [`push_down_selections`] — the binder's name-level pushdown, run on
//!   every bound plan before the provenance rewrite sees it;
//! * [`optimize()`] — the fixpoint of cost-free rewrites over the rewritten
//!   plan (sublink decorrelation, folding, pushdown, pruning, composition,
//!   sort pushdown, fusion), reporting what fired in an
//!   [`OptimizerReport`]; [`plan_fingerprint`] names a plan's shape.
//!
//! The crate builds on `perm-algebra` and `perm-storage` alone: it executes
//! nothing. The argument that every rule preserves the reference
//! interpreter's observables is the module documentation of `optimize.rs`;
//! the tests that execute optimized plans against that interpreter live at
//! the workspace root (`tests/optimizer_rules.rs`).

#![forbid(unsafe_code)]

mod optimize;

pub use optimize::{optimize, plan_fingerprint, push_down_selections, OptimizerReport};
