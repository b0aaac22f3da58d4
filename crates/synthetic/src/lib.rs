//! # perm-synthetic
//!
//! The synthetic workload of Section 4.2.2: tables with two integer
//! attributes (`a` and `b`) whose values are drawn from a Gaussian
//! distribution with a fixed mean and a standard deviation of 100 × the table
//! size, and two parameterised queries
//!
//! * `q1 = σ_{range ∧ a = ANY (σ_{range2}(R2))}(R1)` — an equality `ANY`
//!   sublink (all four strategies apply), and
//! * `q2 = σ_{range ∧ a < ALL (σ_{range2}(R2))}(R1)` — an inequality `ALL`
//!   sublink (Unn does not apply).
//!
//! The `range` / `range2` predicates restrict each table to a random range of
//! fixed width over attribute `b`, exactly as in the paper's experiments
//! (Figures 7–9).

#![forbid(unsafe_code)]

pub mod generator;
pub mod queries;
pub mod sqlgen;

pub use generator::{generate_table, SyntheticConfig, CORRELATION_GROUPS};
pub use queries::{
    build_database, build_matching_database, build_query, query_q1, query_q2, random_range,
    QueryKind, RangeParams,
};
pub use sqlgen::{corpus_case, corpus_database, CorpusCase};
