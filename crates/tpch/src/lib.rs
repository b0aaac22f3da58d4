//! # perm-tpch
//!
//! A TPC-H style substrate for the permrs benchmarks: the eight-table schema,
//! a seeded pseudo-random data generator (standing in for `dbgen`), and the
//! sublink query templates of the benchmark together with the random
//! parameter substitution performed by `qgen`.
//!
//! The paper evaluates its rewrite strategies on the nine TPC-H queries that
//! contain sublinks (Section 4.2.1); three of them (Q11, Q15, Q16) contain
//! only uncorrelated sublinks and can therefore also be handled by the Left
//! and Move strategies.

#![forbid(unsafe_code)]

pub mod generator;
pub mod queries;
pub mod schema;

pub use generator::{generate, TpchScale};
pub use queries::{query_ids, sublink_queries, QueryTemplate, SublinkClass};
