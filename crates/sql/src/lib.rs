//! # perm-sql
//!
//! A SQL front end for the permrs engine, playing the role of the modified
//! PostgreSQL parser/analyzer in the original Perm system. It supports the
//! subset of SQL needed by the paper's workloads — selections, projections,
//! joins, grouping/aggregation, `HAVING`, `ORDER BY`/`LIMIT`, and crucially
//! subqueries in all their forms (`IN`, `NOT IN`, `EXISTS`, `NOT EXISTS`,
//! `ANY`/`SOME`/`ALL`, scalar subqueries, correlated and nested) — plus the
//! Perm language extension `SELECT PROVENANCE …` which marks a query for
//! provenance rewriting (Section 4.1).
//!
//! ```
//! use perm_sql::parse_query;
//! let parsed = parse_query("SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)").unwrap();
//! assert!(parsed.provenance);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use ast::{Query, SelectItem, SqlExpr, TableRef};
pub use binder::{bind, BoundQuery};
pub use parser::{parse_query, ParsedQuery};

/// Errors produced by the SQL front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical error (unterminated string, unexpected character, …).
    Lex { position: usize, message: String },
    /// Syntax error.
    Parse { position: usize, message: String },
    /// Semantic error while binding to the catalog (unknown table, …).
    Bind(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex { position, message } => {
                write!(f, "lexical error at byte {position}: {message}")
            }
            SqlError::Parse { position, message } => {
                write!(f, "syntax error at token {position}: {message}")
            }
            SqlError::Bind(message) => write!(f, "binding error: {message}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Result alias for the SQL front end.
pub type Result<T> = std::result::Result<T, SqlError>;

/// Convenience: parse a SQL string and bind it against a database, returning
/// the algebra plan and whether provenance was requested.
pub fn compile(db: &perm_storage::Database, sql: &str) -> Result<(perm_algebra::Plan, bool)> {
    let parsed = parse_query(sql)?;
    let provenance = parsed.provenance;
    let bound = bind(db, &parsed)?;
    Ok((bound.plan, provenance))
}
