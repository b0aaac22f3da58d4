//! # perm-storage
//!
//! The storage substrate of the `permrs` provenance engine: SQL values with
//! three-valued logic, tuples, schemas (including the provenance renaming
//! `P(R)` used by the Perm rewrite rules), bag-semantics relations and an
//! in-memory catalog. Attribute names and qualifiers are [`Name`]s: 8-byte
//! `Copy` handles into a process-wide, append-only interner, made where
//! text enters (the catalog, the SQL front end, the names the rewrite and
//! the optimizer generate) and copied, compared and resolved as words by
//! every schema, plan and compiled plan that mentions them.
//!
//! The paper ("Provenance for Nested Subqueries", Glavic & Alonso, EDBT 2009)
//! implements its rewrites inside PostgreSQL. This crate provides the
//! equivalent data model so the rewritten queries can be executed by the
//! `perm-exec` crate without any external database.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod catalog;
pub mod column;
pub mod heapfile;
pub mod keys;
pub mod manager;
pub mod page;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use buffer::{BufferPool, RecordStream};
pub use catalog::{Database, TableLanes};
pub use column::{ColumnVec, Validity};
pub use heapfile::HeapFile;
pub use keys::{
    encode_key, encode_key_column, encode_key_column_filtered, encode_key_into, encode_key_typed,
    encode_key_typed_into, encode_sort_entry, encode_sort_key, encode_tuple_key, KeyGroups,
    KeyTable,
};
pub use manager::{PagedRelation, StorageManager, DEFAULT_POOL_PAGES};
pub use page::{decode_row, decode_value, encode_row, encode_value, Page, PAGE_SIZE};
pub use relation::Relation;
pub use schema::{Attribute, DataType, Name, Schema};
pub use tuple::Tuple;
pub use value::{
    civil_from_days, days_from_civil, empty_str, f64_cmp_sql, int_cmp_float, Truth, Value,
};

/// Errors produced by the storage layer and re-used by the rest of the
/// workspace (expression evaluation, execution, rewriting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An attribute name could not be resolved against a schema.
    UnknownAttribute(String),
    /// An attribute name is ambiguous within a schema.
    AmbiguousAttribute(String),
    /// A relation name could not be resolved against the catalog.
    UnknownRelation(String),
    /// A relation with the same name already exists in the catalog.
    DuplicateRelation(String),
    /// A tuple does not match the arity of the relation schema.
    ArityMismatch { expected: usize, found: usize },
    /// A value had an unexpected type for the requested operation.
    TypeError(String),
    /// An I/O failure in the out-of-core layer (spill files, buffer pool).
    Io(String),
    /// An on-disk page or record failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            StorageError::AmbiguousAttribute(name) => write!(f, "ambiguous attribute `{name}`"),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` already exists")
            }
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} values, found {found}"
                )
            }
            StorageError::TypeError(msg) => write!(f, "type error: {msg}"),
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;
