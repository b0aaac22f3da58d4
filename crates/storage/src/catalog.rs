//! The in-memory catalog: a named collection of base relations.
//!
//! Base relations are stored behind [`Arc`], for two reasons that matter to
//! the concurrent serving subsystem:
//!
//! * **Cheap snapshots.** Cloning a [`Database`] clones the catalog map and
//!   the `Arc`s, not the tuple data — a measurement harness (or a serving
//!   front end) can hand each worker its own `Database` value in O(#tables).
//! * **Cross-thread sharing.** Every type in this crate is plain data
//!   (`Send + Sync`, no interior mutability), so one `Database` can be read
//!   concurrently from many executor threads; the `Arc` makes the same true
//!   for snapshots taken at different times.
//!
//! Mutation stays copy-on-write at the granularity of whole tables:
//! [`Database::create_table`] and friends replace the `Arc`, they never
//! mutate a relation other readers might hold. Each of them also gives the
//! database a fresh [`Database::version`], which is how a cached result
//! computed over one state of the data is told apart from another.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of database versions: one process-wide counter, so no two
/// mutations anywhere in the process produce the same version.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// An in-memory database: a mapping from (case-insensitive) relation names to
/// base relations. This plays the role of the PostgreSQL catalog + heap in
/// the original Perm implementation.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
    version: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The version of the contents: 0 for a new database, and a fresh
    /// process-unique value after every mutation. A clone keeps its
    /// version, so two databases with equal versions hold equal contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump_version(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a base relation. Fails if the name is already taken.
    pub fn create_table(&mut self, name: impl Into<String>, relation: Relation) -> Result<()> {
        let key = name.into().to_ascii_lowercase();
        if self.relations.contains_key(&key) {
            return Err(StorageError::DuplicateRelation(key));
        }
        self.relations.insert(key, Arc::new(relation));
        self.bump_version();
        Ok(())
    }

    /// Registers or replaces a base relation.
    pub fn create_or_replace_table(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations
            .insert(name.into().to_ascii_lowercase(), Arc::new(relation));
        self.bump_version();
    }

    /// Removes a base relation, returning it if present. When the relation
    /// is still shared (e.g. by a snapshot), the returned value is a clone;
    /// otherwise the allocation is recovered without copying.
    pub fn drop_table(&mut self, name: &str) -> Option<Relation> {
        self.bump_version();
        self.relations
            .remove(&name.to_ascii_lowercase())
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Looks up a base relation.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(&name.to_ascii_lowercase())
            .map(|arc| arc.as_ref())
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Looks up a base relation as a shared handle: a clone of the `Arc`,
    /// never of the tuples, for callers that need the relation to outlive
    /// the catalog borrow — e.g. handing a table snapshot to another
    /// thread while the catalog keeps evolving copy-on-write.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Relation>> {
        self.relations
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Looks up the schema of a base relation.
    pub fn table_schema(&self, name: &str) -> Result<&Schema> {
        self.table(name).map(|r| r.schema())
    }

    /// `true` when a relation with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.relations.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered relations (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Total number of tuples across all relations; handy for reporting the
    /// "database size" axis of the experiments.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

// The concurrency contract of the storage layer, checked at compile time:
// a `Database` (and everything reachable from it) can be shared across
// threads by reference. The executor builds its own (deliberately
// single-threaded) state on top; the *data* is never the reason a layer
// above cannot parallelise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Schema>();
    assert_send_sync::<crate::tuple::Tuple>();
    assert_send_sync::<crate::value::Value>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    fn small_rel() -> Relation {
        Relation::new(Schema::from_names(&["a"]), vec![tuple![1], tuple![2]]).unwrap()
    }

    #[test]
    fn create_lookup_and_drop() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        assert!(db.has_table("r"));
        assert!(db.has_table("R"));
        assert_eq!(db.table("R").unwrap().len(), 2);
        assert_eq!(db.table_schema("r").unwrap().arity(), 1);
        assert!(db.drop_table("R").is_some());
        assert!(!db.has_table("r"));
        assert!(db.table("R").is_err());
    }

    #[test]
    fn duplicate_create_fails() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        assert!(matches!(
            db.create_table("r", small_rel()),
            Err(StorageError::DuplicateRelation(_))
        ));
        db.create_or_replace_table("r", small_rel());
    }

    #[test]
    fn total_tuples_sums_all_tables() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        db.create_table("S", small_rel()).unwrap();
        assert_eq!(db.total_tuples(), 4);
        assert_eq!(db.table_names(), vec!["r".to_string(), "s".to_string()]);
    }

    #[test]
    fn clone_shares_relations_instead_of_copying() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        let snapshot = db.clone();
        assert!(Arc::ptr_eq(
            &db.table_arc("r").unwrap(),
            &snapshot.table_arc("r").unwrap()
        ));
        // Replacing a table in the original leaves the snapshot untouched
        // (copy-on-write at table granularity).
        db.create_or_replace_table(
            "r",
            Relation::new(Schema::from_names(&["a"]), vec![]).unwrap(),
        );
        assert_eq!(db.table("r").unwrap().len(), 0);
        assert_eq!(snapshot.table("r").unwrap().len(), 2);
    }

    #[test]
    fn every_mutation_takes_a_fresh_version_and_a_clone_keeps_it() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.create_table("R", small_rel()).unwrap();
        let created = db.version();
        assert_ne!(created, 0);
        // A refused create changes nothing.
        assert!(db.create_table("r", small_rel()).is_err());
        assert_eq!(db.version(), created);

        let mut copy = db.clone();
        assert_eq!(copy.version(), created, "a clone keeps its version");
        db.create_or_replace_table("r", small_rel());
        let replaced = db.version();
        assert_ne!(replaced, created);
        db.drop_table("r");
        assert_ne!(db.version(), replaced);
        assert_ne!(db.version(), created);

        // Two clones mutated the same way, independently, still differ.
        copy.create_or_replace_table("r", small_rel());
        assert_ne!(copy.version(), created);
        assert_ne!(copy.version(), replaced);
        assert_ne!(copy.version(), db.version());
    }

    #[test]
    fn drop_table_recovers_or_clones_shared_relations() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        let held = db.table_arc("r").unwrap();
        // Still shared: the drop must clone, and the held handle stays valid.
        let dropped = db.drop_table("R").unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(held.len(), 2);
    }
}
