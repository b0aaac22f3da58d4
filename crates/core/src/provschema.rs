//! Provenance schema bookkeeping.
//!
//! The provenance of a query `q` over base relations `R1 … Rn` is represented
//! as a single relation with schema `(q, P(R1), …, P(Rn))` (Section 3.1). The
//! [`ProvenanceDescriptor`] records which provenance attributes a rewritten
//! plan carries, in order, and which base-relation access each group of
//! attributes came from.

use perm_storage::{Name, Schema};

/// The provenance attributes contributed by one base-relation access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvEntry {
    /// Catalog name of the base relation.
    pub table: String,
    /// Occurrence index of this access within the rewritten query (0-based);
    /// multiple references to one relation are treated as different relations
    /// (footnote 1 of the paper), so each gets its own provenance attributes.
    pub occurrence: usize,
    /// The original schema of the base relation (qualified as scanned).
    pub original_schema: Schema,
    /// The renamed provenance schema `P(R)` for this occurrence.
    pub prov_schema: Schema,
}

impl ProvEntry {
    /// Names of the provenance attributes of this entry.
    pub fn attr_names(&self) -> Vec<Name> {
        self.prov_schema.names()
    }
}

/// The ordered list of provenance attribute groups carried by a rewritten
/// plan (`P(T+)` in the rewrite rules).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProvenanceDescriptor {
    entries: Vec<ProvEntry>,
}

impl ProvenanceDescriptor {
    /// An empty descriptor (no provenance attributes).
    pub fn empty() -> ProvenanceDescriptor {
        ProvenanceDescriptor::default()
    }

    /// Creates a descriptor from entries.
    pub fn new(entries: Vec<ProvEntry>) -> ProvenanceDescriptor {
        ProvenanceDescriptor { entries }
    }

    /// The entries in order.
    pub fn entries(&self) -> &[ProvEntry] {
        &self.entries
    }

    /// Number of base-relation accesses described.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no provenance attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: ProvEntry) {
        self.entries.push(entry);
    }

    /// Concatenates two descriptors (`P(T1+) ⧺ P(T2+)` in rule R4).
    pub fn concat(&self, other: &ProvenanceDescriptor) -> ProvenanceDescriptor {
        let mut entries = self.entries.clone();
        entries.extend(other.entries.iter().cloned());
        ProvenanceDescriptor { entries }
    }

    /// All provenance attribute names, flattened, in order.
    pub fn attr_names(&self) -> Vec<Name> {
        self.entries
            .iter()
            .flat_map(|e| e.prov_schema.names())
            .collect()
    }

    /// The flattened provenance schema (concatenation of every `P(R)`).
    pub fn schema(&self) -> Schema {
        self.entries
            .iter()
            .fold(Schema::empty(), |acc, e| acc.concat(&e.prov_schema))
    }

    /// Total number of provenance attributes.
    pub fn attr_count(&self) -> usize {
        self.entries.iter().map(|e| e.prov_schema.arity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Schema;

    fn entry(table: &str, occurrence: usize, attrs: &[&str]) -> ProvEntry {
        let original = Schema::from_names(attrs).with_qualifier(table);
        let prov = original.provenance_schema(table, occurrence);
        ProvEntry {
            table: table.to_string(),
            occurrence,
            original_schema: original,
            prov_schema: prov,
        }
    }

    #[test]
    fn attr_names_flatten_in_order() {
        let desc =
            ProvenanceDescriptor::new(vec![entry("r", 0, &["a", "b"]), entry("s", 0, &["c"])]);
        assert_eq!(
            desc.attr_names(),
            ["prov_r_a", "prov_r_b", "prov_s_c"].map(Name::from)
        );
        assert_eq!(desc.attr_count(), 3);
        assert_eq!(desc.schema().arity(), 3);
    }

    #[test]
    fn occurrences_produce_distinct_names() {
        let desc = ProvenanceDescriptor::new(vec![entry("r", 0, &["a"]), entry("r", 1, &["a"])]);
        assert_eq!(
            desc.attr_names(),
            ["prov_r_a", "prov_1_r_a"].map(Name::from)
        );
    }

    #[test]
    fn concat_preserves_order() {
        let d1 = ProvenanceDescriptor::new(vec![entry("r", 0, &["a"])]);
        let d2 = ProvenanceDescriptor::new(vec![entry("s", 0, &["c"])]);
        let d = d1.concat(&d2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.entries()[0].table, "r");
        assert_eq!(d.entries()[1].table, "s");
        assert!(ProvenanceDescriptor::empty().is_empty());
    }
}
