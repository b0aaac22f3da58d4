//! Schemas and attributes, including the provenance renaming `P(R)`.
//!
//! The Perm rewrite rules represent the provenance of a query `q` over base
//! relations `R1 … Rn` as a single relation with schema
//! `(q, P(R1), …, P(Rn))` where `P(R)` is a *unique renaming* of the
//! attributes of `R`. The paper abbreviates the renaming with a `p` prefix;
//! we follow the actual Perm naming scheme more closely and use
//! `prov_<relation>_<attribute>` plus an occurrence counter when the same
//! base relation is accessed more than once (`prov_1_<relation>_<attribute>`).

use crate::value::Value;
use crate::{Result, StorageError};
use std::fmt;
use std::sync::Arc;

/// An identifier: an attribute name, a relation qualifier or an output
/// alias, from the catalog's schemas through bound, rewritten and optimized
/// plans to the compiled plan.
///
/// A `Name` is shared, not copied: cloning an [`Attribute`], a [`Schema`],
/// a plan or a column reference copies no identifier text, only reference
/// counts, so a scan's attributes point at the very names the catalog
/// holds and [`Schema::with_qualifier`] gives all its attributes one
/// qualifier. Sharing is an optimisation only: name resolution
/// ([`Attribute::matches`]) compares text ignoring ASCII case, whether or
/// not two names share an allocation. Build one from a `&str` or a
/// `String` with `Name::from` / `.into()`.
pub type Name = Arc<str>;

/// Logical data type of an attribute. The engine is dynamically typed at
/// execution time; declared types are used by the SQL binder for casting
/// literals (e.g. date strings) and by the data generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Date,
    /// Unknown/any type (used for computed expressions).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "text",
            DataType::Date => "date",
            DataType::Any => "any",
        };
        write!(f, "{s}")
    }
}

/// A named attribute of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (`a`, `l_partkey`, `prov_lineitem_l_partkey`, …).
    pub name: Name,
    /// Optional relation qualifier used for name resolution (`r` in `r.a`).
    pub qualifier: Option<Name>,
    /// Declared type.
    pub dtype: DataType,
}

impl Attribute {
    /// Creates an attribute without a qualifier.
    pub fn new(name: impl Into<Name>, dtype: DataType) -> Attribute {
        Attribute {
            name: name.into(),
            qualifier: None,
            dtype,
        }
    }

    /// Creates an attribute with a relation qualifier.
    pub fn qualified(
        qualifier: impl Into<Name>,
        name: impl Into<Name>,
        dtype: DataType,
    ) -> Attribute {
        Attribute {
            name: name.into(),
            qualifier: Some(qualifier.into()),
            dtype,
        }
    }

    /// `true` when `name` (optionally qualified as `q.n`) refers to this
    /// attribute.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .map(|aq| aq.eq_ignore_ascii_case(q))
                .unwrap_or(false),
        }
    }
}

/// An ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from a list of attributes.
    pub fn new(attrs: Vec<Attribute>) -> Schema {
        Schema { attrs }
    }

    /// Creates an empty schema.
    pub fn empty() -> Schema {
        Schema { attrs: Vec::new() }
    }

    /// Creates a schema of untyped attributes from names; convenient in tests.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Schema {
        Schema {
            attrs: names
                .iter()
                .map(|n| Attribute::new(n.as_ref(), DataType::Any))
                .collect(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// `true` when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute at position `i`.
    pub fn attr(&self, i: usize) -> &Attribute {
        &self.attrs[i]
    }

    /// The attribute names in order.
    pub fn names(&self) -> Vec<Name> {
        self.attrs.iter().map(|a| a.name.clone()).collect()
    }

    /// Resolves an (optionally qualified) attribute name to its position.
    ///
    /// Returns an error if the name is unknown or ambiguous. A reference is
    /// ambiguous when more than one attribute matches it: an unqualified
    /// name carried by two attributes (`r.a` and `s.a`), but also a
    /// qualified one that two attributes match (two `r.a`, as a self-join's
    /// witness columns can produce). This mirrors SQL scoping.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        self.try_resolve(qualifier, name)?
            .ok_or_else(|| StorageError::UnknownAttribute(name.to_string()))
    }

    /// Like [`Schema::resolve`] but returns `None` instead of an
    /// unknown-attribute error (still errors on ambiguity). A miss
    /// allocates nothing, so scope-chain walks may probe freely.
    pub fn try_resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut found: Option<usize> = None;
        for (i, attr) in self.attrs.iter().enumerate() {
            if attr.matches(qualifier, name) {
                if found.is_some() {
                    return Err(StorageError::AmbiguousAttribute(name.to_string()));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }

    /// Concatenates two schemas (the `⧺` operator of the paper, used for the
    /// provenance attribute lists of cross products and joins).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().cloned());
        Schema { attrs }
    }

    /// Returns a copy with every attribute qualified by `qualifier`; the
    /// attributes share their names with `self` and one qualifier with each
    /// other.
    pub fn with_qualifier(&self, qualifier: impl Into<Name>) -> Schema {
        let qualifier = qualifier.into();
        Schema {
            attrs: self
                .attrs
                .iter()
                .map(|a| Attribute {
                    name: a.name.clone(),
                    qualifier: Some(qualifier.clone()),
                    dtype: a.dtype,
                })
                .collect(),
        }
    }

    /// The provenance renaming `P(R)` of this schema for base relation
    /// `relation` and occurrence `occurrence` (0-based). Occurrence 0 maps
    /// attribute `a` of relation `R` to `prov_r_a`; occurrence `k > 0` maps
    /// it to `prov_k_r_a` so that multiple references to the same relation
    /// stay distinguishable, as required by Definition 1 (footnote 1 in the
    /// paper).
    pub fn provenance_schema(&self, relation: &str, occurrence: usize) -> Schema {
        let rel = relation.to_ascii_lowercase();
        Schema {
            attrs: self
                .attrs
                .iter()
                .map(|a| Attribute {
                    name: provenance_attr_name(&rel, &a.name, occurrence).into(),
                    qualifier: None,
                    dtype: a.dtype,
                })
                .collect(),
        }
    }
}

/// Builds the provenance attribute name for `relation.attribute` at the given
/// occurrence of the base relation in the query.
pub fn provenance_attr_name(relation: &str, attribute: &str, occurrence: usize) -> String {
    if occurrence == 0 {
        format!("prov_{relation}_{attribute}")
    } else {
        format!("prov_{occurrence}_{relation}_{attribute}")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &a.qualifier {
                Some(q) => write!(f, "{q}.{}", a.name)?,
                None => write!(f, "{}", a.name)?,
            }
        }
        write!(f, ")")
    }
}

/// Helper producing a NULL tuple matching `schema` — the `null(R)` relation
/// extension used by the Gen strategy's `CrossBase`.
pub fn null_row(schema: &Schema) -> Vec<Value> {
    vec![Value::Null; schema.arity()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> Schema {
        Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("r", "b", DataType::Int),
        ])
    }

    #[test]
    fn resolve_by_name_and_qualifier() {
        let s = rs();
        assert_eq!(s.resolve(None, "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("r"), "b").unwrap(), 1);
        assert!(matches!(
            s.resolve(Some("s"), "a"),
            Err(StorageError::UnknownAttribute(_))
        ));
        assert!(matches!(
            s.resolve(None, "zzz"),
            Err(StorageError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn resolve_detects_ambiguity() {
        let s = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("s", "a", DataType::Int),
        ]);
        assert!(matches!(
            s.resolve(None, "a"),
            Err(StorageError::AmbiguousAttribute(_))
        ));
        assert_eq!(s.resolve(Some("s"), "a").unwrap(), 1);
    }

    #[test]
    fn a_qualified_reference_matching_two_attributes_is_ambiguous() {
        // Two `r.a`, as a self-join's witness columns can produce.
        let s = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("r", "a", DataType::Int),
        ]);
        assert_eq!(
            s.resolve(Some("r"), "a"),
            Err(StorageError::AmbiguousAttribute("a".into()))
        );
        assert_eq!(
            s.try_resolve(Some("r"), "a"),
            Err(StorageError::AmbiguousAttribute("a".into()))
        );
        assert_eq!(
            s.resolve(Some("r"), "b"),
            Err(StorageError::UnknownAttribute("b".into()))
        );
        assert_eq!(s.try_resolve(Some("r"), "b"), Ok(None));
    }

    #[test]
    fn resolution_is_case_insensitive() {
        let s = rs();
        assert_eq!(s.resolve(None, "A").unwrap(), 0);
        assert_eq!(s.resolve(Some("R"), "B").unwrap(), 1);
    }

    #[test]
    fn provenance_renaming_is_unique_per_occurrence() {
        let s = rs();
        let p0 = s.provenance_schema("R", 0);
        let p1 = s.provenance_schema("R", 1);
        assert_eq!(p0.names(), ["prov_r_a", "prov_r_b"].map(Name::from));
        assert_eq!(p1.names(), ["prov_1_r_a", "prov_1_r_b"].map(Name::from));
        assert_ne!(p0.names(), p1.names());
    }

    #[test]
    fn concat_preserves_order() {
        let s = rs();
        let t = Schema::from_names(&["c"]);
        assert_eq!(s.concat(&t).names(), ["a", "b", "c"].map(Name::from));
    }

    #[test]
    fn null_row_matches_arity() {
        let s = rs();
        let row = null_row(&s);
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|v| v.is_null()));
    }

    #[test]
    fn try_resolve_distinguishes_missing_from_ambiguous() {
        let s = rs();
        assert_eq!(s.try_resolve(None, "nope").unwrap(), None);
        assert_eq!(s.try_resolve(None, "a").unwrap(), Some(0));
    }
}
