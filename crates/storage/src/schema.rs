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
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An identifier: an attribute name, a relation qualifier or an output
/// alias, from the catalog's schemas through bound, rewritten and optimized
/// plans to the compiled plan.
///
/// A `Name` is an 8-byte `Copy` handle to an entry of a process-wide,
/// append-only interner; the entry holds the exact spelling and the id of
/// its ASCII-case-folded form. Copying an [`Attribute`], a [`Schema`], a
/// plan or a column reference is a plain copy: no identifier text and no
/// reference count is touched.
///
/// - `==` is identity, which is exact spelling: every distinct spelling has
///   one entry, so `Name::from("a") == Name::from("a")` and
///   `Name::from("a") != Name::from("A")`.
/// - Name resolution ([`Attribute::matches`], [`Schema::try_resolve`])
///   ignores ASCII case by comparing the folded ids ([`Name::eq_folded`]),
///   never the text.
/// - `Hash`, `Ord`, `Display`, `Debug` and `Deref<Target = str>` go by the
///   text, so a map keyed by names iterates and a plan renders exactly as
///   with `String` keys, and `Borrow<str>` holds (a `HashMap<Name, _>` can
///   be probed with a `&str`).
///
/// Interning happens where text enters: `Name::from` (`&str`, `String`),
/// which the catalog, the SQL parser and binder and the names the
/// provenance rewrite and decorrelation generate go through; nothing
/// interns while a query executes. The memory contract: one entry per
/// distinct spelling (plus one per distinct folded form that is not itself
/// a spelling seen), never freed. The rewrite numbers its generated names
/// per query, so a fixed workload stops growing the interner after its
/// first round; [`Name::interned`] reads the count.
#[derive(Clone, Copy)]
pub struct Name(&'static Entry);

/// One interned spelling.
struct Entry {
    text: &'static str,
    /// Dense id of `text.to_ascii_lowercase()`, shared by every spelling
    /// that folds to it.
    folded: usize,
}

/// The process-wide table behind [`Name`].
#[derive(Default)]
struct Interner {
    spellings: HashMap<&'static str, Name>,
    /// Folded spelling → its id.
    folds: HashMap<&'static str, usize>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(Default::default)
}

impl Interner {
    fn intern(&mut self, text: &str) -> Name {
        if let Some(&name) = self.spellings.get(text) {
            return name;
        }
        let text: &'static str = Box::leak(text.into());
        let folded = if text.bytes().any(|b| b.is_ascii_uppercase()) {
            let lowered = text.to_ascii_lowercase();
            match self.folds.get(lowered.as_str()) {
                Some(&id) => id,
                None => self.new_fold(Box::leak(lowered.into_boxed_str())),
            }
        } else {
            match self.folds.get(text) {
                Some(&id) => id,
                None => self.new_fold(text),
            }
        };
        let name = Name(Box::leak(Box::new(Entry { text, folded })));
        self.spellings.insert(text, name);
        name
    }

    fn new_fold(&mut self, folded: &'static str) -> usize {
        let id = self.folds.len();
        self.folds.insert(folded, id);
        id
    }
}

impl Name {
    /// Interns `text`: the handle of its entry, made on first sight. A
    /// poisoned lock is recovered: the table only grows, and an insertion
    /// cut short leaves at most a fold id that no spelling uses yet.
    fn intern(text: &str) -> Name {
        let lock = interner();
        if let Some(&name) = lock
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .spellings
            .get(text)
        {
            return name;
        }
        lock.write()
            .unwrap_or_else(PoisonError::into_inner)
            .intern(text)
    }

    /// The exact spelling.
    pub fn as_str(self) -> &'static str {
        self.0.text
    }

    /// `true` when the two names are equal ignoring ASCII case (`A` and
    /// `a`): an integer compare.
    pub fn eq_folded(self, other: Name) -> bool {
        self.0.folded == other.0.folded
    }

    /// How many distinct spellings have been interned in this process.
    pub fn interned() -> usize {
        interner()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .spellings
            .len()
    }
}

/// The empty name.
impl Default for Name {
    fn default() -> Name {
        Name::intern("")
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::intern(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::intern(&text)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.0.text
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.0.text
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0.text, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.text, f)
    }
}

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// attribute, ignoring ASCII case.
    pub fn matches(&self, qualifier: Option<Name>, name: Name) -> bool {
        self.name.eq_folded(name)
            && match qualifier {
                None => true,
                Some(q) => self.qualifier.is_some_and(|aq| aq.eq_folded(q)),
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
        self.attrs.iter().map(|a| a.name).collect()
    }

    /// Resolves an (optionally qualified) attribute name to its position.
    ///
    /// Returns an error if the name is unknown or ambiguous. A reference is
    /// ambiguous when more than one attribute matches it: an unqualified
    /// name carried by two attributes (`r.a` and `s.a`), but also a
    /// qualified one that two attributes match (two `r.a`, as a self-join's
    /// witness columns can produce). This mirrors SQL scoping.
    pub fn resolve(&self, qualifier: Option<Name>, name: Name) -> Result<usize> {
        self.try_resolve(qualifier, name)?
            .ok_or_else(|| StorageError::UnknownAttribute(name.to_string()))
    }

    /// Like [`Schema::resolve`] but returns `None` instead of an
    /// unknown-attribute error (still errors on ambiguity). A miss
    /// allocates nothing, so scope-chain walks may probe freely.
    pub fn try_resolve(&self, qualifier: Option<Name>, name: Name) -> Result<Option<usize>> {
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
        Schema {
            attrs: [&self.attrs[..], &other.attrs[..]].concat(),
        }
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
                    qualifier: Some(qualifier),
                    ..*a
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
        assert_eq!(s.resolve(None, "a".into()).unwrap(), 0);
        assert_eq!(s.resolve(Some("r".into()), "b".into()).unwrap(), 1);
        assert!(matches!(
            s.resolve(Some("s".into()), "a".into()),
            Err(StorageError::UnknownAttribute(_))
        ));
        assert!(matches!(
            s.resolve(None, "zzz".into()),
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
            s.resolve(None, "a".into()),
            Err(StorageError::AmbiguousAttribute(_))
        ));
        assert_eq!(s.resolve(Some("s".into()), "a".into()).unwrap(), 1);
    }

    #[test]
    fn a_qualified_reference_matching_two_attributes_is_ambiguous() {
        // Two `r.a`, as a self-join's witness columns can produce.
        let s = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("r", "a", DataType::Int),
        ]);
        assert_eq!(
            s.resolve(Some("r".into()), "a".into()),
            Err(StorageError::AmbiguousAttribute("a".into()))
        );
        assert_eq!(
            s.try_resolve(Some("r".into()), "a".into()),
            Err(StorageError::AmbiguousAttribute("a".into()))
        );
        assert_eq!(
            s.resolve(Some("r".into()), "b".into()),
            Err(StorageError::UnknownAttribute("b".into()))
        );
        assert_eq!(s.try_resolve(Some("r".into()), "b".into()), Ok(None));
    }

    #[test]
    fn resolution_is_case_insensitive() {
        let s = rs();
        assert_eq!(s.resolve(None, "A".into()).unwrap(), 0);
        assert_eq!(s.resolve(Some("R".into()), "B".into()).unwrap(), 1);
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
    fn a_qualified_reference_resolves_ignoring_case() {
        let s = rs();
        let (r, a) = (Name::from("R"), Name::from("A"));
        assert_eq!(s.resolve(Some(r), a), Ok(0));
        assert!(s.attr(0).matches(Some(r), a));
        assert!(!s.attr(1).matches(Some(r), a));
        assert!(!s.attr(0).matches(Some("s".into()), a));
        // Resolution ignores case; identity does not.
        assert!(a.eq_folded("a".into()));
        assert_ne!(a, Name::from("a"));
        assert_eq!(a, Name::from(String::from("A")));
    }

    #[test]
    fn ambiguity_survives_case_differences() {
        let s = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("s", "A", DataType::Int),
        ]);
        assert_eq!(
            s.resolve(None, "a".into()),
            Err(StorageError::AmbiguousAttribute("a".into()))
        );
        assert_eq!(s.resolve(Some("S".into()), "a".into()), Ok(1));
    }

    #[test]
    fn a_name_displays_and_derefs_to_its_own_spelling() {
        let name = Name::from("L_PartKey");
        assert_eq!(name.to_string(), "L_PartKey");
        assert_eq!(format!("{name:>10}|{name:?}"), " L_PartKey|\"L_PartKey\"");
        assert_eq!(&*name, "L_PartKey");
        assert_eq!(name.as_str(), "L_PartKey");
        let a = Attribute::qualified("Lineitem", name, DataType::Int);
        assert_eq!(Schema::new(vec![a]).to_string(), "(Lineitem.L_PartKey)");
    }

    #[test]
    fn names_order_and_hash_as_their_text() {
        use std::collections::{BTreeMap, HashMap};
        use std::hash::BuildHasher;
        let spellings = ["b", "B", "a_1", "a", "", "prov_r_a", "Z", "ä", "a"];
        let by_name: BTreeMap<Name, usize> = spellings
            .iter()
            .enumerate()
            .map(|(i, s)| (Name::from(*s), i))
            .collect();
        let by_text: BTreeMap<String, usize> = spellings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), i))
            .collect();
        let names: Vec<(&str, usize)> = by_name.iter().map(|(k, v)| (&**k, *v)).collect();
        let texts: Vec<(&str, usize)> = by_text.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(names, texts);
        // Hashing matches `str`'s, so a map keyed by names is probed with
        // a `&str` (`Borrow<str>`).
        let state = std::collections::hash_map::RandomState::new();
        for s in spellings {
            assert_eq!(state.hash_one(Name::from(s)), state.hash_one(s));
        }
        let map: HashMap<Name, usize> = by_name.into_iter().collect();
        assert_eq!(map.get("prov_r_a"), Some(&5));
        assert_eq!(map.get("B"), Some(&1));
        assert_eq!(map.get("c"), None);
    }

    #[test]
    fn a_name_is_one_word() {
        assert_eq!(std::mem::size_of::<Name>(), 8);
        assert_eq!(std::mem::size_of::<Option<Name>>(), 8);
    }

    #[test]
    fn threads_interning_the_same_spellings_get_the_same_handles() {
        const THREADS: usize = 4;
        let spellings: Vec<String> = (0..1_000)
            .map(|i| format!("interner_test_{i}_{}", if i % 2 == 0 { "x" } else { "X" }))
            .collect();
        let handles: Vec<Vec<Name>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let spellings = &spellings;
                    scope.spawn(move || {
                        // Each thread walks the list from its own offset, so
                        // first sightings race.
                        let mut mine = vec![Name::default(); spellings.len()];
                        for k in 0..spellings.len() {
                            let i = (k + t * 250) % spellings.len();
                            mine[i] = Name::from(spellings[i].as_str());
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for other in &handles[1..] {
            assert_eq!(other, &handles[0]);
        }
        for (name, text) in handles[0].iter().zip(&spellings) {
            assert_eq!(&**name, text);
            assert!(name.eq_folded(text.to_ascii_uppercase().into()));
        }
    }

    #[test]
    fn try_resolve_distinguishes_missing_from_ambiguous() {
        let s = rs();
        assert_eq!(s.try_resolve(None, "nope".into()).unwrap(), None);
        assert_eq!(s.try_resolve(None, "a".into()).unwrap(), Some(0));
    }
}
