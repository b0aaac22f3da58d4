//! SQL values and three-valued logic.
//!
//! The algebra of the paper (Figure 1) is defined over bags of tuples whose
//! fields are ordinary SQL values. Two aspects matter for provenance
//! computation and therefore get first-class treatment here:
//!
//! * **NULL semantics.** The `Gen` rewrite strategy pads provenance
//!   attributes with NULL when a sublink query produces no provenance and
//!   compares provenance attributes with the null-safe operator `=n`
//!   (`a =n b  ⇔  a = b ∨ (a IS NULL ∧ b IS NULL)`). Regular comparisons use
//!   SQL three-valued logic.
//! * **Total ordering for grouping.** Aggregation and duplicate elimination
//!   need to group tuples; [`Value::sort_key`] provides a total order that is
//!   consistent with SQL equality on non-NULL values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Result of a SQL predicate under three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// The predicate is satisfied.
    True,
    /// The predicate is not satisfied.
    False,
    /// The predicate could not be decided because of NULLs.
    Unknown,
}

impl Truth {
    /// Converts a Rust boolean into a [`Truth`].
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// `true` only when the truth value is [`Truth::True`]; SQL selections
    /// keep a tuple only in that case.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    /// Three-valued logical AND.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued logical OR.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued logical NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Converts into a nullable boolean [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }
}

/// A SQL value.
///
/// Dates are stored as the number of days since 1970-01-01 which is enough
/// for the date arithmetic used by the TPC-H workload (interval addition and
/// range comparisons).
///
/// The tag is a whole word (`repr(u64)`), so every payload sits at offset
/// 8 and a clone of a non-string value is two word copies. With a byte tag
/// the `Bool` and `Date` payloads sit inside the first word, and the
/// derived `Clone` copies bytes 1–7 with overlapping moves through the
/// stack, which stall: a loop cloning `Int` and `Null` values ran about
/// four times as long as with the word tag. The value stays 24 bytes
/// either way, and `Option<Value>` too.
#[derive(Debug, Clone)]
#[repr(u64)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float (also used for SQL `decimal` in this engine).
    Float(f64),
    /// Variable-length string, shared: cloning the value (concatenating
    /// rows, emitting a join or projection row, broadcasting a literal,
    /// filling a [`ColumnVec`](crate::ColumnVec) lane) bumps a reference
    /// count instead of copying the bytes.
    Str(Arc<str>),
    /// Date as days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// Returns `true` if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Creates a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the value as a boolean truth value (NULL ⇒ Unknown, non-zero
    /// numbers are treated as an error rather than coerced).
    pub fn as_truth(&self) -> Truth {
        match self {
            Value::Null => Truth::Unknown,
            Value::Bool(b) => Truth::from_bool(*b),
            _ => Truth::Unknown,
        }
    }

    /// Numeric view used by arithmetic and aggregate functions.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (floats are truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Date(d) => Some(*d as i64),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic.
    pub fn sql_eq(&self, other: &Value) -> Truth {
        if self.is_null() || other.is_null() {
            return Truth::Unknown;
        }
        Truth::from_bool(self.strict_eq(other))
    }

    /// Null-safe equality `=n` used by the Gen strategy: NULL equals NULL.
    pub fn null_safe_eq(&self, other: &Value) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.strict_eq(other),
        }
    }

    /// Equality on non-NULL values with numeric coercion between `Int`,
    /// `Float` and `Date`: mixed numeric values are equal exactly when they
    /// denote the same mathematical number.
    ///
    /// Mixed `Int`/`Float` pairs are compared exactly rather than through
    /// [`Value::as_f64`]: above 2⁵³ the `f64` view of an `i64` is lossy, and
    /// comparing through it would equate mathematically distinct values
    /// (`Int(2⁵³ + 1)` vs `Float(2⁵³)`), making equality non-transitive —
    /// `Int(2⁵³) ≠ Int(2⁵³ + 1)` while both would equal `Float(2⁵³)` — which
    /// no hash key could represent. The remaining mixed pairs involve only
    /// `Date` (`i32`) and `Bool` (0/1), whose `f64` views are exact.
    fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                int_eq_float(*a, *b)
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => f64_cmp_sql(a, b) == Ordering::Equal,
                _ => false,
            },
        }
    }

    /// SQL ordering comparison under three-valued logic. Returns `None` when
    /// either side is NULL or the values are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            // Integer comparisons order exactly; the f64 view below is lossy
            // above 2⁵³ and would call distinct large values equal,
            // contradicting `sql_eq` (all of `<`, `=`, `>` would be FALSE).
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some(int_cmp_float(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(int_cmp_float(*b, *a).reverse()),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                Some(f64_cmp_sql(a, b))
            }
        }
    }

    /// A total order used for grouping, duplicate elimination and
    /// deterministic output ordering. NULL sorts first; values of different
    /// types are ordered by a type tag.
    pub fn sort_key(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
                Value::Str(_) => 3,
            }
        }
        let (ta, tb) = (tag(self), tag(other));
        if ta != tb {
            return ta.cmp(&tb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Numeric values order by mathematical value, exactly — through
            // [`Value::exact_int`] where both sides denote integers (the f64
            // view is lossy above 2⁵³ and would interleave distinct large
            // integers as "equal", i.e. arbitrarily, under ORDER BY).
            _ => match (self.exact_int(), other.exact_int()) {
                (Some(a), Some(b)) => a.cmp(&b),
                (Some(a), None) => {
                    let b = other.as_f64().unwrap_or(f64::NEG_INFINITY);
                    int_cmp_float(a, b)
                }
                (None, Some(b)) => {
                    let a = self.as_f64().unwrap_or(f64::NEG_INFINITY);
                    int_cmp_float(b, a).reverse()
                }
                (None, None) => {
                    let a = self.as_f64().unwrap_or(f64::NEG_INFINITY);
                    let b = other.as_f64().unwrap_or(f64::NEG_INFINITY);
                    f64_cmp_sql(a, b)
                }
            },
        }
    }

    /// Parses a `YYYY-MM-DD` date literal into days since the epoch.
    pub fn parse_date(text: &str) -> Option<Value> {
        let mut parts = text.split('-');
        let year: i64 = parts.next()?.parse().ok()?;
        let month: i64 = parts.next()?.parse().ok()?;
        let day: i64 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        Some(Value::Date(days_from_civil(year, month, day) as i32))
    }

    /// Renders a date value back to `YYYY-MM-DD`.
    pub fn format_date(days: i32) -> String {
        let (y, m, d) = civil_from_days(days as i64);
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// 2⁶³ as an `f64` (exactly representable). Finite floats in
/// `[-2⁶³, 2⁶³)` are the ones whose truncation fits in an `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Total order on `f64` values matching PostgreSQL's float semantics: NaN
/// is *equal to* NaN (whatever the bit payloads) and *greater than* every
/// other value; otherwise the IEEE order applies (in particular `-0.0` and
/// `0.0` compare equal). This keeps equality, ordering and the hash-key
/// encoding of [`crate::keys`] mutually consistent for stored NaN values —
/// NaN forms one ordinary equality class instead of being unequal even to
/// itself.
pub fn f64_cmp_sql(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both sides are non-NaN"),
    }
}

/// Exact mathematical comparison of an `i64` against an `f64`. Comparing
/// through `i as f64` would be lossy above 2⁵³ and would break trichotomy
/// against the exact equality: `Int(2⁵³ + 1)` must order strictly *above*
/// `Float(2⁵³)`, not compare equal to it. NaN orders above every integer
/// (see [`f64_cmp_sql`]).
pub fn int_cmp_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    if f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    let t = f.trunc();
    // In `[-2⁶³, 2⁶³)` the truncation converts exactly; when `i` equals it,
    // the discarded fractional remainder decides (for negative `f` the
    // truncation sits *above* `f`, so the remainder is negative).
    i.cmp(&(t as i64)).then(0.0_f64.total_cmp(&(f - t)))
}

/// `true` when `f` denotes exactly the integer `i`.
pub fn int_eq_float(i: i64, f: f64) -> bool {
    int_cmp_float(i, f) == Ordering::Equal
}

impl Value {
    /// The exact `i64` a numeric value denotes, when it denotes one: `Int`
    /// and `Date` directly, `Bool` as 0/1, and `Float`s that are integral
    /// and inside `i64`'s range (the cast is exact there). `None` for
    /// non-numeric values and for fractional, non-finite or out-of-range
    /// floats. Two numeric values with `Some` results are
    /// [`Value::null_safe_eq`] exactly when the results are equal — the
    /// basis of the executor's canonical grouping/join key encoding.
    pub fn exact_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            Value::Bool(b) => Some(*b as i64),
            Value::Float(f) if f.trunc() == *f && (-TWO_POW_63..TWO_POW_63).contains(f) => {
                Some(*f as i64)
            }
            _ => None,
        }
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian date
/// (Howard Hinnant's `days_from_civil` algorithm).
pub fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.null_safe_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", Value::format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

/// The empty string, allocated once per process: what a NULL slot of a
/// string lane and a moved-out lane entry hold, so neither allocates.
pub fn empty_str() -> Arc<str> {
    static EMPTY: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(""));
    EMPTY.clone()
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_and_or_not_tables() {
        use Truth::*;
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(False.or(False), False);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
        assert_eq!(False.not(), True);
    }

    #[test]
    fn nan_is_equal_to_nan_and_greater_than_everything_numeric() {
        // PostgreSQL float semantics for stored NaN: one equality class
        // (whatever the sign/payload), ordered above every other number —
        // keeping equality, ordering and the hashed key encoding mutually
        // consistent.
        let nan = Value::Float(f64::NAN);
        let neg_nan = Value::Float(-f64::NAN);
        assert_eq!(nan.sql_eq(&neg_nan), Truth::True);
        assert!(nan.null_safe_eq(&neg_nan));
        assert_eq!(nan.sql_eq(&Value::Float(3.0)), Truth::False);
        assert!(!nan.null_safe_eq(&Value::Null));
        assert_eq!(nan.sql_cmp(&neg_nan), Some(Ordering::Equal));
        assert_eq!(
            nan.sql_cmp(&Value::Float(f64::INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(nan.sql_cmp(&Value::Int(i64::MAX)), Some(Ordering::Greater));
        assert_eq!(Value::Int(5).sql_cmp(&nan), Some(Ordering::Less));
        assert_eq!(nan.sort_key(&neg_nan), Ordering::Equal);
        assert_eq!(nan.sort_key(&Value::Float(1.0)), Ordering::Greater);
        assert_eq!(Value::Int(7).sort_key(&nan), Ordering::Less);
    }

    #[test]
    fn sql_eq_with_nulls_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), Truth::Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Truth::True);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Truth::False);
    }

    #[test]
    fn null_safe_eq_treats_null_as_equal() {
        assert!(Value::Null.null_safe_eq(&Value::Null));
        assert!(!Value::Null.null_safe_eq(&Value::Int(0)));
        assert!(Value::Int(3).null_safe_eq(&Value::Int(3)));
        assert!(Value::Int(3).null_safe_eq(&Value::Float(3.0)));
        assert!(!Value::Str("a".into()).null_safe_eq(&Value::Str("b".into())));
    }

    #[test]
    fn mixed_int_float_equality_is_exact_above_two_pow_53() {
        const TWO_53: i64 = 1 << 53;
        assert!(Value::Int(TWO_53).null_safe_eq(&Value::Float(TWO_53 as f64)));
        // (2⁵³ + 1) as f64 rounds to 2⁵³ — a lossy comparison would call
        // these equal, making equality non-transitive with the exact
        // Int/Int case below.
        assert!(!Value::Int(TWO_53 + 1).null_safe_eq(&Value::Float(TWO_53 as f64)));
        assert!(!Value::Int(TWO_53 + 1).null_safe_eq(&Value::Int(TWO_53)));
        assert!(!Value::Int(3).null_safe_eq(&Value::Float(3.5)));
        // i64::MAX rounds up to 2⁶³ in f64, which is outside i64's range;
        // i64::MIN is -2⁶³ exactly.
        assert!(!Value::Int(i64::MAX).null_safe_eq(&Value::Float(9_223_372_036_854_775_808.0)));
        assert!(Value::Int(i64::MIN).null_safe_eq(&Value::Float(-9_223_372_036_854_775_808.0)));
    }

    #[test]
    fn sql_cmp_orders_large_ints_exactly() {
        const TWO_53: i64 = 1 << 53;
        assert_eq!(
            Value::Int(TWO_53).sql_cmp(&Value::Int(TWO_53 + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(TWO_53 + 1).sql_cmp(&Value::Int(TWO_53)),
            Some(Ordering::Greater)
        );
        // Mixed Int/Float pairs order exactly too — trichotomy with the
        // exact equality: exactly one of <, =, > holds.
        assert_eq!(
            Value::Int(TWO_53 + 1).sql_cmp(&Value::Float(TWO_53 as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(TWO_53 as f64).sql_cmp(&Value::Int(TWO_53 + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(TWO_53).sql_cmp(&Value::Float(TWO_53 as f64)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(9_223_372_036_854_775_808.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(-3).sql_cmp(&Value::Float(-3.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sort_key_orders_large_ints_exactly() {
        const TWO_53: i64 = 1 << 53;
        assert_eq!(
            Value::Int(TWO_53 + 1).sort_key(&Value::Int(TWO_53)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(TWO_53 + 1).sort_key(&Value::Float(TWO_53 as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float(TWO_53 as f64).sort_key(&Value::Int(TWO_53)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float(2.5).sort_key(&Value::Int(2)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float(2.5).sort_key(&Value::Float(3.5)),
            Ordering::Less
        );
    }

    #[test]
    fn exact_int_canonicalises_integer_valued_numerics() {
        assert_eq!(Value::Int(3).exact_int(), Some(3));
        assert_eq!(Value::Date(3).exact_int(), Some(3));
        assert_eq!(Value::Bool(true).exact_int(), Some(1));
        assert_eq!(Value::Float(3.0).exact_int(), Some(3));
        assert_eq!(Value::Float(-0.0).exact_int(), Some(0));
        assert_eq!(Value::Float(3.5).exact_int(), None);
        assert_eq!(Value::Float(9_223_372_036_854_775_808.0).exact_int(), None);
        assert_eq!(Value::Float(f64::INFINITY).exact_int(), None);
        assert_eq!(Value::str("3").exact_int(), None);
        assert_eq!(Value::Null.exact_int(), None);
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Float(3.0).sql_eq(&Value::Int(3)), Truth::True);
    }

    #[test]
    fn string_comparison() {
        assert_eq!(
            Value::str("abc").sql_cmp(&Value::str("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("abc").sql_eq(&Value::str("abc")), Truth::True);
    }

    #[test]
    fn date_roundtrip() {
        for text in ["1970-01-01", "1992-02-29", "1998-12-01", "2009-03-24"] {
            let v = Value::parse_date(text).unwrap();
            match v {
                Value::Date(d) => assert_eq!(Value::format_date(d), text),
                _ => panic!("expected date"),
            }
        }
        assert_eq!(Value::parse_date("1970-01-01"), Some(Value::Date(0)));
        assert_eq!(Value::parse_date("1970-01-02"), Some(Value::Date(1)));
        assert!(Value::parse_date("not-a-date").is_none());
        assert!(Value::parse_date("1970-13-01").is_none());
    }

    #[test]
    fn date_ordering() {
        let a = Value::parse_date("1994-01-01").unwrap();
        let b = Value::parse_date("1994-04-01").unwrap();
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        // Interval arithmetic: 90 days later.
        if let (Value::Date(da), Value::Date(db)) = (&a, &b) {
            assert_eq!(db - da, 90);
        }
    }

    #[test]
    fn sort_key_total_order_with_nulls_first() {
        let mut vals = [
            Value::Int(3),
            Value::Null,
            Value::str("x"),
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.sort_key(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(3));
        assert_eq!(vals[4], Value::str("x"));
    }

    #[test]
    fn a_string_value_is_shared_and_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
        let v = Value::str("shared");
        let (Value::Str(a), Value::Str(b)) = (&v, &v.clone()) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "cloning bumps a count");
        assert!(Arc::ptr_eq(&empty_str(), &empty_str()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
