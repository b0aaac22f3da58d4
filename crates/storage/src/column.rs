//! Typed column vectors with packed validity bitmaps — the columnar
//! counterpart of a row-major `Vec<Tuple>` slice.
//!
//! A [`ColumnVec`] stores one attribute of a tuple block as a contiguous
//! primitive vector (`i64`, `f64`, `i32` dates, `bool`, shared `Arc<str>`) plus a
//! packed [`Validity`] bitmap, so comparison / arithmetic / key-encoding
//! kernels can run over plain slices the autovectorizer understands,
//! instead of matching a [`Value`] enum per row. Columns whose values mix
//! representations (e.g. `Int` and `Float` in one attribute) fall back to
//! the [`ColumnVec::Values`] lane — a plain `Vec<Value>` with unchanged
//! row-at-a-time semantics.
//!
//! ## Invariants
//!
//! * **Validity ⇔ `Value::Null`**: slot `i` of a typed lane is invalid
//!   exactly when the row-major value was `Value::Null`; the payload of an
//!   invalid slot is a type default (`0`, `0.0`, `false`, the shared
//!   [`empty_str`]) and never observable — [`ColumnVec::value_at`]
//!   reconstructs `Value::Null`.
//! * **Representation-preserving**: a typed lane holds exactly one `Value`
//!   variant; `Date(3)` never enters an `Int` lane even though the engine's
//!   equality coerces them, so `value_at` round-trips the original value
//!   bit for bit (memo keys and concatenation observe representation).
//! * **Promotion, not loss**: pushing a value of a different variant
//!   demotes the column to the `Values` lane in place (the mixed-type
//!   fallback); no value is ever coerced.

use crate::value::{empty_str, Value};
use crate::Truth;
use std::sync::Arc;

/// A packed validity bitmap: bit `i` is set exactly when slot `i` holds a
/// non-NULL value. Tracks its invalid count so the all-valid fast path is
/// O(1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
    invalid: usize,
}

impl Validity {
    /// An empty bitmap.
    pub fn new() -> Validity {
        Validity::default()
    }

    /// An empty bitmap with room for `n` slots.
    pub fn with_capacity(n: usize) -> Validity {
        Validity {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
            invalid: 0,
        }
    }

    /// A bitmap of `n` valid slots.
    pub fn all_valid(n: usize) -> Validity {
        let mut words = vec![!0u64; n / 64];
        if !n.is_multiple_of(64) {
            // Trailing bits stay zero so equal bitmaps are byte-equal.
            words.push((1u64 << (n % 64)) - 1);
        }
        Validity {
            words,
            len: n,
            invalid: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one slot.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if valid {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        } else {
            self.invalid += 1;
        }
        self.len += 1;
    }

    /// Whether slot `i` is valid (non-NULL).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// `true` when no slot is NULL — the branch-free kernel fast path.
    #[inline]
    pub fn is_all_valid(&self) -> bool {
        self.invalid == 0
    }

    /// Number of invalid (NULL) slots.
    pub fn invalid_count(&self) -> usize {
        self.invalid
    }

    /// The `len` slots from `start` on, as a bitmap of their own: all valid
    /// without reading a bit when this one has no NULL.
    pub fn slice(&self, start: usize, len: usize) -> Validity {
        if self.is_all_valid() {
            return Validity::all_valid(len);
        }
        let mut bits = Validity::with_capacity(len);
        for i in start..start + len {
            bits.push(self.get(i));
        }
        bits
    }
}

/// One attribute of a tuple block in columnar form: a typed lane per
/// [`Value`] variant, or the `Values` fallback lane for mixed-type columns.
/// See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// `Value::Int` lane.
    Int { data: Vec<i64>, validity: Validity },
    /// `Value::Float` lane.
    Float { data: Vec<f64>, validity: Validity },
    /// `Value::Date` lane.
    Date { data: Vec<i32>, validity: Validity },
    /// `Value::Bool` lane.
    Bool { data: Vec<bool>, validity: Validity },
    /// `Value::Str` lane: the same `Arc`s the values hold, so moving a
    /// string between a lane and a row, or cloning one, bumps a count
    /// instead of copying bytes.
    Str {
        data: Vec<Arc<str>>,
        validity: Validity,
    },
    /// Row-at-a-time fallback lane for mixed-type columns (and all-NULL
    /// columns, which carry no type information).
    Values(Vec<Value>),
}

impl Default for ColumnVec {
    fn default() -> ColumnVec {
        ColumnVec::Values(Vec::new())
    }
}

impl ColumnVec {
    /// An empty `Values` fallback lane with room for `n` entries.
    pub fn values_with_capacity(n: usize) -> ColumnVec {
        ColumnVec::Values(Vec::with_capacity(n))
    }

    /// An empty column whose lane matches the representation of `v`
    /// (`Values` for NULL, which carries no type information).
    pub fn typed_for(v: &Value, capacity: usize) -> ColumnVec {
        match v {
            Value::Int(_) => ColumnVec::Int {
                data: Vec::with_capacity(capacity),
                validity: Validity::with_capacity(capacity),
            },
            Value::Float(_) => ColumnVec::Float {
                data: Vec::with_capacity(capacity),
                validity: Validity::with_capacity(capacity),
            },
            Value::Date(_) => ColumnVec::Date {
                data: Vec::with_capacity(capacity),
                validity: Validity::with_capacity(capacity),
            },
            Value::Bool(_) => ColumnVec::Bool {
                data: Vec::with_capacity(capacity),
                validity: Validity::with_capacity(capacity),
            },
            Value::Str(_) => ColumnVec::Str {
                data: Vec::with_capacity(capacity),
                validity: Validity::with_capacity(capacity),
            },
            Value::Null => ColumnVec::values_with_capacity(capacity),
        }
    }

    /// The typed lane of a stored column, built once when its table enters
    /// the catalog: `Some` when the column's non-NULL values are all `Int`,
    /// all `Float`, all `Date` or all `Bool`; `None` for `Str`, mixed-type
    /// and all-NULL columns.
    pub fn stored_lane<'v>(values: impl Iterator<Item = &'v Value> + Clone) -> Option<ColumnVec> {
        let first = values.clone().find(|v| !v.is_null())?;
        let kind = std::mem::discriminant(first);
        if matches!(first, Value::Str(_))
            || values
                .clone()
                .any(|v| !v.is_null() && std::mem::discriminant(v) != kind)
        {
            return None;
        }
        let mut lane = ColumnVec::typed_for(first, values.size_hint().0);
        for v in values {
            lane.push_value(v.clone());
        }
        Some(lane)
    }

    /// The column with a `Values` lane moved into the typed lane of its
    /// non-NULL entries when they all share one variant (no value is
    /// cloned). A typed lane comes back as it is, and so does a mixed-type
    /// or all-NULL `Values` lane.
    pub fn into_typed(self) -> ColumnVec {
        let ColumnVec::Values(values) = self else {
            return self;
        };
        let Some(first) = values.iter().find(|v| !v.is_null()) else {
            return ColumnVec::Values(values);
        };
        let kind = std::mem::discriminant(first);
        if values
            .iter()
            .any(|v| !v.is_null() && std::mem::discriminant(v) != kind)
        {
            return ColumnVec::Values(values);
        }
        let mut lane = ColumnVec::typed_for(first, values.len());
        for v in values {
            lane.push_value(v);
        }
        lane
    }

    /// A column of `n` copies of `v` — the broadcast of a literal,
    /// parameter or outer-scope binding over a batch.
    pub fn broadcast(v: &Value, n: usize) -> ColumnVec {
        match v {
            Value::Int(i) => ColumnVec::Int {
                data: vec![*i; n],
                validity: Validity::all_valid(n),
            },
            Value::Float(f) => ColumnVec::Float {
                data: vec![*f; n],
                validity: Validity::all_valid(n),
            },
            Value::Date(d) => ColumnVec::Date {
                data: vec![*d; n],
                validity: Validity::all_valid(n),
            },
            Value::Bool(b) => ColumnVec::Bool {
                data: vec![*b; n],
                validity: Validity::all_valid(n),
            },
            Value::Str(s) => ColumnVec::Str {
                data: vec![s.clone(); n],
                validity: Validity::all_valid(n),
            },
            Value::Null => ColumnVec::Values(vec![Value::Null; n]),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Date { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::Values(v) => v.len(),
        }
    }

    /// `true` when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for a typed lane, `false` for the `Values` fallback lane.
    pub fn is_typed(&self) -> bool {
        !matches!(self, ColumnVec::Values(_))
    }

    /// Whether entry `i` is NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { validity, .. }
            | ColumnVec::Float { validity, .. }
            | ColumnVec::Date { validity, .. }
            | ColumnVec::Bool { validity, .. }
            | ColumnVec::Str { validity, .. } => !validity.get(i),
            ColumnVec::Values(v) => v[i].is_null(),
        }
    }

    /// Reconstructs entry `i` as a [`Value`] (a string shares the lane's
    /// `Arc`).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, validity } if validity.get(i) => Value::Int(data[i]),
            ColumnVec::Float { data, validity } if validity.get(i) => Value::Float(data[i]),
            ColumnVec::Date { data, validity } if validity.get(i) => Value::Date(data[i]),
            ColumnVec::Bool { data, validity } if validity.get(i) => Value::Bool(data[i]),
            ColumnVec::Str { data, validity } if validity.get(i) => Value::Str(data[i].clone()),
            ColumnVec::Values(v) => v[i].clone(),
            _ => Value::Null,
        }
    }

    /// Moves entry `i` out as a [`Value`], leaving a NULL-equivalent
    /// placeholder behind. Each entry may be taken at most once; the
    /// validity bitmap is not updated (the column is being consumed).
    #[inline]
    pub fn take_value(&mut self, i: usize) -> Value {
        match self {
            ColumnVec::Str { data, validity } if validity.get(i) => {
                Value::Str(std::mem::replace(&mut data[i], empty_str()))
            }
            ColumnVec::Values(v) => std::mem::replace(&mut v[i], Value::Null),
            _ => self.value_at(i),
        }
    }

    /// The three-valued truth of entry `i`, as `Value::as_truth` would
    /// report it: `Bool` lanes map valid entries to their boolean and NULLs
    /// to Unknown; every non-boolean value is Unknown.
    #[inline]
    pub fn truth_at(&self, i: usize) -> Truth {
        match self {
            ColumnVec::Bool { data, validity } => {
                if validity.get(i) {
                    Truth::from_bool(data[i])
                } else {
                    Truth::Unknown
                }
            }
            ColumnVec::Values(v) => v[i].as_truth(),
            _ => Truth::Unknown,
        }
    }

    /// Appends `v`, preserving its representation: a matching typed lane
    /// absorbs it (NULLs become invalid slots), a mismatched one demotes
    /// the whole column to the `Values` fallback lane in place.
    pub fn push_value(&mut self, v: Value) {
        let v = match self {
            ColumnVec::Values(vals) => {
                vals.push(v);
                return;
            }
            ColumnVec::Int { data, validity } => match v {
                Value::Int(i) => {
                    data.push(i);
                    validity.push(true);
                    return;
                }
                Value::Null => {
                    data.push(0);
                    validity.push(false);
                    return;
                }
                other => other,
            },
            ColumnVec::Float { data, validity } => match v {
                Value::Float(f) => {
                    data.push(f);
                    validity.push(true);
                    return;
                }
                Value::Null => {
                    data.push(0.0);
                    validity.push(false);
                    return;
                }
                other => other,
            },
            ColumnVec::Date { data, validity } => match v {
                Value::Date(d) => {
                    data.push(d);
                    validity.push(true);
                    return;
                }
                Value::Null => {
                    data.push(0);
                    validity.push(false);
                    return;
                }
                other => other,
            },
            ColumnVec::Bool { data, validity } => match v {
                Value::Bool(b) => {
                    data.push(b);
                    validity.push(true);
                    return;
                }
                Value::Null => {
                    data.push(false);
                    validity.push(false);
                    return;
                }
                other => other,
            },
            ColumnVec::Str { data, validity } => match v {
                Value::Str(s) => {
                    data.push(s);
                    validity.push(true);
                    return;
                }
                Value::Null => {
                    data.push(empty_str());
                    validity.push(false);
                    return;
                }
                other => other,
            },
        };
        // Mixed-type column: demote to the fallback lane and keep going.
        let mut vals = std::mem::take(self).to_values();
        vals.push(v);
        *self = ColumnVec::Values(vals);
    }

    /// Resets the column to an empty `Values` lane, reusing the allocation
    /// when it already is one (the buffer-reuse path of the row-major
    /// evaluator closures).
    pub fn clear_values(&mut self) {
        match self {
            ColumnVec::Values(vals) => vals.clear(),
            _ => *self = ColumnVec::Values(Vec::new()),
        }
    }

    /// A new column of the `len` entries from `start` on: a copy of the
    /// payload slice (typed lanes stay typed).
    pub fn slice(&self, start: usize, len: usize) -> ColumnVec {
        let indices = start..start + len;
        match self {
            ColumnVec::Int { data, validity } => ColumnVec::Int {
                data: data[indices].to_vec(),
                validity: validity.slice(start, len),
            },
            ColumnVec::Float { data, validity } => ColumnVec::Float {
                data: data[indices].to_vec(),
                validity: validity.slice(start, len),
            },
            ColumnVec::Date { data, validity } => ColumnVec::Date {
                data: data[indices].to_vec(),
                validity: validity.slice(start, len),
            },
            ColumnVec::Bool { data, validity } => ColumnVec::Bool {
                data: data[indices].to_vec(),
                validity: validity.slice(start, len),
            },
            ColumnVec::Str { data, validity } => ColumnVec::Str {
                data: data[indices].to_vec(),
                validity: validity.slice(start, len),
            },
            ColumnVec::Values(v) => ColumnVec::Values(v[indices].to_vec()),
        }
    }

    /// A new column holding entry `start + i` for each `i` of `indices`,
    /// in order (typed lanes stay typed). A lane with no NULL gives an
    /// all-valid bitmap without reading a bit.
    pub fn gather(&self, start: usize, indices: &[usize]) -> ColumnVec {
        fn gather_typed<T: Clone>(
            data: &[T],
            validity: &Validity,
            start: usize,
            indices: &[usize],
        ) -> (Vec<T>, Validity) {
            let out = indices.iter().map(|&i| data[start + i].clone()).collect();
            let out_validity = if validity.is_all_valid() {
                Validity::all_valid(indices.len())
            } else {
                let mut bits = Validity::with_capacity(indices.len());
                for &i in indices {
                    bits.push(validity.get(start + i));
                }
                bits
            };
            (out, out_validity)
        }
        match self {
            ColumnVec::Int { data, validity } => {
                let (data, validity) = gather_typed(data, validity, start, indices);
                ColumnVec::Int { data, validity }
            }
            ColumnVec::Float { data, validity } => {
                let (data, validity) = gather_typed(data, validity, start, indices);
                ColumnVec::Float { data, validity }
            }
            ColumnVec::Date { data, validity } => {
                let (data, validity) = gather_typed(data, validity, start, indices);
                ColumnVec::Date { data, validity }
            }
            ColumnVec::Bool { data, validity } => {
                let (data, validity) = gather_typed(data, validity, start, indices);
                ColumnVec::Bool { data, validity }
            }
            ColumnVec::Str { data, validity } => {
                let (data, validity) = gather_typed(data, validity, start, indices);
                ColumnVec::Str { data, validity }
            }
            ColumnVec::Values(v) => {
                ColumnVec::Values(indices.iter().map(|&i| v[start + i].clone()).collect())
            }
        }
    }

    /// Moves every entry into `out` as row-major [`Value`]s.
    pub fn append_to_values(self, out: &mut Vec<Value>) {
        fn append_typed<T>(
            data: Vec<T>,
            validity: &Validity,
            out: &mut Vec<Value>,
            wrap: impl Fn(T) -> Value,
        ) {
            for (i, x) in data.into_iter().enumerate() {
                out.push(if validity.get(i) {
                    wrap(x)
                } else {
                    Value::Null
                });
            }
        }
        match self {
            ColumnVec::Int { data, validity } => append_typed(data, &validity, out, Value::Int),
            ColumnVec::Float { data, validity } => append_typed(data, &validity, out, Value::Float),
            ColumnVec::Date { data, validity } => append_typed(data, &validity, out, Value::Date),
            ColumnVec::Bool { data, validity } => append_typed(data, &validity, out, Value::Bool),
            ColumnVec::Str { data, validity } => append_typed(data, &validity, out, Value::Str),
            ColumnVec::Values(v) => out.extend(v),
        }
    }

    /// Converts the column into row-major [`Value`]s.
    pub fn to_values(self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        self.append_to_values(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_tracks_bits_and_counts() {
        let mut v = Validity::with_capacity(130);
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 130);
        assert!(!v.is_all_valid());
        assert_eq!(v.invalid_count(), 44);
        for i in 0..130 {
            assert_eq!(v.get(i), i % 3 != 0, "bit {i}");
        }
        let all = Validity::all_valid(130);
        assert!(all.is_all_valid());
        assert!((0..130).all(|i| all.get(i)));
        // `all_valid` and bit-by-bit construction are byte-identical
        // (trailing bits zero), so derived equality works.
        let mut pushed = Validity::new();
        for _ in 0..130 {
            pushed.push(true);
        }
        assert_eq!(all, pushed);
    }

    #[test]
    fn push_value_keeps_representation_and_round_trips() {
        let rows = vec![
            Value::Int(1),
            Value::Null,
            Value::Int(3),
            Value::Null,
            Value::Int(-7),
        ];
        let mut col = ColumnVec::typed_for(&rows[0], rows.len());
        for v in &rows {
            col.push_value(v.clone());
        }
        assert!(col.is_typed());
        assert_eq!(col.len(), rows.len());
        for (i, v) in rows.iter().enumerate() {
            assert_eq!(&col.value_at(i), v);
            assert_eq!(col.is_null_at(i), v.is_null());
        }
        assert_eq!(col.clone().to_values(), rows);
    }

    #[test]
    fn mixed_types_demote_to_the_values_lane() {
        let mut col = ColumnVec::typed_for(&Value::Int(0), 3);
        col.push_value(Value::Int(1));
        col.push_value(Value::Null);
        // Date(3) is numerically equal to Int(3) under the engine's
        // coercion, but representation must be preserved — the column
        // demotes rather than coerces.
        col.push_value(Value::Date(3));
        assert!(!col.is_typed());
        assert_eq!(
            col.to_values(),
            vec![Value::Int(1), Value::Null, Value::Date(3)]
        );
    }

    #[test]
    fn gather_take_and_truth() {
        let rows = vec![
            Value::str("a"),
            Value::Null,
            Value::str("c"),
            Value::str("d"),
        ];
        let mut col = ColumnVec::typed_for(&rows[0], rows.len());
        for v in &rows {
            col.push_value(v.clone());
        }
        let picked = col.gather(0, &[1, 3]);
        assert_eq!(picked.to_values(), vec![Value::Null, Value::str("d")]);
        let shifted = col.gather(1, &[0, 2]);
        assert_eq!(shifted.to_values(), vec![Value::Null, Value::str("d")]);
        assert_eq!(col.take_value(2), Value::str("c"));

        let mut bools = ColumnVec::typed_for(&Value::Bool(true), 3);
        bools.push_value(Value::Bool(true));
        bools.push_value(Value::Null);
        bools.push_value(Value::Bool(false));
        assert_eq!(bools.truth_at(0), Truth::True);
        assert_eq!(bools.truth_at(1), Truth::Unknown);
        assert_eq!(bools.truth_at(2), Truth::False);
        // Non-boolean values are Unknown, exactly like `Value::as_truth`.
        let ints = ColumnVec::broadcast(&Value::Int(1), 2);
        assert_eq!(ints.truth_at(0), Truth::Unknown);
    }

    /// `gather` and `slice` build their bitmaps the fast way — all valid,
    /// without reading a bit, when the source has no NULL — and the result
    /// equals the bitmap pushed bit by bit, on lanes with and without NULLs.
    #[test]
    fn gather_and_slice_equal_the_per_bit_build() {
        let per_bit = |col: &ColumnVec, at: &mut dyn Iterator<Item = usize>| {
            let mut out = match col {
                ColumnVec::Values(_) => ColumnVec::values_with_capacity(0),
                typed => ColumnVec::typed_for(&typed.value_at(0), 0),
            };
            for i in at {
                out.push_value(col.value_at(i));
            }
            out
        };
        let dense: Vec<Value> = (0..150).map(Value::Int).collect();
        let holey: Vec<Value> = (0..150)
            .map(|i| match i % 7 {
                3 => Value::Null,
                _ => Value::Float(i as f64),
            })
            .collect();
        for rows in [&dense, &holey] {
            let mut col = ColumnVec::typed_for(&rows[0], rows.len());
            for v in rows.iter() {
                col.push_value(v.clone());
            }
            let indices: Vec<usize> = (0..80).filter(|i| i % 3 != 1).collect();
            for start in [0, 1, 63, 64, 70] {
                let gathered = col.gather(start, &indices);
                let expected = per_bit(&col, &mut indices.iter().map(|&i| start + i));
                assert_eq!(gathered, expected, "gather from {start}");
                let sliced = col.slice(start, 80);
                assert_eq!(sliced, per_bit(&col, &mut (start..start + 80)));
            }
        }
        let all = ColumnVec::typed_for(&Value::Int(0), 0);
        assert!(matches!(
            all.gather(0, &[]),
            ColumnVec::Int { validity, .. } if validity == Validity::new()
        ));
    }

    #[test]
    fn stored_lanes_are_built_for_uniform_non_string_columns() {
        let lane = |vals: &[Value]| ColumnVec::stored_lane(vals.iter());
        for typed in [
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Null, Value::Float(0.5)],
            vec![Value::Date(3), Value::Date(4)],
            vec![Value::Bool(true), Value::Null],
        ] {
            let built = lane(&typed).expect("a uniform column has a lane");
            assert!(built.is_typed());
            assert_eq!(built.to_values(), typed);
        }
        for none in [
            vec![Value::str("a"), Value::Null],
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Date(3), Value::Int(3)],
            vec![Value::Null, Value::Null],
            vec![],
        ] {
            assert_eq!(lane(&none), None, "{none:?}");
        }
    }

    #[test]
    fn into_typed_moves_uniform_values_into_their_lane() {
        let uniform = vec![Value::str("a"), Value::Null, Value::str("c")];
        let typed = ColumnVec::Values(uniform.clone()).into_typed();
        assert!(matches!(typed, ColumnVec::Str { .. }));
        assert_eq!(typed.to_values(), uniform);
        for stays in [
            vec![Value::Int(1), Value::Date(1)],
            vec![Value::Null, Value::Null],
            vec![],
        ] {
            let col = ColumnVec::Values(stays.clone()).into_typed();
            assert_eq!(col, ColumnVec::Values(stays));
        }
        let lane = ColumnVec::broadcast(&Value::Int(3), 2);
        assert_eq!(lane.clone().into_typed(), lane);
    }

    /// A string lane holds the values' own `Arc`s: pushing, reading,
    /// gathering and broadcasting share one allocation; a NULL slot and a
    /// moved-out entry hold the one shared empty string.
    #[test]
    fn string_lanes_share_the_values_allocation() {
        let shared = Value::str("shared");
        let Value::Str(arc) = &shared else {
            unreachable!()
        };
        let mut col = ColumnVec::typed_for(&shared, 3);
        col.push_value(shared.clone());
        col.push_value(Value::Null);
        col.push_value(shared.clone());
        let same = |v: &Value| matches!(v, Value::Str(s) if Arc::ptr_eq(s, arc));
        assert!(same(&col.value_at(0)));
        assert!(same(&col.gather(0, &[2]).value_at(0)));
        assert!(same(&ColumnVec::broadcast(&shared, 4).value_at(3)));
        let ColumnVec::Str { data, .. } = &col else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&data[1], &empty_str()), "NULL slot");
        assert!(same(&col.take_value(2)));
        let ColumnVec::Str { data, .. } = &col else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&data[2], &empty_str()), "moved-out entry");
    }

    #[test]
    fn broadcast_matches_value_semantics() {
        for v in [
            Value::Int(42),
            Value::Float(0.5),
            Value::str("x"),
            Value::Date(9),
            Value::Bool(false),
            Value::Null,
        ] {
            let col = ColumnVec::broadcast(&v, 4);
            assert_eq!(col.len(), 4);
            for i in 0..4 {
                assert_eq!(col.value_at(i), v);
            }
        }
    }
}
