//! Hashable byte encodings of value lists, aligned with the engine's
//! equality.
//!
//! Every hash-based structure in the engine — hash joins, aggregate
//! grouping, the hashed bag/set operations of [`crate::Relation`], and the
//! executor's sublink memo — keys its tables with one of the two encodings
//! defined here, so the equivalence each key induces is specified (and
//! regression-tested) in exactly one place.

use crate::column::ColumnVec;
use crate::tuple::Tuple;
use crate::value::Value;

/// Encodes a list of values into a hashable byte key.
///
/// **Invariant:** `encode_key` equality must *refine and be refined by*
/// [`Value::null_safe_eq`] on engine-reachable values, i.e. two value lists
/// encode to the same bytes exactly when they are pairwise `null_safe_eq`.
/// Both directions are load-bearing:
///
/// * *encode equal ⇒ null-safe equal* keeps memoized sublink results and
///   aggregate groups correct — a memo hit must only ever substitute the
///   result of a genuinely equal binding.
/// * *null-safe equal ⇒ encode equal* keeps hash joins complete — two
///   values that the engine's equality would match must land in the same
///   bucket, because only bucket-mates are rechecked against the full join
///   condition.
///
/// This is why `Int`, `Float`, `Date` **and `Bool`** share one *canonical
/// numeric* encoding: [`Value::null_safe_eq`] coerces all four numerically
/// (`Date(3) = Int(3)` and `Bool(true) = Int(1)` are both TRUE), so giving
/// any of them its own tag would make the encoding *finer* than the
/// engine's equality and silently drop cross-type join matches. The
/// canonical form is the value's [`Value::exact_int`] — the exact `i64` it
/// denotes — whenever it denotes one (that covers `Int`, `Date`, `Bool`,
/// integral in-range `Float`s, and in particular `±0.0`, which both denote
/// 0); only fractional or out-of-`i64`-range floats, which can never equal
/// an integer-valued value, fall back to raw `f64` bits under a separate
/// tag. Encoding integers exactly instead of through `as_f64` matters above
/// 2⁵³, where the `f64` view is lossy and would merge distinct GROUP BY
/// groups such as `Int(2⁵³)` and `Int(2⁵³ + 1)` — grouping uses the key as
/// the equality itself, with no recheck. The regression tests below pin
/// both directions down.
///
/// NaN (which can enter stored data even though the engine's arithmetic
/// never produces one) forms a single equality class under
/// [`Value::null_safe_eq`], PostgreSQL-style, so every NaN — whatever its
/// sign or bit payload — encodes to one canonical bit pattern.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    encode_key_impl(values, false)
}

/// Type-exact variant of [`encode_key`] used for sublink memo keys: every
/// value variant gets its own tag and its exact bit pattern, so key equality
/// means the bindings are *byte-identical*, not merely in the same
/// [`Value::null_safe_eq`] class. The memo substitutes one binding's cached
/// result for another's, with no recheck — a coarser key would conflate
/// `Int(3)` with `Float(3.0)` or `Date(3)`, whose sublink results can differ
/// in representation (string concatenation, date arithmetic). Extra
/// fineness only costs a memo miss, never correctness.
pub fn encode_key_typed(values: &[Value]) -> Vec<u8> {
    encode_key_impl(values, true)
}

/// [`encode_key`] over a tuple's values — the equality key of
/// [`Tuple::null_safe_eq`], used by the hashed bag/set operations.
pub fn encode_tuple_key(tuple: &Tuple) -> Vec<u8> {
    encode_key(tuple.values())
}

/// All NaNs are one [`Value::null_safe_eq`] class (sign and payload are
/// unobservable in the engine), so they share one canonical bit pattern in
/// both encodings.
fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

fn encode_key_impl(values: &[Value], typed: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_value(v, typed, &mut out);
    }
    out
}

fn encode_value(v: &Value, typed: bool, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0u8),
        Value::Bool(b) if typed => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) if typed => {
            out.push(4);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) if typed => {
            out.push(5);
            out.extend_from_slice(&canonical_f64_bits(*f).to_le_bytes());
        }
        Value::Date(d) if typed => {
            out.push(6);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Date(_) => {
            // Canonical numeric form, see the invariant above: one exact
            // integer encoding for everything integer-valued, raw float
            // bits for the rest.
            match v.exact_int() {
                Some(i) => {
                    out.push(2);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                None => {
                    let f = v.as_f64().unwrap_or(0.0);
                    out.push(7);
                    out.extend_from_slice(&canonical_f64_bits(f).to_le_bytes());
                }
            }
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Appends the canonical float encoding (tag 2 exact-int or tag 7 raw
/// bits) of a *valid* `f64` lane entry — the untyped-key arm that cannot
/// be collapsed to a single memcpy because integral floats must merge
/// with their integer spellings.
#[inline]
fn encode_float_untyped(f: f64, out: &mut Vec<u8>) {
    match Value::Float(f).exact_int() {
        Some(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        None => {
            out.push(7);
            out.extend_from_slice(&canonical_f64_bits(f).to_le_bytes());
        }
    }
}

/// Column-wise [`encode_key`]: appends the key bytes of one whole column
/// onto per-row key buffers in a single pass, producing bytes identical to
/// calling `encode_value` row by row. Typed lanes encode straight from the
/// primitive slice — `Int`/`Date`/`Bool` share the canonical exact-integer
/// form (tag 2), floats split integral/fractional per entry, strings get
/// the length-prefixed form — so the per-row enum match disappears for the
/// hot grouping and join-key paths.
///
/// `keys.len()` must equal `col.len()`; each buffer accumulates the bytes
/// of all key columns for its row.
pub fn encode_key_column(col: &ColumnVec, keys: &mut [Vec<u8>]) {
    debug_assert_eq!(col.len(), keys.len());
    match col {
        ColumnVec::Int { data, validity } => {
            for (i, key) in keys.iter_mut().enumerate() {
                if validity.get(i) {
                    key.push(2);
                    key.extend_from_slice(&data[i].to_le_bytes());
                } else {
                    key.push(0);
                }
            }
        }
        ColumnVec::Date { data, validity } => {
            for (i, key) in keys.iter_mut().enumerate() {
                if validity.get(i) {
                    key.push(2);
                    key.extend_from_slice(&i64::from(data[i]).to_le_bytes());
                } else {
                    key.push(0);
                }
            }
        }
        ColumnVec::Bool { data, validity } => {
            for (i, key) in keys.iter_mut().enumerate() {
                if validity.get(i) {
                    key.push(2);
                    key.extend_from_slice(&i64::from(data[i]).to_le_bytes());
                } else {
                    key.push(0);
                }
            }
        }
        ColumnVec::Float { data, validity } => {
            for (i, key) in keys.iter_mut().enumerate() {
                if validity.get(i) {
                    encode_float_untyped(data[i], key);
                } else {
                    key.push(0);
                }
            }
        }
        ColumnVec::Str { data, validity } => {
            for (i, key) in keys.iter_mut().enumerate() {
                if validity.get(i) {
                    let s = &data[i];
                    key.push(3);
                    key.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    key.extend_from_slice(s.as_bytes());
                } else {
                    key.push(0);
                }
            }
        }
        ColumnVec::Values(vals) => {
            for (v, key) in vals.iter().zip(keys.iter_mut()) {
                encode_value(v, false, key);
            }
        }
    }
}

/// [`encode_key_column`] with a liveness mask, for hash-join keys where a
/// NULL in a non-null-safe key column disqualifies the whole row: rows
/// whose `live[i]` is already `false` are skipped, and a NULL entry under
/// `!null_safe` clears `live[i]` instead of appending bytes. A dead row's
/// partially built key is never consulted, so live rows' keys stay
/// byte-identical to the row-major encoding.
pub fn encode_key_column_filtered(
    col: &ColumnVec,
    null_safe: bool,
    live: &mut [bool],
    keys: &mut [Vec<u8>],
) {
    debug_assert_eq!(col.len(), keys.len());
    debug_assert_eq!(col.len(), live.len());
    for i in 0..col.len() {
        if !live[i] {
            continue;
        }
        if col.is_null_at(i) && !null_safe {
            live[i] = false;
            continue;
        }
        match col {
            ColumnVec::Int { data, validity } if validity.get(i) => {
                keys[i].push(2);
                keys[i].extend_from_slice(&data[i].to_le_bytes());
            }
            ColumnVec::Date { data, validity } if validity.get(i) => {
                keys[i].push(2);
                keys[i].extend_from_slice(&i64::from(data[i]).to_le_bytes());
            }
            ColumnVec::Bool { data, validity } if validity.get(i) => {
                keys[i].push(2);
                keys[i].extend_from_slice(&i64::from(data[i]).to_le_bytes());
            }
            ColumnVec::Float { data, validity } if validity.get(i) => {
                encode_float_untyped(data[i], &mut keys[i]);
            }
            ColumnVec::Str { data, validity } if validity.get(i) => {
                let s = &data[i];
                keys[i].push(3);
                keys[i].extend_from_slice(&(s.len() as u32).to_le_bytes());
                keys[i].extend_from_slice(s.as_bytes());
            }
            ColumnVec::Values(vals) => encode_value(&vals[i], false, &mut keys[i]),
            // Invalid typed-lane slot under `null_safe`: NULL's encoding.
            _ => keys[i].push(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encode_key` regression tests: key equality must coincide with
    /// `null_safe_eq` (see the invariant on [`encode_key`]). The engine's
    /// equality coerces `Date` numerically, so a `Date`/`Int` hash join must
    /// find its matches and a `Date`/`Int` group-by must merge its groups —
    /// this is exactly why all numerics share one canonical encoding instead
    /// of per-type tags — while distinct integers above 2⁵³ must *keep*
    /// distinct keys even though their `f64` views collide.
    #[test]
    fn encode_key_coincides_with_null_safe_eq() {
        const TWO_53: i64 = 1 << 53;
        let same = [
            (Value::Int(3), Value::Float(3.0)),
            (Value::Int(3), Value::Date(3)),
            (Value::Float(3.0), Value::Date(3)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Bool(true), Value::Int(1)),
            (Value::Bool(false), Value::Float(0.0)),
            (Value::Int(TWO_53), Value::Float(TWO_53 as f64)),
            (Value::Float(0.5), Value::Float(0.5)),
            (Value::Null, Value::Null),
            // NaN is one equality class, whatever its sign or payload
            // (PostgreSQL semantics) — keys must merge all spellings.
            (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
            (
                Value::Float(f64::NAN),
                Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)),
            ),
        ];
        for (a, b) in same {
            assert!(a.null_safe_eq(&b), "{a:?} vs {b:?}");
            assert_eq!(
                encode_key(std::slice::from_ref(&a)),
                encode_key(std::slice::from_ref(&b)),
                "{a:?} vs {b:?} must share a key"
            );
        }
        let different = [
            (Value::Int(3), Value::Int(4)),
            (Value::Int(3), Value::Null),
            (Value::str("3"), Value::Int(3)),
            (Value::Date(3), Value::Date(4)),
            (Value::Bool(true), Value::Int(0)),
            (Value::Bool(true), Value::Bool(false)),
            // Above 2⁵³ the f64 view of an i64 is lossy: these pairs agree
            // in `as_f64` but denote distinct integers, and must keep
            // distinct keys (a shared key would merge their GROUP BY
            // groups, which use the key as the equality with no recheck).
            (Value::Int(TWO_53), Value::Int(TWO_53 + 1)),
            (Value::Int(TWO_53 + 1), Value::Float(TWO_53 as f64)),
            (Value::Int(i64::MAX), Value::Float(TWO_53 as f64 * 1024.0)),
            (Value::Int(3), Value::Float(3.5)),
            (Value::Float(f64::NAN), Value::Float(3.0)),
            (Value::Float(f64::NAN), Value::Int(3)),
            (Value::Float(f64::NAN), Value::Null),
            (Value::Float(f64::NAN), Value::Float(f64::INFINITY)),
        ];
        for (a, b) in different {
            assert!(!a.null_safe_eq(&b), "{a:?} vs {b:?}");
            assert_ne!(
                encode_key(std::slice::from_ref(&a)),
                encode_key(std::slice::from_ref(&b)),
                "{a:?} vs {b:?} must not share a key"
            );
        }
    }

    #[test]
    fn typed_keys_separate_representations_the_untyped_key_merges() {
        let classes = [
            Value::Int(3),
            Value::Float(3.0),
            Value::Date(3),
            Value::Bool(true),
            Value::Int(1),
        ];
        for a in &classes {
            for b in &classes {
                let same_typed = encode_key_typed(std::slice::from_ref(a))
                    == encode_key_typed(std::slice::from_ref(b));
                // Typed equality is exactly representation identity.
                assert_eq!(
                    same_typed,
                    format!("{a:?}") == format!("{b:?}"),
                    "{a:?} vs {b:?}"
                );
                // And always at least as fine as the untyped key.
                if same_typed {
                    assert_eq!(
                        encode_key(std::slice::from_ref(a)),
                        encode_key(std::slice::from_ref(b))
                    );
                }
            }
        }
    }

    /// Every value that exercises a distinct arm of the row-major encoder:
    /// NaN spellings (one equality class), ±0.0, integers above 2⁵³ (where
    /// the f64 view is lossy), integral floats (canonical-int arm), dates,
    /// booleans, strings with embedded NULs, and NULL.
    fn encoder_edge_values() -> Vec<Value> {
        const TWO_53: i64 = 1 << 53;
        vec![
            Value::Int(3),
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(TWO_53 as f64),
            Value::Float(TWO_53 as f64 * 1024.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Date(3),
            Value::Date(-1),
            Value::Bool(true),
            Value::Bool(false),
            Value::str(""),
            Value::str("ab\0c"),
            Value::Null,
        ]
    }

    /// The column-wise encoders must be byte-identical to encoding each row
    /// with the row-major `encode_key` — on typed lanes
    /// (one variant + NULLs) and on the mixed-type `Values` fallback lane
    /// alike.
    #[test]
    fn column_encoders_match_row_major_bytes() {
        let everything = encoder_edge_values();
        // One typed column per variant, NULL-interleaved, plus the whole
        // mixed bag as a Values lane.
        let mut columns: Vec<Vec<Value>> = Vec::new();
        for v in &everything {
            if v.is_null() {
                continue;
            }
            let same_variant: Vec<Value> = everything
                .iter()
                .filter(|w| std::mem::discriminant(*w) == std::mem::discriminant(v))
                .cloned()
                .collect();
            let mut with_nulls = vec![Value::Null];
            for w in same_variant {
                with_nulls.push(w);
                with_nulls.push(Value::Null);
            }
            columns.push(with_nulls);
        }
        columns.push(everything);

        for rows in columns {
            let mut typed_col = ColumnVec::typed_for(&rows[1], rows.len());
            let mut values_col = ColumnVec::values_with_capacity(rows.len());
            for v in &rows {
                typed_col.push_value(v.clone());
                values_col.push_value(v.clone());
            }
            for col in [&typed_col, &values_col] {
                let mut untyped = vec![Vec::new(); rows.len()];
                encode_key_column(col, &mut untyped);
                let mut live = vec![true; rows.len()];
                let mut filtered = vec![Vec::new(); rows.len()];
                encode_key_column_filtered(col, true, &mut live, &mut filtered);
                for (i, v) in rows.iter().enumerate() {
                    let row = std::slice::from_ref(v);
                    assert_eq!(untyped[i], encode_key(row), "{v:?} untyped");
                    assert!(live[i], "{v:?} must stay live under null_safe");
                    assert_eq!(filtered[i], encode_key(row), "{v:?} filtered");
                }
            }
        }
    }

    /// Under `null_safe = false` a NULL key entry kills the row instead of
    /// encoding, and already-dead rows are skipped entirely; live rows'
    /// keys stay byte-identical across both key columns.
    #[test]
    fn filtered_encoder_drops_null_keys_and_skips_dead_rows() {
        let first = [Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)];
        let second = [
            Value::str("a"),
            Value::str("b"),
            Value::Null,
            Value::str("d"),
        ];
        let mut col1 = ColumnVec::typed_for(&Value::Int(0), 4);
        let mut col2 = ColumnVec::typed_for(&Value::str(""), 4);
        for v in &first {
            col1.push_value(v.clone());
        }
        for v in &second {
            col2.push_value(v.clone());
        }
        let mut live = vec![true; 4];
        let mut keys = vec![Vec::new(); 4];
        encode_key_column_filtered(&col1, false, &mut live, &mut keys);
        encode_key_column_filtered(&col2, false, &mut live, &mut keys);
        assert_eq!(live, vec![true, false, false, true]);
        for i in [0usize, 3] {
            assert_eq!(
                keys[i],
                encode_key(&[first[i].clone(), second[i].clone()]),
                "live row {i}"
            );
        }
    }

    #[test]
    fn tuple_key_matches_value_list_key() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null, Value::str("x")]);
        assert_eq!(encode_tuple_key(&t), encode_key(t.values()));
        // Variable-length strings cannot smear across positions: the length
        // prefix keeps ("ab","c") and ("a","bc") distinct.
        let ab_c = Tuple::new(vec![Value::str("ab"), Value::str("c")]);
        let a_bc = Tuple::new(vec![Value::str("a"), Value::str("bc")]);
        assert_ne!(encode_tuple_key(&ab_c), encode_tuple_key(&a_bc));
    }
}
