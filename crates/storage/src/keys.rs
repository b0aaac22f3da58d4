//! Byte encodings of value lists, aligned with the engine's equality and
//! ordering, and the table that interns them.
//!
//! Three encodings live here, so the equivalence or order each induces is
//! specified (and regression-tested) in exactly one place:
//!
//! * [`encode_key`] — equality keys: bytes are equal exactly when the
//!   values are pairwise [`Value::null_safe_eq`]. Hash joins, aggregate
//!   grouping and the hashed bag/set operations of [`crate::Relation`] key
//!   on it.
//! * [`encode_key_typed`] — memo keys: bytes are equal exactly when the
//!   values are representation-identical. The executor's sublink memo keys
//!   on it.
//! * [`encode_sort_key`] — sort keys: byte order is the lexicographic
//!   [`Value::sort_key`] order with a direction per key, and bytes are equal
//!   exactly when every key compares `Equal`. The sort and its run merge
//!   compare these bytes and nothing else.
//!
//! [`KeyTable`] interns encoded keys — one byte arena, dense `u32` ids in
//! first-seen order, an open-addressing index over `(hash, id)` — and is
//! what the hash join's build side and the aggregate's group index look
//! their keys up in.

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

/// [`encode_key`] appended to `out`, for a caller that encodes key after
/// key into one reused buffer.
pub fn encode_key_into(values: &[Value], out: &mut Vec<u8>) {
    for v in values {
        encode_value(v, false, out);
    }
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

/// [`encode_key_typed`] appended to `out`, for a caller that builds its
/// keys in one reused buffer.
pub fn encode_key_typed_into(values: &[Value], out: &mut Vec<u8>) {
    for v in values {
        encode_value(v, true, out);
    }
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

// ---------------------------------------------------------------------------
// Order-preserving sort keys
// ---------------------------------------------------------------------------

/// Sort-key class bytes, in [`Value::sort_key`] class order: NULL < `Bool`
/// < numeric < `Str`. The numeric class spans 21 class bytes in value order:
/// below the `i64` range; inside it, by the sign and byte length of the
/// integral part (`SORT_NEG_0 - n` for a negative one of `n` bytes,
/// `SORT_POS_0 + n` for a non-negative one, `n` in `0..=8`); above it; NaN.
const SORT_NULL: u8 = 0x01;
const SORT_BOOL: u8 = 0x02;
const SORT_NUM_BELOW: u8 = 0x03;
const SORT_NEG_0: u8 = 0x0C;
const SORT_POS_0: u8 = 0x0D;
const SORT_NUM_ABOVE: u8 = 0x16;
const SORT_NAN: u8 = 0x17;
const SORT_STR: u8 = 0x18;

/// After the integral part of an in-range numeric: a negative remainder
/// (its bits follow), none (the value is that integer), or a positive one.
const SORT_BELOW_INTEGRAL: u8 = 0x00;
const SORT_INTEGRAL: u8 = 0x01;
const SORT_ABOVE_INTEGRAL: u8 = 0x02;

/// A string's `0x00` byte is written `0x00 0xFF`, and the string ends with
/// `0x00 0x01`, which orders below every byte a longer string continues
/// with.
const SORT_STR_ESCAPE: u8 = 0xFF;
const SORT_STR_END: u8 = 0x01;

/// 2⁶³ as an `f64`, the first value above `i64`'s range.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Encodes one sort key per value into an order-preserving byte string,
/// the *normalised key* of a row.
///
/// **Invariant:** for value lists `a` and `b` of the same length, the byte
/// order of `encode_sort_key(a, asc)` and `encode_sort_key(b, asc)` is the
/// lexicographic order of the per-key [`Value::sort_key`], each key
/// reversed where `asc` is `false`; and the bytes are equal exactly when
/// every key compares `Equal`. A stable sort on the bytes is therefore the
/// stable sort on the values, and comparing two rows is one `memcmp`.
///
/// Each key's bytes are prefix-free — no key's encoding is a proper prefix
/// of another's — so concatenated keys compare key by key, and a
/// descending key is the byte-wise complement of its ascending encoding.
/// The classes follow [`Value::sort_key`]: NULL, then `Bool` (false <
/// true), then every numeric, then `Str` (byte order). Numerics order by
/// their exact mathematical value across `Int`, `Float` and `Date`, so
/// `Int(3)`, `Float(3.0)` and `Date(3)` encode alike, as do `-0.0` and
/// `0`:
///
/// * a finite value `x` in `[-2⁶³, 2⁶³)` is its integral part `t =
///   trunc(x)`, then the remainder `x - trunc(x)`: a sign byte, and for a
///   non-zero remainder its order bits. Truncation is monotone, so the
///   integral part orders first and the remainder — which has `x`'s sign,
///   lies in `(-1, 1)` and is exact in `f64` — breaks its ties. (The
///   remainder above `floor(x)` would round for tiny negative `x`:
///   `-1e-300 - (-1)` is `1.0`.) `t` is written in as few bytes as it
///   needs: a class byte carrying its sign and byte count `n`, then its
///   low `n` two's-complement bytes, big-endian — for `t ≥ 0` the bytes
///   `t` needs, for `t < 0` the bytes `!t` needs (the leading bytes of `t`
///   left out are all `0xFF`). A longer non-negative `t` is
///   larger and a longer negative one smaller, so the class byte orders
///   by length first, and equal lengths order by their bytes. An integer
///   in `[-256, 256)` takes at most three bytes in all, any `i64` ten;
/// * values below that range (`-∞` among them) and above it (`+∞`) get a
///   class byte of their own and the order bits of the `f64`;
/// * every NaN is one code above `+∞` ([`crate::f64_cmp_sql`]).
///
/// Strings escape their `0x00` bytes and end with a terminator.
pub fn encode_sort_key(values: &[Value], ascending: &[bool]) -> Vec<u8> {
    debug_assert_eq!(values.len(), ascending.len());
    let mut out = Vec::with_capacity(values.len() * 10);
    for (v, asc) in values.iter().zip(ascending) {
        encode_sort_value(v, *asc, &mut out);
    }
    out
}

/// Appends the [`encode_sort_key`] bytes of one value, complemented when
/// the key is descending.
fn encode_sort_value(v: &Value, ascending: bool, out: &mut Vec<u8>) {
    let start = out.len();
    match v {
        Value::Null => out.push(SORT_NULL),
        Value::Bool(b) => out.extend_from_slice(&[SORT_BOOL, u8::from(*b)]),
        Value::Int(i) => sort_int(*i, out),
        Value::Date(d) => sort_int(i64::from(*d), out),
        Value::Float(f) => sort_float(*f, out),
        Value::Str(s) => sort_str(s, out),
    }
    if !ascending {
        complement(&mut out[start..]);
    }
}

/// Column-wise [`encode_sort_key`]: appends the sort-key bytes of entry
/// `i` of `col` straight from its lane, so a typed key never becomes a
/// [`Value`]. The bytes are those of
/// `encode_sort_key(&[col.value_at(i)], &[ascending])`.
pub fn encode_sort_entry(col: &ColumnVec, i: usize, ascending: bool, out: &mut Vec<u8>) {
    let start = out.len();
    match col {
        ColumnVec::Values(vals) => return encode_sort_value(&vals[i], ascending, out),
        _ if col.is_null_at(i) => out.push(SORT_NULL),
        ColumnVec::Int { data, .. } => sort_int(data[i], out),
        ColumnVec::Date { data, .. } => sort_int(i64::from(data[i]), out),
        ColumnVec::Bool { data, .. } => out.extend_from_slice(&[SORT_BOOL, u8::from(data[i])]),
        ColumnVec::Float { data, .. } => sort_float(data[i], out),
        ColumnVec::Str { data, .. } => sort_str(&data[i], out),
    }
    if !ascending {
        complement(&mut out[start..]);
    }
}

fn complement(bytes: &mut [u8]) {
    for b in bytes {
        *b = !*b;
    }
}

/// The integral part of an in-range numeric, in as few bytes as it needs.
#[inline]
fn sort_whole(t: i64, out: &mut Vec<u8>) {
    let magnitude = if t < 0 { !(t as u64) } else { t as u64 };
    let n = 8 - magnitude.leading_zeros() as usize / 8;
    out.push(match t < 0 {
        true => SORT_NEG_0 - n as u8,
        false => SORT_POS_0 + n as u8,
    });
    out.extend_from_slice(&t.to_be_bytes()[8 - n..]);
}

#[inline]
fn sort_int(i: i64, out: &mut Vec<u8>) {
    sort_whole(i, out);
    out.push(SORT_INTEGRAL);
}

/// The bits of `f` as an unsigned integer that orders as `f` does (NaN
/// aside): negative floats complemented, non-negative ones sign-flipped.
fn f64_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

fn sort_float(f: f64, out: &mut Vec<u8>) {
    if f.is_nan() {
        out.push(SORT_NAN);
    } else if f < -TWO_POW_63 {
        out.push(SORT_NUM_BELOW);
        out.extend_from_slice(&f64_order_bits(f).to_be_bytes());
    } else if f >= TWO_POW_63 {
        out.push(SORT_NUM_ABOVE);
        out.extend_from_slice(&f64_order_bits(f).to_be_bytes());
    } else {
        let whole = f.trunc();
        // In range the cast is exact, and so is the subtraction: the
        // remainder is `f`'s bits below the binary point.
        let remainder = f - whole;
        sort_whole(whole as i64, out);
        if remainder == 0.0 {
            out.push(SORT_INTEGRAL);
        } else {
            out.push(match remainder < 0.0 {
                true => SORT_BELOW_INTEGRAL,
                false => SORT_ABOVE_INTEGRAL,
            });
            out.extend_from_slice(&f64_order_bits(remainder).to_be_bytes());
        }
    }
}

fn sort_str(s: &str, out: &mut Vec<u8>) {
    out.push(SORT_STR);
    let mut pieces = s.as_bytes().split(|&b| b == 0);
    if let Some(first) = pieces.next() {
        out.extend_from_slice(first);
    }
    for piece in pieces {
        out.extend_from_slice(&[0, SORT_STR_ESCAPE]);
        out.extend_from_slice(piece);
    }
    out.extend_from_slice(&[0, SORT_STR_END]);
}

// ---------------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------------

/// The hash of a key in a [`KeyTable`]: a multiply-rotate over the key's
/// little-endian 8-byte words (the last one zero-padded, the length mixed
/// in first), then a final mix. Deterministic across runs and processes;
/// written here rather than taken from `std`, whose `SipHash` costs more
/// than the short keys it hashes.
fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (key.len() as u64).wrapping_mul(K);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(31);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(K)
            .rotate_left(31);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    h ^ (h >> 29)
}

/// One slot of a [`KeyTable`]'s index: the low half of a key's hash (which
/// also places it) and its id, [`VACANT`] for an empty slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const VACANT: u32 = u32::MAX;

/// Interns encoded keys: each distinct byte string gets a dense `u32` id
/// in first-seen order, and its bytes are kept once, back to back, in one
/// arena.
///
/// The index is open-addressing with linear probing over `(hash, id)`
/// slots, a power of two of them, at most three quarters full; a lookup
/// compares the key's bytes only after its hash matched. Nothing is
/// allocated per key: interning grows the arena, the id list and — at
/// each doubling — the slots, so a caller that encodes every row's key
/// into a reused buffer looks it up without a heap allocation.
///
/// Users key it on [`encode_key`] bytes, so an id *is* an equality class:
/// the hash join's build side, whose mates are laid out per id, and the
/// aggregate, whose id is the group's index.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    slots: Vec<Slot>,
    arena: Vec<u8>,
    /// `ends[id]` is where key `id` ends in `arena`; it starts where key
    /// `id - 1` ends.
    ends: Vec<usize>,
}

impl KeyTable {
    /// An empty table; nothing is allocated until the first key.
    pub fn new() -> KeyTable {
        KeyTable::default()
    }

    /// The number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bytes of key `id`.
    pub fn key(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start..self.ends[id]]
    }

    /// The id of `key`, interning it first if it is new; `true` with an id
    /// just handed out. Ids are dense: a new key's id is the old
    /// [`KeyTable::len`].
    pub fn intern(&mut self, key: &[u8]) -> (u32, bool) {
        self.insert_hashed(key, hash_key(key))
    }

    /// The id of `key`, if it was interned.
    pub fn get(&self, key: &[u8]) -> Option<u32> {
        self.get_hashed(key, hash_key(key))
    }

    /// Forgets every key, keeping the allocations for the next ones.
    pub fn clear(&mut self) {
        self.slots.fill(Slot {
            hash: 0,
            id: VACANT,
        });
        self.arena.clear();
        self.ends.clear();
    }

    /// [`KeyTable::intern`] with the hash given, so tests can make keys
    /// collide.
    fn insert_hashed(&mut self, key: &[u8], hash: u64) -> (u32, bool) {
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = hash as u32;
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == VACANT {
                let id = u32::try_from(self.len())
                    .ok()
                    .filter(|&id| id != VACANT)
                    .expect("a key table holds fewer than u32::MAX keys");
                self.slots[at] = Slot { hash, id };
                self.arena.extend_from_slice(key);
                self.ends.push(self.arena.len());
                return (id, true);
            }
            if slot.hash == hash && self.key(slot.id) == key {
                return (slot.id, false);
            }
            at = (at + 1) & mask;
        }
    }

    fn get_hashed(&self, key: &[u8], hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = hash as u32;
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == VACANT {
                return None;
            }
            if slot.hash == hash && self.key(slot.id) == key {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the slots (16 at first) and re-places every slot by the hash
    /// it kept.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    hash: 0,
                    id: VACANT
                };
                capacity
            ],
        );
        let mask = capacity - 1;
        for slot in old.into_iter().filter(|s| s.id != VACANT) {
            let mut at = slot.hash as usize & mask;
            while self.slots[at].id != VACANT {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

/// Rows grouped by their key id — compressed sparse rows: per id, the
/// indices of the rows whose key it is, in row order. The hash join lays
/// its build rows out this way once the build side is read, so a probe
/// reads one key's mates as one slice, in build-input order.
#[derive(Debug, Clone, Default)]
pub struct KeyGroups {
    /// `starts[id]..starts[id + 1]` is id `id`'s range of `members`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl KeyGroups {
    /// The id of a row that has no key (a NULL join key): in no group.
    pub const NONE: u32 = u32::MAX;

    /// Groups rows `0..ids.len()` by `ids[row]`, an id below `keys` or
    /// [`KeyGroups::NONE`]: a counting sort, so each group keeps row order.
    pub fn new(keys: usize, ids: &[u32]) -> KeyGroups {
        assert!(
            u32::try_from(ids.len()).is_ok(),
            "key groups number their rows in u32"
        );
        let mut starts = vec![0u32; keys + 1];
        for &id in ids.iter().filter(|&&id| id != KeyGroups::NONE) {
            starts[id as usize + 1] += 1;
        }
        for id in 0..keys {
            starts[id + 1] += starts[id];
        }
        let mut next = starts[..keys].to_vec();
        let mut members = vec![0u32; starts[keys] as usize];
        for (row, &id) in ids.iter().enumerate() {
            if id != KeyGroups::NONE {
                let at = &mut next[id as usize];
                members[*at as usize] = row as u32;
                *at += 1;
            }
        }
        KeyGroups { starts, members }
    }

    /// The rows of key `id`, in row order.
    pub fn members(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.members[self.starts[id] as usize..self.starts[id + 1] as usize]
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

    /// A deterministic generator for the randomized tests (splitmix64).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The values the sort-key oracle draws from: integers and floats at
    /// 2⁵³ ± 1 and at the `i64` extremes, floats at and beyond 2⁶³, ±0.0,
    /// ±∞, NaN with several payloads and signs, fractions on both sides of
    /// zero, a `Date` beside each equal `Int`, both `Bool`s, strings with
    /// shared prefixes, embedded `\0` and non-ASCII bytes, and NULL.
    fn sort_edge_values() -> Vec<Value> {
        const TWO_53: i64 = 1 << 53;
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        let mut values = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
        for i in [
            0,
            1,
            -1,
            3,
            127,
            128,
            255,
            256,
            -128,
            -129,
            -256,
            -257,
            65_536,
            -65_537,
            TWO_53 - 1,
            TWO_53,
            TWO_53 + 1,
            -TWO_53 - 1,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX - 1,
            i64::MAX,
        ] {
            values.push(Value::Int(i));
        }
        for f in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.0,
            3.5,
            0.5,
            -0.5,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            (TWO_53 - 1) as f64,
            TWO_53 as f64,
            (TWO_53 + 2) as f64,
            -(TWO_53 as f64),
            4503599627370495.5,
            -4503599627370495.5,
            TWO_63,
            -TWO_63,
            TWO_63 - 1024.0,
            -TWO_63 - 2048.0,
            1e19,
            -1e19,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_00FF),
        ] {
            values.push(Value::Float(f));
        }
        for d in [0, 3, -1, 1, i32::MIN, i32::MAX] {
            values.push(Value::Date(d));
            values.push(Value::Int(i64::from(d)));
        }
        for s in [
            "", "a", "ab", "abc", "ab\0", "ab\0c", "a\0", "\0", "\0\0", "a\u{1}", "b", "é",
            "e\u{301}", "日本", "日", "\u{7f}", "\u{ff}",
        ] {
            values.push(Value::str(s));
        }
        values
    }

    /// A random value: an edge value, or a fresh one of a random variant.
    fn random_value(rng: &mut Mix, edges: &[Value]) -> Value {
        match rng.below(6) {
            0 => Value::Int(rng.next() as i64 >> rng.below(64)),
            1 => Value::Float(f64::from_bits(rng.next())),
            2 => Value::Float((rng.next() as i64 >> rng.below(64)) as f64 / 4.0),
            3 => Value::Date(rng.next() as i32 >> rng.below(32)),
            _ => edges[rng.below(edges.len())].clone(),
        }
    }

    fn cmp_sort_keys(a: &[Value], b: &[Value], ascending: &[bool]) -> std::cmp::Ordering {
        for ((x, y), asc) in a.iter().zip(b).zip(ascending) {
            let ord = x.sort_key(y);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// The independent oracle of the sort: over every pair of edge values
    /// in both directions, and over seeded random multi-key lists in mixed
    /// directions, byte order and byte equality of [`encode_sort_key`] are
    /// the lexicographic [`Value::sort_key`] order and equality.
    #[test]
    fn sort_key_bytes_order_as_sort_key() {
        let edges = sort_edge_values();
        for a in &edges {
            for b in &edges {
                for asc in [true, false] {
                    let (ka, kb) = (
                        encode_sort_key(std::slice::from_ref(a), &[asc]),
                        encode_sort_key(std::slice::from_ref(b), &[asc]),
                    );
                    let want =
                        cmp_sort_keys(std::slice::from_ref(a), std::slice::from_ref(b), &[asc]);
                    assert_eq!(ka.cmp(&kb), want, "{a:?} vs {b:?}, ascending {asc}");
                }
            }
        }
        let mut rng = Mix(0x5EED_0001);
        for _ in 0..200_000 {
            let n = 1 + rng.below(3);
            let ascending: Vec<bool> = (0..n).map(|_| rng.below(2) == 0).collect();
            let a: Vec<Value> = (0..n).map(|_| random_value(&mut rng, &edges)).collect();
            // Half the pairs share a prefix of keys, so later keys decide.
            let shared = rng.below(n + 1);
            let b: Vec<Value> = (0..n)
                .map(|i| match i < shared {
                    true => a[i].clone(),
                    false => random_value(&mut rng, &edges),
                })
                .collect();
            let (ka, kb) = (
                encode_sort_key(&a, &ascending),
                encode_sort_key(&b, &ascending),
            );
            assert_eq!(
                ka.cmp(&kb),
                cmp_sort_keys(&a, &b, &ascending),
                "{a:?} vs {b:?}, ascending {ascending:?}"
            );
        }
    }

    /// Values that denote one number encode alike however they are spelled.
    #[test]
    fn equal_numerics_share_sort_bytes() {
        let same = [
            (Value::Int(3), Value::Float(3.0)),
            (Value::Int(3), Value::Date(3)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (
                Value::Int(i64::MIN),
                Value::Float(-9_223_372_036_854_775_808.0),
            ),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
        ];
        for (a, b) in same {
            for asc in [true, false] {
                assert_eq!(
                    encode_sort_key(std::slice::from_ref(&a), &[asc]),
                    encode_sort_key(std::slice::from_ref(&b), &[asc]),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// An integral part takes only the bytes it needs.
    #[test]
    fn integers_take_the_bytes_they_need() {
        for (i, len) in [
            (0, 2),
            (-1, 2),
            (255, 3),
            (-256, 3),
            (256, 4),
            (-257, 4),
            (i64::MAX, 10),
            (i64::MIN, 10),
        ] {
            assert_eq!(encode_sort_key(&[Value::Int(i)], &[true]).len(), len, "{i}");
        }
        // A fraction adds its sign byte's eight bytes of order bits.
        assert_eq!(encode_sort_key(&[Value::Float(-0.5)], &[true]).len(), 10);
    }

    /// The lane encoder writes the row-major bytes, in both directions, on
    /// typed lanes (with NULLs) and on the `Values` lane.
    #[test]
    fn sort_entries_match_row_major_bytes() {
        let everything = sort_edge_values();
        let mut columns: Vec<Vec<Value>> = vec![everything.clone()];
        for v in everything.iter().filter(|v| !v.is_null()) {
            let mut same_variant = vec![Value::Null];
            for w in &everything {
                if std::mem::discriminant(w) == std::mem::discriminant(v) {
                    same_variant.push(w.clone());
                    same_variant.push(Value::Null);
                }
            }
            columns.push(same_variant);
        }
        for rows in columns {
            let mut typed = ColumnVec::typed_for(&rows[1], rows.len());
            for v in &rows {
                typed.push_value(v.clone());
            }
            for asc in [true, false] {
                for (i, v) in rows.iter().enumerate() {
                    let mut bytes = Vec::new();
                    encode_sort_entry(&typed, i, asc, &mut bytes);
                    assert_eq!(bytes, encode_sort_key(std::slice::from_ref(v), &[asc]));
                }
            }
        }
    }

    /// A key table against a `HashMap` model: the same ids, in first-seen
    /// order, for the same keys.
    fn check_against_model(keys: &[Vec<u8>], intern: impl Fn(&mut KeyTable, &[u8]) -> (u32, bool)) {
        let mut table = KeyTable::new();
        let mut model: std::collections::HashMap<Vec<u8>, u32> = Default::default();
        for key in keys {
            let next = model.len() as u32;
            let want = *model.entry(key.clone()).or_insert(next);
            let (id, new) = intern(&mut table, key);
            assert_eq!((id, new), (want, want == next), "{key:?}");
            assert_eq!(table.key(id), &key[..]);
            assert_eq!(table.len(), model.len());
        }
        for (key, &id) in &model {
            assert_eq!(table.key(id), &key[..]);
        }
    }

    #[test]
    fn key_table_hands_out_first_seen_ids_across_growth() {
        let mut rng = Mix(0x7AB1E);
        // 20 000 draws from 5 000 keys of 0..12 bytes over a small
        // alphabet: repeats, short keys that prefix longer ones, the empty
        // key, and several doublings of the slots.
        let keys: Vec<Vec<u8>> = (0..20_000)
            .map(|_| {
                let n = rng.below(5_000);
                let mut key_rng = Mix(n as u64);
                let len = key_rng.below(13);
                (0..len).map(|_| key_rng.below(3) as u8).collect()
            })
            .collect();
        check_against_model(&keys, |t, k| t.intern(k));
        let mut table = KeyTable::new();
        for key in &keys {
            table.intern(key);
        }
        assert!(table.slots.len().is_power_of_two());
        assert!(table.len() * 4 <= table.slots.len() * 3, "load at most 3/4");
        for (id, key) in keys.iter().enumerate().take(100) {
            let found = table.get(key).expect("interned");
            assert_eq!(table.key(found), &key[..], "key {id}");
        }
        assert_eq!(table.get(b"absent, longer than any key"), None);
    }

    #[test]
    fn key_table_survives_forced_collisions() {
        // Every key hashes alike: one probe chain, compared by bytes.
        let keys: Vec<Vec<u8>> = (0..300u32)
            .flat_map(|i| [i.to_le_bytes().to_vec(), i.to_le_bytes()[..1].to_vec()])
            .collect();
        check_against_model(&keys, |t, k| t.insert_hashed(k, 7));
        let mut table = KeyTable::new();
        for key in &keys {
            table.insert_hashed(key, 7);
        }
        for key in &keys {
            let id = table.get_hashed(key, 7).expect("interned");
            assert_eq!(table.key(id), &key[..]);
        }
        assert_eq!(table.get_hashed(b"none", 7), None);
        // Equal low halves with different high halves collide too.
        let mut table = KeyTable::new();
        assert_eq!(table.insert_hashed(b"x", 1), (0, true));
        assert_eq!(table.insert_hashed(b"y", 1 | 1 << 40), (1, true));
        assert_eq!(table.get_hashed(b"y", 1 | 1 << 40), Some(1));
    }

    #[test]
    fn key_table_interns_the_empty_key_and_prefixes_apart() {
        let mut table = KeyTable::new();
        assert_eq!(table.get(&[]), None);
        // A global aggregate's one group has the empty key.
        assert_eq!(table.intern(&[]), (0, true));
        assert_eq!(table.intern(&[]), (0, false));
        assert_eq!(table.key(0), b"");
        let prefixes: [&[u8]; 4] = [b"ab", b"a", b"abc", b"a\0"];
        for (i, key) in prefixes.iter().enumerate() {
            assert_eq!(table.intern(key), (i as u32 + 1, true));
        }
        for (i, key) in prefixes.iter().enumerate() {
            assert_eq!(table.get(key), Some(i as u32 + 1));
        }
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.get(b"ab"), None);
        assert_eq!(table.intern(b"abc"), (0, true));
        assert_eq!(table.key(0), b"abc");
    }

    #[test]
    fn key_groups_keep_row_order_per_id() {
        let mut rng = Mix(0x6E0);
        let mut table = KeyTable::new();
        let ids: Vec<u32> = (0..5_000)
            .map(|_| match rng.below(10) {
                0 => KeyGroups::NONE,
                _ => table.intern(&[rng.below(300) as u8, rng.below(2) as u8]).0,
            })
            .collect();
        let groups = KeyGroups::new(table.len(), &ids);
        let mut seen = 0;
        for id in 0..table.len() as u32 {
            let want: Vec<u32> = (0..ids.len() as u32)
                .filter(|&row| ids[row as usize] == id)
                .collect();
            assert_eq!(groups.members(id), &want[..], "id {id}");
            seen += want.len();
        }
        assert_eq!(
            seen,
            ids.iter().filter(|&&id| id != KeyGroups::NONE).count()
        );
    }
}
