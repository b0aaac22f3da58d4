//! The executor's spill-to-disk substrate: one per-executor [`SpillManager`]
//! owning the spill directory and the heap files the out-of-core operators
//! write.
//!
//! Everything here is *execution state*, never durable data: the manager
//! wraps a [`perm_storage::StorageManager`], whose directory is removed when
//! the executor drops. Its consumers are the operators of
//! `crate::physical`:
//!
//! * the **grace hash join** and **partitioned aggregation**, which
//!   hash-partition their state across heap files ([`fnv1a`] over the
//!   encoded key, so partition assignment is deterministic across runs and
//!   processes);
//! * the **external merge sort**, which writes sorted runs.
//!
//! Sublink memo entries are never spilled: under budget pressure the
//! governor drops them (`crate::resilience`).
//!
//! The record codecs bundled here frame the operator payloads — `(key,
//! tuple)` build rows, `(ordinal, key)` probe rows, `(keys, tuple)` sort
//! rows and `(ordinal, key, values, accumulators)` aggregate groups — on
//! top of the exact value codec of `perm_storage::page`, so every `Value`
//! round-trips bit-exactly (NaN spellings, `±0.0`, full-range integers).

use crate::aggregate::Accumulator;
use crate::Result;
use perm_storage::{
    decode_row, encode_row, BufferPool, HeapFile, StorageManager, Tuple, Value, DEFAULT_POOL_PAGES,
};
use std::path::Path;
use std::rc::Rc;

/// FNV-1a over a byte string: the deterministic partitioning hash of the
/// spill paths. Deliberately *not* `DefaultHasher` — partition assignment is
/// part of the on-disk layout and must not depend on `std` internals.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Owner of the executor's spill directory and files. What spilling costs
/// is counted in the executor's registry (`SessionStats::spilled_bytes`,
/// `spill_partitions`) at the operators that write, and in the pool.
pub(crate) struct SpillManager {
    store: StorageManager,
}

impl SpillManager {
    /// Creates a manager over a fresh spill directory under `base` (the
    /// system temp dir when `None`).
    pub(crate) fn create(base: Option<&Path>) -> perm_storage::Result<SpillManager> {
        Ok(SpillManager {
            store: StorageManager::create(base, DEFAULT_POOL_PAGES)?,
        })
    }

    /// The buffer pool every read of this manager's files goes through.
    pub(crate) fn pool(&self) -> &BufferPool {
        self.store.pool()
    }

    /// Creates a fresh heap file for a partition or run.
    pub(crate) fn create_file(&self, label: &str) -> Result<Rc<HeapFile>> {
        Ok(self.store.create_file(label)?)
    }
}

impl std::fmt::Debug for SpillManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillManager")
            .field("dir", &self.store.dir())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Record codecs for the spill paths
// ---------------------------------------------------------------------------

fn read_u32(record: &[u8], pos: &mut usize) -> Result<u32> {
    let bytes: [u8; 4] = record
        .get(*pos..*pos + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| perm_storage::StorageError::Corrupt("truncated spill record".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes(bytes))
}

fn read_u64(record: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes: [u8; 8] = record
        .get(*pos..*pos + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| perm_storage::StorageError::Corrupt("truncated spill record".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(bytes))
}

fn read_bytes<'r>(record: &'r [u8], pos: &mut usize) -> Result<&'r [u8]> {
    let len = read_u32(record, pos)? as usize;
    let slice = record
        .get(*pos..*pos + len)
        .ok_or_else(|| perm_storage::StorageError::Corrupt("truncated spill record".into()))?;
    *pos += len;
    Ok(slice)
}

fn write_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Grace-join build record: the encoded hash key plus the right tuple.
pub(crate) fn encode_keyed_tuple(key: &[u8], tuple: &Tuple, buf: &mut Vec<u8>) {
    buf.clear();
    write_bytes(key, buf);
    encode_row(tuple.values(), buf);
}

pub(crate) fn decode_keyed_tuple(record: &[u8]) -> Result<(Vec<u8>, Tuple)> {
    let mut pos = 0;
    let key = read_bytes(record, &mut pos)?.to_vec();
    let values = decode_row(record, &mut pos)?;
    Ok((key, Tuple::new(values)))
}

/// Grace-join probe record: the left row's global ordinal plus its key (the
/// left tuples themselves stay resident, addressed by ordinal).
pub(crate) fn encode_probe(ordinal: u64, key: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&ordinal.to_le_bytes());
    write_bytes(key, buf);
}

pub(crate) fn decode_probe(record: &[u8]) -> Result<(u64, Vec<u8>)> {
    let mut pos = 0;
    let ordinal = read_u64(record, &mut pos)?;
    let key = read_bytes(record, &mut pos)?.to_vec();
    Ok((ordinal, key))
}

/// External-sort run record: the extracted sort-key values plus the tuple.
pub(crate) fn encode_run_row(keys: &[Value], tuple: &Tuple, buf: &mut Vec<u8>) {
    buf.clear();
    encode_row(keys, buf);
    encode_row(tuple.values(), buf);
}

pub(crate) fn decode_run_row(record: &[u8]) -> Result<(Vec<Value>, Tuple)> {
    let mut pos = 0;
    let keys = decode_row(record, &mut pos)?;
    let values = decode_row(record, &mut pos)?;
    Ok((keys, Tuple::new(values)))
}

/// Partitioned-aggregation group record: the group's creation ordinal (for
/// first-encounter output order), its encoded grouping key, the
/// representative key values, and one partial accumulator state per
/// aggregate.
pub(crate) fn encode_agg_group(
    ordinal: u64,
    key: &[u8],
    key_values: &[Value],
    accs: &[Accumulator],
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.extend_from_slice(&ordinal.to_le_bytes());
    write_bytes(key, buf);
    encode_row(key_values, buf);
    buf.extend_from_slice(&(accs.len() as u32).to_le_bytes());
    for acc in accs {
        acc.encode_state(buf);
    }
}

#[allow(clippy::type_complexity)]
pub(crate) fn decode_agg_group(
    record: &[u8],
) -> Result<(u64, Vec<u8>, Vec<Value>, Vec<Accumulator>)> {
    let mut pos = 0;
    let ordinal = read_u64(record, &mut pos)?;
    let key = read_bytes(record, &mut pos)?.to_vec();
    let key_values = decode_row(record, &mut pos)?;
    let n = read_u32(record, &mut pos)? as usize;
    let mut accs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        accs.push(Accumulator::decode_state(record, &mut pos)?);
    }
    Ok((ordinal, key, key_values, accs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        // Pinned values: partition assignment is on-disk layout.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn keyed_tuple_and_probe_records_round_trip() {
        let tuple = Tuple::new(vec![
            Value::Int(i64::MIN),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Str("käse".into()),
            Value::Null,
        ]);
        let mut buf = Vec::new();
        encode_keyed_tuple(b"key-bytes", &tuple, &mut buf);
        let (key, back) = decode_keyed_tuple(&buf).unwrap();
        assert_eq!(key, b"key-bytes");
        assert_eq!(back.arity(), 4);
        match (back.get(1), tuple.get(1)) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("expected floats, got {other:?}"),
        }

        encode_probe(u64::MAX - 1, b"k", &mut buf);
        assert_eq!(decode_probe(&buf).unwrap(), (u64::MAX - 1, b"k".to_vec()));

        encode_run_row(&[Value::Int(3)], &tuple, &mut buf);
        let (keys, t) = decode_run_row(&buf).unwrap();
        assert_eq!(keys, vec![Value::Int(3)]);
        assert_eq!(t.get(2), &Value::str("käse"));

        assert!(decode_probe(&buf[..3]).is_err(), "truncation is an error");
    }

    #[test]
    fn agg_group_records_round_trip() {
        use perm_algebra::AggFunc;
        let mut a = Accumulator::new(AggFunc::Sum, false);
        a.update(&Value::Int(4));
        a.update(&Value::Float(-0.0));
        let b = Accumulator::new(AggFunc::CountStar, false);
        let key_values = vec![Value::str("grp"), Value::Null];
        let mut buf = Vec::new();
        encode_agg_group(7, b"kb", &key_values, &[a, b], &mut buf);
        let (ord, key, kv, accs) = decode_agg_group(&buf).unwrap();
        assert_eq!(ord, 7);
        assert_eq!(key, b"kb");
        assert_eq!(kv, key_values);
        assert_eq!(accs.len(), 2);
        assert_eq!(accs[0].finish(), Value::Float(4.0));
        assert_eq!(accs[1].finish(), Value::Int(0));
        assert!(decode_agg_group(&buf[..9]).is_err());
    }
}
