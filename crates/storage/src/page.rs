//! Fixed-size slotted pages and the spill-file binary codec.
//!
//! A [`Page`] is the unit of disk I/O for the out-of-core layer: a fixed
//! [`PAGE_SIZE`]-byte block with the classic slotted layout. A four-byte
//! header (slot count + free-space upper bound) is followed by a slot
//! directory growing forward — one `(offset, length)` pair per slot — while
//! record payloads grow backward from the end of the page, so the free space
//! sits in the middle and an insert consumes it from both sides. Deleting a
//! slot tombstones its directory entry (the payload bytes are not compacted;
//! spill files are session-scoped append-once data, not a general store).
//!
//! The same module owns the **binary value codec** the spill paths encode
//! records with. The codec is exact, not lossy: floats round-trip by raw
//! `f64::to_bits`, so every NaN spelling, `-0.0` vs `+0.0`, and integers
//! beyond 2⁵³ survive a disk round trip bit-for-bit — the differential
//! corpus compares spilled runs against resident runs for byte-identical
//! bags, so "close enough" decoding would show up as a semantics bug.
//! On top of single values the module layers a count-prefixed row codec,
//! which every spill record and paged relation is built from.

use crate::value::Value;
use crate::{Result, StorageError};

/// Size of one page in bytes — the unit of spill-file I/O.
pub const PAGE_SIZE: usize = 8192;

/// Page header: slot count (u16) + free-space upper bound (u16).
const HEADER_BYTES: usize = 4;
/// One slot directory entry: payload offset (u16) + payload length (u16).
const SLOT_BYTES: usize = 4;
/// Directory offset marking a deleted slot.
const TOMBSTONE: u16 = u16::MAX;

/// Largest payload a single slot can hold (an empty page minus header and
/// one directory entry). Longer records are fragmented across slots by the
/// heap-file layer.
pub const MAX_PAYLOAD: usize = PAGE_SIZE - HEADER_BYTES - SLOT_BYTES;

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8]>,
}

impl Default for Page {
    fn default() -> Page {
        Page::new()
    }
}

impl Page {
    /// An empty page: zero slots, all of the body free.
    pub fn new() -> Page {
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    /// Rehydrates a page from its on-disk image, validating the header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image is {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let page = Page {
            data: bytes.to_vec().into_boxed_slice(),
        };
        let dir_end = HEADER_BYTES + page.slot_count() as usize * SLOT_BYTES;
        if page.upper() as usize > PAGE_SIZE || dir_end > page.upper() as usize {
            return Err(StorageError::Corrupt(
                "page header inconsistent with its slot directory".to_string(),
            ));
        }
        Ok(page)
    }

    /// The on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of slots (live and tombstoned).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn upper(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn set_upper(&mut self, upper: u16) {
        self.data[2..4].copy_from_slice(&upper.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let at = HEADER_BYTES + slot as usize * SLOT_BYTES;
        (
            u16::from_le_bytes([self.data[at], self.data[at + 1]]),
            u16::from_le_bytes([self.data[at + 2], self.data[at + 3]]),
        )
    }

    /// Payload bytes available to one more insert (its directory entry
    /// already accounted for).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_BYTES + (self.slot_count() as usize + 1) * SLOT_BYTES;
        (self.upper() as usize).saturating_sub(dir_end)
    }

    /// Inserts a payload, returning its slot id, or `None` when the payload
    /// does not fit in the remaining free space.
    pub fn insert(&mut self, payload: &[u8]) -> Option<u16> {
        if payload.len() > self.free_space() {
            return None;
        }
        let slot = self.slot_count();
        let upper = self.upper() as usize;
        let new_upper = upper - payload.len();
        self.data[new_upper..upper].copy_from_slice(payload);
        let at = HEADER_BYTES + slot as usize * SLOT_BYTES;
        self.data[at..at + 2].copy_from_slice(&(new_upper as u16).to_le_bytes());
        self.data[at + 2..at + 4].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        self.set_slot_count(slot + 1);
        self.set_upper(new_upper as u16);
        Some(slot)
    }

    /// The payload of a slot, or `None` for an out-of-range or deleted slot.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == TOMBSTONE {
            return None;
        }
        Some(&self.data[offset as usize..offset as usize + len as usize])
    }

    /// Tombstones a slot; returns `false` when the slot does not exist or is
    /// already deleted. The payload bytes are not reclaimed.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let at = HEADER_BYTES + slot as usize * SLOT_BYTES;
        if u16::from_le_bytes([self.data[at], self.data[at + 1]]) == TOMBSTONE {
            return false;
        }
        self.data[at..at + 2].copy_from_slice(&TOMBSTONE.to_le_bytes());
        true
    }

    /// Iterates the live slots in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|p| (s, p)))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Binary codec: values and rows
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_DATE: u8 = 6;

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| StorageError::Corrupt("record truncated".to_string()))?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_u32(buf, pos)? as usize;
    let bytes = take(buf, pos, len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| StorageError::Corrupt("invalid UTF-8 in record".to_string()))
}

/// Appends the exact binary encoding of one value. Floats are written as
/// raw `to_bits`, so NaN payloads and signed zero survive the round trip.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_str(s, out);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Decodes one value at `pos`, advancing it.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => {
            let b = take(buf, pos, 8)?;
            Value::Int(i64::from_le_bytes(b.try_into().unwrap()))
        }
        TAG_FLOAT => {
            let b = take(buf, pos, 8)?;
            Value::Float(f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        }
        TAG_STR => Value::Str(read_string(buf, pos)?),
        TAG_DATE => {
            let b = take(buf, pos, 4)?;
            Value::Date(i32::from_le_bytes(b.try_into().unwrap()))
        }
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown value tag {other} in record"
            )))
        }
    })
}

/// Appends a count-prefixed row of values.
pub fn encode_row(values: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
}

/// Decodes a count-prefixed row at `pos`, advancing it.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    let n = read_u32(buf, pos)? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(buf, pos)?);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page_has_full_body_free() {
        let page = Page::new();
        assert_eq!(page.slot_count(), 0);
        assert_eq!(page.free_space(), MAX_PAYLOAD);
        assert!(page.get(0).is_none());
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let mut page = Page::new();
        let a = page.insert(b"alpha").unwrap();
        let b = page.insert(b"").unwrap();
        let c = page.insert(&[7u8; 100]).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(page.get(a), Some(&b"alpha"[..]));
        assert_eq!(page.get(b), Some(&b""[..]));
        assert_eq!(page.get(c), Some(&[7u8; 100][..]));
        assert!(page.delete(b));
        assert!(!page.delete(b), "double delete is rejected");
        assert_eq!(page.get(b), None);
        let live: Vec<u16> = page.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }

    #[test]
    fn insert_rejects_what_does_not_fit() {
        let mut page = Page::new();
        assert!(page.insert(&vec![0u8; MAX_PAYLOAD + 1]).is_none());
        assert!(page.insert(&vec![1u8; MAX_PAYLOAD]).is_some());
        assert_eq!(page.free_space(), 0);
        assert!(page.insert(b"x").is_none(), "page is full");
    }

    #[test]
    fn disk_image_round_trips() {
        let mut page = Page::new();
        page.insert(b"one").unwrap();
        page.insert(b"two").unwrap();
        page.delete(0);
        let copy = Page::from_bytes(page.as_bytes()).unwrap();
        assert_eq!(copy.slot_count(), 2);
        assert_eq!(copy.get(0), None);
        assert_eq!(copy.get(1), Some(&b"two"[..]));
        assert!(Page::from_bytes(&[0u8; 16]).is_err(), "wrong length");
        let mut bogus = vec![0u8; PAGE_SIZE];
        bogus[0] = 255; // 255 slots but upper = 0: directory overlaps payloads
        assert!(Page::from_bytes(&bogus).is_err());
    }

    #[test]
    fn value_codec_is_exact_for_every_variant() {
        let nan_a = f64::from_bits(0x7ff8000000000001);
        let nan_b = f64::from_bits(0xfff0000000000123);
        let values = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int((1i64 << 53) + 1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(nan_a),
            Value::Float(nan_b),
            Value::Str(String::new()),
            Value::Str("späté ünïcode 🚀".to_string()),
            Value::Date(-719162),
        ];
        let mut buf = Vec::new();
        encode_row(&values, &mut buf);
        let mut pos = 0;
        let back = decode_row(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "codec consumed exactly its bytes");
        assert_eq!(back.len(), values.len());
        for (orig, got) in values.iter().zip(&back) {
            match (orig, got) {
                // Compare floats by bit pattern: Value's equality treats all
                // NaNs as one class, but the codec must preserve the exact
                // spelling (and the sign of zero).
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(orig, got),
            }
        }
    }

    #[test]
    fn decode_rejects_truncated_and_garbage_input() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(42), &mut buf);
        let mut pos = 0;
        assert!(decode_value(&buf[..5], &mut pos).is_err());
        let mut pos = 0;
        assert!(decode_value(&[99u8], &mut pos).is_err(), "unknown tag");
    }
}
