//! Fixed-size pages and the spill-file binary codec.
//!
//! A [`Page`] is the unit of disk I/O for the out-of-core layer: a fixed
//! [`PAGE_SIZE`]-byte block holding a two-byte header (the number of bytes
//! used) followed by that many bytes of the heap file's record stream. A
//! page marks no record boundaries: the heap file frames every record with
//! its length, and a record may start on one page and end on a later one.
//! Pages are written once, when their file seals them, and never change
//! afterwards.
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
use std::sync::Arc;

/// Size of one page in bytes — the unit of spill-file I/O.
pub const PAGE_SIZE: usize = 8192;

/// Page header: the number of record bytes the page holds (u16).
const HEADER_BYTES: usize = 2;

/// Record bytes one page can hold.
pub(crate) const PAGE_CAPACITY: usize = PAGE_SIZE - HEADER_BYTES;

/// A fixed-size page of record bytes.
pub struct Page {
    data: Box<[u8]>,
}

impl Default for Page {
    fn default() -> Page {
        Page::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Page {
        Page {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Rehydrates a page from its on-disk image, validating the header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image is {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let page = Page { data: bytes.into() };
        if page.used() > PAGE_CAPACITY {
            return Err(StorageError::Corrupt(format!(
                "page header claims {} bytes, a page holds {PAGE_CAPACITY}",
                page.used()
            )));
        }
        Ok(page)
    }

    /// The on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    fn used(&self) -> usize {
        u16::from_le_bytes([self.data[0], self.data[1]]) as usize
    }

    /// The record bytes the page holds, in append order.
    pub fn payload(&self) -> &[u8] {
        &self.data[HEADER_BYTES..HEADER_BYTES + self.used()]
    }

    /// `true` when the page holds no record bytes.
    pub fn is_empty(&self) -> bool {
        self.used() == 0
    }

    /// Appends as much of `bytes` as fits and returns how many bytes that
    /// was (zero once the page is full).
    pub fn append(&mut self, bytes: &[u8]) -> usize {
        let used = self.used();
        let n = bytes.len().min(PAGE_CAPACITY - used);
        let at = HEADER_BYTES + used;
        self.data[at..at + n].copy_from_slice(&bytes[..n]);
        self.data[..HEADER_BYTES].copy_from_slice(&((used + n) as u16).to_le_bytes());
        n
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page").field("used", &self.used()).finish()
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

/// Decodes a length-prefixed string straight from the record bytes into a
/// shared string: one allocation.
fn read_string(buf: &[u8], pos: &mut usize) -> Result<Arc<str>> {
    let len = read_u32(buf, pos)? as usize;
    let bytes = take(buf, pos, len)?;
    std::str::from_utf8(bytes)
        .map(Arc::from)
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
        let mut page = Page::new();
        assert!(page.is_empty());
        assert!(page.payload().is_empty());
        assert_eq!(page.append(&vec![1u8; PAGE_CAPACITY + 1]), PAGE_CAPACITY);
        assert!(!page.is_empty());
    }

    #[test]
    fn append_takes_what_fits_in_order() {
        let mut page = Page::new();
        assert_eq!(page.append(b"alpha"), 5);
        assert_eq!(page.append(b""), 0);
        assert_eq!(page.append(&vec![7u8; PAGE_CAPACITY]), PAGE_CAPACITY - 5);
        assert_eq!(page.append(b"x"), 0, "page is full");
        assert_eq!(&page.payload()[..5], b"alpha");
        assert_eq!(page.payload().len(), PAGE_CAPACITY);
    }

    #[test]
    fn disk_image_round_trips() {
        let mut page = Page::new();
        page.append(b"one two");
        let copy = Page::from_bytes(page.as_bytes()).unwrap();
        assert_eq!(copy.payload(), b"one two");
        assert!(Page::from_bytes(&[0u8; 16]).is_err(), "wrong length");
        let mut bogus = vec![0u8; PAGE_SIZE];
        bogus[..HEADER_BYTES].copy_from_slice(&(PAGE_CAPACITY as u16 + 1).to_le_bytes());
        assert!(matches!(
            Page::from_bytes(&bogus),
            Err(StorageError::Corrupt(_))
        ));
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
            Value::str(""),
            Value::str("späté ünïcode 🚀"),
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
