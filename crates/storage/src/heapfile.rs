//! Heap files: an append-oriented sequence of slotted pages on disk.
//!
//! A [`HeapFile`] is the unit of spill storage: records of arbitrary length
//! are appended ([`HeapFile::append_record`]) and come back either by
//! [`RecordId`] (random access through [`crate::BufferPool::read_record`])
//! or through a sequential scan in append order (used by grace-join
//! partitions, sort runs and aggregate partitions). A record longer than
//! one page's payload capacity is **fragmented**: its bytes — a `u32`
//! length prefix followed by the payload — are streamed across consecutive
//! slots and pages, and the [`RecordAssembler`] reassembles them on the way
//! back, so callers never see page boundaries.
//!
//! Writes go through an in-memory *tail page* that is written out when full
//! or when the writer calls [`HeapFile::seal`]. Sealing is a visibility
//! barrier: only sealed pages are readable (directly or through the buffer
//! pool), and a sealed page is never modified again by the appender — which
//! is what lets the buffer pool cache pages without a coherence protocol.
//! The executor's spill paths are strictly write-then-seal-then-read, so
//! the barrier costs at most one partially-filled page per seal.

use crate::page::{Page, PAGE_SIZE};
use crate::{Result, StorageError};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique heap-file ids; the buffer pool keys frames by
/// `(file id, page number)`.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Stable address of one record inside a heap file: the page and slot its
/// first fragment lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Page number of the record's first fragment.
    pub page: u32,
    /// Slot of the first fragment within that page.
    pub slot: u16,
}

/// An append-oriented file of slotted pages.
pub struct HeapFile {
    id: u64,
    path: PathBuf,
    file: RefCell<File>,
    /// Pages sealed to disk; page numbers `0..sealed` are readable.
    sealed: Cell<u32>,
    tail: RefCell<Page>,
    records: Cell<u64>,
    bytes_appended: Cell<u64>,
}

impl HeapFile {
    /// Creates a new, empty heap file at `path` (which must not exist).
    pub fn create(path: &Path) -> Result<HeapFile> {
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| StorageError::Io(format!("create {}: {e}", path.display())))?;
        Ok(HeapFile {
            id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            path: path.to_path_buf(),
            file: RefCell::new(file),
            sealed: Cell::new(0),
            tail: RefCell::new(Page::new()),
            records: Cell::new(0),
            bytes_appended: Cell::new(0),
        })
    }

    /// The process-unique id the buffer pool keys this file's pages by.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The file's path (diagnostic).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of sealed (readable) pages.
    pub fn num_pages(&self) -> u32 {
        self.sealed.get()
    }

    /// Number of records appended so far.
    pub fn record_count(&self) -> u64 {
        self.records.get()
    }

    /// Total payload bytes appended so far (before framing).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended.get()
    }

    fn io_err(&self, what: &str, e: std::io::Error) -> StorageError {
        StorageError::Io(format!("{what} {}: {e}", self.path.display()))
    }

    /// Reads a sealed page from disk.
    pub fn read_page(&self, page_no: u32) -> Result<Page> {
        if page_no >= self.sealed.get() {
            return Err(StorageError::Corrupt(format!(
                "page {page_no} of {} is not sealed",
                self.path.display()
            )));
        }
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .map_err(|e| self.io_err("seek", e))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_exact(&mut buf)
            .map_err(|e| self.io_err("read", e))?;
        Page::from_bytes(&buf)
    }

    /// Writes a page image back to disk — the buffer pool's dirty-eviction
    /// path. Only already-sealed page numbers may be rewritten.
    pub fn write_page(&self, page_no: u32, page: &Page) -> Result<()> {
        if page_no >= self.sealed.get() {
            return Err(StorageError::Corrupt(format!(
                "page {page_no} of {} is not sealed",
                self.path.display()
            )));
        }
        self.write_page_at(page_no, page)
    }

    fn write_page_at(&self, page_no: u32, page: &Page) -> Result<()> {
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .map_err(|e| self.io_err("seek", e))?;
        file.write_all(page.as_bytes())
            .map_err(|e| self.io_err("write", e))?;
        Ok(())
    }

    /// Appends one record, fragmenting across slots and pages as needed.
    /// Returns the address of the record's first fragment.
    pub fn append_record(&self, payload: &[u8]) -> Result<RecordId> {
        self.records.set(self.records.get() + 1);
        self.bytes_appended
            .set(self.bytes_appended.get() + payload.len() as u64);
        let prefix = (payload.len() as u32).to_le_bytes();
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&prefix);
        framed.extend_from_slice(payload);

        let mut remaining: &[u8] = &framed;
        let mut rid = None;
        while rid.is_none() || !remaining.is_empty() {
            let mut tail = self.tail.borrow_mut();
            let free = tail.free_space();
            if free == 0 {
                drop(tail);
                self.seal_tail()?;
                continue;
            }
            let chunk = remaining.len().min(free);
            let slot = tail
                .insert(&remaining[..chunk])
                .expect("chunk sized to the page's free space");
            if rid.is_none() {
                rid = Some(RecordId {
                    page: self.sealed.get(),
                    slot,
                });
            }
            remaining = &remaining[chunk..];
        }
        Ok(rid.expect("at least one fragment is always written"))
    }

    fn seal_tail(&self) -> Result<()> {
        let page_no = self.sealed.get();
        let tail = std::mem::take(&mut *self.tail.borrow_mut());
        self.write_page_at(page_no, &tail)?;
        self.sealed.set(page_no + 1);
        Ok(())
    }

    /// Makes everything appended so far readable: writes out the tail page
    /// (if it holds any slots) and starts a fresh one.
    pub fn seal(&self) -> Result<()> {
        if self.tail.borrow().slot_count() > 0 {
            self.seal_tail()?;
        }
        Ok(())
    }

    /// Iterates the sealed pages in order — the sequential scan substrate.
    pub fn pages(&self) -> impl Iterator<Item = Result<Page>> + '_ {
        (0..self.num_pages()).map(move |p| self.read_page(p))
    }

    /// Iterates the records of the sealed pages in append order, with
    /// direct (unpooled) page reads. The pooled variant lives on
    /// [`crate::buffer::BufferPool::stream`].
    pub fn records(&self) -> impl Iterator<Item = Result<Vec<u8>>> + '_ {
        let mut assembler = RecordAssembler::new();
        let mut ready: VecDeque<Vec<u8>> = VecDeque::new();
        let mut page_no = 0u32;
        let pages = self.num_pages();
        std::iter::from_fn(move || loop {
            if let Some(record) = ready.pop_front() {
                return Some(Ok(record));
            }
            if page_no >= pages {
                return None;
            }
            let page = match self.read_page(page_no) {
                Ok(p) => p,
                Err(e) => {
                    page_no = pages;
                    return Some(Err(e));
                }
            };
            page_no += 1;
            for (_, chunk) in page.iter() {
                assembler.push(chunk, &mut ready);
            }
        })
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("path", &self.path)
            .field("pages", &self.num_pages())
            .field("records", &self.record_count())
            .finish()
    }
}

/// Streaming reassembly of framed records from their page-sized fragments.
/// Feed it slot payloads in order; completed records pop out.
#[derive(Default)]
pub struct RecordAssembler {
    buf: Vec<u8>,
}

impl RecordAssembler {
    /// An empty assembler.
    pub fn new() -> RecordAssembler {
        RecordAssembler::default()
    }

    /// Feeds one fragment; every record completed by it is pushed to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut VecDeque<Vec<u8>>) {
        self.buf.extend_from_slice(chunk);
        loop {
            if self.buf.len() < 4 {
                return;
            }
            let len =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if self.buf.len() < 4 + len {
                return;
            }
            out.push_back(self.buf[4..4 + len].to_vec());
            self.buf.drain(..4 + len);
        }
    }

    /// `true` when no partial record is pending.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MAX_PAYLOAD;

    fn temp_path(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "perm-heapfile-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn small_records_round_trip_in_append_order() {
        let path = temp_path("small");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        let records: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut rids = Vec::new();
        for r in &records {
            rids.push(hf.append_record(r).unwrap());
        }
        assert_eq!(hf.num_pages(), 0, "nothing readable before seal");
        hf.seal().unwrap();
        assert!(hf.num_pages() >= 1);
        let back: Vec<Vec<u8>> = hf.records().map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
        assert_eq!(rids[0], RecordId { page: 0, slot: 0 });
    }

    #[test]
    fn oversized_records_fragment_across_pages() {
        let path = temp_path("big");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        // Three records, each spanning multiple pages, with distinct fill
        // patterns so a mixed-up fragment would be visible.
        let records: Vec<Vec<u8>> = (0..3u8)
            .map(|i| vec![i + 1; MAX_PAYLOAD * 2 + 100 * i as usize])
            .collect();
        for r in &records {
            hf.append_record(r).unwrap();
        }
        hf.seal().unwrap();
        assert!(hf.num_pages() >= 6, "got {}", hf.num_pages());
        let back: Vec<Vec<u8>> = hf.records().map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
        assert_eq!(hf.record_count(), 3);
    }

    #[test]
    fn seal_is_a_visibility_barrier_and_appends_continue_after_it() {
        let path = temp_path("seal");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        hf.append_record(b"first").unwrap();
        hf.seal().unwrap();
        let pages_after_first = hf.num_pages();
        hf.append_record(b"second").unwrap();
        // The second record is invisible until the next seal.
        assert_eq!(
            hf.records()
                .collect::<std::result::Result<Vec<_>, _>>()
                .unwrap()
                .len(),
            1
        );
        hf.seal().unwrap();
        assert!(hf.num_pages() > pages_after_first);
        let back: Vec<Vec<u8>> = hf.records().map(|r| r.unwrap()).collect();
        assert_eq!(back, vec![b"first".to_vec(), b"second".to_vec()]);
        // Sealing with an empty tail is a no-op.
        let pages = hf.num_pages();
        hf.seal().unwrap();
        assert_eq!(hf.num_pages(), pages);
    }

    #[test]
    fn reading_an_unsealed_page_is_an_error() {
        let path = temp_path("unsealed");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        hf.append_record(b"x").unwrap();
        assert!(hf.read_page(0).is_err());
        hf.seal().unwrap();
        assert!(hf.read_page(0).is_ok());
        assert!(hf.read_page(1).is_err());
    }
}
