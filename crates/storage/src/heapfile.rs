//! Heap files: spill data written once, then read in order.
//!
//! A [`HeapFile`] is the unit of spill storage: records of arbitrary length
//! are appended ([`HeapFile::append_record`]) and come back in append order
//! through [`crate::BufferPool::stream`] (grace-join partitions, sort runs,
//! aggregate partitions, paged relations). Each record is framed by a `u32`
//! length prefix, and the framed bytes fill pages back to back, so a record
//! may cross any number of page boundaries; the stream finds the records
//! again by their prefixes and lends each one (borrowed from its page, or
//! gathered into one reused buffer when it spans pages), so callers never
//! see pages.
//!
//! Writes go through an in-memory *tail page* that is written out when full
//! or when the writer calls [`HeapFile::seal`]. Sealing is a visibility
//! barrier: only sealed pages are readable, and a sealed page is never
//! written again — which is what lets the buffer pool cache pages without a
//! coherence protocol. The executor's spill paths are strictly
//! write-then-seal-then-read, so the barrier costs at most one
//! partially-filled page per seal.

use crate::page::{Page, PAGE_SIZE};
use crate::{Result, StorageError};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique heap-file ids; the buffer pool keys frames by
/// `(file id, page number)`.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// An append-only file of pages.
pub struct HeapFile {
    id: u64,
    path: PathBuf,
    file: RefCell<File>,
    /// Pages sealed to disk; page numbers `0..sealed` are readable.
    sealed: Cell<u32>,
    tail: RefCell<Page>,
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

    /// Appends one record: its `u32` length prefix, then its bytes, filling
    /// the tail page and sealing it whenever it runs full.
    pub fn append_record(&self, payload: &[u8]) -> Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            StorageError::Io(format!(
                "a {}-byte record does not fit a u32 length prefix",
                payload.len()
            ))
        })?;
        self.append_bytes(&len.to_le_bytes())?;
        self.append_bytes(payload)
    }

    fn append_bytes(&self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let n = self.tail.borrow_mut().append(bytes);
            bytes = &bytes[n..];
            if !bytes.is_empty() {
                self.seal_tail()?;
            }
        }
        Ok(())
    }

    /// Writes the tail page out as the next sealed page and starts a fresh
    /// one.
    fn seal_tail(&self) -> Result<()> {
        let page_no = self.sealed.get();
        let tail = std::mem::take(&mut *self.tail.borrow_mut());
        let mut file = self.file.borrow_mut();
        file.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .map_err(|e| self.io_err("seek", e))?;
        file.write_all(tail.as_bytes())
            .map_err(|e| self.io_err("write", e))?;
        self.sealed.set(page_no + 1);
        Ok(())
    }

    /// Makes everything appended so far readable: writes out the tail page
    /// (if it holds any bytes) and starts a fresh one.
    pub fn seal(&self) -> Result<()> {
        if !self.tail.borrow().is_empty() {
            self.seal_tail()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("path", &self.path)
            .field("pages", &self.num_pages())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::page::PAGE_CAPACITY;
    use std::collections::VecDeque;

    /// Streaming reassembly of length-framed records from a heap file's page
    /// payloads, by copying: the reference the tests check the buffer pool's
    /// lending `RecordStream` against. Feed it the payloads in page order;
    /// completed records pop out.
    #[derive(Default)]
    pub(crate) struct RecordAssembler {
        buf: Vec<u8>,
    }

    impl RecordAssembler {
        /// An empty assembler.
        pub(crate) fn new() -> RecordAssembler {
            RecordAssembler::default()
        }

        /// Feeds one page payload; every record completed by it is pushed to
        /// `out`.
        pub(crate) fn push(&mut self, bytes: &[u8], out: &mut VecDeque<Vec<u8>>) {
            self.buf.extend_from_slice(bytes);
            let mut at = 0;
            while let Some(prefix) = self.buf.get(at..at + 4) {
                let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
                let Some(record) = self.buf.get(at + 4..at + 4 + len) else {
                    break;
                };
                out.push_back(record.to_vec());
                at += 4 + len;
            }
            self.buf.drain(..at);
        }

        /// `true` when no partial record is pending.
        pub(crate) fn is_empty(&self) -> bool {
            self.buf.is_empty()
        }
    }

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

    /// Every record of the sealed pages, reassembled without the pool.
    fn records(hf: &HeapFile) -> Vec<Vec<u8>> {
        let mut assembler = RecordAssembler::new();
        let mut out = VecDeque::new();
        for p in 0..hf.num_pages() {
            assembler.push(hf.read_page(p).unwrap().payload(), &mut out);
        }
        assert!(
            assembler.is_empty(),
            "a sealed file ends on a record boundary"
        );
        out.into()
    }

    #[test]
    fn small_records_round_trip_in_append_order() {
        let path = temp_path("small");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        let records_in: Vec<Vec<u8>> = (0..3000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &records_in {
            hf.append_record(r).unwrap();
        }
        // 3000 framed records of 8 bytes fill two pages and part of a third.
        assert_eq!(hf.num_pages(), 2, "nothing past a full page before seal");
        hf.seal().unwrap();
        assert_eq!(hf.num_pages(), 3);
        assert_eq!(records(&hf), records_in);
    }

    #[test]
    fn oversized_records_fragment_across_pages() {
        let path = temp_path("big");
        let _cleanup = Cleanup(path.clone());
        let hf = HeapFile::create(&path).unwrap();
        // Three records, each spanning multiple pages, with distinct fill
        // patterns so a mixed-up boundary would be visible, plus an empty
        // record between them.
        let mut records_in: Vec<Vec<u8>> = (0..3u8)
            .map(|i| vec![i + 1; PAGE_CAPACITY * 2 + 100 * i as usize])
            .collect();
        records_in.insert(1, Vec::new());
        for r in &records_in {
            hf.append_record(r).unwrap();
        }
        hf.seal().unwrap();
        assert_eq!(hf.num_pages(), 7);
        assert_eq!(records(&hf), records_in);
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
        assert_eq!(records(&hf).len(), 1);
        hf.seal().unwrap();
        assert!(hf.num_pages() > pages_after_first);
        assert_eq!(records(&hf), vec![b"first".to_vec(), b"second".to_vec()]);
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
