//! A read-only buffer pool over sealed heap-file pages.
//!
//! The [`BufferPool`] caches a bounded number of [`Page`] frames keyed by
//! `(file id, page number)`. Sealed pages never change, so a frame is just
//! an `Rc<Page>` and nothing is ever written back: [`BufferPool::fetch`]
//! hands out a clone of it, and a reader keeps its page alive even after
//! the pool evicts the frame.
//!
//! Eviction is the **clock** (second-chance) policy: frames sit on a ring,
//! a fetch sets their referenced bit, and the clock hand clears bits as it
//! sweeps until it finds an unreferenced victim — at most one revolution,
//! so the pool never holds more than its capacity.
//!
//! The pool is deliberately `!Sync`, like the executor that owns it:
//! concurrency happens one executor (and thus one pool) per worker thread,
//! so frames use `Cell`/`RefCell` instead of locks.

use crate::heapfile::HeapFile;
use crate::page::Page;
use crate::{Result, StorageError};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// One cached page frame.
struct Frame {
    page: Rc<Page>,
    referenced: bool,
}

/// A bounded, read-only page cache with clock eviction.
pub struct BufferPool {
    capacity: usize,
    frames: RefCell<HashMap<(u64, u32), Frame>>,
    /// Clock ring: the keys of `frames`, the hand at the front.
    ring: RefCell<VecDeque<(u64, u32)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl BufferPool {
    /// A pool caching at most `capacity` pages (minimum 1).
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            capacity: capacity.max(1),
            frames: RefCell::new(HashMap::new()),
            ring: RefCell::new(VecDeque::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Pages served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Pages read from disk.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Frames evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// The configured frame capacity (the clamp [`BufferPool::new`]
    /// applied included).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A sealed page of `file`, read from disk on a miss.
    pub fn fetch(&self, file: &HeapFile, page_no: u32) -> Result<Rc<Page>> {
        let key = (file.id(), page_no);
        let mut frames = self.frames.borrow_mut();
        if let Some(frame) = frames.get_mut(&key) {
            self.hits.set(self.hits.get() + 1);
            frame.referenced = true;
            return Ok(Rc::clone(&frame.page));
        }
        self.misses.set(self.misses.get() + 1);
        let page = Rc::new(file.read_page(page_no)?);
        let mut ring = self.ring.borrow_mut();
        if frames.len() >= self.capacity {
            // One clock sweep: clear referenced bits until an unreferenced
            // frame turns up.
            while let Some(victim) = ring.pop_front() {
                let frame = frames
                    .get_mut(&victim)
                    .expect("the ring holds the frames' keys");
                if !frame.referenced {
                    frames.remove(&victim);
                    self.evictions.set(self.evictions.get() + 1);
                    break;
                }
                frame.referenced = false;
                ring.push_back(victim);
            }
        }
        frames.insert(
            key,
            Frame {
                page: Rc::clone(&page),
                referenced: true,
            },
        );
        ring.push_back(key);
        Ok(page)
    }

    /// A pooled sequential record stream over a heap file's sealed pages.
    pub fn stream<'p>(&'p self, file: &Rc<HeapFile>) -> RecordStream<'p> {
        RecordStream {
            pool: self,
            file: Rc::clone(file),
            page_no: 0,
            pages: file.num_pages(),
            page: None,
            at: 0,
            spanning: Vec::new(),
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.frames.borrow().len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// Sequential record scan through the buffer pool (see
/// [`BufferPool::stream`]). Pages are fetched one at a time, so a stream
/// holds one page, and a k-way merge over `k` streams `k` pages.
pub struct RecordStream<'p> {
    pool: &'p BufferPool,
    file: Rc<HeapFile>,
    /// The next page to fetch.
    page_no: u32,
    pages: u32,
    /// The page being read and the offset of its first unread byte.
    page: Option<Rc<Page>>,
    at: usize,
    /// A record that spans pages, gathered here; reused.
    spanning: Vec<u8>,
}

/// The length a record's `u32` prefix at the start of `bytes` gives, once
/// all four prefix bytes are there.
fn framed_len(bytes: &[u8]) -> Option<usize> {
    let prefix = bytes.get(..4)?;
    Some(u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize)
}

impl RecordStream<'_> {
    /// The unread bytes of the current page.
    fn unread(&self) -> &[u8] {
        self.page
            .as_ref()
            .map_or(&[], |page| &page.payload()[self.at..])
    }

    /// Makes the next page current; `false` at end of file.
    fn advance(&mut self) -> Result<bool> {
        if self.page_no >= self.pages {
            return Ok(false);
        }
        self.page = Some(self.pool.fetch(&self.file, self.page_no)?);
        self.page_no += 1;
        self.at = 0;
        Ok(true)
    }

    /// The next record in append order, or `None` at end of file. The
    /// record is lent: borrowed from its page or, when it spans pages, from
    /// one buffer the stream reuses, so reading a record allocates nothing
    /// beyond that buffer's growth to the longest spanning record. A file
    /// that ends inside a record is [`StorageError::Corrupt`].
    pub fn next_record(&mut self) -> Result<Option<&[u8]>> {
        while self.unread().is_empty() {
            if !self.advance()? {
                return Ok(None);
            }
        }
        let unread = self.unread();
        let whole = framed_len(unread).filter(|&len| unread.len() >= 4 + len);
        if let Some(len) = whole {
            let start = self.at + 4;
            self.at = start + len;
            let page = self.page.as_deref().map_or(&[][..], Page::payload);
            return Ok(Some(&page[start..start + len]));
        }
        // The record (or its prefix) runs into the following pages.
        let mut spanning = std::mem::take(&mut self.spanning);
        spanning.clear();
        loop {
            let want = framed_len(&spanning).map_or(4, |len| 4 + len);
            if spanning.len() >= want {
                break;
            }
            if self.unread().is_empty() && !self.advance()? {
                return Err(StorageError::Corrupt(format!(
                    "{} ends inside a record",
                    self.file.path().display()
                )));
            }
            let unread = self.unread();
            let take = (want - spanning.len()).min(unread.len());
            spanning.extend_from_slice(&unread[..take]);
            self.at += take;
        }
        self.spanning = spanning;
        Ok(Some(&self.spanning[4..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heapfile::tests::RecordAssembler;
    use crate::page::PAGE_CAPACITY;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(name: &str) -> (PathBuf, Cleanup) {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "perm-buffer-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        (path.clone(), Cleanup(path))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn file_with_pages(path: &std::path::Path, pages: u32) -> Rc<HeapFile> {
        let hf = HeapFile::create(path).unwrap();
        for i in 0..pages {
            // One record per page, sealed on its own.
            hf.append_record(&vec![i as u8; PAGE_CAPACITY - 4]).unwrap();
            hf.seal().unwrap();
        }
        assert_eq!(hf.num_pages(), pages);
        Rc::new(hf)
    }

    fn stream_all(pool: &BufferPool, file: &Rc<HeapFile>) -> Result<Vec<Vec<u8>>> {
        let mut stream = pool.stream(file);
        let mut back = Vec::new();
        while let Some(r) = stream.next_record()? {
            back.push(r.to_vec());
        }
        Ok(back)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (path, _c) = temp_file("counters");
        let file = file_with_pages(&path, 3);
        let pool = BufferPool::new(4);
        for _ in 0..2 {
            for p in 0..3 {
                let page = pool.fetch(&file, p).unwrap();
                assert_eq!(page.payload()[4], p as u8);
            }
        }
        assert_eq!(pool.misses(), 3, "first round reads from disk");
        assert_eq!(pool.hits(), 3, "second round is served from cache");
    }

    #[test]
    fn clock_evicts_when_full_and_readers_keep_their_pages() {
        let (path, _c) = temp_file("evict");
        let file = file_with_pages(&path, 6);
        let pool = BufferPool::new(2);
        let first = pool.fetch(&file, 0).unwrap();
        for p in 1..6 {
            pool.fetch(&file, p).unwrap();
        }
        assert_eq!(pool.frames.borrow().len(), 2);
        assert_eq!(pool.misses(), 6);
        assert_eq!(pool.evictions(), 4);
        // Page 0's frame is gone, but the reader's page is intact.
        assert_eq!(first.payload()[4], 0);
        pool.fetch(&file, 0).unwrap();
        assert_eq!(pool.misses(), 7, "an evicted page is read again");
    }

    #[test]
    fn the_clock_spares_a_referenced_frame() {
        let (path, _c) = temp_file("clock");
        let file = file_with_pages(&path, 5);
        let pool = BufferPool::new(3);
        for p in 0..3 {
            pool.fetch(&file, p).unwrap();
        }
        // Full: the sweep clears every bit and evicts page 0.
        pool.fetch(&file, 3).unwrap();
        // A hit on page 1 sets its bit again, so the hand passes it and
        // evicts page 2.
        pool.fetch(&file, 1).unwrap();
        pool.fetch(&file, 4).unwrap();
        let hits = pool.hits();
        pool.fetch(&file, 1).unwrap();
        assert_eq!(pool.hits(), hits + 1, "page 1 stayed cached");
        pool.fetch(&file, 2).unwrap();
        assert_eq!(pool.hits(), hits + 1, "page 2 did not");
        assert_eq!(pool.evictions(), 3);
    }

    #[test]
    fn pooled_record_access_matches_direct_access() {
        let (path, _c) = temp_file("records");
        let hf = Rc::new(HeapFile::create(&path).unwrap());
        let records: Vec<Vec<u8>> = (0..40u32)
            .map(|i| vec![i as u8; (i as usize * 977) % 20000])
            .collect();
        for r in &records {
            hf.append_record(r).unwrap();
        }
        hf.seal().unwrap();
        // Direct page reads, reassembled without the pool.
        let mut assembler = RecordAssembler::new();
        let mut direct = VecDeque::new();
        for p in 0..hf.num_pages() {
            assembler.push(hf.read_page(p).unwrap().payload(), &mut direct);
        }
        assert_eq!(direct, records);
        let pool = BufferPool::new(2);
        assert_eq!(stream_all(&pool, &hf).unwrap(), records);
        assert_eq!(pool.misses(), hf.num_pages() as u64);
        // Two streams of one file interleave through a two-frame pool.
        let (mut a, mut b) = (pool.stream(&hf), pool.stream(&hf));
        for r in &records {
            assert_eq!(a.next_record().unwrap(), Some(&r[..]));
            assert_eq!(b.next_record().unwrap(), Some(&r[..]));
        }
        assert!(
            pool.hits() > 0,
            "the second stream reuses the first's pages"
        );
    }

    #[test]
    fn records_whose_prefix_or_body_crosses_pages_are_lent_whole() {
        let (path, _c) = temp_file("split");
        let hf = Rc::new(HeapFile::create(&path).unwrap());
        // The first record leaves two bytes of page 0, so the second's
        // prefix is split 2 / 2; the third spans three pages.
        let records = [
            vec![1u8; PAGE_CAPACITY - 6],
            b"split prefix".to_vec(),
            vec![3u8; 2 * PAGE_CAPACITY + 17],
            b"after".to_vec(),
        ];
        for r in &records {
            hf.append_record(r).unwrap();
        }
        hf.seal().unwrap();
        let pool = BufferPool::new(1);
        let mut stream = pool.stream(&hf);
        for r in &records {
            assert_eq!(stream.next_record().unwrap(), Some(&r[..]));
        }
        assert_eq!(stream.next_record().unwrap(), None);
        assert_eq!(pool.misses(), hf.num_pages() as u64, "each page once");
    }

    #[test]
    fn a_stream_that_ends_inside_a_record_is_corrupt() {
        let (path, _c) = temp_file("torn");
        let hf = Rc::new(HeapFile::create(&path).unwrap());
        hf.append_record(b"whole").unwrap();
        hf.append_record(b"torn").unwrap();
        hf.seal().unwrap();
        // Patch the second record's length prefix on disk (page 0, after
        // the header and the first framed record) to run past the file.
        let at = 2 + 4 + b"whole".len() as u64;
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            raw.seek(SeekFrom::Start(at)).unwrap();
            raw.write_all(&1000u32.to_le_bytes()).unwrap();
        }
        let pool = BufferPool::new(2);
        let mut stream = pool.stream(&hf);
        assert_eq!(stream.next_record().unwrap(), Some(&b"whole"[..]));
        assert!(matches!(
            stream.next_record(),
            Err(StorageError::Corrupt(msg)) if msg.contains("ends inside a record")
        ));
    }
}
