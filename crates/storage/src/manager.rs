//! The storage manager: spill-directory lifecycle, heap-file creation and
//! paged relation backing behind one handle.
//!
//! A [`StorageManager`] owns a session-scoped spill directory (a unique
//! subdirectory of the configured base, or of the system temp dir) and a
//! read-only [`BufferPool`] shared by every heap file it creates. Dropping
//! the manager removes the directory best-effort — spill data is execution
//! state, never durable data.
//!
//! [`StorageManager::store_relation`] is the paged backing for a
//! [`Relation`]: tuples are appended one record each to a heap file, which
//! is then sealed, and the returned [`PagedRelation`] handle streams them
//! back in order through the pool. The in-memory catalog
//! ([`crate::Database`]) stays the resident default — paging a base
//! relation is an explicit, per-relation choice.

use crate::buffer::BufferPool;
use crate::heapfile::HeapFile;
use crate::page::{decode_row, encode_row};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::{Result, StorageError};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes spill directories of concurrent managers in one process.
static NEXT_DIR_ID: AtomicU64 = AtomicU64::new(0);

/// Default number of pages the manager's buffer pool caches (1 MiB of 8 KiB
/// pages) — deliberately small: the pool bounds *reread* traffic, while the
/// spill working set lives on disk.
pub const DEFAULT_POOL_PAGES: usize = 128;

/// Owner of a spill directory, its buffer pool and its heap files.
pub struct StorageManager {
    dir: PathBuf,
    pool: BufferPool,
    /// Heap files created so far; numbers the next file's name.
    files_created: Cell<u64>,
}

impl StorageManager {
    /// Creates a manager over a fresh unique subdirectory of `base` (the
    /// system temp dir when `None`), with a pool of `pool_pages` frames.
    pub fn create(base: Option<&Path>, pool_pages: usize) -> Result<StorageManager> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "perm-spill-{}-{}",
            std::process::id(),
            NEXT_DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::Io(format!("create spill dir {}: {e}", dir.display())))?;
        Ok(StorageManager {
            dir,
            pool: BufferPool::new(pool_pages),
            files_created: Cell::new(0),
        })
    }

    /// The spill directory this manager owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The buffer pool shared by this manager's files.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Creates a fresh heap file named after `label` in the spill directory.
    pub fn create_file(&self, label: &str) -> Result<Rc<HeapFile>> {
        let n = self.files_created.get();
        self.files_created.set(n + 1);
        let path = self.dir.join(format!("{n:04}-{label}.heap"));
        Ok(Rc::new(HeapFile::create(&path)?))
    }

    /// Writes a relation to a fresh heap file, one record per tuple, and
    /// returns the paged handle (schema stays resident; tuples are on disk).
    pub fn store_relation(&self, label: &str, rel: &Relation) -> Result<PagedRelation> {
        let file = self.create_file(label)?;
        let mut buf = Vec::new();
        for t in rel.tuples() {
            buf.clear();
            encode_row(t.values(), &mut buf);
            file.append_record(&buf)?;
        }
        file.seal()?;
        Ok(PagedRelation {
            file,
            schema: rel.schema().clone(),
            len: rel.len(),
        })
    }
}

impl Drop for StorageManager {
    fn drop(&mut self) {
        // Best-effort cleanup: spill files are session state, never durable.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl std::fmt::Debug for StorageManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageManager")
            .field("dir", &self.dir)
            .field("files", &self.files_created.get())
            .finish()
    }
}

/// A relation backed by a heap file instead of a resident `Vec<Tuple>`:
/// the schema and length stay in memory, the tuples live on disk and are
/// streamed back through a [`BufferPool`].
pub struct PagedRelation {
    file: Rc<HeapFile>,
    schema: Schema,
    len: usize,
}

impl PagedRelation {
    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the relation stores no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Streams the tuples in stored order through `pool`, calling `f` once
    /// per tuple.
    pub fn for_each(
        &self,
        pool: &BufferPool,
        mut f: impl FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        let mut stream = pool.stream(&self.file);
        while let Some(record) = stream.next_record()? {
            let mut pos = 0;
            let values = decode_row(record, &mut pos)?;
            f(Tuple::new(values))?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for PagedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedRelation")
            .field("len", &self.len)
            .field("pages", &self.file.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn load(paged: &PagedRelation, pool: &BufferPool) -> Relation {
        let mut tuples = Vec::new();
        paged
            .for_each(pool, |t| {
                tuples.push(t);
                Ok(())
            })
            .unwrap();
        Relation::new(paged.schema().clone(), tuples).unwrap()
    }

    #[test]
    fn manager_owns_and_cleans_up_its_directory() {
        let dir;
        {
            let mgr = StorageManager::create(None, 8).unwrap();
            dir = mgr.dir().to_path_buf();
            assert!(dir.exists());
            let f = mgr.create_file("part").unwrap();
            f.append_record(b"data").unwrap();
            f.seal().unwrap();
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        }
        assert!(!dir.exists(), "spill dir removed on drop");
    }

    #[test]
    fn paged_relation_round_trips_through_the_pool() {
        let mgr = StorageManager::create(None, 4).unwrap();
        let schema = Schema::from_names(&["a", "b"]);
        let rel = Relation::from_rows(
            schema,
            (0..500)
                .map(|i| vec![Value::Int(i), Value::str(format!("row-{i}"))])
                .collect(),
        );
        let paged = mgr.store_relation("memo", &rel).unwrap();
        assert_eq!(paged.len(), 500);
        assert!(!paged.is_empty());
        assert!(paged.file.num_pages() >= 1);
        assert_eq!(load(&paged, mgr.pool()), rel);
        // A second scan hits the pool.
        let hits_before = mgr.pool().hits();
        assert_eq!(load(&paged, mgr.pool()), rel);
        assert!(mgr.pool().hits() > hits_before);
    }

    #[test]
    fn empty_relation_pages_cleanly() {
        let mgr = StorageManager::create(None, 4).unwrap();
        let rel = Relation::empty(Schema::from_names(&["x"]));
        let paged = mgr.store_relation("empty", &rel).unwrap();
        assert!(paged.is_empty());
        assert_eq!(paged.file.num_pages(), 0);
        assert_eq!(load(&paged, mgr.pool()), rel);
    }
}
