//! The buffer pool: a bounded set of in-memory page frames with
//! pin/unpin discipline, LRU replacement, and write-back through the
//! WAL's log-before-data rule.
//!
//! BusTub/Sciore-shaped: callers [`BufferPool::pin`] a page and receive
//! a [`PageGuard`] whose `Drop` unpins it; a pinned frame is never a
//! replacement victim, so the bytes a cursor is reading cannot be
//! evicted underneath it (pin-count safety is pinned by tests here).
//! Replacement is LRU over unpinned frames (last-use ticks, updated on
//! every pin and unpin). Evicting a dirty frame first flushes the WAL up
//! to the page's LSN, seals the page checksum, and writes it back — the
//! flush-before-write discipline the update path relies on.
//!
//! # Latch protocol
//!
//! Three kinds of lock, always taken in this order: the pool **latch**
//! (`Mutex<Inner>`: page table, pin counts, dirty bits, LRU ticks), then
//! one **frame lock** (`RwLock<Slot>`: the 4 KiB image and its load
//! state), then the **file** mutex.
//!
//! * The latch is held for bookkeeping only: a hit counts its pin and
//!   lets go; a miss picks the victim, publishes `id → frame` with
//!   `pin_count = 1`, takes the frame's write lock (free, since the
//!   victim had no pins) and lets go. The page read and its checksum run
//!   under that frame lock alone, into the frame's existing buffer, so
//!   pins of other pages proceed meanwhile. The one I/O still done under
//!   the latch is the write-back of a dirty victim, which must reach
//!   disk before its mapping disappears.
//! * A frame is *loading* while its loader holds the write lock; a
//!   second pin of that page takes the ordinary hit path and waits on
//!   the frame lock. When it gets through, the slot's load state is
//!   either `Ready` or `Failed` with the error.
//! * When the read or the checksum fails, the **loader** records the
//!   error in the slot, releases the frame lock, and under the latch
//!   removes the mapping and marks the frame free (`NO_PAGE`), so the
//!   next pin of the page reads it again. Loader and waiters all return
//!   that error and unpin; nobody ever sees a stale or zeroed image, and
//!   the frame is reusable as soon as the last of them has unpinned.
//! * [`PageGuard`] carries its frame index: unpin goes straight to the
//!   frame, no page-table lookup.
//!
//! A thread blocks on a frame lock only while that frame's loader is
//! doing file I/O, and a loader never waits for a pin, so holding pins
//! while pinning more cannot deadlock. It can exhaust the pool: `pin`
//! fails with [`io::ErrorKind::ResourceBusy`] when every frame is
//! pinned. `PagedStore`'s page-run reader therefore holds at most one
//! pin per extent — **at most 3 pins per thread** — and treats them as a
//! cache it drops and retries without on that error.
//!
//! Every pool keeps hit/miss/eviction/read/write counters
//! ([`PoolStats`]) — the numbers the `fig4_embedded` report prints for
//! backend H's cold-vs-warm comparison.

use std::collections::HashMap;
use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use super::file::FileManager;
use super::page::{Page, PageId, PAGE_SIZE};
use super::wal::LogManager;

use crate::sync::{lock, read, write};

/// A snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to read the page from disk.
    pub misses: u64,
    /// Frames reassigned to a different page.
    pub evictions: u64,
    /// Pages read from the file.
    pub pages_read: u64,
    /// Pages written to the file.
    pub pages_written: u64,
    /// Dirty evictions (write-backs forced by replacement, a subset of
    /// `pages_written`).
    pub dirty_writebacks: u64,
}

impl PoolStats {
    /// Hit rate over all pins, in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum (`self + other`) — the sharded union view
    /// aggregates its per-shard pools into one logical report.
    pub fn merged(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            dirty_writebacks: self.dirty_writebacks + other.dirty_writebacks,
        }
    }

    /// Counter-wise difference (`self - earlier`) for per-phase deltas.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            dirty_writebacks: self.dirty_writebacks - earlier.dirty_writebacks,
        }
    }
}

/// `page_id` of a frame that holds no page: freshly grown, or freed by a
/// failed load. Such a frame has no page-table entry, and reusing it is
/// not an eviction.
const NO_PAGE: PageId = PageId::MAX;

/// One frame: latch-side bookkeeping plus the buffer, which has a lock
/// of its own and is allocated once, when the pool grows to the frame.
struct Frame {
    page_id: PageId,
    pin_count: u32,
    dirty: bool,
    last_use: u64,
    slot: Arc<RwLock<Slot>>,
}

/// What a frame's buffer holds. A third state, *loading*, is the
/// frame's write lock being held by the loader: nobody else can look.
enum Load {
    /// The image of page `Frame::page_id`, checksum verified.
    Ready,
    /// The read or its checksum failed; every pin of the frame reports
    /// this error until the frame is reused.
    Failed(io::Error),
}

/// One frame's buffer, behind the frame's own lock.
struct Slot {
    page: Page,
    load: Load,
}

struct Inner {
    frames: Vec<Frame>,
    /// page id → frame index.
    table: HashMap<PageId, usize>,
    tick: u64,
}

/// The bounded frame pool over one page file (plus its WAL).
pub struct BufferPool {
    capacity: usize,
    /// The pool latch: page table, pin counts, LRU ticks.
    inner: Mutex<Inner>,
    file: Mutex<FileManager>,
    wal: Option<Arc<LogManager>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    dirty_writebacks: AtomicU64,
}

/// A second `io::Error` with the kind and message of `e` (`io::Error`
/// is not `Clone`) — what the waiters on a failed load report.
fn same_error(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

impl BufferPool {
    /// A pool of at most `capacity` frames over `file`, logging page
    /// writes against `wal` (when present).
    pub fn new(file: FileManager, wal: Option<Arc<LogManager>>, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "a useful pool needs at least two frames");
        BufferPool {
            capacity,
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                table: HashMap::new(),
                tick: 0,
            }),
            file: Mutex::new(file),
            wal,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            dirty_writebacks: AtomicU64::new(0),
        }
    }

    /// Frame budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident bytes of the frames currently held (≤ capacity × page
    /// size) plus bookkeeping.
    pub fn resident_bytes(&self) -> usize {
        let inner = lock(&self.inner);
        inner.frames.len() * (PAGE_SIZE + std::mem::size_of::<Frame>() + 48)
    }

    /// The counters right now.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
        }
    }

    /// Pages currently allocated in the underlying file.
    pub fn num_pages(&self) -> u32 {
        lock(&self.file).num_pages()
    }

    /// The file's on-disk bytes (all allocated pages).
    pub fn disk_bytes(&self) -> usize {
        lock(&self.file).size_bytes()
    }

    /// The guard of one pin already counted on frame `idx`. Caller
    /// holds the latch.
    fn guard(&self, inner: &Inner, idx: usize) -> PageGuard<'_> {
        let frame = &inner.frames[idx];
        PageGuard {
            pool: self,
            page_id: frame.page_id,
            frame: idx,
            slot: Arc::clone(&frame.slot),
            dirty: false,
        }
    }

    /// Pin page `id`, reading it from disk on a miss (checksum
    /// verified). The returned guard unpins on drop.
    ///
    /// # Errors
    /// I/O failure, checksum mismatch, or pool exhaustion (every frame
    /// pinned; kind [`io::ErrorKind::ResourceBusy`]).
    pub fn pin(&self, id: PageId) -> io::Result<PageGuard<'_>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&idx) = inner.table.get(&id) {
            let frame = &mut inner.frames[idx];
            frame.pin_count += 1;
            frame.last_use = tick;
            let guard = self.guard(&inner, idx);
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            // While another pin is still loading the page this waits on
            // the frame's lock, not on the latch.
            let waited = match &read(&guard.slot).load {
                Load::Ready => Ok(()),
                Load::Failed(e) => Err(same_error(e)),
            };
            return waited.map(|()| guard);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let guard = self.claim_frame(&mut inner, id, tick)?;
        // The victim had no pins, so nobody holds its lock and taking it
        // under the latch never waits. Pins of `id` that hit the new
        // mapping from here on wait on this lock while the page loads.
        let mut slot = write(&guard.slot);
        drop(inner);
        let loaded = self.load(id, &mut slot.page);
        slot.load = match &loaded {
            Ok(()) => Load::Ready,
            Err(e) => Load::Failed(same_error(e)),
        };
        drop(slot);
        if loaded.is_err() {
            // The loader unpublishes. Its guard then unpins; the frame
            // is reused once the waiters that already hit the mapping
            // have seen the error and unpinned too.
            let mut inner = lock(&self.inner);
            inner.table.remove(&id);
            inner.frames[guard.frame].page_id = NO_PAGE;
            inner.frames[guard.frame].last_use = 0;
        }
        loaded.map(|()| guard)
    }

    /// Allocate a brand-new page in the file and pin its (empty, dirty)
    /// frame — the bulkload path. Returns the new page id with the
    /// guard.
    pub fn pin_new(&self) -> io::Result<(PageId, PageGuard<'_>)> {
        let id = lock(&self.file).allocate();
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.claim_frame(&mut inner, id, tick)?;
        let mut slot = write(&guard.slot);
        drop(inner);
        slot.page.clear();
        slot.load = Load::Ready;
        drop(slot);
        guard.dirty = true;
        Ok((id, guard))
    }

    /// Take a frame for page `id` and publish `id → frame` with one
    /// pin. The caller takes the frame's write lock *before* it lets
    /// the latch go, then fills the buffer.
    fn claim_frame(&self, inner: &mut Inner, id: PageId, tick: u64) -> io::Result<PageGuard<'_>> {
        let idx = self.take_frame(inner)?;
        let frame = &mut inner.frames[idx];
        frame.page_id = id;
        frame.pin_count = 1;
        frame.last_use = tick;
        inner.table.insert(id, idx);
        Ok(self.guard(inner, idx))
    }

    /// Read page `id` into `page` and verify its checksum. Runs under
    /// the frame's write lock, outside the latch.
    fn load(&self, id: PageId, page: &mut Page) -> io::Result<()> {
        lock(&self.file).read_page(id, page)?;
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        if !page.verify() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checksum mismatch reading page {id}"),
            ));
        }
        Ok(())
    }

    /// Pick a frame: grow the pool to capacity, else take the LRU
    /// unpinned one — a freed frame first, at tick 0 — writing it back
    /// if dirty and unpublishing its page. Caller holds the latch.
    fn take_frame(&self, inner: &mut Inner) -> io::Result<usize> {
        if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                page_id: NO_PAGE,
                pin_count: 0,
                dirty: false,
                last_use: 0,
                slot: Arc::new(RwLock::new(Slot {
                    page: Page::new(),
                    load: Load::Ready,
                })),
            });
            return Ok(inner.frames.len() - 1);
        }
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pin_count == 0)
            .min_by_key(|(_, f)| f.last_use)
            .map(|(i, _)| i)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ResourceBusy,
                    format!("buffer pool exhausted: all {} frames pinned", self.capacity),
                )
            })?;
        let old_id = inner.frames[victim].page_id;
        if inner.frames[victim].dirty {
            self.write_back(old_id, &inner.frames[victim].slot)?;
            self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
            inner.frames[victim].dirty = false;
        }
        if old_id != NO_PAGE {
            inner.table.remove(&old_id);
            inner.frames[victim].page_id = NO_PAGE;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(victim)
    }

    /// WAL-disciplined write of an unpinned frame as page `id`: flush
    /// the log up to the page's LSN *before* the data write, then seal
    /// the checksum and write. Caller holds the latch.
    fn write_back(&self, id: PageId, slot: &RwLock<Slot>) -> io::Result<()> {
        let mut slot = write(slot);
        if let Some(wal) = &self.wal {
            wal.flush(slot.page.lsn())?;
        }
        slot.page.seal();
        lock(&self.file).write_page(id, &slot.page)?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs from `PageGuard::drop`.
    fn unpin(&self, idx: usize, dirtied: bool) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let frame = &mut inner.frames[idx];
        assert!(frame.pin_count > 0, "unpin of unpinned frame {idx}");
        frame.pin_count -= 1;
        frame.dirty |= dirtied;
        // A freed frame keeps tick 0: it goes before any page.
        if frame.page_id != NO_PAGE {
            frame.last_use = tick;
        }
    }

    /// Write every dirty frame back (WAL first) and sync the file — the
    /// bulkload commit point.
    ///
    /// # Errors
    /// I/O failure; also if a dirty frame is still pinned.
    pub fn flush_all(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        for idx in 0..inner.frames.len() {
            let frame = &inner.frames[idx];
            if !frame.dirty {
                continue;
            }
            if frame.pin_count > 0 {
                return Err(io::Error::other(format!(
                    "flush_all with page {} still pinned",
                    frame.page_id
                )));
            }
            self.write_back(frame.page_id, &frame.slot)?;
            inner.frames[idx].dirty = false;
        }
        drop(inner);
        lock(&self.file).sync()
    }
}

/// A pinned page. Reading goes through [`PageGuard::read`]; writing
/// through [`PageGuard::write`], which marks the frame dirty at unpin.
/// Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    page_id: PageId,
    frame: usize,
    slot: Arc<RwLock<Slot>>,
    dirty: bool,
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.page_id)
            .field("frame", &self.frame)
            .field("dirty", &self.dirty)
            .finish_non_exhaustive()
    }
}

impl PageGuard<'_> {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.page_id
    }

    /// Shared read access to the page image.
    pub fn read(&self) -> PageRead<'_> {
        PageRead(read(&self.slot))
    }

    /// Exclusive write access; the frame is marked dirty when the guard
    /// unpins.
    pub fn write(&mut self) -> PageWrite<'_> {
        self.dirty = true;
        PageWrite(write(&self.slot))
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame, self.dirty);
    }
}

/// Shared access to a pinned page's image, from [`PageGuard::read`].
pub struct PageRead<'a>(RwLockReadGuard<'a, Slot>);

impl Deref for PageRead<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.0.page
    }
}

/// Exclusive access to a pinned page's image, from [`PageGuard::write`].
pub struct PageWrite<'a>(RwLockWriteGuard<'a, Slot>);

impl Deref for PageWrite<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.0.page
    }
}

impl DerefMut for PageWrite<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.0.page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::wal::{LogManager, LogRecord};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        crate::paged::scratch_dir().join(format!("pool-{}-{name}.pages", std::process::id()))
    }

    /// A pool over a fresh file pre-seeded with `pages` sealed pages,
    /// each holding one record naming its page number.
    fn seeded_pool(name: &str, pages: u32, capacity: usize) -> (BufferPool, PathBuf) {
        let path = tmp(name);
        let mut fm = FileManager::create(&path).unwrap();
        for id in 0..pages {
            let _ = fm.allocate();
            let mut p = Page::new();
            p.insert(format!("page-{id}").as_bytes()).unwrap();
            p.seal();
            fm.write_page(id, &p).unwrap();
        }
        (BufferPool::new(fm, None, capacity), path)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (pool, path) = seeded_pool("counters", 3, 2);
        {
            let g = pool.pin(0).unwrap();
            assert_eq!(g.read().record(0), b"page-0");
        }
        let _ = pool.pin(0).unwrap();
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.pages_read), (1, 1, 1));
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-9);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn eviction_follows_lru_order() {
        let (pool, path) = seeded_pool("lru", 4, 2);
        let _ = pool.pin(0).unwrap(); // frames: {0}
        let _ = pool.pin(1).unwrap(); // frames: {0, 1}
        let _ = pool.pin(0).unwrap(); // 0 is now more recent than 1
        let _ = pool.pin(2).unwrap(); // evicts 1 (LRU), frames: {0, 2}
        assert_eq!(pool.stats().evictions, 1);
        let before = pool.stats().misses;
        let _ = pool.pin(0).unwrap(); // still resident — a hit
        assert_eq!(pool.stats().misses, before);
        let _ = pool.pin(1).unwrap(); // evicted earlier — a miss
        assert_eq!(pool.stats().misses, before + 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let (pool, path) = seeded_pool("pinsafe", 4, 2);
        let held = pool.pin(0).unwrap(); // keep page 0 pinned
        let _ = pool.pin(1).unwrap();
        let _ = pool.pin(2).unwrap(); // must evict 1, not pinned 0
        assert_eq!(held.read().record(0), b"page-0");
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        // Page 0 is still resident: pinning it again is a hit.
        let hits_before = pool.stats().hits;
        let _ = pool.pin(0).unwrap();
        assert_eq!(pool.stats().hits, hits_before + 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn exhausted_pool_reports_rather_than_evicting_pinned_pages() {
        let (pool, path) = seeded_pool("exhaust", 4, 2);
        let _g0 = pool.pin(0).unwrap();
        let _g1 = pool.pin(1).unwrap();
        let err = pool.pin(2).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        drop(_g0);
        assert!(pool.pin(2).is_ok(), "freed frame is reusable");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_survive() {
        let (pool, path) = seeded_pool("dirty", 4, 2);
        {
            let mut g = pool.pin(0).unwrap();
            g.write().insert(b"mutated").unwrap();
        }
        // Force page 0 out.
        let _ = pool.pin(1).unwrap();
        let _ = pool.pin(2).unwrap();
        let s = pool.stats();
        assert_eq!(s.dirty_writebacks, 1);
        assert_eq!(s.pages_written, 1);
        // Re-reading page 0 from disk sees the mutation, checksummed.
        let g = pool.pin(0).unwrap();
        assert_eq!(g.read().record(1), b"mutated");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn eviction_flushes_the_wal_before_the_data_write() {
        let path = tmp("waldisc");
        let wal_path = path.with_extension("wal");
        let fm = FileManager::create(&path).unwrap();
        let wal = Arc::new(LogManager::create(&wal_path).unwrap());
        let pool = BufferPool::new(fm, Some(Arc::clone(&wal)), 2);

        let (id, mut guard) = pool.pin_new().unwrap();
        let lsn = wal.append(&LogRecord::FormatPage {
            page: id,
            kind: crate::paged::page::PageKind::Node,
        });
        {
            let mut p = guard.write();
            p.set_lsn(lsn);
            p.insert(b"logged").unwrap();
        }
        drop(guard);
        assert_eq!(wal.flushed_lsn(), 0, "nothing flushed yet");

        // Evict the dirty page: the pool must flush the log first.
        let (_, _a) = pool.pin_new().unwrap();
        let (_, _b) = pool.pin_new().unwrap();
        assert!(
            wal.flushed_lsn() >= lsn,
            "log-before-data violated: flushed {} < page lsn {lsn}",
            wal.flushed_lsn()
        );
        assert_eq!(pool.stats().dirty_writebacks, 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal_path).unwrap();
    }

    #[test]
    fn flush_all_persists_every_dirty_frame() {
        let path = tmp("flushall");
        let fm = FileManager::create(&path).unwrap();
        let pool = BufferPool::new(fm, None, 4);
        let mut ids = Vec::new();
        for i in 0..3u32 {
            let (id, mut g) = pool.pin_new().unwrap();
            g.write().insert(format!("bulk-{i}").as_bytes()).unwrap();
            ids.push(id);
        }
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().pages_written, 3);
        // A cold pool over the same file sees everything.
        let cold = BufferPool::new(FileManager::open(&path).unwrap(), None, 2);
        for (i, id) in ids.iter().enumerate() {
            let g = cold.pin(*id).unwrap();
            assert_eq!(g.read().record(0), format!("bulk-{i}").as_bytes());
        }
        std::fs::remove_file(path).unwrap();
    }

    /// [`seeded_pool`] with one payload byte of page `bad` flipped on
    /// disk.
    fn corrupted_pool(name: &str, pages: u32, capacity: usize, bad: u32) -> (BufferPool, PathBuf) {
        let (pool, path) = seeded_pool(name, pages, capacity);
        drop(pool);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[bad as usize * PAGE_SIZE + 100] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let pool = BufferPool::new(FileManager::open(&path).unwrap(), None, capacity);
        (pool, path)
    }

    fn pin_record(pool: &BufferPool, id: PageId) -> io::Result<Vec<u8>> {
        pool.pin(id).map(|g| g.read().record(0).to_vec())
    }

    #[test]
    fn checksum_corruption_is_detected_at_pin_time() {
        let (pool, path) = corrupted_pool("corrupt", 2, 2, 1);
        assert!(pool.pin(0).is_ok(), "untouched page still reads");
        let err = pool.pin(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    /// Pin cold page `id` from two threads so that the second provably
    /// hits the mapping while the first is still loading: the test holds
    /// the file mutex, which stops the loader after it has published.
    /// Returns what the loader and the waiter got.
    fn loader_and_waiter(pool: &BufferPool, id: PageId) -> [io::Result<Vec<u8>>; 2] {
        let before = pool.stats();
        let file = lock(&pool.file);
        std::thread::scope(|s| {
            let loader = s.spawn(|| pin_record(pool, id));
            while pool.stats().misses == before.misses {
                std::thread::yield_now();
            }
            // The miss is counted under the latch, which the loader
            // keeps until the mapping is published.
            assert!(lock(&pool.inner).table.contains_key(&id));
            let waiter = s.spawn(|| pin_record(pool, id));
            while pool.stats().hits == before.hits {
                std::thread::yield_now();
            }
            drop(file);
            [loader.join().unwrap(), waiter.join().unwrap()]
        })
    }

    #[test]
    fn a_pin_of_a_loading_page_waits_for_the_one_read() {
        let (pool, path) = seeded_pool("loading", 3, 2);
        let [loader, waiter] = loader_and_waiter(&pool, 1);
        assert_eq!(loader.unwrap(), b"page-1");
        assert_eq!(waiter.unwrap(), b"page-1");
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.pages_read), (1, 1, 1));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_failed_load_fails_its_waiters_and_frees_the_frame() {
        let (pool, path) = corrupted_pool("failwait", 4, 2, 1);
        for got in loader_and_waiter(&pool, 1) {
            let err = got.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        // No leaked pin, no stranded frame: both frames of the pool are
        // pinnable at once, and every other page still reads.
        for (a, b) in [(0, 2), (2, 3), (3, 0)] {
            let ga = pool.pin(a).unwrap();
            let gb = pool.pin(b).unwrap();
            assert_eq!(ga.read().record(0), format!("page-{a}").as_bytes());
            assert_eq!(gb.read().record(0), format!("page-{b}").as_bytes());
        }
        // The page was unpublished, so a later pin reads it again.
        assert!(pool.pin(1).is_err());
        assert_eq!(pool.stats().pages_read, 2 + 4);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_failed_load_counts_one_eviction_for_its_frame() {
        let (pool, path) = corrupted_pool("failevict", 4, 2, 2);
        assert_eq!(pin_record(&pool, 0).unwrap(), b"page-0");
        assert_eq!(pin_record(&pool, 1).unwrap(), b"page-1");
        assert!(pool.pin(2).is_err()); // evicts page 0, then fails
        assert_eq!(pool.stats().evictions, 1);
        // Page 3 takes the frame the failed load freed: no page leaves.
        assert_eq!(pin_record(&pool, 3).unwrap(), b"page-3");
        assert_eq!(pool.stats().evictions, 1);
        let hits = pool.stats().hits;
        assert_eq!(pin_record(&pool, 1).unwrap(), b"page-1");
        assert_eq!(pool.stats().hits, hits + 1, "page 1 stayed resident");
        std::fs::remove_file(path).unwrap();
    }
}
