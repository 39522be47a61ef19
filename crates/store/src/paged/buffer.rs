//! The buffer pool: a bounded set of in-memory page frames with
//! pin/unpin discipline, LRU replacement, and write-back through the
//! WAL's log-before-data rule.
//!
//! BusTub/Sciore-shaped: callers [`BufferPool::pin`] a page and receive
//! a [`PageGuard`] whose `Drop` unpins it; a pinned frame is never a
//! replacement victim, so the bytes a cursor is reading cannot be
//! evicted underneath it (pin-count safety is pinned by tests here).
//! Replacement is exact LRU over unpinned frames: the victim is the
//! frame unpinned longest ago. Evicting a dirty frame whose LSN is not
//! yet durable first forces the whole pending WAL, then seals the page
//! checksum and writes it back — the flush-before-write discipline the
//! update path relies on.
//!
//! # Latch protocol
//!
//! A pin that finds its page resident, and every unpin, run without the
//! pool **latch** (`Mutex<Latched>`). The latch guards only what changes
//! which page a frame holds:
//!
//! * growing the frame array (chunks of [`FRAME_CHUNK`] frames, made as
//!   the pool fills, never freed before the pool);
//! * choosing a victim and publishing `page → frame` in the page table;
//! * unpublishing a page whose load failed;
//! * [`BufferPool::flush_all`] and the write-back of a dirty victim,
//!   which must reach disk before its mapping disappears.
//!
//! Lock order is latch, then one **frame lock** (`RwLock<Slot>`: the
//! 4 KiB image and its load state), then the **file** mutex.
//!
//! **The page table** is two levels of `AtomicU32` frame indexes: page
//! ids are dense (the file allocates append-only), so a page's entry
//! sits at a fixed place, and the leaves are made under the latch as
//! pages appear. A hit reads it without the latch.
//!
//! **Pin counts.** Each frame's `pins` word is its pin count plus the
//! [`CLAIMED`] bit, which only the latch holder sets and clears:
//!
//! * A hit loads the frame index, `fetch_add`s one pin (acquire), then
//!   re-checks the frame's `page_id`. If the frame was claimed or holds
//!   another page by then, it takes its pin back and goes the latched
//!   way, which looks the page up again under the latch.
//! * The latch holder claims a frame by a compare-and-swap of `pins`
//!   from 0 to `CLAIMED` (acquire: it sees the writes and dirty bit of
//!   the last unpin). From then on every racing hit sees the bit and
//!   backs off, so nobody else touches the frame's lock or image. The
//!   holder writes the victim back if dirty, moves the mapping, stores
//!   the new `page_id`, takes the frame's write lock (free: no pins, so
//!   no readers) and turns the bit into the loader's own pin with one
//!   release `fetch_sub`. A hit that acquires a later value of `pins`
//!   therefore sees the new `page_id`, and while the page loads it
//!   waits on the frame lock, not on the latch.
//! * An unpin stamps `last_use` from one shared tick, sets the dirty
//!   bit if it wrote, and releases its pin (release `fetch_sub`).
//! * When the read or the checksum fails, the **loader** records the
//!   error in the slot, releases the frame lock, and under the latch
//!   unpublishes the page and marks the frame free (`NO_PAGE`). Hits
//!   that pinned it meanwhile see the error and unpin; nobody ever
//!   sees a stale or zeroed image.
//!
//! **Why LRU stays exact.** Stamping only at unpin orders the unpinned
//! frames by their last unpin, which is after their last pin, so it
//! picks the same victim as stamping at every pin and unpin; a free
//! frame ranks before every page. Single-threaded, the pool therefore
//! reads exactly the pages a fully latched LRU pool reads (a test
//! checks it against a plain model). Under concurrency the victim scan
//! reads ticks that hits are updating, so its choice is LRU as of some
//! moment during the scan.
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
//! backend H's cold-vs-warm comparison. Hits are counted per frame, on
//! the cache line the pin already writes.

use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
/// failed load. Such a frame has no page-table entry, ranks before every
/// page as a victim, and reusing it is not an eviction.
const NO_PAGE: PageId = PageId::MAX;

/// Page-table entry of a page that has no frame.
const NO_FRAME: u32 = u32::MAX;

/// The bit of `Frame::pins` the latch holder sets while it claims the
/// frame (victim choice, write-back, publishing its next page); hits
/// that see it back off.
const CLAIMED: u32 = 1 << 31;

/// Frames made at a time as the pool fills.
const FRAME_CHUNK: usize = 8;

/// Page-table entries per leaf (16 KiB), and leaves per table: pages
/// up to 4 Mi, a 16 GiB file.
const TABLE_LEAF: usize = 4096;
const TABLE_LEAVES: usize = 1024;

/// What [`BufferPool::resident_bytes`] charges per frame: the image
/// plus the frame's header, lock and share of the page table.
const FRAME_BYTES: usize = PAGE_SIZE + 80;

/// One frame. The header is atomics read and written without the latch
/// (see the module doc); the buffer has a lock of its own and is
/// allocated once, with the frame's chunk. One cache line holds
/// everything a hit touches.
#[repr(align(64))]
struct Frame {
    /// The page held, or [`NO_PAGE`]; changed only by the latch holder.
    page_id: AtomicU32,
    /// Pin count, plus [`CLAIMED`].
    pins: AtomicU32,
    /// Written since its last write-back; set by unpins.
    dirty: AtomicBool,
    /// Tick of the last unpin: the LRU key.
    last_use: AtomicU64,
    /// Pins of this frame served without a read.
    hits: AtomicU64,
    slot: RwLock<Slot>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            page_id: AtomicU32::new(NO_PAGE),
            pins: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            last_use: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            slot: RwLock::new(Slot {
                page: Page::new(),
                load: Load::Ready,
            }),
        }
    }

    /// Claim the frame for the latch holder if nobody has it pinned.
    fn try_claim(&self) -> bool {
        let pins = &self.pins;
        // ordering: acquire pairs with the release of the frame's last
        // unpin, so its page writes and dirty bit are visible here.
        pins.compare_exchange(0, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Give a claim up, the frame keeping its page.
    fn unclaim(&self) {
        // ordering: release, as an unpin.
        self.pins.fetch_sub(CLAIMED, Ordering::Release);
    }

    /// Replacement rank: the least goes first.
    fn lru_key(&self) -> u64 {
        if self.page_id.load(Ordering::Relaxed) == NO_PAGE {
            0
        } else {
            self.last_use.load(Ordering::Relaxed)
        }
    }
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

/// page id → frame index, read without the latch, written under it.
struct PageTable {
    leaves: Box<[OnceLock<Box<[AtomicU32]>>]>,
}

impl PageTable {
    fn new() -> PageTable {
        PageTable {
            leaves: (0..TABLE_LEAVES).map(|_| OnceLock::new()).collect(),
        }
    }

    fn entry(&self, id: PageId) -> Option<&AtomicU32> {
        let leaf = self.leaves.get(id as usize / TABLE_LEAF)?.get()?;
        Some(&leaf[id as usize % TABLE_LEAF])
    }

    /// The frame holding page `id`, if one is published.
    fn get(&self, id: PageId) -> Option<usize> {
        // ordering: acquire pairs with `set`'s release, so the frame's
        // chunk is visible to whoever finds its index here.
        let idx = self.entry(id)?.load(Ordering::Acquire);
        (idx != NO_FRAME).then_some(idx as usize)
    }

    /// Publish `id → idx`, making the leaf if needed. Caller holds the
    /// latch and has run [`PageTable::check`].
    fn set(&self, id: PageId, idx: usize) {
        let leaf = self.leaves[id as usize / TABLE_LEAF]
            .get_or_init(|| (0..TABLE_LEAF).map(|_| AtomicU32::new(NO_FRAME)).collect());
        // ordering: release publishes the frame (and its chunk) to the
        // acquire in `get`.
        leaf[id as usize % TABLE_LEAF].store(idx as u32, Ordering::Release);
    }

    /// Unpublish page `id`. Caller holds the latch.
    fn clear(&self, id: PageId) {
        if let Some(entry) = self.entry(id) {
            entry.store(NO_FRAME, Ordering::Relaxed);
        }
    }

    /// Fails unless page `id` has a place in the table.
    fn check(id: PageId) -> io::Result<()> {
        if (id as usize) < TABLE_LEAF * TABLE_LEAVES {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page {id} is beyond the buffer pool's page table"),
            ))
        }
    }
}

/// What only the latch holder reads or writes.
struct Latched {
    /// Frames grown so far (≤ capacity).
    frames: usize,
}

/// The unpin clock, alone on its cache line: every unpin bumps it.
#[repr(align(64))]
struct Tick(AtomicU64);

/// The bounded frame pool over one page file (plus its WAL).
pub struct BufferPool {
    capacity: usize,
    /// The pool latch: frame growth, victim choice, (un)publishing.
    latch: Mutex<Latched>,
    /// The frames, [`FRAME_CHUNK`] per chunk, made as the pool grows.
    chunks: Box<[OnceLock<Box<[Frame]>>]>,
    table: PageTable,
    tick: Tick,
    file: Mutex<FileManager>,
    wal: Option<Arc<LogManager>>,
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
            latch: Mutex::new(Latched { frames: 0 }),
            chunks: (0..capacity.div_ceil(FRAME_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            table: PageTable::new(),
            tick: Tick(AtomicU64::new(0)),
            file: Mutex::new(file),
            wal,
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
        lock(&self.latch).frames * FRAME_BYTES
    }

    /// Every frame grown so far, in index order.
    fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.chunks
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|chunk| chunk.iter())
    }

    /// The counters right now.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.frames().map(|f| f.hits.load(Ordering::Relaxed)).sum(),
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

    /// Frame `idx`, which the pool has grown to.
    fn frame(&self, idx: usize) -> &Frame {
        match self.chunks[idx / FRAME_CHUNK].get() {
            Some(chunk) => &chunk[idx % FRAME_CHUNK],
            None => unreachable!("frame {idx} is used before the pool grew to it"),
        }
    }

    /// Pin page `id`, reading it from disk on a miss (checksum
    /// verified). The returned guard unpins on drop.
    ///
    /// # Errors
    /// I/O failure, checksum mismatch, or pool exhaustion (every frame
    /// pinned; kind [`io::ErrorKind::ResourceBusy`]).
    pub fn pin(&self, id: PageId) -> io::Result<PageGuard<'_>> {
        self.pin_read(id).map(PinnedPage::into_guard)
    }

    /// [`BufferPool::pin`], keeping the frame's read lock for as long as
    /// the pin lives: the reader of a page run pays one lock per page,
    /// not one per record.
    pub(crate) fn pin_read(&self, id: PageId) -> io::Result<PinnedPage<'_>> {
        match self.table.get(id).and_then(|idx| self.try_hit(id, idx)) {
            Some(guard) => Self::when_loaded(guard),
            None => self.pin_latched(id),
        }
    }

    /// Read-lock a hit's frame and report how its load went. While
    /// another pin is still loading the page this waits on the frame's
    /// lock, not on the latch.
    fn when_loaded(guard: PageGuard<'_>) -> io::Result<PinnedPage<'_>> {
        let frame = guard.frame;
        let slot = read(&frame.slot);
        match &slot.load {
            Load::Ready => Ok(PinnedPage { slot, guard }),
            Load::Failed(e) => Err(same_error(e)),
        }
    }

    /// Pin frame `idx` for page `id` without the latch; `None` (the pin
    /// taken back) when the frame is claimed or holds another page.
    fn try_hit(&self, id: PageId, idx: usize) -> Option<PageGuard<'_>> {
        let frame = self.frame(idx);
        // ordering: acquire pairs with the release that ends a claim, so
        // the `page_id` read below is the one that claim published.
        let pins = frame.pins.fetch_add(1, Ordering::Acquire);
        if pins & CLAIMED != 0 || frame.page_id.load(Ordering::Relaxed) != id {
            frame.pins.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        frame.hits.fetch_add(1, Ordering::Relaxed);
        Some(self.guard(frame, id))
    }

    fn guard<'a>(&'a self, frame: &'a Frame, page_id: PageId) -> PageGuard<'a> {
        PageGuard {
            pool: self,
            frame,
            page_id,
            dirty: false,
        }
    }

    /// The latched way in: a hit on a page published since the
    /// latch-free look, or a miss that claims a frame and loads into it.
    fn pin_latched(&self, id: PageId) -> io::Result<PinnedPage<'_>> {
        let mut latch = lock(&self.latch);
        if let Some(idx) = self.table.get(id) {
            // Under the latch a published frame is never claimed, so the
            // pin cannot fail.
            let frame = self.frame(idx);
            // ordering: acquire, as in `try_hit`.
            frame.pins.fetch_add(1, Ordering::Acquire);
            frame.hits.fetch_add(1, Ordering::Relaxed);
            drop(latch);
            return Self::when_loaded(self.guard(frame, id));
        }
        let (guard, mut slot) = self.claim(&mut latch, id)?;
        drop(latch);
        let loaded = self.load(id, &mut slot.page);
        slot.load = match &loaded {
            Ok(()) => Load::Ready,
            Err(e) => Load::Failed(same_error(e)),
        };
        drop(slot);
        if let Err(e) = loaded {
            // The loader unpublishes. Its guard then unpins; the frame
            // is reused once the hits that already pinned it have seen
            // the error and unpinned too.
            let _latch = lock(&self.latch);
            self.table.clear(id);
            guard.frame.page_id.store(NO_PAGE, Ordering::Relaxed);
            return Err(e);
        }
        let slot = read(&guard.frame.slot);
        Ok(PinnedPage { slot, guard })
    }

    /// Allocate a brand-new page in the file and pin its (empty, dirty)
    /// frame — the bulkload path. Returns the new page id with the
    /// guard.
    pub fn pin_new(&self) -> io::Result<(PageId, PageGuard<'_>)> {
        let id = lock(&self.file).allocate();
        let mut latch = lock(&self.latch);
        let (mut guard, mut slot) = self.claim(&mut latch, id)?;
        drop(latch);
        slot.page.clear();
        slot.load = Load::Ready;
        drop(slot);
        guard.dirty = true;
        Ok((id, guard))
    }

    /// Take a frame for page `id`, publish `id → frame` with one pin and
    /// count the miss. Returns the pin with the frame's write lock,
    /// taken before any hit can reach the frame; the caller lets the
    /// latch go, then fills the buffer.
    fn claim<'a>(
        &'a self,
        latch: &mut Latched,
        id: PageId,
    ) -> io::Result<(PageGuard<'a>, RwLockWriteGuard<'a, Slot>)> {
        PageTable::check(id)?;
        let (idx, frame) = self.take_frame(latch)?;
        frame.page_id.store(id, Ordering::Relaxed);
        self.table.set(id, idx);
        let slot = write(&frame.slot);
        // ordering: release hands the new `page_id` to every hit that
        // acquires `pins` from here on; the claim becomes the loader's
        // pin, keeping any pins racing hits have not yet taken back.
        frame.pins.fetch_sub(CLAIMED - 1, Ordering::Release);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((self.guard(frame, id), slot))
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

    /// Claim a frame: grow the pool to capacity, else take the LRU
    /// unpinned one — a free frame first — writing it back if dirty and
    /// unpublishing its page. Returns it (with its index) [`CLAIMED`],
    /// holding no page. Caller holds the latch.
    fn take_frame(&self, latch: &mut Latched) -> io::Result<(usize, &Frame)> {
        if latch.frames < self.capacity {
            let idx = latch.frames;
            let start = idx - idx % FRAME_CHUNK;
            let chunk = self.chunks[idx / FRAME_CHUNK].get_or_init(|| {
                let len = FRAME_CHUNK.min(self.capacity - start);
                (0..len).map(|_| Frame::new()).collect()
            });
            latch.frames += 1;
            let frame = &chunk[idx % FRAME_CHUNK];
            // Unpublished, so no hit can reach it.
            frame.pins.store(CLAIMED, Ordering::Relaxed);
            return Ok((idx, frame));
        }
        let (idx, victim) = loop {
            // A plain loop: `filter` + `min_by_key` over the chunked
            // iterator measured ~1 µs slower per miss at 128 frames.
            let mut least: Option<(usize, &Frame, u64)> = None;
            for (idx, frame) in self.frames().take(latch.frames).enumerate() {
                if frame.pins.load(Ordering::Relaxed) == 0 {
                    let key = frame.lru_key();
                    if least.is_none_or(|(_, _, min)| key < min) {
                        least = Some((idx, frame, key));
                    }
                }
            }
            let (idx, victim, _) = least.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ResourceBusy,
                    format!("buffer pool exhausted: all {} frames pinned", self.capacity),
                )
            })?;
            // Else a hit pinned it since the scan: choose again.
            if victim.try_claim() {
                break (idx, victim);
            }
        };
        let old_id = victim.page_id.load(Ordering::Relaxed);
        if victim.dirty.load(Ordering::Relaxed) {
            if let Err(e) = self.write_back(old_id, victim) {
                victim.unclaim();
                return Err(e);
            }
            self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
        }
        if old_id != NO_PAGE {
            self.table.clear(old_id);
            victim.page_id.store(NO_PAGE, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((idx, victim))
    }

    /// WAL-disciplined write of a claimed frame as page `id`: when the
    /// page's LSN is not yet durable, force the whole pending log
    /// *before* the data write, then seal the checksum and write. Forcing
    /// all of it rather than the prefix up to this LSN makes the frames
    /// written after it, whose LSNs are usually older, need no force of
    /// their own. Caller holds the latch.
    fn write_back(&self, id: PageId, frame: &Frame) -> io::Result<()> {
        let mut slot = write(&frame.slot);
        if let Some(wal) = &self.wal {
            if slot.page.lsn() > wal.flushed_lsn() {
                wal.flush_all()?;
            }
        }
        slot.page.seal();
        lock(&self.file).write_page(id, &slot.page)?;
        frame.dirty.store(false, Ordering::Relaxed);
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs from `PageGuard::drop`.
    fn unpin(&self, frame: &Frame, dirtied: bool) {
        if dirtied {
            frame.dirty.store(true, Ordering::Relaxed);
        }
        let tick = self.tick.0.fetch_add(1, Ordering::Relaxed) + 1;
        frame.last_use.store(tick, Ordering::Relaxed);
        // ordering: release hands this pin's page writes and dirty bit
        // to the claim that next takes the frame (its acquire).
        let pins = frame.pins.fetch_sub(1, Ordering::Release);
        assert!(pins & !CLAIMED > 0, "unpin of an unpinned frame");
    }

    /// Write every dirty frame back (WAL first) and sync the file — the
    /// bulkload commit point. The first frame whose LSN is not durable
    /// forces the whole pending log, so the rest force nothing: one log
    /// force per call, not one per frame.
    ///
    /// # Errors
    /// I/O failure; also if a dirty frame is still pinned.
    pub fn flush_all(&self) -> io::Result<()> {
        let latch = lock(&self.latch);
        for frame in self.frames().take(latch.frames) {
            if !frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            let page_id = frame.page_id.load(Ordering::Relaxed);
            if !frame.try_claim() {
                return Err(io::Error::other(format!(
                    "flush_all with page {page_id} still pinned"
                )));
            }
            let written = self.write_back(page_id, frame);
            frame.unclaim();
            written?;
        }
        drop(latch);
        lock(&self.file).sync()
    }
}

/// A pinned page. Reading goes through [`PageGuard::read`]; writing
/// through [`PageGuard::write`], which marks the frame dirty at unpin.
/// Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    frame: &'a Frame,
    page_id: PageId,
    dirty: bool,
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.page_id)
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
        PageRead(read(&self.frame.slot))
    }

    /// Exclusive write access; the frame is marked dirty when the guard
    /// unpins.
    pub fn write(&mut self) -> PageWrite<'_> {
        self.dirty = true;
        PageWrite(write(&self.frame.slot))
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame, self.dirty);
    }
}

/// A pin that holds its frame's read lock as long as it lives, from
/// [`BufferPool::pin_read`]; derefs to the page.
pub(crate) struct PinnedPage<'a> {
    // Declared first, so the lock goes before the pin.
    slot: RwLockReadGuard<'a, Slot>,
    guard: PageGuard<'a>,
}

impl<'a> PinnedPage<'a> {
    /// The pinned page's id.
    pub(crate) fn page_id(&self) -> PageId {
        self.guard.page_id
    }

    /// Let the read lock go and keep the pin.
    fn into_guard(self) -> PageGuard<'a> {
        let PinnedPage { slot, guard } = self;
        drop(slot);
        guard
    }
}

impl Deref for PinnedPage<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.slot.page
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
            // The miss is counted under the latch once the mapping is
            // published.
            assert!(pool.table.get(id).is_some());
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

    #[test]
    fn a_hit_through_a_stale_frame_index_backs_off() {
        let (pool, path) = seeded_pool("stale", 4, 2);
        drop(pool.pin(0).unwrap());
        let idx = pool.table.get(0).unwrap();
        drop(pool.pin(1).unwrap());
        drop(pool.pin(2).unwrap()); // page 2 takes page 0's frame
        assert_eq!(pool.table.get(0), None);
        assert_eq!(pool.table.get(2), Some(idx));
        let frame = pool.frame(idx);
        // A hit that looked page 0 up before the eviction pins after it:
        // it must see the frame holds another page and take its pin back.
        assert!(pool.try_hit(0, idx).is_none());
        assert_eq!(frame.pins.load(Ordering::Relaxed), 0);
        // A hit on a frame the latch holder has claimed backs off too.
        assert!(frame.try_claim());
        assert!(pool.try_hit(2, idx).is_none());
        assert_eq!(frame.pins.load(Ordering::Relaxed), CLAIMED);
        frame.unclaim();
        let (g0, g2) = (pool.pin(0).unwrap(), pool.pin(2).unwrap());
        assert_eq!(g0.read().record(0), b"page-0");
        assert_eq!(g2.read().record(0), b"page-2");
        drop((g0, g2));
        std::fs::remove_file(path).unwrap();
    }

    /// splitmix64: a seeded stream for the scripted tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Whether page `id` is published in a frame.
    fn resident(pool: &BufferPool, id: PageId) -> bool {
        pool.table.get(id).is_some()
    }

    /// A plain LRU pool: frames grow to the capacity, then the victim is
    /// the least recent unpin among the unpinned frames.
    struct LruModel {
        capacity: usize,
        /// `(page, pins, last unpin)` per frame.
        frames: Vec<(PageId, u32, u64)>,
        tick: u64,
        stats: PoolStats,
    }

    impl LruModel {
        fn pin(&mut self, page: PageId) {
            if let Some(f) = self.frames.iter_mut().find(|f| f.0 == page) {
                f.1 += 1;
                self.stats.hits += 1;
                return;
            }
            self.stats.misses += 1;
            self.stats.pages_read += 1;
            if self.frames.len() < self.capacity {
                self.frames.push((page, 1, 0));
                return;
            }
            let victim = (self.frames.iter_mut())
                .filter(|f| f.1 == 0)
                .min_by_key(|f| f.2)
                .expect("the scripts never pin every frame");
            *victim = (page, 1, 0);
            self.stats.evictions += 1;
        }

        fn unpin(&mut self, page: PageId) {
            self.tick += 1;
            let f = self.frames.iter_mut().find(|f| f.0 == page).unwrap();
            f.1 -= 1;
            f.2 = self.tick;
        }
    }

    #[test]
    fn replacement_matches_a_plain_lru_model() {
        let mut rng = Rng(0x5eed);
        for case in 0..48 {
            let capacity = 2 + rng.below(7);
            let pages = (capacity * (3 + rng.below(2))) as PageId;
            let (pool, path) = seeded_pool(&format!("model-{case}"), pages, capacity);
            let mut model = LruModel {
                capacity,
                frames: Vec::new(),
                tick: 0,
                stats: PoolStats::default(),
            };
            let mut held: Vec<PageGuard<'_>> = Vec::new();
            for step in 0..300 {
                if rng.below(10) < 3 && !held.is_empty() {
                    let g = held.swap_remove(rng.below(held.len()));
                    model.unpin(g.page_id());
                    drop(g);
                    continue;
                }
                let id = rng.below(pages as usize) as PageId;
                model.pin(id);
                let g = pool.pin(id).unwrap();
                assert_eq!(g.read().record(0), format!("page-{id}").as_bytes());
                // Counters and residency after every pin: a miss that
                // evicted another page than the model's victim shows as
                // a different resident set.
                let mut want: Vec<PageId> = model.frames.iter().map(|f| f.0).collect();
                want.sort_unstable();
                let got: Vec<PageId> = (0..pages).filter(|&p| resident(&pool, p)).collect();
                assert_eq!(got, want, "case {case} step {step}: resident pages");
                assert_eq!(pool.stats(), model.stats, "case {case} step {step}");
                // Hold it, as long as one frame stays unpinned.
                if rng.below(2) == 0 && held.len() + 2 < capacity {
                    held.push(g);
                } else {
                    model.unpin(id);
                    drop(g);
                }
            }
            drop(held);
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn concurrent_pins_read_their_own_pages_and_count_exactly() {
        const THREADS: u64 = 4;
        const ROUNDS: usize = 20_000;
        let capacity = 16;
        let pages = 4 * capacity as PageId;
        let (pool, path) = seeded_pool("stress", pages, capacity);
        let issued: usize = std::thread::scope(|s| {
            let readers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pool = &pool;
                    s.spawn(move || {
                        let mut rng = Rng(t);
                        // At most 3 pins per thread, as the page-run
                        // reader holds: half plain guards, half pins
                        // that keep the frame's read lock.
                        let mut guards = Vec::new();
                        let mut reads = Vec::new();
                        for round in 0..ROUNDS {
                            while guards.len() + reads.len() >= 3
                                || (guards.len() + reads.len() > 0 && rng.below(2) == 0)
                            {
                                if guards.is_empty() || (!reads.is_empty() && rng.below(2) == 0) {
                                    reads.swap_remove(0);
                                } else {
                                    guards.swap_remove(0);
                                }
                            }
                            let id = rng.below(pages as usize) as PageId;
                            let want = format!("page-{id}");
                            if round % 2 == 0 {
                                let g = pool.pin(id).unwrap();
                                assert_eq!(g.read().record(0), want.as_bytes());
                                guards.push(g);
                            } else {
                                let p = pool.pin_read(id).unwrap();
                                assert_eq!(p.record(0), want.as_bytes());
                                reads.push(p);
                            }
                        }
                        ROUNDS
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, issued as u64, "{s:?}");
        assert_eq!(s.pages_read, s.misses, "{s:?}");
        // No leaked pin: every frame of the pool can be pinned at once.
        let all: Vec<_> = (0..capacity as PageId)
            .map(|id| pool.pin(id).unwrap())
            .collect();
        for g in &all {
            let id = g.page_id();
            assert_eq!(g.read().record(0), format!("page-{id}").as_bytes());
        }
        drop(all);
        std::fs::remove_file(path).unwrap();
    }
}
