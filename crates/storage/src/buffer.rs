//! Decentralized, disk-capable buffer manager.
//!
//! The pool is built so that a buffer **hit** — the overwhelmingly
//! common case — takes zero shared locks beyond one striped page-table
//! shard, and so that no path ever holds a global lock across I/O:
//!
//! * **Sharded page table.** The `PageId → frame` map is striped over a
//!   power-of-two number of shards, each its own `Mutex<HashMap>` keyed
//!   by a one-multiply hash. A shard lock is held for a map probe plus
//!   an atomic pin bump — never across I/O or a frame latch — and a hit
//!   writes no pool-wide word: its count lives in the shard it holds.
//! * **Reader/writer frame latches.** Each frame carries an `RwLock`
//!   over its page bytes ([`BufferPool::read_page`] shares it,
//!   [`BufferPool::with_page`] takes it exclusively). Pin counts, dirty
//!   bits and the page-LSN mirror are atomics, usable without the latch.
//! * **Clock (second-chance) eviction.** One reference bit per frame,
//!   set by a hit (only when clear) and cleared by the passing hand; a
//!   miss advances the one shared hand to the first unpinned frame
//!   whose bit is clear — O(1) amortised, no allocation. Pages load with
//!   the bit clear, so a scan's one-touch pages leave first. A miss that
//!   finds every frame pinned waits, bounded by time, for a pin to drop,
//!   then fails with the retryable [`StorageError::BufferPoolFull`].
//! * **One read, into the frame.** A miss does a single positioned read
//!   straight into the claimed frame's own buffer under its write latch:
//!   no intermediate allocation, no second copy, no file-wide lock.
//! * **WAL-before-data.** Pages carry the LSN of their last mutation
//!   (stamped by the pool when a page is dirtied, persisted in the page
//!   header — see [`crate::page`]). A dirty page is never written to
//!   the page store until the WAL is durable past that LSN: eviction
//!   forces the log if it must; the background writer simply skips
//!   pages the log has not caught up to. Recovery never reads data
//!   pages, so a crash that loses page-store writes can always rebuild
//!   them from the log — the gate makes the converse (a page write the
//!   log knows nothing about) impossible.
//! * **Background writeback.** A writer thread wakes under eviction
//!   pressure (recent misses, or when half the pool is dirty) and
//!   pushes dirty, log-covered pages to the store so hot-path eviction
//!   almost always finds a clean victim and pays no synchronous write.
//!
//! Two page stores implement [`PageStore`]: [`MemStore`] (an in-memory
//! map, the default) and [`FilePageStore`] (a fixed-size page file over
//! the [`crate::io`] traits, so larger-than-memory workloads run for
//! real and faults are injectable through `SimFs`).
//!
//! The pool deliberately uses only `std::sync` primitives — no shimmed
//! crates — like the WAL and the transaction table (see
//! `shims/README.md`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::error::{StorageError, StorageResult};
use crate::io::{PageFile, WalFs};
use crate::page::{SlottedPage, PAGE_SIZE};
use crate::types::{Lsn, PageId};

/// Backing store under the buffer pool.
///
/// All I/O is fallible: the file-backed store surfaces real I/O errors
/// (and injected ones, via `SimFs`) as [`StorageError::PageIo`].
pub trait PageStore: Send + Sync {
    /// Reads a page's bytes into `buf` (the frame's own buffer).
    /// Returns `false` if the page was never written; `buf` is then
    /// unspecified and the caller formats it in place.
    fn read_into(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<bool>;
    /// Writes a page's bytes (exactly [`PAGE_SIZE`] of them).
    fn write_page(&self, pid: PageId, data: &[u8]) -> StorageResult<()>;
    /// Allocates a fresh page id (ids start at 1; 0 is the "no page"
    /// sentinel).
    fn allocate(&self) -> PageId;
    /// Number of pages allocated so far.
    fn allocated(&self) -> u64;
    /// Forces written pages to stable storage (checkpoint fsync).
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// The buffer pool's view of the write-ahead log, for the
/// WAL-before-data gate. [`crate::wal::LogManager`] implements it.
pub trait WalGate: Send + Sync {
    /// Upper bound on the LSN of any record already appended — used to
    /// stamp pages at dirty time (the mutation's own record was
    /// appended before the page was touched, so this bounds it from
    /// above).
    fn current_lsn(&self) -> Lsn;
    /// Highest LSN known durable.
    fn flushed_lsn(&self) -> Lsn;
    /// Makes the log durable through `lsn`.
    fn force_lsn(&self, lsn: Lsn) -> StorageResult<()>;
}

fn page_io(err: std::io::Error) -> StorageError {
    StorageError::PageIo(err.to_string())
}

// ---------------------------------------------------------------------------
// Page stores
// ---------------------------------------------------------------------------

/// In-memory [`PageStore`] backed by a map ("infinitely fast disk").
pub struct MemStore {
    pages: RwLock<HashMap<PageId, Box<[u8; PAGE_SIZE]>>>,
    next: AtomicU64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore {
            pages: RwLock::new(HashMap::new()),
            next: AtomicU64::new(1),
        }
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemStore {
    fn read_into(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<bool> {
        let pages = self.pages.read().unwrap_or_else(|e| e.into_inner());
        let page = pages.get(&pid);
        if let Some(page) = page {
            *buf = **page;
        }
        Ok(page.is_some())
    }

    fn write_page(&self, pid: PageId, data: &[u8]) -> StorageResult<()> {
        let mut pages = self.pages.write().unwrap_or_else(|e| e.into_inner());
        pages
            .entry(pid)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
            .copy_from_slice(data);
        Ok(())
    }

    fn allocate(&self) -> PageId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// File-backed [`PageStore`]: one fixed-size page file (`pages.db`)
/// under a directory, addressed as `offset = (pid - 1) * PAGE_SIZE`.
///
/// Built on the [`crate::io::PageFile`] surface, so it runs over real
/// files (`StdFs`) and the deterministic fault injector (`SimFs`)
/// alike. [`sync`](PageStore::sync) is called by the pool's
/// [`BufferPool::flush_all`] (i.e. at checkpoint), which is what makes
/// flushed pages durable.
pub struct FilePageStore {
    file: Box<dyn PageFile>,
    next: AtomicU64,
}

impl FilePageStore {
    /// Opens (or creates) the page file under `dir`. The allocation
    /// cursor resumes from the file length, so page ids never collide
    /// across restarts; a torn trailing partial page (crash during
    /// extension) is simply overwritten by the next allocation.
    pub fn open(fs: &dyn WalFs, dir: &Path) -> StorageResult<Self> {
        fs.create_dir_all(dir).map_err(page_io)?;
        let file = fs.open_page_file(&dir.join("pages.db")).map_err(page_io)?;
        let len = file.byte_len().map_err(page_io)?;
        let allocated = len / PAGE_SIZE as u64;
        Ok(FilePageStore {
            file,
            next: AtomicU64::new(allocated + 1),
        })
    }
}

impl PageStore for FilePageStore {
    fn read_into(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<bool> {
        // One positioned read. A page that ends past end-of-file
        // (never written, or a torn trailing extension) is "no bytes".
        match self.file.read_at((pid - 1) * PAGE_SIZE as u64, buf) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(page_io(e)),
        }
    }

    fn write_page(&self, pid: PageId, data: &[u8]) -> StorageResult<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let offset = (pid - 1) * PAGE_SIZE as u64;
        self.file.write_at(offset, data).map_err(page_io)
    }

    fn allocate(&self) -> PageId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed).saturating_sub(1)
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.sync().map_err(page_io)
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Pool counters off the hit path (hits are counted in [`Shard`]). All
/// atomics: sampled without any lock.
#[derive(Default)]
struct BufferStats {
    misses: AtomicU64,
    evictions: AtomicU64,
    eviction_writes: AtomicU64,
    writebacks: AtomicU64,
    table_waits: AtomicU64,
    latch_waits: AtomicU64,
}

/// Point-in-time copy of the pool's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStatsSnapshot {
    /// Pins satisfied from a resident frame.
    pub hits: u64,
    /// Pins that had to load the page from the store.
    pub misses: u64,
    /// Pages displaced from a frame to make room.
    pub evictions: u64,
    /// Evictions that paid a synchronous store write (dirty victim the
    /// background writer had not cleaned yet).
    pub eviction_writes: u64,
    /// Dirty pages pushed to the store by the background writer.
    pub writebacks: u64,
    /// Contended page-table shard acquisitions (another thread held the
    /// shard when we arrived).
    pub table_waits: u64,
    /// Contended frame-latch acquisitions.
    pub latch_waits: u64,
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Latch-protected part of a frame: which page it holds and its bytes.
#[derive(Default)]
struct FrameData {
    /// 0 = empty frame.
    pid: PageId,
    page: SlottedPage,
}

#[derive(Default)]
struct Frame {
    data: RwLock<FrameData>,
    /// Pins on the frame; a pinned frame is never evicted. Updated
    /// without the latch (pinning is what *grants* the right to take
    /// the latch).
    pin_count: AtomicU32,
    dirty: AtomicBool,
    /// Mirror of the page header LSN, readable without the latch — the
    /// eviction policy and background writer use it to decide, then
    /// read the authoritative value under the latch to act.
    page_lsn: AtomicU64,
    /// Clock reference bit: set by a hit, cleared by the passing hand.
    referenced: AtomicBool,
}

// ---------------------------------------------------------------------------
// Pool core
// ---------------------------------------------------------------------------

/// One multiply spreads sequential page ids over the whole word: the
/// high half picks the shard, the map inside the shard uses the rest.
fn mix(pid: PageId) -> u64 {
    pid.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// [`Hasher`] for the page-table maps: [`mix`] instead of SipHash (page
/// ids are allocated by the store, never chosen by a client).
#[derive(Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page ids hash through write_u64");
    }
    fn write_u64(&mut self, pid: u64) {
        self.0 = mix(pid);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One stripe of the page table.
#[derive(Default)]
struct Shard {
    map: HashMap<PageId, usize, BuildHasherDefault<PidHasher>>,
    /// Pins satisfied from this shard's resident frames.
    hits: u64,
}

/// How long a miss that finds every frame pinned waits for a pin (held
/// for one page access) to drop before failing with `BufferPoolFull`.
const PIN_WAIT: Duration = Duration::from_secs(1);

struct PoolCore {
    store: Arc<dyn PageStore>,
    gate: Option<Arc<dyn WalGate>>,
    frames: Box<[Frame]>,
    shards: Box<[Mutex<Shard>]>,
    /// The clock hand: index (mod frame count) of the next frame a miss
    /// inspects. Like the reference bits, a hint: any value is safe.
    hand: AtomicUsize,
    /// Count of dirty frames (exact: every set/clear goes through an
    /// atomic swap and adjusts the counter only on a real transition).
    dirty_frames: AtomicU64,
    stats: BufferStats,
}

fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Takes the guard `attempt` got, or counts a contended wait in `waits`
/// and blocks for it.
fn or_wait<G>(
    attempt: std::sync::TryLockResult<G>,
    waits: &AtomicU64,
    block: impl FnOnce() -> std::sync::LockResult<G>,
) -> G {
    match attempt {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            waits.fetch_add(1, Ordering::Relaxed);
            block().unwrap_or_else(|e| e.into_inner())
        }
    }
}

impl PoolCore {
    /// Locks `pid`'s shard, counting the acquisition as contended if
    /// another thread held it when we arrived.
    fn lock_shard(&self, pid: PageId) -> MutexGuard<'_, Shard> {
        // The shard count is a power of two.
        let m = &self.shards[(mix(pid) >> 32) as usize & (self.shards.len() - 1)];
        or_wait(m.try_lock(), &self.stats.table_waits, || m.lock())
    }

    fn read_latch(&self, idx: usize) -> RwLockReadGuard<'_, FrameData> {
        let l = &self.frames[idx].data;
        or_wait(l.try_read(), &self.stats.latch_waits, || l.read())
    }

    fn write_latch(&self, idx: usize) -> RwLockWriteGuard<'_, FrameData> {
        let l = &self.frames[idx].data;
        or_wait(l.try_write(), &self.stats.latch_waits, || l.write())
    }

    /// Records a hit in the frame's reference bit (a write only when
    /// the hand has cleared it since the last hit).
    fn touch(&self, idx: usize) {
        let referenced = &self.frames[idx].referenced;
        if !referenced.load(Ordering::Relaxed) {
            referenced.store(true, Ordering::Relaxed);
        }
    }

    /// WAL-before-data: ensures the log is durable through `lsn` before
    /// a page stamped with it may reach the store.
    fn wal_barrier(&self, lsn: Lsn) -> StorageResult<()> {
        if let Some(gate) = &self.gate {
            if lsn > gate.flushed_lsn() {
                gate.force_lsn(lsn)?;
            }
        }
        Ok(())
    }

    fn mark_clean(&self, idx: usize) -> bool {
        let was_dirty = self.frames[idx].dirty.swap(false, Ordering::Relaxed);
        if was_dirty {
            self.dirty_frames.fetch_sub(1, Ordering::Relaxed);
        }
        was_dirty
    }

    fn mark_dirty(&self, idx: usize) {
        if !self.frames[idx].dirty.swap(true, Ordering::Relaxed) {
            self.dirty_frames.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pins `pid`, loading it into a frame if necessary. Returns the
    /// frame index with the pin already counted and **no latch held**;
    /// the pin is what keeps the frame from being stolen until
    /// [`unpin`](Self::unpin).
    fn pin(&self, pid: PageId) -> StorageResult<usize> {
        debug_assert_ne!(pid, 0, "page id 0 is the empty sentinel");
        {
            let mut shard = self.lock_shard(pid);
            if let Some(&idx) = shard.map.get(&pid) {
                self.frames[idx].pin_count.fetch_add(1, Ordering::Relaxed);
                shard.hits += 1;
                drop(shard);
                self.touch(idx);
                return Ok(idx);
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.load_page(pid)
    }

    /// Pins `pid` and latches its frame with `latch`, retrying from the
    /// table when the frame turns out not to hold `pid` (we adopted a
    /// reservation whose load failed and was rolled back).
    fn pin_latched<'a, G: std::ops::Deref<Target = FrameData>>(
        &'a self,
        pid: PageId,
        latch: impl Fn(&'a Self, usize) -> G,
    ) -> StorageResult<(usize, G)> {
        loop {
            let idx = self.pin(pid)?;
            let guard = latch(self, idx);
            if guard.pid == pid {
                return Ok((idx, guard));
            }
            drop(guard);
            self.unpin(idx);
        }
    }

    fn unpin(&self, idx: usize) {
        let prev = self.frames[idx].pin_count.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "unpin without a pin");
    }

    /// Miss path: claim a victim frame, **reserve** the mapping, then
    /// read the page from the store into the frame's own buffer under
    /// its write latch.
    ///
    /// The reservation (publishing `pid → idx` before the store read)
    /// is load-bearing: a concurrent miss on the same page adopts this
    /// frame and waits on its latch for the bytes. If it instead did
    /// its own store read, that read could complete *before* this copy
    /// is mutated and evicted, and publish stale bytes afterwards —
    /// resurrecting the pre-mutation page (a lost update). No shard
    /// lock is ever held across the I/O; only this frame's latch is.
    fn load_page(&self, pid: PageId) -> StorageResult<usize> {
        let (idx, mut guard) = self.claim_victim()?;
        let frame = &self.frames[idx];
        {
            let mut shard = self.lock_shard(pid);
            if let Some(&winner) = shard.map.get(&pid) {
                // Someone reserved it while we were claiming; adopt the
                // winner (possibly still loading — we'll wait on its
                // latch) and put our frame back as empty.
                self.frames[winner]
                    .pin_count
                    .fetch_add(1, Ordering::Relaxed);
                drop(shard);
                self.release_empty(idx, guard);
                self.touch(winner);
                return Ok(winner);
            }
            guard.pid = pid;
            frame.pin_count.store(1, Ordering::Relaxed);
            shard.map.insert(pid, idx);
        }
        match self.store.read_into(pid, guard.page.as_bytes_mut()) {
            Ok(written) => {
                if !written {
                    guard.page.format();
                }
                frame.page_lsn.store(guard.page.lsn(), Ordering::Relaxed);
                Ok(idx)
            }
            Err(e) => {
                // Roll the reservation back. Adopters that already
                // pinned keep their pins; when they latch the frame they
                // see `pid == 0` and retry their own pin (and hit this
                // same error if it persists).
                let mut shard = self.lock_shard(pid);
                if shard.map.get(&pid) == Some(&idx) {
                    shard.map.remove(&pid);
                }
                drop(shard);
                self.unpin(idx);
                self.release_empty(idx, guard);
                Err(e)
            }
        }
    }

    /// Gives a claimed frame back as empty and points the hand at it,
    /// so the next miss takes it before evicting anything.
    fn release_empty(&self, idx: usize, mut guard: RwLockWriteGuard<'_, FrameData>) {
        guard.pid = 0;
        drop(guard);
        self.hand.store(idx, Ordering::Relaxed);
    }

    /// Claims an eviction victim by clock sweep: the hand skips pinned
    /// frames, clears a referenced frame's bit (its second chance), and
    /// takes the first unpinned frame whose bit is already clear — an
    /// empty frame's always is. Two revolutions suffice unless every
    /// frame is pinned; then wait, at most [`PIN_WAIT`], for a pin to
    /// drop. The returned frame is unmapped (and written back if dirty).
    fn claim_victim(&self) -> StorageResult<(usize, RwLockWriteGuard<'_, FrameData>)> {
        let frames = self.frames.len();
        let mut deadline = None;
        loop {
            for _ in 0..2 * frames {
                let idx = self.hand.fetch_add(1, Ordering::Relaxed) % frames;
                let frame = &self.frames[idx];
                if frame.pin_count.load(Ordering::Relaxed) != 0
                    || frame.referenced.swap(false, Ordering::Relaxed)
                {
                    continue;
                }
                if let Some(guard) = self.try_claim(idx)? {
                    return Ok((idx, guard));
                }
            }
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + PIN_WAIT) {
                return Err(StorageError::BufferPoolFull);
            }
            std::thread::yield_now();
        }
    }

    /// Attempts to claim frame `idx` for reuse. On success the frame's
    /// old page (if any) has been written back (WAL first) and
    /// unmapped, and the returned write guard owns the frame.
    fn try_claim(&self, idx: usize) -> StorageResult<Option<RwLockWriteGuard<'_, FrameData>>> {
        let frame = &self.frames[idx];
        let guard = match frame.data.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return Ok(None),
        };
        if frame.pin_count.load(Ordering::Relaxed) != 0 {
            return Ok(None);
        }
        let old_pid = guard.pid;
        if old_pid != 0 {
            // Write back *before* unmapping: a concurrent miss on
            // old_pid must never read stale store bytes while the only
            // current copy sits in this frame. A failure here leaves
            // the page mapped, dirty, and intact.
            if frame.dirty.load(Ordering::Relaxed) {
                self.wal_barrier(guard.page.lsn())?;
                self.store.write_page(old_pid, guard.page.as_bytes())?;
                self.mark_clean(idx);
                self.stats.eviction_writes.fetch_add(1, Ordering::Relaxed);
            }
            // Unmap under the shard lock. The pin re-check is
            // authoritative: the hit path bumps pins under this same
            // lock, so either it pinned first (we abort; the page stays
            // resident, merely clean now) or we unmap first (it misses
            // and reloads from the store we just wrote).
            let mut shard = self.lock_shard(old_pid);
            if frame.pin_count.load(Ordering::Relaxed) != 0 {
                return Ok(None);
            }
            if shard.map.get(&old_pid) == Some(&idx) {
                shard.map.remove(&old_pid);
            }
            drop(shard);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(guard))
    }

    /// One background-writeback sweep: push dirty, log-covered,
    /// uncontended pages to the store. Never forces the WAL and never
    /// blocks on a latch — it only makes future evictions cheaper.
    fn writeback_sweep(&self) {
        let flushed = self.gate.as_ref().map_or(Lsn::MAX, |g| g.flushed_lsn());
        for (idx, frame) in self.frames.iter().enumerate() {
            if !frame.dirty.load(Ordering::Relaxed)
                || frame.page_lsn.load(Ordering::Relaxed) > flushed
            {
                continue;
            }
            let Ok(guard) = frame.data.try_read() else {
                continue;
            };
            if guard.pid == 0 || !frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            // Authoritative LSN under the latch (the mirror may lag).
            if guard.page.lsn() > flushed {
                continue;
            }
            if self
                .store
                .write_page(guard.pid, guard.page.as_bytes())
                .is_err()
            {
                // Leave it dirty; eviction or the next sweep retries.
                continue;
            }
            if self.mark_clean(idx) {
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public pool
// ---------------------------------------------------------------------------

/// The buffer pool. See the module docs for the design.
pub struct BufferPool {
    core: Arc<PoolCore>,
    shutdown: Arc<(Mutex<bool>, Condvar)>,
    writeback: Mutex<Option<std::thread::JoinHandle<()>>>,
}

const WRITEBACK_INTERVAL: Duration = Duration::from_millis(5);

impl BufferPool {
    /// Creates a pool of `capacity` frames over `store`, with no WAL
    /// gate (pages are always evictable).
    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> Self {
        Self::with_gate(store, capacity, None)
    }

    /// Creates a pool whose eviction and writeback honor the
    /// WAL-before-data gate.
    pub fn with_gate(
        store: Arc<dyn PageStore>,
        capacity: usize,
        gate: Option<Arc<dyn WalGate>>,
    ) -> Self {
        let capacity = capacity.max(1);
        let shard_count = (capacity / 4).next_power_of_two().clamp(1, 128);
        let core = Arc::new(PoolCore {
            store,
            gate,
            frames: (0..capacity).map(|_| Frame::default()).collect(),
            shards: (0..shard_count).map(|_| Mutex::default()).collect(),
            hand: AtomicUsize::new(0),
            dirty_frames: AtomicU64::new(0),
            stats: BufferStats::default(),
        });
        let shutdown = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let core = core.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("buffer-writeback".into())
                .spawn(move || writeback_loop(core, shutdown))
                .expect("spawn writeback thread")
        };
        BufferPool {
            core,
            shutdown,
            writeback: Mutex::new(Some(handle)),
        }
    }

    /// Creates a pool over a fresh in-memory store.
    pub fn in_memory(capacity: usize) -> Self {
        Self::new(Arc::new(MemStore::new()), capacity)
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.core.frames.len()
    }

    /// Snapshots every counter.
    pub fn stats(&self) -> BufferStatsSnapshot {
        let stats = &self.core.stats;
        BufferStatsSnapshot {
            hits: self.core.shards.iter().map(|s| lock_mutex(s).hits).sum(),
            misses: stats.misses.load(Ordering::Relaxed),
            evictions: stats.evictions.load(Ordering::Relaxed),
            eviction_writes: stats.eviction_writes.load(Ordering::Relaxed),
            writebacks: stats.writebacks.load(Ordering::Relaxed),
            table_waits: stats.table_waits.load(Ordering::Relaxed),
            latch_waits: stats.latch_waits.load(Ordering::Relaxed),
        }
    }

    /// Number of currently dirty frames.
    pub fn dirty_frames(&self) -> u64 {
        self.core.dirty_frames.load(Ordering::Relaxed)
    }

    /// Total pages allocated in the backing store.
    pub fn allocated_pages(&self) -> u64 {
        self.core.store.allocated()
    }

    /// Whether `pid` currently occupies a frame (test/telemetry hook;
    /// the answer can be stale by the time the caller looks at it).
    pub fn is_resident(&self, pid: PageId) -> bool {
        self.core.lock_shard(pid).map.contains_key(&pid)
    }

    /// Allocates a fresh page in the store, eagerly formatted so a
    /// later read (possibly after eviction, possibly after restart)
    /// always sees a valid slotted page.
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        let pid = self.core.store.allocate();
        self.core
            .store
            .write_page(pid, SlottedPage::new().as_bytes())?;
        Ok(pid)
    }

    /// Runs `f` with exclusive access to the page. `f` returns
    /// `(result, dirtied)`; if `dirtied`, the pool stamps the page with
    /// the WAL's current LSN (the record covering the mutation was
    /// appended before this call, so the stamp bounds it from above)
    /// and marks the frame dirty.
    pub fn with_page<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut SlottedPage) -> (R, bool),
    ) -> StorageResult<R> {
        let core = &self.core;
        let (idx, mut guard) = core.pin_latched(pid, PoolCore::write_latch)?;
        let (result, dirtied) = f(&mut guard.page);
        if dirtied {
            let stamp = core.gate.as_ref().map_or(0, |g| g.current_lsn());
            if stamp > guard.page.lsn() {
                guard.page.set_lsn(stamp);
            }
            core.frames[idx]
                .page_lsn
                .store(guard.page.lsn(), Ordering::Relaxed);
            core.mark_dirty(idx);
        }
        drop(guard);
        core.unpin(idx);
        Ok(result)
    }

    /// Runs `f` with shared access to the page — concurrent with other
    /// readers of the same page.
    pub fn read_page<R>(&self, pid: PageId, f: impl FnOnce(&SlottedPage) -> R) -> StorageResult<R> {
        let (idx, guard) = self.core.pin_latched(pid, PoolCore::read_latch)?;
        let result = f(&guard.page);
        drop(guard);
        self.core.unpin(idx);
        Ok(result)
    }

    /// Flushes every dirty page to the store (WAL first) and syncs the
    /// store. No global lock is held: the dirty set is collected from
    /// the per-frame atomics, the WAL is forced once up to the set's
    /// maximum LSN, and each page is then written under its own shared
    /// latch.
    pub fn flush_all(&self) -> StorageResult<()> {
        let core = &self.core;
        let mut dirty = Vec::new();
        let mut max_lsn: Lsn = 0;
        for (idx, frame) in core.frames.iter().enumerate() {
            if frame.dirty.load(Ordering::Relaxed) {
                dirty.push(idx);
                max_lsn = max_lsn.max(frame.page_lsn.load(Ordering::Relaxed));
            }
        }
        core.wal_barrier(max_lsn)?;
        for idx in dirty {
            let frame = &core.frames[idx];
            let guard = core.read_latch(idx);
            if guard.pid == 0 || !frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            // A mutation after the collection pass may have stamped the
            // page past the barrier; force again for this page (rare).
            core.wal_barrier(guard.page.lsn())?;
            core.store.write_page(guard.pid, guard.page.as_bytes())?;
            core.mark_clean(idx);
        }
        core.store.sync()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shutdown;
        *lock_mutex(lock) = true;
        cv.notify_all();
        if let Some(handle) = lock_mutex(&self.writeback).take() {
            let _ = handle.join();
        }
    }
}

/// Background writer: wakes every few milliseconds, and sweeps only
/// under eviction pressure — recent misses (the pool is cycling) or a
/// half-dirty pool — so an all-resident workload pays nothing.
fn writeback_loop(core: Arc<PoolCore>, shutdown: Arc<(Mutex<bool>, Condvar)>) {
    let mut last_misses = 0u64;
    loop {
        {
            let (lock, cv) = &*shutdown;
            let guard = lock_mutex(lock);
            let (guard, _) = cv
                .wait_timeout(guard, WRITEBACK_INTERVAL)
                .unwrap_or_else(|e| e.into_inner());
            if *guard {
                return;
            }
        }
        if core.dirty_frames.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let misses = core.stats.misses.load(Ordering::Relaxed);
        let pressure = misses != last_misses
            || core.dirty_frames.load(Ordering::Relaxed) * 2 >= core.frames.len() as u64;
        last_misses = misses;
        if pressure {
            core.writeback_sweep();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn record(tag: u8) -> Vec<u8> {
        vec![tag; 64]
    }

    /// The page as the store holds it, or `None` if never written.
    fn stored(store: &dyn PageStore, pid: PageId) -> Option<SlottedPage> {
        let mut page = SlottedPage::new();
        store
            .read_into(pid, page.as_bytes_mut())
            .unwrap()
            .then_some(page)
    }

    #[test]
    fn allocate_write_read_back() {
        let pool = BufferPool::in_memory(4);
        let pid = pool.allocate_page().unwrap();
        let slot = pool
            .with_page(pid, |p| (p.insert(b"hello").unwrap(), true))
            .unwrap();
        let got = pool
            .read_page(pid, |p| p.get(slot).map(|r| r.to_vec()))
            .unwrap();
        assert_eq!(got.unwrap(), b"hello");
    }

    #[test]
    fn eviction_preserves_data() {
        let pool = BufferPool::in_memory(2);
        let mut pids = Vec::new();
        for i in 0..10u8 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page(pid, |p| (p.insert(&record(i)).unwrap(), true))
                .unwrap();
            pids.push(pid);
        }
        for (i, &pid) in pids.iter().enumerate() {
            let got = pool
                .read_page(pid, |p| p.get(0).map(|r| r.to_vec()))
                .unwrap()
                .unwrap();
            assert_eq!(got, record(i as u8), "page {pid} lost its record");
        }
        let snap = pool.stats();
        assert!(snap.evictions > 0, "2-frame pool over 10 pages must evict");
    }

    #[test]
    fn hit_and_miss_counters() {
        let pool = BufferPool::in_memory(4);
        let pid = pool.allocate_page().unwrap();
        pool.with_page(pid, |p| (p.insert(b"x").unwrap(), true))
            .unwrap();
        let before = pool.stats();
        for _ in 0..5 {
            pool.read_page(pid, |p| p.live_records()).unwrap();
        }
        let after = pool.stats();
        assert_eq!(after.hits - before.hits, 5);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn flush_all_writes_dirty_pages_and_clears_them() {
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::new(store.clone(), 8);
        let pid = pool.allocate_page().unwrap();
        pool.with_page(pid, |p| (p.insert(b"durable").unwrap(), true))
            .unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.dirty_frames(), 0);
        let page = stored(&*store, pid).unwrap();
        assert_eq!(page.get(0).unwrap(), b"durable");
    }

    #[test]
    fn memstore_allocation_is_monotonic() {
        let store = MemStore::new();
        let a = store.allocate();
        let b = store.allocate();
        assert!(b > a);
        assert!(a >= 1, "page id 0 is reserved");
        assert_eq!(store.allocated(), 2);
    }

    /// A [`MemStore`] that counts reads and can be told to fail them or
    /// to hold them until released.
    #[derive(Default)]
    struct ProbeStore {
        inner: MemStore,
        reads: AtomicU64,
        fail_reads: AtomicBool,
        /// While `true`, a read parks (after counting itself).
        hold_reads: (Mutex<bool>, Condvar),
    }

    impl ProbeStore {
        fn set_hold(&self, hold: bool) {
            *lock_mutex(&self.hold_reads.0) = hold;
            self.hold_reads.1.notify_all();
        }
    }

    impl PageStore for ProbeStore {
        fn read_into(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<bool> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            let mut held = lock_mutex(&self.hold_reads.0);
            while *held {
                held = self.hold_reads.1.wait(held).unwrap();
            }
            drop(held);
            if self.fail_reads.load(Ordering::Relaxed) {
                return Err(StorageError::PageIo("injected read failure".into()));
            }
            self.inner.read_into(pid, buf)
        }
        fn write_page(&self, pid: PageId, data: &[u8]) -> StorageResult<()> {
            self.inner.write_page(pid, data)
        }
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }
        fn allocated(&self) -> u64 {
            self.inner.allocated()
        }
    }

    #[test]
    fn clock_gives_referenced_frames_one_second_chance() {
        let pool = BufferPool::in_memory(3);
        let p: Vec<PageId> = (0..6).map(|_| pool.allocate_page().unwrap()).collect();
        // Empty frames go first: three misses fill the pool, no eviction.
        for &pid in &p[..3] {
            pool.read_page(pid, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().evictions, 0);
        // All three were loaded unreferenced and the hand is back at
        // p[0]'s frame. Hit p[0]: it is now the only referenced frame.
        pool.read_page(p[0], |_| ()).unwrap();
        // The hand spares p[0] (clearing its bit) and takes p[1].
        pool.read_page(p[3], |_| ()).unwrap();
        assert!(!pool.is_resident(p[1]), "unreferenced frame goes first");
        assert!(pool.is_resident(p[0]) && pool.is_resident(p[2]));
        // Hold a pin on p[2], the frame under the hand: a pinned frame
        // is never taken, so the hand passes it and comes round to
        // p[0], whose one second chance is spent.
        let pinned = pool.core.pin(p[2]).unwrap();
        pool.read_page(p[4], |_| ()).unwrap();
        assert!(pool.is_resident(p[2]), "pinned frame is never a victim");
        assert!(!pool.is_resident(p[0]), "a second chance lasts one pass");
        assert!(pool.is_resident(p[3]));
        pool.core.unpin(pinned);
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    fn failed_load_leaves_an_empty_frame_that_the_next_miss_takes_first() {
        let store = Arc::new(ProbeStore::default());
        let pool = BufferPool::new(store.clone(), 3);
        let p: Vec<PageId> = (0..5).map(|_| pool.allocate_page().unwrap()).collect();
        for &pid in &p[..3] {
            pool.read_page(pid, |_| ()).unwrap();
        }
        // The failed miss evicts p[0] for its frame, then rolls back.
        store.fail_reads.store(true, Ordering::Relaxed);
        let err = pool.read_page(p[3], |_| ()).unwrap_err();
        assert!(matches!(err, StorageError::PageIo(_)), "got {err:?}");
        assert!(!pool.is_resident(p[3]) && !pool.is_resident(p[0]));
        store.fail_reads.store(false, Ordering::Relaxed);
        // The next miss must reuse that empty frame, not evict p[1]
        // (where the hand would otherwise stand).
        let before = pool.stats().evictions;
        pool.read_page(p[4], |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, before, "empty frame first");
        assert!(pool.is_resident(p[1]) && pool.is_resident(p[2]));
    }

    #[test]
    fn miss_on_a_reserved_page_adopts_it_without_a_store_read() {
        let store = Arc::new(ProbeStore::default());
        let pid = {
            let pool = BufferPool::new(store.clone(), 4);
            let pid = pool.allocate_page().unwrap();
            pool.with_page(pid, |p| (p.insert(b"once").unwrap(), true))
                .unwrap();
            pool.flush_all().unwrap();
            pid
        };
        let pool = Arc::new(BufferPool::new(store.clone(), 4));
        let reads_before = store.reads.load(Ordering::SeqCst);

        // Thread A misses on `pid`, reserves it, and parks inside the
        // store read.
        store.set_hold(true);
        let loader = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.read_page(pid, |p| p.get(0).map(|r| r.to_vec()))
                    .unwrap()
            })
        };
        while store.reads.load(Ordering::SeqCst) == reads_before {
            std::thread::yield_now();
        }
        assert!(pool.is_resident(pid), "reserved before the read");
        // A second miss on the same page (driven straight into the miss
        // path, as if it had probed the table before A reserved) must
        // adopt A's frame and hand its own back empty.
        let idx = pool.core.load_page(pid).unwrap();
        assert_eq!(store.reads.load(Ordering::SeqCst), reads_before + 1);
        store.set_hold(false);
        let guard = pool.core.read_latch(idx);
        assert_eq!(guard.pid, pid);
        assert_eq!(guard.page.get(0).unwrap(), b"once");
        drop(guard);
        pool.core.unpin(idx);
        assert_eq!(loader.join().unwrap().unwrap(), b"once");
        assert_eq!(
            store.reads.load(Ordering::SeqCst),
            reads_before + 1,
            "one store read served both misses"
        );
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        use std::sync::mpsc;
        let pool = Arc::new(BufferPool::in_memory(2));
        let p1 = pool.allocate_page().unwrap();
        pool.with_page(p1, |p| (p.insert(b"pinned").unwrap(), true))
            .unwrap();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let reader = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.read_page(p1, move |p| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    p.get(0).map(|r| r.to_vec())
                })
                .unwrap()
            })
        };
        entered_rx.recv().unwrap();
        // With p1 pinned, every miss must recycle the single other
        // frame; none of these may claim p1's frame or time out.
        for _ in 0..6 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page(pid, |p| (p.insert(b"churn").unwrap(), true))
                .unwrap();
        }
        assert!(pool.is_resident(p1), "pinned page must stay resident");
        release_tx.send(()).unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), b"pinned");
    }

    /// Eight threads on four frames: with every thread mid-access the
    /// pool is momentarily all-pinned, and a miss must wait for a pin to
    /// drop rather than fail. Looped in-process so a one-in-N flake
    /// shows up as a failure, not as luck.
    #[test]
    fn concurrent_access_from_many_threads() {
        for round in 0..200u64 {
            let pool = Arc::new(BufferPool::in_memory(4));
            let mut pids = Vec::new();
            for _ in 0..16 {
                let pid = pool.allocate_page().unwrap();
                pool.with_page(pid, |p| (p.insert(&0u64.to_le_bytes()).unwrap(), true))
                    .unwrap();
                pids.push(pid);
            }
            let pids = Arc::new(pids);
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let pool = pool.clone();
                let pids = pids.clone();
                handles.push(std::thread::spawn(move || {
                    let mut rng = (round << 8) + t + 1;
                    for _ in 0..200 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let pid = pids[(rng % 16) as usize];
                        pool.with_page(pid, |p| {
                            let mut v = [0u8; 8];
                            v.copy_from_slice(p.get(0).unwrap());
                            let n = u64::from_le_bytes(v) + 1;
                            assert!(p.update(0, &n.to_le_bytes()));
                            ((), true)
                        })
                        .unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            // Exclusive frame latches + the pin protocol => no lost updates.
            let total: u64 = pids
                .iter()
                .map(|&pid| {
                    pool.read_page(pid, |p| {
                        let mut v = [0u8; 8];
                        v.copy_from_slice(p.get(0).unwrap());
                        u64::from_le_bytes(v)
                    })
                    .unwrap()
                })
                .sum();
            assert_eq!(total, 8 * 200, "increments lost in round {round}");
        }
    }

    #[test]
    fn all_frames_pinned_waits_then_fails_retryably() {
        let pool = BufferPool::in_memory(2);
        let p: Vec<PageId> = (0..3).map(|_| pool.allocate_page().unwrap()).collect();
        let held = [pool.core.pin(p[0]).unwrap(), pool.core.pin(p[1]).unwrap()];
        let start = Instant::now();
        let err = pool.read_page(p[2], |_| ()).unwrap_err();
        assert_eq!(err, StorageError::BufferPoolFull);
        assert!(err.is_retryable());
        assert!(start.elapsed() >= PIN_WAIT, "gave up before the bound");
        // A pin dropping inside the bound lets the waiter through.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                pool.core.unpin(held[0]);
            });
            pool.read_page(p[2], |_| ()).unwrap();
        });
        pool.core.unpin(held[1]);
    }

    /// A [`WalGate`] double that records forces and lets the test
    /// advance the flushed watermark by hand.
    struct MockGate {
        current: AtomicU64,
        flushed: AtomicU64,
        forces: AtomicU64,
    }

    impl WalGate for MockGate {
        fn current_lsn(&self) -> Lsn {
            self.current.load(Ordering::Relaxed)
        }
        fn flushed_lsn(&self) -> Lsn {
            self.flushed.load(Ordering::Relaxed)
        }
        fn force_lsn(&self, lsn: Lsn) -> StorageResult<()> {
            self.forces.fetch_add(1, Ordering::Relaxed);
            self.flushed.fetch_max(lsn, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn eviction_of_dirty_page_forces_wal_first() {
        let gate = Arc::new(MockGate {
            current: AtomicU64::new(42),
            flushed: AtomicU64::new(0),
            forces: AtomicU64::new(0),
        });
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::with_gate(store.clone(), 1, Some(gate.clone()));
        let p1 = pool.allocate_page().unwrap();
        let p2 = pool.allocate_page().unwrap();
        pool.with_page(p1, |p| (p.insert(b"logged").unwrap(), true))
            .unwrap();
        // Evicting p1 (page_lsn = 42 > flushed = 0) must force first.
        pool.read_page(p2, |_| ()).unwrap();
        assert!(gate.forces.load(Ordering::Relaxed) >= 1);
        assert!(gate.flushed.load(Ordering::Relaxed) >= 42);
        let page = stored(&*store, p1).unwrap();
        assert_eq!(page.get(0).unwrap(), b"logged");
        assert_eq!(page.lsn(), 42, "stamp persisted in the page header");
    }

    #[test]
    fn flush_all_forces_wal_before_writing() {
        let gate = Arc::new(MockGate {
            current: AtomicU64::new(7),
            flushed: AtomicU64::new(0),
            forces: AtomicU64::new(0),
        });
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::with_gate(store.clone(), 4, Some(gate.clone()));
        let pid = pool.allocate_page().unwrap();
        pool.with_page(pid, |p| (p.insert(b"ck").unwrap(), true))
            .unwrap();
        pool.flush_all().unwrap();
        assert!(gate.forces.load(Ordering::Relaxed) >= 1);
        assert!(gate.flushed.load(Ordering::Relaxed) >= 7);
        assert!(stored(&*store, pid).is_some());
    }

    #[test]
    fn background_writeback_cleans_dirty_pages() {
        // No gate: everything is immediately log-covered. Dirty more
        // than half the pool to trip the pressure heuristic, then wait
        // for the writer to clean it without any flush_all call.
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::new(store.clone(), 4);
        let mut pids = Vec::new();
        for i in 0..3u8 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page(pid, |p| (p.insert(&record(i)).unwrap(), true))
                .unwrap();
            pids.push(pid);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.dirty_frames() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "writeback thread never cleaned the pool"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(pool.stats().writebacks >= 3);
        for (i, pid) in pids.iter().enumerate() {
            let page = stored(&*store, *pid).unwrap();
            assert_eq!(page.get(0).unwrap(), &record(i as u8)[..]);
        }
    }

    #[test]
    fn background_writeback_skips_pages_the_log_has_not_covered() {
        let gate = Arc::new(MockGate {
            current: AtomicU64::new(100),
            flushed: AtomicU64::new(0),
            forces: AtomicU64::new(0),
        });
        let store = Arc::new(MemStore::new());
        let pool = BufferPool::with_gate(store.clone(), 2, Some(gate.clone()));
        let pid = pool.allocate_page().unwrap();
        pool.with_page(pid, |p| (p.insert(b"uncovered").unwrap(), true))
            .unwrap();
        // page_lsn = 100 > flushed = 0: every sweep must leave the page
        // dirty and must not force the WAL on its own.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.dirty_frames(), 1);
        assert_eq!(gate.forces.load(Ordering::Relaxed), 0);
        // Once the log catches up the sweep may clean it (pressure via
        // the dirty-ratio arm: 1 dirty of 2 frames).
        gate.flushed.store(100, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.dirty_frames() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "writeback never caught up after the log advanced"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn file_page_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "dora-filestore-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let fs = crate::io::StdFs;
        let (pid, slot) = {
            let store = Arc::new(FilePageStore::open(&fs, &dir).unwrap());
            let pool = BufferPool::new(store, 4);
            let pid = pool.allocate_page().unwrap();
            let slot = pool
                .with_page(pid, |p| (p.insert(b"on-disk").unwrap(), true))
                .unwrap();
            pool.flush_all().unwrap();
            (pid, slot)
        };
        let store = Arc::new(FilePageStore::open(&fs, &dir).unwrap());
        assert_eq!(store.allocated(), 1);
        let pool = BufferPool::new(store, 4);
        let got = pool
            .read_page(pid, |p| p.get(slot).map(|r| r.to_vec()))
            .unwrap();
        assert_eq!(got.unwrap(), b"on-disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A page past end-of-file, and one the file ends in the middle of
    /// (a torn extension), are both "never written": the pool serves a
    /// formatted empty page, not an error.
    fn check_reads_past_eof(fs: &dyn WalFs, dir: &Path) {
        fs.create_dir_all(dir).unwrap();
        let file = fs.open_page_file(&dir.join("pages.db")).unwrap();
        file.write_at(0, &vec![0xAB; PAGE_SIZE + 100]).unwrap();
        drop(file);
        let store = Arc::new(FilePageStore::open(fs, dir).unwrap());
        assert_eq!(store.allocated(), 1, "the torn tail is not a page");
        let pool = BufferPool::new(store, 4);
        for pid in [2, 3, 1000] {
            let (slots, free) = pool
                .read_page(pid, |p| (p.slot_count(), p.free_space()))
                .unwrap();
            assert_eq!((slots, free), (0, SlottedPage::new().free_space()));
        }
        // The frame those misses reused must not leak into page 1.
        let first = pool.read_page(1, |p| p.as_bytes()[0]).unwrap();
        assert_eq!(first, 0xAB);
    }

    #[test]
    fn file_page_store_reads_past_eof_as_empty_pages() {
        let dir = std::env::temp_dir().join(format!("dora-filestore-eof-{}", std::process::id()));
        check_reads_past_eof(&crate::io::StdFs, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        check_reads_past_eof(&crate::io::SimFs::new(), Path::new("/pages"));
    }

    #[test]
    fn file_page_store_over_simfs_reports_injected_errors() {
        use crate::io::{FaultPlan, SimFs};
        let fs = SimFs::with_faults(FaultPlan {
            fail_page_write: Some(1),
            ..FaultPlan::default()
        });
        let store = FilePageStore::open(&fs, Path::new("/pages")).unwrap();
        let pid = store.allocate();
        let err = store.write_page(pid, &[0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, StorageError::PageIo(_)), "got {err:?}");
        // The schedule names one op; the next write succeeds.
        store.write_page(pid, &[1u8; PAGE_SIZE]).unwrap();
        assert_eq!(stored(&store, pid).unwrap().as_bytes()[0], 1);
    }

    #[test]
    fn sharded_table_spreads_pages() {
        let pool = BufferPool::in_memory(64);
        assert!(pool.core.shards.len() > 1);
        let mut seen = std::collections::HashSet::new();
        for pid in 1..=64u64 {
            seen.insert((mix(pid) >> 32) as usize & (pool.core.shards.len() - 1));
        }
        assert!(seen.len() > 4, "sequential pids collapse onto one shard");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Concurrent pin/evict/read/write churn through a pool smaller
        /// than the page set: every increment lands exactly once (no
        /// lost updates across eviction), and every read sees a
        /// well-formed record.
        #[test]
        fn concurrent_pin_evict_churn(seed in 0u64..1000, threads in 2usize..5) {
            let pool = Arc::new(BufferPool::in_memory(4));
            let n_pages = 12usize;
            let mut pids = Vec::new();
            for _ in 0..n_pages {
                let pid = pool.allocate_page().unwrap();
                pool.with_page(pid, |p| (p.insert(&0u64.to_le_bytes()).unwrap(), true)).unwrap();
                pids.push(pid);
            }
            let pids = Arc::new(pids);
            let per_thread = 150usize;
            let mut handles = Vec::new();
            for t in 0..threads {
                let pool = pool.clone();
                let pids = pids.clone();
                let mut rng = seed.wrapping_mul(31).wrapping_add(t as u64) | 1;
                handles.push(std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let pid = pids[(rng % n_pages as u64) as usize];
                        if rng % 3 == 0 {
                            let v = pool.read_page(pid, |p| p.get(0).map(|r| r.len())).unwrap();
                            assert_eq!(v, Some(8));
                        } else {
                            pool.with_page(pid, |p| {
                                let mut v = [0u8; 8];
                                v.copy_from_slice(p.get(0).unwrap());
                                let n = u64::from_le_bytes(v) + 1;
                                assert!(p.update(0, &n.to_le_bytes()));
                                ((), true)
                            }).unwrap();
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let total: u64 = pids.iter().map(|&pid| {
                pool.read_page(pid, |p| {
                    let mut v = [0u8; 8];
                    v.copy_from_slice(p.get(0).unwrap());
                    u64::from_le_bytes(v)
                }).unwrap()
            }).sum();
            let snap = pool.stats();
            prop_assert!(snap.evictions > 0, "churn must actually evict");
            // Replay the per-thread rng streams to count writes exactly.
            let expected = {
                let mut count = 0u64;
                for t in 0..threads {
                    let mut rng = seed.wrapping_mul(31).wrapping_add(t as u64) | 1;
                    for _ in 0..per_thread {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        if rng % 3 != 0 { count += 1; }
                    }
                }
                count
            };
            prop_assert_eq!(total, expected, "increments lost under churn");
        }
    }
}
