//! File-system abstraction for the durable log.
//!
//! Every byte the storage manager puts on (or reads off) disk goes
//! through the [`WalFs`] trait. Two implementations exist:
//!
//! * [`StdFs`] — real files via `std::fs` only (no third-party I/O
//!   crates; see `shims/README.md`).
//! * [`SimFs`] — a deterministic in-memory file system with fault
//!   injection: short/torn writes at arbitrary byte offsets, fsync
//!   failures that drop unsynced bytes (modelling a kernel that
//!   discarded dirty pages), `ENOSPC` on file creation, and
//!   crash-at-failpoint semantics where everything not yet fsynced is
//!   lost except a seed-chosen torn prefix.
//!
//! The WAL surface ([`WalFile`]) is deliberately append-only: the log
//! never seeks, never rewrites, and never memory-maps, so the whole
//! contract is "append bytes, fsync, read back after a crash". The
//! fault model mirrors that: an `append` error means *an arbitrary
//! prefix of the buffer may have reached the file*, and a `sync` error
//! means *previously appended but unsynced bytes may be gone*.
//! [`crate::segment`] builds its poisoning policy directly on those two
//! contracts.
//!
//! The page store is the one component that does rewrite in place, so
//! it gets its own surface: [`PageFile`] is a positioned read/write
//! handle over a fixed-size-page file. Its fault model is
//! page-cache-shaped: a `write_at` lands in an unsynced pending set,
//! `sync` makes the pending writes durable, and a crash keeps only a
//! seed-chosen prefix of the pending writes (each page write is atomic
//! — present in full or absent — because recovery never reads data
//! pages; the WAL-before-data gate in the buffer pool is what makes
//! losing them safe).

use std::collections::BTreeMap;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// An append-only file handle.
pub trait WalFile: Send {
    /// Appends `buf` at the end of the file.
    ///
    /// On error, an **arbitrary prefix** of `buf` may already have been
    /// written — callers that framed `buf` as a record must assume the
    /// file now ends in a torn record.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Forces everything appended so far to stable storage.
    ///
    /// On error, unsynced bytes may have been **dropped** (the POSIX
    /// fsync-failure reality): retrying the sync cannot resurrect them,
    /// which is why the log poisons itself instead of retrying.
    fn sync(&mut self) -> io::Result<()>;
}

/// A positioned read/write handle over a fixed-size-page file.
///
/// Writes land in an OS-page-cache-like pending set until [`sync`]
/// makes them durable; a simulated crash drops pending writes (each one
/// atomically — a page write is present in full or absent). Offsets are
/// byte offsets; the buffer pool always works in whole [`crate::page::PAGE_SIZE`]
/// units.
///
/// [`sync`]: PageFile::sync
pub trait PageFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`. Running past the end
    /// of file fails with [`io::ErrorKind::UnexpectedEof`] (to the page
    /// store: "never written") and leaves `buf` unspecified.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Writes `buf` at `offset`, extending the file (zero-filled gap)
    /// if `offset` is past the current end.
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Current file length in bytes (including unsynced writes).
    fn byte_len(&self) -> io::Result<u64>;
    /// Forces every write so far to stable storage. On error, unsynced
    /// page writes may have been dropped — callers must treat the
    /// affected pages as dirty again.
    fn sync(&self) -> io::Result<()>;
}

/// Minimal file-system surface the durable log needs.
pub trait WalFs: Send + Sync {
    /// Creates `dir` (and parents) if missing.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates (truncating any leftover) an append-only file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself so created/renamed entries survive a
    /// crash.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Opens (creating if missing, **never** truncating) a positioned
    /// page file for the page store.
    fn open_page_file(&self, path: &Path) -> io::Result<Box<dyn PageFile>>;
}

// ---------------------------------------------------------------------------
// Real files
// ---------------------------------------------------------------------------

/// [`WalFs`] over the real file system, using only `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdFile(std::fs::File);

impl WalFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

/// Positioned I/O on a shared `File`: one `pread`/`pwrite` per call, no
/// seek state and so no lock for misses, eviction writes and the
/// writeback thread to queue on.
struct StdPageFile(std::fs::File);

impl PageFile for StdPageFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_exact_at(buf, offset)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.0.write_all_at(buf, offset)
    }

    fn byte_len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn sync(&self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl WalFs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is how POSIX makes a new directory entry
        // durable; opening read-only suffices on Linux.
        std::fs::File::open(dir)?.sync_all()
    }

    fn open_page_file(&self, path: &Path) -> io::Result<Box<dyn PageFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(StdPageFile(file)))
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Deterministic fault schedule for [`SimFs`]. Operation counts are
/// global across the file system and 1-based ("the nth append fails").
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// The nth `append` writes only the given number of bytes of its
    /// buffer, then fails with `ENOSPC` (a short/torn write).
    pub short_write: Option<(u64, usize)>,
    /// The nth `sync` fails with `EIO` **and drops the unsynced bytes**
    /// of that file, modelling a kernel that discarded the dirty pages.
    pub fail_sync: Option<u64>,
    /// The nth `create` fails with `ENOSPC` before touching anything.
    pub fail_create: Option<u64>,
    /// Crash-at-failpoint: immediately after the nth `append` completes,
    /// the whole file system crashes (see [`SimFs::crash`]) using the
    /// given tear seed.
    pub crash_after_append: Option<(u64, u64)>,
    /// The nth page-file `write_at` fails with `EIO` before any bytes
    /// land (the write never reaches the pending set).
    pub fail_page_write: Option<u64>,
    /// The nth page-file `sync` fails with `EIO` **and drops the
    /// pending page writes** of that file, modelling a kernel that
    /// discarded the dirty page cache.
    pub fail_page_sync: Option<u64>,
}

#[derive(Default)]
struct SimFile {
    /// Bytes that survived the last sync (or crash-torn remnant).
    durable: Vec<u8>,
    /// Appended but not yet synced bytes.
    pending: Vec<u8>,
}

/// A positioned page file: durable image plus an ordered pending-write
/// set (the simulated OS page cache).
#[derive(Default)]
struct SimPage {
    durable: Vec<u8>,
    pending: Vec<(u64, Vec<u8>)>,
}

impl SimPage {
    /// File length as readers see it pre-crash: the durable image
    /// extended by every pending write.
    fn len(&self) -> u64 {
        self.pending
            .iter()
            .map(|(off, bytes)| off + bytes.len() as u64)
            .fold(self.durable.len() as u64, u64::max)
    }
}

/// Copies into `dst` (which sits at file offset `dst_off`) the part of
/// `src` (at `src_off`) that overlaps it.
fn copy_overlap(dst: &mut [u8], dst_off: u64, src: &[u8], src_off: u64) {
    let lo = dst_off.max(src_off);
    let hi = (dst_off + dst.len() as u64).min(src_off + src.len() as u64);
    if lo < hi {
        dst[(lo - dst_off) as usize..(hi - dst_off) as usize]
            .copy_from_slice(&src[(lo - src_off) as usize..(hi - src_off) as usize]);
    }
}

fn apply_write(bytes: &mut Vec<u8>, off: u64, buf: &[u8]) {
    let end = off as usize + buf.len();
    if bytes.len() < end {
        bytes.resize(end, 0);
    }
    bytes[off as usize..end].copy_from_slice(buf);
}

#[derive(Default)]
struct SimState {
    files: BTreeMap<PathBuf, SimFile>,
    pages: BTreeMap<PathBuf, SimPage>,
    dirs: Vec<PathBuf>,
    plan: FaultPlan,
    appends: u64,
    syncs: u64,
    creates: u64,
    page_writes: u64,
    page_syncs: u64,
    /// Bumped by [`SimFs::crash`]; handles from before the crash fail.
    epoch: u64,
}

/// In-memory [`WalFs`] with deterministic fault injection and
/// crash simulation. Cloning shares the underlying state, so a clone
/// handed to a `Database` and the original held by a test observe the
/// same "disk".
#[derive(Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
}

impl SimFs {
    /// A fault-free simulated file system.
    pub fn new() -> Self {
        Self::default()
    }

    /// A simulated file system with the given fault schedule.
    pub fn with_faults(plan: FaultPlan) -> Self {
        let fs = Self::default();
        fs.state.lock().plan = plan;
        fs
    }

    /// Replaces the fault schedule (operation counters keep running).
    pub fn set_faults(&self, plan: FaultPlan) {
        self.state.lock().plan = plan;
    }

    /// Simulates a process/machine crash: for every file, synced bytes
    /// survive; unsynced bytes are lost except a torn prefix whose
    /// length is chosen deterministically from `tear_seed` (covering
    /// every byte offset as the seed varies). All handles opened before
    /// the crash go stale and fail on use.
    pub fn crash(&self, tear_seed: u64) {
        let mut st = self.state.lock();
        let mut rng = tear_seed | 1;
        for file in st.files.values_mut() {
            // xorshift64: deterministic, seed-coverable tear points.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let keep = (rng as usize) % (file.pending.len() + 1);
            let torn: Vec<u8> = file.pending[..keep].to_vec();
            file.durable.extend_from_slice(&torn);
            file.pending.clear();
        }
        for page in st.pages.values_mut() {
            // Page writes tear at write granularity: a seed-chosen
            // prefix of the pending writes survives, each in full
            // (recovery never reads data pages, so whole-page atomicity
            // is the interesting model — the WAL-before-data invariant
            // is what a crash here must not be able to break).
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let keep = (rng as usize) % (page.pending.len() + 1);
            let survivors: Vec<(u64, Vec<u8>)> = page.pending.drain(..).take(keep).collect();
            for (off, buf) in survivors {
                apply_write(&mut page.durable, off, &buf);
            }
        }
        st.epoch += 1;
    }

    /// Global `(appends, syncs, creates)` operation counts, for aiming
    /// fault schedules at "the next append" in tests.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.appends, st.syncs, st.creates)
    }

    /// Global `(page_writes, page_syncs)` operation counts for the
    /// positioned page-file surface.
    pub fn page_op_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.page_writes, st.page_syncs)
    }

    /// The current full contents (synced + unsynced) of a file, for
    /// tests that corrupt bytes and feed them back.
    pub fn snapshot(&self, path: &Path) -> Option<Vec<u8>> {
        let st = self.state.lock();
        st.files.get(path).map(|f| {
            let mut all = f.durable.clone();
            all.extend_from_slice(&f.pending);
            all
        })
    }

    /// Overwrites a file's contents as fully synced bytes (test-side
    /// corruption injection).
    pub fn install(&self, path: &Path, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        st.files.insert(
            path.to_path_buf(),
            SimFile {
                durable: bytes,
                pending: Vec::new(),
            },
        );
    }
}

struct SimHandle {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
    epoch: u64,
}

impl SimHandle {
    fn check_epoch(st: &SimState, epoch: u64) -> io::Result<()> {
        if st.epoch != epoch {
            return Err(io::Error::other("simulated crash: stale file handle"));
        }
        Ok(())
    }
}

impl WalFile for SimHandle {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let crash_seed;
        {
            let mut st = self.state.lock();
            Self::check_epoch(&st, self.epoch)?;
            st.appends += 1;
            let n = st.appends;
            if let Some((at, keep)) = st.plan.short_write {
                if n == at {
                    let keep = keep.min(buf.len());
                    let file = st.files.entry(self.path.clone()).or_default();
                    file.pending.extend_from_slice(&buf[..keep]);
                    return Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        format!("injected short write ({keep}/{} bytes)", buf.len()),
                    ));
                }
            }
            let file = st.files.entry(self.path.clone()).or_default();
            file.pending.extend_from_slice(buf);
            crash_seed = match st.plan.crash_after_append {
                Some((at, seed)) if n == at => Some(seed),
                _ => None,
            };
        }
        if let Some(seed) = crash_seed {
            // Drop the lock first: crash() relocks.
            SimFs {
                state: self.state.clone(),
            }
            .crash(seed);
            return Err(io::Error::other("injected crash at failpoint"));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock();
        Self::check_epoch(&st, self.epoch)?;
        st.syncs += 1;
        let n = st.syncs;
        let drop_pending = matches!(st.plan.fail_sync, Some(at) if n == at);
        let file = st.files.entry(self.path.clone()).or_default();
        if drop_pending {
            file.pending.clear();
            return Err(io::Error::other(
                "injected fsync failure (dirty pages dropped)",
            ));
        }
        let pending = std::mem::take(&mut file.pending);
        file.durable.extend_from_slice(&pending);
        Ok(())
    }
}

impl PageFile for SimHandle {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let st = self.state.lock();
        SimHandle::check_epoch(&st, self.epoch)?;
        let page = st
            .pages
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such sim page file"))?;
        if page.len() < offset + buf.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of sim page file",
            ));
        }
        // The durable bytes (zeros past their end) overlaid, oldest first,
        // with the overlapping part of each pending write — the file as a
        // pre-crash reader sees it, without materialising it.
        buf.fill(0);
        copy_overlap(buf, offset, &page.durable, 0);
        for (off, bytes) in &page.pending {
            copy_overlap(buf, offset, bytes, *off);
        }
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        SimHandle::check_epoch(&st, self.epoch)?;
        st.page_writes += 1;
        let n = st.page_writes;
        if matches!(st.plan.fail_page_write, Some(at) if n == at) {
            return Err(io::Error::other("injected page write failure"));
        }
        let page = st.pages.entry(self.path.clone()).or_default();
        page.pending.push((offset, buf.to_vec()));
        Ok(())
    }

    fn byte_len(&self) -> io::Result<u64> {
        let st = self.state.lock();
        SimHandle::check_epoch(&st, self.epoch)?;
        Ok(st.pages.get(&self.path).map_or(0, SimPage::len))
    }

    fn sync(&self) -> io::Result<()> {
        let mut st = self.state.lock();
        SimHandle::check_epoch(&st, self.epoch)?;
        st.page_syncs += 1;
        let n = st.page_syncs;
        let drop_pending = matches!(st.plan.fail_page_sync, Some(at) if n == at);
        let page = st.pages.entry(self.path.clone()).or_default();
        if drop_pending {
            page.pending.clear();
            return Err(io::Error::other(
                "injected page fsync failure (dirty pages dropped)",
            ));
        }
        let pending = std::mem::take(&mut page.pending);
        for (off, buf) in pending {
            apply_write(&mut page.durable, off, &buf);
        }
        Ok(())
    }
}

impl WalFs for SimFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        if !st.dirs.iter().any(|d| d == dir) {
            st.dirs.push(dir.to_path_buf());
        }
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.state.lock();
        let mut names: Vec<String> = st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let mut st = self.state.lock();
        st.creates += 1;
        let n = st.creates;
        if matches!(st.plan.fail_create, Some(at) if n == at) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC on create",
            ));
        }
        st.files.insert(path.to_path_buf(), SimFile::default());
        let epoch = st.epoch;
        drop(st);
        Ok(Box::new(SimHandle {
            state: self.state.clone(),
            path: path.to_path_buf(),
            epoch,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        match st.files.get(path) {
            Some(f) => {
                let mut all = f.durable.clone();
                all.extend_from_slice(&f.pending);
                Ok(all)
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such sim file")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        match st.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such sim file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        match st.files.remove(from) {
            Some(f) => {
                st.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such sim file")),
        }
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn open_page_file(&self, path: &Path) -> io::Result<Box<dyn PageFile>> {
        let mut st = self.state.lock();
        st.pages.entry(path.to_path_buf()).or_default();
        let epoch = st.epoch;
        drop(st);
        Ok(Box::new(SimHandle {
            state: self.state.clone(),
            path: path.to_path_buf(),
            epoch,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/wal").join(name)
    }

    #[test]
    fn sim_fs_sync_promotes_and_crash_drops_unsynced() {
        let fs = SimFs::new();
        fs.create_dir_all(Path::new("/wal")).unwrap();
        let mut f = fs.create(&p("a")).unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        f.append(b" world").unwrap();
        // Reads before the crash see everything, like a real page cache.
        assert_eq!(fs.read(&p("a")).unwrap(), b"hello world");
        fs.crash(0);
        let after = fs.read(&p("a")).unwrap();
        // Synced prefix survives; the unsynced suffix is torn at an
        // arbitrary (seed-chosen) byte offset.
        assert!(after.starts_with(b"hello"));
        assert!(after.len() <= b"hello world".len());
        // Stale handle fails instead of resurrecting the file.
        assert!(f.append(b"x").is_err());
    }

    #[test]
    fn crash_tear_covers_every_byte_offset_across_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let fs = SimFs::new();
            let mut f = fs.create(&p("a")).unwrap();
            f.append(b"0123456").unwrap();
            fs.crash(seed);
            seen.insert(fs.read(&p("a")).unwrap().len());
        }
        // 8 possible tear points (0..=7); the seeded xorshift must reach
        // several of them, not collapse to one.
        assert!(seen.len() >= 4, "tear points seen: {seen:?}");
    }

    #[test]
    fn injected_short_write_leaves_a_torn_prefix() {
        let fs = SimFs::with_faults(FaultPlan {
            short_write: Some((2, 3)),
            ..FaultPlan::default()
        });
        let mut f = fs.create(&p("a")).unwrap();
        f.append(b"aaaa").unwrap();
        let err = f.append(b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        f.sync().unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"aaaabbb");
    }

    #[test]
    fn injected_fsync_failure_drops_dirty_bytes() {
        let fs = SimFs::with_faults(FaultPlan {
            fail_sync: Some(1),
            ..FaultPlan::default()
        });
        let mut f = fs.create(&p("a")).unwrap();
        f.append(b"doomed").unwrap();
        assert!(f.sync().is_err());
        // The dirty bytes are gone: a subsequent successful sync cannot
        // bring them back, which is what justifies poisoning the log.
        f.append(b"later").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"later");
    }

    #[test]
    fn injected_create_failure_reports_enospc() {
        let fs = SimFs::with_faults(FaultPlan {
            fail_create: Some(1),
            ..FaultPlan::default()
        });
        let err = match fs.create(&p("a")) {
            Ok(_) => panic!("first create must hit the injected failure"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The schedule names one operation; the next create succeeds.
        assert!(fs.create(&p("a")).is_ok());
    }

    #[test]
    fn sim_page_file_round_trips_and_sync_promotes() {
        let fs = SimFs::new();
        let f = fs.open_page_file(&p("pages.db")).unwrap();
        f.write_at(0, b"AAAA").unwrap();
        f.write_at(8, b"BBBB").unwrap();
        assert_eq!(f.byte_len().unwrap(), 12);
        let mut buf = [0u8; 4];
        f.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"BBBB");
        // The zero-filled gap between the two writes reads as zeros.
        f.read_at(4, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
        f.sync().unwrap();
        f.write_at(0, b"CCCC").unwrap();
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"CCCC", "pre-crash reads see pending writes");
        assert_eq!(fs.page_op_counts(), (3, 1));
    }

    #[test]
    fn sim_page_file_crash_drops_unsynced_writes() {
        let mut dropped = false;
        // Spread the seeds: the xorshift parity that picks the survivor
        // count keys off high bits, so consecutive small seeds all fall
        // on the same side.
        for seed in (0..32).map(|i| i * 17) {
            let fs = SimFs::new();
            let f = fs.open_page_file(&p("pages.db")).unwrap();
            f.write_at(0, b"OLD!").unwrap();
            f.sync().unwrap();
            f.write_at(0, b"NEW!").unwrap();
            fs.crash(seed);
            assert!(f.read_at(0, &mut [0u8; 4]).is_err(), "stale handle fails");
            let f2 = fs.open_page_file(&p("pages.db")).unwrap();
            let mut buf = [0u8; 4];
            f2.read_at(0, &mut buf).unwrap();
            // Each write is atomic: the page is wholly old or wholly new.
            assert!(&buf == b"OLD!" || &buf == b"NEW!", "torn page: {buf:?}");
            dropped |= &buf == b"OLD!";
        }
        assert!(dropped, "some seed must drop the unsynced write");
    }

    #[test]
    fn sim_page_file_crash_keeps_a_seeded_prefix_of_writes() {
        let mut survivor_counts = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let fs = SimFs::new();
            let f = fs.open_page_file(&p("pages.db")).unwrap();
            f.write_at(0, b"1").unwrap();
            f.write_at(1, b"2").unwrap();
            f.write_at(2, b"3").unwrap();
            fs.crash(seed);
            let f2 = fs.open_page_file(&p("pages.db")).unwrap();
            survivor_counts.insert(f2.byte_len().unwrap());
        }
        // 4 possible outcomes (0..=3 surviving writes); the seeds must
        // reach more than one of them.
        assert!(survivor_counts.len() >= 2, "seen: {survivor_counts:?}");
    }

    #[test]
    fn injected_page_sync_failure_drops_pending_writes() {
        let fs = SimFs::with_faults(FaultPlan {
            fail_page_sync: Some(1),
            ..FaultPlan::default()
        });
        let f = fs.open_page_file(&p("pages.db")).unwrap();
        f.write_at(0, b"doomed").unwrap();
        assert!(f.sync().is_err());
        assert_eq!(f.byte_len().unwrap(), 0, "dropped writes stay dropped");
        f.write_at(0, b"later!").unwrap();
        f.sync().unwrap();
        let mut buf = [0u8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"later!");
    }

    #[test]
    fn injected_page_write_failure_leaves_no_bytes() {
        let fs = SimFs::with_faults(FaultPlan {
            fail_page_write: Some(2),
            ..FaultPlan::default()
        });
        let f = fs.open_page_file(&p("pages.db")).unwrap();
        f.write_at(0, b"ok").unwrap();
        assert!(f.write_at(2, b"no").is_err());
        assert_eq!(f.byte_len().unwrap(), 2);
    }

    #[test]
    fn std_page_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("dora-pagefile-test-{}", std::process::id()));
        let fs = StdFs;
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let f = fs.open_page_file(&path).unwrap();
        f.write_at(16, b"positioned").unwrap();
        f.sync().unwrap();
        let mut buf = [0u8; 10];
        f.read_at(16, &mut buf).unwrap();
        assert_eq!(&buf, b"positioned");
        assert_eq!(f.byte_len().unwrap(), 26);
        drop(f);
        // Re-open must not truncate.
        let f2 = fs.open_page_file(&path).unwrap();
        assert_eq!(f2.byte_len().unwrap(), 26);
        drop(f2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn std_page_file_concurrent_disjoint_pages_read_back_what_they_wrote() {
        const PAGE: usize = 8192;
        const THREADS: u64 = 8;
        const PAGES_PER_THREAD: u64 = 16;
        let dir = std::env::temp_dir().join(format!("dora-pagefile-conc-{}", std::process::id()));
        let fs = StdFs;
        fs.create_dir_all(&dir).unwrap();
        let f = fs.open_page_file(&dir.join("pages.db")).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let f = &f;
                s.spawn(move || {
                    // Interleaved page numbers, so neighbours in the file
                    // belong to different threads; several rounds, so
                    // reads race other threads' writes.
                    for round in 0..4u64 {
                        for i in 0..PAGES_PER_THREAD {
                            let page = i * THREADS + t;
                            let fill = (page * 31 + round) as u8;
                            f.write_at(page * PAGE as u64, &[fill; PAGE]).unwrap();
                            let mut buf = [0u8; PAGE];
                            f.read_at(page * PAGE as u64, &mut buf).unwrap();
                            assert!(buf.iter().all(|&b| b == fill), "page {page} torn");
                        }
                    }
                });
            }
        });
        assert_eq!(
            f.byte_len().unwrap(),
            THREADS * PAGES_PER_THREAD * PAGE as u64
        );
        // Past the end: the error kind the page store maps to "never
        // written", including a read that only partly fits.
        let mut buf = [0u8; PAGE];
        let end = f.byte_len().unwrap();
        for offset in [end, end - 100] {
            let err = f.read_at(offset, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        drop(f);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sim_page_file_reads_overlay_partial_pending_writes() {
        let fs = SimFs::new();
        let f = fs.open_page_file(&p("pages.db")).unwrap();
        f.write_at(0, b"aaaaaaaa").unwrap();
        f.sync().unwrap();
        // Two pending writes, the newer overlapping the older and both
        // only partly inside the read window.
        f.write_at(2, b"BBBB").unwrap();
        f.write_at(4, b"CCCCCC").unwrap();
        assert_eq!(f.byte_len().unwrap(), 10);
        let mut buf = [0u8; 6];
        f.read_at(1, &mut buf).unwrap();
        assert_eq!(&buf, b"aBBCCC");
        let err = f.read_at(5, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn std_fs_round_trips_and_lists() {
        let dir = std::env::temp_dir().join(format!("dora-io-test-{}", std::process::id()));
        let fs = StdFs;
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("seg-test.wal");
        let mut f = fs.create(&path).unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"abc");
        assert!(fs
            .list_dir(&dir)
            .unwrap()
            .contains(&"seg-test.wal".to_string()));
        fs.remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
