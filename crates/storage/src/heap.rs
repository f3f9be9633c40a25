//! Heap files: unordered collections of records stored in slotted pages.
//!
//! The heap itself is byte-agnostic (`insert`/`read`/`update`/`delete` move
//! opaque records). **Reads are closures**: [`HeapFile::read`] runs the
//! caller's function on the record's bytes *in the page*, under the page's
//! shared latch, and returns what it returns — so a point read decodes the
//! tuple straight out of the frame and no intermediate copy of the record
//! is ever made ([`HeapFile::get`] is the same read with `to_vec` as the
//! function, for callers that do want the bytes). The function runs with
//! the latch held: it may decode, compare and copy, and must not block or
//! touch the buffer pool again.
//!
//! The heap also understands the fixed 16-byte version header the database
//! facade prepends to every tuple ([`crate::version`]):
//! [`HeapFile::read_versioned`] splits the header off before calling the
//! function, [`HeapFile::read_version`] reads *only* the header (the cheap
//! revalidation probe of the validated-read protocol), and
//! [`HeapFile::get_for_update`] reads a record through the caller's function
//! and stamps it write-in-progress under a single (exclusive) page latch.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::types::{PageId, RecordId, TableId, TxnId};
use crate::version::{self, RecordVersion, RECORD_HEADER_BYTES};

/// Result of an in-place update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The record was updated in place; its `RecordId` is unchanged.
    InPlace,
    /// The record no longer fit on its page and was moved; indexes must be
    /// updated to point at the new `RecordId`.
    Moved(RecordId),
}

/// Arc-swap cell over the heap's page list, the same retained-snapshot
/// idiom as the catalog's `SnapshotCell` in `db.rs`: readers (every
/// record access and every scan) do one `Acquire` pointer load — no
/// lock, no reference-count traffic — and the writer (page allocation,
/// once per ~8 KiB of inserted data) publishes a new list and retains
/// the superseded one for the heap's lifetime so loaded borrows never
/// dangle. Retention cost is one superseded list per allocated page —
/// quadratic in page count with a word-sized constant, and allocation
/// is off the hot path.
struct PageList {
    current: AtomicPtr<Vec<PageId>>,
    // Boxing keeps `current`'s pointee at a stable address when the
    // history vector reallocates.
    #[allow(clippy::vec_box)]
    history: Mutex<Vec<Box<Vec<PageId>>>>,
}

impl PageList {
    fn new() -> Self {
        let cell = PageList {
            current: AtomicPtr::new(std::ptr::null_mut()),
            history: Mutex::new(Vec::new()),
        };
        let mut history = cell.history.lock();
        cell.publish_locked(&mut history, Vec::new());
        drop(history);
        cell
    }

    fn load(&self) -> &[PageId] {
        // SAFETY: `current` always points at a box owned by `history`,
        // which only grows; the list outlives any `&self` borrow.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    #[allow(clippy::vec_box)] // see `history`: boxes pin the pointee's address
    fn publish_locked(&self, history: &mut Vec<Box<Vec<PageId>>>, pages: Vec<PageId>) {
        let boxed = Box::new(pages);
        let ptr = &*boxed as *const Vec<PageId> as *mut Vec<PageId>;
        // Retain before the swap so no reader can ever observe a pointer
        // whose box is not yet (or no longer) owned.
        history.push(boxed);
        self.current.store(ptr, Ordering::Release);
    }
}

/// A heap file for one table.
pub struct HeapFile {
    table: TableId,
    buffer: Arc<BufferPool>,
    /// Pages belonging to this heap, in allocation order.
    pages: PageList,
}

impl HeapFile {
    /// Creates an empty heap file for `table`.
    pub fn new(table: TableId, buffer: Arc<BufferPool>) -> Self {
        HeapFile {
            table,
            buffer,
            pages: PageList::new(),
        }
    }

    /// The table this heap belongs to.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Number of pages currently in the heap.
    pub fn page_count(&self) -> usize {
        self.pages.load().len()
    }

    /// Inserts a record and returns its new id.
    ///
    /// Insertion first tries the last page (append-mostly workloads such as
    /// TPC-C order lines benefit), then allocates a new page.
    pub fn insert(&self, record: &[u8]) -> StorageResult<RecordId> {
        loop {
            // Fast path: one atomic load of the page-list snapshot, no
            // lock.
            if let Some(&pid) = self.pages.load().last() {
                if let Some(slot) = self.buffer.with_page(pid, |p| (p.insert(record), true))? {
                    return Ok(RecordId::new(pid, slot));
                }
            }
            // Slow path: allocate a new page. The history mutex doubles
            // as the allocation lock so concurrent inserters don't
            // allocate a page each for the same overflow.
            let mut history = self.pages.history.lock();
            let snapshot = self.pages.load();
            if let Some(&pid) = snapshot.last() {
                if let Some(slot) = self.buffer.with_page(pid, |p| (p.insert(record), true))? {
                    return Ok(RecordId::new(pid, slot));
                }
            }
            let pid = self.buffer.allocate_page()?;
            let mut next = snapshot.to_vec();
            next.push(pid);
            self.pages.publish_locked(&mut history, next);
            drop(history);
            if let Some(slot) = self.buffer.with_page(pid, |p| (p.insert(record), true))? {
                return Ok(RecordId::new(pid, slot));
            }
            // Concurrent inserters filled our fresh page before we got
            // to it. If the record can never fit even in an empty page,
            // fail; otherwise go around again.
            if crate::page::SlottedPage::new().insert(record).is_none() {
                return Err(StorageError::PageFull);
            }
        }
    }

    /// Runs `f` on the record at `rid`, in place, under the page's shared
    /// latch (see the module docs for what `f` may do).
    pub fn read<R>(&self, rid: RecordId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        self.buffer
            .read_page(rid.page, |p| p.get(rid.slot).map(f))?
            .ok_or(StorageError::NotFound)
    }

    /// Copies out the record at `rid`.
    pub fn get(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        self.read(rid, <[u8]>::to_vec)
    }

    /// [`HeapFile::read`] for versioned records: `f` receives the version
    /// header and the tuple bytes behind it.
    pub fn read_versioned<R>(
        &self,
        rid: RecordId,
        f: impl FnOnce(RecordVersion, &[u8]) -> R,
    ) -> StorageResult<R> {
        self.read(rid, |bytes| {
            version::split(bytes).map(|(ver, payload)| f(ver, payload))
        })?
    }

    /// Reads only the version header of the record at `rid` — the
    /// revalidation probe of the validated-read protocol. Copies 16 bytes
    /// instead of the whole record.
    pub fn read_version(&self, rid: RecordId) -> StorageResult<RecordVersion> {
        self.buffer
            .read_page(rid.page, |p| {
                p.prefix(rid.slot, RECORD_HEADER_BYTES)
                    .map(RecordVersion::from_bytes)
            })?
            .ok_or(StorageError::NotFound)?
    }

    /// Overwrites only the version header of the record at `rid` (the
    /// record's length and position never change).
    pub fn write_version(&self, rid: RecordId, version: RecordVersion) -> StorageResult<()> {
        let written = self.buffer.with_page(rid.page, |p| {
            (p.write_prefix(rid.slot, &version.to_bytes()), true)
        })?;
        if written {
            Ok(())
        } else {
            Err(StorageError::NotFound)
        }
    }

    /// Reads the record at `rid` through `read` (which receives the tuple
    /// bytes behind the version header) and, under the same page latch,
    /// stamps it **write-in-progress** (odd version word, `stamp` as the
    /// writer) — the seqlock entry point of the versioned update/delete
    /// path. Returns the header as it was and what `read` returned; when
    /// `read` fails the record is left unstamped. After a success the
    /// caller must either publish a new image (an even header) or restore
    /// the returned header on its error path; a record left odd blocks
    /// validated readers until its writer's transaction finishes.
    pub fn get_for_update<R>(
        &self,
        rid: RecordId,
        stamp: TxnId,
        read: impl FnOnce(&[u8]) -> StorageResult<R>,
    ) -> StorageResult<(RecordVersion, R)> {
        self.buffer.with_page(rid.page, |p| {
            let Some(bytes) = p.get(rid.slot) else {
                return (Err(StorageError::NotFound), false);
            };
            let (ver, before) = match version::split(bytes)
                .and_then(|(ver, payload)| read(payload).map(|before| (ver, before)))
            {
                Ok(read) => read,
                Err(e) => return (Err(e), false),
            };
            let marked = p.write_prefix(rid.slot, &ver.begin_write(stamp).to_bytes());
            debug_assert!(marked, "record present but header write failed");
            (Ok((ver, before)), true)
        })?
    }

    /// Updates the record at `rid`, relocating it if it no longer fits.
    pub fn update(&self, rid: RecordId, record: &[u8]) -> StorageResult<UpdateOutcome> {
        let updated = self
            .buffer
            .with_page(rid.page, |p| (p.update(rid.slot, record), true))?;
        if updated {
            return Ok(UpdateOutcome::InPlace);
        }
        // Record missing or page out of space: distinguish the two.
        let exists = self
            .buffer
            .read_page(rid.page, |p| p.get(rid.slot).is_some())?;
        if !exists {
            return Err(StorageError::NotFound);
        }
        // Relocate: delete then insert elsewhere.
        self.delete(rid)?;
        let new_rid = self.insert(record)?;
        Ok(UpdateOutcome::Moved(new_rid))
    }

    /// Deletes the record at `rid`.
    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        let deleted = self
            .buffer
            .with_page(rid.page, |p| (p.delete(rid.slot), true))?;
        if deleted {
            Ok(())
        } else {
            Err(StorageError::NotFound)
        }
    }

    /// Full scan: returns every live record with its id.
    ///
    /// The scan materializes page contents one page at a time; it is used by
    /// table loaders, recovery verification and the (rare) unindexed paths
    /// of the workloads.
    pub fn scan(&self) -> StorageResult<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        for &pid in self.pages.load() {
            self.buffer.read_page(pid, |p| {
                for (slot, rec) in p.iter() {
                    out.push((RecordId::new(pid, slot), rec.to_vec()));
                }
            })?;
        }
        Ok(out)
    }

    /// Number of live records (scans the heap).
    pub fn record_count(&self) -> StorageResult<usize> {
        Ok(self.scan()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapFile {
        HeapFile::new(1, Arc::new(BufferPool::in_memory(64)))
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let rid = h.insert(b"tuple-1").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"tuple-1");
        assert_eq!(h.table(), 1);
    }

    #[test]
    fn get_missing_record_errors() {
        let h = heap();
        let rid = h.insert(b"x").unwrap();
        h.delete(rid).unwrap();
        assert_eq!(h.get(rid), Err(StorageError::NotFound));
        assert_eq!(h.delete(rid), Err(StorageError::NotFound));
    }

    #[test]
    fn update_in_place_and_moved() {
        let h = heap();
        let rid = h.insert(&[1u8; 100]).unwrap();
        assert_eq!(h.update(rid, &[2u8; 50]).unwrap(), UpdateOutcome::InPlace);
        assert_eq!(h.get(rid).unwrap(), vec![2u8; 50]);
        // Fill the page so a growing update must relocate.
        while h.page_count() == 1 {
            h.insert(&vec![3u8; 500]).unwrap();
        }
        // rid's page is now full of big records; a very large growth may move.
        match h.update(rid, &vec![4u8; 7000]).unwrap() {
            UpdateOutcome::Moved(new_rid) => {
                assert_eq!(h.get(new_rid).unwrap(), vec![4u8; 7000]);
                assert!(h.get(rid).is_err());
            }
            UpdateOutcome::InPlace => {
                assert_eq!(h.get(rid).unwrap(), vec![4u8; 7000]);
            }
        }
    }

    #[test]
    fn spills_to_multiple_pages_and_scans() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..2000u32 {
            rids.push(h.insert(format!("record-{i:05}").as_bytes()).unwrap());
        }
        assert!(h.page_count() > 1);
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 2000);
        assert_eq!(h.record_count().unwrap(), 2000);
        // Every inserted rid is present in the scan.
        let ids: std::collections::HashSet<_> = scanned.iter().map(|(r, _)| *r).collect();
        for r in rids {
            assert!(ids.contains(&r));
        }
    }

    #[test]
    fn versioned_accessors_roundtrip_headers() {
        let h = heap();
        let v = RecordVersion::initial(7);
        let rid = h.insert(&version::encode_record(v, b"tuple")).unwrap();
        let read = h.read_versioned(rid, |ver, payload| (ver, payload.to_vec()));
        assert_eq!(read.unwrap(), (v, b"tuple".to_vec()));
        assert_eq!(h.read_version(rid).unwrap(), v);

        // get_for_update returns the pre-image and leaves the record odd.
        let (before, payload) = h.get_for_update(rid, 9, |p| Ok(p.to_vec())).unwrap();
        assert_eq!(before, v);
        assert_eq!(payload, b"tuple");
        let marked = h.read_version(rid).unwrap();
        assert!(marked.is_write_in_progress());
        assert_eq!(marked.stamp, 9);

        // A read that fails leaves the record as it was: nothing to restore.
        let failed: StorageResult<(RecordVersion, ())> =
            h.get_for_update(rid, 11, |_| Err(StorageError::PageFull));
        assert_eq!(failed, Err(StorageError::PageFull));
        assert_eq!(h.read_version(rid).unwrap(), marked);

        // Publishing a new even header makes the record stable again.
        h.write_version(rid, before.publish(9)).unwrap();
        let published = h.read_version(rid).unwrap();
        assert!(!published.is_write_in_progress());
        assert_eq!(published.word, before.word + 2);

        h.delete(rid).unwrap();
        assert!(h.read_version(rid).is_err());
        assert!(h.write_version(rid, v).is_err());
        assert!(h.get_for_update(rid, 1, |p| Ok(p.to_vec())).is_err());
    }

    #[test]
    fn concurrent_inserts_do_not_lose_records() {
        let h = Arc::new(heap());
        let mut handles = Vec::new();
        for t in 0..8 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    h.insert(format!("{t}:{i}").as_bytes()).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.record_count().unwrap(), 8 * 250);
    }
}
