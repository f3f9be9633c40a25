//! Slotted page layout.
//!
//! Every heap-file page is a fixed-size byte array with the classic slotted
//! layout used by Shore-MT and most disk-based storage managers:
//!
//! ```text
//! +---------------+------------------+---------------....----+-----------+
//! | header (16 B) | slot directory → |        free space     | ← records |
//! +---------------+------------------+---------------....----+-----------+
//! ```
//!
//! * header: `slot_count: u16`, `free_start: u16` (end of slot directory),
//!   `free_end: u16` (start of record area, grows downwards), 2 pad bytes,
//!   `page_lsn: u64` — the LSN of the WAL record covering the page's most
//!   recent mutation. The buffer pool stamps it when a page is dirtied and
//!   the eviction/writeback paths enforce WAL-before-data against it: page
//!   bytes never reach the page store before the log covering them is
//!   durable.
//! * each slot: `offset: u16`, `len: u16`; `offset == 0xFFFF` marks a
//!   deleted/free slot (page offsets never reach 0xFFFF because the page is
//!   smaller than 64 KiB).

use crate::types::{Lsn, SlotId};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 16;
const LSN_OFFSET: usize = 8;
const SLOT_SIZE: usize = 4;
const FREE_SLOT: u16 = u16::MAX;

/// A slotted page view over a fixed-size buffer.
///
/// `SlottedPage` owns its buffer: each buffer-pool frame holds one, and
/// the page store reads into and writes from it directly.
#[derive(Clone)]
pub struct SlottedPage {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// Creates an empty, formatted page.
    pub fn new() -> Self {
        let mut p = SlottedPage {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.format();
        p
    }

    /// Resets the page in place to empty (what the buffer pool does when
    /// the store has no bytes for it). Only the header is rewritten:
    /// with no slots, nothing can reach the bytes past it.
    pub fn format(&mut self) {
        self.data[..HEADER_SIZE].fill(0);
        self.set_free_start(HEADER_SIZE as u16);
        self.set_free_end(PAGE_SIZE as u16);
    }

    /// The page's own buffer, for the page store to read a page into.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Returns the raw page bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots in the directory (including deleted ones).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_start(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_free_start(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    fn free_end(&self) -> u16 {
        self.read_u16(4)
    }

    fn set_free_end(&mut self, v: u16) {
        self.write_u16(4, v);
    }

    /// LSN of the WAL record covering this page's most recent mutation
    /// (0 when the page has never been mutated under a WAL).
    pub fn lsn(&self) -> Lsn {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[LSN_OFFSET..LSN_OFFSET + 8]);
        u64::from_le_bytes(b)
    }

    /// Stamps the page LSN. Called by the buffer pool when a mutation
    /// dirties the page; LSNs only move forward.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.data[LSN_OFFSET..LSN_OFFSET + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    fn slot_offset(&self, slot: SlotId) -> usize {
        HEADER_SIZE + slot as usize * SLOT_SIZE
    }

    fn slot(&self, slot: SlotId) -> Option<(u16, u16)> {
        if slot >= self.slot_count() {
            return None;
        }
        let base = self.slot_offset(slot);
        let off = self.read_u16(base);
        let len = self.read_u16(base + 2);
        if off == FREE_SLOT {
            None
        } else {
            Some((off, len))
        }
    }

    fn set_slot(&mut self, slot: SlotId, off: u16, len: u16) {
        let base = self.slot_offset(slot);
        self.write_u16(base, off);
        self.write_u16(base + 2, len);
    }

    /// Free bytes available for a new record (accounting for a new slot
    /// directory entry if none can be reused).
    pub fn free_space(&self) -> usize {
        (self.free_end() as usize).saturating_sub(self.free_start() as usize)
    }

    /// Whether a record of `len` bytes fits on this page.
    pub fn fits(&self, len: usize) -> bool {
        // Worst case we need a new slot entry as well.
        self.free_space() >= len + SLOT_SIZE
    }

    /// Inserts a record, returning its slot, or `None` if it does not fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<SlotId> {
        if record.len() > PAGE_SIZE - HEADER_SIZE - SLOT_SIZE {
            return None;
        }
        // Try to reuse a deleted slot first (keeps the directory compact).
        let reuse = (0..self.slot_count()).find(|&s| {
            let base = self.slot_offset(s);
            self.read_u16(base) == FREE_SLOT
        });
        let need_new_slot = reuse.is_none();
        let needed = record.len() + if need_new_slot { SLOT_SIZE } else { 0 };
        if self.free_space() < needed {
            return None;
        }
        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                self.set_free_start(self.free_start() + SLOT_SIZE as u16);
                s
            }
        };
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Some(slot)
    }

    /// Reads the record stored in `slot`, if any.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        let (off, len) = self.slot(slot)?;
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Reads up to `len` leading bytes of the record in `slot` without
    /// exposing the rest. Used by the versioned-read revalidation pass,
    /// which only needs a record's fixed-size version header.
    pub fn prefix(&self, slot: SlotId, len: usize) -> Option<&[u8]> {
        let record = self.get(slot)?;
        Some(&record[..len.min(record.len())])
    }

    /// Overwrites the leading bytes of the record in `slot` in place.
    /// Returns `false` when the slot is empty or shorter than `prefix` —
    /// the record's length and position never change, so this is safe to
    /// run on a record other readers hold a [`RecordId`](crate::types) to
    /// (the versioned write path uses it to flip a record's version word).
    pub fn write_prefix(&mut self, slot: SlotId, prefix: &[u8]) -> bool {
        let Some((off, len)) = self.slot(slot) else {
            return false;
        };
        if (len as usize) < prefix.len() {
            return false;
        }
        let off = off as usize;
        self.data[off..off + prefix.len()].copy_from_slice(prefix);
        true
    }

    /// Deletes the record in `slot`. Returns `true` if a record was present.
    /// Space is reclaimed lazily (the record area is not compacted).
    pub fn delete(&mut self, slot: SlotId) -> bool {
        if self.slot(slot).is_none() {
            return false;
        }
        self.set_slot(slot, FREE_SLOT, 0);
        true
    }

    /// Updates the record in `slot` in place. Returns `false` when the slot
    /// is empty or the new record does not fit in the old record's space
    /// and the page has no free room for it (the caller then relocates the
    /// record to another page).
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> bool {
        let Some((off, len)) = self.slot(slot) else {
            return false;
        };
        if record.len() <= len as usize {
            // Shrinking or same-size update: overwrite in place.
            let off = off as usize;
            self.data[off..off + record.len()].copy_from_slice(record);
            self.set_slot(slot, off as u16, record.len() as u16);
            true
        } else if self.free_space() >= record.len() {
            // Growing update: append a fresh copy; old space is leaked until
            // the page is compacted/rewritten (as in Shore-MT's lazy reclaim).
            let new_end = self.free_end() as usize - record.len();
            self.data[new_end..new_end + record.len()].copy_from_slice(record);
            self.set_free_end(new_end as u16);
            self.set_slot(slot, new_end as u16, record.len() as u16);
            true
        } else {
            false
        }
    }

    /// Iterates over `(slot, record bytes)` of all live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        self.iter().count()
    }
}

impl std::fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("slots", &self.slot_count())
            .field("live", &self.live_records())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1).unwrap(), b"hello");
        assert_eq!(p.get(s2).unwrap(), b"world!");
        assert_ne!(s1, s2);
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"aaaa").unwrap();
        let _s2 = p.insert(b"bbbb").unwrap();
        assert!(p.delete(s1));
        assert!(p.get(s1).is_none());
        assert!(!p.delete(s1));
        let s3 = p.insert(b"cccc").unwrap();
        assert_eq!(s3, s1, "deleted slot should be reused");
        assert_eq!(p.get(s3).unwrap(), b"cccc");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc"));
        assert_eq!(p.get(s).unwrap(), b"abc");
        assert!(p.update(s, b"a much longer record than before"));
        assert_eq!(p.get(s).unwrap(), b"a much longer record than before");
        assert!(!p.update(99, b"x"));
    }

    #[test]
    fn prefix_reads_and_writes_in_place() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"versioned-record").unwrap();
        assert_eq!(p.prefix(s, 9).unwrap(), b"versioned");
        // A prefix longer than the record is clamped, not an error.
        assert_eq!(p.prefix(s, 1000).unwrap(), b"versioned-record");
        assert!(p.prefix(99, 4).is_none());

        assert!(p.write_prefix(s, b"VERSIONED"));
        assert_eq!(p.get(s).unwrap(), b"VERSIONED-record");
        // Writing past the record's length is refused outright.
        assert!(!p.write_prefix(s, &[0u8; 100]));
        assert!(!p.write_prefix(99, b"x"));
        p.delete(s);
        assert!(!p.write_prefix(s, b"x"), "deleted slot rejects writes");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = SlottedPage::new();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8192-byte page with a 16-byte header, 1004 bytes per
        // record+slot => 8 records fit.
        assert_eq!(n, 8);
        assert!(!p.fits(1000));
        assert!(p.fits(10));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = SlottedPage::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"persisted").unwrap();
        p.set_lsn(42);
        let mut copy = SlottedPage::new();
        copy.as_bytes_mut().copy_from_slice(p.as_bytes());
        assert_eq!(copy.get(s).unwrap(), b"persisted");
        assert_eq!(copy.slot_count(), p.slot_count());
        assert_eq!(copy.lsn(), 42);
    }

    #[test]
    fn page_lsn_defaults_to_zero_and_survives_mutation() {
        let mut p = SlottedPage::new();
        assert_eq!(p.lsn(), 0);
        p.set_lsn(7);
        let s = p.insert(b"record").unwrap();
        assert!(p.update(s, b"record2"));
        assert_eq!(p.lsn(), 7, "slot ops must not clobber the LSN field");
        p.set_lsn(9);
        assert_eq!(p.lsn(), 9);
        assert_eq!(p.get(s).unwrap(), b"record2");
    }

    #[test]
    fn iter_skips_deleted() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(a);
        let live: Vec<_> = p.iter().map(|(s, _)| s).collect();
        assert!(!live.contains(&a));
        assert!(live.contains(&c));
        assert_eq!(live.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Model-based test: a slotted page behaves like a map from slot to
        /// byte string under arbitrary insert/delete/update interleavings.
        #[test]
        fn behaves_like_a_map(ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(any::<u8>(), 1..200)), 1..120)) {
            let mut page = SlottedPage::new();
            let mut model: HashMap<SlotId, Vec<u8>> = HashMap::new();
            for (op, payload) in ops {
                match op {
                    0 => {
                        if let Some(slot) = page.insert(&payload) {
                            model.insert(slot, payload);
                        }
                    }
                    1 => {
                        if let Some(&slot) = model.keys().next() {
                            prop_assert!(page.delete(slot));
                            model.remove(&slot);
                        }
                    }
                    _ => {
                        if let Some(&slot) = model.keys().next() {
                            if page.update(slot, &payload) {
                                model.insert(slot, payload);
                            }
                        }
                    }
                }
                // Invariants: every model entry readable and equal.
                for (slot, bytes) in &model {
                    prop_assert_eq!(page.get(*slot).unwrap(), &bytes[..]);
                }
                prop_assert_eq!(page.live_records(), model.len());
            }
        }
    }
}
