//! The fixed-size, checksummed, slotted page — the unit of disk I/O.
//!
//! Every page in a store file is [`PAGE_SIZE`] bytes with a 16-byte
//! header:
//!
//! ```text
//! offset  0..4   checksum   four-lane rotated FNV-1a over the u32
//!                           words of bytes 4..PAGE_SIZE (see
//!                           [`checksum`]), written by
//!                           [`Page::seal`] just before the page goes to
//!                           disk and verified by [`Page::verify`] on
//!                           every read
//! offset  4..12  page LSN   the WAL position of the last log record
//!                           that described this page; the buffer pool's
//!                           flush-before-write discipline flushes the
//!                           log up to this LSN before the page is
//!                           written (see [`crate::paged::buffer`])
//! offset 12..14  slot count
//! offset 14..16  free ptr   records grow downward from PAGE_SIZE, the
//!                           slot directory grows upward from the header
//! ```
//!
//! Records are variable-length byte strings addressed by slot number;
//! each slot directory entry is `(offset: u16, len: u16)`. The node
//! table stores fixed 12-byte records through the same slotted API so
//! one code path serves all four page kinds (node / text / attr / meta).

use std::fmt;

/// Size of every page, on disk and in a buffer frame.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved for the page header.
pub const PAGE_HEADER: usize = 16;

/// Bytes of one slot directory entry.
pub const SLOT_SIZE: usize = 4;

/// Largest record a single page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - PAGE_HEADER - SLOT_SIZE;

/// Page number within a store file.
pub type PageId = u32;

/// What a page stores — logged with every page format so recovery can
/// tell the table extents apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// The file header / catalog root (page 0).
    Header = 0,
    /// Fixed-width interval-encoding node records.
    Node = 1,
    /// Text-content chunk records.
    Text = 2,
    /// Attribute records.
    Attr = 3,
    /// Catalog blob continuation pages.
    Meta = 4,
}

impl PageKind {
    /// Decode from the logged byte.
    pub fn from_u8(v: u8) -> Option<PageKind> {
        Some(match v {
            0 => PageKind::Header,
            1 => PageKind::Node,
            2 => PageKind::Text,
            3 => PageKind::Attr,
            4 => PageKind::Meta,
            _ => return None,
        })
    }
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// FNV-1a-32 offset basis and prime; the prime is odd, so multiplying
/// by it is invertible mod 2³².
const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

/// Hash lanes the checksum interleaves.
const LANES: usize = 4;

/// Left rotation after each multiply. A multiply only carries
/// differences upward, so without it a difference in bit 31 would stay
/// in bit 31 to the end and two such flips would cancel; the rotation
/// brings the well-mixed high bits back down for the next multiply.
const ROTATE: u32 = 15;

const _: () = assert!(
    (PAGE_SIZE - 4).is_multiple_of(4),
    "the checksummed body must be whole u32 words"
);

/// The page checksum over the body (`bytes[4..]`). Hand-rolled (no
/// external crates) and stable across platforms.
///
/// The body's 1 023 little-endian `u32` words are dealt round-robin to
/// four lanes, each stepped as `lane = rotl((lane ^ word) * prime, 15)`
/// — FNV-1a with a rotation — whose multiply chains are independent
/// and so overlap in the pipeline. The lanes are folded into one hash
/// in lane order, then the 3 words left over after the last 16-byte
/// block are folded in the same way.
///
/// Detection guarantee: every step is a bijection of the hash state
/// for a fixed word and of the word for a fixed state, so a change
/// confined to one aligned 4-byte word — every single-byte flip among
/// them — always changes the checksum. The state is as wide as the
/// stored field, so nothing is lost in a final fold. Changes spread
/// over several words are caught except by chance, including the same
/// bit flipped in several words.
///
/// The on-disk format depends on this function: changing it requires
/// a [`super::layout::VERSION`] bump.
fn checksum(body: &[u8]) -> u32 {
    let step = |hash: u32, word: &[u8]| {
        let mut le = [0u8; 4];
        le.copy_from_slice(word);
        (hash ^ u32::from_le_bytes(le))
            .wrapping_mul(FNV_PRIME)
            .rotate_left(ROTATE)
    };
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = body.chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = step(*lane, word);
        }
    }
    let hash = lanes
        .iter()
        .fold(FNV_OFFSET, |hash, lane| step(hash, &lane.to_le_bytes()));
    blocks.remainder().chunks_exact(4).fold(hash, step)
}

/// One in-memory page image.
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A zeroed page with an initialized (empty) slot directory.
    pub fn new() -> Page {
        let mut page = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        page.set_free_ptr(PAGE_SIZE as u16);
        page
    }

    /// Reset to the state of [`Page::new`], keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        self.set_free_ptr(PAGE_SIZE as u16);
    }

    /// The raw page image (for disk writes).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// The raw page image, mutable (for disk reads).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    // ---- header fields ---------------------------------------------------

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.bytes[off], self.bytes[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u32` at a byte offset.
    pub fn read_u32(&self, off: usize) -> u32 {
        super::layout::le_u32(&self.bytes[..], off)
    }

    /// Write a little-endian `u32` at a byte offset.
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u64` at a byte offset.
    pub fn read_u64(&self, off: usize) -> u64 {
        {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&self.bytes[off..off + 8]);
            u64::from_le_bytes(bytes)
        }
    }

    /// Write a little-endian `u64` at a byte offset.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The page LSN — the WAL position of the last record describing
    /// this page.
    pub fn lsn(&self) -> u64 {
        self.read_u64(4)
    }

    /// Stamp the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.write_u64(4, lsn);
    }

    /// Number of records on the page.
    pub fn slot_count(&self) -> u16 {
        self.read_u16(12)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.write_u16(12, n);
    }

    fn free_ptr(&self) -> u16 {
        self.read_u16(14)
    }

    fn set_free_ptr(&mut self, p: u16) {
        self.write_u16(14, p);
    }

    /// Bytes still available for one more record (including its slot).
    pub fn free_space(&self) -> usize {
        self.free_ptr() as usize - (PAGE_HEADER + self.slot_count() as usize * SLOT_SIZE)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len + SLOT_SIZE <= self.free_space()
    }

    // ---- slotted records -------------------------------------------------

    /// Append a record, returning its slot number, or `None` if the page
    /// is full.
    ///
    /// # Panics
    /// Panics if `rec` exceeds `MAX_RECORD` — callers chunk larger
    /// payloads (the text table) or reject them outright.
    pub fn insert(&mut self, rec: &[u8]) -> Option<u16> {
        assert!(
            rec.len() <= MAX_RECORD,
            "record of {} bytes exceeds MAX_RECORD ({MAX_RECORD})",
            rec.len()
        );
        if !self.fits(rec.len()) {
            return None;
        }
        let slot = self.slot_count();
        let start = self.free_ptr() as usize - rec.len();
        self.bytes[start..start + rec.len()].copy_from_slice(rec);
        let dir = PAGE_HEADER + slot as usize * SLOT_SIZE;
        self.write_u16(dir, start as u16);
        self.write_u16(dir + 2, rec.len() as u16);
        self.set_free_ptr(start as u16);
        self.set_slot_count(slot + 1);
        Some(slot)
    }

    /// The record stored in `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn record(&self, slot: u16) -> &[u8] {
        assert!(
            slot < self.slot_count(),
            "slot {slot} out of range (page has {})",
            self.slot_count()
        );
        let dir = PAGE_HEADER + slot as usize * SLOT_SIZE;
        let start = self.read_u16(dir) as usize;
        let len = self.read_u16(dir + 2) as usize;
        &self.bytes[start..start + len]
    }

    // ---- checksum --------------------------------------------------------

    /// Compute and store the checksum — called by the buffer pool just
    /// before the page image goes to disk.
    pub fn seal(&mut self) {
        let sum = checksum(&self.bytes[4..]);
        self.write_u32(0, sum);
    }

    /// Whether the stored checksum matches the page contents — verified
    /// on every disk read.
    pub fn verify(&self) -> bool {
        self.read_u32(0) == checksum(&self.bytes[4..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotted_insert_and_read_back() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"paged world").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(p.record(0), b"hello");
        assert_eq!(p.record(1), b"paged world");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn free_space_shrinks_by_record_plus_slot() {
        let mut p = Page::new();
        let before = p.free_space();
        p.insert(b"12345678").unwrap();
        assert_eq!(p.free_space(), before - 8 - SLOT_SIZE);
    }

    #[test]
    fn full_page_rejects_inserts() {
        let mut p = Page::new();
        let rec = [7u8; 1000];
        let mut inserted = 0;
        while p.insert(&rec).is_some() {
            inserted += 1;
        }
        assert_eq!(inserted, (PAGE_SIZE - PAGE_HEADER) / (1000 + SLOT_SIZE));
        assert!(p.insert(&rec).is_none());
        // Every record survived intact.
        for slot in 0..p.slot_count() {
            assert_eq!(p.record(slot), &rec);
        }
    }

    #[test]
    fn max_record_fills_a_fresh_page() {
        let mut p = Page::new();
        let rec = vec![1u8; MAX_RECORD];
        assert!(p.insert(&rec).is_some());
        assert!(!p.fits(1));
    }

    #[test]
    fn seal_then_verify_round_trips_and_detects_corruption() {
        let mut p = Page::new();
        p.insert(b"durable bytes").unwrap();
        p.set_lsn(42);
        p.seal();
        assert!(p.verify());
        assert_eq!(p.lsn(), 42);
        // Any payload flip breaks the checksum.
        p.bytes_mut()[2000] ^= 0xff;
        assert!(!p.verify());
        p.bytes_mut()[2000] ^= 0xff;
        assert!(p.verify());
        // Flipping the stored checksum itself is also caught.
        p.bytes_mut()[0] ^= 0x01;
        assert!(!p.verify());
    }

    /// A full node page as bulkload writes it: fixed 12-byte interval
    /// records in every slot, stamped and sealed.
    fn node_page(lsn: u64, salt: u32) -> Page {
        use super::super::layout::{NodeRec, NODES_PER_PAGE};
        let mut p = Page::new();
        for i in 0..NODES_PER_PAGE as u32 {
            let rec = NodeRec {
                parent: i / 3,
                end: i * 7 + salt,
                tag_code: (i % 17) as u16,
                level: (i % 9) as u16,
            };
            p.insert(&rec.encode()).unwrap();
        }
        assert!(!p.fits(super::super::layout::NODE_RECORD), "page is full");
        p.set_lsn(lsn);
        p.seal();
        assert!(p.verify());
        p
    }

    #[test]
    fn every_single_byte_flip_fails_verification() {
        let mut p = node_page(7, 1);
        for off in 4..PAGE_SIZE {
            for mask in [0x01, 0x80, 0xff] {
                p.bytes_mut()[off] ^= mask;
                assert!(!p.verify(), "flip {mask:#04x} at byte {off} undetected");
                p.bytes_mut()[off] ^= mask;
            }
        }
        assert!(p.verify());
    }

    #[test]
    fn a_torn_image_fails_verification() {
        let old = node_page(7, 1);
        let new = node_page(8, 2);
        let half = PAGE_SIZE / 2;
        let mut torn = Page::new();
        torn.bytes_mut()[..half].copy_from_slice(&new.bytes()[..half]);
        torn.bytes_mut()[half..].copy_from_slice(&old.bytes()[half..]);
        assert_ne!(torn.bytes()[..], new.bytes()[..]);
        assert_ne!(torn.bytes()[..], old.bytes()[..]);
        assert!(!torn.verify(), "new first half over an old second half");
    }

    #[test]
    fn swapping_words_of_different_lanes_fails_verification() {
        let page = node_page(7, 1);
        // Body word `w` sits at byte 4 + 4w and feeds lane w % LANES.
        let at = |w: usize| 4 + 4 * w;
        for a in 0..LANES {
            for b in (a + 1)..LANES {
                for (wa, wb) in [(40 + a, 40 + b), (8 + a, 800 + b), (1000 + b, 500 + a)] {
                    assert_ne!(wa % LANES, wb % LANES);
                    let mut p = Page::new();
                    p.bytes_mut().copy_from_slice(page.bytes());
                    let (x, y) = (p.read_u32(at(wa)), p.read_u32(at(wb)));
                    assert_ne!(x, y, "words {wa} and {wb} must differ");
                    p.write_u32(at(wa), y);
                    p.write_u32(at(wb), x);
                    assert!(!p.verify(), "swap of words {wa} and {wb} undetected");
                }
            }
        }
    }

    #[test]
    fn flipping_high_bits_of_two_words_fails_verification() {
        let page = node_page(7, 1);
        let mut p = Page::new();
        p.bytes_mut().copy_from_slice(page.bytes());
        // Body word `w`'s top byte (bits 24..32) sits at byte 4 + 4w + 3.
        let top = |w: usize| 4 + 4 * w + 3;
        let words = PAGE_SIZE / 4 - 1;
        let mut pairs: Vec<(usize, usize)> = (0..words - 4)
            .flat_map(|a| [(a, a + 1), (a, a + LANES)])
            .collect();
        for a in (0..words).step_by(31) {
            pairs.extend((a + 1..words).step_by(31).map(|b| (a, b)));
        }
        for (a, b) in pairs {
            // Bits 28..32, every combination across the two words.
            for ma in [0x10, 0x20, 0x40, 0x80] {
                for mb in [0x10, 0x20, 0x40, 0x80] {
                    p.bytes_mut()[top(a)] ^= ma;
                    p.bytes_mut()[top(b)] ^= mb;
                    assert!(
                        !p.verify(),
                        "flips {ma:#04x} in word {a} and {mb:#04x} in word {b} undetected"
                    );
                    p.bytes_mut()[top(a)] ^= ma;
                    p.bytes_mut()[top(b)] ^= mb;
                }
            }
        }
        assert!(p.verify());
    }

    /// Pins the on-disk checksum. Changing `checksum` changes every
    /// sealed page, so updating this value requires a
    /// `layout::VERSION` bump.
    #[test]
    fn golden_checksum_pins_the_format() {
        let mut p = Page::new();
        p.insert(b"XMark golden page").unwrap();
        p.insert(&[0xa5; 100]).unwrap();
        p.set_lsn(0x0102_0304_0506_0708);
        p.seal();
        assert_eq!(p.read_u32(0), 0x8f3a_3582);
    }

    #[test]
    fn page_kind_round_trips() {
        for kind in [
            PageKind::Header,
            PageKind::Node,
            PageKind::Text,
            PageKind::Attr,
            PageKind::Meta,
        ] {
            assert_eq!(PageKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(PageKind::from_u8(250), None);
    }
}
