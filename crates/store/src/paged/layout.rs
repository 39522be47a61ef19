//! The page-file layout: record codecs, the header page, and the
//! catalog blob.
//!
//! A store file is laid out as contiguous extents of same-kind pages:
//!
//! ```text
//! page 0            header (magic, format version 2, extent table)
//! node_start ..     fixed 12-byte interval-encoding node records,
//!                    [`NODES_PER_PAGE`] per page → node id addresses a
//!                    (page, slot) pair by pure arithmetic
//! text_start ..     text chunks: [node_id u32][bytes], long values
//!                    split across consecutive records; the catalog's
//!                    sparse first-id-per-page index locates a node's
//!                    first chunk in O(log pages)
//! attr_start ..     attribute records: [owner u32][name_code u16]
//!                    [value bytes], consecutive per owner, with a
//!                    sparse first-owner-per-page index
//! meta_start ..     the encoded [`Catalog`] blob (tag/attr name
//!                    tables, per-tag counts, sparse indexes), chunked
//!                    across meta pages
//! ```
//!
//! The header page is written *last* during bulkload, so a torn load
//! leaves an unreadable header (belt) on top of the WAL's missing
//! `EndBulkLoad` record (suspenders).

use std::io;

use super::page::{Page, MAX_RECORD, PAGE_HEADER, PAGE_SIZE, SLOT_SIZE};

/// File magic: "XPG1" little-endian.
pub const MAGIC: u32 = 0x3147_5058;

/// Format version. Version 2 changed the page checksum to four
/// interleaved lanes of rotated FNV-1a over `u32` words (`page.rs`); a
/// version-1 file fails verification and is refused by its version.
pub const VERSION: u32 = 2;

/// Bytes of one encoded node record.
pub const NODE_RECORD: usize = 12;

/// Fixed node records per node page — fixed width makes node-id →
/// (page, slot) pure arithmetic.
pub const NODES_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER) / (NODE_RECORD + SLOT_SIZE);

/// Largest text chunk payload per record (record = 4-byte node id +
/// payload).
pub const TEXT_CHUNK: usize = MAX_RECORD - 4;

/// One decoded node-table record (the interval encoding of one node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRec {
    /// Parent node id (`u32::MAX` for the root).
    pub parent: u32,
    /// Last preorder id in this node's subtree (interval end).
    pub end: u32,
    /// Tag code (`u16::MAX` marks a text node).
    pub tag_code: u16,
    /// Depth below the root.
    pub level: u16,
}

impl NodeRec {
    /// Encode to the fixed 12-byte on-page form.
    pub fn encode(&self) -> [u8; NODE_RECORD] {
        let mut out = [0u8; NODE_RECORD];
        out[0..4].copy_from_slice(&self.parent.to_le_bytes());
        out[4..8].copy_from_slice(&self.end.to_le_bytes());
        out[8..10].copy_from_slice(&self.tag_code.to_le_bytes());
        out[10..12].copy_from_slice(&self.level.to_le_bytes());
        out
    }

    /// Decode from an on-page record.
    ///
    /// # Panics
    /// Panics if `rec` is not exactly `NODE_RECORD` bytes — node pages
    /// only ever hold fixed-width records.
    pub fn decode(rec: &[u8]) -> NodeRec {
        assert_eq!(rec.len(), NODE_RECORD, "malformed node record");
        NodeRec {
            parent: le_u32(rec, 0),
            end: le_u32(rec, 4),
            tag_code: le_u16(rec, 8),
            level: le_u16(rec, 10),
        }
    }
}

/// Read a little-endian `u32` at `off` — the record-decode primitive the
/// whole paged layer shares instead of per-site `try_into().expect(…)`.
///
/// # Panics
/// Panics if `rec` has fewer than `off + 4` bytes; record widths are
/// fixed by the page layout, so a short slice is a layout bug.
pub(crate) fn le_u32(rec: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&rec[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// Read a little-endian `u16` at `off` (see [`le_u32`]).
pub(crate) fn le_u16(rec: &[u8], off: usize) -> u16 {
    let mut bytes = [0u8; 2];
    bytes.copy_from_slice(&rec[off..off + 2]);
    u16::from_le_bytes(bytes)
}

/// The header page (page 0): magic, version, and the extent table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Header {
    /// Total nodes in the document.
    pub node_count: u32,
    /// Root node id.
    pub root: u32,
    /// First node page.
    pub node_start: u32,
    /// Node extent length in pages.
    pub node_pages: u32,
    /// First text page.
    pub text_start: u32,
    /// Text extent length in pages.
    pub text_pages: u32,
    /// First attribute page.
    pub attr_start: u32,
    /// Attribute extent length in pages.
    pub attr_pages: u32,
    /// First catalog page.
    pub meta_start: u32,
    /// Catalog extent length in pages.
    pub meta_pages: u32,
    /// Encoded catalog length in bytes.
    pub meta_len: u32,
}

impl Header {
    const FIELDS: usize = 11;
    /// Fixed fields start after the 16-byte page header.
    const BASE: usize = PAGE_HEADER;

    /// Serialize into the header page image (magic and version first).
    pub fn write_to(&self, page: &mut Page) {
        page.write_u32(Self::BASE, MAGIC);
        page.write_u32(Self::BASE + 4, VERSION);
        page.write_u32(Self::BASE + 8, PAGE_SIZE as u32);
        let fields = [
            self.node_count,
            self.root,
            self.node_start,
            self.node_pages,
            self.text_start,
            self.text_pages,
            self.attr_start,
            self.attr_pages,
            self.meta_start,
            self.meta_pages,
            self.meta_len,
        ];
        for (i, f) in fields.iter().enumerate() {
            page.write_u32(Self::BASE + 12 + i * 4, *f);
        }
    }

    /// The version a header page claims when its magic matches and its
    /// version is a known older one (`1..VERSION`). Read from an
    /// unverified image, this only names the format of a file that
    /// failed verification; no other header field is trusted. Any other
    /// version is not a format but corruption, so it yields `None`.
    pub(crate) fn older_version(page: &Page) -> Option<u32> {
        let version = page.read_u32(Self::BASE + 4);
        (page.read_u32(Self::BASE) == MAGIC && (1..VERSION).contains(&version)).then_some(version)
    }

    /// Parse the header page, validating magic / version / page size.
    ///
    /// # Errors
    /// `InvalidData` when the page is not a current-version store header —
    /// a torn bulkload leaves page 0 zeroed and lands here.
    pub fn read_from(page: &Page) -> io::Result<Header> {
        let bad = |what: &str, got: u32, want: u32| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not a page-store file: {what} {got:#x} != {want:#x}"),
            )
        };
        let magic = page.read_u32(Self::BASE);
        if magic != MAGIC {
            return Err(bad("magic", magic, MAGIC));
        }
        let version = page.read_u32(Self::BASE + 4);
        if version != VERSION {
            return Err(bad("version", version, VERSION));
        }
        let psize = page.read_u32(Self::BASE + 8);
        if psize != PAGE_SIZE as u32 {
            return Err(bad("page size", psize, PAGE_SIZE as u32));
        }
        let mut fields = [0u32; Self::FIELDS];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = page.read_u32(Self::BASE + 12 + i * 4);
        }
        Ok(Header {
            node_count: fields[0],
            root: fields[1],
            node_start: fields[2],
            node_pages: fields[3],
            text_start: fields[4],
            text_pages: fields[5],
            attr_start: fields[6],
            attr_pages: fields[7],
            meta_start: fields[8],
            meta_pages: fields[9],
            meta_len: fields[10],
        })
    }
}

/// The catalog: everything the store keeps resident after a cold open —
/// name tables, per-tag counts (exact statistics for the planner), and
/// the sparse page indexes for the variable-width tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    /// Element tag names, indexed by tag code.
    pub tag_names: Vec<String>,
    /// Attribute names, indexed by name code.
    pub attr_names: Vec<String>,
    /// Node count per tag code (text nodes are counted under the
    /// pseudo-code at the end).
    pub tag_counts: Vec<u32>,
    /// First node id with a chunk on each text page (sparse index).
    pub text_first_id: Vec<u32>,
    /// First owner id on each attribute page (sparse index).
    pub attr_first_owner: Vec<u32>,
}

impl Catalog {
    /// Encode to the meta blob (length-prefixed, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str_table(&mut out, &self.tag_names);
        put_str_table(&mut out, &self.attr_names);
        put_u32_table(&mut out, &self.tag_counts);
        put_u32_table(&mut out, &self.text_first_id);
        put_u32_table(&mut out, &self.attr_first_owner);
        out
    }

    /// Decode a meta blob.
    ///
    /// # Errors
    /// `InvalidData` on truncation or non-UTF-8 names.
    pub fn decode(buf: &[u8]) -> io::Result<Catalog> {
        let mut cur = Cursor { buf, off: 0 };
        let catalog = Catalog {
            tag_names: take_str_table(&mut cur)?,
            attr_names: take_str_table(&mut cur)?,
            tag_counts: take_u32_table(&mut cur)?,
            text_first_id: take_u32_table(&mut cur)?,
            attr_first_owner: take_u32_table(&mut cur)?,
        };
        if cur.off != buf.len() {
            return Err(corrupt(format!(
                "catalog has {} trailing bytes",
                buf.len() - cur.off
            )));
        }
        Ok(catalog)
    }

    /// Approximate heap bytes this catalog keeps resident.
    pub fn resident_bytes(&self) -> usize {
        let strings = |v: &[String]| -> usize {
            v.iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum()
        };
        strings(&self.tag_names)
            + strings(&self.attr_names)
            + 4 * (self.tag_counts.len() + self.text_first_id.len() + self.attr_first_owner.len())
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let chunk = self
            .buf
            .get(self.off..self.off + n)
            .ok_or_else(|| corrupt(format!("catalog truncated at byte {}", self.off)))?;
        self.off += n;
        Ok(chunk)
    }

    fn take_u32(&mut self) -> io::Result<u32> {
        Ok(le_u32(self.take(4)?, 0))
    }
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_u32_table(out: &mut Vec<u8>, vals: &[u32]) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn take_u32_table(cur: &mut Cursor<'_>) -> io::Result<Vec<u32>> {
    let n = cur.take_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.take_u32()?);
    }
    Ok(out)
}

fn put_str_table(out: &mut Vec<u8>, vals: &[String]) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    for s in vals {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

fn take_str_table(cur: &mut Cursor<'_>) -> io::Result<Vec<String>> {
    let n = cur.take_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = cur.take_u32()? as usize;
        let bytes = cur.take(len)?;
        out.push(
            std::str::from_utf8(bytes)
                .map_err(|_| corrupt("catalog name is not UTF-8".into()))?
                .to_owned(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_record_round_trips() {
        let rec = NodeRec {
            parent: 7,
            end: 123_456,
            tag_code: 42,
            level: 9,
        };
        assert_eq!(NodeRec::decode(&rec.encode()), rec);
        let root = NodeRec {
            parent: u32::MAX,
            end: 0,
            tag_code: u16::MAX,
            level: 0,
        };
        assert_eq!(NodeRec::decode(&root.encode()), root);
    }

    #[test]
    fn nodes_per_page_fills_exactly() {
        let mut p = Page::new();
        let rec = NodeRec {
            parent: 1,
            end: 2,
            tag_code: 3,
            level: 4,
        }
        .encode();
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        assert_eq!(n, NODES_PER_PAGE);
    }

    #[test]
    fn header_round_trips_and_rejects_garbage() {
        let hdr = Header {
            node_count: 100,
            root: 0,
            node_start: 1,
            node_pages: 2,
            text_start: 3,
            text_pages: 4,
            attr_start: 7,
            attr_pages: 1,
            meta_start: 8,
            meta_pages: 1,
            meta_len: 321,
        };
        let mut page = Page::new();
        hdr.write_to(&mut page);
        assert_eq!(Header::read_from(&page).unwrap(), hdr);
        // A zeroed page (torn bulkload) is not a header.
        let blank = Page::new();
        let err = Header::read_from(&blank).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn catalog_round_trips() {
        let cat = Catalog {
            tag_names: vec!["site".into(), "regions".into(), "item".into()],
            attr_names: vec!["id".into(), "category".into()],
            tag_counts: vec![1, 6, 2175, 99],
            text_first_id: vec![0, 400, 913],
            attr_first_owner: vec![2, 500],
        };
        let blob = cat.encode();
        assert_eq!(Catalog::decode(&blob).unwrap(), cat);
        assert!(cat.resident_bytes() > 0);
    }

    #[test]
    fn catalog_rejects_truncation_and_trailing_bytes() {
        let cat = Catalog {
            tag_names: vec!["a".into()],
            ..Catalog::default()
        };
        let blob = cat.encode();
        for cut in [1, blob.len() / 2, blob.len() - 1] {
            assert!(Catalog::decode(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = blob.clone();
        padded.push(0);
        assert!(Catalog::decode(&padded).is_err());
    }
}
