//! The minimal append-only write-ahead log.
//!
//! The paged backend is read-mostly today (bulkload, then queries), but
//! the ROADMAP's structural-update path needs a durability substrate —
//! this module is it. The contract is the classic WAL discipline:
//!
//! 1. every page mutation is *described* by a [`LogRecord`] appended
//!    here first, and the resulting [`Lsn`] is stamped onto the page;
//! 2. before the buffer pool writes a dirty page whose LSN is not yet
//!    durable to the data file, it forces the whole pending log
//!    ([`LogManager::flush_all`]), which covers that LSN (**log before
//!    data** — see `BufferPool::write_back`);
//! 3. [`LogManager::read_all`] replays the records at open time, which
//!    for the bulkload means one integrity check: a page file whose log
//!    lacks the closing [`LogRecord::EndBulkLoad`] was torn mid-load and
//!    is rejected rather than silently served.
//!
//! The transaction layer (`xmark-txn`) extends the log with **logical
//! redo/undo records** (`Txn*` variants): a commit appends one
//! [`LogRecord::TxnBegin`], the transaction's operations, and a closing
//! [`LogRecord::TxnCommit`], then forces the log *before* publishing the
//! new snapshot (force-log-at-commit). The commit protocol is no-steal
//! (an uncommitted transaction's delta lives only in writer-private
//! memory, so aborts never reach the log) and no-force for data pages
//! (the bulkloaded pages are immutable; committed structural changes are
//! re-derived from the log). Crash recovery is therefore exactly: replay
//! the transactions whose `TxnCommit` survived, in log order — see
//! `xmark_txn::recover_paged`. Undo payloads (`undo_xml`, old values)
//! ride along ARIES-style so losers are diagnosable, but no-steal means
//! they are never applied.
//!
//! Records are length-framed (`len: u32, tag: u8, payload`); an LSN is
//! the byte offset just *past* a record, so `flush(lsn)` is "make the
//! first `lsn` log bytes durable". (The length field is 4 bytes because
//! a logical insert record carries a whole subtree as XML text, which
//! can exceed 64 KiB.)

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use super::page::{PageId, PageKind};

use crate::sync::lock;

/// A log sequence number: the byte offset just past a record.
pub type Lsn = u64;

/// One write-ahead log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A bulkload began (node count known up front from the parse).
    BeginBulkLoad {
        /// Total nodes the load will write.
        nodes: u32,
    },
    /// Page `page` was formatted as `kind` and filled by the load.
    FormatPage {
        /// The page number.
        page: PageId,
        /// What the page stores.
        kind: PageKind,
    },
    /// The bulkload committed: all pages flushed, header written.
    EndBulkLoad {
        /// Total pages in the finished file.
        pages: u32,
    },
    /// All dirty state up to this point is on disk.
    Checkpoint,
    /// A transaction's commit began writing its logical records.
    TxnBegin {
        /// The transaction id (monotonic per store).
        txn: u64,
    },
    /// Redo: a subtree (as XML text) was inserted as the last child of
    /// `parent`. Replay re-parses the XML and re-inserts; deterministic
    /// id/rank allocation makes the replayed snapshot identical.
    TxnInsert {
        /// The owning transaction.
        txn: u64,
        /// The parent node id the subtree was appended under.
        parent: u32,
        /// The inserted subtree, serialized.
        xml: String,
    },
    /// Redo: the subtree rooted at `node` was deleted. `undo_xml` is the
    /// ARIES-style undo image (never applied under no-steal).
    TxnDelete {
        /// The owning transaction.
        txn: u64,
        /// The deleted subtree's root id.
        node: u32,
        /// Serialization of the deleted subtree (undo image).
        undo_xml: String,
    },
    /// Redo: the text node `node`'s content was replaced.
    TxnSetText {
        /// The owning transaction.
        txn: u64,
        /// The text node id.
        node: u32,
        /// Previous content (undo image).
        old: String,
        /// New content (redo image).
        new: String,
    },
    /// Redo: attribute `name` of element `node` was set.
    TxnSetAttr {
        /// The owning transaction.
        txn: u64,
        /// The element id.
        node: u32,
        /// The attribute name.
        name: String,
        /// Previous value, `None` when the attribute was absent (undo
        /// image).
        old: Option<String>,
        /// New value (redo image).
        new: String,
    },
    /// The transaction's records are complete; forcing the log past this
    /// point makes the commit durable.
    TxnCommit {
        /// The committed transaction.
        txn: u64,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], off: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(buf.get(*off..*off + 4)?.try_into().ok()?) as usize;
    *off += 4;
    let s = std::str::from_utf8(buf.get(*off..*off + len)?).ok()?;
    *off += len;
    Some(s.to_string())
}

impl LogRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // len, patched below
        match self {
            LogRecord::BeginBulkLoad { nodes } => {
                out.push(0);
                out.extend_from_slice(&nodes.to_le_bytes());
            }
            LogRecord::FormatPage { page, kind } => {
                out.push(1);
                out.extend_from_slice(&page.to_le_bytes());
                out.push(*kind as u8);
            }
            LogRecord::EndBulkLoad { pages } => {
                out.push(2);
                out.extend_from_slice(&pages.to_le_bytes());
            }
            LogRecord::Checkpoint => out.push(3),
            LogRecord::TxnBegin { txn } => {
                out.push(4);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::TxnInsert { txn, parent, xml } => {
                out.push(5);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&parent.to_le_bytes());
                put_str(out, xml);
            }
            LogRecord::TxnDelete {
                txn,
                node,
                undo_xml,
            } => {
                out.push(6);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                put_str(out, undo_xml);
            }
            LogRecord::TxnSetText {
                txn,
                node,
                old,
                new,
            } => {
                out.push(7);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                put_str(out, old);
                put_str(out, new);
            }
            LogRecord::TxnSetAttr {
                txn,
                node,
                name,
                old,
                new,
            } => {
                out.push(8);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                put_str(out, name);
                match old {
                    Some(value) => {
                        out.push(1);
                        put_str(out, value);
                    }
                    None => out.push(0),
                }
                put_str(out, new);
            }
            LogRecord::TxnCommit { txn } => {
                out.push(9);
                out.extend_from_slice(&txn.to_le_bytes());
            }
        }
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Option<LogRecord> {
        let tag = *buf.first()?;
        let body = &buf[1..];
        let u32_at = |b: &[u8], off: usize| -> Option<u32> {
            Some(u32::from_le_bytes(b.get(off..off + 4)?.try_into().ok()?))
        };
        let u64_at = |b: &[u8], off: usize| -> Option<u64> {
            Some(u64::from_le_bytes(b.get(off..off + 8)?.try_into().ok()?))
        };
        Some(match tag {
            0 => LogRecord::BeginBulkLoad {
                nodes: u32_at(body, 0)?,
            },
            1 => LogRecord::FormatPage {
                page: u32_at(body, 0)?,
                kind: PageKind::from_u8(*body.get(4)?)?,
            },
            2 => LogRecord::EndBulkLoad {
                pages: u32_at(body, 0)?,
            },
            3 => LogRecord::Checkpoint,
            4 => LogRecord::TxnBegin {
                txn: u64_at(body, 0)?,
            },
            5 => {
                let mut off = 12;
                LogRecord::TxnInsert {
                    txn: u64_at(body, 0)?,
                    parent: u32_at(body, 8)?,
                    xml: get_str(body, &mut off)?,
                }
            }
            6 => {
                let mut off = 12;
                LogRecord::TxnDelete {
                    txn: u64_at(body, 0)?,
                    node: u32_at(body, 8)?,
                    undo_xml: get_str(body, &mut off)?,
                }
            }
            7 => {
                let mut off = 12;
                LogRecord::TxnSetText {
                    txn: u64_at(body, 0)?,
                    node: u32_at(body, 8)?,
                    old: get_str(body, &mut off)?,
                    new: get_str(body, &mut off)?,
                }
            }
            8 => {
                let mut off = 12;
                let txn = u64_at(body, 0)?;
                let node = u32_at(body, 8)?;
                let name = get_str(body, &mut off)?;
                let old = match body.get(off)? {
                    0 => {
                        off += 1;
                        None
                    }
                    1 => {
                        off += 1;
                        Some(get_str(body, &mut off)?)
                    }
                    _ => return None,
                };
                LogRecord::TxnSetAttr {
                    txn,
                    node,
                    name,
                    old,
                    new: get_str(body, &mut off)?,
                }
            }
            9 => LogRecord::TxnCommit {
                txn: u64_at(body, 0)?,
            },
            _ => return None,
        })
    }
}

struct LogState {
    /// Bytes appended but not yet written to the file.
    pending: Vec<u8>,
    /// LSN of the first pending byte (== bytes already durable).
    durable: Lsn,
    /// `sync_data` calls made so far.
    forces: u64,
    file: File,
}

/// The append/flush end of one `.wal` file.
pub struct LogManager {
    state: Mutex<LogState>,
    path: PathBuf,
}

impl LogManager {
    /// Create (or truncate) the log at `path`.
    pub fn create(path: &Path) -> io::Result<LogManager> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(LogManager {
            state: Mutex::new(LogState {
                pending: Vec::new(),
                durable: 0,
                forces: 0,
                file,
            }),
            path: path.to_path_buf(),
        })
    }

    /// Open an existing log for appending — the cold-open path. Every
    /// byte already in the file counts as durable.
    pub fn open(path: &Path) -> io::Result<LogManager> {
        let file = OpenOptions::new().read(true).append(true).open(path)?;
        let durable = file.metadata()?.len();
        Ok(LogManager {
            state: Mutex::new(LogState {
                pending: Vec::new(),
                durable,
                forces: 0,
                file,
            }),
            path: path.to_path_buf(),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a record, returning the LSN just past it. The record is
    /// buffered; it reaches disk on the next [`LogManager::flush`]
    /// covering it.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let mut state = lock(&self.state);
        rec.encode(&mut state.pending);
        state.durable + state.pending.len() as u64
    }

    /// Make every log byte up to `lsn` durable. A no-op when already
    /// flushed that far.
    pub fn flush(&self, lsn: Lsn) -> io::Result<()> {
        let mut state = lock(&self.state);
        if lsn <= state.durable {
            return Ok(());
        }
        let take = (lsn - state.durable) as usize;
        let take = take.min(state.pending.len());
        // Flush whole pending prefix covering `lsn` (records are never
        // split: append pushed them atomically into the buffer).
        let chunk: Vec<u8> = state.pending.drain(..take).collect();
        state.file.write_all(&chunk)?;
        state.file.sync_data()?;
        state.forces += 1;
        state.durable += chunk.len() as u64;
        Ok(())
    }

    /// Flush everything appended so far: one force, or none when
    /// nothing is pending. A dirty write-back calls this rather than
    /// [`LogManager::flush`] to its page's LSN, so one force covers every
    /// page formatted since the last one.
    pub fn flush_all(&self) -> io::Result<()> {
        let lsn = {
            let state = lock(&self.state);
            state.durable + state.pending.len() as u64
        };
        self.flush(lsn)
    }

    /// Log forces (`sync_data` calls) made through this handle so far.
    pub fn forces(&self) -> u64 {
        lock(&self.state).forces
    }

    /// Bytes made durable so far.
    pub fn flushed_lsn(&self) -> Lsn {
        lock(&self.state).durable
    }

    /// Total log bytes (durable + pending).
    pub fn size_bytes(&self) -> usize {
        let state = lock(&self.state);
        state.durable as usize + state.pending.len()
    }

    /// Read every record of the log at `path` — the open-time replay
    /// scan. Trailing garbage (a torn final record) yields an error.
    pub fn read_all(path: &Path) -> io::Result<Vec<LogRecord>> {
        let bytes = std::fs::read(path)?;
        let (records, valid) = parse_records(&bytes);
        if valid < bytes.len() {
            return Err(torn(path, valid));
        }
        Ok(records)
    }

    /// Read the longest valid record *prefix* of the log at `path`,
    /// returning the records plus the byte offset the prefix ends at —
    /// the crash-recovery scan. A torn tail (the crash hit mid-append)
    /// is expected and simply ends the prefix; recovery truncates the
    /// file back to the returned boundary before reopening the store.
    pub fn read_prefix(path: &Path) -> io::Result<(Vec<LogRecord>, u64)> {
        let bytes = std::fs::read(path)?;
        let (records, valid) = parse_records(&bytes);
        Ok((records, valid as u64))
    }
}

/// Decode records from the front of `bytes`; returns them plus the byte
/// length of the valid prefix (== `bytes.len()` when nothing is torn).
fn parse_records(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let Some(head) = bytes
            .get(off..off + 4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
        else {
            break;
        };
        let len = u32::from_le_bytes(head) as usize;
        let Some(body) = bytes.get(off + 4..off + 4 + len) else {
            break;
        };
        let Some(rec) = LogRecord::decode(body) else {
            break;
        };
        records.push(rec);
        off += 4 + len;
    }
    (records, off)
}

fn torn(path: &Path, off: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("torn log record at byte {off} of {}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        crate::paged::scratch_dir().join(format!("wal-{}-{name}.wal", std::process::id()))
    }

    #[test]
    fn append_flush_read_round_trip() {
        let path = tmp("roundtrip");
        let log = LogManager::create(&path).unwrap();
        let records = vec![
            LogRecord::BeginBulkLoad { nodes: 99 },
            LogRecord::FormatPage {
                page: 3,
                kind: PageKind::Text,
            },
            LogRecord::EndBulkLoad { pages: 7 },
            LogRecord::Checkpoint,
        ];
        let mut last = 0;
        for rec in &records {
            last = log.append(rec);
        }
        assert_eq!(log.flushed_lsn(), 0, "append alone is not durable");
        log.flush(last).unwrap();
        assert_eq!(log.flushed_lsn(), last);
        assert_eq!(LogManager::read_all(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_flush_is_a_prefix() {
        let path = tmp("prefix");
        let log = LogManager::create(&path).unwrap();
        let first = log.append(&LogRecord::BeginBulkLoad { nodes: 1 });
        let _second = log.append(&LogRecord::Checkpoint);
        log.flush(first).unwrap();
        // Only the first record is on disk.
        assert_eq!(
            LogManager::read_all(&path).unwrap(),
            vec![LogRecord::BeginBulkLoad { nodes: 1 }]
        );
        assert!(log.flushed_lsn() >= first);
        log.flush_all().unwrap();
        assert_eq!(LogManager::read_all(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn txn_records_round_trip() {
        let path = tmp("txn-roundtrip");
        let log = LogManager::create(&path).unwrap();
        let records = vec![
            LogRecord::TxnBegin { txn: 7 },
            LogRecord::TxnInsert {
                txn: 7,
                parent: 42,
                xml: "<bid><price>3.5</price></bid>".to_string(),
            },
            LogRecord::TxnDelete {
                txn: 7,
                node: 13,
                undo_xml: "<closed_auction/>".to_string(),
            },
            LogRecord::TxnSetText {
                txn: 7,
                node: 99,
                old: "old text".to_string(),
                new: "new text".to_string(),
            },
            LogRecord::TxnSetAttr {
                txn: 7,
                node: 5,
                name: "id".to_string(),
                old: None,
                new: "person999".to_string(),
            },
            LogRecord::TxnSetAttr {
                txn: 7,
                node: 5,
                name: "income".to_string(),
                old: Some("10.0".to_string()),
                new: "20.0".to_string(),
            },
            LogRecord::TxnCommit { txn: 7 },
        ];
        for rec in &records {
            log.append(rec);
        }
        log.flush_all().unwrap();
        assert_eq!(LogManager::read_all(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_prefix_tolerates_a_torn_tail() {
        let path = tmp("prefix-torn");
        let log = LogManager::create(&path).unwrap();
        let boundary = log.append(&LogRecord::TxnBegin { txn: 1 });
        log.append(&LogRecord::TxnCommit { txn: 1 });
        log.flush_all().unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (records, valid) = LogManager::read_prefix(&path).unwrap();
        assert_eq!(records, vec![LogRecord::TxnBegin { txn: 1 }]);
        assert_eq!(valid, boundary, "prefix ends at the last whole record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_log_is_rejected() {
        let path = tmp("torn");
        let log = LogManager::create(&path).unwrap();
        log.append(&LogRecord::BeginBulkLoad { nodes: 5 });
        log.append(&LogRecord::Checkpoint);
        log.flush_all().unwrap();
        drop(log);
        // Chop the final record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let err = LogManager::read_all(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
