//! Backend H acceptance: the disk-resident paged store must be a drop-in
//! eighth backend.
//!
//! * **Oracle under memory pressure** — all twenty queries byte-identical
//!   to System A while the buffer pool holds at most a quarter of the
//!   page file, so every query runs through real evictions.
//! * **Cold open** — a persisted page file re-opens without the XML and
//!   answers queries identically.
//! * **Corruption** — a flipped byte anywhere in a data page is caught by
//!   the page checksum at pin time; a truncated WAL (torn bulkload) is
//!   rejected at open.

use std::path::PathBuf;

use xmark::prelude::*;
use xmark::store::paged::scratch_dir;

fn page_file(name: &str) -> PathBuf {
    scratch_dir().join(format!("it-{}-{name}.pages", std::process::id()))
}

fn remove(path: &PathBuf) {
    let _ = std::fs::remove_file(path.with_extension("wal"));
    let _ = std::fs::remove_file(path);
}

/// The headline acceptance check: Q1–Q20 on H are byte-identical to
/// System A on a document bigger than the buffer pool. The pool is capped
/// at a quarter of the file's pages, so the store cannot keep the
/// database resident — the identical output is produced through pin /
/// evict / re-read traffic, and the counters prove evictions happened.
#[test]
fn all_twenty_queries_match_system_a_with_a_quarter_size_pool() {
    let doc = generate_document(0.002);
    let reference = build_store(SystemId::A, &doc.xml).unwrap();

    let path = page_file("oracle");
    {
        let parsed = xmark::xml::parse_document(&doc.xml).unwrap();
        PagedStore::create_at(&path, &parsed, DEFAULT_POOL_PAGES).unwrap();
    }
    let h = PagedStore::open(&path, 2).unwrap(); // resized below
    let file_pages = h.num_pages() as usize;
    drop(h);
    let pool = (file_pages / 4).max(2);
    assert!(
        pool * 4 <= file_pages,
        "document too small to stress the pool ({file_pages} pages)"
    );
    let h = PagedStore::open(&path, pool).unwrap();

    for q in &ALL_QUERIES {
        assert_eq!(
            canonical_output(&h, q.number),
            canonical_output(reference.as_ref(), q.number),
            "Q{} differs between H (pool {pool}/{file_pages} pages) and A",
            q.number
        );
    }
    let stats = h.pool_stats();
    assert!(
        stats.evictions > 0,
        "a {pool}-frame pool over {file_pages} pages must evict (stats: {stats:?})"
    );
    assert!(stats.hits > 0 && stats.misses > 0);

    drop(h);
    remove(&path);
}

/// Persist, drop every in-memory structure, and re-open cold: the store
/// must answer queries from the page file alone — no XML re-parse — and
/// stay byte-identical to the warm instance.
#[test]
fn cold_reopen_answers_queries_without_the_xml() {
    let doc = generate_document(0.001);
    let path = page_file("reopen");
    let warm_outputs: Vec<String> = {
        let parsed = xmark::xml::parse_document(&doc.xml).unwrap();
        let warm = PagedStore::create_at(&path, &parsed, 32).unwrap();
        [1, 6, 8, 13, 17, 19]
            .iter()
            .map(|&q| canonical_output(&warm, q))
            .collect()
    };
    // The XML string is dead from here on: only the page file remains.
    drop(doc);

    let cold = PagedStore::open(&path, 32).unwrap();
    for (i, &q) in [1, 6, 8, 13, 17, 19].iter().enumerate() {
        assert_eq!(
            canonical_output(&cold, q),
            warm_outputs[i],
            "Q{q} drifted across a cold re-open"
        );
    }
    assert!(cold.pool_stats().pages_read > 0, "cold open reads pages");

    drop(cold);
    remove(&path);
}

/// A flipped byte in a data page fails the checksum the moment the page
/// is pinned — queries cannot silently read corrupted intervals.
#[test]
fn corrupted_page_file_is_detected_by_checksums() {
    let doc = generate_document(0.001);
    let path = page_file("corrupt");
    {
        let parsed = xmark::xml::parse_document(&doc.xml).unwrap();
        PagedStore::create_at(&path, &parsed, 32).unwrap();
    }

    // Flip one byte in the middle of a node page (past the header page,
    // inside the record area, clear of the page header).
    let mut bytes = std::fs::read(&path).unwrap();
    let victim = 4096 * 2 + 100;
    bytes[victim] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let store = PagedStore::open(&path, 32).unwrap();
    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for q in 1..=20 {
            canonical_output(&store, q);
        }
    }));
    assert!(
        poisoned.is_err(),
        "checksum verification must refuse the corrupted page"
    );

    remove(&path);
}

/// A WAL with its tail missing means the bulkload never finished; the
/// open must refuse the file rather than serve a half-written database.
#[test]
fn truncated_wal_is_rejected_as_a_torn_bulkload() {
    let doc = generate_document(0.001);
    let path = page_file("torn");
    {
        let parsed = xmark::xml::parse_document(&doc.xml).unwrap();
        PagedStore::create_at(&path, &parsed, 32).unwrap();
    }
    let wal = path.with_extension("wal");
    let bytes = std::fs::read(&wal).unwrap();
    // Keep only the first half: the closing EndBulkLoad is gone and the
    // cut almost certainly lands mid-record.
    std::fs::write(&wal, &bytes[..bytes.len() / 2]).unwrap();

    let err = PagedStore::open(&path, 32).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    remove(&path);
}
