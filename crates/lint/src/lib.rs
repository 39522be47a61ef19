//! `xmark-lint`: the workspace discipline linter.
//!
//! A self-contained, lexer-based linter (no `syn`, no dylint — the build
//! environment is offline) that pins the source-level disciplines the
//! engine's correctness rests on: no panics in the execution hot path,
//! one lock-poisoning policy, justified atomic orderings, and the paged
//! backend's flush-before-write / pin-through-the-pool contracts. Run it
//! as
//!
//! ```text
//! cargo run -p xmark-lint
//! ```
//!
//! from the workspace root: it scans every `crates/*/src/**/*.rs` file,
//! prints `file:line: Rn (rule-name): message` diagnostics, and exits
//! non-zero if anything is flagged — the CI gate.
//!
//! The rules are documented in [`rules`]; a finding is silenced by an
//! inline waiver comment that states its reason:
//!
//! ```text
//! // lint: allow(R1) the slot is written two lines up, same type
//! .expect("slot holds a JoinIndex")
//! ```
//!
//! **Adding a rule**: give it a variant in [`rules::Rule`] (code + name),
//! implement it as a function over the [`lexer`] source model, call it
//! from [`lint_file`] (per-file rules) or [`lint_files`] (workspace-wide
//! rules like R6), and add one violating + one clean fixture test beside
//! the existing ones in this crate.

pub mod lexer;
pub mod rules;

pub use rules::{Diagnostic, Rule};

/// Run the per-file rules (R1–R5, R8) over one source file. `path`
/// is the repo-relative path (used both for rule scoping and
/// diagnostics).
pub fn lint_file(path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = lexer::model(source);
    let mut out = Vec::new();
    out.extend(rules::hot_path_panics(path, &lines));
    out.extend(rules::lock_discipline(path, &lines));
    out.extend(rules::atomic_ordering(path, &lines));
    out.extend(rules::wal_write_back(path, &lines));
    out.extend(rules::page_guard_pins(path, &lines));
    out.extend(rules::wal_logged_mutations(path, &lines));
    out
}

/// Run every rule — the per-file R1–R5 and R8 plus the
/// workspace-wide R6 — over a set of `(repo-relative path, source)`
/// pairs.
pub fn lint_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let modeled: Vec<(String, Vec<lexer::Line>)> = files
        .iter()
        .map(|(p, s)| (p.clone(), lexer::model(s)))
        .collect();
    for (path, source) in files {
        out.extend(lint_file(path, source));
    }
    out.extend(rules::send_sync_roster(&modeled));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    // ---- R1 --------------------------------------------------------------

    #[test]
    fn r1_flags_hot_path_unwrap_and_expect() {
        let src = "fn f() { x.unwrap(); }\nfn g() { y.expect(\"msg\"); }";
        let diags = lint_file("crates/query/src/eval.rs", src);
        assert_eq!(codes(&diags), ["R1", "R1"]);
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 2);
    }

    #[test]
    fn r1_clean_outside_hot_path_tests_and_waivers() {
        // Not a hot-path module at all.
        assert!(lint_file("crates/query/src/parse.rs", "fn f() { x.unwrap(); }").is_empty());
        // Inside #[cfg(test)].
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(lint_file("crates/query/src/eval.rs", test_src).is_empty());
        // unwrap_or_else is not unwrap; a waived expect carries its reason.
        let ok = "fn f() { x.unwrap_or_else(Default::default); }\n\
                  // lint: allow(R1) slot written above, type fixed by construction\n\
                  fn g() { y.expect(\"slot type\"); }";
        assert!(lint_file("crates/store/src/paged/store.rs", ok).is_empty());
    }

    // ---- R2 --------------------------------------------------------------

    #[test]
    fn r2_flags_raw_lock() {
        let src = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }";
        let diags = lint_file("crates/core/src/service.rs", src);
        assert_eq!(codes(&diags), ["R2"]);
    }

    #[test]
    fn r2_clean_via_helper_or_in_sync_module() {
        let src = "fn f(m: &Mutex<u32>) { *lock(m) += 1; }";
        assert!(lint_file("crates/core/src/service.rs", src).is_empty());
        let raw = "pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n m.lock().unwrap_or_else(PoisonError::into_inner)\n}";
        assert!(lint_file("crates/store/src/sync.rs", raw).is_empty());
    }

    // ---- R3 --------------------------------------------------------------

    #[test]
    fn r3_flags_unjustified_strong_ordering() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }";
        let diags = lint_file("crates/store/src/index.rs", src);
        assert_eq!(codes(&diags), ["R3"]);
        assert!(diags[0].message.contains("SeqCst"));
    }

    #[test]
    fn r3_clean_for_relaxed_or_justified() {
        let relaxed = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(lint_file("crates/store/src/index.rs", relaxed).is_empty());
        let justified = "// ordering: Release pairs with the Acquire in reader()\n\
                         fn f(c: &AtomicU64) { c.store(1, Ordering::Release); }";
        assert!(lint_file("crates/store/src/index.rs", justified).is_empty());
    }

    // ---- R4 --------------------------------------------------------------

    #[test]
    fn r4_flags_write_back_outside_buffer() {
        let src = "fn evict(fm: &mut FileManager) { fm.write_page(id, &page).unwrap(); }";
        let diags = lint_file("crates/store/src/paged/store.rs", src);
        assert!(codes(&diags).contains(&"R4"), "{diags:?}");
    }

    #[test]
    fn r4_clean_inside_buffer() {
        let src = "fn write_back(&self) { self.flush_wal(lsn); file.write_page(id, &page)?; }";
        assert!(lint_file("crates/store/src/paged/buffer.rs", src).is_empty());
    }

    // ---- R5 --------------------------------------------------------------

    #[test]
    fn r5_flags_raw_page_read_outside_pool() {
        let src = "fn peek(fm: &mut FileManager) { fm.read_page(id, &mut page)?; }";
        let diags = lint_file("crates/store/src/paged/wal.rs", src);
        assert_eq!(codes(&diags), ["R5"]);
    }

    #[test]
    fn r5_clean_through_page_guard() {
        let src =
            "fn node(&self, pid: PageId) -> NodeRec { let g = self.pool.pin(pid)?; g.read() }";
        assert!(lint_file("crates/store/src/paged/store.rs", src).is_empty());
    }

    // ---- R8 --------------------------------------------------------------

    #[test]
    fn r8_flags_unlogged_page_mutation_in_commit_paths() {
        // A function that mutates a pinned page but never appends a WAL
        // record — in both scoped locations.
        let src = "fn patch(&self, pid: PageId) -> io::Result<()> {\n\
                   \x20 let mut g = self.pool.pin(pid)?;\n\
                   \x20 g.write().set_lsn(lsn);\n\
                   \x20 Ok(())\n\
                   }";
        let diags = lint_file("crates/store/src/paged/store.rs", src);
        assert_eq!(codes(&diags), ["R8"]);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("write-ahead"));
        let diags = lint_file("crates/txn/src/versioned.rs", src);
        assert_eq!(codes(&diags), ["R8"]);
    }

    #[test]
    fn r8_clean_when_logged_out_of_scope_or_waived() {
        // The same mutation is fine when the enclosing function appends
        // the record first — including across a multi-line signature.
        let logged = "fn patch(\n\
                      \x20 &self,\n\
                      \x20 pid: PageId,\n\
                      ) -> io::Result<()> {\n\
                      \x20 let lsn = self.wal.append(&LogRecord::FormatPage { page: pid, kind });\n\
                      \x20 let mut g = self.pool.pin(pid)?;\n\
                      \x20 g.write().set_lsn(lsn);\n\
                      \x20 Ok(())\n\
                      }";
        assert!(lint_file("crates/store/src/paged/store.rs", logged).is_empty());
        // Pool internals flush WAL by LSN, not by appending; the rule
        // does not apply there, nor outside the commit paths.
        let unlogged = "fn f(&self) { self.guard.write().clear(); }";
        assert!(lint_file("crates/store/src/paged/buffer.rs", unlogged).is_empty());
        assert!(lint_file("crates/store/src/axis.rs", unlogged).is_empty());
        // A waiver with a reason, and `OpenOptions::write(true)` (an
        // option setter, not a page mutation), both stay silent.
        let ok = "fn truncate(&self) -> io::Result<()> {\n\
                  \x20 let f = OpenOptions::new().write(true).open(&p)?;\n\
                  \x20 // lint: allow(R8) recovery truncation happens before replay begins\n\
                  \x20 self.guard.write().clear();\n\
                  \x20 Ok(())\n\
                  }";
        assert!(lint_file("crates/txn/src/recovery.rs", ok).is_empty());
    }

    // ---- R6 --------------------------------------------------------------

    fn roster_fixture(assertions: &str) -> Vec<(String, String)> {
        vec![
            (
                "crates/store/src/lib.rs".to_string(),
                format!("const _: () = {{\n const fn assert_send_sync<T: Send + Sync>() {{}}\n {assertions}\n}};"),
            ),
            (
                "crates/store/src/edge.rs".to_string(),
                "impl XmlStore for EdgeStore { }".to_string(),
            ),
            (
                "crates/store/src/naive.rs".to_string(),
                "impl XmlStore for NaiveStore { }".to_string(),
            ),
        ]
    }

    #[test]
    fn r6_flags_store_missing_from_roster() {
        let files = roster_fixture("assert_send_sync::<EdgeStore>();");
        let diags = lint_files(&files);
        assert_eq!(codes(&diags), ["R6"]);
        assert!(diags[0].message.contains("NaiveStore"));
        assert_eq!(diags[0].file, "crates/store/src/naive.rs");
    }

    #[test]
    fn r6_clean_when_roster_is_complete() {
        let files =
            roster_fixture("assert_send_sync::<EdgeStore>();\n assert_send_sync::<NaiveStore>();");
        assert!(lint_files(&files).is_empty());
    }
}
