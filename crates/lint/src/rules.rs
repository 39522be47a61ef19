//! The seven workspace discipline rules.
//!
//! Each rule is a lexer-level check over the [`crate::lexer`] source
//! model; all of them honor inline waivers of the form
//! `// lint: allow(R2) reason` on the flagged line or on the comment
//! lines directly above it — a waiver without a stated reason is itself
//! not a waiver (the comment must be longer than the marker).
//!
//! * **R1 hot-path-panics** — no `.unwrap()` / `.expect(…)` in the
//!   execution hot path (`eval.rs`, `stream.rs`, `paged/*`) outside
//!   `#[cfg(test)]`: a query must surface errors, not abort the process.
//! * **R2 lock-discipline** — every `.lock()` call routes through the
//!   poison-recovering helpers in `crates/store/src/sync.rs`, so the
//!   workspace has exactly one poisoning policy.
//! * **R3 atomic-ordering** — atomics use the established
//!   `Ordering::Relaxed` counter idiom; any stronger ordering carries an
//!   `// ordering:` justification comment.
//! * **R4 wal-write-back** — in `paged/`, dirty pages reach disk only
//!   through the WAL-flushing write-back in `buffer.rs` (`write_page`
//!   call sites are allowlisted to `file.rs` + `buffer.rs`).
//! * **R5 page-guard-pins** — in `paged/`, raw page reads (`read_page`)
//!   appear only in `file.rs` and `buffer.rs`; everyone else pins
//!   through the pool and holds a `PageGuard`.
//! * **R6 send-sync-roster** — every `impl XmlStore for T` appears in the
//!   compile-time `Send + Sync` assertion roster in
//!   `crates/store/src/lib.rs`.
//! * **R8 wal-logged-mutations** — in the commit paths (`paged/` outside
//!   the pool internals, plus `crates/txn/`), every page mutation
//!   (`.write()` on a pinned guard) sits in a function that also appends
//!   to the WAL (`.append(`): write-ahead means no mutation path exists
//!   that cannot be replayed after a crash.

use crate::lexer::Line;

/// One of the seven lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: no `.unwrap()` / `.expect()` in hot-path modules.
    HotPathPanics,
    /// R2: `Mutex::lock()` only through the poison-handling helper.
    LockDiscipline,
    /// R3: atomics use `Relaxed` or justify their ordering.
    AtomicOrdering,
    /// R4: dirty-page write-back only through the WAL-flushing path.
    WalWriteBack,
    /// R5: raw page reads only inside the buffer pool.
    PageGuardPins,
    /// R6: every `XmlStore` impl is in the `Send + Sync` roster.
    SendSyncRoster,
    /// R8: commit-path page mutations sit in WAL-appending functions.
    WalLoggedMutations,
}

impl Rule {
    /// All rules, in code order (R1…R6, R8).
    pub const ALL: [Rule; 7] = [
        Rule::HotPathPanics,
        Rule::LockDiscipline,
        Rule::AtomicOrdering,
        Rule::WalWriteBack,
        Rule::PageGuardPins,
        Rule::SendSyncRoster,
        Rule::WalLoggedMutations,
    ];

    /// Stable short code (`"R1"`…`"R8"`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::HotPathPanics => "R1",
            Rule::LockDiscipline => "R2",
            Rule::AtomicOrdering => "R3",
            Rule::WalWriteBack => "R4",
            Rule::PageGuardPins => "R5",
            Rule::SendSyncRoster => "R6",
            Rule::WalLoggedMutations => "R8",
        }
    }

    /// Kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotPathPanics => "hot-path-panics",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::WalWriteBack => "wal-write-back",
            Rule::PageGuardPins => "page-guard-pins",
            Rule::SendSyncRoster => "send-sync-roster",
            Rule::WalLoggedMutations => "wal-logged-mutations",
        }
    }
}

/// One finding: rule, location, and why.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} ({}): {}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message
        )
    }
}

/// Is the finding at `idx` waived for `rule` — `// lint: allow(Rn)` with a
/// reason, on the same line or the comment lines directly above?
fn waived(lines: &[Line], idx: usize, rule: Rule) -> bool {
    let marker = format!("lint: allow({})", rule.code());
    let has = |l: &Line| {
        l.comment
            .find(&marker)
            .is_some_and(|at| l.comment[at + marker.len()..].trim().len() > 2)
    };
    if has(&lines[idx]) {
        return true;
    }
    // Scan upward through comment-only lines.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.code.trim().is_empty() && !l.comment.is_empty() {
            if has(l) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// Like [`waived`], but for R3's dedicated `// ordering:` justification.
fn ordering_justified(lines: &[Line], idx: usize) -> bool {
    let has = |l: &Line| l.comment.contains("ordering:");
    if has(&lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.code.trim().is_empty() && !l.comment.is_empty() {
            if has(l) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn in_paged(path: &str) -> bool {
    path.contains("/paged/")
}

/// Flag every occurrence of `token` in non-test code lines, unless
/// waived.
fn flag_token(
    out: &mut Vec<Diagnostic>,
    lines: &[Line],
    path: &str,
    rule: Rule,
    token: &str,
    message: &str,
) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !line.code.contains(token) {
            continue;
        }
        if waived(lines, idx, rule) {
            continue;
        }
        out.push(Diagnostic {
            rule,
            file: path.to_string(),
            line: idx + 1,
            message: message.to_string(),
        });
    }
}

/// R1: no `.unwrap()` / `.expect(` in hot-path modules.
pub fn hot_path_panics(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let hot = matches!(basename(path), "eval.rs" | "stream.rs") || in_paged(path);
    let mut out = Vec::new();
    if !hot {
        return out;
    }
    flag_token(
        &mut out,
        lines,
        path,
        Rule::HotPathPanics,
        ".unwrap()",
        "`.unwrap()` in a hot-path module: propagate the error or guard the invariant",
    );
    flag_token(
        &mut out,
        lines,
        path,
        Rule::HotPathPanics,
        ".expect(",
        "`.expect()` in a hot-path module: propagate the error or guard the invariant",
    );
    out
}

/// R2: `.lock()` only inside the poison-handling helper module.
pub fn lock_discipline(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if path.ends_with("store/src/sync.rs") {
        return out;
    }
    flag_token(
        &mut out,
        lines,
        path,
        Rule::LockDiscipline,
        ".lock()",
        "raw `.lock()`: route through `xmark_store::sync::lock` (one poisoning policy)",
    );
    out
}

/// R3: atomics use the `Relaxed` counter idiom or justify their ordering.
pub fn atomic_ordering(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    const STRONG: [&str; 4] = [
        "Ordering::SeqCst",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(which) = STRONG.iter().find(|t| line.code.contains(*t)) else {
            continue;
        };
        if ordering_justified(lines, idx) || waived(lines, idx, Rule::AtomicOrdering) {
            continue;
        }
        out.push(Diagnostic {
            rule: Rule::AtomicOrdering,
            file: path.to_string(),
            line: idx + 1,
            message: format!(
                "`{which}` without an `// ordering:` justification (the workspace idiom is \
                 Relaxed counters)"
            ),
        });
    }
    out
}

/// R4: in `paged/`, `write_page` call sites only in the WAL-flushing
/// write-back (`buffer.rs`) and the definition site (`file.rs`).
pub fn wal_write_back(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !in_paged(path) || matches!(basename(path), "buffer.rs" | "file.rs") {
        return out;
    }
    flag_token(
        &mut out,
        lines,
        path,
        Rule::WalWriteBack,
        "write_page(",
        "dirty-page write-back outside `buffer.rs`: pages reach disk only through the \
         WAL-flushing path",
    );
    out
}

/// R5: in `paged/`, raw page reads only inside the pool (`buffer.rs`) and
/// the file manager (`file.rs`); everyone else holds a `PageGuard`.
pub fn page_guard_pins(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !in_paged(path) || matches!(basename(path), "buffer.rs" | "file.rs") {
        return out;
    }
    flag_token(
        &mut out,
        lines,
        path,
        Rule::PageGuardPins,
        "read_page(",
        "raw page read outside the buffer pool: pin through the pool and hold a `PageGuard`",
    );
    out
}

/// R8: in the commit paths — `paged/` outside the pool internals
/// (`buffer.rs`, `file.rs`) plus `crates/txn/` — every page mutation
/// (`.write()` on a pinned page guard) must sit inside a function that
/// also appends to the WAL (`.append(`). Write-ahead logging is a
/// *pairing* discipline: a mutation whose enclosing function never logs
/// is a state change recovery cannot replay.
pub fn wal_logged_mutations(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let scoped = (in_paged(path) && !matches!(basename(path), "buffer.rs" | "file.rs"))
        || path.contains("txn/src/");
    if !scoped {
        return out;
    }

    // Pass 1: function spans via brace-depth tracking (the lexer blanks
    // string contents, so literal braces cannot confuse the count). A
    // span runs from the `fn` keyword to the `}` that closes its body;
    // nested `fn` items produce nested spans.
    struct Span {
        start: usize,
        end: usize,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut open: Vec<(usize, usize)> = Vec::new(); // (span idx, body depth)
    let mut pending_sig: Option<usize> = None;
    let mut depth = 0usize;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if pending_sig.is_none() && is_fn_def(code) {
            spans.push(Span {
                start: idx,
                end: lines.len().saturating_sub(1),
            });
            pending_sig = Some(spans.len() - 1);
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(si) = pending_sig.take() {
                        open.push((si, depth));
                    }
                }
                '}' => {
                    if let Some(&(si, d)) = open.last() {
                        if depth == d {
                            spans[si].end = idx;
                            open.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }

    // Pass 2: flag `.write()` lines with no WAL append anywhere in an
    // enclosing function span.
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !line.code.contains(".write()") {
            continue;
        }
        let logged = spans
            .iter()
            .filter(|s| s.start <= idx && idx <= s.end)
            .any(|s| {
                lines[s.start..=s.end]
                    .iter()
                    .any(|l| l.code.contains(".append("))
            });
        if logged || waived(lines, idx, Rule::WalLoggedMutations) {
            continue;
        }
        out.push(Diagnostic {
            rule: Rule::WalLoggedMutations,
            file: path.to_string(),
            line: idx + 1,
            message: "page mutation in a function that never appends to the WAL: log a \
                      redo/undo record before mutating (write-ahead), or route through a \
                      logging helper"
                .to_string(),
        });
    }
    out
}

/// Does this code line start a `fn` item definition (not a call or a
/// mention inside a type)? Lexer-level heuristic: the `fn` token bounded
/// by non-identifier characters, followed by an identifier.
fn is_fn_def(code: &str) -> bool {
    let mut rest = code;
    while let Some(at) = rest.find("fn ") {
        let before_ok = at == 0
            || rest[..at]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let after = &rest[at + 3..];
        if before_ok
            && after
                .trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            return true;
        }
        rest = &rest[at + 3..];
    }
    false
}

/// R6: every `impl XmlStore for T` appears in the `Send + Sync`
/// compile-time assertion roster in `crates/store/src/lib.rs`.
pub fn send_sync_roster(files: &[(String, Vec<Line>)]) -> Vec<Diagnostic> {
    let mut roster = Vec::new();
    for (path, lines) in files {
        if !path.ends_with("store/src/lib.rs") {
            continue;
        }
        for line in lines {
            let mut rest = line.code.as_str();
            while let Some(at) = rest.find("assert_send_sync::<") {
                rest = &rest[at + "assert_send_sync::<".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    roster.push(name);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (path, lines) in files {
        for (idx, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some(at) = line.code.find("impl XmlStore for ") else {
                continue;
            };
            let name: String = line.code[at + "impl XmlStore for ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() || roster.contains(&name) {
                continue;
            }
            if waived(lines, idx, Rule::SendSyncRoster) {
                continue;
            }
            out.push(Diagnostic {
                rule: Rule::SendSyncRoster,
                file: path.clone(),
                line: idx + 1,
                message: format!(
                    "`{name}` implements XmlStore but is missing from the Send + Sync \
                     assertion roster in crates/store/src/lib.rs"
                ),
            });
        }
    }
    out
}
