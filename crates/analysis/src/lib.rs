//! # `laca-analysis` — the workspace lint engine
//!
//! A lightweight, line/token-level static analyzer for the rules this
//! codebase actually depends on but `rustc`/`clippy` cannot express:
//!
//! | rule | scope | requirement |
//! |---|---|---|
//! | `hot-path-no-alloc` | `// lint: hot-path` regions | no `Vec::new` / `vec!` / `Box::new` / `format!` / `HashMap` |
//! | `unsafe-requires-safety` | whole workspace | every `unsafe` carries a `// SAFETY:` or `# Safety` justification |
//! | `condvar-wait-in-loop` | `crates/service` | every `Condvar::wait` sits inside a `loop`/`while` re-checking its predicate |
//! | `lock-acquisition-order` | `crates/service` | nested lock acquisitions follow the declared hierarchy |
//! | `relaxed-ordering-justified` | non-test code | `Ordering::Relaxed` outside monotonic RMW counters carries an `// ordering:` note |
//! | `no-bare-unwrap` | `crates/{service,persist,core,diffusion,baselines}/src` non-test | no `.unwrap()`; use typed errors or `expect` with the invariant |
//!
//! The scanner is deliberately **not** a full parser (no `syn` — the
//! workspace builds offline): it splits each line into code and comment
//! parts with a small state machine that understands block comments,
//! strings, raw strings and char literals, then tracks brace-scoped
//! regions (test modules, `impl` blocks, loops, marked hot paths) to give
//! every rule just enough context. The trade-off is documented per rule;
//! fixture self-tests in this crate pin both the catches and the
//! non-catches.
//!
//! ## Region markers
//!
//! * `// lint: hot-path` — the next braced item (typically a function) is
//!   a steady-state hot path; the allocation rule applies to its whole
//!   lexical body.
//! * `// ordering: <why>` — justifies `Ordering::Relaxed` from here to
//!   the end of the enclosing block.
//! * `// lint: allow(<rule>)` — suppresses `<rule>` on the next line (or
//!   the same line). The `laca-lint` binary reports suppression counts
//!   and fails when any exist, so this is an escape hatch for
//!   *downstream* users of the engine, not for this workspace.
//!
//! ## Lock hierarchy
//!
//! The serving stack's declared order (acquire strictly downward, never
//! up or sideways while holding):
//!
//! 1. `routes` — the router's copy-on-write table (`CowMap`);
//! 2. `queue-state` — the bounded submission queue's mutex;
//! 3. `inflight-shard` — a single-flight table shard;
//! 4. `cache-shard` — a result-cache LRU shard;
//! 5. `telemetry-archive` — the router's retired-route stats archive.
//!
//! (`InFlightTable::join_or_lead` holding its shard while re-checking the
//! cache is the motivating edge: 3 → 4 is downward, hence legal. The
//! archive sits last: `ServiceRouter::telemetry` snapshots a route's
//! stats — which walks cache shards — before locking the archive, so the
//! archive must never be held while touching anything above it.)

use std::fmt;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`lint_source`] (repo-relative in the binary).
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Result of linting one source file.
#[derive(Debug, Default)]
pub struct SourceReport {
    /// Violations, in line order.
    pub findings: Vec<Finding>,
    /// Findings silenced by `// lint: allow(...)` markers.
    pub suppressed: usize,
}

pub const RULE_HOT_PATH: &str = "hot-path-no-alloc";
pub const RULE_UNSAFE: &str = "unsafe-requires-safety";
pub const RULE_CONDVAR: &str = "condvar-wait-in-loop";
pub const RULE_LOCK_ORDER: &str = "lock-acquisition-order";
pub const RULE_RELAXED: &str = "relaxed-ordering-justified";
pub const RULE_UNWRAP: &str = "no-bare-unwrap";

/// Every rule identifier, for help output and allow-marker validation.
pub const ALL_RULES: [&str; 6] =
    [RULE_HOT_PATH, RULE_UNSAFE, RULE_CONDVAR, RULE_LOCK_ORDER, RULE_RELAXED, RULE_UNWRAP];

// ---------------------------------------------------------------------------
// Pass 1: split every line into its code and comment parts.
// ---------------------------------------------------------------------------

/// A physical source line after comment/string stripping.
#[derive(Debug, Default, Clone)]
struct LineParts {
    /// Code with comments removed and string/char contents blanked (the
    /// delimiters remain, so `"{"` contributes no brace but `code` stays
    /// aligned enough for substring checks).
    code: String,
    /// Concatenated comment text on the line (line or block, without the
    /// `//`/`/*` markers).
    comment: String,
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Code,
    /// Inside a (possibly nested) block comment, with nesting depth.
    Block(u32),
    /// Inside a normal `"` string.
    Str,
    /// Inside a raw string terminated by `"` + this many `#`s.
    RawStr(u32),
}

fn split_lines(source: &str) -> Vec<LineParts> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw in source.lines() {
        let mut parts = LineParts::default();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                LexState::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        state =
                            if depth == 1 { LexState::Code } else { LexState::Block(depth - 1) };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        parts.comment.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if c == '\\' {
                        i += 2; // skip the escaped char (incl. `\"`)
                    } else if c == '"' {
                        parts.code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if c == '"' {
                        let mut n = 0;
                        while n < hashes && bytes.get(i + 1 + n as usize) == Some(&'#') {
                            n += 1;
                        }
                        if n == hashes {
                            parts.code.push('"');
                            state = LexState::Code;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Code => {
                    if c == '/' && next == Some('/') {
                        // Line comment: `//`, `///`, `//!` all end the code.
                        parts.comment.push_str(&raw[char_offset(raw, i + 2)..]);
                        i = bytes.len();
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == '"' {
                        parts.code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && is_raw_string_start(&bytes, i) {
                        // `r"`, `r#"`, `br"`, ... — skip prefix + hashes.
                        let mut j = i + 1;
                        if bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        parts.code.push('"');
                        state = LexState::RawStr(hashes);
                        i = j + 1;
                    } else if c == '\'' {
                        // Char literal vs lifetime: `'x'` / `'\n'` are
                        // literals, `'a` (no closing quote) is a lifetime.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            i += 1; // lifetime tick; identifier follows as code
                        }
                    } else {
                        parts.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(parts);
    }
    out
}

/// Byte offset of the `idx`-th char in `s` (lines are short; O(n) is fine).
fn char_offset(s: &str, idx: usize) -> usize {
    s.char_indices().nth(idx).map(|(o, _)| o).unwrap_or(s.len())
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // Not part of an identifier like `for` or `br`-named variables.
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i + 1;
    if bytes[i] == 'b' {
        if bytes.get(j) != Some(&'r') {
            return false;
        }
        j += 1;
    }
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// `true` when `needle` occurs in `hay` delimited by non-identifier chars
/// (so `unsafe` does not match `unsafe_marker`).
fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Pass 2: brace-scoped region tracking + the rules.
// ---------------------------------------------------------------------------

/// Why a brace scope was opened, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    /// `#[cfg(test)]`-gated region (or `#[cfg(all(test, ...))]`).
    Test,
    /// Region under a `// lint: hot-path` marker.
    HotPath,
    /// `loop` / `while` / `for` body.
    Loop,
    /// Plain braces (functions, modules, blocks, literals, ...).
    Plain,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// `impl` type name this scope belongs to, when it opened one.
    impl_name: Option<String>,
}

/// A lock guard bound by `let`, alive until its scope closes or it is
/// explicitly `drop`ped.
#[derive(Debug)]
struct HeldGuard {
    name: String,
    level: u8,
    label: &'static str,
    /// Scope-stack depth at binding time; popped when the stack shrinks
    /// below it.
    depth: usize,
    line: usize,
}

/// The declared lock hierarchy for `crates/service` (see module docs).
/// Returns `(level, label)` for a recognizable acquisition receiver.
fn classify_lock(impl_name: Option<&str>, receiver: &str) -> Option<(u8, &'static str)> {
    if receiver.contains("routes") || (impl_name == Some("CowMap") && receiver.contains("inner")) {
        Some((0, "routes"))
    } else if receiver.contains("state") {
        Some((1, "queue-state"))
    } else if receiver.contains("shard") {
        if impl_name == Some("InFlightTable") {
            Some((2, "inflight-shard"))
        } else {
            Some((3, "cache-shard"))
        }
    } else if receiver.contains("archive") {
        Some((4, "telemetry-archive"))
    } else {
        None
    }
}

/// Whether a path is part of the serving crate's non-test sources (where
/// the strictest rules apply).
fn is_service_src(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("crates/service/src/")
}

/// Non-test sources where bare `.unwrap()` is banned: the serving crate,
/// the persistence crate — a loader that panics on malformed input would
/// defeat `laca-persist`'s fail-closed typed-error contract — and the
/// query path beneath them (`laca-core`, `laca-diffusion`) plus the
/// baselines that share its kernel. The concurrency rules
/// (condvar/lock-order) stay service-only; none of these has locks to
/// order.
fn is_no_unwrap_src(path: &str) -> bool {
    let p = path.replace('\\', "/");
    is_service_src(path)
        || [
            "crates/persist/src/",
            "crates/core/src/",
            "crates/diffusion/src/",
            "crates/baselines/src/",
        ]
        .iter()
        .any(|dir| p.contains(dir))
}

/// Test-ish files: integration test dirs and `*_tests.rs` modules (the
/// model-check suite). `#[cfg(test)]` regions are tracked separately.
fn is_test_file(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("/tests/") || p.ends_with("_tests.rs") || p.ends_with("/tests.rs")
}

/// Lints one file's source text. `path` scopes the path-dependent rules
/// and is echoed into findings; it does not need to exist on disk.
pub fn lint_source(path: &str, source: &str) -> SourceReport {
    let lines = split_lines(source);
    let mut report = SourceReport::default();
    let service_src = is_service_src(path);
    let no_unwrap_src = is_no_unwrap_src(path);
    let test_file = is_test_file(path);

    let mut scopes: Vec<Scope> = Vec::new();
    let mut guards: Vec<HeldGuard> = Vec::new();
    // Depths at which an `// ordering:` justification is active.
    let mut ordering_marks: Vec<usize> = Vec::new();
    let mut pending: Vec<ScopeKind> = Vec::new();
    let mut pending_impl: Option<String> = None;
    // Rules suppressed for the next code line by `// lint: allow(...)`.
    let mut pending_allows: Vec<String> = Vec::new();

    for (idx, parts) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = parts.code.trim();
        let comment = parts.comment.trim();

        // --- marker comments ------------------------------------------------
        // Markers must *lead* the comment (doc prose quoting `// lint:
        // hot-path` in backticks, like this file's own docs, is not a
        // marker).
        let marker = comment.trim_start_matches(['/', '!', '*', ' ']);
        if marker.starts_with("lint: hot-path") {
            pending.push(ScopeKind::HotPath);
        }
        if marker.starts_with("ordering:") {
            ordering_marks.push(scopes.len());
        }
        let mut line_allows: Vec<String> = std::mem::take(&mut pending_allows);
        if let Some(rest) = marker.strip_prefix("lint: allow(") {
            if let Some(end) = rest.find(')') {
                let rule = rest[..end].trim().to_string();
                if code.is_empty() {
                    pending_allows.push(rule); // applies to the next code line
                } else {
                    line_allows.push(rule); // same-line suppression
                }
            }
        }

        // --- pending region headers -----------------------------------------
        if code.starts_with("#[cfg(test)") || code.starts_with("#[cfg(all(test") {
            pending.push(ScopeKind::Test);
        }
        let impl_header = has_word(code, "impl").then(|| extract_impl_name(code)).flatten();
        if let Some(name) = impl_header {
            // `impl Trait for Type` must not double as a `for`-loop header.
            pending_impl = Some(name);
        } else if has_word(code, "loop") || has_word(code, "while") || has_word(code, "for") {
            pending.push(ScopeKind::Loop);
        }

        let in_test = test_file || scopes.iter().any(|s| s.kind == ScopeKind::Test);
        let in_hot = scopes.iter().any(|s| s.kind == ScopeKind::HotPath);
        let in_loop = scopes.iter().any(|s| s.kind == ScopeKind::Loop);
        let impl_name =
            scopes.iter().rev().find_map(|s| s.impl_name.as_deref()).map(str::to_string);

        // --- rules -----------------------------------------------------------
        let emit = |rule: &'static str, message: String, report: &mut SourceReport| {
            if line_allows.iter().any(|a| a == rule) {
                report.suppressed += 1;
            } else {
                report.findings.push(Finding {
                    path: path.to_string(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };

        if in_hot && !in_test {
            for token in ["Vec::new", "vec!", "Box::new", "format!", "HashMap"] {
                if code.contains(token) {
                    emit(
                        RULE_HOT_PATH,
                        format!(
                            "`{token}` inside a `// lint: hot-path` region; allocate in the workspace instead"
                        ),
                        &mut report,
                    );
                }
            }
        }

        if has_word(code, "unsafe") {
            let justified = comment.contains("SAFETY:")
                || preceding_comment_block(&lines, idx)
                    .is_some_and(|c| c.contains("SAFETY:") || c.contains("# Safety"));
            if !justified {
                emit(
                    RULE_UNSAFE,
                    "`unsafe` without a `// SAFETY:` comment or `# Safety` doc section".into(),
                    &mut report,
                );
            }
        }

        if service_src && !in_test {
            // Condvar waits: `.wait(guard)` — an argument distinguishes them
            // from `QueryHandle::wait()`.
            if let Some(pos) = code.find(".wait(") {
                let arg = code[pos + 6..].trim_start();
                if !arg.starts_with(')') && !in_loop {
                    emit(
                        RULE_CONDVAR,
                        "`Condvar::wait` outside a predicate re-check loop (wakeups can be spurious or raced away)"
                            .into(),
                        &mut report,
                    );
                }
            }

            // Lock hierarchy: classify this line's acquisition, if any.
            if let Some((level, label)) = find_acquisition(code, impl_name.as_deref()) {
                for held in &guards {
                    if held.level >= level {
                        emit(
                            RULE_LOCK_ORDER,
                            format!(
                                "acquires `{label}` (level {level}) while holding `{}` (level {}, bound line {}); the declared order is routes < queue-state < inflight-shard < cache-shard < telemetry-archive",
                                held.label, held.level, held.line
                            ),
                            &mut report,
                        );
                    }
                }
                if let Some(name) = let_binding_name(code, &lines, idx) {
                    guards.push(HeldGuard {
                        name,
                        level,
                        label,
                        depth: scopes.len(),
                        line: lineno,
                    });
                }
            }
            // Explicit early release.
            if let Some(dropped) = code.strip_prefix("drop(").and_then(|r| r.strip_suffix(");")) {
                guards.retain(|g| g.name != dropped.trim());
            }
        }

        if no_unwrap_src && !in_test && code.contains(".unwrap()") {
            emit(
                RULE_UNWRAP,
                "bare `.unwrap()`; return a typed error or use `expect` naming the invariant"
                    .into(),
                &mut report,
            );
        }

        if !in_test && code.contains("Ordering::Relaxed") {
            let monotonic = code.contains(".fetch_add(") || code.contains(".fetch_sub(");
            let justified = comment.contains("ordering:") || !ordering_marks.is_empty();
            if !monotonic && !justified {
                emit(
                    RULE_RELAXED,
                    "`Ordering::Relaxed` outside a monotonic counter RMW needs an `// ordering:` note"
                        .into(),
                    &mut report,
                );
            }
        }

        // --- brace tracking (after rules: a line's own `{` opens *after*
        // its content is judged in the enclosing scope) ----------------------
        for c in parts.code.chars() {
            match c {
                '{' => {
                    let kind = pick_pending(&mut pending);
                    scopes.push(Scope { kind, impl_name: pending_impl.take() });
                }
                '}' => {
                    scopes.pop();
                    let depth = scopes.len();
                    guards.retain(|g| g.depth <= depth);
                    ordering_marks.retain(|&d| d <= depth);
                }
                _ => {}
            }
        }
        // Header pendings don't survive a statement terminator at scope
        // level (e.g. `#[cfg(test)] use x;`).
        if code.ends_with(';') {
            pending.clear();
            pending_impl = None;
        }
    }
    report
}

/// Consumes the strongest pending kind for a freshly opened brace.
fn pick_pending(pending: &mut Vec<ScopeKind>) -> ScopeKind {
    let kind = if pending.contains(&ScopeKind::Test) {
        ScopeKind::Test
    } else if pending.contains(&ScopeKind::HotPath) {
        ScopeKind::HotPath
    } else if pending.contains(&ScopeKind::Loop) {
        ScopeKind::Loop
    } else {
        ScopeKind::Plain
    };
    pending.clear();
    kind
}

/// `impl Type {` / `impl<G> Trait for Type<G> {` → the implemented-on
/// type's name (the identifier after `for` when present, else the first
/// after the generics).
fn extract_impl_name(code: &str) -> Option<String> {
    let rest = code.strip_prefix("impl")?;
    let rest = skip_generics(rest);
    let target = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let name: String =
        target.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn skip_generics(s: &str) -> &str {
    let s = s.trim_start();
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    s
}

/// The contiguous comment/attribute block directly above line `idx`, as
/// one string (used for `SAFETY:` / `# Safety` justification lookup).
fn preceding_comment_block(lines: &[LineParts], idx: usize) -> Option<String> {
    let mut collected = String::new();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let code = lines[i].code.trim();
        let comment = lines[i].comment.trim();
        if !comment.is_empty() && code.is_empty() {
            collected.push_str(comment);
            collected.push('\n');
        } else if code.starts_with("#[") && code.ends_with(']') {
            continue; // attributes don't break the block
        } else {
            break;
        }
    }
    if collected.is_empty() {
        None
    } else {
        Some(collected)
    }
}

/// Detects a lock acquisition on `code` and classifies it against the
/// hierarchy, returning `(level, label)`.
fn find_acquisition(code: &str, impl_name: Option<&str>) -> Option<(u8, &'static str)> {
    for method in [".lock(", ".read(", ".write("] {
        if let Some(pos) = code.find(method) {
            let receiver = receiver_before(code, pos);
            if let Some(classified) = classify_lock(impl_name, receiver) {
                return Some(classified);
            }
        }
    }
    None
}

/// The expression chain immediately before byte `pos` (e.g.
/// `self.shard(&key)` for `self.shard(&key).lock()`).
fn receiver_before(code: &str, pos: usize) -> &str {
    let head = &code[..pos];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || "_.()&[]:".contains(c)))
        .map(|p| p + 1)
        .unwrap_or(0);
    &head[start..]
}

/// If this acquisition is bound by `let`, its binding name — looking at
/// this line and, for rustfmt-wrapped `let x =\n    expr...`, the
/// previous code line.
fn let_binding_name(code: &str, lines: &[LineParts], idx: usize) -> Option<String> {
    let line_with_let = if code.trim_start().starts_with("let ") {
        code
    } else {
        // Walk back over blank/comment-only lines to the previous code line.
        let mut i = idx;
        loop {
            if i == 0 {
                return None;
            }
            i -= 1;
            let prev = lines[i].code.trim();
            if !prev.is_empty() {
                if prev.starts_with("let ") && prev.ends_with('=') {
                    break lines[i].code.as_str();
                }
                return None;
            }
        }
    };
    let after_let = line_with_let.trim_start().strip_prefix("let ")?;
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
    let name: String = after_mut.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------------------
// Workspace driver.
// ---------------------------------------------------------------------------

/// Aggregate result of [`lint_workspace`].
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings across all scanned files, in path/line order.
    pub findings: Vec<Finding>,
    /// Total `// lint: allow(...)` suppressions in effect.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Recursively lints every `.rs` file under `<root>/crates` and
/// `<root>/vendor` (skipping `target/`). `root` is the workspace root.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut report = WorkspaceReport::default();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
        let one = lint_source(&rel, &source);
        report.findings.extend(one.findings);
        report.suppressed += one.suppressed;
        report.files += 1;
    }
    Ok(report)
}

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
