//! Fixture self-tests: every rule is pinned with a snippet it must catch
//! and a near-identical snippet it must pass. Fixtures are linted under
//! a `crates/service/src/` path so the path-scoped rules are active.

use super::*;

/// Lints `src` as if it lived in the serving crate's sources.
fn lint_service(src: &str) -> SourceReport {
    lint_source("crates/service/src/fixture.rs", src)
}

fn rules_of(report: &SourceReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// --- hot-path-no-alloc ------------------------------------------------------

#[test]
fn hot_path_catches_allocation() {
    let report = lint_service(
        "// lint: hot-path\n\
         fn push_loop(xs: &mut Vec<u32>) {\n\
             let scratch = Vec::new();\n\
             let boxed = Box::new(3);\n\
             xs.push(1);\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_HOT_PATH, RULE_HOT_PATH]);
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn hot_path_allows_reuse_and_ends_with_the_region() {
    let report = lint_service(
        "// lint: hot-path\n\
         fn push_loop(xs: &mut Vec<u32>) {\n\
             xs.push(1); // pushing into preallocated storage is fine\n\
         }\n\
         fn cold() {\n\
             let scratch = Vec::new(); // outside the marked region\n\
             drop(scratch);\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn hot_path_marker_in_doc_prose_is_inert() {
    let report = lint_service(
        "/// Mark hot regions with `// lint: hot-path` above the item.\n\
         fn docs_only() {\n\
             let v = Vec::new();\n\
             drop(v);\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn hot_path_lane_major_batch_kernel_is_clean() {
    // A strided push over a bit mask: offset indexing, a bit-scan loop,
    // pushes into pre-sized workspace vectors and `std::mem::take` of a
    // scratch list. None of it allocates, so the marked region must stay
    // clean; this is the only fixture where `mem::take` (a path call that
    // looks like a constructor) sits inside a hot-path region.
    let report = lint_service(
        "// lint: hot-path\n\
         fn push_masked(ws: &mut Workspace, j: usize, em: u16, delta: &[f64]) {\n\
             let base = j * ws.stride;\n\
             let mut m = em;\n\
             while m != 0 {\n\
                 let l = m.trailing_zeros() as usize;\n\
                 m &= m - 1;\n\
                 ws.r[base + l] += delta[l];\n\
                 ws.touched.push(j as u32);\n\
             }\n\
             let nodes = std::mem::take(&mut ws.gamma_nodes);\n\
             ws.gamma_nodes = nodes;\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn hot_path_batch_kernel_allocating_per_push_is_flagged() {
    // A fresh buffer built per push with the `vec!` macro: the only
    // fixture where the allocation is a macro call, not a path call.
    let report = lint_service(
        "// lint: hot-path\n\
         fn push_spread(ws: &mut Workspace, width: usize) {\n\
             let spread = vec![0.0f64; width];\n\
             ws.apply(&spread);\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_HOT_PATH]);
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn hot_path_simd_kernel_with_safety_doc_passes() {
    // A `# Safety`-documented `unsafe fn` with the hot-path marker and a
    // `#[target_feature]` attribute between the doc and the `unsafe fn`,
    // plus a `// SAFETY:`-justified call site. The safety doc must still
    // count across the attribute, so both rules stay quiet.
    let report = lint_service(
        "/// 4-wide f64 block.\n\
         ///\n\
         /// # Safety\n\
         /// Caller checked AVX2 and `lanes % 4 == 0`.\n\
         // lint: hot-path\n\
         #[target_feature(enable = \"avx2\")]\n\
         unsafe fn dense_lanes(r: *mut f64, lanes: usize) {\n\
             let mut l = 0;\n\
             while l < lanes {\n\
                 *r.add(l) += 1.0;\n\
                 l += 4;\n\
             }\n\
         }\n\
         // lint: hot-path\n\
         fn caller(r: &mut [f64]) {\n\
             // SAFETY: AVX2 availability and stride checked by the caller.\n\
             unsafe { dense_lanes(r.as_mut_ptr(), r.len()) }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// --- unsafe-requires-safety -------------------------------------------------

#[test]
fn unsafe_without_justification_is_flagged() {
    let report = lint_service("fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n");
    assert_eq!(rules_of(&report), vec![RULE_UNSAFE]);
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn unsafe_with_safety_comment_or_doc_section_passes() {
    let report = lint_service(
        "fn f(p: *const u32) -> u32 {\n\
             // SAFETY: caller guarantees `p` is valid and aligned.\n\
             unsafe { *p }\n\
         }\n\
         /// Reads a raw pointer.\n\
         ///\n\
         /// # Safety\n\
         /// `p` must be valid for reads.\n\
         unsafe fn g(p: *const u32) -> u32 {\n\
             *p\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn unsafe_inside_a_string_literal_is_not_code() {
    let report = lint_service("fn f() -> &'static str {\n    \"unsafe { }\"\n}\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// --- condvar-wait-in-loop ---------------------------------------------------

#[test]
fn condvar_wait_outside_loop_is_flagged() {
    let report = lint_service(
        "fn wait_once(m: &Mutex<bool>, cv: &Condvar) {\n\
             let guard = m.lock().expect(\"poisoned\");\n\
             let _guard = cv.wait(guard).expect(\"poisoned\");\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_CONDVAR]);
}

#[test]
fn condvar_wait_in_predicate_loop_passes() {
    let report = lint_service(
        "fn wait_ready(m: &Mutex<bool>, cv: &Condvar) {\n\
             let mut guard = m.lock().expect(\"poisoned\");\n\
             while !*guard {\n\
                 guard = cv.wait(guard).expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn handle_wait_without_guard_argument_is_not_a_condvar() {
    let report = lint_service("fn resolve(h: QueryHandle) -> QueryResult {\n    h.wait()\n}\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// --- lock-acquisition-order -------------------------------------------------

#[test]
fn upward_lock_acquisition_is_flagged() {
    // cache-shard (3) held, then queue-state (1): upward — a deadlock
    // partner for any thread doing the declared 1 → 3 order.
    let report = lint_service(
        "impl ShardedCache {\n\
             fn bad(&self, q: &JobQueue) {\n\
                 let shard = self.shard(0).lock().expect(\"poisoned\");\n\
                 let state = q.state.lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_LOCK_ORDER]);
    assert!(report.findings[0].message.contains("cache-shard"), "{}", report.findings[0].message);
}

#[test]
fn downward_acquisition_follows_the_hierarchy() {
    // inflight-shard (2) then cache-shard (3): the join_or_lead re-check
    // edge, explicitly legal.
    let report = lint_service(
        "impl InFlightTable {\n\
             fn recheck(&self, cache: &ShardedCache) {\n\
                 let shard = self.shard(0).lock().expect(\"poisoned\");\n\
                 let cache_shard = cache.shard(0).lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    // Both classify as inflight-shard inside `impl InFlightTable` — the
    // same-receiver limitation is documented; use a distinct impl to pin
    // the downward direction instead.
    let report2 = lint_service(
        "impl JobQueue {\n\
             fn drain_into(&self, cache: &ShardedCache) {\n\
                 let state = self.state.lock().expect(\"poisoned\");\n\
                 let shard = cache.shard(0).lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert!(report2.findings.is_empty(), "{:?}", report2.findings);
    drop(report);
}

#[test]
fn dropped_guard_releases_its_level() {
    let report = lint_service(
        "impl ShardedCache {\n\
             fn sequential(&self, q: &JobQueue) {\n\
                 let shard = self.shard(0).lock().expect(\"poisoned\");\n\
                 drop(shard);\n\
                 let state = q.state.lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn scope_exit_releases_guards() {
    let report = lint_service(
        "impl ShardedCache {\n\
             fn scoped(&self, q: &JobQueue) {\n\
                 {\n\
                     let shard = self.shard(0).lock().expect(\"poisoned\");\n\
                 }\n\
                 let state = q.state.lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn temporary_guards_do_not_count_as_held() {
    // `.lock()` in an expression position releases at end of statement.
    let report = lint_service(
        "impl ShardedCache {\n\
             fn len(&self, q: &JobQueue) -> usize {\n\
                 self.shard(0).lock().expect(\"poisoned\").len();\n\
                 q.state.lock().expect(\"poisoned\").jobs.len()\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn archive_then_shard_is_an_upward_violation() {
    // telemetry-archive (4) held, then cache-shard (3): upward — the
    // router's `telemetry()` must finish its stats walk (which locks
    // cache shards) before touching the retired-route archive.
    let report = lint_service(
        "impl ServiceRouter {\n\
             fn bad(&self, cache: &ShardedCache) {\n\
                 let archive = self.archive.lock().expect(\"poisoned\");\n\
                 let shard = cache.shard(0).lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_LOCK_ORDER]);
    assert!(
        report.findings[0].message.contains("telemetry-archive"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn shard_then_archive_follows_the_hierarchy() {
    // cache-shard (3) then telemetry-archive (4): the telemetry() edge —
    // snapshot live stats, then fold in archived routes. Explicitly legal.
    let report = lint_service(
        "impl ServiceRouter {\n\
             fn telemetry_edge(&self, cache: &ShardedCache) {\n\
                 let shard = cache.shard(0).lock().expect(\"poisoned\");\n\
                 let archive = self.archive.lock().expect(\"poisoned\");\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn span_ring_record_is_hot_path_clean() {
    // The flight-recorder finish sequence — histogram bump plus ring
    // record — must stay legal inside a `hot-path` region with zero
    // suppressions: both structures are preallocated at startup.
    let report = lint_service(
        "// lint: hot-path\n\
         fn finish(ring: &SpanRing, hist: &LogHistogram, span: &QuerySpan) {\n\
             hist.record(span.total_ns());\n\
             ring.record(span);\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 0);
}

// --- relaxed-ordering-justified ---------------------------------------------

#[test]
fn unjustified_relaxed_load_is_flagged() {
    let report =
        lint_service("fn read(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n");
    assert_eq!(rules_of(&report), vec![RULE_RELAXED]);
}

#[test]
fn monotonic_rmw_and_noted_relaxed_pass() {
    let report = lint_service(
        "fn bump(c: &AtomicU64) {\n\
             c.fetch_add(1, Ordering::Relaxed);\n\
         }\n\
         fn snapshot(c: &Counters) -> Stats {\n\
             // ordering: advisory telemetry; fields need not be mutually\n\
             // consistent, only individually atomic.\n\
             Stats {\n\
                 hits: c.hits.load(Ordering::Relaxed),\n\
                 misses: c.misses.load(Ordering::Relaxed),\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn ordering_note_expires_with_its_scope() {
    let report = lint_service(
        "fn noted(c: &AtomicU64) -> u64 {\n\
             // ordering: scoped justification\n\
             c.load(Ordering::Relaxed)\n\
         }\n\
         fn unnoted(c: &AtomicU64) -> u64 {\n\
             c.load(Ordering::Relaxed)\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_RELAXED]);
    assert_eq!(report.findings[0].line, 6);
}

// --- no-bare-unwrap ---------------------------------------------------------

#[test]
fn bare_unwrap_is_flagged_in_service_sources_only() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(rules_of(&lint_service(src)), vec![RULE_UNWRAP]);
    let elsewhere = lint_source("crates/graph/src/fixture.rs", src);
    assert!(elsewhere.findings.is_empty(), "{:?}", elsewhere.findings);
}

#[test]
fn persist_sources_are_inside_the_unwrap_scope_but_not_the_lock_rules() {
    // `crates/persist/src` joins the no-bare-unwrap scope (a loader that
    // panics on malformed input defeats its fail-closed contract), and so
    // do the query-path crates beneath it, but the service-only
    // concurrency rules must not follow: none of them has condvars or a
    // lock hierarchy.
    let unwrap_src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    for path in [
        "crates/persist/src/format.rs",
        "crates/persist/src/store.rs",
        "crates/core/src/laca.rs",
        "crates/diffusion/src/workspace.rs",
        "crates/baselines/src/embed_cluster.rs",
    ] {
        let report = lint_source(path, unwrap_src);
        assert_eq!(rules_of(&report), vec![RULE_UNWRAP], "{path} not in unwrap scope");
    }
    // `.wait(guard)` outside a loop: flagged in service, not in persist.
    let wait_src = "fn g(cv: &Condvar, m: MutexGuard<u32>) {\n    cv.wait(m);\n}\n";
    assert_eq!(rules_of(&lint_service(wait_src)), vec![RULE_CONDVAR]);
    let persist = lint_source("crates/persist/src/store.rs", wait_src);
    assert!(persist.findings.is_empty(), "{:?}", persist.findings);
    // Test regions inside persist sources keep their unwrap allowance.
    let test_src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) -> u32 {\n        x.unwrap()\n    }\n}\n";
    let report = lint_source("crates/persist/src/format.rs", test_src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn overload_modules_are_inside_the_strict_scope() {
    // The overload-hardening modules (PR 7) must stay under the serving
    // crate's strictest rules. Pinned per-path so a future move out of
    // `crates/service/src/` cannot silently drop them from scope.
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    for path in ["crates/service/src/admission.rs", "crates/service/src/fault.rs"] {
        let report = lint_source(path, src);
        assert_eq!(rules_of(&report), vec![RULE_UNWRAP], "{path} fell out of lint scope");
    }
}

#[test]
fn cfg_gated_fault_code_is_still_scanned() {
    // The lint is textual: `#[cfg(laca_fault_inject)]` bodies are scanned
    // even though default builds compile them out — fault hooks get no
    // free pass on unwraps.
    let report = lint_source(
        "crates/service/src/fault.rs",
        "#[cfg(laca_fault_inject)]\n\
         fn inject(x: Option<u32>) -> u32 {\n\
             x.unwrap()\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_UNWRAP]);
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn unwrap_variants_and_test_code_pass() {
    let report = lint_service(
        "fn f(m: &Mutex<u32>) -> u32 {\n\
             *m.lock().unwrap_or_else(PoisonError::into_inner)\n\
         }\n\
         fn g(x: Option<u32>) -> u32 {\n\
             x.unwrap_or(0)\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             fn h(x: Option<u32>) -> u32 {\n\
                 x.unwrap()\n\
             }\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn doc_comment_unwrap_is_not_code() {
    let report = lint_service("/// ```\n/// x.unwrap();\n/// ```\nfn f() {}\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// --- suppression + engine plumbing ------------------------------------------

#[test]
fn allow_marker_suppresses_and_is_counted() {
    let report = lint_service(
        "fn f(x: Option<u32>) -> u32 {\n\
             // lint: allow(no-bare-unwrap)\n\
             x.unwrap()\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn allow_marker_covers_only_one_line() {
    let report = lint_service(
        "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n\
             // lint: allow(no-bare-unwrap)\n\
             x.unwrap();\n\
             y.unwrap()\n\
         }\n",
    );
    assert_eq!(rules_of(&report), vec![RULE_UNWRAP]);
    assert_eq!(report.findings[0].line, 4);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn block_comments_and_raw_strings_are_stripped() {
    let report = lint_service(
        "fn f() -> &'static str {\n\
             /* unsafe { } spans\n\
                multiple lines */\n\
             r#\"unsafe { .unwrap() }\"#\n\
         }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn finding_display_is_path_line_rule() {
    let report = lint_service("fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
    let rendered = report.findings[0].to_string();
    assert!(
        rendered.starts_with("crates/service/src/fixture.rs:2: [no-bare-unwrap]"),
        "{rendered}"
    );
}
