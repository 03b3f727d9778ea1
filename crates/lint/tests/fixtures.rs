//! Per-rule positive/negative fixtures for the invariant linter, plus
//! suppression-syntax and scoping tests. Each fixture is an inline
//! source run through [`check_file`] under a path that puts the rule in
//! scope; positives must fire on the exact line, negatives must stay
//! silent.

use oisum_lint::{check_file, FileKind, RuleId};

/// Findings for `src` at `path`/`kind`, filtered to `rule`, as 1-based
/// line numbers.
fn fire_lines(rule: RuleId, path: &str, kind: FileKind, src: &str) -> Vec<usize> {
    check_file(path, kind, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- float-accum

#[test]
fn float_accum_flags_sum_turbofish() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n";
    assert_eq!(
        fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn float_accum_flags_plus_eq_on_float_binding() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs {\n        acc += x;\n    }\n    acc\n}\n";
    assert_eq!(
        fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![4]
    );
}

#[test]
fn float_accum_flags_float_fold() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    xs.iter().fold(0.0, |a, b| a + b)\n}\n";
    assert_eq!(
        fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn float_accum_ignores_integer_accumulation() {
    let src = "fn f(xs: &[u64]) -> u64 {\n    let mut acc = 0u64;\n    for x in xs {\n        acc += x;\n    }\n    acc + xs.iter().sum::<u64>()\n}\n";
    assert!(fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn float_accum_skips_allowlisted_crates_and_tests() {
    let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    // Path-level ALLOW: the compensated crate IS the float baseline.
    assert!(fire_lines(
        RuleId::FloatAccum,
        "crates/compensated/src/kahan.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
    // Kind scope: integration tests may compute float references.
    assert!(fire_lines(RuleId::FloatAccum, "crates/core/tests/t.rs", FileKind::Test, src).is_empty());
    // #[cfg(test)] regions inside prod files likewise.
    let gated = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
    assert!(
        fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, &gated).is_empty()
    );
}

#[test]
fn float_accum_ignores_patterns_inside_string_literals() {
    let src = "fn f() -> &'static str {\n    \"xs.iter().sum::<f64>() acc += x\"\n}\n";
    assert!(fire_lines(RuleId::FloatAccum, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

// ------------------------------------------------------- unsafe-safety-comment

#[test]
fn unsafe_without_safety_comment_fires_everywhere_even_tests() {
    let src = "fn f(p: *const u64) -> u64 {\n    unsafe { *p }\n}\n";
    assert_eq!(
        fire_lines(RuleId::UnsafeSafety, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
    assert_eq!(
        fire_lines(RuleId::UnsafeSafety, "crates/core/tests/t.rs", FileKind::Test, src),
        vec![2]
    );
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let src = "fn f(p: *const u64) -> u64 {\n    // SAFETY: caller guarantees p is valid and aligned.\n    unsafe { *p }\n}\n";
    assert!(fire_lines(RuleId::UnsafeSafety, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn unsafe_inside_comment_or_string_is_ignored() {
    let src = "// this mentions unsafe in prose\nfn f() -> &'static str { \"unsafe\" }\n";
    assert!(fire_lines(RuleId::UnsafeSafety, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

// ---------------------------------------------------- atomic-ordering-comment

#[test]
fn ordering_without_rationale_fires() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n";
    assert_eq!(
        fire_lines(RuleId::AtomicOrdering, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![3]
    );
}

#[test]
fn ordering_with_rationale_within_lookback_is_clean() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) -> u64 {\n    // ORDERING: Relaxed — monotonic counter, no paired edge needed.\n    a.load(Ordering::Relaxed)\n}\n";
    assert!(
        fire_lines(RuleId::AtomicOrdering, "crates/core/src/x.rs", FileKind::Prod, src).is_empty()
    );
}

#[test]
fn ordering_rationale_covers_multiline_compare_exchange() {
    // The failure ordering sits several lines below the rationale; the
    // 12-line lookback must still cover it.
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) {\n    // ORDERING: Relaxed CAS loop — re-reads on failure; only this\n    // cell's modification order matters.\n    let mut cur = a.load(Ordering::Relaxed);\n    loop {\n        match a.compare_exchange_weak(\n            cur,\n            cur + 1,\n            Ordering::Relaxed,\n            Ordering::Relaxed,\n        ) {\n            Ok(_) => break,\n            Err(now) => cur = now,\n        }\n    }\n}\n";
    assert!(
        fire_lines(RuleId::AtomicOrdering, "crates/core/src/x.rs", FileKind::Prod, src).is_empty()
    );
}

#[test]
fn use_declaration_of_ordering_does_not_fire() {
    let src = "use std::sync::atomic::Ordering;\nuse core::sync::atomic::{AtomicU64, Ordering as O};\n";
    assert!(
        fire_lines(RuleId::AtomicOrdering, "crates/core/src/x.rs", FileKind::Prod, src).is_empty()
    );
}

// ------------------------------------------------------------ nondet-in-faults

#[test]
fn clock_in_faults_crate_fires_even_in_test_regions() {
    let src = "fn fire() -> bool {\n    std::time::Instant::now().elapsed().as_nanos() % 2 == 0\n}\n";
    assert_eq!(
        fire_lines(RuleId::NondetFaults, "crates/faults/src/lib.rs", FileKind::Prod, src),
        vec![2]
    );
    let gated = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}\n";
    assert_eq!(
        fire_lines(RuleId::NondetFaults, "crates/faults/src/lib.rs", FileKind::Prod, gated),
        vec![3]
    );
}

#[test]
fn clock_outside_faults_scope_is_fine() {
    // Wall-clock use is only banned where determinism is the contract.
    let src = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(fire_lines(RuleId::NondetFaults, "crates/bench/src/lib.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn chaos_test_files_are_in_nondet_scope() {
    let src = "fn jitter() { let _ = rand::random::<u64>(); }\n";
    assert_eq!(
        fire_lines(
            RuleId::NondetFaults,
            "crates/service/tests/chaos_retry.rs",
            FileKind::Test,
            src
        ),
        vec![1]
    );
    // A non-chaos service test may use clocks for timeouts.
    assert!(fire_lines(
        RuleId::NondetFaults,
        "crates/service/tests/roundtrip.rs",
        FileKind::Test,
        "fn t() { let _ = std::time::Instant::now(); }\n"
    )
    .is_empty());
}

// -------------------------------------------------------------- cluster-nondet

#[test]
fn clock_on_cluster_peer_path_fires() {
    let src = "fn backoff_for(attempt: u32) -> u64 {\n    std::time::Instant::now().elapsed().as_millis() as u64 + u64::from(attempt)\n}\n";
    assert_eq!(
        fire_lines(
            RuleId::ClusterNondet,
            "crates/cluster/src/peer.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
}

#[test]
fn entropy_on_cluster_peer_path_fires() {
    let src = "fn jitter() -> u64 {\n    rand::random::<u64>() % 10\n}\n";
    assert_eq!(
        fire_lines(
            RuleId::ClusterNondet,
            "crates/cluster/src/node.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
}

#[test]
fn cluster_bins_and_other_crates_are_out_of_nondet_scope() {
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    // loadgen times passes on the wall clock on purpose.
    assert!(fire_lines(
        RuleId::ClusterNondet,
        "crates/cluster/src/bin/loadgen.rs",
        FileKind::Bin,
        src
    )
    .is_empty());
    assert!(fire_lines(
        RuleId::ClusterNondet,
        "crates/service/src/server.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
}

// ----------------------------------------------------------------- lossy-cast

#[test]
fn as_f64_outside_codec_fires() {
    let src = "fn f(n: u64) -> f64 {\n    n as f64\n}\n";
    assert_eq!(
        fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn float_to_int_truncation_fires() {
    let src = "fn f(x: f64) -> u64 {\n    x as u64\n}\n";
    assert_eq!(
        fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn integer_widening_is_not_lossy() {
    let src = "fn f(n: u32, m: usize) -> u64 {\n    n as u64 + m as u64\n}\n";
    assert!(fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn codec_modules_are_exempt_from_lossy_cast() {
    let src = "fn f(x: f64) -> u64 { x as u64 }\n";
    assert!(fire_lines(
        RuleId::LossyCast,
        "crates/core/src/fixed.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
    assert!(fire_lines(
        RuleId::LossyCast,
        "crates/hallberg/src/num.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
}

// --------------------------------------------------------------- service-serde

#[test]
fn serde_paths_in_service_src_fire() {
    let src = "use serde::Serialize;\nfn reply(v: &u64) -> Vec<u8> {\n    serde_json::to_vec(v).unwrap_or_default()\n}\n";
    for (path, kind) in [
        ("crates/service/src/proto.rs", FileKind::Prod),
        ("crates/service/src/bin/server.rs", FileKind::Bin),
    ] {
        assert_eq!(fire_lines(RuleId::ServiceSerde, path, kind, src), vec![1, 3], "{path}");
    }
}

#[test]
fn serde_outside_service_src_or_in_tests_and_strings_is_fine() {
    let src = "use serde::Serialize;\nfn f() -> usize {\n    serde_json::to_string(&1).unwrap().len()\n}\n";
    // Other crates keep their optional serde features.
    assert!(fire_lines(RuleId::ServiceSerde, "crates/core/src/serde_impls.rs", FileKind::Prod, src)
        .is_empty());
    // Integration tests and #[cfg(test)] regions may use JSON.
    assert!(fire_lines(RuleId::ServiceSerde, "crates/service/tests/t.rs", FileKind::Test, src)
        .is_empty());
    let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
    assert!(fire_lines(RuleId::ServiceSerde, "crates/service/src/x.rs", FileKind::Prod, &gated)
        .is_empty());
    // Prose and string contents are not paths; nor is a longer name.
    let prose = "// the wire once spoke serde_json\nfn f() -> &'static str { \"serde::Serialize\" }\nfn my_serde_jsonish() {}\n";
    assert!(fire_lines(RuleId::ServiceSerde, "crates/service/src/x.rs", FileKind::Prod, prose)
        .is_empty());
}

// -------------------------------------------------------------- service-unwrap

#[test]
fn unwrap_in_service_src_fires() {
    let src = "fn handle(b: &[u8]) -> u64 {\n    u64::from_be_bytes(b[..8].try_into().unwrap())\n}\n";
    assert_eq!(
        fire_lines(
            RuleId::ServiceUnwrap,
            "crates/service/src/proto.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
}

#[test]
fn expect_in_service_src_fires() {
    let src = "fn handle(v: Option<u64>) -> u64 {\n    v.expect(\"present\")\n}\n";
    assert_eq!(
        fire_lines(
            RuleId::ServiceUnwrap,
            "crates/service/src/server.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
}

#[test]
fn lock_poisoning_unwrap_is_exempt() {
    let src = "fn f(m: &std::sync::Mutex<u64>, r: &std::sync::RwLock<u64>) -> u64 {\n    *m.lock().unwrap() + *r.read().unwrap()\n}\nfn g(m: &std::sync::Mutex<u64>) -> u64 {\n    *m.lock()\n        .unwrap()\n}\n";
    assert!(fire_lines(
        RuleId::ServiceUnwrap,
        "crates/service/src/ledger.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
}

#[test]
fn unwrap_outside_service_or_in_bins_is_fine() {
    let src = "fn f(v: Option<u64>) -> u64 { v.unwrap() }\n";
    assert!(fire_lines(RuleId::ServiceUnwrap, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
    assert!(fire_lines(
        RuleId::ServiceUnwrap,
        "crates/service/src/bin/loadgen.rs",
        FileKind::Bin,
        src
    )
    .is_empty());
}

// ------------------------------------------------------------- kernel-fallback

/// A minimal well-shaped kernel: screened lookup, cold fallback call,
/// cold fn anchored to the Listing-1 reference.
const KERNEL_OK: &str = "\
fn encode_chunk(xs: &[f64]) {
    for &x in xs {
        let raw = (x.to_bits() >> 52) as usize;
        if raw as u32 >= THRESH {
            slow_encode(x);
            continue;
        }
        let e = DISPATCH[raw & 0x7ff];
        let m = MULT[raw & 0x7ff];
        let _ = (e, m);
    }
}
#[cold]
#[inline(never)]
fn slow_encode(x: f64) {
    let _ = encode_listing1::<6, 3>(x);
}
";

#[test]
fn well_shaped_kernel_is_clean() {
    assert!(fire_lines(
        RuleId::KernelFallback,
        "crates/core/src/kernel.rs",
        FileKind::Prod,
        KERNEL_OK
    )
    .is_empty());
}

#[test]
fn unscreened_table_lookup_fires() {
    let src = "\
fn encode_chunk(xs: &[f64]) {
    for &x in xs {
        let raw = (x.to_bits() >> 52) as usize;
        let e = DISPATCH[raw & 0x7ff];
        let _ = e;
    }
}
#[cold]
fn slow_encode(x: f64) {
    let _ = encode_listing1::<6, 3>(x);
}
";
    assert_eq!(
        fire_lines(RuleId::KernelFallback, "crates/core/src/kernel.rs", FileKind::Prod, src),
        vec![4]
    );
}

#[test]
fn screen_without_cold_fallback_call_fires() {
    // The screen drops values on the floor instead of routing them to a
    // #[cold] fallback (the cold fn exists but is never called).
    let src = "\
fn encode_chunk(xs: &[f64]) {
    for &x in xs {
        let raw = (x.to_bits() >> 52) as usize;
        if raw as u32 >= THRESH {
            continue;
        }
        let e = DISPATCH[raw & 0x7ff];
        let _ = e;
    }
}
#[cold]
fn slow_encode(x: f64) {
    let _ = encode_listing1::<6, 3>(x);
}
";
    assert_eq!(
        fire_lines(RuleId::KernelFallback, "crates/core/src/kernel.rs", FileKind::Prod, src),
        vec![4]
    );
}

#[test]
fn fallback_not_anchored_to_reference_fires() {
    // The cold fallback re-implements the encode instead of calling the
    // Listing-1 reference; the anchor finding lands on the first table use.
    let src = "\
fn encode_chunk(xs: &[f64]) {
    for &x in xs {
        let raw = (x.to_bits() >> 52) as usize;
        if raw as u32 >= THRESH {
            slow_encode(x);
            continue;
        }
        let e = DISPATCH[raw & 0x7ff];
        let _ = e;
    }
}
#[cold]
fn slow_encode(x: f64) {
    let _ = x.to_bits();
}
";
    assert_eq!(
        fire_lines(RuleId::KernelFallback, "crates/core/src/kernel.rs", FileKind::Prod, src),
        vec![8]
    );
}

#[test]
fn unscreened_bins_lookup_fires() {
    // The bins' mask read with no screen: an out-of-range exponent's
    // sentinel entry would be added as if it were a mantissa.
    let src = "\
fn encode_bins(bins: &mut [u64; 1024], xs: &[f64]) {
    for &x in xs {
        let bits = x.to_bits();
        let raw = ((bits >> 52) & 0x7ff) as usize;
        bins[raw & 511] += (bits | 1 << 52) & BIN_MASK[raw];
    }
}
#[cold]
fn slow_encode(x: f64) {
    let _ = encode_listing1::<6, 3>(x);
}
";
    assert_eq!(
        fire_lines(RuleId::KernelFallback, "crates/core/src/kernel.rs", FileKind::Prod, src),
        vec![5]
    );
}

#[test]
fn bins_screen_without_cold_route_fires() {
    // The bins screen skips offenders instead of routing them to the
    // #[cold] Listing-1 deposit.
    let src = "\
fn encode_bins(bins: &mut [u64; 1024], xs: &[f64]) {
    for &x in xs {
        let bits = x.to_bits();
        let raw = ((bits >> 52) & 0x7ff) as u32;
        if raw >= THRESH {
            continue;
        }
        bins[raw as usize & 511] += (bits | 1 << 52) & BIN_MASK[raw as usize];
    }
}
#[cold]
fn slow_encode(x: f64) {
    let _ = encode_listing1::<6, 3>(x);
}
";
    assert_eq!(
        fire_lines(RuleId::KernelFallback, "crates/core/src/kernel.rs", FileKind::Prod, src),
        vec![5]
    );
}

#[test]
fn kernel_fallback_scope_is_the_core_kernel_only() {
    let src = "fn f(i: usize) -> u32 { DISPATCH[i] }\n";
    assert!(fire_lines(
        RuleId::KernelFallback,
        "crates/service/src/kernel.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
    assert!(fire_lines(
        RuleId::KernelFallback,
        "crates/core/src/batch.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
}

#[test]
fn real_kernel_source_passes_kernel_fallback() {
    // The rule must hold on the actual shipped kernel, not just fixtures.
    let src = include_str!("../../core/src/kernel.rs");
    assert!(fire_lines(
        RuleId::KernelFallback,
        "crates/core/src/kernel.rs",
        FileKind::Prod,
        src
    )
    .is_empty());
}

// ------------------------------------------------------------------ suppression

#[test]
fn lint_allow_on_same_line_suppresses_exactly_that_rule() {
    let src = "fn f(n: u64) -> f64 {\n    n as f64 // lint:allow(lossy-cast) -- display only\n}\n";
    assert!(fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn lint_allow_on_line_above_suppresses() {
    let src = "fn f(n: u64) -> f64 {\n    // lint:allow(lossy-cast) -- display only\n    n as f64\n}\n";
    assert!(fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn lint_allow_for_a_different_rule_does_not_suppress() {
    let src = "fn f(n: u64) -> f64 {\n    // lint:allow(float-accum) -- wrong rule name\n    n as f64\n}\n";
    assert_eq!(
        fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![3]
    );
}

#[test]
fn lint_allow_two_lines_above_does_not_suppress() {
    let src = "fn f(n: u64) -> f64 {\n    // lint:allow(lossy-cast) -- too far away\n    let _pad = 0;\n    n as f64\n}\n";
    assert_eq!(
        fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![4]
    );
}

#[test]
fn lint_allow_inside_a_string_is_not_a_suppression() {
    let src = "fn f(n: u64) -> f64 {\n    let _s = \"lint:allow(lossy-cast)\"; n as f64\n}\n";
    assert_eq!(
        fire_lines(RuleId::LossyCast, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![2]
    );
}

// --------------------------------------------------------------- wal-durability

#[test]
fn wal_durability_flags_nondet_in_wal_and_recovery() {
    let src = "fn commit() {\n    let t = std::time::Instant::now();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src),
        vec![2]
    );
    let src = "fn replay() {\n    let r: u64 = rand::random();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/recovery.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn wal_durability_flags_fsync_outside_the_committer() {
    // An fsync in an append helper: some path other than the committer
    // thinks it can establish durability.
    let src = "fn append(file: &std::fs::File) {\n    file.sync_data().ok();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn wal_durability_flags_fsync_in_a_second_commit_fn() {
    // A commit path beside `commit_group`: its fsync is a durability
    // edge the crash seams and the model do not see.
    let src = "fn commit_one(file: &std::fs::File) {\n    file.sync_data().ok();\n}\nfn commit_locked(file: &std::fs::File) {\n    file.sync_all().ok();\n}\nfn sealed(file: &std::fs::File) {\n    file.sync_all().ok();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src),
        vec![2, 5, 8]
    );
}

#[test]
fn wal_durability_accepts_fsync_in_commit_and_seal_fns() {
    let src = "fn commit_group(file: &std::fs::File) {\n    file.sync_data().ok();\n}\nfn seal(file: &std::fs::File) {\n    file.sync_all().ok();\n}\n";
    assert!(fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src)
        .is_empty());
}

#[test]
fn wal_durability_flags_a_create_without_a_directory_sync() {
    // A segment created, and a log directory made, with no sync of the
    // directory holding either: both names may vanish on power loss.
    let src = "fn create(path: &Path) {\n    let f = OpenOptions::new()\n        .write(true)\n        .create(true)\n        .open(path);\n}\nfn open(dir: &Path) {\n    fs::create_dir_all(dir).ok();\n    sync_data_of(dir);\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src),
        vec![4, 8]
    );
}

#[test]
fn wal_durability_accepts_a_create_followed_by_a_directory_sync() {
    let src = "fn create(path: &Path) {\n    let f = OpenOptions::new().write(true).create(true).open(path);\n    sync_parent_dir(path).ok();\n}\nfn open(dir: &Path) {\n    fs::create_dir_all(dir).ok();\n    sync_parent_dir(dir).ok();\n}\nfn list(dir: &Path) {\n    fs::read_dir(dir).ok();\n}\n";
    assert!(fire_lines(RuleId::WalDurability, "crates/service/src/wal.rs", FileKind::Prod, src)
        .is_empty());
}

#[test]
fn wal_durability_flags_a_snapshot_rename_without_a_directory_sync() {
    // A snapshot written to a temp file and renamed over the old one,
    // with the file synced but not its directory: the rename may not
    // survive power loss.
    let src = "fn save(tmp: &Path, path: &Path) {\n    let mut f = File::create(tmp).unwrap();\n    f.sync_all().ok();\n    fs::rename(tmp, path).ok();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/snapshot.rs", FileKind::Prod, src),
        vec![2]
    );
    let src = "fn install(tmp: &Path, path: &Path) {\n    fs::rename(tmp, path).ok();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/snapshot.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn wal_durability_accepts_a_snapshot_rename_followed_by_a_directory_sync() {
    let src = "fn save(tmp: &Path, path: &Path) {\n    let mut f = File::create(tmp).unwrap();\n    f.sync_all().ok();\n    fs::rename(tmp, path).ok();\n    sync_parent_dir(path).ok();\n}\nfn load(path: &Path) {\n    fs::read(path).ok();\n}\n";
    assert!(fire_lines(RuleId::WalDurability, "crates/service/src/snapshot.rs", FileKind::Prod, src)
        .is_empty());
}

#[test]
fn wal_durability_flags_direct_file_writes_on_the_request_path() {
    let src = "fn handle() {\n    std::fs::write(\"x\", b\"y\").ok();\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/dispatch.rs", FileKind::Prod, src),
        vec![2]
    );
    let src = "fn handle() {\n    let f = std::fs::File::create(\"x\");\n}\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/server.rs", FileKind::Prod, src),
        vec![2]
    );
}

#[test]
fn wal_durability_scope_is_the_service_wal_surface_only() {
    // Out of scope: other service modules, other crates, tests.
    let src = "fn f() { let _ = std::time::Instant::now(); std::fs::write(\"x\", b\"y\").ok(); }\n";
    assert!(fire_lines(RuleId::WalDurability, "crates/service/src/ledger.rs", FileKind::Prod, src)
        .is_empty());
    assert!(fire_lines(RuleId::WalDurability, "crates/cluster/src/node.rs", FileKind::Prod, src)
        .is_empty());
    assert!(fire_lines(
        RuleId::WalDurability,
        "crates/service/tests/wal_chaos.rs",
        FileKind::Test,
        src
    )
    .is_empty());
}

#[test]
fn wal_durability_flags_advice_and_modes_that_free_log_bytes() {
    // `MADV_REMOVE` and `MADV_FREE` free a shared tmpfs segment's pages;
    // an advice passed through a variable cannot be checked; a nonzero
    // fallocate mode punches or collapses blocks; and a mistyped
    // constant turns the allowed name into another advice.
    let src = "fn release(p: usize, n: usize, fd: usize) {\n    unsafe { syscall6(SYS_MADVISE, p, n, MADV_REMOVE, 0, 0, 0) };\n    unsafe { syscall6(SYS_MADVISE, p, n, MADV_FREE, 0, 0, 0) };\n    let advice = MADV_DONTNEED;\n    unsafe { syscall6(SYS_MADVISE, p, n, advice, 0, 0, 0) };\n    unsafe { syscall6(SYS_FALLOCATE, fd, FALLOC_FL_PUNCH_HOLE, 0, n, 0, 0) };\n    unsafe {\n        syscall6(\n            SYS_FALLOCATE,\n            fd,\n            3,\n            0,\n            n,\n            0,\n            0,\n        )\n    };\n}\nconst MADV_DONTNEED: usize = 9;\n";
    assert_eq!(
        fire_lines(RuleId::WalDurability, "crates/service/src/segmap.rs", FileKind::Prod, src),
        vec![2, 3, 5, 6, 8, 19]
    );
}

#[test]
fn wal_durability_accepts_the_advice_and_mode_that_keep_log_bytes() {
    let src = "const MADV_POPULATE_WRITE: usize = 23;\nconst MADV_DONTNEED: usize = 4;\nfn step(p: usize, n: usize, fd: usize) {\n    unsafe { syscall6(SYS_FALLOCATE, fd, 0, p, n, 0, 0) };\n    unsafe { syscall6(SYS_MADVISE, p + (n - 1), n, MADV_POPULATE_WRITE, 0, 0, 0) };\n    unsafe {\n        syscall6(\n            SYS_MADVISE,\n            p,\n            f(n, [1, 2]),\n            MADV_DONTNEED,\n            0,\n            0,\n            0,\n        )\n    };\n}\n";
    assert!(fire_lines(RuleId::WalDurability, "crates/service/src/segmap.rs", FileKind::Prod, src)
        .is_empty());
}

#[test]
fn real_wal_sources_pass_wal_durability() {
    // The rule must hold on the shipped WAL surface, not just fixtures.
    for (path, src) in [
        ("crates/service/src/wal.rs", include_str!("../../service/src/wal.rs")),
        ("crates/service/src/segmap.rs", include_str!("../../service/src/segmap.rs")),
        ("crates/service/src/recovery.rs", include_str!("../../service/src/recovery.rs")),
        ("crates/service/src/snapshot.rs", include_str!("../../service/src/snapshot.rs")),
        ("crates/service/src/server.rs", include_str!("../../service/src/server.rs")),
        ("crates/service/src/dispatch.rs", include_str!("../../service/src/dispatch.rs")),
    ] {
        assert!(
            fire_lines(RuleId::WalDurability, path, FileKind::Prod, src).is_empty(),
            "{path} must satisfy wal-durability"
        );
    }
}

// -------------------------------------------------------------------- lock-order

#[test]
fn lock_order_flags_abba_cycle() {
    let src = "struct S {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\nimpl S {\n    fn one(&self) {\n        let _x = self.a.lock().unwrap();\n        let _y = self.b.lock().unwrap();\n    }\n    fn two(&self) {\n        let _y = self.b.lock().unwrap();\n        let _z = self.a.lock().unwrap();\n    }\n}\n";
    // Both edges of the a→b / b→a cycle are reported (the runtime
    // detector in oisum-loom-lite closes the same cycle dynamically).
    assert_eq!(
        fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![8, 12]
    );
}

#[test]
fn lock_order_flags_declared_order_violation() {
    let src = "// lint:lock-order(a < b)\nstruct S {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\nimpl S {\n    fn f(&self) {\n        let _y = self.b.lock().unwrap();\n        let _z = self.a.lock().unwrap();\n    }\n}\n";
    assert_eq!(
        fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![9]
    );
}

#[test]
fn lock_order_honors_holds_and_shim_style_clean() {
    // lint:holds(segment) seeds the held set; S::lock(&self.state) is
    // the shim-style acquisition the WAL uses. segment < state matches.
    let src = "// lint:lock-order(segment < state)\nstruct Sh<S: SyncShimLike> {\n    state: S::Mutex<u64>,\n    segment: S::Mutex<u64>,\n}\nimpl<S: SyncShimLike> Sh<S> {\n    // lint:holds(segment)\n    fn f(&self) {\n        let _q = S::lock(&self.state);\n    }\n}\n";
    assert!(fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn lock_order_flags_shim_style_violation() {
    let src = "// lint:lock-order(segment < state)\nstruct Sh<S: SyncShimLike> {\n    state: S::Mutex<u64>,\n    segment: S::Mutex<u64>,\n}\nimpl<S: SyncShimLike> Sh<S> {\n    fn f(&self) {\n        let _q = S::lock(&self.state);\n        let _g = S::try_lock(&self.segment);\n    }\n}\n";
    assert_eq!(
        fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![9]
    );
}

#[test]
fn lock_order_sees_guard_returning_helpers() {
    // lint:acquires(b) makes `self.lock_b()` count as acquiring `b` at
    // the call site — the WAL's `Shared::lock` pattern.
    let src = "// lint:lock-order(a < b)\nstruct S {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\nimpl S {\n    // lint:acquires(b)\n    fn lock_b(&self) -> std::sync::MutexGuard<'_, u64> {\n        self.b.lock().unwrap()\n    }\n    fn f(&self) {\n        let _g = self.lock_b();\n        let _a = self.a.lock().unwrap();\n    }\n}\n";
    assert_eq!(
        fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![13]
    );
}

#[test]
fn lock_order_drop_releases_the_guard() {
    let src = "// lint:lock-order(a < b)\nstruct S {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\nimpl S {\n    fn f(&self) {\n        let g = self.b.lock().unwrap();\n        drop(g);\n        let _z = self.a.lock().unwrap();\n    }\n}\n";
    assert!(fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

#[test]
fn lock_order_suppression_on_line_above() {
    let src = "// lint:lock-order(a < b)\nstruct S {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\nimpl S {\n    fn f(&self) {\n        let _y = self.b.lock().unwrap();\n        // lint:allow(lock-order) -- documented inversion under test\n        let _z = self.a.lock().unwrap();\n    }\n}\n";
    assert!(fire_lines(RuleId::LockOrder, "crates/core/src/x.rs", FileKind::Prod, src).is_empty());
}

// ------------------------------------------------------------ condvar-predicate

#[test]
fn condvar_wait_outside_loop_fires() {
    let src = "struct S {\n    m: Mutex<u64>,\n    cv: Condvar,\n}\nimpl S {\n    fn f(&self) {\n        let g = self.m.lock().unwrap();\n        let _g = self.cv.wait(g).unwrap();\n    }\n}\n";
    assert_eq!(
        fire_lines(RuleId::CondvarPredicate, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![8]
    );
}

#[test]
fn condvar_wait_in_predicate_loop_is_clean() {
    let src = "struct S {\n    m: Mutex<u64>,\n    cv: Condvar,\n}\nimpl S {\n    fn f(&self) {\n        let mut g = self.m.lock().unwrap();\n        while *g == 0 {\n            g = self.cv.wait(g).unwrap();\n        }\n    }\n}\n";
    assert!(
        fire_lines(RuleId::CondvarPredicate, "crates/core/src/x.rs", FileKind::Prod, src)
            .is_empty()
    );
}

#[test]
fn condvar_shim_style_wait_and_suppression() {
    let src = "struct Sh<S: SyncShimLike> {\n    state: S::Mutex<u64>,\n    done: S::Condvar,\n}\nimpl<S: SyncShimLike> Sh<S> {\n    fn f(&self, s: S::Guard<'_, u64>) {\n        // lint:allow(condvar-predicate) -- callers hold the loop.\n        let _s = S::wait(&self.done, s);\n    }\n    fn g(&self, s: S::Guard<'_, u64>) {\n        let _s = S::wait(&self.done, s);\n    }\n}\n";
    assert_eq!(
        fire_lines(RuleId::CondvarPredicate, "crates/core/src/x.rs", FileKind::Prod, src),
        vec![11]
    );
}

// --------------------------------------------------------- blocking-in-hot-path

#[test]
fn blocking_in_hot_path_fires_on_frame_path_only() {
    let src = "fn handle(state: &std::sync::Mutex<u64>) {\n    let _g = state.lock().unwrap();\n    // lint:allow(blocking-in-hot-path) -- startup path, not per-frame.\n    let _h = state.lock().unwrap();\n}\n";
    // Fires on the frame path (suppressed line stays silent)…
    assert_eq!(
        fire_lines(
            RuleId::BlockingInHotPath,
            "crates/service/src/server.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
    // …and anywhere in the single-threaded reactor, where one blocked
    // acquisition stalls every connection the event loop owns…
    assert_eq!(
        fire_lines(
            RuleId::BlockingInHotPath,
            "crates/service/src/reactor/mod.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
    assert_eq!(
        fire_lines(
            RuleId::BlockingInHotPath,
            "crates/service/src/reactor/conn.rs",
            FileKind::Prod,
            src
        ),
        vec![2]
    );
    // …but not in the WAL (the carve-out that owns blocking), other
    // crates, or test code.
    assert!(fire_lines(RuleId::BlockingInHotPath, "crates/service/src/wal.rs", FileKind::Prod, src)
        .is_empty());
    assert!(fire_lines(RuleId::BlockingInHotPath, "crates/core/src/x.rs", FileKind::Prod, src)
        .is_empty());
    assert!(fire_lines(
        RuleId::BlockingInHotPath,
        "crates/service/src/dispatch.rs",
        FileKind::Test,
        src
    )
    .is_empty());
}

#[test]
fn real_blocking_layer_passes_the_new_rules() {
    // The shipped WAL must satisfy its own declared lock order and wait
    // discipline, and the frame path must stay lock-free.
    let wal = include_str!("../../service/src/wal.rs");
    assert!(fire_lines(RuleId::LockOrder, "crates/service/src/wal.rs", FileKind::Prod, wal)
        .is_empty());
    assert!(
        fire_lines(RuleId::CondvarPredicate, "crates/service/src/wal.rs", FileKind::Prod, wal)
            .is_empty()
    );
    for (path, src) in [
        ("crates/service/src/server.rs", include_str!("../../service/src/server.rs")),
        ("crates/service/src/dispatch.rs", include_str!("../../service/src/dispatch.rs")),
        ("crates/service/src/reactor/mod.rs", include_str!("../../service/src/reactor/mod.rs")),
        ("crates/service/src/reactor/conn.rs", include_str!("../../service/src/reactor/conn.rs")),
        ("crates/service/src/reactor/sys.rs", include_str!("../../service/src/reactor/sys.rs")),
    ] {
        assert!(
            fire_lines(RuleId::BlockingInHotPath, path, FileKind::Prod, src).is_empty(),
            "{path} must keep the frame path lock-free"
        );
    }
}

#[test]
fn blocking_in_hot_path_ignores_socket_io() {
    // The reactor reads and writes sockets on every readiness edge;
    // `.read(buf)`/`.write(bytes)` take arguments and are io, not lock
    // acquisitions. Only the zero-argument acquisition forms fire.
    let src = "fn pump(s: &mut std::net::TcpStream, lk: &std::sync::RwLock<u64>) {\n    let mut b = [0u8; 8];\n    let _n = s.read(&mut b);\n    let _m = s.write(&b);\n    let _g = lk.read().unwrap();\n    let _w = lk.write().unwrap();\n}\n";
    assert_eq!(
        fire_lines(
            RuleId::BlockingInHotPath,
            "crates/service/src/reactor/conn.rs",
            FileKind::Prod,
            src
        ),
        vec![5, 6]
    );
}
