//! The invariant rules, their scopes, and the module allowlist.
//!
//! Every rule is named and individually suppressible at line level with
//! `// lint:allow(<rule>) -- <justification>` on the offending line or
//! the line directly above it. Path-level exemptions live in [`ALLOW`],
//! each with a recorded reason — the linter has no silent escapes.

use crate::lexer::{lex, tokens, Line};
use std::collections::HashSet;
use std::fmt;

/// The enforced invariants. See `DESIGN.md` §12 for the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No floating-point accumulation (`.sum::<f64>()`, float `+=`
    /// folds, `.fold(0.0, …)`) outside the compensated/baseline
    /// allowlist: a raw f64 fold in a hot path is exactly the
    /// order-sensitivity bug this project exists to eliminate.
    FloatAccum,
    /// Every `unsafe` must be preceded by a `// SAFETY:` rationale.
    UnsafeSafety,
    /// Every explicit atomic `Ordering::…` use must be preceded by a
    /// `// ORDERING:` rationale: too-weak orderings on ledger state are
    /// how parallel sums silently go non-reproducible.
    AtomicOrdering,
    /// No wall-clock or entropy sources (`Instant::now`, `SystemTime`,
    /// `thread_rng`, …) inside fault-injection firing logic or the
    /// chaos suite — chaos runs must replay bit-for-bit from a seed.
    NondetFaults,
    /// No lossy numeric casts (`as f64`/`as f32`, float→int `as`)
    /// outside the codec modules that own exactness proofs.
    LossyCast,
    /// No `unwrap()`/`expect()` on service request-handling paths: a
    /// malformed frame must produce a typed error, never a worker
    /// panic. (Lock-poisoning `.lock()/.read()/.write().unwrap()` is
    /// exempt by policy: poisoning means a panic already happened and
    /// crashing loudly is the correct containment.)
    ServiceUnwrap,
    /// No wall-clock or entropy sources on the cluster peer request
    /// path (`crates/cluster/src/`, bins exempt): a retried reduce or
    /// mirror add that observes a clock or RNG can take a different
    /// path on replay, and cluster exactness is argued by determinism.
    ClusterNondet,
    /// The multi-lane encode kernel's fast/slow routing shape
    /// (`crates/core/src/kernel.rs`): every dispatch-table lookup must
    /// sit behind a `THRESH` exponent screen (entries past the
    /// threshold are sentinels, not encodings), every screen must
    /// route to a `#[cold]` fallback, and at least one cold fallback
    /// must anchor to the scalar `encode_listing1` reference — the
    /// bitwise-identity argument leans on the slow path *being* the
    /// Listing-1 encoder.
    KernelFallback,
    /// The write-ahead log's durability discipline
    /// (`crates/service/src/`): no clocks or entropy inside `wal.rs` /
    /// `recovery.rs` (recovery and group-commit decisions must replay
    /// bit-for-bit), every fsync in `wal.rs` lives inside the
    /// segment's `commit_group` or `seal` (one place owns the
    /// durability edge), every `wal.rs` or `snapshot.rs` function that
    /// creates or renames a file or a directory also calls
    /// `sync_parent_dir(` (a new name is durable only once its directory
    /// is synced), the request path
    /// (`server.rs`, `dispatch.rs`) never opens or writes files directly
    /// — an ACK may only ride on bytes that went through the committer
    /// or the snapshot writer — and every raw `madvise` passes
    /// `MADV_POPULATE_WRITE` or `MADV_DONTNEED` and every raw `fallocate`
    /// mode 0, so no page or block of a segment is ever freed.
    WalDurability,
    /// Lock acquisition order, from the per-file static lock graph
    /// (see `locks.rs`): acquiring against a declared
    /// `// lint:lock-order(a < b)` order, or any ABBA cycle in the
    /// observed held-while-acquiring edges, is a deadlock waiting for
    /// the right interleaving. The WAL declares `segment < state`;
    /// `oisum-loom-lite` enforces the same declaration dynamically.
    LockOrder,
    /// Every condvar wait must sit inside a `while`/`loop` predicate
    /// re-check: spurious wakeups and notify races make a bare
    /// `if`+wait the exact lost-wakeup shape the model checker's
    /// `LostWakeup` verdict catches at runtime.
    CondvarPredicate,
    /// No blocking lock acquisitions on the zero-copy frame path
    /// (`crates/service/src/server.rs` / `dispatch.rs`) or anywhere in
    /// the single-threaded epoll reactor
    /// (`crates/service/src/reactor/`): the request path stays
    /// lock-free; durability blocking is the WAL's carve-out and lives
    /// behind `wal.append`, never inline in frame handling. On the
    /// reactor the stakes are higher still — one blocked acquisition
    /// stalls every connection the event loop owns, not one worker.
    BlockingInHotPath,
    /// No `serde::` or `serde_json` paths in the service's non-test
    /// sources (`crates/service/src/`): the wire is binary, one header
    /// and one op table, and the service manifest keeps both serde
    /// crates only for the benchmark's lock file, so nothing but this
    /// rule keeps JSON from creeping back onto the wire.
    ServiceSerde,
}

pub const ALL_RULES: [RuleId; 13] = [
    RuleId::FloatAccum,
    RuleId::UnsafeSafety,
    RuleId::AtomicOrdering,
    RuleId::NondetFaults,
    RuleId::LossyCast,
    RuleId::ServiceUnwrap,
    RuleId::ClusterNondet,
    RuleId::KernelFallback,
    RuleId::WalDurability,
    RuleId::LockOrder,
    RuleId::CondvarPredicate,
    RuleId::BlockingInHotPath,
    RuleId::ServiceSerde,
];

impl RuleId {
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatAccum => "float-accum",
            RuleId::UnsafeSafety => "unsafe-safety-comment",
            RuleId::AtomicOrdering => "atomic-ordering-comment",
            RuleId::NondetFaults => "nondet-in-faults",
            RuleId::LossyCast => "lossy-cast",
            RuleId::ServiceUnwrap => "service-unwrap",
            RuleId::ClusterNondet => "cluster-nondet",
            RuleId::KernelFallback => "kernel-fallback",
            RuleId::WalDurability => "wal-durability",
            RuleId::LockOrder => "lock-order",
            RuleId::CondvarPredicate => "condvar-predicate",
            RuleId::BlockingInHotPath => "blocking-in-hot-path",
            RuleId::ServiceSerde => "service-serde",
        }
    }

    pub fn from_name(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == s)
    }

    pub fn summary(self) -> &'static str {
        match self {
            RuleId::FloatAccum => {
                "no floating-point accumulation outside compensated/baseline modules"
            }
            RuleId::UnsafeSafety => "every `unsafe` needs a preceding // SAFETY: comment",
            RuleId::AtomicOrdering => {
                "every atomic Ordering:: use needs a preceding // ORDERING: rationale"
            }
            RuleId::NondetFaults => {
                "no clocks/entropy in fault firing logic or the chaos suite"
            }
            RuleId::LossyCast => "no lossy `as` casts outside codec modules",
            RuleId::ServiceUnwrap => {
                "no unwrap()/expect() on service request-handling paths"
            }
            RuleId::ClusterNondet => {
                "no clocks/entropy on the cluster peer request path"
            }
            RuleId::KernelFallback => {
                "kernel fast paths stay screened by THRESH and fall back to #[cold] Listing-1"
            }
            RuleId::WalDurability => {
                "WAL logic stays deterministic, fsyncs stay in the committer, every \
                 create or rename syncs its directory, the request path never writes \
                 files directly, and no madvise or fallocate can free the log's bytes"
            }
            RuleId::LockOrder => {
                "lock acquisitions respect the declared lint:lock-order and form no cycles"
            }
            RuleId::CondvarPredicate => {
                "every condvar wait sits inside a while/loop predicate re-check"
            }
            RuleId::BlockingInHotPath => {
                "no blocking lock acquisitions on the zero-copy frame path"
            }
            RuleId::ServiceSerde => "no serde or serde_json paths in the service: the wire is binary",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a file participates in the build, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/production source (`src/**`, excluding `src/bin`).
    Prod,
    /// Integration tests, benches, examples.
    Test,
    /// Binaries (`src/bin/**`): operational tooling, not request paths.
    Bin,
}

/// A rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Path-level exemptions: (rule, path prefix, reason). Kept small and
/// reasoned — prefer a line-level `lint:allow` for one-off cases.
pub const ALLOW: &[(RuleId, &str, &str)] = &[
    (
        RuleId::FloatAccum,
        "crates/compensated/",
        "this crate IS the float-summation baseline/compensated algorithms under study",
    ),
    (
        RuleId::FloatAccum,
        "crates/analysis/",
        "error/condition analysis measures float drift; float statistics are its output",
    ),
    (
        RuleId::FloatAccum,
        "crates/bench/",
        "benchmark figures reproduce the paper's float baselines on purpose",
    ),
    (
        RuleId::FloatAccum,
        "crates/gpu-sim/src/method.rs",
        "F64Gpu emulates the paper's non-reproducible CUDA float-atomic baseline",
    ),
    (
        RuleId::FloatAccum,
        "shims/",
        "offline stand-ins for crates.io libraries; not summation paths",
    ),
    (
        RuleId::LossyCast,
        "crates/bignum/src/",
        "the bignum limb codec owns the f64<->limb exactness proofs",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/fixed.rs",
        "HP codec module: Listing-1/2 conversions are the audited lossy boundary",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/convert.rs",
        "codec module: exact-range conversion helpers",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/format.rs",
        "decimal formatting of limbs is a codec",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/dyn_hp.rs",
        "dynamic-width codec over the fixed codec",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/batch.rs",
        "carry-deferred deposit encoding is part of the HP codec",
    ),
    (
        RuleId::LossyCast,
        "crates/hallberg/src/",
        "Hallberg scaled-integer codec: the cast is the encoding",
    ),
    (
        RuleId::LossyCast,
        "crates/core/src/trace.rs",
        "step-by-step trace of the Listing-1 codec conversion — the casts ARE the subject",
    ),
    (
        RuleId::LossyCast,
        "crates/analysis/",
        "drift/condition measurement: float statistics are the crate's output, not sum state",
    ),
    (
        RuleId::LossyCast,
        "crates/gpu-sim/src/model.rs",
        "GPU performance model (latency/bandwidth/contention): floats model time, not sums",
    ),
    (
        RuleId::LossyCast,
        "crates/gpu-sim/src/device.rs",
        "simulated-device timing model: amortized cost arithmetic, not summation data",
    ),
    (
        RuleId::LossyCast,
        "crates/threads/src/model.rs",
        "host calibration timing model (seconds per element), not summation data",
    ),
    (
        RuleId::LossyCast,
        "crates/phi-sim/src/model.rs",
        "paper Eq. 4–6 offload speedup model: floats model time ratios, not sums",
    ),
];

fn allowed(rule: RuleId, path: &str) -> bool {
    ALLOW
        .iter()
        .any(|(r, prefix, _)| *r == rule && path.starts_with(prefix))
}

/// Is `rule` applicable to this file at all?
fn in_scope(rule: RuleId, path: &str, kind: FileKind) -> bool {
    if allowed(rule, path) {
        return false;
    }
    match rule {
        RuleId::FloatAccum => kind == FileKind::Prod,
        RuleId::UnsafeSafety => true,
        RuleId::AtomicOrdering => kind == FileKind::Prod,
        RuleId::NondetFaults => {
            path.starts_with("crates/faults/")
                || (path.starts_with("crates/service/tests/") && path.contains("chaos"))
        }
        RuleId::LossyCast => kind == FileKind::Prod && path.starts_with("crates/"),
        RuleId::ServiceUnwrap => kind == FileKind::Prod && path.starts_with("crates/service/src/"),
        // Bins (`loadgen`, the node launcher) legitimately read clocks
        // for reporting; the library peer path may not.
        RuleId::ClusterNondet => kind == FileKind::Prod && path.starts_with("crates/cluster/src/"),
        RuleId::KernelFallback => {
            kind == FileKind::Prod
                && path.starts_with("crates/core/src/")
                && path.ends_with("kernel.rs")
        }
        // Each check picks its own files; the advice check covers all.
        RuleId::WalDurability => kind == FileKind::Prod && path.starts_with("crates/service/src/"),
        // The lock graph and the wait discipline apply to every
        // production file that declares lock/condvar fields (the passes
        // are no-ops elsewhere); the hot-path rule is the frame path's
        // own contract.
        RuleId::LockOrder | RuleId::CondvarPredicate => kind == FileKind::Prod,
        RuleId::BlockingInHotPath => {
            kind == FileKind::Prod
                && path.starts_with("crates/service/src/")
                && (path.ends_with("server.rs")
                    || path.ends_with("dispatch.rs")
                    || path.starts_with("crates/service/src/reactor/"))
        }
        // The server binary too: any code that speaks for the service.
        RuleId::ServiceSerde => kind != FileKind::Test && path.starts_with("crates/service/src/"),
    }
}

/// Does this rule also inspect `#[cfg(test)]` regions?
fn applies_to_test_lines(rule: RuleId) -> bool {
    matches!(rule, RuleId::UnsafeSafety | RuleId::NondetFaults)
}

/// The kernel's per-exponent tables whose entries at or past `THRESH`
/// are sentinels: the lane kernel's dispatch pair and the bins' mask.
const SCREENED_TABLES: [&str; 3] = ["DISPATCH[", "MULT[", "BIN_MASK["];

/// `// lint:allow(<rule>)` on the line or the line directly above.
pub(crate) fn suppressed(lines: &[Line], idx: usize, rule: RuleId) -> bool {
    let needle = format!("lint:allow({})", rule.name());
    lines[idx].comment.contains(&needle)
        || (idx > 0 && lines[idx - 1].comment.contains(&needle))
}

/// Whitespace-stripped code, for substring patterns.
fn squish(code: &str) -> String {
    code.chars().filter(|c| !c.is_whitespace()).collect()
}

fn is_ident_tok(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_float_literal(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_ascii_digit())
        && (t.contains('.') || t.ends_with("f64") || t.ends_with("f32") || t.contains("e-"))
}

/// A bare `f64`/`f32` *type* token on the line (note: `from_f64` and
/// friends lex as single identifiers, so HP codec calls don't hint).
fn has_float_hint(toks: &[String]) -> bool {
    toks.iter().any(|t| t == "f64" || t == "f32")
}

/// A comment matching `marker` on line `idx` or within `lookback` lines
/// above it.
fn comment_above(lines: &[Line], idx: usize, marker: &str, lookback: usize) -> bool {
    let lo = idx.saturating_sub(lookback);
    lines[lo..=idx].iter().any(|l| l.comment.contains(marker))
}

/// The top-level arguments, squished, of the call whose argument list
/// `code` starts with, up to its closing parenthesis.
fn call_args(code: &str) -> Vec<String> {
    let (mut args, mut arg, mut depth) = (Vec::new(), String::new(), 0usize);
    for c in code.chars() {
        match c {
            ')' | ']' | '}' if depth == 0 => break,
            ',' if depth == 0 => {
                args.push(std::mem::take(&mut arg));
                continue;
            }
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
        arg.push(c);
    }
    args.push(arg);
    args
}

/// Lint one file's source. `path` is workspace-relative with forward
/// slashes; `kind` is derived from it by the walker.
pub fn check_file(path: &str, kind: FileKind, src: &str) -> Vec<Finding> {
    let lines = lex(src);
    let toks: Vec<Vec<String>> = lines.iter().map(|l| tokens(&l.code)).collect();
    let squished: Vec<String> = lines.iter().map(|l| squish(&l.code)).collect();
    let mut findings = Vec::new();
    let mut push = |idx: usize, rule: RuleId, msg: String, lines: &[Line]| {
        if !suppressed(lines, idx, rule) {
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule,
                message: msg,
            });
        }
    };

    // --- float-accum: per-file set of float-typed bindings ---
    let float_accum = in_scope(RuleId::FloatAccum, path, kind);
    let mut float_idents: HashSet<String> = HashSet::new();

    for (idx, line) in lines.iter().enumerate() {
        for rule in ALL_RULES {
            if !in_scope(rule, path, kind) {
                continue;
            }
            if line.in_test && !applies_to_test_lines(rule) {
                continue;
            }
            match rule {
                RuleId::FloatAccum => { /* handled below: needs binding state */ }
                RuleId::KernelFallback => { /* handled after the loop: needs whole-file state */ }
                RuleId::LockOrder | RuleId::CondvarPredicate => {
                    /* handled after the loop: locks.rs needs whole-file state */
                }
                RuleId::BlockingInHotPath => {
                    // Zero-argument acquisition forms only: `.read(buf)`
                    // (io) and `.write(bytes)` take arguments, lock
                    // acquisitions don't.
                    const ACQUIRE: [&str; 4] = [".lock()", ".try_lock()", ".read()", ".write()"];
                    if let Some(a) = ACQUIRE.iter().find(|a| squished[idx].contains(**a)) {
                        push(
                            idx,
                            rule,
                            format!(
                                "blocking acquisition `{a}` on the zero-copy frame path; \
                                 request handling stays lock-free — durability blocking \
                                 belongs behind the WAL carve-out (`wal.append`), not \
                                 inline in frame code"
                            ),
                            &lines,
                        );
                    }
                }
                RuleId::WalDurability => {
                    if path.ends_with("wal.rs") || path.ends_with("recovery.rs") {
                        // Determinism: recovery verdicts and group-commit
                        // decisions must be a pure function of the bytes
                        // (and, under chaos, the seed). The fsync-placement
                        // check runs after the loop (needs fn tracking).
                        const SOURCES: [&str; 5] = [
                            "Instant::now",
                            "SystemTime",
                            "thread_rng",
                            "from_entropy",
                            "rand::random",
                        ];
                        for s in SOURCES {
                            if squished[idx].contains(s) {
                                push(
                                    idx,
                                    rule,
                                    format!(
                                        "nondeterminism source `{s}` in WAL/recovery logic; \
                                         what commits and what replays must not depend on \
                                         clocks or entropy"
                                    ),
                                    &lines,
                                );
                            }
                        }
                    } else if path.ends_with("server.rs") || path.ends_with("dispatch.rs") {
                        // The ACK path may not write files behind the
                        // committer's back. The snapshot writer and the
                        // WAL own every byte that an ACK can ride on.
                        const WRITERS: [&str; 4] =
                            ["File::create", "OpenOptions::", "std::fs::write", "fs::write("];
                        for w in WRITERS {
                            if squished[idx].contains(w) {
                                push(
                                    idx,
                                    rule,
                                    format!(
                                        "direct file write (`{w}`) on the request path; \
                                         durability goes through the WAL committer or the \
                                         snapshot writer, never past them"
                                    ),
                                    &lines,
                                );
                                break;
                            }
                        }
                    }
                }
                RuleId::UnsafeSafety => {
                    if toks[idx].iter().any(|t| t == "unsafe")
                        && !comment_above(&lines, idx, "SAFETY:", 3)
                    {
                        push(
                            idx,
                            rule,
                            "`unsafe` without a preceding `// SAFETY:` justification".into(),
                            &lines,
                        );
                    }
                }
                RuleId::AtomicOrdering => {
                    const VARIANTS: [&str; 5] = [
                        "Ordering::Relaxed",
                        "Ordering::Acquire",
                        "Ordering::Release",
                        "Ordering::AcqRel",
                        "Ordering::SeqCst",
                    ];
                    // Lookback 12: a rationale block above a multi-line
                    // compare_exchange call still covers the failure
                    // ordering on its last argument line.
                    if VARIANTS.iter().any(|v| squished[idx].contains(v))
                        && !comment_above(&lines, idx, "ORDERING:", 12)
                    {
                        push(
                            idx,
                            rule,
                            "atomic `Ordering::` use without a `// ORDERING:` rationale \
                             within the preceding 12 lines"
                                .into(),
                            &lines,
                        );
                    }
                }
                RuleId::NondetFaults | RuleId::ClusterNondet => {
                    const SOURCES: [&str; 5] = [
                        "Instant::now",
                        "SystemTime",
                        "thread_rng",
                        "from_entropy",
                        "rand::random",
                    ];
                    for s in SOURCES {
                        if squished[idx].contains(s) {
                            let msg = if rule == RuleId::NondetFaults {
                                format!(
                                    "nondeterminism source `{s}` in fault/chaos logic; \
                                     fault firing must be a pure function of the seed"
                                )
                            } else {
                                format!(
                                    "nondeterminism source `{s}` on the cluster peer request \
                                     path; retries and reduces must replay deterministically"
                                )
                            };
                            push(idx, rule, msg, &lines);
                        }
                    }
                }
                RuleId::LossyCast => {
                    let t = &toks[idx];
                    for w in t.windows(2) {
                        if w[0] == "as" && (w[1] == "f64" || w[1] == "f32") {
                            push(
                                idx,
                                rule,
                                format!(
                                    "lossy `as {}` cast outside a codec module (f64 holds \
                                     53 significant bits; route through the audited codecs)",
                                    w[1]
                                ),
                                &lines,
                            );
                            break;
                        }
                        // Float hint may sit on the previous line (e.g. a
                        // signature's `x: f64` above the cast expression).
                        let hint_window = &toks[idx.saturating_sub(1)..=idx];
                        if w[0] == "as"
                            && matches!(
                                w[1].as_str(),
                                "u64" | "i64" | "u32" | "i32" | "u128" | "i128" | "usize"
                            )
                            && hint_window
                                .iter()
                                .any(|lt| has_float_hint(lt) || lt.iter().any(|x| x == "to_f64"))
                        {
                            push(
                                idx,
                                rule,
                                format!(
                                    "float-to-integer `as {}` truncation outside a codec module",
                                    w[1]
                                ),
                                &lines,
                            );
                            break;
                        }
                    }
                }
                RuleId::ServiceSerde => {
                    let t = &toks[idx];
                    let serde_path = t.iter().enumerate().any(|(i, tok)| {
                        tok == "serde_json"
                            || (tok == "serde" && t.get(i + 1).is_some_and(|n| n == "::"))
                    });
                    if serde_path {
                        push(
                            idx,
                            rule,
                            "serde path in the service: every frame is binary under one \
                             header and one op table (`proto.rs`), so JSON stays off the wire"
                                .into(),
                            &lines,
                        );
                    }
                }
                RuleId::ServiceUnwrap => {
                    let sq = &squished[idx];
                    let mut bad = sq.contains(".expect(");
                    if sq.contains(".unwrap()") {
                        let lock_same_line = sq.contains(".lock().unwrap()")
                            || sq.contains(".read().unwrap()")
                            || sq.contains(".write().unwrap()");
                        let lock_prev_line = sq.starts_with(".unwrap()")
                            && idx > 0
                            && (squished[idx - 1].ends_with(".lock()")
                                || squished[idx - 1].ends_with(".read()")
                                || squished[idx - 1].ends_with(".write()"));
                        if !lock_same_line && !lock_prev_line {
                            bad = true;
                        }
                    }
                    if bad {
                        push(
                            idx,
                            rule,
                            "unwrap()/expect() on a request-handling path: return a typed \
                             protocol error instead (lock-poisoning unwraps are exempt)"
                                .into(),
                            &lines,
                        );
                    }
                }
            }
        }

        // float-accum (stateful over the file's bindings)
        if float_accum && !line.in_test {
            let t = &toks[idx];
            // Track float-typed `let` bindings.
            if let Some(li) = t.iter().position(|x| x == "let") {
                let mut j = li + 1;
                if t.get(j).map(String::as_str) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = t.get(j).filter(|n| is_ident_tok(n)) {
                    let rest = &t[j + 1..];
                    let is_float = has_float_hint(rest)
                        || rest
                            .iter()
                            .skip_while(|x| *x != "=")
                            .find(|x| x.chars().next().is_some_and(|c| c.is_ascii_digit()))
                            .is_some_and(|x| is_float_literal(x));
                    if is_float {
                        float_idents.insert(name.clone());
                    }
                }
            }
            // .sum::<f64>() / .sum() with a float hint in the local window.
            for (i, tok) in t.iter().enumerate() {
                if tok == "sum" && i > 0 && t[i - 1] == "." {
                    let after = t.get(i + 1).map(String::as_str);
                    if after == Some("::") {
                        let window = &t[i + 1..(i + 7).min(t.len())];
                        if window.iter().any(|x| x == "f64" || x == "f32") {
                            push(
                                idx,
                                RuleId::FloatAccum,
                                ".sum::<f64>() is an order-sensitive rounded fold; use \
                                 Hp::sum_f64_slice or a BatchAcc"
                                    .into(),
                                &lines,
                            );
                        }
                    } else if after == Some("(") {
                        let lo = idx.saturating_sub(2);
                        if toks[lo..=idx].iter().any(|lt| has_float_hint(lt)) {
                            push(
                                idx,
                                RuleId::FloatAccum,
                                "float `.sum()` fold (f64 operands in the chain); use the \
                                 exact HP summation paths"
                                    .into(),
                                &lines,
                            );
                        }
                    }
                }
                if tok == "fold" && i > 0 && t[i - 1] == "." {
                    let window = &t[i + 1..(i + 5).min(t.len())];
                    if window
                        .iter()
                        .any(|x| is_float_literal(x) || x == "f64" || x == "f32")
                    {
                        push(
                            idx,
                            RuleId::FloatAccum,
                            "float `.fold(…)` accumulation; use the exact HP summation paths"
                                .into(),
                            &lines,
                        );
                    }
                }
            }
            // `+=` on a binding we know to be float.
            for w in t.windows(2) {
                if w[1] == "+=" && float_idents.contains(&w[0]) {
                    push(
                        idx,
                        RuleId::FloatAccum,
                        format!(
                            "float `+=` accumulation into `{}`; each such fold rounds and \
                             breaks order-invariance",
                            w[0]
                        ),
                        &lines,
                    );
                }
            }
        }
    }

    // --- kernel-fallback: the encode kernel's fast/slow routing shape ---
    if in_scope(RuleId::KernelFallback, path, kind) {
        // Names of functions declared directly under a `#[cold]`
        // attribute (the attribute and its `fn` may be separated by
        // `#[inline(never)]` and the like).
        let mut cold_fns: HashSet<String> = HashSet::new();
        for (idx, sq) in squished.iter().enumerate() {
            if !sq.contains("#[cold]") {
                continue;
            }
            for line_toks in toks.iter().take((idx + 4).min(lines.len())).skip(idx + 1) {
                if let Some(p) = line_toks.iter().position(|t| t == "fn") {
                    if let Some(name) = line_toks.get(p + 1).filter(|n| is_ident_tok(n)) {
                        cold_fns.insert(name.clone());
                    }
                    break;
                }
            }
        }
        // Walk the file tracking which fn body we are in (the kernel
        // module has no nested fns outside its test region).
        let mut current_fn: Option<String> = None;
        let mut cold_anchors_reference = false;
        let mut first_table_use: Option<usize> = None;
        for idx in 0..lines.len() {
            if lines[idx].in_test {
                continue;
            }
            if let Some(p) = toks[idx].iter().position(|t| t == "fn") {
                current_fn = toks[idx].get(p + 1).cloned();
            }
            let sq = &squished[idx];
            if sq.contains("encode_listing1")
                && current_fn.as_deref().is_some_and(|f| cold_fns.contains(f))
            {
                cold_anchors_reference = true;
            }
            if SCREENED_TABLES.iter().any(|t| sq.contains(t)) {
                if first_table_use.is_none() {
                    first_table_use = Some(idx);
                }
                // Table entries at or past the threshold are sentinels,
                // not encodings: a lookup with no screen above it is a
                // latent wrong-limbs bug, not a perf detail.
                let lo = idx.saturating_sub(16);
                let screened =
                    (lo..=idx).any(|j| !lines[j].in_test && squished[j].contains("THRESH"));
                if !screened {
                    push(
                        idx,
                        RuleId::KernelFallback,
                        "dispatch-table lookup without a `THRESH` screen in the preceding \
                         16 lines; out-of-range exponents must be routed to the reference \
                         fallback before any table read"
                            .into(),
                        &lines,
                    );
                }
            }
            // Every fast-path screen must hand the screened-out values
            // to a `#[cold]` fallback.
            if sq.contains("THRESH") && sq.contains(">=") {
                let hi = (idx + 5).min(lines.len());
                let routed = (idx..hi).any(|j| {
                    cold_fns.iter().any(|f| {
                        squished[j].contains(&format!("{f}(")) || squished[j].contains(&format!("{f}::<"))
                    })
                });
                if !routed {
                    push(
                        idx,
                        RuleId::KernelFallback,
                        "fast-path `THRESH` screen with no `#[cold]` fallback call within \
                         4 lines; every screened-out value must reach the Listing-1 \
                         reference path"
                            .into(),
                        &lines,
                    );
                }
            }
        }
        if let Some(idx) = first_table_use {
            if !cold_anchors_reference {
                push(
                    idx,
                    RuleId::KernelFallback,
                    "kernel uses dispatch tables but no `#[cold]` function anchors to \
                     `encode_listing1`; the slow path must be the Listing-1 reference \
                     encoder so bitwise identity stays an argument, not a hope"
                        .into(),
                    &lines,
                );
            }
        }
    }

    // --- wal-durability: fsync placement (needs fn tracking) ---
    // Every fsync in the log module must sit inside `commit_group` or
    // `seal`, the two functions every record and every footer reach the
    // file through: one audited place owns the edge where an ACK
    // becomes justified. An fsync anywhere else means some
    // other code path believes it can make bytes durable — which is how
    // "committed" quietly stops meaning one thing.
    if in_scope(RuleId::WalDurability, path, kind) && path.ends_with("wal.rs") {
        let mut current_fn: Option<String> = None;
        for idx in 0..lines.len() {
            if lines[idx].in_test {
                continue;
            }
            if let Some(p) = toks[idx].iter().position(|t| t == "fn") {
                current_fn = toks[idx].get(p + 1).cloned();
            }
            let sq = &squished[idx];
            if sq.contains("sync_all(") || sq.contains("sync_data(") {
                let owned = matches!(current_fn.as_deref(), Some("commit_group" | "seal"));
                if !owned {
                    push(
                        idx,
                        RuleId::WalDurability,
                        "fsync outside `commit_group` and `seal`; the group commit is the \
                         only place an ACK's durability may be established"
                            .into(),
                        &lines,
                    );
                }
            }
        }
    }

    // --- wal-durability: a directory sync after every create ---
    // A new file's or directory's name is durable only once its parent
    // directory is synced; records ACKed into a segment whose entry is
    // lost on power loss go with it, and so does a snapshot renamed
    // over the old one. So every function in the log and snapshot
    // modules that creates or renames one must also call
    // `sync_parent_dir(`.
    if in_scope(RuleId::WalDurability, path, kind)
        && (path.ends_with("wal.rs") || path.ends_with("snapshot.rs"))
    {
        const CREATES: [&str; 6] = [
            "create(true)",
            "create_new(true)",
            "File::create(",
            "create_dir(",
            "create_dir_all(",
            "fs::rename(",
        ];
        // Per function: the line of its first create, and whether it syncs.
        let mut pending: Option<usize> = None;
        let mut synced = false;
        let mut flush = |pending: &mut Option<usize>, synced: bool| {
            if let Some(idx) = pending.take().filter(|_| !synced) {
                push(
                    idx,
                    RuleId::WalDurability,
                    "file or directory created or renamed without a `sync_parent_dir(` in \
                     the same function; its name is not durable until the parent directory \
                     is synced"
                        .into(),
                    &lines,
                );
            }
        };
        for idx in 0..lines.len() {
            if lines[idx].in_test {
                continue;
            }
            if toks[idx].iter().any(|t| t == "fn") {
                flush(&mut pending, synced);
                synced = false;
            }
            let sq = &squished[idx];
            if pending.is_none() && CREATES.iter().any(|c| sq.contains(c)) {
                pending = Some(idx);
            }
            synced |= sq.contains("sync_parent_dir(");
        }
        flush(&mut pending, synced);
    }

    // --- wal-durability: advice and modes that keep the log's bytes ---
    // `MADV_DONTNEED` (4) drops only this process's mapping of a page and
    // fallocate mode 0 only allocates. `MADV_REMOVE` (9) or `MADV_FREE`
    // on a shared tmpfs mapping, or a punching or collapsing fallocate
    // mode, would free a segment's pages, ACKed records included. So every
    // raw `madvise` names one of the two advices that keep them at the
    // call, every raw `fallocate` passes mode 0, and both advice
    // constants keep their kernel values.
    if in_scope(RuleId::WalDurability, path, kind) {
        const CALLS: [(&str, usize, &[&str], &str); 2] = [
            (
                "syscall6(SYS_MADVISE,",
                3,
                &["MADV_POPULATE_WRITE", "MADV_DONTNEED"],
                "`madvise` advice other than `MADV_POPULATE_WRITE` or `MADV_DONTNEED` \
                 named at the call; `MADV_REMOVE` or `MADV_FREE` would free a shared \
                 segment's pages, ACKed records included",
            ),
            (
                "syscall6(SYS_FALLOCATE,",
                2,
                &["0"],
                "`fallocate` with a mode other than 0; a punching or collapsing mode \
                 would free a segment's blocks, ACKed records included",
            ),
        ];
        const VALUES: [(&str, &str); 2] = [("MADV_DONTNEED", "4"), ("MADV_POPULATE_WRITE", "23")];
        // The production code squished into one string, so a call
        // split over lines reads whole; `starts` maps it back to lines.
        let (mut code, mut starts) = (String::new(), Vec::new());
        for idx in (0..lines.len()).filter(|&idx| !lines[idx].in_test) {
            starts.push((code.len(), idx));
            code.push_str(&squished[idx]);
        }
        for (call, arg, allowed, message) in CALLS {
            for (at, _) in code.match_indices(call) {
                let args = call_args(&code[at + "syscall6(".len()..]);
                if !args.get(arg).is_some_and(|a| allowed.contains(&a.as_str())) {
                    let line = starts.partition_point(|&(start, _)| start <= at) - 1;
                    push(starts[line].1, RuleId::WalDurability, message.into(), &lines);
                }
            }
        }
        for idx in 0..lines.len() {
            if lines[idx].in_test {
                continue;
            }
            let sq = &squished[idx];
            for (name, value) in VALUES {
                if sq.contains(&format!("const{name}:")) && !sq.ends_with(&format!("={value};")) {
                    push(
                        idx,
                        RuleId::WalDurability,
                        format!("`{name}` is {value} in the kernel's ABI; any other value is a different advice"),
                        &lines,
                    );
                }
            }
        }
    }

    // --- lock-order / condvar-predicate: function-scope lock analysis ---
    if in_scope(RuleId::LockOrder, path, kind) {
        crate::locks::check_lock_order(path, &lines, &toks, &squished, &mut findings);
    }
    if in_scope(RuleId::CondvarPredicate, path, kind) {
        crate::locks::check_condvar_predicate(path, &lines, &toks, &squished, &mut findings);
    }
    // Whole-file passes append out of order; one report order for all.
    findings.sort_by_key(|f| f.line);
    findings
}
