//! Function-scope lock analysis: the static lock graph behind
//! `lock-order` and the wait-discipline check behind
//! `condvar-predicate`.
//!
//! The analysis is per-file and deliberately conservative: it tracks
//! only acquisitions whose receiver is a *field of `self`* declared as
//! a `Mutex`/`RwLock` in the same file (`self.field.lock()`,
//! `S::lock(&self.field)` shim style), plus calls to same-file helpers
//! annotated `// lint:acquires(<field>)` (guard-returning wrappers like
//! the WAL's `Shared::lock`). Guards bound with `let` are held until an
//! explicit `drop(var)` or until the enclosing block closes (tracked by
//! brace depth); acquisitions never bound (`verdict(self.lock(), …)`)
//! are treated as released on the same statement. Whatever the scan
//! misses it misses silently — the rules here never fire on code they
//! could not see, so every finding is a real ordered pair of
//! acquisitions in the source.
//!
//! Three annotations drive it (documented in `DESIGN.md` §17):
//!
//! * `// lint:lock-order(a < b < …)` — declares the file's acquisition
//!   order; an edge acquiring `a` while holding `b` is a finding.
//! * `// lint:holds(field)` — placed above a `fn`: the function is only
//!   called with `field` held (its callers own the guard), so its own
//!   acquisitions extend that hold.
//! * `// lint:acquires(field)` — placed above a `fn` that *returns*
//!   the guard for `field`: calls to it through `self` count as
//!   acquisitions at the call site.
//!
//! Independent of any declaration, the union of observed edges must be
//! acyclic: `a` held while acquiring `b` in one function and `b` held
//! while acquiring `a` in another is the classic ABBA inversion and is
//! reported at both edges.

use crate::lexer::Line;
use crate::rules::{suppressed, Finding, RuleId};

/// Extracts `marker(payload)` from a comment, e.g.
/// `annotation("// lint:holds(segment)", "lint:holds(")` → `Some("segment")`.
fn annotation<'a>(comment: &'a str, marker: &str) -> Option<&'a str> {
    let start = comment.find(marker)? + marker.len();
    let rest = &comment[start..];
    let end = rest.find(')')?;
    Some(rest[..end].trim())
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Field declarations of lock (`Mutex`/`RwLock`, std or shim `S::…`)
/// type: lines shaped `name: …Mutex<…>` inside a struct body. Lines
/// carrying `fn`/`let`/`struct`/`impl`/`trait`/`type`/`where` are
/// signatures or bounds, not fields.
fn typed_fields(toks: &[Vec<String>], lines: &[Line], type_hit: impl Fn(&str) -> bool) -> Vec<String> {
    const NOT_A_FIELD: [&str; 7] = ["fn", "let", "struct", "impl", "trait", "type", "where"];
    let mut out = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if lines[idx].in_test || t.iter().any(|x| NOT_A_FIELD.contains(&x.as_str())) {
            continue;
        }
        let Some(p) = t.iter().position(|x| x == ":") else { continue };
        if p == 0 || !is_ident(&t[p - 1]) {
            continue;
        }
        if t[p + 1..].iter().any(|x| type_hit(x)) && !out.contains(&t[p - 1]) {
            out.push(t[p - 1].clone());
        }
    }
    out
}

/// A guard the linear scan currently believes is held.
struct Held {
    label: String,
    /// Binding variable; `None` for `lint:holds` entry state (released
    /// only when the function ends).
    var: Option<String>,
    /// Brace depth the binding lives at; the guard dies when the scan
    /// leaves that depth. `i32::MIN` for entry state.
    depth: i32,
}

/// One observed ordered acquisition: `to` acquired while `from` held.
struct LockEdge {
    from: String,
    to: String,
    idx: usize,
}

/// The binding variable of a `let`-bound acquisition: the last plain
/// identifier before `=` (`let mut s`, `if let Some(mut seg)`, …).
fn binding_var(t: &[String]) -> Option<String> {
    const KEYWORDS: [&str; 7] = ["let", "mut", "if", "while", "Some", "Ok", "Err"];
    let eq = t.iter().position(|x| x == "=")?;
    if !t[..eq].iter().any(|x| x == "let") {
        return None;
    }
    t[..eq]
        .iter()
        .rev()
        .find(|x| is_ident(x) && !KEYWORDS.contains(&x.as_str()))
        .cloned()
}

/// `lint:holds(` / `lint:acquires(` payloads in the comments on lines
/// `idx-lookback..=idx` (annotations sit on or just above the `fn`).
fn fn_annotations(lines: &[Line], idx: usize, marker: &str, lookback: usize) -> Vec<String> {
    let lo = idx.saturating_sub(lookback);
    lines[lo..=idx]
        .iter()
        .filter_map(|l| annotation(&l.comment, marker).map(str::to_string))
        .collect()
}

/// Does `from` reach `to` in the (deduplicated) edge graph?
fn reaches(edges: &[(String, String)], from: &str, to: &str) -> bool {
    let mut seen: Vec<&str> = vec![from];
    let mut frontier: Vec<&str> = vec![from];
    while let Some(node) = frontier.pop() {
        for (a, b) in edges {
            if a == node && !seen.contains(&b.as_str()) {
                if b == to {
                    return true;
                }
                seen.push(b);
                frontier.push(b);
            }
        }
    }
    false
}

/// The `lock-order` pass: builds the file's lock graph and reports (a)
/// acquisitions against a declared `lint:lock-order(…)` and (b) cycles
/// in the observed graph even without a declaration.
pub(crate) fn check_lock_order(
    path: &str,
    lines: &[Line],
    toks: &[Vec<String>],
    squished: &[String],
    findings: &mut Vec<Finding>,
) {
    let fields = typed_fields(toks, lines, |x| x == "Mutex" || x == "RwLock");
    if fields.is_empty() {
        return;
    }

    // Declared order: field name -> rank.
    let mut rank: Vec<(String, usize)> = Vec::new();
    for l in lines {
        if let Some(spec) = annotation(&l.comment, "lint:lock-order(") {
            for (r, name) in spec.split('<').map(str::trim).enumerate() {
                if !name.is_empty() && !rank.iter().any(|(n, _)| n == name) {
                    rank.push((name.to_string(), r));
                }
            }
        }
    }
    let rank_of = |label: &str| rank.iter().find(|(n, _)| n == label).map(|(_, r)| *r);

    // Guard-returning helpers: fn name -> lock label. Collected up
    // front so calls before the definition still count.
    let mut acquires: Vec<(String, String)> = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if let Some(p) = t.iter().position(|x| x == "fn") {
            if let Some(name) = t.get(p + 1).filter(|n| is_ident(n)) {
                for label in fn_annotations(lines, idx, "lint:acquires(", 3) {
                    acquires.push((name.clone(), label));
                }
            }
        }
    }

    // Linear scan: per-function held set, brace-depth guard lifetimes.
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    for idx in 0..lines.len() {
        if lines[idx].in_test {
            continue;
        }
        let t = &toks[idx];
        let sq = &squished[idx];

        // A new fn: flush the previous function's state, seed the
        // held set from its `lint:holds(…)` contract.
        if let Some(p) = t.iter().position(|x| x == "fn") {
            if t.get(p + 1).is_some_and(|n| is_ident(n)) {
                held.clear();
                for label in fn_annotations(lines, idx, "lint:holds(", 3) {
                    held.push(Held { label, var: None, depth: i32::MIN });
                }
            }
        }

        // Acquisitions on this line, in textual order of the patterns.
        let mut acquired: Vec<String> = Vec::new();
        for f in &fields {
            let hit = ["lock()", "try_lock()", "read()", "write()"]
                .iter()
                .any(|m| sq.contains(&format!("self.{f}.{m}")))
                || ["lock", "try_lock", "read", "write"]
                    .iter()
                    .any(|m| sq.contains(&format!("::{m}(&self.{f}")));
            if hit && !acquired.contains(f) {
                acquired.push(f.clone());
            }
        }
        for (helper, label) in &acquires {
            if (sq.contains(&format!("self.{helper}(")) || sq.contains(&format!("Self::{helper}(")))
                && !acquired.contains(label)
            {
                acquired.push(label.clone());
            }
        }

        let opens = lines[idx].code.matches('{').count() as i32;
        let closes = lines[idx].code.matches('}').count() as i32;
        let bind = binding_var(t);
        for (i, label) in acquired.iter().enumerate() {
            for h in &held {
                if h.label != *label {
                    edges.push(LockEdge { from: h.label.clone(), to: label.clone(), idx });
                }
            }
            // First acquisition takes the `let` binding; the rest are
            // statement-scoped temporaries (edges only, never held).
            if i == 0 {
                if let Some(var) = &bind {
                    held.push(Held {
                        label: label.clone(),
                        var: Some(var.clone()),
                        depth: depth + opens,
                    });
                }
            }
        }

        // Explicit releases, then block-exit releases.
        held.retain(|h| match &h.var {
            Some(v) => !sq.contains(&format!("drop({v})")),
            None => true,
        });
        depth += opens - closes;
        held.retain(|h| h.var.is_none() || h.depth <= depth);
    }

    // (a) Edges against the declared order.
    let mut reported: Vec<usize> = Vec::new();
    for e in &edges {
        if let (Some(rf), Some(rt)) = (rank_of(&e.from), rank_of(&e.to)) {
            if rf > rt && !suppressed(lines, e.idx, RuleId::LockOrder) {
                findings.push(Finding {
                    file: path.to_string(),
                    line: e.idx + 1,
                    rule: RuleId::LockOrder,
                    message: format!(
                        "acquires `{}` while holding `{}`, against the declared \
                         lint:lock-order (`{}` ranks before `{}`)",
                        e.to, e.from, e.to, e.from
                    ),
                });
                reported.push(e.idx);
            }
        }
    }

    // (b) Cycles in the observed graph (ABBA inversions), declaration
    // or not. Each edge that closes a cycle is reported once.
    let pairs: Vec<(String, String)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    for e in &edges {
        if reported.contains(&e.idx) {
            continue;
        }
        if reaches(&pairs, &e.to, &e.from) && !suppressed(lines, e.idx, RuleId::LockOrder) {
            findings.push(Finding {
                file: path.to_string(),
                line: e.idx + 1,
                rule: RuleId::LockOrder,
                message: format!(
                    "lock-order cycle: `{}` is held while acquiring `{}` here, but \
                     elsewhere `{}` is held while acquiring `{}` — an ABBA deadlock \
                     waiting for the right interleaving",
                    e.from, e.to, e.to, e.from
                ),
            });
            reported.push(e.idx);
        }
    }
}

/// The `condvar-predicate` pass: every wait on a condvar field must sit
/// inside a `while`/`loop` predicate re-check — a bare `if`+wait is the
/// lost-wakeup/spurious-wakeup shape the model checker's
/// `LostWakeup` verdict catches dynamically.
pub(crate) fn check_condvar_predicate(
    path: &str,
    lines: &[Line],
    toks: &[Vec<String>],
    squished: &[String],
    findings: &mut Vec<Finding>,
) {
    let cvs = typed_fields(toks, lines, |x| x == "Condvar" || x.ends_with("Condvar"));
    if cvs.is_empty() {
        return;
    }
    for idx in 0..lines.len() {
        if lines[idx].in_test {
            continue;
        }
        let sq = &squished[idx];
        let Some(cv) = cvs.iter().find(|f| {
            sq.contains(&format!(".{f}.wait("))
                || sq.contains(&format!(".{f}.wait_timeout("))
                || sq.contains(&format!("::wait(&self.{f}"))
                || sq.contains(&format!("::wait_timeout(&self.{f}"))
        }) else {
            continue;
        };
        // Lookback 12: a `while` condition split over several lines
        // still counts as the enclosing predicate.
        let lo = idx.saturating_sub(12);
        let looped = (lo..=idx).any(|j| {
            !lines[j].in_test && toks[j].iter().any(|x| x == "while" || x == "loop")
        });
        if !looped && !suppressed(lines, idx, RuleId::CondvarPredicate) {
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule: RuleId::CondvarPredicate,
                message: format!(
                    "wait on condvar `{cv}` outside a `while`/`loop` predicate re-check; \
                     spurious wakeups and notify races make a bare wait a lost-wakeup \
                     bug (re-test the predicate around every wait)"
                ),
            });
        }
    }
}
