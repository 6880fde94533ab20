//! The atomics-discipline pass: memory-ordering hygiene over every
//! `std::sync::atomic` call site in the workspace.
//!
//! The multi-buffer swap engine runs on raw atomics whose correctness
//! rests on picking the right `Ordering` at every site; the
//! atomics-aware model checker explores its interleavings. These rules
//! are the static side of that gate:
//!
//! * `atomics/relaxed-publish` — a `store`/`swap` with
//!   `Ordering::Relaxed` whose value is **not** a literal. Storing a
//!   literal flag (`stop.store(true, Relaxed)`) is a pure signal and
//!   legal; storing a computed value with `Relaxed` publishes data
//!   without a happens-before edge, so a consumer can observe the
//!   pointer/index before the bytes it refers to.
//! * `atomics/acquire-release-pair` — within one file, a field that is
//!   written with `Release`/`AcqRel`/`SeqCst` somewhere but read with
//!   `Relaxed` elsewhere: the read side discards the ordering the write
//!   side paid for.
//! * `atomics/compare-exchange-order` — a `compare_exchange` /
//!   `compare_exchange_weak` whose *failure* ordering is `Release` or
//!   `AcqRel` (not a load ordering), or whose success ordering is
//!   `Relaxed` while storing a non-literal value (publication through a
//!   CAS needs `Release` on success).
//! * `atomics/relaxed-fence` — `fence(Ordering::Relaxed)` is a no-op.
//! * `atomics/static-mut` — `static mut` is unsynchronized shared
//!   mutable state; use an atomic or a lock.
//! * `atomics/unsafe-no-safety` — an `unsafe` block/fn/impl without a
//!   `// SAFETY:` comment on the same or the directly preceding line.
//!
//! Classification of a store as *publication* is data-flow-lite within
//! the call site: a value token sequence consisting only of literals
//! (`true`, `false`, integer literals, or a unary minus before one) is a
//! signal, anything else is treated as published data. Test regions are
//! skipped, and every finding routes through the shared allowlist.

use crate::lex::{TokKind, Token};
use crate::lint::{push_violation, Allowlist, FileScan, LintReport};
use crate::locks::receiver_chain;
use std::collections::BTreeMap;

/// Atomic RMW/store method names that publish with their first argument.
const STORE_METHODS: &[&str] = &["store", "swap"];

/// All atomic method names whose receiver is an atomic field (used for
/// the acquire/release pairing inventory).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One atomic call site: receiver chain, method, orderings, line.
struct AtomicSite {
    recv: String,
    method: &'static str,
    orderings: Vec<String>,
    line: usize,
    /// `true` when the stored value is a bare literal (signal, not data).
    literal_value: bool,
}

/// Splits a call's argument tokens (cursor on `(`) into top-level
/// comma-separated argument slices; returns the index past `)`.
fn split_args(toks: &[Token], open: usize) -> (Vec<Vec<&Token>>, usize) {
    let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth == 1 {
                j += 1;
                continue;
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return (args, j + 1);
            }
        } else if t.is_punct(',') && depth == 1 {
            args.push(Vec::new());
            j += 1;
            continue;
        }
        if depth >= 1 {
            if let Some(last) = args.last_mut() {
                last.push(t);
            }
        }
        j += 1;
    }
    (args, j)
}

/// The `Ordering` variant named in an argument slice, if any.
fn ordering_of(arg: &[&Token]) -> Option<String> {
    for t in arg {
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
            )
        {
            return Some(t.text.clone());
        }
    }
    None
}

/// `true` when the argument is a pure literal: `true`, `false`, an
/// integer/float literal, optionally behind a unary minus or an `as`
/// cast of a literal.
fn is_literal_value(arg: &[&Token]) -> bool {
    let mut saw_value = false;
    for t in arg {
        match t.kind {
            TokKind::Int | TokKind::Float => saw_value = true,
            TokKind::Ident if t.text == "true" || t.text == "false" => saw_value = true,
            TokKind::Ident if t.text == "as" => {}
            // Cast target type idents (`0 as u64`) are fine.
            TokKind::Ident
                if saw_value
                    && matches!(
                        t.text.as_str(),
                        "u8" | "u16" | "u32" | "u64" | "usize" | "i8" | "i16" | "i32" | "i64"
                            | "isize"
                    ) => {}
            TokKind::Punct if t.is_punct('-') && !saw_value => {}
            _ => return false,
        }
    }
    saw_value
}

/// Collects every atomic method call site in a file.
fn collect_sites(scan: &FileScan) -> Vec<AtomicSite> {
    let toks = &scan.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(method) = ATOMIC_METHODS.iter().find(|m| **m == t.text) else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let (args, _) = split_args(toks, i + 1);
        let orderings: Vec<String> = args.iter().filter_map(|a| ordering_of(a)).collect();
        if orderings.is_empty() {
            continue; // `.load(buf)` on a reader, `.store(x)` on a cell…
        }
        let literal_value = if STORE_METHODS.contains(method) {
            args.first().is_some_and(|a| is_literal_value(a))
        } else if t.text.starts_with("compare_exchange") {
            args.get(1).is_some_and(|a| is_literal_value(a))
        } else {
            false
        };
        out.push(AtomicSite {
            recv: receiver_chain(toks, i - 1),
            method,
            orderings,
            line: t.line,
            literal_value,
        });
    }
    out
}

/// Runs the atomics-discipline rule family over one file.
pub fn atomics_rules(scan: &FileScan, allow: &Allowlist, report: &mut LintReport) {
    let in_test = |line: usize| scan.in_test.get(line.saturating_sub(1)).copied().unwrap_or(false);

    let sites = collect_sites(scan);

    // --- per-site rules ----------------------------------------------
    for s in &sites {
        if in_test(s.line) {
            continue;
        }
        match s.method {
            "store" | "swap" => {
                if s.orderings.first().is_some_and(|o| o == "Relaxed") && !s.literal_value {
                    push_violation(
                        report,
                        allow,
                        scan,
                        s.line - 1,
                        "atomics/relaxed-publish",
                        format!(
                            "`.{}(.., Relaxed)` publishes a computed value without a \
                             happens-before edge; use `Ordering::Release` (literal flag \
                             stores are exempt)",
                            s.method
                        ),
                    );
                }
            }
            "compare_exchange" | "compare_exchange_weak" => {
                // Orderings appear as (success, failure) — the last two
                // Ordering-bearing arguments.
                if let [.., success, failure] = s.orderings.as_slice() {
                    if failure == "Release" || failure == "AcqRel" {
                        push_violation(
                            report,
                            allow,
                            scan,
                            s.line - 1,
                            "atomics/compare-exchange-order",
                            format!(
                                "`{failure}` is not a valid failure (load) ordering for \
                                 `.{}(..)`; use `Relaxed`, `Acquire` or `SeqCst`",
                                s.method
                            ),
                        );
                    }
                    if success == "Relaxed" && !s.literal_value {
                        push_violation(
                            report,
                            allow,
                            scan,
                            s.line - 1,
                            "atomics/relaxed-publish",
                            format!(
                                "`.{}(..)` with `Relaxed` success ordering publishes a \
                                 computed value; use `Ordering::Release` on success",
                                s.method
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    // --- acquire/release pairing per receiver ------------------------
    let mut release_writers: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &sites {
        if s.recv.is_empty() || in_test(s.line) {
            continue;
        }
        let writes = s.method != "load";
        if writes
            && s.orderings
                .iter()
                .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"))
        {
            release_writers.entry(s.recv.as_str()).or_insert(s.line);
        }
    }
    for s in &sites {
        if s.recv.is_empty() || in_test(s.line) || s.method != "load" {
            continue;
        }
        if s.orderings.first().is_some_and(|o| o == "Relaxed") {
            if let Some(wline) = release_writers.get(s.recv.as_str()) {
                push_violation(
                    report,
                    allow,
                    scan,
                    s.line - 1,
                    "atomics/acquire-release-pair",
                    format!(
                        "`{}` is written with Release/SeqCst ordering (line {wline}) but \
                         read with `Relaxed` here; use `Ordering::Acquire`",
                        s.recv
                    ),
                );
            }
        }
    }

    // --- fences, static mut, unsafe hygiene (token scan) --------------
    let toks = &scan.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        match t.text.as_str() {
            "fence" | "compiler_fence" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                let (args, _) = split_args(toks, i + 1);
                if args.iter().filter_map(|a| ordering_of(a)).any(|o| o == "Relaxed") {
                    push_violation(
                        report,
                        allow,
                        scan,
                        t.line - 1,
                        "atomics/relaxed-fence",
                        format!("`{}(Ordering::Relaxed)` is a no-op", t.text),
                    );
                }
            }
            "static" if toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) => {
                push_violation(
                    report,
                    allow,
                    scan,
                    t.line - 1,
                    "atomics/static-mut",
                    "`static mut` is unsynchronized shared mutable state; use an atomic, \
                     a lock, or `OnceLock`"
                        .into(),
                );
            }
            "unsafe" => {
                // Skip `unsafe` inside trait bounds/attrs rendered as
                // idents is impossible here: only real code tokens reach
                // this. Require a `// SAFETY:` comment on the same raw
                // line or the directly preceding one.
                let line_idx = t.line - 1;
                let same = scan
                    .raw_lines
                    .get(line_idx)
                    .is_some_and(|l| l.contains("SAFETY:"));
                let above = line_idx > 0
                    && scan
                        .raw_lines
                        .get(line_idx - 1)
                        .is_some_and(|l| l.trim_start().starts_with("//") && l.contains("SAFETY:"));
                if !same && !above {
                    push_violation(
                        report,
                        allow,
                        scan,
                        line_idx,
                        "atomics/unsafe-no-safety",
                        "`unsafe` without a `// SAFETY:` comment on this or the preceding \
                         line documenting the invariant"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::scan_file;

    fn run(src: &str) -> LintReport {
        let mut report = LintReport::default();
        let scan = scan_file("crates/core/src/swap.rs", src);
        atomics_rules(&scan, &Allowlist::default(), &mut report);
        report
    }

    #[test]
    fn relaxed_publish_of_computed_value_flagged() {
        let r = run("fn f() { self.head.store(idx, Ordering::Relaxed); }\n");
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "atomics/relaxed-publish");
    }

    #[test]
    fn relaxed_literal_flag_store_is_clean() {
        let r = run(
            "fn f() { stop.store(true, Ordering::Relaxed); n.store(0, Ordering::Relaxed); }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn release_store_relaxed_load_pair_flagged() {
        let r = run(
            "fn w(&self) { self.seq.store(v, Ordering::Release); }\n\
             fn r(&self) -> u64 { self.seq.load(Ordering::Relaxed) }\n",
        );
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"atomics/acquire-release-pair"), "{rules:?}");
    }

    #[test]
    fn relaxed_counters_without_release_writers_are_clean() {
        let r = run(
            "fn f() { n.fetch_add(1, Ordering::Relaxed); let x = n.load(Ordering::Relaxed); }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn bad_cas_failure_ordering_flagged() {
        let r = run(
            "fn f() { s.compare_exchange(a, b, Ordering::AcqRel, Ordering::Release); }\n",
        );
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"atomics/compare-exchange-order"), "{rules:?}");
    }

    #[test]
    fn relaxed_success_cas_publishing_flagged() {
        let r = run(
            "fn f() { s.compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed); }\n",
        );
        let rules: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"atomics/relaxed-publish"), "{rules:?}");
    }

    #[test]
    fn relaxed_fence_flagged() {
        let r = run("fn f() { fence(Ordering::Relaxed); }\n");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "atomics/relaxed-fence");
    }

    #[test]
    fn static_mut_flagged() {
        let r = run("static mut COUNTER: u64 = 0;\n");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "atomics/static-mut");
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let r = run("fn f() { unsafe { ptr.read() } }\n");
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "atomics/unsafe-no-safety");
    }

    #[test]
    fn unsafe_with_safety_comment_is_clean() {
        let r = run(
            "fn f() {\n    // SAFETY: index bounds-checked above.\n    unsafe { ptr.read() }\n}\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let r = run("fn f() { unsafe { ptr.read() } } // SAFETY: single writer\n");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn test_regions_are_skipped() {
        let r = run(
            "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { x() } h.store(v, Ordering::Relaxed); }\n}\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
