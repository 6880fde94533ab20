//! Integration tests driving the analyzer over the fixture corpus in
//! `tests/fixtures/`. Three jobs:
//!
//! * the **clean** corpus proves the token-level passes never fire
//!   inside strings, doc comments, or nested block comments (the
//!   regression class the old line scanner failed on), and that the
//!   real-tree lock and atomics idioms (condvar wait loops, Relaxed
//!   counters, literal flag stores) are accepted;
//! * the **seeded** corpus proves each pass is live: every planted
//!   defect is reported, at the planted line, under the planted rule;
//! * the **fixture workspaces** (`taint_bad/`, `callgraph_tree/`) prove
//!   the call-graph layer end to end: cross-crate resolution, taint
//!   transitivity, and byte-deterministic rendering.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use odr_check::atomics::atomics_rules;
use odr_check::effects::effect_rules;
use odr_check::graph::build_graph;
use odr_check::lint::{
    determinism_rules, feature_rules, panic_rules, scan_file, units_rules, Allowlist, FileScan,
    LintReport,
};
use odr_check::locks::{analyze_file, in_scope, OrderGraph};
use odr_check::taint::taint_rules;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scans a fixture as if it lived at `rel_path` inside the repo.
fn scan(name: &str, rel_path: &str) -> FileScan {
    scan_file(rel_path, &fixture(name))
}

/// Lines (1-based) carrying a `// BAD:` marker in a seeded fixture.
fn bad_lines(src: &str) -> BTreeSet<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// BAD:"))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Line (1-based) → rule named by the `// BAD: <rule>` marker.
fn bad_rules(src: &str) -> BTreeMap<usize, String> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let (_, rule) = l.split_once("// BAD:")?;
            Some((i + 1, rule.trim().to_string()))
        })
        .collect()
}

/// Scans every `.rs` file under `tests/fixtures/<dir>/` with paths
/// relative to that directory, so the fixture tree acts as a miniature
/// repo root for the call-graph layer.
fn scan_fixture_tree(dir: &str) -> (PathBuf, Vec<FileScan>) {
    fn collect(base: &Path, cur: &Path, out: &mut Vec<String>) {
        let mut entries: Vec<_> = std::fs::read_dir(cur)
            .unwrap_or_else(|e| panic!("read_dir {}: {e}", cur.display()))
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                collect(base, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(base).unwrap();
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut rels = Vec::new();
    collect(&root, &root, &mut rels);
    assert!(!rels.is_empty(), "fixture tree {dir} is empty");
    let scans = rels
        .iter()
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(rel)).unwrap();
            scan_file(rel, &text)
        })
        .collect();
    (root, scans)
}

#[test]
fn clean_corpus_has_zero_findings_across_all_passes() {
    // Placed in a pure-sim crate so the determinism family applies.
    let s = scan("clean_strings.rs", "crates/pipeline/src/clean_strings.rs");
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    determinism_rules(&s, &allow, &mut report);
    panic_rules(&s, &allow, &mut report);
    units_rules(&s, &allow, &mut report);
    atomics_rules(&s, &allow, &mut report);
    // Empty declared-feature set: even `feature = "..."` bait in strings
    // and docs must not reach the gate audit.
    feature_rules(&s, &BTreeSet::new(), &allow, &mut report);
    assert!(
        report.violations.is_empty(),
        "clean corpus flagged: {:#?}",
        report.violations
    );

    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    assert!(locks.findings.is_empty(), "{:?}", locks.findings);
    assert!(orders.inversions().is_empty());
}

#[test]
fn lock_clean_fixture_matches_real_tree_idioms() {
    let s = scan("lock_clean.rs", "crates/runtime/src/lock_clean.rs");
    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    assert!(
        locks.findings.is_empty(),
        "clean lock fixture flagged: {:#?}",
        locks.findings
    );
    assert!(orders.inversions().is_empty(), "{:?}", orders.inversions());
}

#[test]
fn seeded_blocking_under_lock_is_detected() {
    let src = fixture("lock_block_bad.rs");
    let expected = bad_lines(&src);
    assert_eq!(expected.len(), 5, "fixture should seed 5 defects");

    let s = scan_file("crates/runtime/src/lock_block_bad.rs", &src);
    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    let got: BTreeSet<usize> = locks.findings.iter().map(|(l, _, _)| l + 1).collect();
    assert_eq!(got, expected, "findings: {:#?}", locks.findings);
    assert!(locks
        .findings
        .iter()
        .all(|(_, rule, _)| *rule == "lock/blocking-call"));
}

#[test]
fn seeded_lock_order_inversion_is_detected_at_both_sites() {
    let s = scan("lock_order_bad.rs", "crates/runtime/src/lock_order_bad.rs");
    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    assert!(
        locks.findings.is_empty(),
        "no blocking calls are seeded: {:?}",
        locks.findings
    );

    let inv = orders.inversions();
    assert_eq!(inv.len(), 2, "one inversion, reported at both sites: {inv:#?}");
    for (path, (_, rule, msg)) in &inv {
        assert_eq!(path, "crates/runtime/src/lock_order_bad.rs");
        assert_eq!(*rule, "lock/order");
        assert!(msg.contains("self.queue") && msg.contains("self.stats"), "{msg}");
    }
}

#[test]
fn test_only_reverse_lock_order_is_not_an_inversion() {
    let s = scan(
        "lock_order_test_only.rs",
        "crates/runtime/src/lock_order_test_only.rs",
    );
    // The fixture's reverse acquisition really is inside a test region.
    assert!(s.in_test.iter().any(|t| *t), "cfg(test) region not detected");
    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    assert!(locks.findings.is_empty(), "{:?}", locks.findings);
    assert!(
        orders.inversions().is_empty(),
        "test-only reverse order reported as inversion: {:#?}",
        orders.inversions()
    );
}

#[test]
fn seeded_unit_mixups_are_detected() {
    let src = fixture("units_bad.rs");
    let expected = bad_lines(&src);
    assert_eq!(expected.len(), 5, "fixture should seed 5 defects");

    let s = scan_file("crates/pipeline/src/units_bad.rs", &src);
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    units_rules(&s, &allow, &mut report);
    let got: BTreeSet<usize> = report.violations.iter().map(|v| v.line).collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
    let mixed = report
        .violations
        .iter()
        .filter(|v| v.rule == "units/mixed-suffix")
        .count();
    let bare = report
        .violations
        .iter()
        .filter(|v| v.rule == "units/bare-literal")
        .count();
    assert_eq!((mixed, bare), (3, 2));
}

#[test]
fn seeded_atomics_defects_detected_at_exact_lines_and_rules() {
    let src = fixture("atomics_bad.rs");
    let expected = bad_rules(&src);
    assert_eq!(expected.len(), 6, "fixture should seed 6 defects");

    let s = scan_file("crates/core/src/atomics_bad.rs", &src);
    let mut report = LintReport::default();
    atomics_rules(&s, &Allowlist::default(), &mut report);
    let got: BTreeMap<usize, String> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
}

#[test]
fn atomics_clean_corpus_is_silent() {
    let s = scan("atomics_clean.rs", "crates/core/src/atomics_clean.rs");
    let mut report = LintReport::default();
    atomics_rules(&s, &Allowlist::default(), &mut report);
    assert!(
        report.violations.is_empty(),
        "clean atomics corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn arena_clean_corpus_is_silent_across_all_passes() {
    // Scanned as core code, so the full determinism family applies: the
    // real arena's idioms (let-else panics instead of `.expect`, the
    // `?` early-return pop, slab recycling) must survive every pass.
    let s = scan("arena_clean.rs", "crates/core/src/arena_clean.rs");
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    determinism_rules(&s, &allow, &mut report);
    panic_rules(&s, &allow, &mut report);
    units_rules(&s, &allow, &mut report);
    atomics_rules(&s, &allow, &mut report);
    assert!(
        report.violations.is_empty(),
        "clean arena corpus flagged: {:#?}",
        report.violations
    );

    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    assert!(locks.findings.is_empty(), "{:?}", locks.findings);
    assert!(orders.inversions().is_empty());
}

#[test]
fn seeded_arena_defects_detected_at_exact_lines_and_rules() {
    let src = fixture("arena_bad.rs");
    let expected = bad_rules(&src);
    assert_eq!(expected.len(), 5, "fixture should seed 5 defects");

    let s = scan_file("crates/core/src/arena_bad.rs", &src);
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    determinism_rules(&s, &allow, &mut report);
    panic_rules(&s, &allow, &mut report);
    let got: BTreeMap<usize, String> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
}

#[test]
fn arena_module_is_in_lock_scope_and_seeded_blocking_is_detected() {
    // The scope extension itself: the shipping arena file is covered,
    // and its siblings are not swept in by prefix accident.
    assert!(in_scope("crates/core/src/arena.rs"));
    assert!(!in_scope("crates/core/src/lib.rs"));

    // A seeded slab-under-mutex fixture scanned at the covered path:
    // both blocking-while-guard-held defects must be flagged there.
    let src = fixture("arena_lock_bad.rs");
    let expected = bad_lines(&src);
    assert_eq!(expected.len(), 2, "fixture should seed 2 defects");

    let s = scan_file("crates/core/src/arena.rs", &src);
    let mut orders = OrderGraph::default();
    let locks = analyze_file(&s.rel_path, &s.lexed, &s.in_test, &mut orders);
    let got: BTreeSet<usize> = locks.findings.iter().map(|(l, _, _)| l + 1).collect();
    assert_eq!(got, expected, "findings: {:#?}", locks.findings);
    assert!(locks
        .findings
        .iter()
        .all(|(_, rule, _)| *rule == "lock/blocking-call"));
}

#[test]
fn taint_workspace_flags_direct_and_transitive_edges() {
    let (root, scans) = scan_fixture_tree("taint_bad");
    let graph = build_graph(&root, &scans);

    // Expected findings: the `// BAD:` lines across the two crates.
    let mut expected: BTreeSet<(String, usize)> = BTreeSet::new();
    for s in &scans {
        for line in bad_lines(&std::fs::read_to_string(root.join(&s.rel_path)).unwrap()) {
            expected.insert((s.rel_path.clone(), line));
        }
    }
    assert_eq!(expected.len(), 3, "fixture should seed 3 tainted edges");

    let mut report = LintReport::default();
    taint_rules(&graph, &scans, &[], &Allowlist::default(), &mut report);
    let got: BTreeSet<(String, usize)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line))
        .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);
    assert!(
        report.violations.iter().all(|v| v.rule == "taint/wall-clock"),
        "{:#?}",
        report.violations
    );
    // The transitive edge's message must name the chain through the
    // helper, proving reachability (not token matching) produced it.
    let transitive = report
        .violations
        .iter()
        .find(|v| v.path.ends_with("engine.rs") && v.message.contains("elapsed_ms"))
        .expect("transitive finding missing");
    assert!(
        transitive.message.contains("stamp_ns"),
        "chain witness missing: {}",
        transitive.message
    );
}

#[test]
fn effects_workspace_flags_hot_root_with_cross_crate_witness_chains() {
    let (root, scans) = scan_fixture_tree("effects_bad");
    let graph = build_graph(&root, &scans);

    // The `// BAD: <rule>` markers sit on the *witness* lines in the
    // helper crate; the violations themselves must land on the hot
    // root's declaration line over in `app`.
    let helpers_src =
        std::fs::read_to_string(root.join("crates/helpers/src/lib.rs")).unwrap();
    let witness_line: BTreeMap<String, usize> = bad_rules(&helpers_src)
        .into_iter()
        .map(|(line, rule)| (rule, line))
        .collect();
    assert_eq!(witness_line.len(), 3, "fixture should seed 3 effects");

    let app_src = std::fs::read_to_string(root.join("crates/app/src/sim.rs")).unwrap();
    let root_line = app_src
        .lines()
        .position(|l| l.contains("pub fn step"))
        .expect("hot root missing from fixture")
        + 1;

    let mut report = LintReport::default();
    effect_rules(
        &graph,
        &scans,
        "app::sim::Loop::step | alloc,block,panic\n",
        &Allowlist::default(),
        &mut report,
    );

    // Exactly the three hot-path rules, all at the root's declaration.
    let got: BTreeSet<(String, String, usize)> = report
        .violations
        .iter()
        .map(|v| (v.rule.to_string(), v.path.clone(), v.line))
        .collect();
    let expected: BTreeSet<(String, String, usize)> =
        ["effect/hot-alloc", "effect/hot-block", "effect/hot-panic"]
            .into_iter()
            .map(|rule| (rule.to_string(), "crates/app/src/sim.rs".to_string(), root_line))
            .collect();
    assert_eq!(got, expected, "violations: {:#?}", report.violations);

    // Each message must carry the full two-hop, cross-crate chain and
    // cite the marked witness line in the helper crate.
    for (rule, via, sink) in [
        ("effect/hot-alloc", "helpers::record", "helpers::push_sample"),
        ("effect/hot-panic", "helpers::lookup", "helpers::pick"),
        ("effect/hot-block", "helpers::drain", "helpers::settle"),
    ] {
        let v = report
            .violations
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"));
        let chain = format!("app::sim::Loop::step -> {via} -> {sink}");
        assert!(v.message.contains(&chain), "{rule}: {}", v.message);
        let loc = format!("crates/helpers/src/lib.rs:{}", witness_line[rule]);
        assert!(v.message.contains(&loc), "{rule}: {}", v.message);
    }
}

#[test]
fn effects_flag_turbofish_collect_and_growth_methods() {
    let (root, scans) = scan_fixture_tree("effects_bad");
    let graph = build_graph(&root, &scans);
    let src = std::fs::read_to_string(root.join("crates/helpers/src/grow.rs")).unwrap();
    let marked = bad_lines(&src);
    assert_eq!(marked.len(), 5, "fixture should seed 5 allocation forms");
    for (name, line) in ["gather", "append", "append_slice", "fit", "presize"]
        .into_iter()
        .zip(marked)
    {
        let mut report = LintReport::default();
        effect_rules(
            &graph,
            &scans,
            &format!("helpers::grow::{name} | alloc,block,panic\n"),
            &Allowlist::default(),
            &mut report,
        );
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            ["effect/hot-alloc"],
            "{name}: {:#?}",
            report.violations
        );
        let loc = format!("crates/helpers/src/grow.rs:{line}");
        let message = &report.violations[0].message;
        assert!(message.contains(&loc), "{name}: {message}");
    }
}

#[test]
fn effects_clean_corpus_is_silent_even_as_hot_roots() {
    // Scanned at a real-tree path so `crates/core/Cargo.toml` supplies
    // the crate prefix, exactly as in production runs.
    let s = scan("effects_clean.rs", "crates/core/src/effects_clean.rs");
    let scans = vec![s];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let graph = build_graph(&root, &scans);

    // Every function in the fixture is a hot root forbidding all three
    // effects: the arena/swap idioms must produce zero findings.
    let manifest = "\
        odr_core::effects_clean::Slab::push | alloc,block,panic\n\
        odr_core::effects_clean::Slab::pop | alloc,block,panic\n\
        odr_core::effects_clean::Slab::first_word | alloc,block,panic\n\
        odr_core::effects_clean::Slab::reset | alloc,block,panic\n\
        odr_core::effects_clean::Cell::publish | alloc,block,panic\n\
        odr_core::effects_clean::Cell::try_pop | alloc,block,panic\n";
    let mut report = LintReport::default();
    effect_rules(&graph, &scans, manifest, &Allowlist::default(), &mut report);
    assert!(
        report.violations.is_empty(),
        "clean effects corpus flagged: {:#?}",
        report.violations
    );
}

#[test]
fn callgraph_tree_resolves_expected_edges_deterministically() {
    let (root, scans) = scan_fixture_tree("callgraph_tree");
    let graph = build_graph(&root, &scans);

    let production: BTreeSet<(String, String)> = graph
        .edges
        .iter()
        .filter(|e| !e.in_test)
        .map(|e| (e.caller.clone(), e.callee.clone()))
        .collect();
    let expected: BTreeSet<(String, String)> = [
        ("alpha::Gauge::reset", "alpha::zero"),
        ("beta::driver::drive", "alpha::Gauge::new"),
        ("beta::driver::drive", "alpha::Gauge::read"),
        ("beta::driver::drive", "alpha::Gauge::reset"),
        ("beta::driver::drive", "alpha::zero"),
        ("beta::driver::sample", "alpha::Gauge::read"),
    ]
    .into_iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect();
    assert_eq!(production, expected, "edges: {:#?}", graph.edges);

    // The test-mod call is in the graph, marked, and excluded from the
    // rendered snapshot.
    assert!(
        graph
            .edges
            .iter()
            .any(|e| e.in_test && e.callee == "beta::driver::drive"),
        "test edge missing: {:#?}",
        graph.edges
    );
    let rendered = graph.render();
    assert!(!rendered.contains("tests::"), "{rendered}");

    // Byte-determinism: a second scan+build renders identically.
    let (root2, scans2) = scan_fixture_tree("callgraph_tree");
    let graph2 = build_graph(&root2, &scans2);
    assert_eq!(rendered, graph2.render());
}
