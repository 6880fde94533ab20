//! Whole-program effect analysis: panic-reachability, allocation and
//! blocking-call propagation over the workspace call graph.
//!
//! Every workspace function body is classified token-level into its
//! **direct effects**:
//!
//! * [`Effect::Panics`] — `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!` family, `.unwrap()`/`.expect()`,
//!   non-literal indexing (`slots[i]`), and division/modulo by a
//!   variable. `debug_assert!` is exempt (compiled out in release), as
//!   is indexing by an integer literal or the full range (`buf[0]`,
//!   `buf[..]`).
//! * [`Effect::Allocates`] — `Box::`/`Vec::`/`String::` constructor
//!   paths, `vec!`/`format!`, the owning method calls `.push()`,
//!   `.collect()` (also as `.collect::<T>()`), `.to_string()`,
//!   `.to_owned()`, `.to_vec()`, `.clone()`, and the growth methods
//!   `.extend()`, `.extend_from_slice()`, `.resize()`, `.reserve()`.
//! * [`Effect::Blocks`] — the lock pass's blocking table
//!   ([`crate::locks`]: `::sleep`, `.join()`, channel `.send`/`.recv`)
//!   extended with lock acquisition (`.lock()`) and condvar waits
//!   (`.wait*()`).
//!
//! Method-form table hits whose call site resolved to a workspace
//! function in the call graph are **not** counted as direct effects:
//! `queue.push(ev)` hitting `SlabEventQueue::push` contributes whatever
//! that body's own effects are (via propagation), not a textual
//! `Vec::push` allocation. The tables only see calls the graph could
//! not attribute — which is exactly the std/external surface.
//!
//! Direct effects then propagate caller-ward over the production (non
//! `#[cfg(test)]`) call graph to a fixpoint, with one barrier: a
//! `#[cold]` callee keeps its `Allocates`/`Blocks` effects to itself.
//! Marking a function `#[cold]` is the sanctioned way to carve an
//! out-of-line slow path (arena growth, trace flushing) out of a hot
//! function's effect set. `Panics` crosses the barrier regardless —
//! a cold panic still unwinds the hot caller.
//!
//! Enforcement reads the committed `hotpaths.txt` manifest (one
//! `fn-id | forbidden,effects` line per hot root) and flags any
//! forbidden effect reachable from a root (`effect/hot-alloc`,
//! `effect/hot-block`, `effect/hot-panic`) with the full witness chain
//! down to the offending token. Independently, any transitively
//! panicking `pub` function in `odr-core`/`odr-obs` that neither
//! returns `OdrResult` nor documents a `# Panics` section is flagged
//! (`effect/pub-panic`).
//!
//! Like the taint pass, the analysis is an under-approximation of the
//! real program (the graph misses function pointers and ambiguous
//! methods) but every finding is a real reachable effect. The rendered
//! per-function surface is committed as `effect-surface.txt` and
//! drift-checked like the api/callgraph snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use odr_core::{OdrError, OdrResult};

use crate::graph::{diff_graph, CallGraph, GraphDiff};
use crate::lex::{TokKind, Token};
use crate::lint::{push_violation, scan_file, Allowlist, FileScan, LintReport};

/// File name of the committed effect-surface snapshot, repo-root
/// relative.
pub const SNAPSHOT_FILE: &str = "effect-surface.txt";

/// Scratch copy written when `effects --check` finds a diff.
pub const SCRATCH_FILE: &str = "effect-surface.txt.new";

/// The committed hot-path root manifest, repo-root relative.
pub const MANIFEST_FILE: &str = "hotpaths.txt";

/// One effect kind. Ordering is the rendering order (`alloc`, `block`,
/// `panic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// May allocate on the heap.
    Allocates,
    /// May block the calling thread.
    Blocks,
    /// May panic.
    Panics,
}

impl Effect {
    /// Every effect kind, in rendering order.
    pub const ALL: [Effect; 3] = [Effect::Allocates, Effect::Blocks, Effect::Panics];

    /// The manifest / surface label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Effect::Allocates => "alloc",
            Effect::Blocks => "block",
            Effect::Panics => "panic",
        }
    }

    /// Parses a manifest label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Effect> {
        Effect::ALL.into_iter().find(|e| e.label() == s)
    }

    /// The rule id when this effect is reachable from a hot root.
    #[must_use]
    pub fn hot_rule(self) -> &'static str {
        match self {
            Effect::Allocates => "effect/hot-alloc",
            Effect::Blocks => "effect/hot-block",
            Effect::Panics => "effect/hot-panic",
        }
    }

    /// Human description of the effect.
    fn describe(self) -> &'static str {
        match self {
            Effect::Allocates => "a heap allocation",
            Effect::Blocks => "a blocking call",
            Effect::Panics => "a panic path",
        }
    }
}

/// How a function acquired one effect: directly (the witness token) or
/// via a callee (the witness edge for chain reconstruction).
#[derive(Debug, Clone)]
enum Via {
    /// The body itself has the effect: 1-based line + description.
    Direct { line: usize, what: String },
    /// Inherited from this callee.
    Call(String),
}

/// The per-function effect table: fn id → effect → how it got there.
type EffectMap = BTreeMap<String, BTreeMap<Effect, Via>>;

/// Idents that legally precede `[` without the bracket being an index
/// expression (`return [..]`, `break [..]`, slice patterns).
const NON_INDEX_PREV: &[&str] = &[
    "return", "break", "let", "else", "in", "match", "if", "while", "loop", "move", "ref", "mut",
    "const", "static", "type", "where", "dyn", "impl", "as",
];

/// `true` when token `i` opens an index expression that can panic:
/// `expr[idx]` with a non-literal, non-full-range index.
fn panicking_index(toks: &[Token], i: usize, lo: usize) -> bool {
    if !toks[i].is_punct('[') || i == lo || i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    let indexable = match prev.kind {
        TokKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
        _ => prev.is_punct(')') || prev.is_punct(']'),
    };
    if !indexable {
        return false;
    }
    // `buf[0]` — literal index, statically in-bounds by convention.
    let literal_index = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Int)
        && toks.get(i + 2).is_some_and(|t| t.is_punct(']'));
    // `buf[..]` — the full range cannot be out of bounds.
    let full_range = toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(']'));
    !(literal_index || full_range)
}

/// `true` when token `i` is a `%` or `/` dividing by a variable that
/// could be zero. Float division never panics (it yields inf/NaN), and
/// tokens carry no types, so the rule is deliberately asymmetric: `%`
/// with any value expression on the left counts (the workspace's `%`
/// sites are integer time arithmetic), while `/` counts only with an
/// integer-literal dividend (`100 / x`) — `1.0 / x` and `expr() / x`
/// are overwhelmingly float math here and stay exempt.
fn panicking_div(toks: &[Token], i: usize, lo: usize) -> bool {
    let t = &toks[i];
    if !(t.is_punct('/') || t.is_punct('%')) || i == lo || i == 0 {
        return false;
    }
    if !toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
        return false;
    }
    let prev = &toks[i - 1];
    if t.is_punct('/') {
        return prev.kind == TokKind::Int;
    }
    matches!(prev.kind, TokKind::Ident | TokKind::Int)
        || prev.is_punct(')')
        || prev.is_punct(']')
}

/// Scans one function body for direct effects, keeping the first
/// witness per effect kind. `resolved` holds `(line, method-name)` of
/// call sites the graph attributed to workspace functions — those are
/// skipped (their effects arrive through propagation instead).
fn direct_effects(
    scan: &FileScan,
    body: (usize, usize),
    resolved: &BTreeSet<(usize, String)>,
) -> BTreeMap<Effect, Via> {
    let toks = &scan.lexed.tokens;
    let (lo, hi) = (body.0.min(toks.len()), body.1.min(toks.len()));
    let mut out: BTreeMap<Effect, Via> = BTreeMap::new();
    let mut hit = |e: Effect, line: usize, what: String| {
        out.entry(e).or_insert(Via::Direct { line, what });
    };
    for i in lo..hi {
        let t = &toks[i];
        if panicking_index(toks, i, lo) {
            let name = &toks[i - 1].text;
            hit(Effect::Panics, t.line, format!("`{name}[..]` indexing"));
            continue;
        }
        if panicking_div(toks, i, lo) {
            hit(
                Effect::Panics,
                t.line,
                format!("`{}` by a variable", t.text),
            );
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let method = i > lo && toks[i - 1].is_punct('.');
        let path_next = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
        // `name(..)` or a turbofish `name::<..>(..)`.
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || (path_next && toks.get(i + 3).is_some_and(|n| n.is_punct('<')));
        let graph_resolved =
            |name: &str| resolved.contains(&(t.line, name.to_string()));
        // Blocking table shared with the lock pass, plus lock/condvar
        // acquisition; method forms defer to the graph when resolved.
        if let Some(what) = crate::locks::blocking_call(toks, i) {
            if !(method && graph_resolved(&t.text)) {
                hit(Effect::Blocks, t.line, what);
                continue;
            }
        }
        match t.text.as_str() {
            "lock" | "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while"
                if method && called && !graph_resolved(&t.text) =>
            {
                hit(Effect::Blocks, t.line, format!("`.{}(..)`", t.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if bang => {
                hit(Effect::Panics, t.line, format!("`{}!`", t.text));
            }
            "assert" | "assert_eq" | "assert_ne" if bang => {
                hit(Effect::Panics, t.line, format!("`{}!`", t.text));
            }
            "unwrap" | "expect" | "unwrap_err" | "expect_err" if method && called => {
                hit(Effect::Panics, t.line, format!("`.{}()`", t.text));
            }
            "vec" | "format" if bang => {
                hit(Effect::Allocates, t.line, format!("`{}!`", t.text));
            }
            "Box" | "Vec" | "String" if path_next => {
                hit(Effect::Allocates, t.line, format!("a `{}::` constructor", t.text));
            }
            "push" | "collect" | "to_string" | "to_owned" | "to_vec" | "clone" | "extend"
            | "extend_from_slice" | "resize" | "reserve"
                if method && called && !graph_resolved(&t.text) =>
            {
                hit(Effect::Allocates, t.line, format!("`.{}(..)`", t.text));
            }
            _ => {}
        }
    }
    out
}

/// Computes the effect table: direct classification of every non-test
/// body, then a fixpoint over the graph's non-test edges with the
/// `#[cold]` barrier.
fn propagate(graph: &CallGraph, scans: &[FileScan]) -> EffectMap {
    // Call sites the graph attributed, grouped by caller.
    let mut resolved: BTreeMap<&str, BTreeSet<(usize, String)>> = BTreeMap::new();
    for e in &graph.edges {
        let method = e.callee.rsplit("::").next().unwrap_or(&e.callee);
        resolved
            .entry(e.caller.as_str())
            .or_default()
            .insert((e.line, method.to_string()));
    }
    let empty = BTreeSet::new();
    let mut effects: EffectMap = BTreeMap::new();
    for node in graph.fns.values() {
        if node.cfg_test {
            continue;
        }
        let Some(body) = node.body else { continue };
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        let res = resolved.get(node.id.as_str()).unwrap_or(&empty);
        let direct = direct_effects(scan, body, res);
        if !direct.is_empty() {
            effects.insert(node.id.clone(), direct);
        }
    }
    // Fixpoint: caller inherits callee effects; `#[cold]` callees keep
    // alloc/block to themselves (panics always unwind the caller).
    loop {
        let mut changed = false;
        for e in &graph.edges {
            if e.in_test {
                continue;
            }
            let callee_cold = graph.fns.get(&e.callee).is_some_and(|n| n.cold);
            let callee_effects: Vec<Effect> = effects
                .get(&e.callee)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default();
            for eff in callee_effects {
                if callee_cold && eff != Effect::Panics {
                    continue;
                }
                let entry = effects.entry(e.caller.clone()).or_default();
                if !entry.contains_key(&eff) {
                    entry.insert(eff, Via::Call(e.callee.clone()));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    effects
}

/// Renders the witness chain from `id` down to the direct effect, e.g.
/// `a::f -> b::g (\`.unwrap()\` at crates/b/src/g.rs:12)`.
fn chain_of(effects: &EffectMap, graph: &CallGraph, effect: Effect, id: &str) -> String {
    let mut chain = String::new();
    let mut cur = id.to_string();
    for _ in 0..32 {
        chain.push_str(&cur);
        match effects.get(&cur).and_then(|m| m.get(&effect)) {
            Some(Via::Call(next)) => {
                chain.push_str(" -> ");
                cur = next.clone();
            }
            Some(Via::Direct { line, what }) => {
                let loc = graph
                    .fns
                    .get(&cur)
                    .map_or_else(|| "?".to_string(), |n| format!("{}:{line}", n.rel_path));
                chain.push_str(&format!(" ({what} at {loc})"));
                return chain;
            }
            None => return chain,
        }
    }
    chain.push('…');
    chain
}

/// One parsed hot-root declaration from the manifest.
#[derive(Debug)]
struct HotRoot {
    /// Fully qualified fn id (a call-graph node id).
    id: String,
    /// Effects forbidden anywhere in its reachable set.
    forbid: Vec<Effect>,
    /// 0-based manifest line, for reporting.
    line_idx: usize,
}

/// Parses the `fn-id | effect,effect` manifest format. `#` comments and
/// blank lines are skipped; malformed lines come back as problems.
fn parse_manifest(text: &str) -> (Vec<HotRoot>, Vec<(usize, String)>) {
    let mut roots = Vec::new();
    let mut problems = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((id, effects)) = line.split_once('|') else {
            problems.push((
                idx,
                "malformed hot-path entry (want `fn-id | effect,effect`)".to_string(),
            ));
            continue;
        };
        let mut forbid = Vec::new();
        let mut ok = true;
        for label in effects.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Effect::parse(label) {
                Some(e) if !forbid.contains(&e) => forbid.push(e),
                Some(_) => {}
                None => {
                    problems.push((idx, format!("unknown effect label '{label}'")));
                    ok = false;
                }
            }
        }
        if ok && forbid.is_empty() {
            problems.push((idx, "hot-path entry forbids no effects".to_string()));
            ok = false;
        }
        if ok {
            roots.push(HotRoot {
                id: id.trim().to_string(),
                forbid,
                line_idx: idx,
            });
        }
    }
    (roots, problems)
}

/// Which crate (dir under `crates/`, `""` otherwise) a path belongs to.
fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "",
    }
}

/// `true` when the signature's return type is (or wraps) `OdrResult`.
fn returns_odr_result(signature: &str) -> bool {
    signature
        .split_once("->")
        .is_some_and(|(_, ret)| ret.contains("OdrResult"))
}

/// `true` when the doc comment block directly above `line` (1-based)
/// contains a `# Panics` section.
fn docs_panics(scan: &FileScan, line: usize) -> bool {
    let mut idx = line.saturating_sub(2);
    loop {
        let Some(raw) = scan.raw_lines.get(idx) else {
            return false;
        };
        let t = raw.trim_start();
        if !(t.starts_with("///") || t.starts_with("#[") || t.starts_with("//")) {
            return false;
        }
        if t.starts_with("///") && t.contains("# Panics") {
            return true;
        }
        if idx == 0 {
            return false;
        }
        idx -= 1;
    }
}

/// Loads the hot-path manifest under `root`; a missing file is an
/// empty manifest (fixture trees without hot paths stay silent).
#[must_use]
pub fn load_manifest(root: &Path) -> String {
    fs::read_to_string(root.join(MANIFEST_FILE)).unwrap_or_default()
}

/// Runs the effect enforcement rules: hot-root forbidden effects from
/// the `hotpaths.txt` manifest (see [`load_manifest`]), and
/// panic-hygiene on the `pub` surface of `odr-core`/`odr-obs`. `scans`
/// must be the slice the graph was built from.
pub fn effect_rules(
    graph: &CallGraph,
    scans: &[FileScan],
    manifest_text: &str,
    allow: &Allowlist,
    report: &mut LintReport,
) {
    let mscan = scan_file(MANIFEST_FILE, manifest_text);
    let (roots, problems) = parse_manifest(manifest_text);
    for (line_idx, msg) in problems {
        push_violation(report, allow, &mscan, line_idx, "effect/manifest", msg);
    }
    let effects = propagate(graph, scans);
    for hot in &roots {
        let Some(node) = graph.fns.get(&hot.id) else {
            push_violation(
                report,
                allow,
                &mscan,
                hot.line_idx,
                "effect/manifest",
                format!(
                    "hot-path root `{}` is not a workspace function (stale manifest entry?)",
                    hot.id
                ),
            );
            continue;
        };
        let Some(effs) = effects.get(&hot.id) else {
            continue;
        };
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        for f in &hot.forbid {
            if effs.contains_key(f) {
                push_violation(
                    report,
                    allow,
                    scan,
                    node.line - 1,
                    f.hot_rule(),
                    format!(
                        "hot path reaches {}: {}",
                        f.describe(),
                        chain_of(&effects, graph, *f, &hot.id)
                    ),
                );
            }
        }
    }
    // Panic hygiene on the public surface of the foundational crates: a
    // `pub fn` that can panic must either return `OdrResult` or carry a
    // `# Panics` doc section.
    for node in graph.fns.values() {
        if !node.is_pub || node.cfg_test {
            continue;
        }
        let krate = crate_of(&node.rel_path);
        if krate != "core" && krate != "obs" {
            continue;
        }
        let Some(effs) = effects.get(&node.id) else {
            continue;
        };
        if !effs.contains_key(&Effect::Panics) || returns_odr_result(&node.signature) {
            continue;
        }
        let Some(scan) = scans.get(node.file_idx) else {
            continue;
        };
        if docs_panics(scan, node.line) {
            continue;
        }
        push_violation(
            report,
            allow,
            scan,
            node.line - 1,
            "effect/pub-panic",
            format!(
                "pub fn can panic but neither returns OdrResult nor documents `# Panics`: {}",
                chain_of(&effects, graph, Effect::Panics, &node.id)
            ),
        );
    }
}

/// Renders the committed effect surface: one `id | effects` line per
/// production function with a non-empty effect set, sorted; a `!`
/// suffix marks a direct (own-body) effect as opposed to an inherited
/// one.
#[must_use]
pub fn render_surface(graph: &CallGraph, scans: &[FileScan]) -> String {
    let effects = propagate(graph, scans);
    let mut text = String::new();
    for (id, effs) in &effects {
        if graph.fns.get(id).is_none_or(|n| n.cfg_test) {
            continue;
        }
        let rendered: Vec<String> = effs
            .iter()
            .map(|(e, via)| {
                let direct = matches!(via, Via::Direct { .. });
                format!("{}{}", e.label(), if direct { "!" } else { "" })
            })
            .collect();
        text.push_str(&format!("{id} | {}\n", rendered.join(",")));
    }
    text
}

/// Checks the rendered surface against the committed snapshot under
/// `root`; on mismatch the fresh rendering is written to
/// [`SCRATCH_FILE`].
pub fn check_against_snapshot(root: &Path, surface: &str) -> OdrResult<GraphDiff> {
    let snapshot = fs::read_to_string(root.join(SNAPSHOT_FILE)).unwrap_or_default();
    let diff = diff_graph(surface, &snapshot);
    if !diff.is_empty() {
        let scratch = root.join(SCRATCH_FILE);
        fs::write(&scratch, surface)
            .map_err(|e| OdrError::io(scratch.display().to_string(), e))?;
    }
    Ok(diff)
}

/// Rewrites the committed snapshot (the `UPDATE_GOLDEN=1` path).
pub fn update_snapshot(root: &Path, surface: &str) -> OdrResult<()> {
    let snap_path = root.join(SNAPSHOT_FILE);
    fs::write(&snap_path, surface).map_err(|e| OdrError::io(snap_path.display().to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::lint::scan_file;
    use std::path::Path;

    fn effects_of(files: &[(&str, &str)]) -> (EffectMap, CallGraph, Vec<FileScan>) {
        let scans: Vec<FileScan> = files.iter().map(|(p, s)| scan_file(p, s)).collect();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = build_graph(&root, &scans);
        let map = propagate(&graph, &scans);
        (map, graph, scans)
    }

    fn kinds(map: &EffectMap, id: &str) -> Vec<Effect> {
        map.get(id).map(|m| m.keys().copied().collect()).unwrap_or_default()
    }

    #[test]
    fn direct_panic_alloc_block_classified() {
        let (map, _, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub fn p(x: Option<u8>) -> u8 { x.unwrap() }\n\
             pub fn a() -> Vec<u8> { vec![1] }\n\
             pub fn b(m: &std::sync::Mutex<u8>) { let _g = m.lock(); }\n",
        )]);
        assert_eq!(kinds(&map, "odr_fleet::engine::p"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::a"), vec![Effect::Allocates]);
        assert_eq!(kinds(&map, "odr_fleet::engine::b"), vec![Effect::Blocks]);
    }

    #[test]
    fn effects_propagate_transitively_with_witness_chain() {
        let (map, graph, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub fn top() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() { panic!(\"boom\"); }\n",
        )]);
        assert_eq!(kinds(&map, "odr_fleet::engine::top"), vec![Effect::Panics]);
        let chain = chain_of(&map, &graph, Effect::Panics, "odr_fleet::engine::top");
        assert!(
            chain.contains("top -> odr_fleet::engine::mid -> odr_fleet::engine::leaf"),
            "{chain}"
        );
        assert!(chain.contains("`panic!` at crates/fleet/src/engine.rs:3"), "{chain}");
    }

    #[test]
    fn cold_barrier_stops_alloc_but_not_panic() {
        let (map, _, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub fn hot() { slow(); }\n\
             #[cold]\nfn slow() { let v = vec![1]; panic!(\"x\"); }\n",
        )]);
        let hot = kinds(&map, "odr_fleet::engine::hot");
        assert!(!hot.contains(&Effect::Allocates), "{hot:?}");
        assert!(hot.contains(&Effect::Panics), "{hot:?}");
    }

    #[test]
    fn graph_resolved_method_calls_do_not_hit_textual_tables() {
        // `q.push(..)` resolves to the workspace `Q::push`, whose body is
        // effect-free — so no `Vec::push` allocation is charged.
        let (map, _, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub struct Q { n: u32 }\n\
             impl Q { pub fn push(&mut self, x: u32) { self.n = x; } }\n\
             pub fn drive(q: &mut Q) { q.push(7); }\n",
        )]);
        assert_eq!(kinds(&map, "odr_fleet::engine::drive"), vec![]);
    }

    #[test]
    fn debug_assert_and_literal_index_are_exempt() {
        let (map, _, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub fn f(buf: &[u8; 4]) -> u8 { debug_assert!(buf.len() == 4); buf[0] }\n",
        )]);
        assert_eq!(kinds(&map, "odr_fleet::engine::f"), vec![]);
    }

    #[test]
    fn variable_index_and_division_panic() {
        let (map, _, _) = effects_of(&[(
            "crates/fleet/src/engine.rs",
            "pub fn i(buf: &[u8], k: usize) -> u8 { buf[k] }\n\
             pub fn m(a: u64, b: u64) -> u64 { a % b }\n\
             pub fn d(b: u64) -> u64 { 100 / b }\n\
             pub fn f(x: f64) -> f64 { 1.0 / x }\n",
        )]);
        assert_eq!(kinds(&map, "odr_fleet::engine::i"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::m"), vec![Effect::Panics]);
        assert_eq!(kinds(&map, "odr_fleet::engine::d"), vec![Effect::Panics]);
        // Float division cannot panic — a float-literal dividend is exempt.
        assert_eq!(kinds(&map, "odr_fleet::engine::f"), vec![]);
    }

    fn rules_on(files: &[(&str, &str)], manifest: &str) -> LintReport {
        let scans: Vec<FileScan> = files.iter().map(|(p, s)| scan_file(p, s)).collect();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = build_graph(&repo, &scans);
        let mut report = LintReport::default();
        effect_rules(&graph, &scans, manifest, &Allowlist::default(), &mut report);
        report
    }

    #[test]
    fn hot_root_violations_report_exact_rule_and_line() {
        let report = rules_on(
            &[(
                "crates/fleet/src/engine.rs",
                "pub fn step() { helper(); }\n\
                 fn helper() { let v: Vec<u8> = Vec::new(); }\n",
            )],
            "# roots\nodr_fleet::engine::step | alloc,block\n",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "effect/hot-alloc");
        assert_eq!(v.line, 1);
        assert!(v.message.contains("step -> odr_fleet::engine::helper"), "{}", v.message);
    }

    #[test]
    fn stale_manifest_root_is_flagged() {
        let report = rules_on(
            &[("crates/fleet/src/engine.rs", "pub fn f() {}\n")],
            "odr_fleet::engine::gone | panic\n",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "effect/manifest");
    }

    #[test]
    fn pub_panic_requires_result_or_doc() {
        let report = rules_on(
            &[(
                "crates/core/src/thing.rs",
                "pub fn bad(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 /// Fine.\n///\n/// # Panics\n/// When `x` is `None`.\n\
                 pub fn documented(x: Option<u8>) -> u8 { x.unwrap() }\n\
                 pub fn fallible(x: Option<u8>) -> OdrResult<u8> { Ok(x.unwrap()) }\n",
            )],
            "",
        );
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "effect/pub-panic");
        assert_eq!(v.line, 1);
    }

    #[test]
    fn surface_marks_direct_effects_with_bang() {
        let files = [(
            "crates/fleet/src/engine.rs",
            "pub fn top() { leaf(); }\n\
             fn leaf() { panic!(\"x\"); }\n",
        )];
        let scans: Vec<FileScan> = files.iter().map(|(p, s)| scan_file(p, s)).collect();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = build_graph(&repo, &scans);
        let surface = render_surface(&graph, &scans);
        assert!(surface.contains("odr_fleet::engine::leaf | panic!\n"), "{surface}");
        assert!(surface.contains("odr_fleet::engine::top | panic\n"), "{surface}");
    }

    #[test]
    fn manifest_parser_rejects_junk() {
        let (_, problems) = parse_manifest("a::b\nc::d | zap\ne::f |\n# ok\n\ng::h | panic\n");
        assert_eq!(problems.len(), 3, "{problems:?}");
        let (roots, _) = parse_manifest("g::h | panic , alloc\n");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].forbid, vec![Effect::Panics, Effect::Allocates]);
    }
}
