//! `odr-check`: in-repo correctness tooling for the ODR simulator.
//!
//! One entry point (`cargo run -p odr-check`), several layers:
//!
//! * [`lex`] / [`items`] — a std-only Rust lexer (strings, raw strings,
//!   char literals, nested block comments) and a lightweight item
//!   extractor; every analysis pass is built on these, so no rule ever
//!   fires inside a string literal or comment;
//! * [`lint`] — the rule passes: determinism, panic hygiene, docs,
//!   feature-gate consistency and the time-unit suffix audit (see
//!   `DESIGN.md` §7 and §10 for the catalogue, `odr-check.allow` for the
//!   suppression format);
//! * [`locks`] — the lock-discipline pass: guard-scope tracking over the
//!   blocking runtime modules, flagging blocking calls made while a lock
//!   guard is live and inconsistent pairwise lock acquisition order;
//! * [`graph`] — the intra-workspace call graph: per-function call
//!   sites resolved name-resolution-lite (use maps, impl receivers,
//!   module paths) into `caller -> callee` edges, serialized
//!   deterministically into the committed `callgraph.txt` snapshot;
//! * [`atomics`] — the atomics-discipline pass: publication-store
//!   ordering, acquire/release pairing, `// SAFETY:` coverage and
//!   `static mut` bans;
//! * [`taint`] — the determinism taint pass: call-graph-transitive
//!   reachability from pure-sim functions to wall-clock / OS-RNG /
//!   thread-ID / env sources;
//! * [`effects`] — the whole-program effect analysis: per-function
//!   panic/alloc/blocking classification propagated over the call
//!   graph, enforced against the `hotpaths.txt` hot-root manifest and
//!   serialized into the committed `effect-surface.txt` snapshot;
//! * [`api`] — the API-surface snapshot: every `pub` item in the
//!   workspace rendered into a sorted, byte-deterministic
//!   `api-surface.txt`, with `odr-check api --check` failing on
//!   undeclared diffs;
//! * [`amodel`] — a deterministic, loom-style model checker over a
//!   virtual memory of per-location message histories with
//!   acquire/release view propagation. It explores bounded thread
//!   interleavings of the real [`odr_core::atomic_swap`] step machines
//!   (the one engine behind every `SyncQueue`) and asserts the paper's
//!   multi-buffer semantics: no deadlock or lost wakeup, no reordering
//!   or torn pop, conservation, bounded occupancy. Under-ordered
//!   publications (e.g. a `Relaxed` seq store) surface as torn pops
//!   with replayable traces.

pub mod amodel;
pub mod api;
pub mod atomics;
pub mod effects;
pub mod graph;
pub mod items;
pub mod lex;
pub mod lint;
pub mod locks;
pub mod taint;
