//! `odr-check` CLI: runs the repo lint passes (token-level rules, lock
//! discipline, atomics discipline, determinism taint, effect rules), the
//! API-surface, call-graph and effect-surface snapshot checks, and the
//! swap-protocol model checker.
//!
//! Every invocation loads the workspace **once** — each source file is
//! lexed and item-parsed a single time and the call graph is built from
//! those shared scans — and hands that view to whichever passes run.
//! Pass timings (wall µs), the file count and per-pass finding counts
//! are written to `BENCH_check.json` at the repo root (gitignored).
//!
//! Exit status is uniform across every subcommand and pass:
//! `0` clean, `1` findings (lint violations, API diffs, model failures),
//! `2` usage or I/O error. All error paths flow through
//! [`odr_core::OdrResult`]; there are no scattered `process::exit` calls.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use odr_bench::emit::{peak_rss_bytes, BenchJson};
use odr_check::amodel;
use odr_check::api;
use odr_check::effects;
use odr_check::graph;
use odr_check::lint::{load_workspace, run_lints_on, Allowlist, Workspace};
use odr_core::{OdrError, OdrResult};

const USAGE: &str = "\
odr-check: ODR repo lint pass + API snapshot + swap-protocol model checker

USAGE: cargo run -p odr-check [--] [SUBCOMMAND] [OPTIONS]

SUBCOMMANDS:
  (none)                 run the lint passes and the model checker
  api                    print the workspace's public API surface
  api --check            compare the surface against api-surface.txt;
                         exit 1 on any diff (writes api-surface.txt.new)
                         [UPDATE_GOLDEN=1 odr-check api] rewrites the
                         committed snapshot instead
  callgraph              print the intra-workspace call graph
  callgraph --check      compare the graph against callgraph.txt;
                         exit 1 on any diff (writes callgraph.txt.new)
                         [UPDATE_GOLDEN=1 odr-check callgraph] rewrites
                         the committed snapshot instead
  effects                print the per-function effect surface (which
                         production functions can allocate, block or
                         panic, directly or transitively)
  effects --check        compare against effect-surface.txt; exit 1 on
                         drift (writes effect-surface.txt.new)
                         [UPDATE_GOLDEN=1 odr-check effects] rewrites
                         the committed snapshot instead

OPTIONS:
  --lint-only            run only the source lints
  --model-only           run only the concurrency model checker
  --deny-warnings        treat warnings (stale allow entries, malformed
                         allowlist lines) as failures
  --root PATH            repo root to scan (default: auto-detected)
  --allowlist PATH       allowlist file (default: <root>/odr-check.allow)
  --seed N               seed for the random exploration pass (default 1)
  --random N             random executions per scenario on top of the
                         exhaustive pass (default 2000)
  --max-dfs N            execution budget per scenario for exhaustive
                         DFS (default 2000000)
  --min-interleavings N  fail unless the exhaustive pass explored at
                         least N interleavings in total (default 10000)
  --verbose              per-scenario statistics
  --help                 this text
";

struct Options {
    help: bool,
    api: bool,
    api_check: bool,
    callgraph: bool,
    callgraph_check: bool,
    effects: bool,
    effects_check: bool,
    lint: bool,
    model: bool,
    deny_warnings: bool,
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    seed: u64,
    random: u64,
    max_dfs: u64,
    min_interleavings: u64,
    verbose: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            help: false,
            api: false,
            api_check: false,
            callgraph: false,
            callgraph_check: false,
            effects: false,
            effects_check: false,
            lint: true,
            model: true,
            deny_warnings: false,
            root: None,
            allowlist: None,
            seed: 1,
            random: 2000,
            max_dfs: 2_000_000,
            min_interleavings: 10_000,
            verbose: false,
        }
    }
}

fn parse_args() -> OdrResult<Options> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let mut first = true;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| OdrError::arg(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "api" if first => opts.api = true,
            "callgraph" if first => opts.callgraph = true,
            "effects" if first => opts.effects = true,
            "--check" if opts.api => opts.api_check = true,
            "--check" if opts.callgraph => opts.callgraph_check = true,
            "--check" if opts.effects => opts.effects_check = true,
            "--lint-only" => opts.model = false,
            "--model-only" => opts.lint = false,
            "--deny-warnings" => opts.deny_warnings = true,
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--allowlist" => opts.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| OdrError::arg("--seed wants an integer"))?;
            }
            "--random" => {
                opts.random = value("--random")?
                    .parse()
                    .map_err(|_| OdrError::arg("--random wants an integer"))?;
            }
            "--max-dfs" => {
                opts.max_dfs = value("--max-dfs")?
                    .parse()
                    .map_err(|_| OdrError::arg("--max-dfs wants an integer"))?;
            }
            "--min-interleavings" => {
                opts.min_interleavings = value("--min-interleavings")?
                    .parse()
                    .map_err(|_| OdrError::arg("--min-interleavings wants an integer"))?;
            }
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(OdrError::arg(format!("unknown option '{other}'"))),
        }
        first = false;
    }
    if !opts.lint && !opts.model {
        return Err(OdrError::arg(
            "--lint-only and --model-only are mutually exclusive",
        ));
    }
    Ok(opts)
}

/// Finds the repo root: an ancestor of the current directory containing
/// both `Cargo.toml` and `crates/`.
fn detect_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_root(opts: &Options) -> OdrResult<PathBuf> {
    match &opts.root {
        Some(r) => Ok(r.clone()),
        None => detect_root()
            .ok_or_else(|| OdrError::invalid_config("root", "cannot find repo root (use --root)")),
    }
}

/// `UPDATE_GOLDEN=1` selects snapshot regeneration across subcommands.
fn update_golden() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Wall time since `start` in whole microseconds.
fn micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The `api` subcommand over the shared workspace. Returns
/// `(clean, findings)`; merely printing or updating is always clean.
fn run_api_pass(opts: &Options, root: &Path, ws: &Workspace) -> OdrResult<(bool, u64)> {
    let current = api::collect_api_from(root, &ws.scans);
    if update_golden() {
        api::write_surface(root, &current)?;
        println!(
            "api: wrote {} ({} items)",
            api::SNAPSHOT_FILE,
            current.lines().count()
        );
        return Ok((true, 0));
    }
    if opts.api_check {
        let diff = api::check_surface(root, &current)?;
        if diff.is_empty() {
            println!("api: surface matches {}", api::SNAPSHOT_FILE);
            return Ok((true, 0));
        }
        for line in &diff.added {
            println!("error: api: not in snapshot: {line}");
        }
        for line in &diff.removed {
            println!("error: api: missing from tree: {line}");
        }
        println!(
            "api: {} added, {} removed vs {}; fresh surface written to {}.\n\
             If the change is intentional, regenerate with: UPDATE_GOLDEN=1 odr-check api",
            diff.added.len(),
            diff.removed.len(),
            api::SNAPSHOT_FILE,
            api::SCRATCH_FILE
        );
        return Ok((false, (diff.added.len() + diff.removed.len()) as u64));
    }
    print!("{current}");
    Ok((true, 0))
}

/// The `callgraph` subcommand. Mirrors [`run_api_pass`]: print by
/// default, `--check` against the committed snapshot, `UPDATE_GOLDEN=1`
/// regenerates it. The graph comes pre-built from the shared workspace.
fn run_callgraph_pass(opts: &Options, root: &Path, ws: &Workspace) -> OdrResult<(bool, u64)> {
    let g = &ws.graph;
    if update_golden() {
        let text = graph::update_snapshot(root, g)?;
        println!(
            "callgraph: wrote {} ({} edges, {} unresolved call sites)",
            graph::SNAPSHOT_FILE,
            text.lines().count(),
            g.unresolved
        );
        return Ok((true, 0));
    }
    if opts.callgraph_check {
        let diff = graph::check_against_snapshot(root, g)?;
        if diff.is_empty() {
            println!("callgraph: graph matches {}", graph::SNAPSHOT_FILE);
            return Ok((true, 0));
        }
        for line in &diff.added {
            println!("error: callgraph: not in snapshot: {line}");
        }
        for line in &diff.removed {
            println!("error: callgraph: missing from tree: {line}");
        }
        println!(
            "callgraph: {} added, {} removed vs {}; fresh graph written to {}.\n\
             If the change is intentional, regenerate with: UPDATE_GOLDEN=1 odr-check callgraph",
            diff.added.len(),
            diff.removed.len(),
            graph::SNAPSHOT_FILE,
            graph::SCRATCH_FILE
        );
        return Ok((false, (diff.added.len() + diff.removed.len()) as u64));
    }
    print!("{}", g.render());
    Ok((true, 0))
}

/// The `effects` subcommand. Same shape as [`run_api_pass`]: print the
/// per-function effect surface, `--check` it against the committed
/// snapshot, or regenerate with `UPDATE_GOLDEN=1`.
fn run_effects_pass(opts: &Options, root: &Path, ws: &Workspace) -> OdrResult<(bool, u64)> {
    let surface = effects::render_surface(&ws.graph, &ws.scans);
    if update_golden() {
        effects::update_snapshot(root, &surface)?;
        println!(
            "effects: wrote {} ({} functions with effects)",
            effects::SNAPSHOT_FILE,
            surface.lines().count()
        );
        return Ok((true, 0));
    }
    if opts.effects_check {
        let diff = effects::check_against_snapshot(root, &surface)?;
        if diff.is_empty() {
            println!("effects: surface matches {}", effects::SNAPSHOT_FILE);
            return Ok((true, 0));
        }
        for line in &diff.added {
            println!("error: effects: not in snapshot: {line}");
        }
        for line in &diff.removed {
            println!("error: effects: missing from tree: {line}");
        }
        println!(
            "effects: {} added, {} removed vs {}; fresh surface written to {}.\n\
             If the change is intentional, regenerate with: UPDATE_GOLDEN=1 odr-check effects",
            diff.added.len(),
            diff.removed.len(),
            effects::SNAPSHOT_FILE,
            effects::SCRATCH_FILE
        );
        return Ok((false, (diff.added.len() + diff.removed.len()) as u64));
    }
    print!("{surface}");
    Ok((true, 0))
}

fn run_lint_pass(opts: &Options, root: &Path, ws: &Workspace) -> (bool, u64) {
    let allow_path = opts
        .allowlist
        .clone()
        .unwrap_or_else(|| root.join("odr-check.allow"));
    let allow = Allowlist::load(&allow_path);
    let report = run_lints_on(ws, root, &allow);

    for v in &report.violations {
        println!("error: {v}");
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
    println!(
        "lint: {} files, {} violation(s), {} suppressed, {} warning(s)",
        report.files,
        report.violations.len(),
        report.suppressed,
        report.warnings.len()
    );
    let failed =
        !report.violations.is_empty() || (opts.deny_warnings && !report.warnings.is_empty());
    (!failed, report.violations.len() as u64)
}

fn run_model_pass(opts: &Options) -> (bool, u64) {
    let mut ok = true;
    let mut failures: u64 = 0;
    let mut total: u64 = 0;
    let suite = amodel::atomic_suite();
    for scenario in &suite {
        let dfs = amodel::explore_dfs(scenario, opts.max_dfs);
        total += dfs.executions;
        if opts.verbose {
            println!(
                "model: {:<28} dfs {:>8} interleavings, depth {:>3}, {}",
                scenario.name,
                dfs.executions,
                dfs.max_depth,
                if dfs.complete { "exhaustive" } else { "budget-capped" }
            );
        }
        if let Some(f) = &dfs.failure {
            ok = false;
            failures += 1;
            println!(
                "error: model: {}: {}\n  replay trace: {:?}",
                scenario.name, f.message, f.trace
            );
            continue;
        }
        if opts.random > 0 {
            let rnd = amodel::explore_random(scenario, opts.random, opts.seed);
            total += rnd.executions;
            if let Some(f) = &rnd.failure {
                ok = false;
                failures += 1;
                println!(
                    "error: model: {} (random, seed {}): {}\n  replay trace: {:?}",
                    scenario.name, opts.seed, f.message, f.trace
                );
            }
        }
    }
    if total < opts.min_interleavings {
        ok = false;
        failures += 1;
        println!(
            "error: model: explored only {total} interleavings (< {} required)",
            opts.min_interleavings
        );
    }
    println!(
        "model: {} scenarios, {total} interleavings, seed {}: {}",
        suite.len(),
        opts.seed,
        if ok { "all invariants hold" } else { "FAILURES" }
    );
    (ok, failures)
}

/// Runs the selected passes; `Ok(true)` means everything is clean.
fn run(opts: &Options) -> OdrResult<bool> {
    if opts.help {
        print!("{USAGE}");
        return Ok(true);
    }
    let root = resolve_root(opts)?;
    let mut bench = BenchJson::default();

    // One workspace load per invocation: every pass below shares these
    // token/item views and this call graph.
    let t_load = Instant::now();
    let ws = load_workspace(&root);
    bench
        .int("files", ws.scans.len() as u64)
        .int("load_us", micros(t_load));

    let ok = if opts.api {
        let t = Instant::now();
        let (ok, findings) = run_api_pass(opts, &root, &ws)?;
        bench.int("api_us", micros(t)).int("api_findings", findings);
        ok
    } else if opts.callgraph {
        let t = Instant::now();
        let (ok, findings) = run_callgraph_pass(opts, &root, &ws)?;
        bench
            .int("callgraph_us", micros(t))
            .int("callgraph_findings", findings);
        ok
    } else if opts.effects {
        let t = Instant::now();
        let (ok, findings) = run_effects_pass(opts, &root, &ws)?;
        bench
            .int("effects_us", micros(t))
            .int("effects_findings", findings);
        ok
    } else {
        let mut ok = true;
        if opts.lint {
            let t = Instant::now();
            let (lint_ok, findings) = run_lint_pass(opts, &root, &ws);
            bench
                .int("lint_us", micros(t))
                .int("lint_findings", findings);
            ok &= lint_ok;
        }
        if opts.model {
            let t = Instant::now();
            let (model_ok, failures) = run_model_pass(opts);
            bench
                .int("model_us", micros(t))
                .int("model_findings", failures);
            ok &= model_ok;
        }
        if ok {
            println!("odr-check: OK");
        }
        ok
    };

    if let Some(rss) = peak_rss_bytes() {
        bench.int("peak_rss_bytes", rss);
    }
    let bench_path = root.join("BENCH_check.json");
    if let Err(e) = bench.write(&bench_path) {
        eprintln!(
            "odr-check: warning: cannot write {}: {e}",
            bench_path.display()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("odr-check: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("odr-check: {e}");
            ExitCode::from(2)
        }
    }
}
