//! Benchmark harness reproducing every table and figure of the ODR paper's
//! evaluation (Section 6), plus the design-choice ablations DESIGN.md calls
//! out.
//!
//! Each `figNN_*` / `tabNN_*` function renders one experiment's rows as
//! text, exactly the series the paper plots. The `repro` binary runs them
//! all. Timing is not done here: `perfbench/` measures the stack per layer
//! and end to end.

pub mod ablation;
pub mod emit;
pub mod micro;
pub mod study;
pub mod suite_experiments;
pub mod sweeps;

use odr_simtime::Duration;

/// Harness settings shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Simulated run length per configuration.
    pub duration: Duration,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            duration: Duration::from_secs(120),
            seed: 0x0D12_5EED,
        }
    }
}

impl Settings {
    /// Short-run settings for `repro --quick` and the smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Settings {
            duration: Duration::from_secs(8),
            seed: 0x0D12_5EED,
        }
    }
}

/// Right-pads or truncates `s` to `width` columns.
#[must_use]
pub fn pad(s: &str, width: usize) -> String {
    let mut out = String::with_capacity(width);
    for (i, c) in s.chars().enumerate() {
        if i >= width {
            break;
        }
        out.push(c);
    }
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}
