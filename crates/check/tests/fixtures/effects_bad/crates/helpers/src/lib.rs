//! Helper crate hiding one of each effect behind an extra private call,
//! so the findings on the hot root prove two-hop, cross-crate transitive
//! propagation with full witness chains. The BAD markers sit on the
//! *witness* lines the chains must cite; the violations themselves land
//! on the hot root over in `app`.

pub mod grow;

/// Records a sample; the allocation happens one call deeper.
pub fn record(v: u64) {
    let _ = push_sample(v);
}

fn push_sample(v: u64) -> Vec<u64> {
    vec![v] // BAD: effect/hot-alloc
}

/// Looks a sample up; the panicking index is one call deeper.
pub fn lookup(xs: &[u64], i: usize) -> u64 {
    pick(xs, i)
}

fn pick(xs: &[u64], i: usize) -> u64 {
    xs[i] // BAD: effect/hot-panic
}

/// Settles outstanding work; the blocking call is one call deeper.
pub fn drain() {
    settle();
}

fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(1)); // BAD: effect/hot-block
}
