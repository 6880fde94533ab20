//! One allocation form per function, each named as a hot root of its
//! own: the turbofish `collect` (the name is not followed by `(`) and
//! the growth methods. Each BAD marker is the witness line its root's
//! finding must cite.

pub fn gather(xs: &[u64]) -> usize {
    xs.iter().copied().collect::<Vec<u64>>().len() // BAD: effect/hot-alloc
}

pub fn append(out: &mut Vec<u64>, xs: &[u64]) {
    out.extend(xs.iter().copied()); // BAD: effect/hot-alloc
}

pub fn append_slice(out: &mut Vec<u64>, xs: &[u64]) {
    out.extend_from_slice(xs); // BAD: effect/hot-alloc
}

pub fn fit(out: &mut Vec<u64>, n: usize) {
    out.resize(n, 0); // BAD: effect/hot-alloc
}

pub fn presize(out: &mut Vec<u64>, n: usize) {
    out.reserve(n); // BAD: effect/hot-alloc
}
