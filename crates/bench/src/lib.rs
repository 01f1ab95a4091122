//! Benchmark-support crate: the benches live in `benches/`.
//!
//! The library holds the few helpers the pass/fail bench mains share —
//! environment overrides and sample estimators — and links the whole
//! dependency stack in one place so `cargo bench --workspace` picks up
//! every bench target.

/// The value of environment variable `name` parsed as a number, or
/// `default` when it is unset or does not parse.
pub fn env_or(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The smallest sample (best-of-N timing); `f64::INFINITY` for none.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The upper median of `xs`, sorting it in place. Panics on an empty
/// slice or a NaN sample.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}
