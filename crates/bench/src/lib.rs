//! # pdo-bench — the paper-reproduction harness
//!
//! One module per experiment family, each regenerating a table or figure of
//! the PLDI 2002 paper:
//!
//! | module    | paper artifact |
//! |-----------|----------------|
//! | [`video`] | Fig 5 (event graph), Fig 6 (reduced graph), Fig 10 (video player times), Fig 11 (event processing times) |
//! | [`secc`]  | Fig 12 (SecComm push/pop times by packet size) |
//! | [`xcli`]  | Fig 13 (X client Scroll/Popup times) |
//! | [`sizes`] | §4.2 code-size growth |
//! | [`ablate`]| ablations over the optimizer's design choices (§3.2/§5) |
//!
//! The `report` binary prints each table with the paper's reference numbers
//! alongside; the Criterion benches measure the same paths statistically.
//! The crate root also holds what the overhead-gate binaries share: their
//! summary statistics ([`median`], [`mean_ci`], [`json_side`]) and their
//! dispatch workload ([`build_module`], [`runtime_for`]).

pub mod ablate;
pub mod paper;
pub mod secc;
pub mod sizes;
pub mod video;
pub mod xcli;

use pdo_events::Runtime;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use std::time::Instant;

/// Measures the average wall-clock nanoseconds of `op` over `iters`
/// iterations (after `warmup` unmeasured ones). The measurement is the
/// *best of three* batch averages — the minimum is robust against
/// scheduler noise on a shared machine, which otherwise swamps the
/// dispatch-overhead deltas when payload work (e.g. DES) dominates.
pub fn avg_ns(warmup: u32, iters: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let batch = iters.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        let avg = t0.elapsed().as_nanos() as f64 / f64::from(batch);
        if avg < best {
            best = avg;
        }
    }
    best
}

/// Formats a ratio as the paper's `(%)` columns: optimized as a percentage
/// of original.
pub fn percent(optimized: f64, original: f64) -> f64 {
    if original == 0.0 {
        100.0
    } else {
        optimized * 100.0 / original
    }
}

/// Median of `xs` (sorts in place; the mean of the middle two for an
/// even count).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean and normal-approximation 95% CI half-width over `xs`.
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// One side of an interleaved A/B gate as a JSON object: the median of
/// the per-round minimum batch averages, and the mean ± 95% CI of the
/// per-round mean batch averages.
pub fn json_side(mins: &[f64], means: &[f64]) -> String {
    let mut mins = mins.to_vec();
    let (mean, ci95) = mean_ci(means);
    format!(
        "{{ \"median_min_ns\": {:.2}, \"mean_ns\": {:.2}, \"ci95_ns\": {:.2} }}",
        median(&mut mins),
        mean,
        ci95
    )
}

/// The overhead gates' dispatch workload: one event `E` with `handlers`
/// one-argument handlers, each adding its 1-based index to a global
/// under that global's lock.
pub fn build_module(handlers: usize) -> (Module, EventId, Vec<FuncId>) {
    let mut m = Module::new();
    let e = m.add_event("E");
    let g = m.add_global("acc", Value::Int(0));
    let ids = (0..handlers)
        .map(|i| {
            let mut b = FunctionBuilder::new(format!("h{i}"), 1);
            b.lock(g);
            let v = b.load_global(g);
            let k = b.const_int(i as i64 + 1);
            let s = b.bin(BinOp::Add, v, k);
            b.store_global(g, s);
            b.unlock(g);
            b.ret(None);
            m.add_function(b.finish())
        })
        .collect();
    (m, e, ids)
}

/// A runtime over `m` with `hs` bound to `e` in order.
pub fn runtime_for(m: &Module, e: EventId, hs: &[FuncId]) -> Runtime {
    let mut rt = Runtime::new(m.clone());
    for (i, &h) in hs.iter().enumerate() {
        rt.bind(e, h, i as i32).expect("bind");
    }
    rt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_basics() {
        assert!((percent(50.0, 100.0) - 50.0).abs() < 1e-9);
        assert_eq!(percent(1.0, 0.0), 100.0);
    }

    #[test]
    fn median_and_mean_ci() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        let (mean, ci) = mean_ci(&[1.0, 1.0, 1.0]);
        assert_eq!((mean, ci), (1.0, 0.0));
    }

    #[test]
    fn avg_ns_counts_iterations() {
        let mut n = 0u32;
        let _ = avg_ns(2, 10, || n += 1);
        assert_eq!(n, 2 + 3 * 10);
    }
}
