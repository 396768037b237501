//! The one way the experiment binaries time repeated runs.
//!
//! Every timed workload is deterministic, so repeats differ only in
//! what the clock saw, and the minimum is the least-noise estimate of
//! the run's cost. A/B arms run round-robin (A, B, A, B, …) rather than
//! blocked (A, A, B, B), so slow drift of a shared host over a
//! multi-minute sweep lands on every arm alike instead of on whichever
//! arm happened to run last.

use std::time::Instant;

/// Runs `f` once and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One arm's result from [`interleaved`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Best<T> {
    /// The output of the arm's first run; later runs' outputs are
    /// dropped (they are identical for the deterministic workloads
    /// timed here).
    pub first: T,
    /// The arm's fastest wall time, in seconds.
    pub secs: f64,
}

/// Runs `arms` round-robin for `rounds` rounds and returns each arm's
/// first output and minimum time. An arm returns its output and the
/// seconds it measured itself (usually through [`timed`]), so setup
/// outside its timed region stays out of the sample.
///
/// # Panics
///
/// If `rounds` is zero: there would be no sample to report.
pub fn interleaved<T, const K: usize>(
    rounds: usize,
    mut arms: [&mut dyn FnMut() -> (T, f64); K],
) -> [Best<T>; K] {
    assert!(rounds >= 1, "timing needs at least one round");
    let mut firsts: [Option<T>; K] = std::array::from_fn(|_| None);
    let mut mins = [f64::INFINITY; K];
    for _ in 0..rounds {
        for (i, arm) in arms.iter_mut().enumerate() {
            let (out, secs) = arm();
            mins[i] = mins[i].min(secs);
            firsts[i].get_or_insert(out);
        }
    }
    std::array::from_fn(|i| Best {
        first: firsts[i].take().expect("every arm ran at least once"),
        secs: mins[i],
    })
}

/// Seconds per call of `f`, for calls too short to time one at a time.
/// The batch size grows ×4 until one batch takes over 10 ms; that batch
/// is the first of `rounds` batches, and the fastest sets the result.
pub fn per_call(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = |reps: u32| timed(|| (0..reps).for_each(|_| f())).1;
    let mut reps = 1u32;
    let mut secs = batch(reps);
    while secs <= 0.01 && reps < 1 << 20 {
        reps *= 4;
        secs = batch(reps);
    }
    if rounds > 1 {
        let [rest] = interleaved(rounds - 1, [&mut || ((), batch(reps))]);
        secs = secs.min(rest.secs);
    }
    secs / f64::from(reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn arms_run_round_robin() {
        let order = RefCell::new(String::new());
        let arm = |name| {
            let order = &order;
            move || {
                order.borrow_mut().push(name);
                ((), 0.0)
            }
        };
        let _ = interleaved(3, [&mut arm('A'), &mut arm('B')]);
        assert_eq!(*order.borrow(), "ABABAB");
    }

    #[test]
    fn each_arm_reports_its_minimum_and_first_output() {
        let mut a = [3.0, 1.0, 2.0].into_iter().enumerate();
        let mut b = [0.5, 0.7, 0.25].into_iter().enumerate();
        let [a, b] = interleaved(
            3,
            [&mut || a.next().expect("three rounds"), &mut || {
                b.next().expect("three rounds")
            }],
        );
        assert_eq!(
            a,
            Best {
                first: 0,
                secs: 1.0
            }
        );
        assert_eq!(
            b,
            Best {
                first: 0,
                secs: 0.25
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_is_a_bug() {
        let _ = interleaved(0, [&mut || ((), 1.0)]);
    }

    #[test]
    fn per_call_counts_the_sizing_batch_as_a_round() {
        // Each call outlasts the 10 ms floor, so batches hold one call
        // and `rounds` batches make `rounds` calls in all.
        let mut calls = 0;
        let secs = per_call(3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(11));
        });
        assert_eq!(calls, 3);
        assert!(secs >= 0.011, "{secs}");
    }

    #[test]
    fn timed_returns_the_output() {
        let (out, secs) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
    }
}
