//! A small deterministic parallel sweep driver.
//!
//! Experiments are embarrassingly parallel over (parameter point, seed)
//! pairs; this driver fans the points out over scoped threads and
//! returns results in input order regardless of completion order.
//! Workers claim points in input order from one atomic cursor and keep
//! their results to themselves until they are joined, so nothing is
//! locked.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over `points` using up to `threads` OS threads, returning the
/// results in input order. `f` must be deterministic per point for the
/// sweep to be reproducible.
pub fn sweep<P, R, F>(points: Vec<P>, threads: usize, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let threads = threads.max(1).min(points.len().max(1));
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(point) = points.get(i) else { return done };
            done.push((i, f(point)));
        }
    };
    let mut slots: Vec<Option<R>> = points.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
        for worker in workers {
            for (i, r) in worker.join().expect("sweep workers must not panic") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every point claimed once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let points: Vec<u64> = (0..200).collect();
        let out = sweep(points.clone(), 8, |&p| p * p);
        let expect: Vec<u64> = points.iter().map(|p| p * p).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let points: Vec<u32> = (0..50).collect();
        let seq = sweep(points.clone(), 1, |&p| p ^ 0xAB);
        let par = sweep(points, 7, |&p| p ^ 0xAB);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = sweep(Vec::<u32>::new(), 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_sizes() {
        // Workers pull items dynamically; heavy tails shouldn't stall.
        let points: Vec<u64> = (0..32).collect();
        let out = sweep(points, 4, |&p| {
            let mut acc = 0u64;
            for i in 0..(p % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 32);
    }
}
