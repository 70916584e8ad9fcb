//! A small deterministic parallel sweep driver.
//!
//! Experiments are embarrassingly parallel over (parameter point, seed)
//! pairs; this driver fans the points out over crossbeam scoped threads and
//! returns results in input order regardless of completion order. Each
//! worker owns its state; the only shared structure is a mutex around
//! the next-index counter and the result slots. Locks ignore poison, so
//! one panicking worker does not take the others down with it.

use std::sync::{Mutex, PoisonError};

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
    let n = points.len();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = Mutex::new(0usize);
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = {
                    let mut guard = next.lock().unwrap_or_else(PoisonError::into_inner);
                    let i = *guard;
                    if i >= n {
                        break;
                    }
                    *guard += 1;
                    i
                };
                let r = f(&points[i]);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    })
    .expect("sweep workers must not panic");
    let filled = |slot: Mutex<Option<R>>| slot.into_inner().ok().flatten();
    slots.into_iter().map(|slot| filled(slot).expect("every slot filled")).collect()
}

/// Number of worker threads to use by default: the available parallelism,
/// clamped to a small cap so experiment boxes stay responsive.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(16)
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
