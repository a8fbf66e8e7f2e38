//! The ordered replication fold shared by every replicated entry
//! point: the Monte-Carlo executors ([`crate::ScenarioSweep`],
//! [`crate::StrategyExecutor`]) and the community sweeps of
//! `gridstrat-fleet` (`FleetSweep`, `ShardedFleet`).
//!
//! A replicated run is a flat index space `0..jobs` (cell × trial, or cell
//! × replication) whose per-index outputs are folded **in index order**
//! into per-cell accumulators. [`fold_ordered`] runs that space in rounds:
//! each round hands every pool lane one fixed chunk of consecutive
//! indices, and after the round the calling thread folds the round's
//! outputs in index order before the next round starts. So:
//!
//! * **memory** is `O(lanes × chunk)` outputs plus one worker per lane,
//!   not `O(jobs)` — a 960k-trial sweep never holds 960k outcomes, and a
//!   community sweep never holds more than one replication per lane;
//! * **results are bit-identical for any thread count**: the fold sees
//!   exactly the index order a sequential loop would, and each index's
//!   output depends only on its index (the worker a lane reuses is
//!   rewound bit-exactly between uses, so reuse is unobservable).
//!
//! Each lane owns a persistent worker slot (`Mutex<Option<W>>`, never
//! contended: lane `l` is only ever touched by round item `l`), so engine
//! and controller allocations survive across rounds.

use rayon::prelude::*;
use std::sync::Mutex;

/// Runs `run(slot, k)` for every `k` in `0..jobs` on the current pool and
/// feeds each output to `fold(k, output)` in increasing `k`.
///
/// `chunk` consecutive indices go to one lane per round; `slot` is that
/// lane's persistent worker (`None` until `run` installs one). `run` must
/// make its output a function of `k` alone — whichever worker state the
/// slot carries in — which is what keeps the fold independent of the
/// thread count and of `chunk`.
pub fn fold_ordered<W, T>(
    jobs: usize,
    chunk: usize,
    run: impl Fn(&mut Option<W>, usize) -> T + Sync,
    mut fold: impl FnMut(usize, T),
) where
    W: Send,
    T: Send,
{
    assert!(chunk > 0, "replication chunks must be non-empty");
    let lanes = rayon::current_num_threads().clamp(1, jobs.div_ceil(chunk).max(1));
    let slots: Vec<Mutex<Option<W>>> = (0..lanes).map(|_| Mutex::new(None)).collect();
    let mut start = 0;
    while start < jobs {
        let round: Vec<Vec<T>> = (0..lanes)
            .into_par_iter()
            .map(|lane| {
                let lo = (start + lane * chunk).min(jobs);
                let hi = (lo + chunk).min(jobs);
                let mut slot = slots[lane].lock().expect(
                    "a lane slot is poisoned only by a panicking run, which aborts the fold",
                );
                (lo..hi).map(|k| run(&mut slot, k)).collect()
            })
            .collect();
        for (k, out) in (start..).zip(round.into_iter().flatten()) {
            fold(k, out);
        }
        start += lanes * chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn folded(jobs: usize, chunk: usize, threads: usize) -> (Vec<(usize, u64)>, usize) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let built = std::sync::atomic::AtomicUsize::new(0);
        let mut seen = Vec::new();
        pool.install(|| {
            fold_ordered(
                jobs,
                chunk,
                |slot: &mut Option<u64>, k| {
                    slot.get_or_insert_with(|| {
                        built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        7
                    });
                    k as u64 * 3
                },
                |k, out| seen.push((k, out)),
            )
        });
        (seen, built.into_inner())
    }

    #[test]
    fn folds_every_index_once_in_order() {
        for (jobs, chunk) in [(0, 4), (1, 4), (10, 3), (12, 4), (37, 5), (5, 100)] {
            for threads in [1, 2, 3, 7] {
                let (seen, _) = folded(jobs, chunk, threads);
                let want: Vec<(usize, u64)> = (0..jobs).map(|k| (k, k as u64 * 3)).collect();
                assert_eq!(seen, want, "jobs {jobs}, chunk {chunk}, {threads} threads");
            }
        }
    }

    #[test]
    fn lanes_keep_their_worker_across_rounds() {
        // 3 lanes over 10 rounds build 3 workers, not 30; a run shorter
        // than the pool builds only the lanes it needs
        assert_eq!(folded(30, 1, 3).1, 3);
        assert_eq!(folded(2, 1, 7).1, 2);
    }
}
